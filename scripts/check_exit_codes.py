#!/usr/bin/env python3
"""Pins mph-lint's exit-code contract (docs/ANALYSIS.md):

  0  no error-severity diagnostics (warnings and notes alone pass)
  1  error diagnostics; warnings under --werror; unknown (budget-exhausted)
     verdicts under --strict-unknown — unknowns must never silently pass
     strict runs
  2  usage or parse failures (bad flags, unknown models, malformed formulas,
     missing required arguments)

Usage: check_exit_codes.py PATH-TO-MPH-LINT [--fuzz PATH-TO-MPH-FUZZ]
                           [--serve PATH-TO-MPH-SERVE]

Runs a battery of invocations against the real binaries and fails on the
first mismatch, so any drift in the contract breaks `ctest -L lint`. With
--fuzz / --serve the battery additionally pins the malformed-numeric-flag
contract on those tools: "abc", "1e9x", "-5" and out-of-range values are
usage errors (exit 2), never an uncaught std::invalid_argument (which
aborts with a nonsense code) and never a silently truncated value.
"""
import subprocess
import sys

# A requirement that holds vacuously on trivial-mutex: mutating either atom
# still holds, so --vacuity reports MPH-Y001 warnings (exit 0 without
# --werror). Budget 3 states is below peterson's 15 reachable states, so
# checks under it exhaust and the vacuity verdict is unknown (MPH-Y005).
VACUOUS = "G !(c1 & c2)"
LIVENESS = "G(t1 -> F c1)"

CASES = [
    # (expected exit code, description, args)
    (0, "clean positional formula", ["G p"]),
    (0, "model lint, warnings/notes only", ["--model", "trivial-mutex"]),
    (0, "check that holds", ["--model", "peterson", "--quiet", "--check", LIVENESS]),
    (0, "vacuity warnings without --werror",
     ["--model", "trivial-mutex", "--quiet", "--vacuity", "--check", VACUOUS]),
    (1, "vacuity warnings under --werror",
     ["--model", "trivial-mutex", "--quiet", "--werror", "--vacuity",
      "--check", VACUOUS]),
    # Whole-batch budget exhaustion is an Error (MPH-V004): exit 1 with or
    # without --strict-unknown.
    (1, "exhausted --check batch (MPH-V004 error)",
     ["--model", "peterson", "--quiet", "--check", LIVENESS,
      "--budget-states", "3"]),
    # The vacuity-only path keeps the engine silent, so exhaustion surfaces
    # as MPH-Y005 warnings: exit 0 normally, 1 under --strict-unknown.
    (0, "exhausted vacuity without --strict-unknown",
     ["--model", "peterson", "--quiet", "--vacuity", LIVENESS,
      "--budget-states", "3"]),
    (1, "exhausted vacuity under --strict-unknown",
     ["--model", "peterson", "--quiet", "--strict-unknown", "--vacuity",
      LIVENESS, "--budget-states", "3"]),
    (0, "complete run under --strict-unknown",
     ["--model", "peterson", "--quiet", "--strict-unknown", "--vacuity",
      "--check", LIVENESS]),
    # --strict-class: exit 1 unless every requirement's class membership is
    # *established* (exact via normalization, else sound syntactic claims).
    (0, "strict-class holds (exact classes inside the gate)",
     ["--quiet", "--classify", "--strict-class", "recurrence",
      VACUOUS, "F(p & F q)", LIVENESS]),
    (1, "strict-class violated (safety is not guarantee)",
     ["--quiet", "--strict-class", "guarantee", VACUOUS]),
    # G(p | F G q) is syntactically reactivity but exactly persistence: the
    # gate passes only because normalization establishes the exact class.
    (0, "strict-class rescued by normalization",
     ["--quiet", "--strict-class", "persistence", "G(p | F G q)"]),
    # Same formula under a 1-step normalization budget: the class stays
    # unknown (MPH-N003) and the strict gate must fail, never silently pass.
    (1, "strict-class with budget-stopped class fails the gate",
     ["--quiet", "--strict-class", "persistence", "--normalize-steps", "1",
      "G(p | F G q)"]),
    (0, "--normalize prints forms, exit stays 0", ["--quiet", "--normalize", "G p"]),
    # --subsume: pairwise Büchi language inclusion over the requirement set.
    # Redundancy is a warning (MPH-S011/S012): exit 0 plain, 1 under --werror.
    (0, "subsumed requirement without --werror",
     ["--quiet", "--subsume", "G p", "G (p & q)"]),
    (1, "subsumed requirement under --werror",
     ["--quiet", "--werror", "--subsume", "G p", "G (p & q)"]),
    (0, "independent requirements under --subsume --werror",
     ["--quiet", "--werror", "--subsume", "G p", "F q"]),
    # A 1-state inclusion budget leaves every pair undecided (MPH-S013, a
    # note): exit 0 normally, 1 under --strict-unknown.
    (0, "undecided subsumption without --strict-unknown",
     ["--quiet", "--subsume", "--budget-states", "1", "G p", "G (p & q)"]),
    (1, "undecided subsumption under --strict-unknown",
     ["--quiet", "--strict-unknown", "--subsume", "--budget-states", "1",
      "G p", "G (p & q)"]),
    (2, "--subsume without requirements", ["--subsume"]),
    (2, "--strict-class without requirements", ["--strict-class", "safety"]),
    (2, "--strict-class with unknown class name", ["--strict-class", "bogus", "G p"]),
    (2, "no inputs at all", []),
    (2, "unknown flag", ["--bogus"]),
    (2, "unknown model", ["--model", "no-such-model"]),
    (2, "malformed positional formula", ["G (("]),
    (2, "malformed --check formula", ["--model", "peterson", "--check", "G (("]),
    (2, "--check without a model", ["--check", "G p", "G p"]),
    (2, "--vacuity without a model", ["--vacuity", "G p"]),
    (2, "--vacuity without requirements", ["--model", "peterson", "--vacuity"]),
    (2, "missing flag argument", ["--model"]),
    # Malformed numeric flag values: all usage errors, never crashes.
    (2, "non-numeric --threads", ["--model", "peterson", "--threads", "abc",
                                  "--check", LIVENESS]),
    (2, "trailing garbage in --budget-ms",
     ["--model", "peterson", "--budget-ms", "1e9x", "--check", LIVENESS]),
    (2, "negative --budget-states",
     ["--model", "peterson", "--budget-states", "-5", "--check", LIVENESS]),
    (2, "out-of-range --threads",
     ["--model", "peterson", "--threads", "99999", "--check", LIVENESS]),
    (2, "retired --explore-threads is an unknown option",
     ["--model", "peterson", "--explore-threads", "2", "--check", LIVENESS]),
    # Class-aware dispatch is the only route, so its switches are gone.
    (2, "retired --dispatch is an unknown option",
     ["--model", "peterson", "--dispatch", "--check", LIVENESS]),
    (2, "retired --no-dispatch is an unknown option",
     ["--model", "trivial-mutex", "--no-dispatch", "--vacuity", "--check", VACUOUS]),
    (2, "overflowing --normalize-steps",
     ["--quiet", "--classify", "--normalize-steps", "99999999999999999999",
      "G p"]),
    (2, "empty --threads value", ["--model", "peterson", "--threads", "",
                                  "--check", LIVENESS]),
    # --absint: interval abstract interpretation over the symbolic model
    # (docs/ABSINT.md). dining-N carries a dead escalate transition and
    # wrapping put_downs, so the findings are warnings: 0 plain, 1 --werror.
    (0, "absint findings without --werror",
     ["--model", "dining-2", "--quiet", "--absint"]),
    (1, "absint findings under --werror",
     ["--model", "dining-2", "--quiet", "--werror", "--absint"]),
    (0, "absint static proof of box safety",
     ["--model", "ring-2", "--quiet", "--absint", "--check", "G alarmlo"]),
    (2, "--absint without a model", ["--absint", "G p"]),
    (2, "--absint on a model without a symbolic description",
     ["--model", "peterson", "--absint"]),
]

# mph-fuzz: same strict-numeric contract on its flags (a silently truncated
# "1e9x" used to fuzz 1 iteration and "pass").
FUZZ_CASES = [
    (2, "non-numeric --seed", ["--seed", "abc", "--iters", "1"]),
    (2, "trailing garbage in --iters", ["--iters", "1e9x"]),
    (2, "negative --max-failures", ["--max-failures", "-5"]),
    (2, "non-numeric --iter-budget-ms", ["--iter-budget-ms", "soon"]),
    (2, "non-numeric --case-iter", ["--case-iter", "0x10"]),
    (2, "unknown flag", ["--bogus"]),
    (0, "clean tiny run", ["--oracle", "lasso-roundtrip", "--iters", "2",
                           "--seed", "1"]),
]

# mph-serve: flag parsing only (the wire protocol battery lives in
# serve_smoke.py).
SERVE_CASES = [
    (2, "non-numeric --listen", ["--listen", "http"]),
    (2, "out-of-range --listen", ["--listen", "70000"]),
    (2, "non-numeric --max-budget-states", ["--max-budget-states", "lots"]),
    (2, "negative --max-budget-ms", ["--max-budget-ms", "-1"]),
    (2, "unknown flag", ["--bogus"]),
]


def run_battery(binary, cases, tool):
    failures = 0
    for expected, description, args in cases:
        proc = subprocess.run([binary, *args], capture_output=True, text=True)
        if proc.returncode != expected:
            failures += 1
            print(f"FAIL: {tool}: {description}: expected exit {expected}, "
                  f"got {proc.returncode}\n  args: {args}\n  stderr: "
                  f"{proc.stderr.strip()[:300]}", file=sys.stderr)
    return failures


def main():
    argv = sys.argv[1:]
    if not argv:
        print("usage: check_exit_codes.py PATH-TO-MPH-LINT "
              "[--fuzz PATH-TO-MPH-FUZZ] [--serve PATH-TO-MPH-SERVE]",
              file=sys.stderr)
        sys.exit(2)
    lint = argv[0]
    fuzz = serve = None
    i = 1
    while i < len(argv):
        if argv[i] == "--fuzz" and i + 1 < len(argv):
            fuzz = argv[i + 1]
            i += 2
        elif argv[i] == "--serve" and i + 1 < len(argv):
            serve = argv[i + 1]
            i += 2
        else:
            print(f"check_exit_codes.py: unknown argument {argv[i]}",
                  file=sys.stderr)
            sys.exit(2)

    failures = run_battery(lint, CASES, "mph-lint")
    total = len(CASES)
    if fuzz:
        failures += run_battery(fuzz, FUZZ_CASES, "mph-fuzz")
        total += len(FUZZ_CASES)
    if serve:
        failures += run_battery(serve, SERVE_CASES, "mph-serve")
        total += len(SERVE_CASES)
    if failures:
        print(f"{failures} of {total} exit-code case(s) failed",
              file=sys.stderr)
        sys.exit(1)
    print(f"all {total} exit-code case(s) hold")


if __name__ == "__main__":
    main()
