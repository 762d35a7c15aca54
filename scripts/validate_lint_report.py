#!/usr/bin/env python3
"""Schema validation for mph-lint --json reports (docs/ANALYSIS.md).

Usage:
  validate_lint_report.py PATH [--expect-code CODE]...
  validate_lint_report.py [--expect-code CODE]... --exec MPH-LINT ARG...

The second form runs mph-lint itself and validates its stdout, so ctest can
exercise the CLI end to end without shell redirection. The report must carry
the diagnostics document:

  {"diagnostics": [{code, severity, subject, message, ...}, ...],
   "counts": {"error": E, "warning": W, "note": N},
   "vacuity": {...},    # present iff --vacuity was given
   "coverage": {...},   # present iff --coverage was given
   "classify": {...},   # present iff --classify/--normalize/--strict-class
   "absint": {...}}     # present iff --absint (docs/ABSINT.md)

Every --expect-code CODE must appear among the diagnostics. Exits 0 iff the
document matches; prints the first problem and exits 1 otherwise.
"""
import json
import re
import subprocess
import sys

SEVERITIES = {"error", "warning", "note"}
CODE_RE = re.compile(r"^MPH-[A-Z]\d{3}$")
VERDICTS = {"violated", "VACUOUS", "non-vacuous", "unknown"}
OUTCOMES = {"complete", "budget-states", "budget-deadline", "cancelled"}
ENGINES = {"constant", "safety-prefix", "guarantee-dual", "SCC", "SCC (NBA)",
           "skipped"}
POLARITIES = {"positive", "negative", "mixed"}
CLASSES = {"safety", "guarantee", "obligation", "recurrence", "persistence",
           "reactivity"}


def fail(msg):
    print(f"lint report schema violation: {msg}", file=sys.stderr)
    sys.exit(1)


def require(cond, msg):
    if not cond:
        fail(msg)


def check_diagnostics(data):
    diags = data.get("diagnostics")
    require(isinstance(diags, list), "'diagnostics' missing or not a list")
    by_severity = {s: 0 for s in SEVERITIES}
    for i, d in enumerate(diags):
        where = f"diagnostics[{i}]"
        require(isinstance(d, dict), f"{where}: not an object")
        require(CODE_RE.match(d.get("code", "")),
                f"{where}: 'code' {d.get('code')!r} is not an MPH code")
        require(d.get("severity") in SEVERITIES,
                f"{where}: unknown severity {d.get('severity')!r}")
        by_severity[d["severity"]] += 1
        for key in ("subject", "message"):
            require(isinstance(d.get(key), str) and d[key],
                    f"{where}: '{key}' missing or empty")
        for key in ("location", "witness", "fix_hint"):
            if key in d:
                require(isinstance(d[key], str) and d[key],
                        f"{where}: optional '{key}' present but empty")
    counts = data.get("counts")
    require(isinstance(counts, dict), "'counts' missing")
    for severity in SEVERITIES:
        require(counts.get(severity) == by_severity[severity],
                f"counts[{severity!r}] is {counts.get(severity)} but "
                f"{by_severity[severity]} diagnostic(s) carry that severity")
    return diags


def check_mutant(m, where):
    require(isinstance(m, dict), f"{where}: not an object")
    for key in ("occurrence", "replacement", "text"):
        require(isinstance(m.get(key), str) and m[key],
                f"{where}: '{key}' missing or empty")
    require(m.get("polarity") in POLARITIES,
            f"{where}: unknown polarity {m.get('polarity')!r}")
    require(m.get("replacement") in {"true", "false"},
            f"{where}: replacement {m.get('replacement')!r} is not a constant")
    require(m.get("engine") in ENGINES,
            f"{where}: unknown engine {m.get('engine')!r}")
    require(m.get("outcome") in OUTCOMES,
            f"{where}: unknown outcome {m.get('outcome')!r}")
    require(isinstance(m.get("holds"), bool), f"{where}: 'holds' is not a bool")


def check_vacuity(v):
    require(isinstance(v, dict), "'vacuity' is not an object")
    require(isinstance(v.get("model"), str) and v["model"], "vacuity: missing 'model'")
    reqs = v.get("requirements")
    require(isinstance(reqs, list), "vacuity: 'requirements' missing")
    for i, r in enumerate(reqs):
        where = f"vacuity.requirements[{i}]"
        require(isinstance(r, dict), f"{where}: not an object")
        require(isinstance(r.get("text"), str) and r["text"], f"{where}: missing 'text'")
        require(r.get("verdict") in VERDICTS,
                f"{where}: unknown verdict {r.get('verdict')!r}")
        require(isinstance(r.get("holds"), bool), f"{where}: 'holds' is not a bool")
        require(r.get("outcome") in OUTCOMES,
                f"{where}: unknown outcome {r.get('outcome')!r}")
        require(isinstance(r.get("antecedent_failure"), bool),
                f"{where}: 'antecedent_failure' is not a bool")
        mutants = r.get("mutants")
        require(isinstance(mutants, list), f"{where}: 'mutants' missing")
        for j, m in enumerate(mutants):
            check_mutant(m, f"{where}.mutants[{j}]")
        # Verdict / payload consistency: a vacuous pass either short-circuited
        # on the antecedent or owns a holding mutant; a non-vacuous one holds
        # with no holding mutant and may carry an interesting witness.
        holding = [m for m in mutants if m["holds"] and m["engine"] != "skipped"]
        if r["verdict"] == "VACUOUS":
            require(r["antecedent_failure"] or holding,
                    f"{where}: VACUOUS without an antecedent failure or holding mutant")
        if r["verdict"] == "non-vacuous":
            require(r["holds"] and not holding,
                    f"{where}: non-vacuous but a strengthening mutant still holds")
        if "witness" in r:
            require(r["verdict"] == "non-vacuous",
                    f"{where}: witness on a {r['verdict']} requirement")
            w = r["witness"]
            require(isinstance(w, dict) and isinstance(w.get("prefix"), int)
                    and isinstance(w.get("loop"), int) and w["loop"] >= 1,
                    f"{where}: witness is not a lasso (prefix/loop sizes)")
    stats = v.get("stats")
    require(isinstance(stats, dict), "vacuity: 'stats' missing")
    for key in ("mutants_checked", "mutants_skipped", "safety_prefix",
                "guarantee_dual", "scc", "constant", "unknown"):
        require(isinstance(stats.get(key), int) and stats[key] >= 0,
                f"vacuity.stats: '{key}' missing or negative")
    engines_sum = (stats["safety_prefix"] + stats["guarantee_dual"] +
                   stats["scc"] + stats["constant"] +
                   stats["unknown"])
    require(engines_sum == stats["mutants_checked"],
            f"vacuity.stats: engine tallies sum to {engines_sum}, "
            f"not mutants_checked = {stats['mutants_checked']}")


def check_coverage(c):
    require(isinstance(c, dict), "'coverage' is not an object")
    require(isinstance(c.get("model"), str) and c["model"], "coverage: missing 'model'")
    transitions = c.get("transitions")
    require(isinstance(transitions, list), "coverage: 'transitions' missing")
    reachable = covered = unknown = 0
    for i, t in enumerate(transitions):
        where = f"coverage.transitions[{i}]"
        require(isinstance(t, dict), f"{where}: not an object")
        require(isinstance(t.get("transition"), int) and t["transition"] >= 0,
                f"{where}: missing 'transition' index")
        require(isinstance(t.get("name"), str) and t["name"], f"{where}: missing 'name'")
        for key in ("reachable", "covered", "unknown"):
            require(isinstance(t.get(key), bool), f"{where}: '{key}' is not a bool")
        require(not (t["covered"] and t["unknown"]),
                f"{where}: both covered and unknown")
        require(t["reachable"] or not (t["covered"] or t["unknown"]),
                f"{where}: unreachable transition marked covered/unknown")
        reachable += t["reachable"]
        covered += t["covered"]
        unknown += t["unknown"]
    for key, value in (("reachable", reachable), ("covered", covered),
                       ("unknown", unknown)):
        require(c.get(key) == value,
                f"coverage: '{key}' is {c.get(key)} but rows sum to {value}")
    require(isinstance(c.get("percent_covered"), (int, float)) and
            0 <= c["percent_covered"] <= 100,
            "coverage: 'percent_covered' missing or out of range")
    require(c.get("outcome") in OUTCOMES,
            f"coverage: unknown outcome {c.get('outcome')!r}")


def check_classify(c):
    require(isinstance(c, dict), "'classify' is not an object")
    reqs = c.get("requirements")
    require(isinstance(reqs, list), "classify: 'requirements' missing")
    exact = refused = budget = 0
    for i, r in enumerate(reqs):
        where = f"classify.requirements[{i}]"
        require(isinstance(r, dict), f"{where}: not an object")
        require(isinstance(r.get("text"), str) and r["text"], f"{where}: missing 'text'")
        require(r.get("syntactic") in CLASSES,
                f"{where}: unknown syntactic class {r.get('syntactic')!r}")
        require(r.get("exact") is None or r["exact"] in CLASSES,
                f"{where}: unknown exact class {r.get('exact')!r}")
        require(r.get("outcome") in OUTCOMES,
                f"{where}: unknown outcome {r.get('outcome')!r}")
        require(isinstance(r.get("steps"), int) and r["steps"] >= 0,
                f"{where}: 'steps' missing or negative")
        if "normal_form" in r:
            require(isinstance(r["normal_form"], str) and r["normal_form"],
                    f"{where}: 'normal_form' present but empty")
            require(r.get("exact") is not None,
                    f"{where}: normal form attached without an exact class")
        if r["outcome"] == "complete":
            exact += r["exact"] is not None
            refused += r["exact"] is None
        else:
            budget += 1
            require(r.get("exact") is None,
                    f"{where}: budget-stopped normalization claims an exact class")
    for key, value in (("exact", exact), ("refused", refused), ("budget", budget)):
        require(c.get(key) == value,
                f"classify: '{key}' is {c.get(key)} but rows sum to {value}")


def check_absint(a):
    require(isinstance(a, dict), "'absint' is not an object")
    require(isinstance(a.get("model"), str) and a["model"], "absint: missing 'model'")
    require(isinstance(a.get("iterations"), int) and a["iterations"] >= 1,
            "absint: 'iterations' missing or < 1")
    for key in ("widened", "narrowed"):
        require(isinstance(a.get(key), bool), f"absint: '{key}' is not a bool")
    invs = a.get("invariants")
    require(isinstance(invs, list) and invs, "absint: 'invariants' missing or empty")
    tightened = 0
    for i, inv in enumerate(invs):
        where = f"absint.invariants[{i}]"
        require(isinstance(inv, dict), f"{where}: not an object")
        require(isinstance(inv.get("var"), str) and inv["var"],
                f"{where}: missing 'var'")
        for key in ("dom_lo", "dom_hi", "lo", "hi"):
            require(isinstance(inv.get(key), int), f"{where}: '{key}' missing")
        require(inv["dom_lo"] <= inv["lo"] <= inv["hi"] <= inv["dom_hi"],
                f"{where}: interval [{inv['lo']}, {inv['hi']}] escapes the "
                f"domain [{inv['dom_lo']}, {inv['dom_hi']}]")
        require(isinstance(inv.get("tightened"), bool),
                f"{where}: 'tightened' is not a bool")
        tightened += inv["tightened"]
    trans = a.get("transitions")
    require(isinstance(trans, list) and trans,
            "absint: 'transitions' missing or empty")
    dead = wrapping = 0
    for i, t in enumerate(trans):
        where = f"absint.transitions[{i}]"
        require(isinstance(t, dict), f"{where}: not an object")
        require(isinstance(t.get("name"), str) and t["name"],
                f"{where}: missing 'name'")
        for key in ("dead", "may_wrap"):
            require(isinstance(t.get(key), bool), f"{where}: '{key}' is not a bool")
        wrap_vars = t.get("wrap_vars")
        require(isinstance(wrap_vars, list), f"{where}: 'wrap_vars' missing")
        require(bool(wrap_vars) == t["may_wrap"],
                f"{where}: 'wrap_vars' disagrees with 'may_wrap'")
        require(not (t["dead"] and t["may_wrap"]),
                f"{where}: a dead transition cannot also wrap")
        dead += t["dead"]
        wrapping += t["may_wrap"]
    for key, value in (("dead_count", dead), ("tightened_count", tightened),
                       ("wrap_count", wrapping)):
        require(a.get(key) == value,
                f"absint: '{key}' is {a.get(key)} but rows sum to {value}")


def main():
    args = sys.argv[1:]
    expect = []
    while "--expect-code" in args:
        i = args.index("--expect-code")
        require(i + 1 < len(args), "--expect-code needs an argument")
        expect.append(args[i + 1])
        del args[i:i + 2]
    if args and args[0] == "--exec":
        require(len(args) >= 2, "--exec needs a command")
        proc = subprocess.run(args[1:], capture_output=True, text=True)
        require(proc.returncode in (0, 1),
                f"mph-lint exited {proc.returncode}: {proc.stderr.strip()}")
        source, text = " ".join(args[1:]), proc.stdout
    elif len(args) == 1:
        with open(args[0]) as handle:
            source, text = args[0], handle.read()
    else:
        fail("usage: validate_lint_report.py (PATH | --exec CMD ARG...) "
             "[--expect-code CODE]...")

    data = json.loads(text)
    diags = check_diagnostics(data)
    if "vacuity" in data:
        check_vacuity(data["vacuity"])
    if "coverage" in data:
        check_coverage(data["coverage"])
    if "classify" in data:
        check_classify(data["classify"])
    if "absint" in data:
        check_absint(data["absint"])
    codes = {d["code"] for d in diags}
    for code in expect:
        require(code in codes, f"expected diagnostic {code} was not reported")

    extras = [k for k in ("vacuity", "coverage", "classify", "absint") if k in data]
    print(f"{source} ok: {len(diags)} diagnostic(s)" +
          (f", with {', '.join(extras)}" if extras else ""))


if __name__ == "__main__":
    main()
