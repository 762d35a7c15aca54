#!/usr/bin/env python3
"""Schema validation for differential-fuzzing reports (docs/FUZZING.md).

Usage: validate_fuzz_report.py PATH

Accepts both report flavors and tells them apart by their tag:
  * `mph-fuzz --json` output  — {"tool": "mph-fuzz", ...}
  * bench/tab12_fuzz output   — {"experiment": "tab12_fuzz", ...}

Exits 0 iff the file parses and matches the documented schema; prints the
first problem and exits 1 otherwise.
"""
import json
import sys


def fail(msg):
    print(f"fuzz report schema violation: {msg}", file=sys.stderr)
    sys.exit(1)


def require(cond, msg):
    if not cond:
        fail(msg)


KNOWN_ORACLES = {
    "dfa-product-laws",
    "operator-duality",
    "classify-vs-forms",
    "ltl-eval-vs-automaton",
    "tableau-vs-reference",
    "fts-engines",
    "vacuity-antecedent",
    "normalize-agreement",
    "lasso-roundtrip",
    "absint-soundness",
    "nba-inclusion",
    "serve-replay",
}


def check_common(data):
    for key in ("seed", "iters"):
        require(isinstance(data.get(key), int) and data[key] >= 0,
                f"'{key}' missing or not a non-negative integer")
    oracles = data.get("oracles")
    require(isinstance(oracles, list) and oracles, "'oracles' missing or empty")
    require(isinstance(data.get("total_failures"), int), "'total_failures' is not an int")
    seen = set()
    total = 0
    for i, row in enumerate(oracles):
        where = f"oracles[{i}]"
        require(isinstance(row, dict), f"{where}: not an object")
        require(row.get("name") in KNOWN_ORACLES,
                f"{where}: unknown oracle name {row.get('name')!r}")
        require(row["name"] not in seen, f"{where}: duplicate oracle {row['name']!r}")
        seen.add(row["name"])
        for key in ("iters", "passed", "skipped"):
            require(isinstance(row.get(key), int) and row[key] >= 0,
                    f"{where}: '{key}' missing or not a non-negative integer")
        # Optional (older reports predate per-iteration budgets): iterations
        # abandoned on budget exhaustion, counted apart from failures.
        budget = row.get("budget_exhausted", 0)
        require(isinstance(budget, int) and budget >= 0,
                f"{where}: 'budget_exhausted' is not a non-negative integer")
        require(isinstance(row.get("seconds"), (int, float)) and row["seconds"] >= 0,
                f"{where}: 'seconds' missing or negative")
        total += check_failures(row, where)
    require(total == data["total_failures"],
            f"'total_failures' is {data['total_failures']} but rows sum to {total}")


def check_failures(row, where):
    """Counts the row's failures; each flavor records them differently."""
    if "failures" in row and isinstance(row["failures"], int):
        # tab12_fuzz: failures is a count.
        require(row["failures"] >= 0, f"{where}: negative failure count")
        n = row["failures"]
    else:
        # mph-fuzz --json: failures is a list of shrunk reproducers.
        failures = row.get("failures")
        require(isinstance(failures, list), f"{where}: 'failures' missing")
        for j, f in enumerate(failures):
            fwhere = f"{where}.failures[{j}]"
            require(isinstance(f, dict), f"{fwhere}: not an object")
            require(isinstance(f.get("iteration"), int), f"{fwhere}: missing 'iteration'")
            require(isinstance(f.get("message"), str) and f["message"],
                    f"{fwhere}: missing 'message'")
            for key in ("original_size", "shrunk_size"):
                require(isinstance(f.get(key), int) and f[key] >= 0,
                        f"{fwhere}: '{key}' missing or negative")
            require(f["shrunk_size"] <= f["original_size"],
                    f"{fwhere}: shrinking grew the case")
            require(isinstance(f.get("case"), str) and
                    f["case"].startswith("mph-fuzz-case v1"),
                    f"{fwhere}: 'case' is not an mph-fuzz-case v1 document")
        n = len(failures)
    require(row["passed"] + row["skipped"] + row.get("budget_exhausted", 0) + n
            <= row["iters"],
            f"{where}: passed+skipped+budget_exhausted+failures exceeds iters")
    return n


def main():
    if len(sys.argv) != 2:
        fail("usage: validate_fuzz_report.py PATH")
    with open(sys.argv[1]) as handle:
        data = json.load(handle)

    if data.get("tool") == "mph-fuzz":
        require(data.get("version") == 1, "wrong or missing 'version'")
    elif data.get("experiment") == "tab12_fuzz":
        require(isinstance(data.get("quick"), bool), "'quick' is not a bool")
        for i, row in enumerate(data.get("oracles") or []):
            if isinstance(row, dict):
                require(isinstance(row.get("iters_per_sec"), (int, float)),
                        f"oracles[{i}]: missing 'iters_per_sec'")
    else:
        fail("neither {'tool': 'mph-fuzz'} nor {'experiment': 'tab12_fuzz'}")

    check_common(data)

    kind = "mph-fuzz" if data.get("tool") else "tab12_fuzz"
    print(f"{sys.argv[1]} ok ({kind}): {len(data['oracles'])} oracle row(s), "
          f"{data['total_failures']} failure(s)")


if __name__ == "__main__":
    main()
