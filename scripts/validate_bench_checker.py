#!/usr/bin/env python3
"""Schema validation for BENCH_checker.json (emitted by bench/tab11_checker).

Usage: validate_bench_checker.py PATH

Exits 0 iff the file parses and matches the schema documented in
docs/CHECKER.md; prints the first problem and exits 1 otherwise.
"""
import json
import sys

ENGINES = {"SCC", "safety-prefix", "guarantee-dual", "static"}


def fail(msg):
    print(f"BENCH_checker.json schema violation: {msg}", file=sys.stderr)
    sys.exit(1)


def require(cond, msg):
    if not cond:
        fail(msg)


def check_row(row, where, extra_keys=()):
    keys = {
        "model": str,
        "spec": str,
        "engine": str,
        "nba_fallback": bool,
        "product_states": int,
        "product_bound": int,
    }
    for key, extra_type in extra_keys:
        keys[key] = extra_type
    for key, ty in keys.items():
        require(key in row, f"{where}: missing key '{key}'")
        require(isinstance(row[key], ty), f"{where}: '{key}' has the wrong type")
    require(row["engine"] in ENGINES, f"{where}: unknown engine {row['engine']!r}")
    require(row["product_states"] >= 1, f"{where}: empty product")
    require(
        row["product_states"] <= row["product_bound"],
        f"{where}: product_states exceeds product_bound",
    )


def main():
    if len(sys.argv) != 2:
        fail("usage: validate_bench_checker.py PATH")
    with open(sys.argv[1]) as handle:
        data = json.load(handle)

    require(data.get("experiment") == "tab11_checker", "wrong 'experiment' tag")
    require(isinstance(data.get("quick"), bool), "'quick' is not a bool")

    matrix = data.get("matrix")
    require(isinstance(matrix, list) and matrix, "'matrix' missing or empty")
    for i, row in enumerate(matrix):
        check_row(row, f"matrix[{i}]", extra_keys=[("holds", bool)])

    early = data.get("early_exit")
    require(isinstance(early, list) and early, "'early_exit' missing or empty")
    for i, row in enumerate(early):
        where = f"early_exit[{i}]"
        check_row(row, where, extra_keys=[("replay_violates", bool)])
        require(row["engine"] == "SCC", f"{where}: not decided by the SCC search")
        require(
            row["product_states"] < row["product_bound"],
            f"{where}: no early exit (product_states == product_bound)",
        )
        require(row["replay_violates"], f"{where}: counterexample did not replay")

    fin = data.get("fin_close")
    require(isinstance(fin, dict), "'fin_close' missing")
    check_row(fin, "fin_close", extra_keys=[
        ("holds", bool), ("search_seconds", (int, float)), ("states_per_s", (int, float))])
    require(fin["holds"], "fin_close: the spec does not hold")
    require(fin["engine"] == "SCC", "fin_close: not decided by the SCC search")
    require(fin["search_seconds"] >= 0, "fin_close: negative search time")
    require(fin["states_per_s"] > 0, "fin_close: nonpositive states/s")

    timing = data.get("timing")
    require(isinstance(timing, dict), "'timing' missing")
    for key, ty in {
        "model": str,
        "specs": int,
        "repeats": int,
        "threads": int,
        "repeated_check_seconds": (int, float),
        "check_all_1_seconds": (int, float),
        "check_all_n_seconds": (int, float),
        "batch_speedup": (int, float),
    }.items():
        require(key in timing, f"timing: missing key '{key}'")
        require(isinstance(timing[key], ty), f"timing: '{key}' has the wrong type")
    require(timing["specs"] >= 2, "timing: batch too small to be meaningful")
    require(timing["batch_speedup"] > 0, "timing: nonpositive speedup")

    print(f"BENCH_checker.json ok: {len(matrix)} matrix rows, "
          f"{len(early)} early-exit rows, fin_close {fin['product_states']} states, "
          f"batch_speedup={timing['batch_speedup']:.2f}")


if __name__ == "__main__":
    main()
