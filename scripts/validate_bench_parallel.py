#!/usr/bin/env python3
"""Schema + scaling validation for BENCH_parallel.json (bench/tab15_parallel).

Usage: validate_bench_parallel.py PATH

Checks the documented schema, re-checks thread-count agreement (verdicts and
state counts identical within each (kind, model, what) group), and — only on
machines that can actually scale — gates the speedup: when the run was not
--quick and the reporting host had at least 4 hardware threads, the largest
dining-N check_all batch must reach a 1.5x speedup at 4 per-spec worker
threads over 1. On smaller hosts (e.g. single-core CI containers) the
speedup is reported but not enforced.

Exits 0 iff the file parses and every check passes; prints the first
problem and exits 1 otherwise.
"""
import json
import sys

SPEEDUP_FLOOR = 1.5
SPEEDUP_THREADS = 4
KINDS = {"explore", "check_all", "scan"}


def fail(msg):
    print(f"parallel bench validation: {msg}", file=sys.stderr)
    sys.exit(1)


def require(cond, msg):
    if not cond:
        fail(msg)


def main():
    if len(sys.argv) != 2:
        fail("usage: validate_bench_parallel.py PATH")
    with open(sys.argv[1]) as handle:
        data = json.load(handle)

    require(data.get("experiment") == "tab15_parallel", "not a tab15_parallel report")
    require(isinstance(data.get("quick"), bool), "'quick' is not a bool")
    require(isinstance(data.get("hardware_threads"), int) and data["hardware_threads"] >= 0,
            "'hardware_threads' missing or negative")
    require(isinstance(data.get("repeats"), int) and data["repeats"] >= 1,
            "'repeats' missing or < 1")
    rows = data.get("rows")
    require(isinstance(rows, list) and rows, "'rows' missing or empty")

    groups = {}
    for i, row in enumerate(rows):
        where = f"rows[{i}]"
        require(isinstance(row, dict), f"{where}: not an object")
        require(row.get("kind") in KINDS, f"{where}: unknown kind {row.get('kind')!r}")
        for key in ("model", "what", "engine", "verdicts"):
            require(isinstance(row.get(key), str) and row[key], f"{where}: missing '{key}'")
        for key in ("threads", "states"):
            require(isinstance(row.get(key), int) and row[key] >= 1,
                    f"{where}: '{key}' missing or < 1")
        require(isinstance(row.get("seconds"), (int, float)) and row["seconds"] >= 0,
                f"{where}: 'seconds' missing or negative")
        groups.setdefault((row["kind"], row["model"], row["what"]), []).append(row)

    require({key[0] for key in groups} == KINDS, "some kind of parallel work has no rows")
    for key, group in groups.items():
        where = f"group {key}"
        threads = [r["threads"] for r in group]
        require(len(set(threads)) == len(threads), f"{where}: duplicate thread count")
        require(1 in threads, f"{where}: no single-thread baseline row")
        for field in ("verdicts", "states", "engine"):
            require(len({r[field] for r in group}) == 1,
                    f"{where}: {field} differ across thread counts")

    scaling = data.get("scaling")
    require(isinstance(scaling, list) and scaling, "'scaling' missing or empty")
    for i, s in enumerate(scaling):
        where = f"scaling[{i}]"
        require(isinstance(s, dict), f"{where}: not an object")
        require(s.get("kind") in KINDS, f"{where}: unknown kind {s.get('kind')!r}")
        for key in ("model", "what"):
            require(isinstance(s.get(key), str) and s[key], f"{where}: missing '{key}'")
        for key in ("baseline_seconds", "parallel_seconds", "speedup"):
            require(isinstance(s.get(key), (int, float)) and s[key] >= 0,
                    f"{where}: '{key}' missing or negative")
        require(isinstance(s.get("threads_max"), int) and s["threads_max"] >= 1,
                f"{where}: 'threads_max' missing or < 1")

    # The scaling gate: hardware-aware, so single-core CI containers validate
    # the schema and agreement but skip the speedup floor.
    enforce = (not data["quick"] and data["hardware_threads"] >= SPEEDUP_THREADS)
    batches = [s for s in scaling
               if s["kind"] == "check_all" and s["model"].startswith("dining-")
               and s["threads_max"] >= SPEEDUP_THREADS]
    verdict = "enforced" if enforce else "reported only (quick or <4 hardware threads)"
    best = 0.0
    if batches:
        largest = max(batches, key=lambda s: s.get("states", 0))
        best = largest["speedup"]
        if enforce:
            require(best >= SPEEDUP_FLOOR,
                    f"largest dining-N check_all speedup {best:.2f}x at "
                    f"{largest['threads_max']} threads is below {SPEEDUP_FLOOR}x")
    elif enforce:
        fail("no dining-N check_all scaling row with a 4-thread measurement")

    print(f"{sys.argv[1]} ok: {len(rows)} row(s), {len(scaling)} scaling group(s), "
          f"best dining check_all speedup {best:.2f}x ({verdict})")


if __name__ == "__main__":
    main()
