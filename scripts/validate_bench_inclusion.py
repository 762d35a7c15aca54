#!/usr/bin/env python3
"""Schema + acceptance validation for BENCH_inclusion.json
(bench/tab17_inclusion).

Usage: validate_bench_inclusion.py PATH

Checks the documented schema, then enforces the complementation/inclusion
contracts (docs/COMPLEMENT.md):

  * inclusion_agreement is true and every query row individually agrees —
    the Safra-free engine must reproduce the known ground truth of every
    entailment query in both directions, with valid counterexamples on the
    NotIncluded side;
  * every verdict string is one of included / not-included / unknown, no
    forward direction is unknown (the stronger ⊨ weaker side always decides
    under the bench cap), and unknown appears on a reverse direction only
    where the ground truth *expects* the refusal (row["agree"] pins it).
    No battery query expects it any more: the rescue-family query's reverse
    direction, whose rank-based complement overruns the cap, is decided
    not-included by the separating-lasso probe;
  * every query row reports its cost: wall_ms, lassos_probed (at most
    MAX_PROBED_LASSOS per direction), product_states and
    complement_macrostates (both directions together);
  * the MPH-N003 rescue family: every row has source "nba", a refused
    normalizer, and agree — and the summary counts at least one formula
    whose exact class was established by the Büchi closure tests, the
    acceptance criterion of the NBA-backed classification path.

Exits 0 iff the file parses and every check passes; prints the first
problem and exits 1 otherwise.
"""
import json
import sys

VERDICTS = ("included", "not-included", "unknown")

# detail::kMaxProbedLassos in src/omega/inclusion_detail.hpp: candidates the
# probe tests per inclusion call.
MAX_PROBED_LASSOS = 32


def fail(msg):
    print(f"inclusion bench validation: {msg}", file=sys.stderr)
    sys.exit(1)


def require(cond, msg):
    if not cond:
        fail(msg)


def main():
    if len(sys.argv) != 2:
        fail("usage: validate_bench_inclusion.py PATH")
    with open(sys.argv[1]) as handle:
        data = json.load(handle)

    require(data.get("experiment") == "tab17_inclusion", "not a tab17_inclusion report")
    require(isinstance(data.get("quick"), bool), "'quick' is not a bool")

    inclusion = data.get("inclusion")
    require(isinstance(inclusion, list) and inclusion, "'inclusion' missing or empty")
    for i, row in enumerate(inclusion):
        where = f"inclusion[{i}]"
        require(isinstance(row, dict), f"{where}: not an object")
        for key in ("stronger", "weaker"):
            require(isinstance(row.get(key), str) and row[key],
                    f"{where}: '{key}' missing or empty")
        for key in ("forward", "reverse"):
            require(row.get(key) in VERDICTS,
                    f"{where}: '{key}' is not an inclusion verdict")
        require(row["forward"] != "unknown",
                f"{where}: forward direction is unknown on a tiny battery query")
        require(row.get("agree") is True, f"{where}: verdicts disagree with ground truth")
        for key in ("forward_us", "reverse_us", "wall_ms"):
            require(isinstance(row.get(key), (int, float)) and row[key] >= 0,
                    f"{where}: '{key}' missing or negative")
        for key in ("lassos_probed", "product_states", "complement_macrostates",
                    "ncsb_parts", "rank_parts"):
            require(isinstance(row.get(key), int) and row[key] >= 0,
                    f"{where}: '{key}' missing or negative")
        require(row["lassos_probed"] <= 2 * MAX_PROBED_LASSOS,
                f"{where}: {row['lassos_probed']} lassos probed over two directions, "
                f"more than 2 x {MAX_PROBED_LASSOS}")

    rescue = data.get("rescue")
    require(isinstance(rescue, list) and rescue, "'rescue' missing or empty")
    for i, row in enumerate(rescue):
        where = f"rescue[{i}]"
        require(isinstance(row, dict), f"{where}: not an object")
        require(isinstance(row.get("formula"), str) and row["formula"],
                f"{where}: 'formula' missing or empty")
        require(row.get("source") == "nba",
                f"{where}: source {row.get('source')!r} is not 'nba'")
        require(row.get("normalizer_refused") is True,
                f"{where}: the rewrite system did not refuse this family member")
        require(row.get("agree") is True, f"{where}: rescue row does not agree")
        require(isinstance(row.get("us"), (int, float)) and row["us"] >= 0,
                f"{where}: 'us' missing or negative")

    summary = data.get("summary")
    require(isinstance(summary, dict), "'summary' missing")
    require(summary.get("queries") == len(inclusion),
            "'queries' does not count the inclusion rows")
    require(summary.get("inclusion_agreement") is True,
            "summary: inclusion verdicts disagree with ground truth")
    require(summary.get("rescue_agreement") is True,
            "summary: the rescue family was not fully recovered")
    require(isinstance(summary.get("nba_exact"), int) and summary["nba_exact"] >= 1,
            "summary: no formula was exactly classified via the Büchi closure tests")

    print(f"BENCH_inclusion.json OK: {len(inclusion)} queries agree, "
          f"{summary['nba_exact']} NBA-exact classifications")


if __name__ == "__main__":
    main()
