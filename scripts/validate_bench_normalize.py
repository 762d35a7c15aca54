#!/usr/bin/env python3
"""Validate BENCH_normalize.json (experiment T14, bench/tab14_normalize.cpp).

Checks the documented schema and the claims the benchmark exists to pin:
verdicts must agree across the normalized-dispatch, syntactic-dispatch and
raw runs (the bench asserts this and records the flag), normalization must
route *strictly more* checks to BOTH shortcut engines than syntactic
classification alone (safety_prefix and guarantee_dual each strictly
higher), at least one check per model must carry class_source ==
normalized with rewrite steps paid, and the raw run must never leave the
general engines.

Usage: validate_bench_normalize.py PATH
"""

import json
import sys

ENGINE_KEYS = {"safety_prefix", "guarantee_dual", "scc", "static_proof"}
SOURCE_KEYS = {"none", "syntactic", "normalized"}
ENGINES = {"SCC", "safety-prefix", "guarantee-dual"}
SOURCES = {"none", "syntactic", "normalized"}
RUNS = ("normalized", "syntactic", "raw")


def fail(msg: str) -> None:
    print(f"validate_bench_normalize: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_counts(label: str, obj: object, keys: set) -> dict:
    if not isinstance(obj, dict) or set(obj) != keys:
        fail(f"{label}: keys {sorted(obj) if isinstance(obj, dict) else obj}")
    for k, v in obj.items():
        if not isinstance(v, int) or v < 0:
            fail(f"{label}.{k} = {v!r} is not a non-negative int")
    return obj


def check_tally(label: str, tally: object, n_specs: int) -> dict:
    if not isinstance(tally, dict):
        fail(f"{label}: tally is not an object")
    engines = check_counts(f"{label}.engines", tally.get("engines"), ENGINE_KEYS)
    sources = check_counts(f"{label}.sources", tally.get("sources"), SOURCE_KEYS)
    if sum(engines.values()) != n_specs:
        fail(f"{label}: engine census does not cover every spec")
    if sum(sources.values()) != n_specs:
        fail(f"{label}: class_source census does not cover every spec")
    steps = tally.get("normalize_steps")
    if not isinstance(steps, int) or steps < 0:
        fail(f"{label}: normalize_steps = {steps!r}")
    return tally


def main() -> None:
    if len(sys.argv) != 2:
        fail("usage: validate_bench_normalize.py PATH")
    with open(sys.argv[1], encoding="utf-8") as f:
        doc = json.load(f)

    if doc.get("experiment") != "tab14_normalize":
        fail(f"experiment tag {doc.get('experiment')!r}")
    quick = doc.get("quick")
    if not isinstance(quick, bool):
        fail("quick must be a bool")
    models = doc.get("models")
    if not isinstance(models, list) or not models:
        fail("models must be a non-empty list")

    for m in models:
        name = m.get("model")
        if not name or not isinstance(name, str):
            fail("model entry without a name")
        n_specs = m.get("specs")
        verdicts = m.get("verdicts")
        if not isinstance(verdicts, list) or len(verdicts) != n_specs:
            fail(f"{name}: verdicts length != specs")
        rescued = 0
        for v in verdicts:
            if not v.get("spec"):
                fail(f"{name}: verdict entry without spec text")
            if not isinstance(v.get("holds"), bool):
                fail(f"{name}: verdict entry without a boolean holds")
            if v.get("engine") not in ENGINES:
                fail(f"{name}: unknown engine {v.get('engine')!r}")
            if v.get("class_source") not in SOURCES:
                fail(f"{name}: unknown class_source {v.get('class_source')!r}")
            steps = v.get("normalize_steps")
            if not isinstance(steps, int) or steps < 0:
                fail(f"{name}: normalize_steps = {steps!r}")
            if v["class_source"] == "normalized":
                rescued += 1
                if v["engine"] not in ("safety-prefix", "guarantee-dual"):
                    fail(f"{name}: rescued spec on general engine {v['engine']!r}")
                if steps == 0:
                    fail(f"{name}: rescued spec with zero rewrite steps")
        runs = m.get("runs")
        if not isinstance(runs, dict) or set(runs) != set(RUNS):
            fail(f"{name}: runs keys {sorted(runs) if isinstance(runs, dict) else runs}")
        tallies = {}
        for r in RUNS:
            run = runs[r]
            if not isinstance(run, dict):
                fail(f"{name}: missing {r} run")
            if not isinstance(run.get("seconds"), (int, float)) or run["seconds"] < 0:
                fail(f"{name}: {r}.seconds = {run.get('seconds')!r}")
            tallies[r] = check_tally(f"{name}.{r}", run.get("tally"), n_specs)

        if m.get("verdicts_agree") is not True:
            fail(f"{name}: verdicts_agree is not true")
        if m.get("rescued") != rescued:
            fail(f"{name}: rescued = {m.get('rescued')!r}, verdict rows say {rescued}")
        if rescued < 1:
            fail(f"{name}: normalization rescued no check")

        tn, ts, tr = (tallies[r]["engines"] for r in RUNS)
        if tn["safety_prefix"] <= ts["safety_prefix"]:
            fail(f"{name}: safety-prefix routing not strictly higher with normalization "
                 f"({ts['safety_prefix']} -> {tn['safety_prefix']})")
        if tn["guarantee_dual"] <= ts["guarantee_dual"]:
            fail(f"{name}: guarantee-dual routing not strictly higher with normalization "
                 f"({ts['guarantee_dual']} -> {tn['guarantee_dual']})")
        if tr["safety_prefix"] or tr["guarantee_dual"]:
            fail(f"{name}: raw run used a shortcut engine")
        if tallies["raw"]["sources"]["none"] != n_specs:
            fail(f"{name}: raw run reports a routing class")
        if tallies["normalized"]["sources"]["normalized"] < 1:
            fail(f"{name}: normalized run reports no normalized class_source")
        if tallies["syntactic"]["sources"]["normalized"]:
            fail(f"{name}: syntactic-only run reports a normalized class_source")
        if tallies["syntactic"]["normalize_steps"] or tallies["raw"]["normalize_steps"]:
            fail(f"{name}: normalization steps paid with normalization disabled")

    print(f"validate_bench_normalize: OK ({len(models)} model(s), quick={quick})")


if __name__ == "__main__":
    main()
