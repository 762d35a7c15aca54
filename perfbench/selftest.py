#!/usr/bin/env python3
"""Quick self-test of the mph benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at the self-test size (--tiny), once
untraced and once traced, and checks that

  * the last stdout line is the result object with exactly the keys
    correct, attempted, failed and metrics;
  * every end_to_end metric (untraced) and every per_layer metric (traced)
    of BENCHMARK.json is printed with its unit, and nothing else is;
  * no op failed: correct is true, failed is 0 and correct_ratio is 1
    (failed_ratio 0).

It also copies BENCHMARK.json and the benchmark's own directories, without
the mph sources, under .bench_build/ and checks that the benchmark refuses
to run there: non-zero exit and no result line. Exit code 0 when all pass.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd, args, timeout=600):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def check_result(spec, workload, trace, proc, problems):
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit code {proc.returncode}\n{proc.stdout[-2000:]}"
                        f"\n{proc.stderr[-2000:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        problems.append(f"{where}: metrics missing {sorted(set(wanted) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(wanted))}")
    for name, unit in wanted.items():
        entry = got.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{where}: {name} printed as {entry}, unit should be {unit}")
    if not trace and got.get("correct_ratio", {}).get("value") != 1:
        problems.append(f"{where}: correct_ratio {got.get('correct_ratio')} (failed_ratio not 0)")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, ["--workload", workload, "--seed", "1", "--seconds", "1",
                              "--trace", str(trace), "--tiny"])
            check_result(spec, workload, trace, proc, problems)
            print(f"{workload} --trace {trace}: {'ok' if not problems else 'FAILED'}",
                  flush=True)

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path)
    proc = run(bare, ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                      "--seconds", "1", "--trace", "0"], timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without the mph sources: exit {proc.returncode}, "
                        f"stdout {proc.stdout.strip()[-200:]!r}")
    shutil.rmtree(bare, ignore_errors=True)
    print(f"without the mph sources: {'refused' if proc.returncode else 'NOT refused'}")

    for p in problems:
        print("FAIL:", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
