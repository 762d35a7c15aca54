#!/usr/bin/env python3
"""Build and run the mph benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--corpus-seed N] [--tiny]
    python3 perfbench/run.py --reanchor

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the mph libraries from src/) into
.bench_build/perfbench with CMake; later calls only rebuild what changed.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. Traced runs (--trace 1) also write their spans as Chrome
trace-event JSON under .bench_build/perfbench/traces/.

Exit code: the benchmark's own (0 ok, 1 an op failed, 2 bad arguments),
or 2 when the build fails.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no mph sources next to the benchmark (src/CMakeLists.txt)",
              file=sys.stderr)
        return False
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        args += ["--trace-dir", str(traces)]
    sys.stdout.flush()
    return subprocess.run([str(BUILD / "mph_perfbench"), *args]).returncode


if __name__ == "__main__":
    sys.exit(main())
