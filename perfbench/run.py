#!/usr/bin/env python3
"""Builds the DCDatalog benchmark harness from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload tc-updates --seed 1 --seconds 45 --trace 0

The harness (perfbench.cc) is built with CMake into .bench_build/perfbench
on first use. --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer metrics; the last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}. Build output and progress go
to stderr. Outputs (the traced run's Chrome trace) land in .bench_build/out.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "out"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(os.cpu_count() or 1)
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return BUILD / "dcd_perfbench"


def source_id():
    """Git commit when available, else a digest of the engine sources."""
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ROOT:
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    expected = expected_metrics(spec, args.trace)
    try:
        binary = build()
    except subprocess.CalledProcessError as err:
        log(f"build failed: {err}")
        return 1
    OUT.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--out-dir", str(OUT), "--git-sha", source_id()]
    log(" ".join(cmd))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"harness did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"harness exited with {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        log(f"metric set mismatch: got {sorted(got)}, want {sorted(expected)}")
        return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
