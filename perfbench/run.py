#!/usr/bin/env python3
"""Build lotus_bench from source and run one perfbench workload.

    python3 perfbench/run.py --workload cold-social --seed 1 --seconds 12 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root; input files and the full record of each run
(host stamp, metrics, details, span log) are written there too. The last line
of stdout is the run's JSON result; build logs and progress go to stderr.
Exit status: 0 = run completed, 1 = build or run failed, 2 = bad arguments.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170  # a run must end within 180 s, build excluded


def build_root() -> Path:
    out = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return out if out.is_absolute() else ROOT / out


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build() -> Path:
    """Configure and (incrementally) build lotus_bench; returns its path."""
    root = build_root()
    cmake_dir = root / "perfbench"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    with open(root / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", str(cmake_dir), "--target", "lotus_bench",
                  "-j", str(os.cpu_count() or 1)]]
        for step in steps:
            subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return cmake_dir / "lotus_bench"


def check_metrics(result: dict, trace: bool, spec: dict) -> None:
    """The result must carry exactly the metrics BENCHMARK.json declares."""
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        units = sorted(n for n in set(got) & set(declared) if got[n] != declared[n])
        raise ValueError(f"metric set differs from BENCHMARK.json: missing={missing} "
                         f"extra={extra} unit mismatch={units}")
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < 1:
        raise ValueError("malformed result line")


def run(binary: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return its parsed, checked result line."""
    root = build_root()
    work = root / "work"
    results = root / "results"
    work.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    record = results / f"{workload}-seed{seed}-trace{int(trace)}.json"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--work-dir", str(work), "--record", str(record)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"lotus_bench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("lotus_bench printed no result")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        spec = load_spec()
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            print(f"run.py: unknown workload {args.workload}", file=sys.stderr)
            return 2
        binary = build()
        result = run(binary, args.workload, args.seed, args.seconds, bool(args.trace))
        check_metrics(result, bool(args.trace), spec)
    except (OSError, ValueError, RuntimeError, subprocess.SubprocessError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
