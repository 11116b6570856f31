#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>]

The first form runs one workload in its own process and ends with the
benchmark's JSON line. The second runs every workload, untraced and then
traced, one process each, and ends with a summary table.

The binary is built with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default `.bench_build` at the repository root).
Build output goes to stderr. The exit code is the benchmark's; a failed
build exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["sharded-ycsb", "twopc-transfer", "dataflow-transfer", "mc-2pc"]


def build() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        str(HERE / "Cargo.toml"),
    ]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: building the benchmark failed ({done.returncode})")
    return target / "release" / "tca-perfbench"


def run(binary: Path, workload: str, seed: int, seconds: str, trace: str) -> tuple[int, str]:
    """Run one workload, echoing its report; return its exit code and last line."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", seconds, "--trace", trace]
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        last = ""
        for line in proc.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            if line.strip():
                last = line.strip()
        code = proc.wait()
    return code, last


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload or --all")

    binary = build()
    if args.workload:
        code, _ = run(binary, args.workload, args.seed, args.seconds, args.trace)
        return code

    summary = []
    worst = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, last = run(binary, workload, args.seed, args.seconds, trace)
            worst = worst or code
            try:
                result = json.loads(last)
            except json.JSONDecodeError:
                result = {"correct": False, "metrics": {}}
            worst = worst or (0 if result["correct"] else 1)
            if trace == "0":
                summary.append((workload, result))
    print("\nsummary (untraced runs, seed %d):" % args.seed)
    for workload, result in summary:
        metrics = ", ".join(
            f"{name} {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()
        )
        print(f"  {workload:<18} correct={result['correct']}  {metrics}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
