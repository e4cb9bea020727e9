#!/usr/bin/env python3
"""The end-to-end benchmark command.

    python3 bench_e2e/run.py --workload paper-sweep --seed 42 --seconds 20
    python3 bench_e2e/run.py --workload swarm-readmostly --trace 1
    python3 bench_e2e/run.py --smoke          # every workload, smoke size

Builds the bench_e2e driver (release) from this checkout on first use,
runs it once, and prints every metric by name with its unit. The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 a traced run reports the per-layer ones and leaves spans.jsonl
(plus ledger.json for the swarm workloads) under the build directory.

Exit status: 0 = every output correct, 1 = a correctness check failed
(the result is still printed), 2 = no result (build or run error).

The build goes to $CARGO_TARGET_DIR/bench_e2e when that is set, else to
.bench_build/bench_e2e at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-sweep", "swarm-readmostly", "swarm-writeheavy")
# A run must end within 180 s; keep a margin for the build check and exit.
RUN_BUDGET_S = 170.0


class NoResult(Exception):
    """The benchmark could not produce a result."""


def build_dir() -> Path:
    base = os.environ.get("CARGO_TARGET_DIR")
    root = Path(base).resolve() if base else ROOT / ".bench_build"
    return root / "bench_e2e"


def build() -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise NoResult(f"no mobicache sources under {ROOT / 'src'}")
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        step(["cmake", "-S", str(HERE), "-B", str(bdir),
              "-DCMAKE_BUILD_TYPE=Release", *generator])
    step(["cmake", "--build", str(bdir), "--target", "bench_e2e", "-j", "4"])
    return bdir / "bench_e2e"


def step(cmd: list[str]) -> None:
    # Build chatter goes to stderr: stdout's last line is the result.
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise NoResult("failed: " + " ".join(cmd))


def run_driver(driver: Path, workload: str, seed: int, seconds: int,
               trace_dir: Path | None, smoke: bool, deadline: float) -> dict:
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds),
           "--golden", str(ROOT / "results" / "all_figures.txt")]
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-dir", str(trace_dir)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as e:
        raise NoResult(f"{workload}: driver timed out") from e
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise NoResult(f"{workload}: driver exited {proc.returncode} "
                       "without a result")
    return json.loads(lines[-1])


def finite(metric: dict) -> bool:
    v = metric.get("value")
    return isinstance(v, (int, float)) and math.isfinite(v)


def measure(args: argparse.Namespace) -> int:
    driver = Path(args.driver) if args.driver else build()
    deadline = time.monotonic() + RUN_BUDGET_S
    trace_dir = build_dir() / "trace" / args.workload if args.trace else None
    r = run_driver(driver, args.workload, args.seed, args.seconds, trace_dir,
                   False, deadline)
    metrics = r["per_layer" if args.trace else "end_to_end"]
    not_finite = [name for name, m in metrics.items() if not finite(m)]
    if not_finite:
        raise NoResult("not a finite number: " + ", ".join(not_finite))
    for name, m in metrics.items():
        print(f"{args.workload:18} {name:44} {m['value']:>16.6g} {m['unit']}",
              file=sys.stderr)
    for v in r["violations"]:
        print(f"{args.workload}: violation: {v}", file=sys.stderr)
    if trace_dir is not None:
        print(f"{args.workload}: spans in {trace_dir}", file=sys.stderr)
    print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))
    return 0 if r["correct"] else 1


def smoke(args: argparse.Namespace) -> int:
    """Every workload at smoke size, traced, so both metric sets appear:
    each metric BENCHMARK.json names must be emitted, finite and in its
    unit, and nothing else may be emitted."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    driver = Path(args.driver) if args.driver else build()
    deadline = time.monotonic() + RUN_BUDGET_S
    problems = []
    for w in spec["workloads"]:
        r = run_driver(driver, w["name"], 42, 1,
                       build_dir() / "trace-smoke" / w["name"], True, deadline)
        if not r["correct"]:
            problems.append(f"{w['name']}: incorrect: {r['violations']}")
        for key, section in (("end_to_end", "end_to_end"),
                             ("per_layer", "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = r[key]
            for name, unit in want.items():
                if name not in got:
                    problems.append(f"{w['name']}: {name} missing")
                elif not finite(got[name]):
                    problems.append(f"{w['name']}: {name} not finite")
                elif got[name]["unit"] != unit:
                    problems.append(f"{w['name']}: {name} in "
                                    f"{got[name]['unit']}, not {unit}")
            for name in got.keys() - want.keys():
                problems.append(f"{w['name']}: {name} not in BENCHMARK.json")
    for p in problems:
        print(p, file=sys.stderr)
    print("smoke:", "FAIL" if problems else "ok", file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=30,
                    help="wall seconds the run measures")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--driver", help="prebuilt bench_e2e (skips the build)")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        return smoke(args) if args.smoke else measure(args)
    except NoResult as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
