#!/usr/bin/env python3
"""Perf-regression report: run the bench suites, merge baselines, and
enforce the steady-state allocation and live hot-path gates.

Drives `bench_main` (the standalone JSON emitter in bench/) and optionally
the google-benchmark micro binaries, then writes a single BENCH_kernel.json
summarising items/sec, simulated-seconds-per-wall-second, and
allocations-per-event. When `--baseline` points at a previous report (or a
raw bench_main dump), each metric gains a `speedup` field computed against
it, so a perf regression is visible as speedup < 1 in review.

With `--live-out` it additionally drives `bench_live` (schema
"mci-bench-live-v1": word-at-a-time codec speedups, sendmmsg fan-out
syscall counts, loopback server+pool latency percentiles) and enforces the
live gates: machine-independent ratios (speedup_vs_bitloop on the BS
codec, speedup_vs_bytewise on the DataItem frame envelope,
syscall_reduction on the fan-out) must clear their hard floors and
must not regress more than --gate-tolerance (default 15%) against
`--live-baseline` (the committed BENCH_live.json). Each gated ratio is the
median of LIVE_GATE_PROCESSES bench_live processes, each pinned to one CPU
with `taskset` where it exists: either side of an in-run ratio can run in a
slow mode for a whole process. Wall-clock metrics are reported but never
gated — only ratios and counts survive a runner change.

Exit status:
  0  report(s) written, all gates passed
  1  allocation gate or a live ratio gate failed
  2  usage or subprocess error

Typical use (see docs/performance.md):

    cmake --preset release && cmake --build --preset release -j
    python3 tools/bench_report.py --build build-release --out BENCH_kernel.json
    python3 tools/bench_report.py --build build-release \\
        --live-out BENCH_live.json --live-baseline BENCH_live.json

CI (`bench-smoke`, `bench-live-smoke`) runs the same with `--mintime 0.05`
and a short `--simtime` so the gates stay cheap.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench_binary(build: Path, name: str, mintime: float,
                     simtime: float, pin: bool = False) -> dict:
    """Runs one of the standalone JSON emitters (bench_main, bench_live);
    both speak the same --mintime/--simtime flags and row shape. ``pin``
    runs it on one CPU through taskset, when taskset exists."""
    exe = build / "bench" / name
    if not exe.exists():
        sys.exit(f"bench_report: {exe} not found — build the repo first")
    cmd = [str(exe), "--mintime", str(mintime), "--simtime", str(simtime)]
    if pin and shutil.which("taskset"):
        cpu = min(os.sched_getaffinity(0))
        cmd = ["taskset", "-c", str(cpu), *cmd]
    print("bench_report: running", " ".join(cmd), file=sys.stderr)
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"bench_report: {name} failed ({proc.returncode})")
    return json.loads(proc.stdout)


def run_google_micro(build: Path, name: str, min_time: float) -> list[dict]:
    """Runs a google-benchmark binary, tolerating both the old plain-double
    and the new duration-suffixed --benchmark_min_time syntax."""
    exe = build / "bench" / name
    if not exe.exists():
        print(f"bench_report: {exe} not found; skipping", file=sys.stderr)
        return []
    for arg in (f"--benchmark_min_time={min_time}s",
                f"--benchmark_min_time={min_time}"):
        cmd = [str(exe), arg, "--benchmark_format=json"]
        print("bench_report: running", " ".join(cmd), file=sys.stderr)
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode == 0:
            try:
                return json.loads(proc.stdout).get("benchmarks", [])
            except json.JSONDecodeError:
                break
    print(f"bench_report: {name} failed under both min_time syntaxes; "
          "skipping", file=sys.stderr)
    return []


# Extra mci_swarm arguments per non-default swarm row. The reshard run
# starts on 4 shards and grows to 6 live at 40% of the horizon. The
# write-heavy row runs AFW on 2 shards at 100x the default update rate, so
# every IR lists hundreds of items; its time scale is pinned at x30
# because at x60 its hit ratio swings by a third between runs.
SWARM_RESHARD_ARGS = ("--shards", "4", "--reshard")
SWARM_WRITEHEAVY_ARGS = ("--scheme", "AFW", "--shards", "2",
                         "--endpoints", "2", "--update-gap", "0.5")
SWARM_WRITEHEAVY_TIMESCALE = 30.0


def run_swarm(build: Path, clients: int, simtime: float,
              timescale: float, extra: tuple[str, ...] = (),
              name: str = "") -> list[dict]:
    """Runs the mci_swarm harness (swarm emulator vs equivalent-seed
    ClientPool) in its committed gate configuration and returns its bench
    rows for the live report. The model knobs are pinned here so the
    hit_ratio_parity number is comparable across machines and runs: only
    population size, horizon and time scale are runner-adjustable.
    ``extra`` is appended to the command line (SWARM_RESHARD_ARGS,
    SWARM_WRITEHEAVY_ARGS); a non-empty ``name`` renames the rows, which
    mci_swarm names "swarm/<clients>" or "swarm-reshard/<clients>"."""
    exe = build / "src" / "mci_swarm"
    if not exe.exists():
        sys.exit(f"bench_report: {exe} not found — build the repo first")
    cmd = [str(exe),
           "--swarm-clients", str(clients),
           "--simtime", str(simtime),
           "--timescale", str(timescale),
           "--dbsize", "1000",
           "--bufferfrac", "0.1",
           "--hotcold",
           "--parity-agents", "8",
           "--seed", "7",
           *extra]
    print("bench_report: running", " ".join(cmd), file=sys.stderr)
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"bench_report: mci_swarm failed ({proc.returncode})")
    rows = list(json.loads(proc.stdout).get("benches", []))
    if name:
        for row in rows:
            row["name"] = name
    return rows


def load_baseline(path: Path) -> dict[str, dict[str, float]]:
    """Accepts either a previous BENCH_kernel.json or a raw bench_main dump;
    returns {bench name: {metric: value}}."""
    doc = json.loads(path.read_text())
    out: dict[str, dict[str, float]] = {}
    for row in doc.get("benches", []):
        name = row.get("name")
        if not name:
            continue
        out[name] = {
            k: v for k, v in row.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }
    return out


# Metrics where larger is faster; speedup = after / before.
RATE_METRICS = ("items_per_s", "sim_s_per_wall_s")

# Live hot-path ratio gates: (bench name, metric) -> hard floor. These are
# machine-independent — in-run ratios against a reference implementation or
# kernel-entry counts — so they hold on any runner with sendmmsg. Each is
# additionally held to within --gate-tolerance of the committed baseline.
LIVE_GATES = {
    ("encode_bs/65536", "speedup_vs_bitloop"): 3.0,
    ("encode_sig/1024", "speedup_vs_bitloop"): 1.5,
    ("envelope/dataitem", "speedup_vs_bytewise"): 1.5,
    ("udp_fanout/64", "syscall_reduction"): 5.0,
    ("live_pool/64", "udp_syscall_reduction"): 5.0,
}


# bench_live processes per live report; each gated ratio is their median.
LIVE_GATE_PROCESSES = 5


def run_bench_live(build: Path, mintime: float, simtime: float) -> list[dict]:
    """Runs LIVE_GATE_PROCESSES pinned bench_live processes and returns the
    first one's rows with every LIVE_GATES metric replaced by its median
    over all of them; the per-process values stay in "<metric>_runs"."""
    runs = [run_bench_binary(build, "bench_live", mintime, simtime, pin=True)
            .get("benches", []) for _ in range(LIVE_GATE_PROCESSES)]
    rows = {row.get("name"): row for row in runs[0]}
    for name, metric in LIVE_GATES:
        values = [row[metric] for run in runs for row in run
                  if row.get("name") == name and metric in row]
        if name in rows and values:
            rows[name][metric] = statistics.median(values)
            rows[name][f"{metric}_runs"] = values
    return list(runs[0])


def check_live_gates(benches: list[dict],
                     baseline: dict[str, dict[str, float]],
                     tolerance: float) -> list[str]:
    failures = []
    rows = {row.get("name"): row for row in benches}
    for (name, metric), floor in LIVE_GATES.items():
        row = rows.get(name)
        if row is None or metric not in row:
            failures.append(f"{name}: {metric} missing from bench_live output")
            continue
        value = row[metric]
        if value < floor:
            failures.append(
                f"{name}: {metric} = {value:.3g} below hard floor {floor:g}")
        before = baseline.get(name, {}).get(metric)
        if before and value < before * (1.0 - tolerance):
            failures.append(
                f"{name}: {metric} = {value:.3g} regressed >"
                f"{tolerance:.0%} vs baseline {before:.3g}")
    return failures


# Swarm fidelity gates, applied to every "swarm/<clients>",
# "swarm-reshard/<clients>" and "swarm-writeheavy/<clients>" row. All are
# machine-independent: parity is a ratio of two hit ratios from the same
# process, allocations are counted per client-tick, stale reads are audited
# against the in-process authoritative databases, and a real cluster never
# sends a report the swarm must refuse. Reshard rows additionally prove the
# epoch switch actually happened and hold the post-switch AoI tail against
# their baseline (the transition must not leave clients serving old news).
SWARM_PARITY_FLOOR = 0.85        # min(hit)/max(hit) vs the agent pool
SWARM_MAX_ALLOCS_PER_TICK = 0.01  # steady-state mux-callback allocations
SWARM_ROW_KINDS = ("swarm", "swarm-reshard", "swarm-writeheavy")
SWARM_RESHARD_BASELINE_METRICS = ("hit_ratio_parity", "hit_ratio_tail")


def check_swarm_gates(benches: list[dict],
                      baseline: dict[str, dict[str, float]],
                      tolerance: float) -> list[str]:
    failures = []
    for row in benches:
        name = row.get("name", "")
        kind = name.split("/", 1)[0]
        if kind not in SWARM_ROW_KINDS:
            continue
        reshard = kind == "swarm-reshard"
        parity = row.get("hit_ratio_parity", 0.0)
        if parity < SWARM_PARITY_FLOOR:
            failures.append(
                f"{name}: hit_ratio_parity = {parity:.3f} below floor "
                f"{SWARM_PARITY_FLOOR:g}")
        allocs = row.get("allocs_per_client_tick", -1.0)
        if allocs < 0 or allocs > SWARM_MAX_ALLOCS_PER_TICK:
            failures.append(
                f"{name}: allocs_per_client_tick = {allocs:.4g} "
                f"(max {SWARM_MAX_ALLOCS_PER_TICK:g})")
        if row.get("stale_reads", 0) != 0:
            failures.append(f"{name}: stale_reads = {row['stale_reads']:g}")
        if row.get("unsupported_reports", 0) != 0:
            failures.append(f"{name}: unsupported_reports = "
                            f"{row['unsupported_reports']:g}")
        if reshard:
            if row.get("epoch_switches", 0) < 1:
                failures.append(f"{name}: epoch_switches = "
                                f"{row.get('epoch_switches', 0):g} (the map "
                                f"flip never reached the swarm)")
            if row.get("shards_final", 0) <= row.get("shards", 0):
                failures.append(f"{name}: shards_final = "
                                f"{row.get('shards_final', 0):g} did not "
                                f"grow past {row.get('shards', 0):g}")
            # aoi_p99 is a latency: lower is better, so the regression
            # check inverts (a rise past tolerance fails).
            aoi = row.get("aoi_p99_ms", 0.0)
            aoi_before = baseline.get(name, {}).get("aoi_p99_ms")
            if aoi_before and aoi > aoi_before * (1.0 + tolerance):
                failures.append(
                    f"{name}: aoi_p99_ms = {aoi:.3g} regressed >"
                    f"{tolerance:.0%} vs baseline {aoi_before:.3g}")
        metrics = (SWARM_RESHARD_BASELINE_METRICS if reshard
                   else ("hit_ratio_parity",))
        for metric in metrics:
            value = row.get(metric, 0.0)
            before = baseline.get(name, {}).get(metric)
            if before and value < before * (1.0 - tolerance):
                failures.append(
                    f"{name}: {metric} = {value:.3f} regressed >"
                    f"{tolerance:.0%} vs baseline {before:.3f}")
    return failures


def check_alloc_gate(benches: list[dict], max_allocs: float) -> list[str]:
    """Kernel and live steady-state loops must not allocate."""
    failures = []
    for row in benches:
        for key in ("allocs_per_item_steady", "allocs_per_event_steady"):
            if key in row and row[key] > max_allocs:
                failures.append(f"{row['name']}: {key} = {row[key]:.4g} "
                                f"(max {max_allocs:g})")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--build", type=Path, default=Path("build"),
                        help="build directory containing bench/ binaries")
    parser.add_argument("--out", type=Path, default=Path("BENCH_kernel.json"))
    parser.add_argument("--baseline", type=Path, default=None,
                        help="previous BENCH_kernel.json (or raw bench_main "
                             "output) to compute speedups against")
    parser.add_argument("--mintime", type=float, default=0.5,
                        help="min wall seconds per micro bench")
    parser.add_argument("--simtime", type=float, default=5000.0,
                        help="simulated seconds per full_sim probe")
    parser.add_argument("--max-allocs", type=float, default=0.0,
                        help="max steady-state allocations per event/item "
                             "before the gate fails (default 0)")
    parser.add_argument("--skip-google-bench", action="store_true",
                        help="only run bench_main (e.g. when "
                             "libbenchmark is unavailable)")
    parser.add_argument("--live-out", type=Path, default=None,
                        help="also run bench_live and write its report "
                             "here (enables the live ratio gates)")
    parser.add_argument("--live-baseline", type=Path, default=None,
                        help="previous BENCH_live.json to hold the gated "
                             "ratios against")
    parser.add_argument("--live-simtime", type=float, default=300.0,
                        help="model seconds for the live_pool probe")
    parser.add_argument("--gate-tolerance", type=float, default=0.15,
                        help="allowed relative regression on gated live "
                             "ratios vs --live-baseline (default 0.15)")
    parser.add_argument("--skip-kernel", action="store_true",
                        help="only run the live suite (requires --live-out)")
    parser.add_argument("--swarm", action="store_true",
                        help="also run mci_swarm twice, the default row "
                             "and the write-heavy row (AFW, 2 shards, "
                             "update gap 0.5 s, at x30), both under the "
                             "parity, allocs-per-client-tick, stale and "
                             "refused-report gates; the rows are merged "
                             "into the --live-out report")
    parser.add_argument("--swarm-clients", type=int, default=100000,
                        help="emulated swarm population (default 100000)")
    parser.add_argument("--swarm-simtime", type=float, default=2400.0,
                        help="model seconds for the swarm and parity "
                             "phases (default 2400)")
    parser.add_argument("--swarm-timescale", type=float, default=60.0,
                        help="model seconds per wall second (default 60)")
    parser.add_argument("--swarm-reshard", action="store_true",
                        help="also run the live 4->6 shard grow under the "
                             "swarm (epoch-switch parity, stale and AoI "
                             "gates); merged into the --live-out report")
    parser.add_argument("--swarm-reshard-clients", type=int, default=50000,
                        help="population for the reshard run (default "
                             "50000)")
    args = parser.parse_args()
    if args.skip_kernel and not args.live_out:
        parser.error("--skip-kernel requires --live-out")
    any_swarm = args.swarm or args.swarm_reshard
    if any_swarm and not args.live_out:
        parser.error("--swarm/--swarm-reshard requires --live-out")

    benches: list[dict] = []
    if not args.skip_kernel:
        kernel = run_bench_binary(args.build, "bench_main", args.mintime,
                                  args.simtime)
        benches = list(kernel.get("benches", []))

    micro = []
    if not args.skip_kernel and not args.skip_google_bench:
        micro = run_google_micro(args.build, "bench_micro_sim", args.mintime)

    live_benches: list[dict] = []
    live_baseline: dict[str, dict[str, float]] = {}
    if args.live_out:
        live_benches = run_bench_live(args.build, args.mintime,
                                      args.live_simtime)
        if args.swarm:
            live_benches += run_swarm(args.build, args.swarm_clients,
                                      args.swarm_simtime,
                                      args.swarm_timescale)
            live_benches += run_swarm(
                args.build, args.swarm_clients, args.swarm_simtime,
                SWARM_WRITEHEAVY_TIMESCALE, SWARM_WRITEHEAVY_ARGS,
                name=f"swarm-writeheavy/{args.swarm_clients}")
        if args.swarm_reshard:
            live_benches += run_swarm(args.build,
                                      args.swarm_reshard_clients,
                                      args.swarm_simtime,
                                      args.swarm_timescale,
                                      SWARM_RESHARD_ARGS)
        if args.live_baseline and args.live_baseline.exists():
            live_baseline = load_baseline(args.live_baseline)

    baseline = load_baseline(args.baseline) if args.baseline else {}
    for rows, base in ((benches, baseline), (live_benches, live_baseline)):
        for row in rows:
            before = base.get(row["name"], {})
            for metric in RATE_METRICS:
                if metric in row and before.get(metric):
                    row["speedup"] = row[metric] / before[metric]

    if not args.skip_kernel:
        report = {
            "schema": "mci-bench-kernel-v1",
            "benches": benches,
            "google_benchmark": [
                {
                    "name": b.get("name"),
                    "items_per_second": b.get("items_per_second"),
                    "sim_s_per_s": b.get("sim_s_per_s"),
                    "real_time_ns": b.get("real_time"),
                }
                for b in micro
            ],
            "baseline": str(args.baseline) if args.baseline else None,
        }
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"bench_report: wrote {args.out}", file=sys.stderr)

    if args.live_out:
        live_report = {
            "schema": "mci-bench-live-v1",
            "benches": live_benches,
            "baseline": str(args.live_baseline)
            if args.live_baseline else None,
        }
        args.live_out.write_text(json.dumps(live_report, indent=2) + "\n")
        print(f"bench_report: wrote {args.live_out}", file=sys.stderr)

    # The allocation gate: the kernel benches must not allocate in steady
    # state. full_sim allocs are informational (reports, metric series).
    failures = check_alloc_gate(benches + live_benches, args.max_allocs)
    if args.live_out:
        failures += check_live_gates(live_benches, live_baseline,
                                     args.gate_tolerance)
    if any_swarm:
        failures += check_swarm_gates(live_benches, live_baseline,
                                      args.gate_tolerance)
    if failures:
        print("bench_report: gates FAILED:", file=sys.stderr)
        for f in failures:
            print("  " + f, file=sys.stderr)
        return 1
    gates = "allocation gate"
    if args.live_out:
        gates += " + live ratio gates"
    print(f"bench_report: {gates} passed "
          f"(<= {args.max_allocs:g} allocs/event)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
