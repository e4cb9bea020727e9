#!/usr/bin/env python3
"""Loopback smoke driver for the live broadcast subsystem.

Starts one mci_live_server daemon (or, with --shards K > 1, an
mci_live_cluster of K sharded daemons), points an mci_live_client load
generator (N in-process agents) at it for a few simulated minutes of
compressed model time, and asserts the run was healthy end to end:

  * every agent completed the Hello/Welcome handshake,
  * queries completed and some of them were cache hits,
  * zero stale reads audited on either side (the paper's core invariant),
  * no connection was lost and both processes exited cleanly,
  * in sharded mode: the client learned the shard map and heard a nonzero
    IR stream from every shard, and every shard applied updates.

With --reshard (needs --shards > 1) the cluster additionally walks a
scripted grow -> rebalance -> shrink membership sequence mid-run while the
agents keep querying, and the driver asserts every epoch transition
completed, zero stale reads and zero dropped frames across all of them,
zero handoff failures, and that the client followed every epoch switch.

CI runs this against the release build; locally:

    python3 tools/live_load.py --build build-release
    python3 tools/live_load.py --build build-release --shards 3
    python3 tools/live_load.py --build build-release --shards 4 --reshard
    python3 tools/live_load.py --build build-release --shards 4 --reshard \
        --timescale 10
"""

from __future__ import annotations

import argparse
import pathlib
import re
import subprocess
import sys

# Model-second script for --reshard: grow 4 -> 6, reshuffle the hash law,
# shrink back to 4. Transitions must be spaced wider than the cutover
# grace window (0.5 wall s = timescale/2 model s) plus handoff time, or
# the later steps land while the earlier reshard is still in flight.
# Grace serves only the fetches, checks and audits in flight at a flip;
# a query leg moves to the new owner, so a report period longer than
# grace (--timescale below 2 * L) loses nothing.
RESHARD_SCRIPT = "grow2@60,rebalance@150,shrink2@240"
RESHARD_MIN_DURATION = 400.0


def parse_kv(text: str) -> dict[str, str]:
    return dict(tok.split("=", 1)
                for line in text.splitlines()
                for tok in line.split() if "=" in tok)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build", default="build", help="CMake build directory")
    ap.add_argument("--scheme", default="AAW")
    ap.add_argument("--shards", type=int, default=1,
                    help="1 = single mci_live_server; K>1 = mci_live_cluster")
    ap.add_argument("--agents", type=int, default=8)
    ap.add_argument("--dbsize", type=int, default=500)
    ap.add_argument("--duration", type=float, default=600.0,
                    help="client run length in model seconds")
    ap.add_argument("--timescale", type=float, default=100.0,
                    help="model seconds per wall second")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--reshard", action="store_true",
                    help="walk a scripted grow -> rebalance -> shrink "
                         "sequence mid-run (requires --shards > 1)")
    args = ap.parse_args()
    if args.reshard and args.shards <= 1:
        ap.error("--reshard requires --shards > 1")
    if args.reshard and args.duration < RESHARD_MIN_DURATION:
        ap.error(f"--reshard needs --duration >= {RESHARD_MIN_DURATION:g} "
                 f"(script runs through model second 240 plus grace)")

    build = pathlib.Path(args.build)
    sharded = args.shards > 1
    server_bin = build / "src" / ("mci_live_cluster" if sharded
                                  else "mci_live_server")
    client_bin = build / "src" / "mci_live_client"
    for b in (server_bin, client_bin):
        if not b.exists():
            print(f"error: {b} not built", file=sys.stderr)
            return 2

    # The server outlives the client by a margin so the client's shutdown is
    # clean (Bye over a live connection), then times out on its own. The
    # margin covers the client's late clock start: its model time begins at
    # the first Welcome, a beat after the daemon's.
    server_cmd = [
        str(server_bin),
        f"--scheme={args.scheme}",
        f"--clients={args.agents}",
        f"--dbsize={args.dbsize}",
        "--bufferfrac=0.1",
        f"--timescale={args.timescale}",
        f"--duration={args.duration + 300.0}",
        f"--seed={args.seed}",
    ]
    if sharded:
        server_cmd.insert(1, f"--shards={args.shards}")
    if args.reshard:
        server_cmd.append(f"--reshard={RESHARD_SCRIPT}")
    print("+", " ".join(server_cmd))
    server = subprocess.Popen(server_cmd, stdout=subprocess.PIPE, text=True)
    try:
        port_line = server.stdout.readline().strip()
        if not port_line.startswith("port="):
            print(f"error: expected port=..., got {port_line!r}",
                  file=sys.stderr)
            server.kill()
            return 1
        port = int(port_line.split("=", 1)[1])
        if sharded:
            # The cluster also announces the full port list; the client only
            # needs the seed port — the Welcome's shard map teaches the rest.
            ports_line = server.stdout.readline().strip()
            print(ports_line)

        # Hot/cold queries with a short think time: enough locality that a
        # few model minutes must produce cache hits.
        client_cmd = [
            str(client_bin),
            f"--port={port}",
            f"--agents={args.agents}",
            f"--duration={args.duration}",
            "--workload=HOTCOLD",
            "--think=10",
            f"--seed={args.seed}",
        ]
        print("+", " ".join(client_cmd))
        client = subprocess.run(client_cmd, stdout=subprocess.PIPE, text=True,
                                timeout=args.duration / args.timescale + 60)
        print(client.stdout, end="")

        server_out, _ = server.communicate(
            timeout=(args.duration + 400.0) / args.timescale + 60)
        print(server_out, end="")
    except subprocess.TimeoutExpired:
        print("error: timed out waiting for daemons", file=sys.stderr)
        server.kill()
        return 1

    failures = []
    if client.returncode != 0:
        failures.append(f"client exited {client.returncode}")
    if server.returncode != 0:
        failures.append(f"server exited {server.returncode}")

    stats = parse_kv(client.stdout or "")
    server_stats = parse_kv(server_out or "")
    checks = [
        ("welcomed", stats.get("welcomed") == str(args.agents)),
        ("queries > 0", int(stats.get("queries", 0)) > 0),
        ("hits > 0", int(stats.get("hits", 0)) > 0),
        ("client stale == 0", stats.get("stale") == "0"),
        ("no lost connections", stats.get("lost") == "0"),
        ("reports heard > 0", int(stats.get("reports_heard", 0)) > 0),
        ("server stale == 0", server_stats.get("stale") == "0"),
        ("server broadcast > 0", int(server_stats.get("reports", 0)) > 0),
    ]
    if sharded:
        checks.append(("client learned the shard map",
                       stats.get("shards") == str(args.shards)))
        heard = [int(n) for n in
                 stats.get("reports_per_shard", "").split(",") if n]
        checks.append(("client heard IRs from every shard",
                       len(heard) == args.shards and all(n > 0
                                                         for n in heard)))
        checks.append(("no misrouted items",
                       server_stats.get("misrouted") == "0"))
        for s in range(args.shards):
            checks.append(
                (f"shard {s} broadcast IRs and applied updates",
                 int(server_stats.get(f"shard{s}_reports", 0)) > 0 and
                 int(server_stats.get(f"shard{s}_updates", 0)) > 0))
    if args.reshard:
        # Per-transition announce lines are `epoch=N shards=K` alone on a
        # line; the final stats line spells epoch= mid-line and is not
        # matched. grow2 -> rebalance -> shrink2 from K shards must walk
        # epochs 2, 3, 4 through K+2, K+2, K shards — in that order.
        transitions = [(int(e), int(s)) for e, s in
                       re.findall(r"^epoch=(\d+) shards=(\d+)$",
                                  server_out or "", re.M)]
        expect = [(2, args.shards + 2), (3, args.shards + 2),
                  (4, args.shards)]
        checks += [
            ("all three epoch transitions completed in order",
             transitions == expect),
            ("no transition refused or overlapped",
             "reshard=busy" not in (server_out or "") and
             "reshard=refused" not in (server_out or "")),
            ("zero handoff failures",
             server_stats.get("handoff_failed") == "0"),
            ("items were handed off",
             int(server_stats.get("handoff_recv", 0)) > 0),
            ("map updates announced",
             int(server_stats.get("map_updates", 0)) > 0),
            ("zero dropped frames across transitions",
             server_stats.get("dropped") == "0"),
            ("client followed every epoch switch",
             stats.get("epoch_switches") == "3"),
        ]
    for label, ok in checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {label}")
        if not ok:
            failures.append(label)

    if failures:
        print("live smoke FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("live smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
