#!/usr/bin/env python3
"""Determinism lint: reject nondeterminism sources and raw asserts.

Every figure this repository emits must be bit-reproducible per seed
(ROADMAP.md), so the production sources may not read entropy or wall-clock
time, and may not let hash-table iteration order leak into results. This
lint enforces that mechanically; it runs as the `lint_determinism` CTest
and as a CI step, so a violation fails the build.

Banned patterns
---------------
1. C `rand()` / `srand()` / `random()` anywhere.
2. `std::random_device` outside src/sim/random.* (the one sanctioned
   entropy wrapper location — currently it uses none).
3. `std::chrono::*_clock::now()` outside the wall-time allowlist
   (bench harness timing of *host* runtime is legitimate; simulated time
   must come from sim::Simulator).
4. `std::mt19937` / `std::mt19937_64` outside src/sim/random.* — all
   simulation randomness flows through sim::Rng so streams are explicitly
   seeded and fork()-decorrelated.
5. Raw `assert(` in src/ (bench/ is exempt). NDEBUG compiles it out of
   every Release build, so an invariant written that way never runs where
   the figures are made. Use MCI_CHECK (always on) for conditions that
   guard input from outside the program (config, CLI, wire) and
   MCI_DCHECK (Debug and sanitizer builds) for the rest; both live in
   src/core/check.hpp. `static_assert` is a different thing and passes.
6. Socket-family syscalls in src/ outside the live socket toolkit
   (src/live/frame_stream.cpp, src/live/udp_batch.cpp): `::socket`,
   `::bind`, `::listen`, `::accept`/`::accept4`, `::connect`,
   `::setsockopt`, `::getsockname`, `::sendto`, `::sendmmsg`, `::recv`
   and `::recvmmsg`. Every live socket is opened, owned and closed behind
   that one seam (live::Socket, live::FrameStream, the batched UDP
   calls), which is where a simulated transport or injected network
   faults plug in. bench/ is exempt: bench_live times raw syscalls on
   purpose.
7. Constructing a `report::BitReader` in src/ outside the two wire
   decoders: src/report/codec.cpp (every invalidation report, with the
   one TS reader, ReportCodec::readTs) and src/live/wire.* (the frame
   envelope and control messages); src/report/codec.hpp declares the
   class. A decoder that walks fields by hand elsewhere is a second
   parser with its own refusal rules, which is how a forged report got
   past one client and not another. Taking a reader by reference (as
   live::ShardMap::decodeFrom does, inside a wire.cpp decode) is fine.
8. `WallTimer` or `metrics/walltime.hpp` under src/live/ and src/swarm/
   outside src/live/reactor.hpp. The reactor's deadline clock is the one
   time source of the live stack: every model tick is that clock times the
   time scale (live::LiveClock), so all daemons and pools on one reactor
   share an epoch, and the reactor is the one seam a virtual clock
   replaces. A second WallTimer would be a second epoch.
9. A field-wise endpoint match in src/ outside src/live/shard_map.*: one
   statement that compares both an `ipv4` and a `tcpPort` field with `==`
   or `!=`. A daemon keeps its identity across reshard epochs by its
   endpoint's (ipv4, tcpPort) pair, and live::ShardMap::indexOf is the one
   place that law is written; a hand-rolled copy drifts from it (say, by
   also comparing the multicast group). A lone field test such as
   `opts.tcpPort == 0` is not an endpoint match and passes.
10. `push_heap`, `pop_heap`, `make_heap` or `priority_queue` in src/
    outside src/sim/event_queue.cpp. sim::EventQueue (slot pool, O(1)
    cancel, FIFO ties, inline handlers) is the one timer queue: the
    simulator and the live Reactor both schedule on it, and so will a
    virtual scheduler. A hand-rolled heap is a second queue with its own
    tie and cancel rules.

An earlier rule 5 (range-for over unordered containers) moved to the
AST-based `ordered-iteration` rule in tools/analyze/mci_analyze.py, which
sees through typedefs, auto, and members declared in other headers where
the old per-file regex could not. This script stays as the zero-dependency
fallback for the token-level rules — they need no type information, so
regexes are exact for them. See docs/analysis.md.

Suppressions
------------
Append to the offending line (or the line above it):

    // NOLINT-DETERMINISM(<reason>)

A reason is mandatory; bare `NOLINT-DETERMINISM` is itself an error.

Exit status: 0 = clean, 1 = violations found, 2 = usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

SCAN_DIRS = ("src", "bench")
EXTENSIONS = {".cpp", ".hpp", ".h", ".cc"}

# Files allowed to construct raw engines / touch entropy primitives.
RNG_ALLOWLIST = ("src/sim/random.hpp", "src/sim/random.cpp")
# The live socket toolkit: the only files that make socket syscalls.
SOCKET_ALLOWLIST = ("src/live/frame_stream.cpp", "src/live/udp_batch.cpp")
# The wire decoders: the only files that construct a report::BitReader.
BIT_READER_ALLOWLIST = (
    "src/report/codec.hpp",
    "src/report/codec.cpp",
    "src/live/wire.hpp",
    "src/live/wire.cpp",
)

# Files allowed to read host clocks (wall-time measurement of the harness
# itself, never of simulated quantities).
WALLTIME_ALLOWLIST = ("src/metrics/walltime.hpp", "src/metrics/walltime.cpp")
# The live stack's one clock: the reactor's deadline clock.
LIVE_DIRS = ("src/live", "src/swarm")
LIVE_CLOCK_ALLOWLIST = ("src/live/reactor.hpp",)
LIVE_CLOCK_MESSAGE = (
    "a second clock in the live stack; read model time through "
    "live::LiveClock, which scales the reactor's clock "
    "(src/live/reactor.hpp is the one place a WallTimer lives)"
)

SUPPRESS_OK = re.compile(r"NOLINT-DETERMINISM\(.+\)")
SUPPRESS_BARE = re.compile(r"NOLINT-DETERMINISM(?!\()")

SIMPLE_RULES = [
    # (regex on comment-stripped code, scanned path prefixes, allowlist,
    # message)
    (
        re.compile(r"(?<![\w:])s?rand(om)?\s*\("),
        SCAN_DIRS,
        (),
        "C rand()/srand()/random() is banned; use sim::Rng with an explicit seed",
    ),
    (
        re.compile(r"std\s*::\s*random_device"),
        SCAN_DIRS,
        RNG_ALLOWLIST,
        "std::random_device outside src/sim/random.* breaks seed reproducibility",
    ),
    (
        re.compile(r"std\s*::\s*chrono\s*::\s*\w*_clock\s*::\s*now"),
        SCAN_DIRS,
        WALLTIME_ALLOWLIST,
        "host clock reads are banned outside the wall-time allowlist; "
        "simulated time comes from sim::Simulator",
    ),
    (
        re.compile(r"std\s*::\s*mt19937(_64)?\b"),
        SCAN_DIRS,
        RNG_ALLOWLIST,
        "raw std::mt19937 outside src/sim/random.* — route randomness "
        "through sim::Rng so every stream is explicitly seeded",
    ),
    (
        re.compile(r"(?<![\w:])assert\s*\("),
        ("src",),
        (),
        "raw assert() is compiled out of Release builds; use MCI_CHECK "
        "(outside input) or MCI_DCHECK (internal invariant) from "
        "core/check.hpp",
    ),
    (
        re.compile(
            r"(?<![\w:])::\s*(socket|bind|listen|accept4?|connect|setsockopt"
            r"|getsockname|sendto|sendmmsg|recv|recvmmsg)\s*\("
        ),
        ("src",),
        SOCKET_ALLOWLIST,
        "raw socket syscall outside the live socket toolkit; open, use and "
        "close sockets through live::Socket / FrameStream / udp_batch "
        "(src/live/frame_stream.*, src/live/udp_batch.*)",
    ),
    (
        # A named variable (`BitReader r(...)`, `BitReader r{...}`) or a
        # temporary (`BitReader(...)`); `BitReader&` parameters do not match.
        re.compile(r"(?<![\w])BitReader\s*(?:\w+\s*)?[({]"),
        ("src",),
        BIT_READER_ALLOWLIST,
        "report::BitReader constructed outside the wire decoders; read "
        "report fields through report::ReportCodec (readTs, decodeAny) and "
        "frames through live::wire (src/report/codec.cpp, src/live/wire.*)",
    ),
    (
        re.compile(r"\bWallTimer\b"),
        LIVE_DIRS,
        LIVE_CLOCK_ALLOWLIST,
        LIVE_CLOCK_MESSAGE,
    ),
    (
        re.compile(r"(?<!\w)(push_heap|pop_heap|make_heap|priority_queue)\b"),
        ("src",),
        ("src/sim/event_queue.cpp",),
        "a second timer queue; schedule on sim::EventQueue, the one heap "
        "of timed work (src/sim/event_queue.cpp)",
    ),
]

WALLTIME_INCLUDE = re.compile(r'^\s*#\s*include\s*[<"]metrics/walltime\.hpp[>"]')

# Rule 9: the endpoint-identity law lives in live::ShardMap::indexOf.
ENDPOINT_LAW_ALLOWLIST = ("src/live/shard_map.hpp", "src/live/shard_map.cpp")
ENDPOINT_LAW_MESSAGE = (
    "field-wise endpoint match; find a daemon's slot with "
    "live::ShardMap::indexOf, the one statement of the endpoint-identity "
    "law (src/live/shard_map.*)"
)


def field_compare(field: str) -> re.Pattern[str]:
    """A `.field` or `->field` operand on either side of == or !=."""
    member = rf"(?:\.|->)\s*{field}\b"
    return re.compile(rf"{member}\s*[!=]=|[!=]=\s*[\w\[\]().>-]*?{member}")


IPV4_COMPARE = field_compare("ipv4")
TCP_PORT_COMPARE = field_compare("tcpPort")
STATEMENT_END = re.compile(r"[;{}]")


def in_scope(rel: str, prefixes: tuple[str, ...]) -> bool:
    return any(rel.startswith(p + "/") for p in prefixes)


def strip_comments(text: str) -> str:
    """Blanks out // and /* */ comments and string/char literals, keeping
    line structure so reported line numbers match the file."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(c if c == "\n" else " ")
        i += 1
    return "".join(out)


def suppressed(raw_lines: list[str], lineno: int) -> bool:
    """True if line `lineno` (1-based) or the line above carries a reasoned
    suppression."""
    for ln in (lineno, lineno - 1):
        if 1 <= ln <= len(raw_lines) and SUPPRESS_OK.search(raw_lines[ln - 1]):
            return True
    return False


def lint_file(root: Path, path: Path) -> list[str]:
    rel = path.relative_to(root).as_posix()
    raw = path.read_text(encoding="utf-8", errors="replace")
    raw_lines = raw.splitlines()
    code = strip_comments(raw)
    code_lines = code.splitlines()
    errors = []

    for ln, raw_line in enumerate(raw_lines, start=1):
        if SUPPRESS_BARE.search(raw_line) and not SUPPRESS_OK.search(raw_line):
            errors.append(
                f"{rel}:{ln}: bare NOLINT-DETERMINISM — a reason is required: "
                "NOLINT-DETERMINISM(<why this is safe>)"
            )

    for pattern, dirs, allowlist, message in SIMPLE_RULES:
        if rel in allowlist or not in_scope(rel, dirs):
            continue
        for ln, line in enumerate(code_lines, start=1):
            if pattern.search(line) and not suppressed(raw_lines, ln):
                errors.append(f"{rel}:{ln}: {message}")

    # Rule 8's include half reads the raw lines: the include path is a
    # string literal, which strip_comments blanks.
    if rel not in LIVE_CLOCK_ALLOWLIST and in_scope(rel, LIVE_DIRS):
        for ln, line in enumerate(raw_lines, start=1):
            if WALLTIME_INCLUDE.match(line) and not suppressed(raw_lines, ln):
                errors.append(f"{rel}:{ln}: {LIVE_CLOCK_MESSAGE}")

    # Rule 9 reads whole statements: a match may span lines.
    if rel not in ENDPOINT_LAW_ALLOWLIST and in_scope(rel, ("src",)):
        start = 0
        ends = [m.start() for m in STATEMENT_END.finditer(code)] + [len(code)]
        for end in ends:
            stmt = code[start:end]
            ipv4 = IPV4_COMPARE.search(stmt)
            if ipv4 and TCP_PORT_COMPARE.search(stmt):
                ln = code.count("\n", 0, start + ipv4.start()) + 1
                if not suppressed(raw_lines, ln):
                    errors.append(f"{rel}:{ln}: {ENDPOINT_LAW_MESSAGE}")
            start = end + 1

    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths",
        nargs="*",
        help="files to lint (default: every C++ file under src/ and bench/)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root (default: the lint's parent directory)",
    )
    args = parser.parse_args()
    root = args.root.resolve()

    if args.paths:
        files = []
        for p in args.paths:
            f = Path(p).resolve()
            if f.suffix in EXTENSIONS and f.is_file():
                files.append(f)
    else:
        files = [
            f
            for d in SCAN_DIRS
            for f in sorted((root / d).rglob("*"))
            if f.suffix in EXTENSIONS and f.is_file()
        ]
    if not files:
        print("lint_determinism: no files to scan", file=sys.stderr)
        return 2

    all_errors = []
    for f in files:
        try:
            rel_ok = f.is_relative_to(root)
        except AttributeError:  # < 3.9
            rel_ok = str(f).startswith(str(root))
        if not rel_ok:
            continue
        all_errors.extend(lint_file(root, f))

    if all_errors:
        print("\n".join(all_errors))
        print(
            f"\nlint_determinism: {len(all_errors)} violation(s) in "
            f"{len(files)} file(s). See docs/analysis.md for the rule list "
            "and suppression syntax.",
            file=sys.stderr,
        )
        return 1
    print(f"lint_determinism: OK ({len(files)} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
