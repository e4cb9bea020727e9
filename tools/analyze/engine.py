"""Shared infrastructure for the mci-analyze rule engine.

This module owns everything the rules have in common:

  * locating libclang (the graceful-skip contract from run_clang_tidy.sh:
    a missing toolchain is a notice, not a failure, unless
    MCI_ANALYZE_STRICT=1),
  * loading compile_commands.json and normalising its argv lines into
    something clang can re-parse,
  * the ``// MCI-ANALYZE-ALLOW(rule): reason`` suppression syntax,
  * the Finding record and its baseline key (deliberately line-free so a
    reformat does not invalidate the checked-in baseline).

Everything here except ``ClangLoader`` is pure Python with no libclang
dependency, so the framework itself stays unit-testable on machines where
only the rules must skip.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import shlex
import sys
from typing import Dict, List, Optional, Sequence, Set, Tuple

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_SETUP_ERROR = 2
EXIT_SKIPPED = 77  # CTest SKIP_RETURN_CODE; same convention as GNU automake.


# --------------------------------------------------------------------------
# Findings
# --------------------------------------------------------------------------


@dataclasses.dataclass
class Finding:
    """One rule violation at one source location.

    ``message`` must be stable across unrelated edits (no line numbers, no
    absolute paths) because it participates in the baseline key. Location
    detail that may drift belongs in ``detail`` instead.
    """

    rule: str
    file: str  # repo-relative, posix separators
    line: int
    column: int
    message: str
    symbol: str = ""  # enclosing function, when known
    detail: str = ""  # e.g. the call chain that made something reachable
    # Cross-function steps behind the finding, source first:
    # {"file": ..., "line": ..., "message": ...}. Rendered as SARIF
    # relatedLocations; not part of the baseline key.
    related: List[dict] = dataclasses.field(default_factory=list)

    def key(self) -> str:
        """Line-number-free identity used for baseline diffing."""
        return "|".join((self.rule, self.file, self.symbol, self.message))

    def render(self) -> str:
        loc = "%s:%d:%d" % (self.file, self.line, self.column)
        sym = (" [in %s]" % self.symbol) if self.symbol else ""
        out = "%s: %s: %s%s" % (loc, self.rule, self.message, sym)
        if self.detail:
            out += "\n    note: %s" % self.detail
        return out

    def to_json(self) -> dict:
        d = dataclasses.asdict(self)
        d["id"] = finding_id(self)
        return d


def finding_id(f: Finding) -> str:
    """Short stable id for --explain: a hash of the baseline key, so it
    survives line drift exactly as long as the baseline entry would."""
    return hashlib.sha1(f.key().encode("utf-8")).hexdigest()[:12]


def dedupe(findings: List[Finding]) -> List[Finding]:
    """Collapses duplicates produced by the same header parsed in many TUs."""
    seen = set()
    out = []
    for f in sorted(findings, key=lambda f: (f.file, f.line, f.column, f.rule)):
        ident = (f.rule, f.file, f.line, f.column, f.message)
        if ident in seen:
            continue
        seen.add(ident)
        out.append(f)
    return out


# --------------------------------------------------------------------------
# Suppressions: // MCI-ANALYZE-ALLOW(rule): reason
# --------------------------------------------------------------------------

# A suppression must carry a reason, same contract as NOLINT-DETERMINISM in
# lint_determinism.py: an unexplained allow is itself a finding.
_ALLOW_RE = re.compile(
    r"//\s*MCI-ANALYZE-ALLOW\(([A-Za-z0-9_,\-\* ]+)\)\s*(?::\s*(\S.*))?$"
)


class Suppressions:
    """Per-file index of MCI-ANALYZE-ALLOW comments.

    An allow on line N suppresses matching findings on line N and line N+1
    (i.e. it may sit on the offending line or on its own line above). The
    rule list is comma-separated; ``*`` matches every rule.

    An allow on its own line whose reason wraps onto a comment-only next
    line would cover that comment, not the statement below it, so it is a
    ``suppression-syntax`` error: keep the allow on one line directly above
    (or on) its statement and put longer reasoning above it.
    """

    def __init__(self) -> None:
        # file -> line -> set of rule names allowed there
        self._by_file: Dict[str, Dict[int, set]] = {}
        self._loaded: set = set()
        self.errors: List[Finding] = []

    def load_file(self, path: str, rel: str) -> None:
        if rel in self._loaded:
            return
        self._loaded.add(rel)
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as fh:
                lines = fh.readlines()
        except OSError:
            return
        table = self._by_file.setdefault(rel, {})
        for lineno, text in enumerate(lines, start=1):
            m = _ALLOW_RE.search(text)
            if not m:
                if "MCI-ANALYZE-ALLOW" in text:
                    self.errors.append(
                        Finding(
                            rule="suppression-syntax",
                            file=rel,
                            line=lineno,
                            column=1,
                            message="malformed MCI-ANALYZE-ALLOW comment "
                            "(expected '// MCI-ANALYZE-ALLOW(rule): reason')",
                        )
                    )
                continue
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            reason = m.group(2)
            if not reason:
                self.errors.append(
                    Finding(
                        rule="suppression-syntax",
                        file=rel,
                        line=lineno,
                        column=1,
                        message="MCI-ANALYZE-ALLOW without a reason",
                    )
                )
                continue
            next_line = lines[lineno].strip() if lineno < len(lines) else ""
            if (text.lstrip().startswith("// MCI-ANALYZE-ALLOW")
                    and next_line.startswith("//")):
                self.errors.append(
                    Finding(
                        rule="suppression-syntax",
                        file=rel,
                        line=lineno,
                        column=1,
                        message="MCI-ANALYZE-ALLOW continues onto a comment "
                        "line, so it cannot reach its statement (an allow "
                        "covers its own line and the next); put it on the "
                        "line directly above the statement",
                    )
                )
                continue
            table.setdefault(lineno, set()).update(rules)

    def is_allowed(self, rule: str, rel: str, line: int) -> bool:
        table = self._by_file.get(rel)
        if not table:
            return False
        for probe in (line, line - 1):
            rules = table.get(probe)
            if rules and (rule in rules or "*" in rules):
                return True
        return False

    def filter(self, findings: List[Finding]) -> List[Finding]:
        return [
            f
            for f in findings
            if not self.is_allowed(f.rule, f.file, f.line)
        ]


# --------------------------------------------------------------------------
# compile_commands.json
# --------------------------------------------------------------------------

# Flags that make no sense when re-parsing through libclang (dependency
# emission, output files) or that gcc accepts and clang rejects.
_STRIP_WITH_ARG = {"-o", "-MF", "-MT", "-MQ", "-Xclang", "--output"}
_STRIP_BARE = {"-c", "-MD", "-MMD", "-MP", "-g", "-g3"}
_STRIP_PREFIX = ("-fconcepts-diagnostics-depth",)

_EXTRA_ARGS = [
    # The compile db was usually produced by gcc; silence clang-only gripes.
    "-Wno-unknown-warning-option",
    "-Wno-unused-command-line-argument",
]


def normalize_command(entry: dict) -> List[str]:
    """Turns one compile_commands entry into libclang-ready args (no
    compiler argv[0], no input file, no output flags)."""
    if "arguments" in entry:
        argv = list(entry["arguments"])
    else:
        argv = shlex.split(entry.get("command", ""))
    src = entry.get("file", "")
    args: List[str] = []
    skip_next = False
    for i, tok in enumerate(argv):
        if i == 0:
            continue  # the compiler itself
        if skip_next:
            skip_next = False
            continue
        if tok in _STRIP_WITH_ARG:
            skip_next = True
            continue
        if tok in _STRIP_BARE:
            continue
        if any(tok.startswith(p) for p in _STRIP_PREFIX):
            continue
        if tok == src or os.path.basename(tok) == os.path.basename(src) and (
            tok.endswith(".cpp") or tok.endswith(".cc") or tok.endswith(".c")
        ):
            continue
        args.append(tok)
    return args + _EXTRA_ARGS


def load_compile_commands(build_dir: str) -> Dict[str, List[str]]:
    """Returns {absolute source path: normalized clang args}."""
    path = os.path.join(build_dir, "compile_commands.json")
    with open(path, "r", encoding="utf-8") as fh:
        entries = json.load(fh)
    out: Dict[str, List[str]] = {}
    for entry in entries:
        src = entry.get("file", "")
        if not os.path.isabs(src):
            src = os.path.join(entry.get("directory", ""), src)
        out[os.path.normpath(src)] = normalize_command(entry)
    return out


def default_args(repo_root: str, std: str = "c++20") -> List[str]:
    """Fallback args for files missing from the compile db (headers,
    fixtures)."""
    return [
        "-x",
        "c++",
        "-std=" + std,
        "-I",
        os.path.join(repo_root, "src"),
    ] + _EXTRA_ARGS


# --------------------------------------------------------------------------
# libclang loading (the graceful-skip contract)
# --------------------------------------------------------------------------


def load_cindex() -> Tuple[Optional[object], str]:
    """Tries to import clang.cindex and create an Index.

    Returns (module, "") on success or (None, reason). Honour the reason:
    the caller decides between exit 77 (skip) and exit 2 (strict CI).
    """
    try:
        import clang.cindex as cindex  # type: ignore
    except ImportError:
        return None, "python bindings not installed (pip install libclang)"

    override = os.environ.get("MCI_LIBCLANG")
    if override:
        try:
            cindex.Config.set_library_file(override)
        except Exception as exc:  # pragma: no cover - config misuse
            return None, "MCI_LIBCLANG rejected: %s" % exc
    try:
        cindex.Index.create()
        return cindex, ""
    except Exception as first_err:
        # The pip 'libclang' wheel bundles its own shared object and finds it
        # unaided; a distro python3-clang package may need the system lib.
        import ctypes.util

        lib = ctypes.util.find_library("clang")
        if lib:
            try:
                cindex.Config.loaded = False
                cindex.Config.set_library_file(lib)
                cindex.Index.create()
                return cindex, ""
            except Exception:
                pass
        return None, "libclang shared library not loadable (%s)" % first_err


# --------------------------------------------------------------------------
# Analysis context handed to every rule
# --------------------------------------------------------------------------


class AnalysisContext:
    """Parsed TUs plus the shared helpers rules need.

    Rules receive exactly one of these per run; expensive artifacts (the
    call graph) are built lazily on first use and shared between rules.
    """

    def __init__(self, cindex, repo_root: str, call_budget: int,
                 call_depth: int) -> None:
        self.cindex = cindex
        self.repo_root = os.path.realpath(repo_root)
        self.call_budget = call_budget
        self.call_depth = call_depth
        self.tus: List[Tuple[str, object]] = []  # (abs path, TranslationUnit)
        self.suppressions = Suppressions()
        self.parse_errors: List[str] = []
        self._graph = None
        self._file_cache: Dict[str, List[str]] = {}

    # -- paths -------------------------------------------------------------

    def rel(self, path: str) -> str:
        real = os.path.realpath(path)
        if real.startswith(self.repo_root + os.sep):
            real = real[len(self.repo_root) + 1:]
        return real.replace(os.sep, "/")

    def in_repo(self, path: Optional[str]) -> bool:
        if not path:
            return False
        return os.path.realpath(path).startswith(self.repo_root + os.sep)

    def file_lines(self, path: str) -> List[str]:
        rel = self.rel(path)
        if rel not in self._file_cache:
            try:
                with open(os.path.join(self.repo_root, rel), "r",
                          encoding="utf-8", errors="replace") as fh:
                    self._file_cache[rel] = fh.readlines()
            except OSError:
                self._file_cache[rel] = []
        return self._file_cache[rel]

    def extent_text(self, rel: str, start_line: int, end_line: int) -> str:
        lines = self.file_lines(os.path.join(self.repo_root, rel))
        return "".join(lines[max(0, start_line - 1):end_line])

    # -- parsing -----------------------------------------------------------

    def parse_detached(self, path: str, args: List[str]):
        """Parses one TU without touching shared state: returns
        (tu-or-None, error-or-empty). Safe to call from worker threads
        (libclang releases the GIL; each call gets its own Index) — the
        caller commits results in a deterministic order afterwards."""
        try:
            index = self.cindex.Index.create()
            tu = index.parse(os.path.realpath(path), args=args)
        except Exception as exc:
            return None, "%s: %s" % (path, exc)
        fatal = [
            d for d in tu.diagnostics
            if d.severity >= self.cindex.Diagnostic.Error
        ]
        if fatal:
            # Report but keep the TU: rules still work on a partial AST, and
            # failing hard here would make every new compiler flag a flake.
            return tu, "%s: %d parse error(s), first: %s" % (
                path, len(fatal), fatal[0].spelling)
        return tu, ""

    def commit_tu(self, path: str, tu, err: str) -> bool:
        if err:
            self.parse_errors.append(err)
        if tu is None:
            return False
        self.tus.append((os.path.realpath(path), tu))
        self.suppressions.load_file(path, self.rel(path))
        return True

    def parse(self, path: str, args: List[str]) -> bool:
        tu, err = self.parse_detached(path, args)
        return self.commit_tu(path, tu, err)

    # -- cursor helpers ----------------------------------------------------

    def location(self, cursor) -> Tuple[str, int, int]:
        loc = cursor.location
        fname = loc.file.name if loc.file else ""
        return self.rel(fname) if fname else "", loc.line, loc.column

    def load_suppressions_for(self, cursor) -> None:
        loc = cursor.location
        if loc.file and self.in_repo(loc.file.name):
            self.suppressions.load_file(loc.file.name, self.rel(loc.file.name))

    # -- call graph --------------------------------------------------------

    def callgraph(self):
        if self._graph is None:
            import callgraph as cg

            builder = cg.CallGraphBuilder(self)
            for _, tu in self.tus:
                builder.add_tu(tu)
            self._graph = builder.graph
        return self._graph


# --------------------------------------------------------------------------
# Dataflow layer: statement IR, CFG, def-use chains, and the taint solver
#
# Everything below is pure Python over a neutral statement IR, so the
# flow-sensitive machinery is unit-testable without libclang
# (tests/analyze/test_dataflow_units.py). callgraph.TaintLowering is the
# libclang front-end that lowers a function body into this IR.
# --------------------------------------------------------------------------


def paths_alias(a: str, b: str) -> bool:
    """True when two access paths may name the same storage: exact match,
    or one is a field extension of the other (``m`` vs ``m.items``)."""
    return a == b or a.startswith(b + ".") or b.startswith(a + ".")


def any_alias(path: str, state: Dict[str, tuple]) -> Optional[str]:
    """First key of ``state`` aliasing ``path`` (exact match preferred)."""
    if path in state:
        return path
    for key in state:
        if paths_alias(path, key):
            return key
    return None


# The synthetic access path holding a function's return value. Lowering
# assigns it at every ``return expr``; summary computation reads its taint
# at exit to decide whether the function's result is attacker-derived.
RETURN_PATH = "__ret"


@dataclasses.dataclass(frozen=True)
class Def:
    """One definition inside a statement: ``path = f(uses)``.

    ``has_source`` marks a taint source appearing directly in the defining
    expression (a ``BitReader::read`` / ``decode*`` call result).
    ``from_call`` names the callee whose return value produced this def
    (when the RHS is dominated by one call) so interprocedural summaries
    can replace the intraprocedural approximation."""

    path: str
    uses: Tuple[str, ...] = ()
    has_source: bool = False
    source_desc: str = ""
    from_call: str = ""


@dataclasses.dataclass(frozen=True)
class CallFact:
    """One call inside a statement, with per-argument taint inputs:
    ``args[i]`` is ``(access paths read by argument i, argument i contains
    a direct source call)``. Summaries use these to map callee parameter
    facts back onto caller state."""

    callee: str
    args: Tuple[Tuple[Tuple[str, ...], bool], ...] = ()
    line: int = 0
    column: int = 0


@dataclasses.dataclass(frozen=True)
class Sink:
    """A taint-sensitive position inside a statement.

    ``paths`` are the access paths feeding the sensitive operand;
    ``direct`` means a source call sits in the operand itself (no variable
    in between, e.g. ``buf[r.read(8)]``)."""

    kind: str  # subscript | copy-length | size-arg | loop-bound | shard-index
    desc: str
    paths: Tuple[str, ...] = ()
    direct: bool = False
    # Cross-function provenance, outermost call first: each entry is one
    # "file:line callee(param)" step a summary folded into this sink.
    via: Tuple[str, ...] = ()


@dataclasses.dataclass(frozen=True)
class Guard:
    """A sanitizing condition attached to a branch statement: on the
    ``edge`` ('true'/'false') successor, taint on every path in ``kills``
    dies — provided every path in ``bound_paths`` (the other side of the
    comparison) is itself untainted at that point. A comparison against a
    tainted bound sanitizes nothing."""

    kills: Tuple[str, ...]
    edge: str  # 'true' | 'false'
    bound_paths: Tuple[str, ...] = ()


@dataclasses.dataclass
class Stmt:
    """One statement of the lowered IR."""

    sid: int
    line: int = 0
    column: int = 0
    text: str = ""
    defs: Tuple[Def, ...] = ()
    uses: Tuple[str, ...] = ()
    sinks: Tuple[Sink, ...] = ()
    kills: Tuple[str, ...] = ()  # unconditional from here on (MCI_CHECK)
    guards: Tuple[Guard, ...] = ()  # meaningful on branch statements only
    calls: Tuple[CallFact, ...] = ()  # calls appearing in this statement


@dataclasses.dataclass
class CfgNode:
    stmt: Stmt
    # (successor node id, edge label); label '' for unconditional edges,
    # 'true'/'false' for branch edges (guards key off the label).
    succs: List[Tuple[int, str]] = dataclasses.field(default_factory=list)


class Cfg:
    """A per-function control-flow graph over Stmt nodes. Node ids are the
    statement sids; ``entry`` is the first node executed."""

    def __init__(self) -> None:
        self.nodes: Dict[int, CfgNode] = {}
        self.entry: Optional[int] = None

    def add(self, stmt: Stmt) -> CfgNode:
        node = CfgNode(stmt=stmt)
        self.nodes[stmt.sid] = node
        if self.entry is None:
            self.entry = stmt.sid
        return node

    def edge(self, src: int, dst: int, label: str = "") -> None:
        pair = (dst, label)
        if pair not in self.nodes[src].succs:
            self.nodes[src].succs.append(pair)

    def preds(self) -> Dict[int, List[Tuple[int, str]]]:
        out: Dict[int, List[Tuple[int, str]]] = {nid: [] for nid in self.nodes}
        for nid, node in self.nodes.items():
            for dst, label in node.succs:
                out[dst].append((nid, label))
        return out


# -- def-use (reaching definitions) ----------------------------------------


def reaching_defs(cfg: Cfg, max_steps: int = 0) -> Dict[int, Dict[str, Set[int]]]:
    """Classic reaching-definitions over the CFG: for each node, the set of
    def sids per access path that may reach its entry. Used for chain
    reconstruction and directly unit-tested as the def-use layer."""
    if cfg.entry is None:
        return {}
    max_steps = max_steps or 64 * max(1, len(cfg.nodes))
    ins: Dict[int, Dict[str, Set[int]]] = {nid: {} for nid in cfg.nodes}
    work = [cfg.entry]
    steps = 0
    while work and steps < max_steps:
        steps += 1
        nid = work.pop(0)
        node = cfg.nodes[nid]
        out = {p: set(s) for p, s in ins[nid].items()}
        for d in node.stmt.defs:
            out[d.path] = {node.stmt.sid}  # strong update
        for dst, _label in node.succs:
            tgt = ins[dst]
            changed = False
            for path, sids in out.items():
                have = tgt.setdefault(path, set())
                if not sids <= have:
                    have.update(sids)
                    changed = True
            if changed and dst not in work:
                work.append(dst)
    return ins


# -- taint solver ----------------------------------------------------------


@dataclasses.dataclass
class SinkHit:
    """A sink reached by tainted data, with the statement chain that
    carried the taint from its source."""

    sink: Sink
    stmt: Stmt
    chain: Tuple[int, ...]  # sids, source first, sink last
    tainted_path: str = ""  # "" when sink.direct


@dataclasses.dataclass
class TaintResult:
    hits: List[SinkHit]
    truncated: bool
    # Per-node taint state at entry (node id -> path -> origin chain).
    # Summary computation reads return/exit states from here; empty for
    # nodes never reached.
    ins: Dict[int, Dict[str, tuple]] = dataclasses.field(default_factory=dict)


def _transfer(stmt: Stmt, state: Dict[str, tuple]) -> Dict[str, tuple]:
    out = dict(state)
    for killed in stmt.kills:
        for key in [k for k in out if paths_alias(k, killed)]:
            del out[key]
    for d in stmt.defs:
        feeder = None
        for use in d.uses:
            feeder = any_alias(use, out)
            if feeder:
                break
        # Strong update: the old value of the path (and its fields) is gone.
        for key in [k for k in out
                    if k == d.path or k.startswith(d.path + ".")]:
            del out[key]
        if d.has_source:
            out[d.path] = (stmt.sid,)
        elif feeder is not None:
            out[d.path] = state.get(feeder, ()) + (stmt.sid,)
    return out


def _apply_guards(stmt: Stmt, label: str,
                  state: Dict[str, tuple]) -> Dict[str, tuple]:
    out = state
    for g in stmt.guards:
        if g.edge != label:
            continue
        if any(any_alias(b, out) for b in g.bound_paths):
            continue  # comparing against a tainted bound sanitizes nothing
        killed = [k for k in out
                  if any(paths_alias(k, p) for p in g.kills)]
        if killed:
            out = dict(out)
            for key in killed:
                del out[key]
    return out


def solve_taint(cfg: Cfg, seed: Optional[Dict[str, tuple]] = None,
                max_steps: int = 0) -> TaintResult:
    """Flow-sensitive taint propagation to a fixpoint.

    State: access path -> origin chain (tuple of sids, source first). The
    lattice per path is untainted < tainted; merge at joins is set union
    over paths (first chain wins — chains are diagnostics, not semantics).
    Guards kill taint on the sanitized branch edge only, so a bound checked
    inside one ``if`` does not launder later unguarded uses."""
    if cfg.entry is None:
        return TaintResult(hits=[], truncated=False, ins={})
    max_steps = max_steps or 64 * max(1, len(cfg.nodes))
    ins: Dict[int, Dict[str, tuple]] = {cfg.entry: dict(seed or {})}
    work = [cfg.entry]
    steps = 0
    truncated = False
    while work:
        if steps >= max_steps:
            truncated = True
            break
        steps += 1
        nid = work.pop(0)
        node = cfg.nodes[nid]
        out = _transfer(node.stmt, ins.get(nid, {}))
        for dst, label in node.succs:
            edge_state = _apply_guards(node.stmt, label, out)
            tgt = ins.setdefault(dst, {})
            changed = False
            for path, chain in edge_state.items():
                if path not in tgt:
                    tgt[path] = chain
                    changed = True
            if changed and dst not in work:
                work.append(dst)

    hits: List[SinkHit] = []
    seen = set()
    for nid in sorted(cfg.nodes):
        node = cfg.nodes[nid]
        if not node.stmt.sinks:
            continue
        state = ins.get(nid)
        if state is None:
            continue  # unreachable
        for sink in node.stmt.sinks:
            ident = (nid, sink.kind, sink.desc)
            if ident in seen:
                continue
            if sink.direct:
                seen.add(ident)
                hits.append(SinkHit(sink=sink, stmt=node.stmt,
                                    chain=(nid,), tainted_path=""))
                continue
            for path in sink.paths:
                key = any_alias(path, state)
                if key is not None:
                    seen.add(ident)
                    hits.append(SinkHit(sink=sink, stmt=node.stmt,
                                        chain=state[key] + (nid,),
                                        tainted_path=path))
                    break
    return TaintResult(hits=hits, truncated=truncated, ins=ins)


# -- the wire-taint vocabulary ---------------------------------------------


@dataclasses.dataclass(frozen=True)
class TaintVocab:
    """What counts as a source, sink, and sanitizer for the wire-taint
    rule. Plain data so the lowering (callgraph.TaintLowering), the rule
    and the docs table all share one definition."""

    source_methods: Tuple[str, ...] = ("read",)
    source_receiver_hint: str = "BitReader"
    source_prefixes: Tuple[str, ...] = ("decode",)
    copy_len_fns: Tuple[str, ...] = ("memcpy", "memmove", "memset", "bcopy")
    size_methods: Tuple[str, ...] = ("resize", "reserve", "assign")
    index_call_fns: Tuple[str, ...] = ("shardOf", "shardOfItem", "endpoint")
    clamp_fns: Tuple[str, ...] = ("min", "clamp")
    guard_fns: Tuple[str, ...] = ("fits",)
    check_macros: Tuple[str, ...] = ("MCI_CHECK", "MCI_DCHECK")


DEFAULT_TAINT_VOCAB = TaintVocab()


def to_sarif(findings: List[Finding], descriptions: Optional[Dict[str, str]]
             = None) -> dict:
    """Findings as a SARIF 2.1.0 log (what CI uploads so findings annotate
    the PR diff). Paths are repo-relative against SRCROOT."""
    descriptions = descriptions or {}
    rule_ids = sorted({f.rule for f in findings})
    results = []
    for f in findings:
        text = f.message
        if f.symbol:
            text += " [in %s]" % f.symbol
        if f.detail:
            text += "\n" + f.detail
        result = {
            "ruleId": f.rule,
            "level": "error",
            "message": {"text": text},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": f.file,
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": max(1, f.line),
                        "startColumn": max(1, f.column),
                    },
                },
            }],
        }
        if f.related:
            # The cross-function source->sink chain, one step per location,
            # so the PR annotation shows every hop rather than just the
            # sink. Source first, matching Finding.related.
            result["relatedLocations"] = [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": step.get("file", f.file),
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {"startLine": max(1, step.get("line", 1))},
                },
                "message": {"text": step.get("message", "")},
            } for step in f.related]
        results.append(result)
    driver = {
        "name": "mci-analyze",
        "informationUri": "https://example.invalid/mci-analyze",
        "rules": [
            {"id": rid,
             "shortDescription": {"text": descriptions.get(rid, rid)}}
            for rid in rule_ids
        ],
    }
    return {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                   "master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": driver},
            "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
            "results": results,
        }],
    }


# MCI_CHECK(...) conditions are macro text, not AST we can rely on across
# libclang versions; extract simple upper-bound comparisons textually.
# ``a <= b`` / ``a < b`` / ``a == b`` kill a; ``a >= b`` / ``a > b`` kill b.
_CHECK_CMP_RE = re.compile(
    r"([A-Za-z_][\w>.\-]*?)\s*(<=|>=|==|(?<![<>=!])<(?![<=])|"
    r"(?<![<>=!-])>(?![>=]))\s*([A-Za-z_][\w>.\-]*|\d+)"
)


def check_macro_kills(text: str) -> Tuple[str, ...]:
    """Access paths sanitized by an MCI_CHECK-style statement's condition
    (the statement aborts unless the condition holds, so fallthrough code
    may rely on it)."""
    kills = []
    for lhs, op, rhs in _CHECK_CMP_RE.findall(text):
        target = lhs if op in ("<", "<=", "==") else rhs
        target = target.replace("->", ".")
        if re.fullmatch(r"[A-Za-z_][\w.]*", target):
            kills.append(target)
    return tuple(kills)
