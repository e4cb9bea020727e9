"""codec-bounds: wire/report decode paths must go through the bounded
cursor API.

Reports arrive from an untrusted downlink; every read out of a frame
payload must bounds-check. The bounded cursor is report::BitReader (reads
clear ok() on underrun) — raw pointer arithmetic, raw pointer subscripts
and unchecked memcpy inside the codec scope (src/live/wire.* and
src/report/) are findings. The frame *envelope* (CRC + length header) is
the designed trust boundary below the cursor; its handful of raw reads
carry MCI-ANALYZE-ALLOW justifications instead of an exemption the rule
can't audit.

Since the interprocedural summary pass (summaries.py), a raw access is
additionally accepted without an ALLOW when the taint proof discharges
it: the enclosing function's summary-specialized solve is complete (not
truncated) and no access path read by the flagged statement is ever
attacker-derived — under hardened semantics where a call *without* a
summary is assumed to return tainted data, so the proof never leans on
an unanalyzed helper. This is what let the "checked on entry" ALLOWs in
decodeFrame (the one frame decoder) be deleted: frameSize's summary
proves its return value is guarded by its own kMaxPayloadBytes check.
"""

from __future__ import annotations

from typing import List

from engine import Finding

RULE_NAME = "codec-bounds"
DESCRIPTION = (
    "decodes in src/live/wire.* and src/report/ must use the bounded "
    "BitReader cursor, not raw pointer reads"
)

SCOPE_PREFIXES = (
    "src/live/wire.",
    "src/report/",
    "tests/analyze/fixtures/codec_bounds/",  # the rule's own test corpus
)

RAW_COPY_FNS = {"memcpy", "memmove", "strcpy", "strncpy", "bcopy"}


def _in_scope(rel: str) -> bool:
    return any(rel.startswith(p) for p in SCOPE_PREFIXES)


def check(ctx) -> List[Finding]:
    ck = ctx.cindex.CursorKind
    tk = ctx.cindex.TypeKind
    func_kinds = {
        ck.FUNCTION_DECL, ck.CXX_METHOD, ck.CONSTRUCTOR, ck.DESTRUCTOR,
        ck.FUNCTION_TEMPLATE, ck.CONVERSION_FUNCTION,
    }
    findings: List[Finding] = []
    seen = set()

    def pointer_type(cursor) -> bool:
        try:
            return cursor.type.get_canonical().kind == tk.POINTER
        except Exception:
            return False

    def integral_type(cursor) -> bool:
        try:
            k = cursor.type.get_canonical().kind
        except Exception:
            return False
        return tk.BOOL.value <= k.value <= tk.INT128.value

    def pointer_arith(cursor) -> bool:
        # cindex (pre-17) does not expose the operator opcode, so recognise
        # arithmetic structurally: pointer-typed result with exactly one
        # pointer operand and one integral operand (p + n / n + p). Plain
        # pointer assignment has two pointer operands and is not flagged.
        if not pointer_type(cursor):
            return False
        kids = list(cursor.get_children())
        if len(kids) != 2:
            return False
        ptr = [pointer_type(k) for k in kids]
        ints = [integral_type(k) for k in kids]
        return (ptr[0] and ints[1]) or (ints[0] and ptr[1])

    def visit(cursor, symbol: str) -> None:
        loc = cursor.location
        if loc.file is not None and not ctx.in_repo(loc.file.name):
            return
        if cursor.kind in func_kinds and cursor.spelling:
            symbol = cursor.spelling
        rel, line, col = ctx.location(cursor)
        if rel and _in_scope(rel):
            ctx.suppressions.load_file(
                ctx.repo_root + "/" + rel, rel
            )
            msg = None
            if cursor.kind == ck.CALL_EXPR and \
                    cursor.spelling in RAW_COPY_FNS:
                msg = ("unchecked %s from a frame payload — read through "
                       "BitReader" % cursor.spelling)
            elif cursor.kind == ck.ARRAY_SUBSCRIPT_EXPR:
                base = next(iter(cursor.get_children()), None)
                if base is not None and pointer_type(base):
                    msg = ("raw pointer subscript in codec scope — read "
                           "through BitReader")
            elif cursor.kind in (ck.BINARY_OPERATOR,
                                 ck.COMPOUND_ASSIGNMENT_OPERATOR) \
                    and pointer_arith(cursor):
                msg = ("raw pointer arithmetic in codec scope — read "
                       "through BitReader")
            if msg is not None:
                ident = (rel, line, col, msg)
                if ident not in seen:
                    seen.add(ident)
                    findings.append(
                        Finding(rule=RULE_NAME, file=rel, line=line,
                                column=col, message=msg, symbol=symbol)
                    )
        for child in cursor.get_children():
            visit(child, symbol)

    for _, tu in ctx.tus:
        for child in tu.cursor.get_children():
            visit(child, "")
    return _discharge_proven(ctx, findings)


def _discharge_proven(ctx, findings: List[Finding]) -> List[Finding]:
    """Drops findings the interprocedural taint proof discharges (see
    module docstring). Any failure to build the proof keeps every
    finding — the proof can only ever remove, never add."""
    try:
        from rules import wire_taint

        proofs = wire_taint.codec_proof(ctx)
    except Exception:
        return findings
    import engine as eng

    kept: List[Finding] = []
    for f in findings:
        proven = False
        for fp in proofs.get(f.file, ()):
            if not (fp.start <= f.line <= fp.end) or fp.truncated:
                continue
            reads = fp.line_paths.get(f.line)
            if reads is None:
                continue  # no IR statement here: stay conservative
            if not any(eng.paths_alias(r, t)
                       for r in reads for t in fp.tainted):
                proven = True
                break
        if not proven:
            kept.append(f)
    return kept
