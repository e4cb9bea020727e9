"""checked-return: results of send-queue, encode and decode calls must be
consumed.

A dropped decode result means an untrusted frame was "parsed" and ignored;
a dropped sendFrame result means the caller keeps touching a connection
that may have just been torn down. The watched set mirrors the APIs this
PR marks [[nodiscard]] — the compiler enforces it under -Werror, this rule
enforces it in any build and in fixture code that never compiles with our
flags. A call is a finding when its full expression result is discarded
(expression-statement position); an explicit (void) cast is a visible,
greppable opt-out.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from engine import Finding

RULE_NAME = "checked-return"
DESCRIPTION = (
    "ignored results of send-queue / encode / codec decode calls"
)

# (method name, required enclosing class or None for free functions /
# any class). Names stay narrow enough that a generic 'next' elsewhere
# does not fire.
WATCHED: List[Tuple[str, Optional[str]]] = [
    ("sendFrame", "BroadcastServer"),
    ("sendFrame", "ClientAgent"),
    ("sendArena", "UplinkMux"),
    ("send", "FrameStream"),
    ("flush", "FrameStream"),
    ("next", "FrameStream"),
    ("next", "FrameBuffer"),
    ("cancel", "EventQueue"),
    ("cancelTimer", "Reactor"),
    ("addFd", "Reactor"),
    ("addTimer", "Reactor"),
    ("encodeInto", None),
    ("encodeFrame", None),
    ("decodeFrame", None),
    ("decodeHello", None),
    ("decodeWelcome", None),
    ("decodeQueryRequest", None),
    ("decodeDataItem", None),
    ("decodeCheck", None),
    ("decodeCheckAck", None),
    ("decodeValidityReply", None),
    ("decodeAudit", None),
    ("decodeAny", "ReportCodec"),
    ("decodeTs", "ReportCodec"),
    ("decodeBs", "ReportCodec"),
    ("decodeSig", "ReportCodec"),
    ("peekKind", "ReportCodec"),
]

_BY_NAME = {}
for _name, _cls in WATCHED:
    _BY_NAME.setdefault(_name, set()).add(_cls)


def _is_watched(ctx, cursor) -> bool:
    name = cursor.spelling
    classes = _BY_NAME.get(name)
    if classes is None:
        return False
    ref = cursor.referenced
    if ref is None:
        return False
    try:
        if ref.result_type.get_canonical().kind == \
                ctx.cindex.TypeKind.VOID:
            return False  # nothing to discard
    except Exception:
        pass
    if None in classes:
        return True
    parent = ref.semantic_parent
    owner = parent.spelling if parent is not None else ""
    return owner in classes


def check(ctx) -> List[Finding]:
    ck = ctx.cindex.CursorKind
    func_kinds = {
        ck.FUNCTION_DECL, ck.CXX_METHOD, ck.CONSTRUCTOR, ck.DESTRUCTOR,
        ck.FUNCTION_TEMPLATE, ck.CONVERSION_FUNCTION, ck.LAMBDA_EXPR,
    }
    findings: List[Finding] = []
    seen = set()

    def visit(cursor, symbol: str) -> None:
        loc = cursor.location
        if loc.file is not None and not ctx.in_repo(loc.file.name):
            return
        if cursor.kind in func_kinds and cursor.spelling:
            symbol = cursor.spelling
        if cursor.kind == ck.COMPOUND_STMT:
            for stmt in cursor.get_children():
                # A CALL_EXPR that *is* the statement discards its value.
                # (void)-casts and assignments wrap it in another node, so
                # they naturally do not match.
                if stmt.kind == ck.CALL_EXPR and _is_watched(ctx, stmt):
                    rel, line, col = ctx.location(stmt)
                    if rel:
                        ctx.suppressions.load_file(
                            ctx.repo_root + "/" + rel, rel)
                        ident = (rel, line, col)
                        if ident not in seen:
                            seen.add(ident)
                            findings.append(
                                Finding(
                                    rule=RULE_NAME, file=rel, line=line,
                                    column=col,
                                    message="result of '%s' ignored"
                                    % stmt.spelling,
                                    symbol=symbol,
                                )
                            )
                visit(stmt, symbol)
            return
        for child in cursor.get_children():
            visit(child, symbol)

    for _, tu in ctx.tus:
        for child in tu.cursor.get_children():
            visit(child, "")
    return findings
