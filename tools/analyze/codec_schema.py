"""Wire-schema extraction for the codec-symmetry rule and the docs drift
gate.

Parses the stylized BitWriter/BitReader codec code in src/live/wire.cpp
and src/live/shard_map.cpp *textually* (no libclang — this gate must run
everywhere, including machines where the clang rules skip) and recovers,
for every message, the ordered field sequence each side implements:

  encoder:  w.write(m.field, N);            -> {name: field, bits: N}
            w.write(m.items.size(), 16);    -> {name: items.count, ...}
            for (T e : m.items) w.write(e.x, N)  -> items[].x
            m.shardMap.encodeTo(w);         -> submessage field
  decoder:  m.field = ...(r.read(N));, count-bounded push_back loops,
            Type::decodeFrom(r, ...) submessage calls.

Encode/decode asymmetry (missing field, width mismatch, reordering) is a
finding; the canonical schema is written to docs/wire_schema.json and the
tables between the wire-schema markers in docs/protocols.md are generated
from it, so the documentation cannot drift from the code.

The parser leans on the repo's codec idiom (one field per line, literal
widths, count-then-loop groups). That is a feature: codec code that the
extractor cannot follow is codec code reviewers cannot follow either, and
the drift gate fails loudly rather than guessing.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Dict, List, Optional, Tuple

SCHEMA_VERSION = 1

# Codec files the real-tree schema is extracted from.
WIRE_SOURCES = ("src/live/wire.cpp", "src/live/shard_map.cpp")

# Header holding the FrameType enum; each enumerator's doc comment names
# the direction the frame travels ("client -> server: my UDP port"), and
# the extracted table feeds the handler-coverage rule.
WIRE_HEADER = "src/live/wire.hpp"

# Messages excluded from pairing: the frame envelope. Its header is laid
# out byte by byte in FrameArena::begin/finish, not by an encodeXInto, so
# decodeFrame (which returns a FrameView) has no BitWriter mirror to pair.
ENVELOPE_MESSAGES = ("Frame",)

SCHEMA_PATH = "docs/wire_schema.json"
DOCS_PATH = "docs/protocols.md"
DOCS_BEGIN = ("<!-- BEGIN GENERATED: wire-schema "
              "(tools/analyze/codec_schema.py --write; do not hand-edit) -->")
DOCS_END = "<!-- END GENERATED: wire-schema -->"

_ENCODE_FN_RE = re.compile(
    r"std::vector<std::uint8_t>\s+encode(\w+?)(?:Into)?\s*\(")
# Every wire message has one encoder, encodeXInto, writing into a
# caller-supplied BitWriter (a FrameArena's, on every send path). The
# vector-returning form above is still recognized (the hermetic fixtures
# use it); a wrapper that only delegates writes no fields of its own and
# is skipped.
_ENCODE_INTO_RE = re.compile(
    r"void\s+encode(\w+)Into\s*\(")
_ENCODE_TO_RE = re.compile(
    r"void\s+(\w+)::encodeTo\s*\(\s*report::BitWriter&")
_DECODE_FN_RE = re.compile(
    r"std::optional<[\w:]+>\s+(?:(\w+)::)?decode(\w*)\s*\(")
_WRITE_RE = re.compile(r"\b\w+\.write\((.*),\s*(\d+)\)\s*;")
_READ_RE = re.compile(r"\b\w+\.read\((\d+)\)")
_RANGE_FOR_RE = re.compile(
    r"for\s*\(\s*(?:const\s+)?[\w:<>]+[&\s]+(\w+)\s*:\s*"
    r"(?:m\.)?(\w+?)_?\s*\)")
_COUNT_FOR_RE = re.compile(
    r"for\s*\(.*;\s*\w+\s*<\s*(\w+)\s*(?:&&[^;]*)?;")
_PUSH_BACK_RE = re.compile(r"(?:m\.)?(\w+?)_?\.push_back\(")
_ASSIGN_READ_RE = re.compile(r"(?:m\.)?([\w.]+?)_?\s*=[^=].*\.read\(")
_DECL_READ_RE = re.compile(
    r"(?:const\s+)?[\w:<>]+\s+(\w+)\s*=[^=].*\.read\(")
_CHECK_READ_RE = re.compile(
    r"if\s*\(\s*\w+\.read\((\d+)\)\s*!=\s*(\w+)\s*\)")
_SUB_DECODE_RE = re.compile(r"=\s*(\w+)::decodeFrom\s*\(")
_SUB_ENCODE_RE = re.compile(r"(?:m\.)?([\w.]+)\.encodeTo\(")
_MOVE_ASSIGN_RE = re.compile(
    r"(?:m\.)?(\w+)\s*=\s*std::move\(\*(\w+)\)")
_ELEM_DECL_RE = re.compile(r"^\s*[\w:]+\s+(\w+)\s*;\s*$")
_KCONST_RE = re.compile(r"^k([A-Z]\w*)$")
_FRAME_ENUM_BEGIN_RE = re.compile(r"enum\s+class\s+FrameType\b")
_FRAME_ENUMERATOR_RE = re.compile(
    r"^\s*(k[A-Z]\w*)\s*=\s*(\d+)\s*,?\s*/+<?\s*([^:]+?)\s*:\s*(.*?)\s*$")
_COUNTLIKE_RE = re.compile(r"(?:([\w.]+?)_?\.size\(\)|(\w*[Cc]ount)\(\))$")


def _lcfirst(s: str) -> str:
    return s[:1].lower() + s[1:] if s else s


def _strip_expr(expr: str) -> str:
    """Unwraps casts / conversion calls and ternaries down to the core
    operand: static_cast<T>(doubleBits(m.x)) -> m.x."""
    expr = expr.strip()
    if "?" in expr:
        expr = expr.split("?")[0].strip()
    while True:
        # Unwrap wrapper calls (casts, doubleBits, quantize) but not
        # zero-argument getters like shardCount().
        m = re.match(r"^[\w:]+(?:<[^<>]*>)?\((.+)\)$", expr)
        if not m:
            break
        expr = m.group(1).strip()
    for tail in ("!= 0", "== 0"):
        if expr.endswith(tail):
            expr = expr[: -len(tail)].strip()
    return expr


def _field_name(expr: str, elem_var: str, group: str) -> str:
    expr = _strip_expr(expr)
    if group and elem_var:
        if expr == elem_var:
            return "%s[]" % group
        if expr.startswith(elem_var + "."):
            return "%s[].%s" % (group, expr[len(elem_var) + 1:])
    if expr.startswith("m."):
        expr = expr[2:]
    k = _KCONST_RE.match(expr)
    if k:
        return _lcfirst(k.group(1))
    expr = expr.rstrip("_")
    return re.sub(r"[^\w.\[\]]", "", expr) or "<unnamed>"


def _match_braces(lines: List[str], start: int) -> int:
    """Index one past the line that closes the block opened at ``start``."""
    depth = 0
    opened = False
    for i in range(start, len(lines)):
        for ch in lines[i]:
            if ch == "{":
                depth += 1
                opened = True
            elif ch == "}":
                depth -= 1
        if opened and depth <= 0:
            return i + 1
    return len(lines)


def _function_bodies(text: str) -> List[Tuple[str, str, str, int]]:
    """Yields (role, message, body, line) for every codec function in
    ``text``; role is 'encode' or 'decode'."""
    out: List[Tuple[str, str, str, int]] = []
    for regex, role in ((_ENCODE_FN_RE, "encode"),
                        (_ENCODE_INTO_RE, "encode"),
                        (_ENCODE_TO_RE, "encode"),
                        (_DECODE_FN_RE, "decode")):
        for m in regex.finditer(text):
            if regex is _DECODE_FN_RE:
                cls, suffix = m.group(1), m.group(2)
                msg = cls if suffix in ("From", "") and cls else suffix
                if not msg:
                    continue
            else:
                msg = m.group(1)
            open_brace = text.find("{", m.end())
            if open_brace < 0:
                continue
            depth = 0
            for i in range(open_brace, len(text)):
                if text[i] == "{":
                    depth += 1
                elif text[i] == "}":
                    depth -= 1
                    if depth == 0:
                        line = text.count("\n", 0, m.start()) + 1
                        out.append((role, msg, text[open_brace + 1:i],
                                    line))
                        break
    return out


class _Fields:
    """Ordered field accumulator with count-field back-patching."""

    def __init__(self) -> None:
        self.fields: List[dict] = []
        # name -> index of a count-like field awaiting its group name
        self.pending_counts: Dict[str, int] = {}

    def add(self, name: str, bits: Optional[int] = None,
            submessage: Optional[str] = None) -> int:
        f: dict = {"name": name}
        if bits is not None:
            f["bits"] = bits
        if submessage is not None:
            f["submessage"] = submessage
        self.fields.append(f)
        return len(self.fields) - 1

    def resolve_count(self, key: str, group: str) -> None:
        idx = self.pending_counts.pop(key, None)
        if idx is not None:
            self.fields[idx]["name"] = "%s.count" % group


def _parse_encoder(body: str, acc: _Fields) -> None:
    lines = body.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        rf = _RANGE_FOR_RE.search(line)
        if rf:
            elem, group = rf.group(1), rf.group(2)
            if group.startswith("m."):
                group = group[2:]
            acc.resolve_count("@next", group)
            if "{" in line:
                end = _match_braces(lines, i)
                for inner in lines[i + 1:end]:
                    _encode_line(inner, acc, elem, group)
                i = end
                continue
            _encode_line(line[rf.end():], acc, elem, group)
            i += 1
            continue
        _encode_line(line, acc, "", "")
        i += 1


def _encode_line(line: str, acc: _Fields, elem: str, group: str) -> None:
    w = _WRITE_RE.search(line)
    if w:
        expr, bits = w.group(1), int(w.group(2))
        core = _strip_expr(expr)
        if not group and _COUNTLIKE_RE.search(core):
            idx = acc.add(_field_name(expr, elem, group), bits)
            acc.pending_counts["@next"] = idx
            return
        acc.add(_field_name(expr, elem, group), bits)
        return
    sub = _SUB_ENCODE_RE.search(line)
    if sub:
        name = sub.group(1)
        if name.startswith("m."):
            name = name[2:]
        acc.add(name, submessage="*")


def _parse_decoder(body: str, acc: _Fields) -> None:
    lines = body.splitlines()
    sub_vars: Dict[str, int] = {}  # local var -> submessage field index
    i = 0
    while i < len(lines):
        line = lines[i]
        cf = _COUNT_FOR_RE.search(line)
        if cf:
            bound = cf.group(1)
            end = _match_braces(lines, i) if "{" in line else i + 1
            block = lines[i + 1:end] if "{" in line else [line[cf.end():]]
            group = ""
            elem = ""
            for inner in block:
                pb = _PUSH_BACK_RE.search(inner)
                if pb and not group:
                    group = pb.group(1)
                ed = _ELEM_DECL_RE.match(inner)
                if ed and not elem:
                    elem = ed.group(1)
            acc.resolve_count(bound, group or "<group>")
            for inner in block:
                _decode_line(inner, acc, elem, group or "<group>",
                             sub_vars)
            i = end
            continue
        _decode_line(line, acc, "", "", sub_vars)
        i += 1
    del sub_vars


def _decode_line(line: str, acc: _Fields, elem: str, group: str,
                 sub_vars: Dict[str, int]) -> None:
    if ".fits(" in line or ".skip(" in line:
        return
    ck = _CHECK_READ_RE.search(line)
    if ck:
        bits, const = int(ck.group(1)), ck.group(2)
        k = _KCONST_RE.match(const)
        acc.add(_lcfirst(k.group(1)) if k else const, bits)
        return
    sub = _SUB_DECODE_RE.search(line)
    if sub:
        typ = sub.group(1)
        var = re.search(r"(\w+)\s*=\s*%s::decodeFrom" % typ, line)
        idx = acc.add(_lcfirst(typ), submessage=typ)
        if var:
            sub_vars[var.group(1)] = idx
        return
    mv = _MOVE_ASSIGN_RE.search(line)
    if mv and mv.group(2) in sub_vars:
        acc.fields[sub_vars[mv.group(2)]]["name"] = mv.group(1)
        return
    rd = _READ_RE.search(line)
    if not rd:
        return
    bits = int(rd.group(1))
    assign = _ASSIGN_READ_RE.search(line)
    if assign:
        target = assign.group(1)
        if elem and target.startswith(elem + "."):
            acc.add("%s[].%s" % (group, target[len(elem) + 1:]), bits)
            return
        decl = _DECL_READ_RE.search(line)
        if decl:
            var = decl.group(1)
            idx = acc.add(var, bits)
            acc.pending_counts[var] = idx
            return
        acc.add(target, bits)
        return
    if "push_back(" in line and group:
        acc.add("%s[]" % group, bits)
        return
    # A read whose value is consumed anonymously (rare); keep the slot so
    # widths/order still line up.
    acc.add("<anonymous>", bits)


def extract_text(text: str, into: Dict[str, Dict[str, List[dict]]],
                 rel: str = "") -> None:
    for role, msg, body, line in _function_bodies(text):
        acc = _Fields()
        if role == "encode":
            _parse_encoder(body, acc)
        else:
            _parse_decoder(body, acc)
        sides = into.setdefault(msg, {})
        if not acc.fields and sides.get(role):
            # A delegating wrapper (encodeX -> encodeXInto) writes no
            # fields itself; keep the side that does.
            continue
        sides[role] = acc.fields
        sides.setdefault("locs", {})[role] = (rel, line)


def extract_frames(text: str) -> Dict[str, dict]:
    """FrameType enumerators with wire value, direction, and doc from the
    enum's per-enumerator comments. An enumerator without a
    "direction: doc" comment is a hard error — the handler-coverage rule
    cannot place an undocumented frame, so the gate refuses to guess."""
    frames: Dict[str, dict] = {}
    m = _FRAME_ENUM_BEGIN_RE.search(text)
    if m is None:
        return frames
    body_end = text.find("};", m.end())
    body = text[m.end():body_end if body_end >= 0 else len(text)]
    for line in body.splitlines():
        em = _FRAME_ENUMERATOR_RE.match(line)
        if em:
            frames[em.group(1)] = {
                "value": int(em.group(2)),
                "direction": em.group(3),
                "doc": em.group(4),
            }
        elif re.match(r"^\s*k[A-Z]\w*\s*=", line):
            raise ValueError(
                "FrameType enumerator lacks a 'direction: doc' comment: %r"
                % line.strip())
    return frames


def extract_frames_path(repo_root: str) -> Dict[str, dict]:
    path = os.path.join(repo_root, WIRE_HEADER)
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            return extract_frames(fh.read())
    except OSError:
        return {}


def extract_paths(repo_root: str, rels) -> Dict[str, Dict[str, List[dict]]]:
    out: Dict[str, Dict[str, List[dict]]] = {}
    for rel in rels:
        path = os.path.join(repo_root, rel)
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as fh:
                extract_text(fh.read(), out, rel)
        except OSError:
            pass
    return out


# -- comparison -------------------------------------------------------------


def _field_desc(f: dict) -> str:
    if "submessage" in f:
        return "%s:<%s>" % (f["name"], f["submessage"])
    return "%s:%d" % (f["name"], f.get("bits", 0))


def compare(extracted: Dict[str, Dict[str, List[dict]]]) \
        -> List[Tuple[str, str]]:
    """Returns (message, divergence description) pairs; empty when every
    encode/decode pair is field-for-field symmetric."""
    problems: List[Tuple[str, str]] = []
    for msg in sorted(extracted):
        if msg in ENVELOPE_MESSAGES:
            continue
        sides = extracted[msg]
        enc, dec = sides.get("encode"), sides.get("decode")
        if enc is None or dec is None:
            missing = "encoder" if enc is None else "decoder"
            problems.append((msg, "message has no %s" % missing))
            continue
        for i in range(max(len(enc), len(dec))):
            if i >= len(enc):
                problems.append((msg, "decoder reads field %s the encoder "
                                 "never writes" % _field_desc(dec[i])))
                break
            if i >= len(dec):
                problems.append((msg, "encoder writes field %s the decoder "
                                 "never reads" % _field_desc(enc[i])))
                break
            e, d = enc[i], dec[i]
            e_sub, d_sub = "submessage" in e, "submessage" in d
            if e["name"] != d["name"]:
                problems.append(
                    (msg, "field order/name diverges at position %d: "
                     "encoder %s vs decoder %s"
                     % (i, _field_desc(e), _field_desc(d))))
                break
            if e_sub != d_sub:
                problems.append(
                    (msg, "field %r is a submessage on one side only"
                     % e["name"]))
                break
            if not e_sub and e.get("bits") != d.get("bits"):
                problems.append(
                    (msg, "width mismatch on field %r: encoder writes %d "
                     "bits, decoder reads %d"
                     % (e["name"], e.get("bits", 0), d.get("bits", 0))))
                break
    return problems


def build_schema(extracted: Dict[str, Dict[str, List[dict]]],
                 frames: Optional[Dict[str, dict]] = None) -> dict:
    """Canonical schema from the encoder sequences (the writer defines the
    wire; compare() guarantees the reader agrees). ``frames`` adds the
    FrameType table (value/direction/doc) the handler-coverage rule keys
    off."""
    messages = {}
    for msg in sorted(extracted):
        if msg in ENVELOPE_MESSAGES:
            continue
        enc = extracted[msg].get("encode")
        dec = extracted[msg].get("decode") or []
        if enc is None:
            continue
        fields = []
        for i, f in enumerate(enc):
            out = dict(f)
            # The decoder names submessage types; graft them onto the
            # encoder's wildcard so the schema is concrete.
            if out.get("submessage") == "*" and i < len(dec) \
                    and "submessage" in dec[i]:
                out["submessage"] = dec[i]["submessage"]
            fields.append(out)
        messages[msg] = {"fields": fields}
    schema = {"version": SCHEMA_VERSION, "messages": messages}
    if frames:
        schema["frames"] = frames
    return schema


# -- docs -------------------------------------------------------------------


def render_docs(schema: dict) -> str:
    lines = [DOCS_BEGIN, ""]
    lines.append("Field tables below are extracted from the codec code by "
                 "`tools/analyze/codec_schema.py`; `--check` fails CI when "
                 "code and table disagree. Regenerate with `--write`.")
    frames = schema.get("frames")
    if frames:
        lines.append("")
        lines.append("#### Frame types")
        lines.append("")
        lines.append("| value | type | direction | carries |")
        lines.append("|-------|------|-----------|---------|")
        for name in sorted(frames, key=lambda n: frames[n]["value"]):
            f = frames[name]
            lines.append("| %d | `%s` | %s | %s |"
                         % (f["value"], name, f["direction"], f["doc"]))
    for msg in sorted(schema["messages"]):
        lines.append("")
        lines.append("#### %s" % msg)
        lines.append("")
        lines.append("| # | field | width |")
        lines.append("|---|-------|-------|")
        for i, f in enumerate(schema["messages"][msg]["fields"]):
            if "submessage" in f:
                width = "`%s` fields" % f["submessage"]
            else:
                width = "%d bits" % f.get("bits", 0)
            lines.append("| %d | `%s` | %s |" % (i, f["name"], width))
    lines.extend(["", DOCS_END])
    return "\n".join(lines)


def _splice_docs(text: str, rendered: str) -> Optional[str]:
    begin = text.find(DOCS_BEGIN)
    end = text.find(DOCS_END)
    if begin < 0 or end < 0:
        return None
    return text[:begin] + rendered + text[end + len(DOCS_END):]


# -- CLI --------------------------------------------------------------------


def _repo_default() -> str:
    return os.path.realpath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="wire-schema extraction / drift gate")
    ap.add_argument("--repo", default=_repo_default())
    ap.add_argument("--check", action="store_true",
                    help="verify symmetry and that the checked-in schema "
                    "and docs tables match the code (exit 1 on drift)")
    ap.add_argument("--write", action="store_true",
                    help="rewrite docs/wire_schema.json and the generated "
                    "docs/protocols.md section")
    ap.add_argument("--json", action="store_true",
                    help="print the extracted schema")
    args = ap.parse_args(argv)

    extracted = extract_paths(args.repo, WIRE_SOURCES)
    problems = compare(extracted)
    for msg, why in problems:
        print("codec-symmetry: %s: %s" % (msg, why), file=sys.stderr)
    schema = build_schema(extracted, extract_frames_path(args.repo))

    if args.json:
        json.dump(schema, sys.stdout, indent=2, sort_keys=True)
        print()

    schema_path = os.path.join(args.repo, SCHEMA_PATH)
    docs_path = os.path.join(args.repo, DOCS_PATH)
    rendered = render_docs(schema)

    if args.write:
        with open(schema_path, "w", encoding="utf-8") as fh:
            json.dump(schema, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(docs_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        spliced = _splice_docs(text, rendered)
        if spliced is None:
            print("codec-schema: %s lacks the wire-schema markers"
                  % DOCS_PATH, file=sys.stderr)
            return 2
        with open(docs_path, "w", encoding="utf-8") as fh:
            fh.write(spliced)
        print("codec-schema: wrote %s and %s" % (SCHEMA_PATH, DOCS_PATH))

    if args.check:
        drift = bool(problems)
        try:
            with open(schema_path, "r", encoding="utf-8") as fh:
                on_disk = json.load(fh)
        except (OSError, ValueError):
            on_disk = None
        if on_disk != schema:
            print("codec-schema: %s is stale; run --write" % SCHEMA_PATH,
                  file=sys.stderr)
            drift = True
        try:
            with open(docs_path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            text = ""
        begin = text.find(DOCS_BEGIN)
        end = text.find(DOCS_END)
        current = text[begin:end + len(DOCS_END)] if begin >= 0 and end >= 0 \
            else None
        if current != rendered:
            print("codec-schema: generated section of %s is stale; "
                  "run --write" % DOCS_PATH, file=sys.stderr)
            drift = True
        if drift:
            return 1
        print("codec-schema: %d message(s) symmetric, schema and docs "
              "up to date" % len(schema["messages"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
