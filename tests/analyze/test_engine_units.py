"""Unit tests for the libclang-free parts of tools/analyze.

Everything here runs without clang bindings installed: suppression parsing,
baseline diffing, compile-command normalisation, and call-graph
reachability over synthetic graphs. The fixture corpus (test_fixtures.py)
is where libclang itself gets exercised.
"""

import json
import os
import sys
import tempfile
import unittest

_TOOLS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "tools",
    "analyze",
)
if _TOOLS not in sys.path:
    sys.path.insert(0, _TOOLS)

import baseline  # noqa: E402
import engine  # noqa: E402
from callgraph import CallGraph, CallSite, Node  # noqa: E402


def _finding(rule="r", file="f.cpp", line=1, message="m", symbol=""):
    return engine.Finding(rule=rule, file=file, line=line, column=1,
                          message=message, symbol=symbol)


class SuppressionsTest(unittest.TestCase):
    def _load(self, text):
        s = engine.Suppressions()
        with tempfile.NamedTemporaryFile("w", suffix=".cpp", delete=False) as f:
            f.write(text)
            path = f.name
        try:
            s.load_file(path, "x.cpp")
        finally:
            os.unlink(path)
        return s

    def test_same_line_and_line_above(self):
        s = self._load(
            "int a;\n"
            "foo();  // MCI-ANALYZE-ALLOW(rule-a): because\n"
            "// MCI-ANALYZE-ALLOW(rule-b): reasons\n"
            "bar();\n"
        )
        self.assertTrue(s.is_allowed("rule-a", "x.cpp", 2))
        self.assertTrue(s.is_allowed("rule-b", "x.cpp", 3))
        self.assertTrue(s.is_allowed("rule-b", "x.cpp", 4))  # line below
        self.assertFalse(s.is_allowed("rule-a", "x.cpp", 4))
        self.assertFalse(s.is_allowed("rule-a", "x.cpp", 1))
        self.assertEqual(s.errors, [])

    def test_multi_rule_and_wildcard(self):
        s = self._load(
            "// MCI-ANALYZE-ALLOW(rule-a, rule-b): shared justification\n"
            "x();\n"
            "// MCI-ANALYZE-ALLOW(*): fixture file, everything is deliberate\n"
            "y();\n"
        )
        self.assertTrue(s.is_allowed("rule-a", "x.cpp", 2))
        self.assertTrue(s.is_allowed("rule-b", "x.cpp", 2))
        self.assertTrue(s.is_allowed("anything", "x.cpp", 4))

    def test_missing_reason_is_an_error(self):
        s = self._load("z();  // MCI-ANALYZE-ALLOW(rule-a)\n")
        self.assertFalse(s.is_allowed("rule-a", "x.cpp", 1))
        self.assertEqual(len(s.errors), 1)
        self.assertEqual(s.errors[0].rule, "suppression-syntax")

    def test_malformed_comment_is_an_error(self):
        s = self._load("w();  // MCI-ANALYZE-ALLOW rule-a: oops\n")
        self.assertEqual(len(s.errors), 1)

    def test_allow_wrapping_onto_a_comment_line_is_an_error(self):
        # The statement sits two lines below the allow, outside its window.
        s = self._load(
            "    // MCI-ANALYZE-ALLOW(rule-a): the reason starts here and\n"
            "    // wraps onto a second comment line\n"
            "    v.push_back(1);\n"
        )
        self.assertEqual(len(s.errors), 1)
        self.assertEqual(s.errors[0].rule, "suppression-syntax")
        self.assertEqual(s.errors[0].line, 1)
        self.assertFalse(s.is_allowed("rule-a", "x.cpp", 3))

    def test_allow_below_its_reasoning_or_trailing_code_is_fine(self):
        s = self._load(
            "    // Longer reasoning may sit above the allow.\n"
            "    // MCI-ANALYZE-ALLOW(rule-a): short reason\n"
            "    v.push_back(1);\n"
            "    w.push_back(2);  // MCI-ANALYZE-ALLOW(rule-b): trailing\n"
            "    // and a comment after a trailing allow is not a wrap\n"
            "///   heap_.push_back(e);  // MCI-ANALYZE-ALLOW(rule-c): doc\n"
            "///                        // example that wraps\n"
        )
        self.assertEqual(s.errors, [])
        self.assertTrue(s.is_allowed("rule-a", "x.cpp", 3))
        self.assertTrue(s.is_allowed("rule-b", "x.cpp", 4))

    def test_filter(self):
        s = self._load("// MCI-ANALYZE-ALLOW(r): ok here\nf();\n")
        kept = s.filter([
            _finding(rule="r", file="x.cpp", line=2),
            _finding(rule="r", file="x.cpp", line=9),
            _finding(rule="other", file="x.cpp", line=2),
        ])
        self.assertEqual([(f.rule, f.line) for f in kept],
                         [("r", 9), ("other", 2)])


class FindingTest(unittest.TestCase):
    def test_key_is_line_free(self):
        a = _finding(line=10, symbol="fn")
        b = _finding(line=99, symbol="fn")
        self.assertEqual(a.key(), b.key())

    def test_dedupe_collapses_header_repeats(self):
        a = _finding(file="h.hpp", line=5)
        out = engine.dedupe([a, _finding(file="h.hpp", line=5),
                             _finding(file="h.hpp", line=6)])
        self.assertEqual(len(out), 2)


class BaselineTest(unittest.TestCase):
    def test_roundtrip_and_diff(self):
        known_f = _finding(message="old bug", symbol="f")
        new_f = _finding(message="new bug", symbol="g")
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "baseline.json")
            baseline.write(path, [known_f])
            known = baseline.load(path)
        self.assertIn(known_f.key(), known)
        new, stale = baseline.diff([known_f, new_f], known)
        self.assertEqual([f.key() for f in new], [new_f.key()])
        self.assertEqual(stale, [])
        # The known finding fixed -> its key goes stale.
        new, stale = baseline.diff([new_f], known)
        self.assertEqual(stale, [known_f.key()])

    def test_missing_baseline_is_empty(self):
        self.assertEqual(baseline.load("/nonexistent/baseline.json"), {})

    def test_hot_path_alloc_entries_are_rejected_on_load(self):
        # Tick-path allocation findings must be fixed or ALLOW'd at the
        # site — a baseline entry hides them repo-wide, so load() refuses.
        hot = _finding(rule="hot-path-alloc", symbol="encodeWire",
                       message="'new' expression on an MCI_HOT path")
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "baseline.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"version": baseline.BASELINE_VERSION,
                           "findings": [{"key": hot.key(), "why": "no"}]},
                          fh)
            with self.assertRaisesRegex(ValueError, "hot-path-alloc"):
                baseline.load(path)

    def test_write_refuses_to_baseline_hot_path_alloc(self):
        hot = _finding(rule="hot-path-alloc", symbol="f",
                       message="allocation call 'malloc' on an MCI_HOT path")
        ordinary = _finding(rule="checked-return", symbol="g",
                            message="unchecked")
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "baseline.json")
            baseline.write(path, [hot, ordinary])
            known = baseline.load(path)  # must stay loadable
        self.assertIn(ordinary.key(), known)
        self.assertNotIn(hot.key(), known)


class NormalizeCommandTest(unittest.TestCase):
    def test_strips_output_and_input(self):
        args = engine.normalize_command({
            "file": "/r/src/a.cpp",
            "command": "g++ -Ifoo -O2 -c -o a.o -MD -MF a.d /r/src/a.cpp",
        })
        self.assertNotIn("-c", args)
        self.assertNotIn("-o", args)
        self.assertNotIn("a.o", args)
        self.assertNotIn("-MF", args)
        self.assertNotIn("a.d", args)
        self.assertNotIn("/r/src/a.cpp", args)
        self.assertIn("-Ifoo", args)
        self.assertIn("-O2", args)


class CallGraphTest(unittest.TestCase):
    def _graph(self, edges):
        g = CallGraph()
        for src, dst in edges:
            g.ensure(src, src)
            g.ensure(dst, dst)
            g.nodes[src].calls.append(
                CallSite(callee_usr=dst, callee_name=dst, file="f.cpp",
                         line=1, column=1))
        return g

    def test_reachability_and_chain(self):
        g = self._graph([("a", "b"), ("b", "c"), ("x", "y")])
        r = g.reachable(["a"], budget=100, max_depth=10)
        self.assertEqual(r.reached, {"a", "b", "c"})
        self.assertFalse(r.truncated)
        self.assertEqual(g.chain(r, "c"), "c <- b <- a")

    def test_budget_truncation(self):
        g = self._graph([("a", "b"), ("a", "c"), ("a", "d")])
        r = g.reachable(["a"], budget=2, max_depth=10)
        self.assertTrue(r.truncated)
        self.assertLessEqual(len(r.reached), 2)

    def test_depth_truncation(self):
        g = self._graph([("a", "b"), ("b", "c")])
        r = g.reachable(["a"], budget=100, max_depth=1)
        self.assertTrue(r.truncated)
        self.assertNotIn("c", r.reached)

    def test_unresolved_edges_terminate(self):
        g = CallGraph()
        g.ensure("a", "a")
        g.nodes["a"].calls.append(
            CallSite(callee_usr="", callee_name="recv", file="f.cpp",
                     line=1, column=1))
        r = g.reachable(["a"], budget=10, max_depth=10)
        self.assertEqual(r.reached, {"a"})

    def test_unknown_root_ignored(self):
        g = self._graph([("a", "b")])
        r = g.reachable(["nope"], budget=10, max_depth=10)
        self.assertEqual(r.reached, set())


if __name__ == "__main__":
    unittest.main()
