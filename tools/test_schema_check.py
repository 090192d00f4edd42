#!/usr/bin/env python3
"""Unit tests of tools/schema_check.py: each keyword it implements and
its command line.

Run from the repository root:

    python3 tools/test_schema_check.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import schema_check  # noqa: E402


def errors_of(value, schema):
    errors = []
    schema_check.validate(value, schema, "$", errors)
    return errors


class Keywords(unittest.TestCase):
    def test_type(self):
        for value, expected in [({}, "object"), ([], "array"),
                                ("s", "string"), (True, "boolean"),
                                (3, "integer"), (3, "number"),
                                (2.5, "number")]:
            self.assertEqual(errors_of(value, {"type": expected}), [],
                             f"{value!r} as {expected}")
        # Booleans are neither integers nor numbers; floats are not
        # integers.
        for value, expected in [(True, "integer"), (False, "number"),
                                (2.5, "integer"), ("1", "number"),
                                ([], "object")]:
            self.assertEqual(len(errors_of(value, {"type": expected})),
                             1, f"{value!r} as {expected}")

    def test_enum(self):
        schema = {"enum": ["keep", "scrub"]}
        self.assertEqual(errors_of("keep", schema), [])
        self.assertIn("not in", errors_of("drop", schema)[0])

    def test_any_of(self):
        schema = {"anyOf": [{"type": "integer"}, {"enum": ["+inf"]}]}
        self.assertEqual(errors_of(7, schema), [])
        self.assertEqual(errors_of("+inf", schema), [])
        self.assertIn("no anyOf branch", errors_of("inf", schema)[0])

    def test_required(self):
        schema = {"type": "object", "required": ["a", "b"]}
        self.assertEqual(errors_of({"a": 1, "b": 2}, schema), [])
        errors = errors_of({"a": 1}, schema)
        self.assertEqual(len(errors), 1)
        self.assertIn("'b'", errors[0])

    def test_properties(self):
        schema = {"type": "object",
                  "properties": {"n": {"type": "integer"}}}
        self.assertEqual(errors_of({"n": 1, "extra": "x"}, schema), [])
        self.assertEqual(errors_of({}, schema), [])
        errors = errors_of({"n": "one"}, schema)
        self.assertEqual(len(errors), 1)
        self.assertTrue(errors[0].startswith("$.n:"))

    def test_items(self):
        schema = {"type": "array", "items": {"type": "integer"}}
        self.assertEqual(errors_of([1, 2, 3], schema), [])
        errors = errors_of([1, "2", 3.5], schema)
        self.assertEqual([e.split(":")[0] for e in errors],
                         ["$[1]", "$[2]"])

    def test_minimum(self):
        schema = {"type": "number", "minimum": 1}
        self.assertEqual(errors_of(1, schema), [])
        self.assertEqual(errors_of(1.5, schema), [])
        self.assertIn("below minimum", errors_of(0.5, schema)[0])

    def test_min_length(self):
        schema = {"type": "string", "minLength": 2}
        self.assertEqual(errors_of("ab", schema), [])
        self.assertIn("minLength", errors_of("a", schema)[0])

    def test_pattern(self):
        schema = {"type": "string", "pattern": "^[a-z]+\\.[a-z_]+$"}
        self.assertEqual(errors_of("sim.cpu_retired", schema), [])
        self.assertIn("does not match", errors_of("Sim.cpu", schema)[0])

    def test_nested_paths(self):
        schema = {"type": "object", "properties": {"runs": {
            "type": "array", "items": {
                "type": "object", "required": ["jobs"],
                "properties": {"jobs": {"type": "integer",
                                        "minimum": 1}}}}}}
        errors = errors_of({"runs": [{"jobs": 1}, {"jobs": 0}, {}]},
                           schema)
        self.assertEqual(len(errors), 2)
        self.assertTrue(errors[0].startswith("$.runs[1].jobs:"))
        self.assertTrue(errors[1].startswith("$.runs[2]:"))


SCHEMA = {"type": "object", "required": ["bench"],
          "properties": {"bench": {"enum": ["bench_x"]}}}


class CommandLine(unittest.TestCase):
    def run_main(self, *args):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = schema_check.main(["schema_check.py", *args])
        return rc, err.getvalue()

    def write(self, d, name, text):
        path = os.path.join(d, name)
        with open(path, "w") as f:
            f.write(text)
        return path

    def test_valid_report_exits_zero(self):
        with tempfile.TemporaryDirectory() as d:
            schema = self.write(d, "s.json", json.dumps(SCHEMA))
            report = self.write(d, "r.json", '{"bench": "bench_x"}')
            self.assertEqual(self.run_main(report, schema), (0, ""))

    def test_invalid_report_exits_one(self):
        with tempfile.TemporaryDirectory() as d:
            schema = self.write(d, "s.json", json.dumps(SCHEMA))
            report = self.write(d, "r.json", '{"bench": "bench_y"}')
            rc, err = self.run_main(report, schema)
            self.assertEqual(rc, 1)
            self.assertIn("$.bench", err)
            not_json = self.write(d, "n.json", '{"bench": ')
            self.assertEqual(self.run_main(not_json, schema)[0], 1)

    def test_usage_and_unreadable_files_exit_two(self):
        self.assertEqual(self.run_main()[0], 2)
        self.assertEqual(self.run_main("only_report.json")[0], 2)
        self.assertEqual(self.run_main("a", "b", "c")[0], 2)
        with tempfile.TemporaryDirectory() as d:
            schema = self.write(d, "s.json", json.dumps(SCHEMA))
            missing = os.path.join(d, "missing.json")
            self.assertEqual(self.run_main(missing, schema)[0], 2)


if __name__ == "__main__":
    unittest.main()
