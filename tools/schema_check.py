#!/usr/bin/env python3
"""Check a bench report against its JSON schema (stdlib only).

Usage: schema_check.py REPORT SCHEMA

Implements the subset of JSON Schema draft-07 the checked-in schemas
use (type, enum, anyOf, required, properties, items, minimum,
minLength, pattern), so CI needs no third-party jsonschema package.
Only the report's shape is checked here: every check on its values
is made by the binary that writes it, in its exit code.

Exit status: 0 valid, 1 invalid (or not JSON), 2 usage or an
unreadable file.
"""

import json
import re
import sys


def type_ok(value, expected):
    if expected == "object":
        return isinstance(value, dict)
    if expected == "array":
        return isinstance(value, list)
    if expected == "string":
        return isinstance(value, str)
    if expected == "boolean":
        return isinstance(value, bool)
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if expected == "number":
        return (isinstance(value, (int, float))
                and not isinstance(value, bool))
    raise ValueError(f"unsupported schema type {expected!r}")


def validate(value, schema, path, errors):
    if "anyOf" in schema:
        for sub in schema["anyOf"]:
            probe = []
            validate(value, sub, path, probe)
            if not probe:
                break
        else:
            errors.append(f"{path}: matches no anyOf branch")
        return

    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")
        return

    expected = schema.get("type")
    if expected and not type_ok(value, expected):
        errors.append(f"{path}: expected {expected}, "
                      f"got {type(value).__name__}")
        return

    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                validate(value[key], sub, f"{path}.{key}", errors)
    elif isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            validate(item, schema["items"], f"{path}[{i}]", errors)
    elif isinstance(value, str):
        if len(value) < schema.get("minLength", 0):
            errors.append(f"{path}: shorter than minLength")
        pattern = schema.get("pattern")
        if pattern and not re.search(pattern, value):
            errors.append(f"{path}: {value!r} does not match "
                          f"{pattern!r}")
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and "minimum" in schema and value < schema["minimum"]):
        errors.append(f"{path}: {value} below minimum "
                      f"{schema['minimum']}")


def main(argv):
    if len(argv) != 3:
        print("Usage: schema_check.py REPORT SCHEMA", file=sys.stderr)
        return 2
    report_path, schema_path = argv[1], argv[2]
    try:
        with open(schema_path) as f:
            schema = json.load(f)
        with open(report_path) as f:
            report = json.load(f)
    except OSError as err:
        print(f"schema_check.py: {err}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as err:
        print(f"FAIL {report_path}: not JSON: {err}", file=sys.stderr)
        return 1

    errors = []
    validate(report, schema, "$", errors)
    for err in errors:
        print(f"FAIL {report_path}: {err}", file=sys.stderr)
    if errors:
        return 1
    print(f"OK {report_path}: valid against {schema_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
