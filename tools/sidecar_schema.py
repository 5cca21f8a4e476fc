"""Schema helpers shared by the sidecar tools in this directory.

Each tool checks one frozen JSON format (BENCH.json, *.timeline.json,
*.topo.json, *.energymap.json) against field tables of the form
{"name": type}; this module holds the type test, the field-table check,
the loaders and the machine-readable verdict writer they have in common.
It is imported, not run.
"""

import json
import sys


def is_number(value, want):
    """True when `value` has JSON type `want` (int, float, bool, str, ...).

    ints are acceptable where floats are expected (JSON has one number
    type); bool is a subclass of int in Python and is only ever a bool.
    """
    if isinstance(value, bool):
        return want is bool
    if want is float:
        return isinstance(value, (int, float))
    return isinstance(value, want)


def check_fields(obj, fields, where, errors):
    """Appends to `errors` every missing, mistyped or unknown field."""
    for key, want in fields.items():
        if key not in obj:
            errors.append(f"{where}: missing field '{key}'")
        elif not is_number(obj[key], want):
            errors.append(f"{where}: field '{key}' is "
                          f"{type(obj[key]).__name__}, wanted {want.__name__}")
    for key in obj:
        if key not in fields:
            errors.append(f"{where}: unknown field '{key}'")


def read_json(path):
    """Returns (doc, None), or (None, "cannot read PATH: why")."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f), None
    except (OSError, json.JSONDecodeError) as e:
        return None, f"cannot read {path}: {e}"


def load_checked(path, validate):
    """Returns (doc_or_None, error_strings); never exits.

    An unreadable file is one error; otherwise the errors are
    validate(doc)'s.
    """
    doc, error = read_json(path)
    if error:
        return None, [error]
    return doc, validate(doc)


def load_or_exit(path, validate):
    """Returns the valid document, or prints its errors and exits 2."""
    doc, errors = load_checked(path, validate)
    if errors:
        for e in errors:
            print(f"schema error: {e}", file=sys.stderr)
        sys.exit(2)
    return doc


def write_json_verdict(dest, payload):
    """Writes `payload` as indented JSON to `dest` ("-" for stdout)."""
    text = json.dumps(payload, indent=2) + "\n"
    if dest == "-":
        sys.stdout.write(text)
    else:
        with open(dest, "w", encoding="utf-8") as f:
            f.write(text)
