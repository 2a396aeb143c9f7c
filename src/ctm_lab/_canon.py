"""Canonical text rendering shared by table and report files.

Every persisted artifact sorts records the same way (count descending,
string length ascending, then lexicographic) and renders floats with 17
significant digits, so identical data always serializes to identical bytes
and float round-trips are exact.
"""

import json

from .errors import ParseError


def fmt_float(x) -> str:
    return format(float(x), ".17g")


def fmt_value(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return fmt_float(x)
    return str(x)


def canonical_key(record):
    """Sort key for (string, count, ...) records."""
    string, count = record[0], record[1]
    return (-count, len(string), string)


def meta_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def read_header(lines, magic: str, columns: str, kind: str) -> dict:
    """Check the three header lines of a table file and return its meta object."""
    if not lines or lines[0] != magic:
        raise ParseError(f"not a {kind} file", line=1)
    if len(lines) < 3 or not lines[1].startswith("# meta "):
        raise ParseError("missing meta header", line=2)
    try:
        meta = json.loads(lines[1][len("# meta "):])
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad meta header: {exc}", line=2) from exc
    if not isinstance(meta, dict):
        raise ParseError("meta header is not a JSON object", line=2)
    if lines[2] != columns:
        raise ParseError("unexpected column header", line=3)
    return meta
