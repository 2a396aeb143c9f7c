"""Canonical text rendering shared by table and report files.

Every persisted artifact sorts records the same way (count descending,
string length ascending, then lexicographic) and renders floats with 17
significant digits, so identical data always serializes to identical bytes
and float round-trips are exact. Table readers accept only that rendering,
so a file that loads re-serializes to the same bytes.
"""

import json
import re

from .errors import CtmLabError, ParseError, ValidationError

_BINARY = re.compile("[01]+")


def fmt_float(x) -> str:
    return format(float(x), ".17g")


def is_binary(s: str) -> bool:
    """True for a nonempty string of 0s and 1s; one regex pass, fast on long strings."""
    return _BINARY.fullmatch(s) is not None


def require_binary(s: str) -> None:
    """ValidationError naming the first symbol of nonempty s that is not 0 or 1."""
    if not is_binary(s):
        pos = next(i for i, c in enumerate(s) if c not in "01")
        raise ValidationError(f"not a binary string: {s[pos]!r} at position {pos}")


def read_file(path, parse):
    """parse(the bytes of the file at path); a CtmLabError it raises names the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse(data)
    except CtmLabError as exc:
        exc.path = path
        raise


def decode_utf8(data: bytes) -> str:
    """Decode file contents; ParseError, not UnicodeDecodeError, when they are not UTF-8."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text (byte {exc.start}: {exc.reason})") from exc


def canonical_int(text: str) -> int:
    """Parse an integer field written as str(int) writes it; ValueError otherwise."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"non-canonical integer {text!r}")
    return value


def canonical_float(text: str) -> float:
    """Parse a float field written as fmt_float writes it; ValueError otherwise."""
    value = float(text)
    if fmt_float(value) != text:
        raise ValueError(f"non-canonical number {text!r}")
    return value


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


def read_header(lines, magic: str, columns: str, kind: str, interpret):
    """Check the three header lines of a table file and return interpret(meta).

    interpret turns the meta object into what the loader needs and raises
    ValidationError on anything else, which becomes a ParseError on line 2.
    """
    if not lines or lines[0] != magic:
        raise ParseError(f"not a {kind} file", line=1)
    if len(lines) < 3 or not lines[1].startswith("# meta "):
        raise ParseError("missing meta header", line=2)
    try:
        meta = json.loads(lines[1][len("# meta "):])
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"bad meta header: {exc}", line=2) from exc
    if not isinstance(meta, dict):
        raise ParseError("meta header is not a JSON object", line=2)
    if lines[2] != columns:
        raise ParseError("unexpected column header", line=3)
    try:
        return interpret(meta)
    except ValidationError as exc:
        raise ParseError(f"bad meta header: {exc}", line=2) from exc


def read_records(lines, parsers):
    """Yield (line number, string, values) for the rows after the three header lines.

    parsers parse the fields after the string, the first of them the count.
    Strings must be nonempty, binary and distinct, and rows must come in
    canonical_key order.
    """
    seen = set()
    previous = None
    for lineno, line in enumerate(lines[3:], start=4):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(parsers) + 1:
            raise ParseError(f"expected {len(parsers) + 1} fields", line=lineno)
        s = parts[0]
        if not is_binary(s):
            raise ParseError(f"not a binary string: {s!r}", line=lineno)
        if s in seen:
            raise ParseError(f"duplicate string {s!r}", line=lineno)
        seen.add(s)
        try:
            values = [parse(text) for parse, text in zip(parsers, parts[1:])]
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        key = canonical_key((s, values[0]))
        if previous is not None and key < previous:
            raise ParseError("rows are not in canonical order", line=lineno)
        previous = key
        yield lineno, s, values
