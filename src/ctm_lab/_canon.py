"""Canonical text rendering shared by table and report files.

Every persisted artifact sorts records the same way (count descending,
string length ascending, then lexicographic) and renders floats with 17
significant digits, so identical data always serializes to identical bytes
and float round-trips are exact. The ctm loader enforces that form by
writing each table it reads back and comparing the bytes (see
ctm.loads_ctm_table), so a file that loads re-serializes to the same bytes;
this module keeps only the rendering and the reading of files.
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
