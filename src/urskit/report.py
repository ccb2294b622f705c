"""Report serialization: the JSON wire format, written byte-stably in one
pass, and a plain-text table for the console.

This module owns the wire format; the report classes are plain dataclasses
and know nothing of it.  `stable_json` writes a report value straight to
text, with no intermediate dict tree, and encodes each value by its exact
type: None, booleans, integers and strings as they are, rationals as 'a/b',
magnitudes as the exact integer plus a display-only log, tuples and lists
as lists, dicts by their values, and dataclasses by their fields.  A
dataclass adds the attributes named in its `derived_keys` class variable as
further keys, and a field whose metadata sets "merge" has its dict merged
into the object instead of nesting under its name.  Keys are sorted, items
indented by two spaces, and strings escaped as JSON does with non-ASCII
characters kept.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from fractions import Fraction
from json.encoder import encode_basestring

from .arith import UrskitError, rational_str
from .heights import DEFAULT_DISPLAY_DIGITS, Magnitude, ScaledLog


class SchemaError(UrskitError):
    """An input file or flag violated its schema; names the offending field."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


# dataclass type -> (sorted ('"key": ', key) pairs, None): its fields and
# derived keys; or, for a class with a merge field, (None, its (key, merge)
# layout), which is gathered into a dict and written as one
_PLANS: dict[type, tuple] = {}


def _plan(cls: type) -> tuple:
    if not is_dataclass(cls):
        raise TypeError(f"no JSON encoding for {cls.__name__}")
    layout = [(f.name, f.metadata.get("merge", False)) for f in fields(cls)]
    layout += [(name, False) for name in getattr(cls, "derived_keys", ())]
    if any(merge for _, merge in layout):
        plan = (None, tuple(layout))
    else:
        keys = sorted(key for key, _ in layout)
        plan = (tuple((encode_basestring(k) + ": ", k) for k in keys), None)
    _PLANS[cls] = plan
    return plan


def _key(key) -> str:
    """A dict key as JSON writes it, quoted, with the colon that follows."""
    if type(key) is str:
        return encode_basestring(key) + ": "
    if key is None:
        return '"null": '
    if type(key) is bool:
        return '"true": ' if key else '"false": '
    if type(key) is int:
        return '"' + int.__repr__(key) + '": '
    raise TypeError(f"no JSON encoding for a {type(key).__name__} key")


def _write(value, digits: int, nl: str, emit) -> None:
    """Append the text of `value` through `emit`; `nl` is a newline plus
    the indent of the line `value` starts on.  Dispatch is on the exact type
    (`Fraction` is an ABC subclass, so isinstance tests on it are slow)."""
    t = type(value)
    if t is str:
        emit(encode_basestring(value))
    elif t is int:
        emit(int.__repr__(value))
    elif t is Fraction:
        emit('"' + rational_str(value) + '"')
    elif value is None:
        emit("null")
    elif t is bool:
        emit("true" if value else "false")
    elif t is tuple or t is list:
        if not value:
            emit("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in value:
            emit(sep)
            _write(item, digits, inner, emit)
            sep = "," + inner
        emit(nl + "]")
    elif t is dict:
        if not value:
            emit("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(value):
            emit(sep + _key(key))
            _write(value[key], digits, inner, emit)
            sep = "," + inner
        emit(nl + "}")
    elif t is Magnitude:
        inner = nl + "  "
        emit(f'{{{inner}"exact": "{value.value}",{inner}"log": '
             f'"{value.log_display(digits)}"{nl}}}')
    elif t is ScaledLog:
        inner = nl + "  "
        emit("{" + inner + '"base": ')
        _write(value.base, digits, inner, emit)
        emit(f',{inner}"coefficient": "{rational_str(value.coefficient)}",'
             f'{inner}"log": "{value.log_display(digits)}"{nl}}}')
    else:
        keys, layout = _PLANS.get(t) or _plan(t)
        if keys is None:
            merged = {}
            for key, merge in layout:
                if merge:
                    merged.update(getattr(value, key))
                else:
                    merged[key] = getattr(value, key)
            _write(merged, digits, nl, emit)
            return
        if not keys:
            emit("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for prefix, key in keys:
            emit(sep + prefix)
            _write(getattr(value, key), digits, inner, emit)
            sep = "," + inner
        emit(nl + "}")


def stable_json(value, digits: int = DEFAULT_DISPLAY_DIGITS) -> str:
    """The report text of `value`: sorted keys, two-space indent, trailing
    newline; `digits` sets the decimal places of every display-only log."""
    parts: list[str] = []
    _write(value, digits, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def render_table(headers: list[str], rows: list[list[str]]) -> str:
    """Minimal aligned text table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)
