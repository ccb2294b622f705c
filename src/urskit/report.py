"""Report serialization: the JSON wire format, byte-stable JSON rendering,
and a plain-text table for the console.

This module owns the wire format; the report classes are plain dataclasses
and know nothing of it.  `to_json` encodes a report value by its exact type:
None, booleans, integers and strings as they are, rationals as 'a/b',
magnitudes as the exact integer plus a display-only log, tuples and lists as
lists, dicts by their values, and dataclasses by their fields.  A dataclass
adds the attributes named in its `derived_keys` class variable as further
keys, and a field whose metadata sets "merge" has its dict merged into the
object instead of nesting under its name.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from fractions import Fraction

from .arith import UrskitError, rational_str
from .heights import DEFAULT_DISPLAY_DIGITS, Magnitude, ScaledLog


class SchemaError(UrskitError):
    """An input file or flag violated its schema; names the offending field."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


# dataclass type -> ((key, merge), ...): its fields, then its derived keys
_LAYOUTS: dict[type, tuple[tuple[str, bool], ...]] = {}


def _layout(cls: type) -> tuple[tuple[str, bool], ...]:
    if not is_dataclass(cls):
        raise TypeError(f"no JSON encoding for {cls.__name__}")
    keys = [(f.name, f.metadata.get("merge", False)) for f in fields(cls)]
    keys += [(name, False) for name in getattr(cls, "derived_keys", ())]
    _LAYOUTS[cls] = layout = tuple(keys)
    return layout


def to_json(value, digits: int = DEFAULT_DISPLAY_DIGITS):
    """The JSON-ready form of a report value; `digits` sets the decimal
    places of every display-only log.  Dispatch is on the exact type
    (`Fraction` is an ABC subclass, so isinstance tests on it are slow)."""
    t = type(value)
    if t is str or t is int or t is bool or value is None:
        return value
    if t is Fraction:
        return rational_str(value)
    if t is Magnitude:
        return {"exact": str(value.value), "log": value.log_display(digits)}
    if t is tuple or t is list:
        return [to_json(v, digits) for v in value]
    if t is dict:
        return {k: to_json(v, digits) for k, v in value.items()}
    if t is ScaledLog:
        return {
            "coefficient": rational_str(value.coefficient),
            "base": to_json(value.base, digits),
            "log": value.log_display(digits),
        }
    out = {}
    for key, merge in _LAYOUTS.get(t) or _layout(t):
        encoded = to_json(getattr(value, key), digits)
        if merge:
            out.update(encoded)
        else:
            out[key] = encoded
    return out


def stable_json(obj) -> str:
    """Deterministic rendering: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


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
