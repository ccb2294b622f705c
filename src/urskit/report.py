"""Report serialization: the JSON wire format, written byte-stably in one
pass, and plain-text tables for the console.

This module owns the wire format; the report classes are plain dataclasses
and know nothing of it.  `stable_json` writes a report value straight to
text, with no intermediate dict tree, and encodes each value by its exact
type: None, booleans, integers and strings as they are, rationals as 'a/b',
magnitudes as the exact integer plus a display-only log, tuples and lists
as lists, dicts by their values, and dataclasses by their fields.  A
dataclass adds the attributes named in its `derived_keys` class variable as
further keys.  Every key is a str, as in every urskit report (an instance of
a subclass is written as its text); any other key raises TypeError.  Keys are sorted, items indented by two spaces, and
strings escaped as JSON does with non-ASCII characters kept.

`render_table` writes a console table from a column spec, one (header,
getter) pair per column, and the items that make its rows.  Each cell goes
through one formatter, `_cell`, also by exact type: rationals as 'a/b',
None (an undetermined value) as '-', a magnitude as its exact integer, and
anything else through str.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring

from .arith import UrskitError, rational_str
from .heights import DEFAULT_DISPLAY_DIGITS, Magnitude, ScaledLog, _check_digits


class SchemaError(UrskitError):
    """An input file or flag violated its schema; names the offending field."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


# The most plans kept at once: a report holds a few dozen key sets, and the
# bound keeps memory finite for a caller that writes dicts with many.
_PLAN_CACHE_SIZE = 4096


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(keys, nl: str) -> tuple:
    """The plan that writes a mapping at indent `nl`: ((separator + indent +
    '"key": ', key) in key order, closing text).  `keys` is the tuple of a
    dict's keys, or a dataclass type, whose keys are its fields and then its
    `derived_keys`.  Plans are kept across calls, as they depend on neither
    the values nor `digits`."""
    if type(keys) is not tuple:
        if not is_dataclass(keys):
            raise TypeError(f"no JSON encoding for {keys.__name__}")
        keys = tuple(f.name for f in fields(keys)) + getattr(keys, "derived_keys", ())
    # _key rejects a non-string key here, before the sort can
    quoted = {key: _key(key) for key in keys}
    inner = nl + "  "
    entries = tuple(
        (("," if i else "{") + inner + quoted[key], key) for i, key in enumerate(sorted(quoted))
    )
    return entries, nl + "}" if entries else "{}"


def _key(key) -> str:
    """A dict key, quoted, with the colon that follows; a report's keys are
    all strings, so a key that is no str instance raises TypeError."""
    if not isinstance(key, str):
        raise TypeError(f"no JSON encoding for a {type(key).__name__} key")
    return encode_basestring(key) + ": "


# exact type -> text, for the values whose text needs neither indent nor
# `digits`, except Fraction, whose text the writer keeps per object
# (`Fraction` is an ABC subclass, so isinstance tests on it are slow)
_SCALARS = {
    str: encode_basestring,
    int: int.__repr__,
    type(None): lambda v: "null",
    bool: lambda v: "true" if v else "false",
}

# exact type -> table cell text, for the types str does not write as wanted
_CELLS = {
    Fraction: rational_str,
    type(None): lambda v: "-",
    Magnitude: lambda m: str(m.value),
}


def _cell(value) -> str:
    return _CELLS.get(type(value), str)(value)


def _writer(digits: int, emit):
    """write(value, nl) appends the text of `value` through `emit`; `nl` is
    a newline plus the indent of the line `value` starts on.

    `write` alone maps a value's type to its text: the list loop emits an
    item's separator, and the dict and dataclass loops a plan prefix, and
    hand the item back to `write`.  `digits` is checked once, here.  What
    stays cached pays for itself on the `trace` reports: the plans of
    `_plan`, per dataclass type or dict key tuple, without which those
    reports are written about half again as slowly; and, for the life of
    the writer, the text of each Magnitude per value and indent, and of
    each Fraction per object, keyed by id and held so that no other object
    takes its id; a row's values recur in every check."""
    _check_digits(digits)
    scalars = _SCALARS
    magnitudes: dict[tuple[int, str], str] = {}
    fractions: dict[int, tuple[Fraction, str]] = {}

    def write(value, nl: str) -> None:
        t = type(value)
        if t is Fraction:
            hit = fractions.get(id(value))
            if hit is None:
                hit = fractions[id(value)] = value, '"' + rational_str(value) + '"'
            emit(hit[1])
            return
        text = scalars.get(t)
        if text is not None:
            emit(text(value))
            return
        if t is Magnitude:
            text = magnitudes.get((value.value, nl))
            if text is None:
                inner = nl + "  "
                text = (f'{{{inner}"exact": "{value.value}",{inner}"log": '
                        f'"{math.log(value.value):.{digits}f}"{nl}}}')
                magnitudes[value.value, nl] = text
            emit(text)
            return
        if t is tuple or t is list:
            if not value:
                emit("[]")
                return
            inner = nl + "  "
            sep = "[" + inner
            for item in value:
                emit(sep)
                write(item, inner)
                sep = "," + inner
            emit(nl + "]")
            return
        if t is dict:
            entries, tail = _plan(tuple(value), nl)
            inner = nl + "  "
            for prefix, key in entries:
                emit(prefix)
                write(value[key], inner)
            emit(tail)
            return
        if t is ScaledLog:
            inner = nl + "  "
            emit("{" + inner + '"base": ')
            write(value.base, inner)
            emit(f',{inner}"coefficient": "{rational_str(value.coefficient)}",'
                 f'{inner}"log": "{value.log_display(digits)}"{nl}}}')
            return
        entries, tail = _plan(t, nl)
        inner = nl + "  "
        for prefix, name in entries:
            emit(prefix)
            write(getattr(value, name), inner)
        emit(tail)

    return write


def stable_json(value, digits: int = DEFAULT_DISPLAY_DIGITS) -> str:
    """The report text of `value`: sorted keys, two-space indent, trailing
    newline; `digits` sets the decimal places of every display-only log.

    A dataclass or dict is written from a plan of its keys at its indent,
    built on first use and kept across calls.  Within one call, the text of
    a Magnitude is made once per value and indent, and that of a Fraction
    once per object; `digits` below 1 raises ValueError, whatever `value`."""
    parts: list[str] = []
    _writer(digits, parts.append)(value, "\n")
    parts.append("\n")
    return "".join(parts)


def render_table(columns, items) -> str:
    """An aligned text table: a row per item and a column per (header,
    getter) pair in `columns`, each cell `_cell(getter(item))`; two spaces
    between columns, a dashed line under the headers, trailing spaces cut."""
    headers = [header for header, _ in columns]
    cells = [[_cell(get(item)) for _, get in columns] for item in items]
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
