"""Report serialization: the JSON wire format, written byte-stably in one
pass, and plain-text tables for the console.

This module owns the wire format; the report classes are plain dataclasses
and know nothing of it.  `stable_json` writes a report value straight to
text, with no intermediate dict tree, and encodes each value by its exact
type: None, booleans, integers and strings as they are, rationals as 'a/b',
magnitudes as the exact integer plus a display-only log, tuples and lists
as lists, dicts by their values, and dataclasses by their fields.  A
dataclass adds the attributes named in its `derived_keys` class variable as
further keys, and at most one field whose metadata sets "merge" has its dict
merged into the object instead of nesting under its name.  Every key is a
string, as in every urskit report; any other key raises TypeError.  Keys are
sorted, items indented by two spaces, and strings escaped as JSON does with
non-ASCII characters kept.

`render_table` writes a console table from a column spec, one (header,
getter) pair per column, and the items that make its rows.  Each cell goes
through one formatter, `_cell`, also by exact type: rationals as 'a/b',
None (an undetermined value) as '-', a magnitude as its exact integer, and
anything else through str.
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


# A plan writes one dataclass at one indent: ((separator + indent + '"key": ',
# field name, dict key) in key order, closing text).  The dict key is _FIELD
# where the value is the field itself, else its key in the merge field's dict.
_FIELD = object()

# (dataclass type, indent) -> plan, built on first use and kept across calls,
# as it depends on neither the value nor `digits`; for a class with a merge
# field, whose plan depends on the merged keys, (that field's name, layout).
_PLANS: dict[tuple, tuple] = {}


def _static_plan(cls: type, nl: str) -> tuple:
    if not is_dataclass(cls):
        raise TypeError(f"no JSON encoding for {cls.__name__}")
    layout = [(f.name, f.metadata.get("merge", False)) for f in fields(cls)]
    layout += [(name, False) for name in getattr(cls, "derived_keys", ())]
    merges = [name for name, merge in layout if merge]
    if len(merges) > 1:
        raise TypeError(f"no JSON encoding for {cls.__name__}: more than one merge field")
    plan = (merges[0], tuple(layout)) if merges else _plan(layout, nl)
    _PLANS[cls, nl] = plan
    return plan


def _plan(layout, nl: str, merged=()) -> tuple:
    """The plan for a dataclass with this (field name, merge) layout whose
    merge field holds the keys `merged`; where a merged key is also a field
    name the later in the layout wins, as in dict.update."""
    source = {}
    for name, merge in layout:
        for key in merged if merge else (name,):
            # _key rejects a non-string key here, before the sort can
            source[key] = (_key(key), name, key if merge else _FIELD)
    inner = nl + "  "
    entries = tuple(
        (("," if i else "{") + inner + prefix, name, key)
        for i, (prefix, name, key) in enumerate(map(source.get, sorted(source)))
    )
    return entries, nl + "}" if entries else "{}"


def _key(key) -> str:
    """A dict key, quoted, with the colon that follows; a report's keys are
    all strings, so any other type raises TypeError."""
    if type(key) is not str:
        raise TypeError(f"no JSON encoding for a {type(key).__name__} key")
    return encode_basestring(key) + ": "


# exact type -> text, for the values whose text needs neither indent nor
# `digits` (`Fraction` is an ABC subclass, so isinstance tests on it are slow)
_SCALARS = {
    str: encode_basestring,
    int: int.__repr__,
    Fraction: lambda v: '"' + rational_str(v) + '"',
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

    `write` alone maps a value's type to its text: the list, dict and
    dataclass loops emit an item's separator, key or plan prefix and hand the
    item back to `write`.  What stays cached pays for itself on the `trace`
    reports: dataclass plans (per class in `_PLANS`; here, for a class with a
    merge field, per set of merged keys), without which those reports are
    written about half again as slowly; and the text of each Magnitude per
    value and indent, kept for the life of the writer, which serves most
    Magnitude lookups there, as their values recur."""
    scalars = _SCALARS
    magnitudes: dict[tuple[int, str], str] = {}
    # (type, indent, merged keys) -> plan, for classes with a merge field; a
    # plan is built only from string keys, so only string keys find one
    merged_plans: dict[tuple, tuple] = {}

    def write(value, nl: str) -> None:
        t = type(value)
        text = scalars.get(t)
        if text is not None:
            emit(text(value))
            return
        if t is Magnitude:
            text = magnitudes.get((value.value, nl))
            if text is None:
                inner = nl + "  "
                text = (f'{{{inner}"exact": "{value.value}",{inner}"log": '
                        f'"{value.log_display(digits)}"{nl}}}')
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
            if not value:
                emit("{}")
                return
            inner = nl + "  "
            sep = "{" + inner
            for key in sorted(value):
                emit(sep + _key(key))
                write(value[key], inner)
                sep = "," + inner
            emit(nl + "}")
            return
        if t is ScaledLog:
            inner = nl + "  "
            emit("{" + inner + '"base": ')
            write(value.base, inner)
            emit(f',{inner}"coefficient": "{rational_str(value.coefficient)}",'
                 f'{inner}"log": "{value.log_display(digits)}"{nl}}}')
            return
        entries, tail = _PLANS.get((t, nl)) or _static_plan(t, nl)
        if type(entries) is str:
            merged = tuple(getattr(value, entries))
            plan = merged_plans.get((t, nl, merged))
            if plan is None:
                plan = merged_plans[t, nl, merged] = _plan(tail, nl, merged)
            entries, tail = plan
        inner = nl + "  "
        for prefix, name, key in entries:
            item = getattr(value, name)
            emit(prefix)
            write(item if key is _FIELD else item[key], inner)
        emit(tail)

    return write


def stable_json(value, digits: int = DEFAULT_DISPLAY_DIGITS) -> str:
    """The report text of `value`: sorted keys, two-space indent, trailing
    newline; `digits` sets the decimal places of every display-only log.

    A dataclass is written from a plan of its keys at its indent, built on
    first use and kept across calls; a class with a merge field gets one per
    call for each set of merged keys.  The text of each Magnitude is made
    once per call for each value and indent it appears at."""
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
