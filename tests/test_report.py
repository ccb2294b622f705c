"""The wire format: `stable_json` writes report values by their exact type,
byte for byte as `json.dumps` renders the dict tree of `to_json` below, for
the string-keyed trees reports are; `write_json` streams the same text in
chunks.  `render_table` writes each console cell by its exact type too."""

import gc
import json
import tracemalloc
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction as F
from operator import itemgetter
from typing import ClassVar

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urskit.arith import rational_str
from urskit.heights import Magnitude, ScaledLog, display_log
from urskit.report import _PLAN_CACHE_SIZE, render_table, stable_json, write_json


def to_json(value, digits=6):
    """Reference: the JSON-ready dict tree of a report value."""
    t = type(value)
    if t is str or t is int or t is bool or value is None:
        return value
    if t is F:
        return rational_str(value)
    if t is Magnitude:
        return {"exact": str(value.value), "log": display_log(value, digits)}
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
    if not is_dataclass(t):
        raise TypeError(f"no JSON encoding for {t.__name__}")
    names = [f.name for f in fields(t)] + list(getattr(t, "derived_keys", ()))
    return {name: to_json(getattr(value, name), digits) for name in names}


def reference_json(value, digits=6):
    return json.dumps(to_json(value, digits), sort_keys=True, indent=2,
                      ensure_ascii=False) + "\n"


def test_scalars_by_exact_type():
    assert json.loads(stable_json(None)) is None
    assert json.loads(stable_json(True)) is True
    assert json.loads(stable_json("text")) == "text"
    # an int is a JSON number, a rational always a string, even when integral
    assert json.loads(stable_json(3)) == 3
    assert json.loads(stable_json(F(3))) == "3"
    assert json.loads(stable_json(F(-1, 2))) == "-1/2"


def test_log_quantities_exact_plus_display():
    assert json.loads(stable_json(Magnitude(10), 3)) == {"exact": "10", "log": "2.303"}
    assert json.loads(stable_json(ScaledLog(F(1, 2), Magnitude(10)), 2)) == {
        "coefficient": "1/2",
        "base": {"exact": "10", "log": "2.30"},
        "log": "1.15",
    }


def _row(x, detail):
    """A flat row, as trace writes its check rows: own keys, then the
    detail's, then one more."""
    return {"x": x, **detail, "double": 2 * x}


def test_dataclass_fields_merge_and_derived_keys():
    row = _row(F(1, 4), {"count": 2, "h": Magnitude(1)})
    flat = {"x": "1/4", "count": 2, "h": {"exact": "1", "log": "0.0"}, "double": "1/2"}
    assert json.loads(stable_json([row, _Plain(row, 0)], 1)) == [
        flat, {"b": flat, "a": 0, "ab": [0, flat]}
    ]


@pytest.mark.parametrize("value", [0.5, {1, 2}, object(), [1, {"k": 0.5}],
                                   {"k": {1, 2}}, {(1, 2): 0}, [Magnitude(2), 0.5],
                                   _row(F(1), {"k": object()})])
def test_unknown_types_are_rejected(value):
    with pytest.raises(TypeError, match="no JSON encoding"):
        stable_json(value)


def test_long_ints_raise_as_str_does():
    for value in [{"n": 10**5000}, Magnitude(10**5000), [10**5000], [Magnitude(10**5000)],
                  {"m": Magnitude(10**5000)}, _row(F(1), {"n": 10**5000})]:
        with pytest.raises(ValueError, match="4300"):
            stable_json(value)


def test_one_value_at_two_depths():
    # a Magnitude's text depends on its indent, and so does a dataclass's or
    # a dict's, empty or not; one key set in two insertion orders is two key
    # tuples, so two plans, that write one text
    m = Magnitude(12)
    row = _row(F(1, 3), {"h": m})
    plain = _Plain(m, row)
    ab, ba = {"a": m, "b": {}}, {"b": {}, "a": m}
    value = {"a": m, "b": [row, plain, [m, row, {"c": [plain]}]], "c": row, "d": plain,
             "e": [ab, [ba, {}]], "f": {}}
    assert stable_json(value, 4) == reference_json(value, 4)
    assert stable_json(ba) == stable_json(ab)


@dataclass(frozen=True)
class _Fresh:
    """A derived key that makes a new Fraction on each access: written and
    then dropped, its id can come back for the next object's Fraction."""

    a: int

    derived_keys: ClassVar[tuple[str, ...]] = ("f",)

    @property
    def f(self):
        return F(self.a, 7)


_THIRD = F(1, 3)


@pytest.mark.parametrize("value", [
    [_Fresh(a) for a in range(-40, 40)],
    [F(1, 3), F(1, 3), {"a": F(-2, 5), "b": F(-2, 5)}, F(6, 3), F(2)],
    [_THIRD, {"a": _THIRD, "b": [_THIRD, [_THIRD]]}, _THIRD],
], ids=["fresh_objects", "equal_values", "two_indents"])
def test_fraction_text_per_object(value):
    assert stable_json(value) == reference_json(value)


def test_more_key_sets_than_the_plan_cache_holds():
    # plans evicted and built again write the same text
    value = [{f"k{i}": i} for i in range(_PLAN_CACHE_SIZE + 10)]
    expected = reference_json(value)
    assert stable_json(value) == expected
    assert stable_json(value) == expected


def test_back_to_back_calls_with_other_digits():
    value = [Magnitude(10), {"m": Magnitude(10)}, ScaledLog(F(1, 3), Magnitude(10))]
    for digits in (3, 17, 3):
        assert stable_json(value, digits) == reference_json(value, digits)


@dataclass(frozen=True)
class _Plain:
    b: object
    a: object

    derived_keys: ClassVar[tuple[str, ...]] = ("ab",)

    @property
    def ab(self):
        return [self.a, self.b]


def _merged(m, extra, z=None):
    """Plain keys on both sides of the merged ones, in sort order; a merged
    key overrides "m" and is overridden by "z" and "d"."""
    return {"m": m, **extra, "z": z, "d": m}


@dataclass(frozen=True)
class _Empty:
    pass


# one instance each, so a drawn tree holds them at several depths
SHARED_MAGNITUDE = Magnitude(2**61 - 1)
SHARED_ROW = _row(F(-7, 2), {"h": SHARED_MAGNITUDE, "n": None})

scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.text(max_size=8)
    | st.sampled_from(["", "é", "ü\x00", "\n\t\"\\", " ", "\U0001f600", "\x7f"])
    | st.fractions(max_denominator=10**6)
    | st.integers(1, 10**30).map(Magnitude)
    | st.builds(ScaledLog, st.fractions(min_value=0, max_denominator=50),
                st.integers(1, 10**12).map(Magnitude))
    | st.just(_Empty())
    | st.sampled_from([SHARED_MAGNITUDE, SHARED_ROW])
)
# the small alphabet makes key tuples, and so plans, recur within a tree
small_keys = st.sampled_from(["a", "b", "d", "m", "z", "é"])
keys = st.text(max_size=6) | small_keys


def _values(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(keys, children, max_size=4)
        | st.dictionaries(small_keys, children, max_size=3)
        | st.builds(_Plain, children, children)
        | st.builds(_merged, children, st.dictionaries(keys, children, max_size=4),
                    children)
    )


values = st.recursive(scalars, _values, max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(values, st.integers(1, 17))
def test_stable_json_matches_json_dumps_of_the_dict_tree(value, digits):
    assert stable_json(value, digits) == reference_json(value, digits)


# every key a report holds is a string; json.dumps would write the first
# four as "true", "null", "2" and so on.  A plan is kept per key tuple, so a
# non-string key must raise even where a string key of equal text, or a
# string key set of equal size, was written just before it
@pytest.mark.parametrize("value", [{True: [], False: {}}, {None: 1}, {2: 0, 10: 1, -3: 2},
                                   [{True: 1}, {1: 2}, {False: 0, 2: 3}],
                                   _merged(0, {1: 2}), [{"1": 0}, {1: 0}],
                                   [{"a": 0}, {True: 0}]])
def test_non_string_keys_are_rejected(value):
    with pytest.raises(TypeError, match="no JSON encoding"):
        stable_json(value)


class _Sub(str):
    pass


@pytest.mark.parametrize("first", ["subclass", "plain"])
def test_str_subclass_keys_are_written_in_either_order(first):
    # a plan is kept per key tuple, and (_Sub(k),) == (k,): whichever comes
    # first, both dicts are written, as json.dumps writes them
    k = f"sub-{first}"
    values = [{_Sub(k): 1}, {k: 1}]
    if first == "plain":
        values.reverse()
    for value in values:
        assert stable_json(value) == reference_json(value) == f'{{\n  "{k}": 1\n}}\n'


def test_digits_below_one_are_rejected_for_every_value():
    for value in ([], {"a": 1}, Magnitude(3)):
        with pytest.raises(ValueError, match="digits must be >= 1"):
            stable_json(value, 0)


class Recorder:
    """A text stream that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


class Sink:
    """A text stream that drops what it is given."""

    def write(self, text):
        pass


def _rows(n):
    return [{"x": F(i, 3), "h": Magnitude(i + 1), "flags": ["shares", i]} for i in range(n)]


@pytest.mark.parametrize("n, several", [(3, False), (3000, True)])
def test_write_json_streams_the_stable_json_text(n, several):
    # 3000 rows are some 36,000 parts, more than one chunk: written in
    # several pieces that join to the one text
    out = Recorder()
    write_json(_rows(n), out, 3)
    assert "".join(out.writes) == stable_json(_rows(n), 3)
    assert (len(out.writes) > 1) is several


def test_write_json_checks_digits_before_any_write():
    out = Recorder()
    with pytest.raises(ValueError, match="digits must be >= 1"):
        write_json(_rows(3000), out, 0)
    assert out.writes == []


def test_write_json_frees_its_caches_on_return():
    # with the collector off, the call leaves no cycle to collect, such as
    # one keeping the part list or the Fraction and Magnitude text caches,
    # and its memory comes back; the collection also empties the tuple free
    # list, where up to 2000 freed (Fraction, text) pairs would stay counted
    value = _rows(3000)
    write_json(value, Sink(), 6)  # the plans, kept across calls, are made here
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        write_json(value, Sink(), 6)
        unreachable = gc.collect()
        left = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
        gc.enable()
    assert unreachable == 0
    assert left < 4096


def test_render_table_cells_by_type():
    rows = [
        (F(-3, 4), "rational"),
        (F(5), "integral rational"),
        (None, "undetermined"),
        (True, ""),
        (False, ""),
        (Magnitude(1234567890123), "magnitude"),
        ("text", ""),
        (42, "int"),
    ]
    # columns as wide as their widest cell or header, two spaces apart; the
    # empty last cells leave no trailing spaces
    assert render_table((("value", itemgetter(0)), ("kind", itemgetter(1))), rows) == (
        "value          kind\n"
        "-------------  -----------------\n"
        "-3/4           rational\n"
        "5              integral rational\n"
        "-              undetermined\n"
        "True\n"
        "False\n"
        "1234567890123  magnitude\n"
        "text\n"
        "42             int"
    )
    assert render_table((("a", itemgetter(0)), ("b", itemgetter(1))), []) == "a  b\n-  -"
