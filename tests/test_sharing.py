"""Sharing layer: certificates, profile cross-checks, box enumeration, and
the shared-pair search."""

import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urskit import sharing, trace
from urskit.arith import SContext, is_s_unit, non_s_part
from urskit.heights import counting, counting_trunc, height
from urskit.polys import RatPoly, TrinomialFamily, build_from_roots
from urskit.sharing import (
    SearchBudgetError,
    SharePoint,
    ord_profile_equal,
    s_integer_box,
    search_shared_pairs,
    share_check,
)

S2 = SContext.of([2])
S3 = SContext.of([3])
S23 = SContext.of([2, 3])
S_CHOICES = [SContext.of(ps) for ps in ((), (2,), (3,), (2, 3), (3, 5), (2, 3, 5))]
P7 = TrinomialFamily(7, 1, F(1), F(1)).polynomial()


def test_share_check_examples():
    sp = share_check(S23, P7, F(0), F(-1))
    assert sp.u == 1 and sp.shares

    sp = share_check(S23, P7, F(5), F(5))
    assert sp.u == 1 and sp.shares

    assert share_check(S3, P7, F(1), F(0)).shares  # u = 3
    assert not share_check(S2, P7, F(1), F(0)).shares


def test_share_check_rejects_non_s_integer():
    with pytest.raises(ValueError, match="not an S-integer"):
        share_check(S23, P7, F(1, 5), F(0))
    with pytest.raises(ValueError, match=r"^y = 1/5 is not an S-integer for S = "):
        share_check(S23, P7, F(0), F(1, 5))


def test_share_check_vanishing_convention():
    P = build_from_roots([F(1), F(-1)])  # X^2 - 1
    both = share_check(S23, P, F(1), F(-1))
    assert both.shares and both.u is None
    one = share_check(S23, P, F(0), F(1))  # P(0) = -1, P(1) = 0
    assert not one.shares and one.u is None
    other = share_check(S23, P, F(1), F(0))  # u = 0, not a unit
    assert not other.shares and other.u == 0


def _share(S, x, px, y, py) -> SharePoint:
    """The oracle: the sharing verdict for the pair (x, y) with px = P(x),
    py = P(y), decided by testing u = P(x)/P(y) for an S-unit.

    Vanishing convention: if both P(x) and P(y) vanish the pair shares with u
    undetermined; if exactly one vanishes it does not share.
    """
    if py == 0:
        return SharePoint(x, y, None, px == 0)
    u = px / py
    return SharePoint(x, y, u, is_s_unit(S, u))


@st.composite
def share_inputs(draw):
    """(S, P, x, y): x and y drawn from a small S-integer box, each given as
    a Fraction, an int when it is one, or a string written unreduced (2 as
    "6/3"); P sometimes vanishes at a box value."""
    S = draw(st.sampled_from(S_CHOICES))
    box = s_integer_box(S, 6, 2)
    coeffs = draw(
        st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=10), max_size=5)
    )
    P = RatPoly.of(coeffs)
    if draw(st.booleans()):
        P = P * RatPoly.of([-draw(st.sampled_from(box)), 1])

    def written(v):
        k = draw(st.integers(1, 4))
        forms = [v, f"{v.numerator * k}/{v.denominator * k}"]
        if v.denominator == 1:
            forms.append(int(v))
        return draw(st.sampled_from(forms))

    return S, P, written(draw(st.sampled_from(box))), written(draw(st.sampled_from(box)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(share_inputs())
def test_share_check_matches_s_unit_oracle(case):
    S, P, x, y = case
    fx, fy = F(x), F(y)
    want = _share(S, fx, P.evaluate(fx), fy, P.evaluate(fy))
    got = share_check(S, P, x, y)
    assert (got.x, got.y, got.u, got.shares) == (want.x, want.y, want.u, want.shares)
    assert type(got.x) is F and type(got.y) is F


def test_non_s_part_iff_profile_iff_share_on_box():
    box = s_integer_box(S23, 9, 1)
    values = {v: P7.evaluate(v) for v in box}
    agree = 0
    for x in box:
        for y in box:
            if values[x] == 0 or values[y] == 0:
                continue
            same = non_s_part(S23, values[x]) == non_s_part(S23, values[y])
            assert same == ord_profile_equal(S23, P7, x, y)
            assert same == share_check(S23, P7, x, y).shares
            agree += same
    assert agree > len(box)  # the diagonal plus genuine off-diagonal shares


def test_ord_profile_examples():
    assert ord_profile_equal(S23, P7, F(0), F(-1))
    assert not ord_profile_equal(S2, P7, F(1), F(0))
    assert ord_profile_equal(S2, P7, F(7), F(7))


def test_ord_profile_vanishing_error():
    P = build_from_roots([F(1)])
    with pytest.raises(ValueError, match="vanishing"):
        ord_profile_equal(S23, P, F(1), F(0))


def test_share_iff_profile_randomized():
    rng = random.Random(11)
    box = s_integer_box(S23, 12, 1)
    checked = 0
    for _ in range(400):
        x, y = rng.choice(box), rng.choice(box)
        if P7.evaluate(x) == 0 or P7.evaluate(y) == 0:
            continue
        sp = share_check(S23, P7, x, y)
        assert sp.shares == ord_profile_equal(S23, P7, x, y)
        checked += 1
    assert checked > 300


def test_share_symmetry_up_to_inversion():
    rng = random.Random(13)
    box = s_integer_box(S23, 10, 1)
    for _ in range(200):
        x, y = rng.choice(box), rng.choice(box)
        fwd = share_check(S23, P7, x, y)
        rev = share_check(S23, P7, y, x)
        assert fwd.shares == rev.shares
        if fwd.u not in (None, 0) and rev.u is not None:
            assert rev.u == 1 / fwd.u


def test_sharing_implies_counting_equality():
    pairs = search_shared_pairs(S23, P7, 8, 0)
    assert pairs
    for sp in pairs:
        px, py = P7.evaluate(sp.x), P7.evaluate(sp.y)
        if px == 0 or py == 0:
            continue
        assert counting(S23, px) == counting(S23, py)
        for level in (1, 2, 3):
            assert counting_trunc(S23, level, px) == counting_trunc(S23, level, py)


# --- box enumeration ------------------------------------------------------------


def box_oracle(S, bound, exp_bound):
    """Direct filter over a superset of candidates."""
    out = set()
    denoms = {1}
    for p in S.primes:
        denoms = {d * p**e for d in denoms for e in range(exp_bound + 1)}
    for d in denoms:
        for a in range(-bound, bound + 1):
            if gcd(a, d) == 1 and height(F(a, d) if d else F(a)).value <= bound:
                out.add(F(a, d))
    return sorted(out, key=lambda v: (v.numerator, v.denominator))


@pytest.mark.parametrize("bound,exp", [(0, 0), (1, 0), (6, 1), (9, 2), (12, 3)])
def test_s_integer_box_matches_oracle(bound, exp):
    for primes in ((), (2,), (2, 3), (3, 5), (2, 3, 5)):
        S = SContext.of(primes)
        got = [(v.numerator, v.denominator) for v in s_integer_box(S, bound, exp)]
        want = [(v.numerator, v.denominator) for v in box_oracle(S, bound, exp)]
        assert got == want, primes


def test_s_integer_box_bound_zero_empty():
    assert s_integer_box(S23, 0, 4) == []


# --- shared-pair search -----------------------------------------------------------


def search_oracle(S, P, bound, exp):
    values = box_oracle(S, bound, exp)
    hits = []
    for x in values:
        for y in values:
            if x == y:
                continue
            px, py = P.evaluate(x), P.evaluate(y)
            if py == 0:
                if px == 0:
                    hits.append((x, y, None))
                continue
            u = px / py
            if is_s_unit(S, u):
                hits.append((x, y, u))
    hits.sort(key=lambda t: (t[0].numerator, t[0].denominator, t[1].numerator, t[1].denominator))
    return hits


def test_search_examples():
    found = search_shared_pairs(S23, P7, 5, 0)
    as_tuples = [(sp.x, sp.y, sp.u) for sp in found]
    assert (F(0), F(-1), F(1)) in as_tuples
    assert (F(-1), F(0), F(1)) in as_tuples
    assert search_shared_pairs(S23, P7, 0, 0) == []


def test_search_degenerate_square():
    P = RatPoly.of([0, 0, 1])  # X^2, not in the trinomial family
    found = search_shared_pairs(S2, P, 2, 0)
    as_tuples = [(sp.x, sp.y, sp.u) for sp in found]
    assert (F(1), F(2), F(1, 4)) in as_tuples
    assert search_oracle(S2, P, 2, 0) == as_tuples


def test_search_matches_oracle_with_denominators():
    found = search_shared_pairs(S23, P7, 6, 1)
    assert [(sp.x, sp.y, sp.u) for sp in found] == search_oracle(S23, P7, 6, 1)


def test_search_budget_raises_with_total_and_budget():
    n = len(s_integer_box(S23, 8, 0))  # 17 values, 272 candidate pairs
    with pytest.raises(SearchBudgetError) as err:
        search_shared_pairs(S23, P7, 8, 0, pair_budget=40)
    assert (err.value.total, err.value.budget) == (n * (n - 1), 40)
    assert "272 candidate pairs > pair budget 40" in str(err.value)
    assert not hasattr(err.value, "partial")
    full = search_shared_pairs(S23, P7, 8, 0)
    assert search_shared_pairs(S23, P7, 8, 0, pair_budget=n * (n - 1)) == full


def test_negative_budget_rejected_before_the_box(monkeypatch):
    def no_box(*args):
        raise AssertionError("the box was built")

    monkeypatch.setattr(sharing, "_box_points", no_box)
    with pytest.raises(ValueError, match="pair_budget must be >= 0"):
        search_shared_pairs(S23, P7, 8, 0, pair_budget=-1)
    with pytest.raises(ValueError, match="pair_budget must be >= 0"):
        trace.strong_uniqueness_search(S23, P7, F(1), 8, 0, pair_budget=-1)


@st.composite
def search_cases(draw):
    """(S, P, height bound, denominator exponent bound): zero, constant and
    random polynomials, with coefficient denominators up to 10 (so 5 and 7
    fall outside most S), some with a root in the box so values vanish."""
    S = draw(st.sampled_from(S_CHOICES))
    bound = draw(st.integers(0, 6))
    exp = draw(st.integers(0, 2))
    coeffs = draw(
        st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=10), max_size=5)
    )
    P = RatPoly.of(coeffs)
    box = s_integer_box(S, bound, exp)
    if box and draw(st.booleans()):
        P = P * RatPoly.of([-draw(st.sampled_from(box)), 1])
    return S, P, bound, exp


def budget_choices(n):
    """None, and budgets below, at and above the N(N-1) candidate pairs."""
    total = n * (n - 1)
    return st.sampled_from([None, 0, 1, max(total - 1, 0), total, total + 7])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(search_cases(), st.data())
def test_search_join_matches_oracle(case, data):
    S, P, bound, exp = case
    n = len(box_oracle(S, bound, exp))
    budget = data.draw(budget_choices(n))
    expected = search_oracle(S, P, bound, exp)
    if budget is None or budget >= n * (n - 1):
        found = search_shared_pairs(S, P, bound, exp, pair_budget=budget)
        assert [(sp.x, sp.y, sp.u) for sp in found] == expected
        assert all(sp.shares for sp in found)
        return
    with pytest.raises(SearchBudgetError) as err:
        search_shared_pairs(S, P, bound, exp, pair_budget=budget)
    assert (err.value.total, err.value.budget) == (n * (n - 1), budget)


# --- the integer-keyed join against the Fraction-keyed one ---------------------


def fraction_join(
    S, P, height_bound, denom_exponent_bound, pair_budget, key, partner_key, pair, what
):
    """The oracle: the join with Fraction keys, P evaluated to a Fraction at
    every box value and the budget decided once the box is built."""
    if pair_budget is not None and pair_budget < 0:
        raise ValueError("pair_budget must be >= 0")
    values = s_integer_box(S, height_bound, denom_exponent_bound)
    total = len(values) * (len(values) - 1)
    if pair_budget is not None and total > pair_budget:
        raise SearchBudgetError(f"{what} budget exceeded", total, pair_budget)
    evals = [P.evaluate(v) for v in values]
    groups: dict = {}
    for j, pv in enumerate(evals):
        groups.setdefault(key(pv), []).append(j)
    return [
        pair(x, px, values[j], evals[j])
        for i, (x, px) in enumerate(zip(values, evals))
        for j in groups.get(partner_key(px), ())
        if j != i
    ]


def shared_join_oracle(S, P, bound, exp, budget):
    def key(pv):
        return None if pv == 0 else non_s_part(S, pv)

    return fraction_join(
        S, P, bound, exp, budget, key, key,
        lambda x, px, y, py: _share(S, x, px, y, py), "shared-pair search",
    )


def su_join_oracle(S, P, c, bound, exp, budget):
    return fraction_join(
        S, P, bound, exp, budget, lambda pv: pv, lambda pv: pv / c,
        lambda x, px, y, py: (x, y), "strong-uniqueness search",
    )


def outcome(search, *args):
    """A search's result, or its budget error's message and numbers."""
    try:
        return search(*args)
    except SearchBudgetError as err:
        return str(err), err.total, err.budget


SU_CONSTANTS = [F(1), F(-1), F(2), F(-3), F(4), F(1, 4), F(-2, 3), F(-5, 7), F(9)]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(search_cases(), st.sampled_from(SU_CONSTANTS), st.data())
def test_integer_join_matches_fraction_join(case, c, data):
    S, P, bound, exp = case
    budget = data.draw(budget_choices(len(s_integer_box(S, bound, exp))))
    assert outcome(search_shared_pairs, S, P, bound, exp, budget) == outcome(
        shared_join_oracle, S, P, bound, exp, budget
    )
    assert outcome(trace.strong_uniqueness_search, S, P, c, bound, exp, budget) == outcome(
        su_join_oracle, S, P, c, bound, exp, budget
    )


@settings(max_examples=150, derandomize=True, deadline=None)
@given(search_cases())
@example((S23, P7, 6, 1))  # s_den = 1: every key is (non-S part of num, 1)
@example((S23, RatPoly.of([F(1, 5), 1, 1]), 6, 1))  # s_den = 5: the gcd may reduce it
def test_shared_key_is_the_non_s_part(case):
    S, P, bound, exp = case
    key = sharing.share_key(S, P)
    for x in s_integer_box(S, bound, exp):
        px = P.evaluate(x)
        want = None if px == 0 else non_s_part(S, px)
        assert key(*P.evaluate_unreduced(x.numerator, x.denominator)) == want


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.sampled_from([(), (2,), (2, 3), (3, 5), (2, 3, 5)]),
    st.integers(0, 40),
    st.integers(0, 3),
)
def test_box_size_counts_the_box(primes, bound, exp):
    S = SContext.of(primes)
    assert sharing._box_size(S, bound, exp) == len(s_integer_box(S, bound, exp))


def test_box_size_rejects_negative_bounds():
    for bound, exp in ((-1, 0), (3, -1)):
        with pytest.raises(ValueError, match="bounds must be nonnegative"):
            sharing._box_size(S23, bound, exp)


def test_box_denominators_stop_at_the_height_bound():
    # the (10^6 + 1)^2 exponent pairs are never formed
    assert sharing._box_denominators(S23, 10, 10**6) == [1, 2, 3, 4, 6, 8, 9]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.sampled_from([(), (2,), (2, 3), (3, 5), (2, 3, 5)]),
    st.integers(0, 60),
    st.integers(0, 6),
)
def test_box_denominators_match_brute_force(primes, bound, exp):
    S = SContext.of(primes)
    every = {1}
    for p in primes:
        every = {d * p**e for d in every for e in range(exp + 1)}
    assert sharing._box_denominators(S, bound, exp) == sorted(d for d in every if d <= bound)


def test_over_budget_search_never_evaluates(monkeypatch):
    """P = 1 over a box of 2*10^4 + 1 values: ~4*10^8 candidate pairs are
    refused from the counted box size alone, before the box is enumerated or
    P evaluated anywhere, on integers or to a Fraction."""
    calls = []

    def spy(name):
        def record(*args):
            calls.append(name)
            raise AssertionError(f"{name} was called")

        return record

    box, unreduced = sharing._box_points, RatPoly.evaluate_unreduced
    monkeypatch.setattr(sharing, "_box_points", spy("_box_points"))
    monkeypatch.setattr(RatPoly, "evaluate_unreduced", spy("evaluate_unreduced"))
    monkeypatch.setattr(RatPoly, "evaluate", spy("evaluate"))
    one = RatPoly.of([1])
    n = 2 * 10**4 + 1
    with pytest.raises(SearchBudgetError) as err:
        search_shared_pairs(S23, one, 10**4, 0, pair_budget=10)
    assert (err.value.total, err.value.budget) == (n * (n - 1), 10)
    with pytest.raises(SearchBudgetError) as err:
        trace.strong_uniqueness_search(S23, one, F(1), 10**4, 0, pair_budget=10)
    assert (err.value.total, err.value.budget) == (n * (n - 1), 10)
    assert calls == []
    # the spies are live: a search within its budget enumerates the box,
    # then evaluates P on integers, and builds its hits' P(x) from those
    with pytest.raises(AssertionError, match="_box_points was called"):
        search_shared_pairs(S23, one, 1, 0, pair_budget=6)
    monkeypatch.setattr(sharing, "_box_points", box)
    with pytest.raises(AssertionError, match="evaluate_unreduced was called"):
        search_shared_pairs(S23, one, 1, 0, pair_budget=6)
    monkeypatch.setattr(RatPoly, "evaluate_unreduced", unreduced)
    assert len(search_shared_pairs(S23, one, 1, 0, pair_budget=6)) == 6
    assert calls == ["_box_points", "evaluate_unreduced"]


# --- P tabulated per denominator column, by differences --------------------------


@st.composite
def column_cases(draw):
    """(S, P, height bound, denominator exponent bound): P of degree -1 to
    12 with coefficient denominators up to 10, so some lie outside S."""
    S = SContext.of(draw(st.sampled_from([(), (2,), (2, 3), (3, 5), (2, 3, 5)])))
    degree = draw(st.integers(-1, 12))
    coeff = st.fractions(min_value=-20, max_value=20, max_denominator=10)
    coeffs = draw(st.lists(coeff, min_size=degree + 1, max_size=degree + 1))
    if coeffs and coeffs[-1] == 0:
        coeffs[-1] = F(1)
    return S, RatPoly.of(coeffs), draw(st.integers(0, 40)), draw(st.integers(0, 3))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(column_cases())
@example((S23, RatPoly.of([]), 7, 2))  # the zero polynomial: (0, 1) everywhere
@example((S23, RatPoly.of([F(-7, 5)]), 7, 2))  # a constant: no accumulate pass
@example((S23, RatPoly.of([3, 0, F(1, 2), -4]), 9, 1))  # negative leading coefficient
@example((S23, P7, 3, 1))  # 2H + 1 = n: the column is its seeds
@example((S23, P7 * RatPoly.of([1, 1]), 4, 1))  # 2H + 1 = n + 1: the same
@example((S23, P7, 4, 1))  # 2H + 1 = n + 2: one accumulated value per column
def test_columns_match_horner_at_every_point(case):
    S, P, H, e = case
    columns = {d: sharing._column(P, H, d) for d in sharing._box_denominators(S, H, e)}
    assert [
        (a, d, columns[d][0][a + H], columns[d][1]) for a, d in sharing._box_points(S, H, e)
    ] == [
        (a, d, *P.evaluate_unreduced(a, d)) for a, d in sharing._box_points(S, H, e)
    ]


@pytest.mark.parametrize("exp, horner_calls", [(0, 8), (1, 32)])
def test_search_evaluates_per_column_not_per_point(monkeypatch, exp, horner_calls):
    """At height 40 and degree 7 a search makes exactly n + 1 Horner calls
    per denominator column (1 column at exponent 0, 4 at exponent 1), the
    seeds: not one per box point (81 and 201), none for a column's den and
    none for its hits' P(x)."""
    calls = []
    horner = RatPoly.evaluate_unreduced

    def counted(self, p, q):
        calls.append((p, q))
        return horner(self, p, q)

    assert len(sharing._box_denominators(S23, 40, exp)) * (P7.degree + 1) == horner_calls
    monkeypatch.setattr(RatPoly, "evaluate_unreduced", counted)
    assert len(search_shared_pairs(S23, P7, 40, exp)) > 0
    assert len(calls) == horner_calls
    calls.clear()
    assert len(trace.strong_uniqueness_search(S23, P7, F(1), 40, exp)) > 0
    assert len(calls) == horner_calls
