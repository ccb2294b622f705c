"""Ground-layer tests: valuations, S-predicates, factoring, unit equations."""

from decimal import Decimal
from fractions import Fraction as F
from math import isqrt
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urskit import _kernel as kernel
from urskit import arith
from urskit.arith import (
    FactoringBudgetError,
    SContext,
    factor,
    is_s_integer,
    is_s_unit,
    non_s_ord_profile,
    non_s_part,
    ord_at,
    parse_rational,
    rational_str,
    unit_equation_solutions,
)

S23 = SContext.of([2, 3])
S5 = SContext.of([5])

nonzero_rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**6
).filter(lambda q: q != 0)


# --- oracles -----------------------------------------------------------------


def trial_division_oracle(n):
    """Plain ascending trial division, independent of the kernel."""
    fs = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            fs[d] = fs.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        fs[n] = fs.get(n, 0) + 1
    return fs


def trial_factor_oracle(n, budget):
    """Factorization of n >= 1 by the loop `factor` ran before rho: divide out
    the smallest prime within isqrt(budget) (2, 3 and 5 whatever the horizon)
    until the cofactor is 1 or a certified prime, and raise on the first
    cofactor with neither."""
    horizon = isqrt(budget)
    out = []
    cof = n
    while cof > 1:
        if cof < kernel.CERTIFIED_LIMIT and kernel.is_prime(cof):
            out.append((cof, 1))
            break
        p = kernel.smallest_factor_below(cof, horizon)
        if p == 0:
            raise FactoringBudgetError(cof, budget)
        e = 0
        while cof % p == 0:
            cof //= p
            e += 1
        out.append((p, e))
    return tuple(sorted(out))


# --- parsing -----------------------------------------------------------------


@pytest.mark.parametrize(
    "text,value",
    [("3/4", F(3, 4)), ("-7", F(-7)), ("+2/6", F(1, 3)), ("0", F(0))],
)
def test_parse_rational(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", ["1.5", "2e3", "1/0", "a/b", "", "1 / 2"])
def test_parse_rational_rejects(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_rational_str_roundtrip():
    for q in (F(3, 4), F(-7), F(0), F(22, 7)):
        assert parse_rational(rational_str(q)) == q


# --- contexts ----------------------------------------------------------------


def test_scontext_validation():
    assert SContext.of([3, 2]).primes == (2, 3)
    with pytest.raises(ValueError):
        SContext((2, 4))
    with pytest.raises(ValueError):
        SContext((3, 2))


# --- ord ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "p,x,expected",
    [(2, F(8), 3), (3, F(4, 9), -2), (5, F(7), 0)],
)
def test_ord_examples(p, x, expected):
    assert ord_at(p, x) == expected


def test_ord_errors():
    with pytest.raises(ValueError, match="valuation of zero undefined"):
        ord_at(2, F(0))
    with pytest.raises(ValueError, match="not prime"):
        ord_at(6, F(2))


@settings(max_examples=300, derandomize=True)
@given(nonzero_rationals, nonzero_rationals, st.sampled_from([2, 3, 5, 7, 11]))
def test_ord_additive_and_inverse(x, y, p):
    assert ord_at(p, x * y) == ord_at(p, x) + ord_at(p, y)
    assert ord_at(p, 1 / x) == -ord_at(p, x)


@settings(max_examples=300, derandomize=True)
@given(nonzero_rationals)
def test_product_formula(x):
    """|num| and den reconstruct exactly from the full valuation vector."""
    profile = non_s_ord_profile(SContext.of([]), x)
    num = 1
    den = 1
    for p, e in profile.items():
        if e > 0:
            num *= p**e
        else:
            den *= p**-e
    assert num == abs(x.numerator)
    assert den == x.denominator


# --- S-predicates ------------------------------------------------------------


@pytest.mark.parametrize(
    "x,expected",
    [(F(5, 6), True), (F(1, 5), False), (F(7), True), (F(0), True)],
)
def test_is_s_integer(x, expected):
    assert is_s_integer(S23, x) == expected


@pytest.mark.parametrize(
    "x,expected",
    [(F(8, 9), True), (F(-1), True), (F(5), False), (F(0), False)],
)
def test_is_s_unit(x, expected):
    assert is_s_unit(S23, x) == expected


@pytest.mark.parametrize("x", [F(45, 8), F(-7), -7, Decimal("5.625"), "45/8"])
def test_predicates_take_any_rational_type(x):
    # ints and Fractions skip the Fraction() wrapping; other types go through it
    q = F(x)
    assert ord_at(3, x) == ord_at(3, q)
    assert is_s_integer(S23, x) == is_s_integer(S23, q)
    assert non_s_part(S23, x) == non_s_part(S23, q)
    assert non_s_ord_profile(S23, x) == non_s_ord_profile(S23, q)


@settings(max_examples=300, derandomize=True)
@given(nonzero_rationals)
def test_s_unit_iff_both_s_integers(x):
    assert is_s_unit(S23, x) == (is_s_integer(S23, x) and is_s_integer(S23, 1 / x))


@pytest.mark.parametrize(
    "x,expected",
    [(F(-40, 9), (5, 1)), (F(6, 35), (1, 35)), (F(8, 9), (1, 1)), (F(7), (7, 1))],
)
def test_non_s_part(x, expected):
    assert non_s_part(S23, x) == expected


def test_non_s_part_of_zero():
    with pytest.raises(ValueError, match="zero"):
        non_s_part(S23, F(0))


@settings(max_examples=300, derandomize=True)
@given(
    nonzero_rationals,
    nonzero_rationals,
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.sampled_from([1, -1]),
)
def test_same_non_s_part_iff_quotient_is_s_unit(x, y, a, b, sign):
    unit_multiple = sign * x * F(2) ** a * F(3) ** b
    for z in (y, unit_multiple):
        assert (non_s_part(S23, x) == non_s_part(S23, z)) == is_s_unit(S23, x / z)
    assert non_s_part(S23, x) == non_s_part(S23, unit_multiple)


# --- factoring ---------------------------------------------------------------


def test_factor_examples():
    assert factor(80).factors == ((2, 4), (5, 1))
    assert factor(1).factors == ()
    assert factor(3**6 - 1).factors == ((2, 3), (7, 1), (13, 1))
    assert factor(-12) .sign == -1


@pytest.mark.parametrize("n", list(range(1, 400)) + [2**40, 3**20 * 7, 10**6 + 3])
def test_factor_roundtrip(n):
    fz = factor(n)
    assert fz.value() == n
    assert dict(fz.factors) == trial_division_oracle(n)


def test_factor_budget_error_names_cofactor():
    semiprime = 1_000_003 * 1_000_033
    with pytest.raises(FactoringBudgetError) as err:
        factor(semiprime * 4, budget=10**6)
    assert err.value.cofactor == semiprime
    assert str(semiprime) in str(err.value)


def test_factor_smooth_beyond_budget_succeeds():
    # budget limits the trial horizon, not the magnitude of smooth input
    assert factor(2**100, budget=10**6).value() == 2**100


def test_factor_tiny_budget_still_tries_2_3_5():
    # isqrt(1) = 1, yet the wheel primes are findable whatever the horizon
    assert factor(12, budget=1).factors == ((2, 2), (3, 1))
    with pytest.raises(FactoringBudgetError) as err:
        factor(2 * 49, budget=1)
    assert err.value.cofactor == 49


def _prime_at_most(n):
    while n >= 2 and not kernel.is_prime(n):
        n -= 1
    return n if n >= 2 else 2


def _prime_above(n):
    n += 1
    while not kernel.is_prime(n):
        n += 1
    return n


# horizons 1, 1, 3, 7, 30, 500, 997 and 997, below SMALL_PRIME_BOUND, so the
# small primes leave no prime within the horizon before rho runs; then 1000 up
ORACLE_BUDGETS = (
    1, 2, 10, 49, 30**2, 500**2, 997**2, 998**2 - 1, 10**6, 1009**2, 10**12, 10**13,
)


@st.composite
def _factor_cases(draw):
    """(n, budget): n a signed product of up to four prime powers drawn around
    the horizon isqrt(budget), below it, above it, or past CERTIFIED_LIMIT
    together."""
    budget = draw(st.sampled_from(ORACLE_BUDGETS))
    horizon = isqrt(budget)
    if draw(st.booleans()):
        # the budget edge itself: p one above, or at, the horizon
        p = _prime_above(draw(st.integers(1, 3 * 10**6)))
        budget = p * p - draw(st.sampled_from((1, 0)))
        horizon = isqrt(budget)
    edge = st.sampled_from(
        (_prime_at_most(horizon - 1), _prime_at_most(horizon), _prime_above(horizon))
    )
    below = st.integers(2, max(2, horizon)).map(_prime_at_most)
    above = st.integers(horizon, 3 * horizon + 1000).map(_prime_above)
    small = st.sampled_from(kernel.SMALL_PRIMES[:30])
    prime = st.one_of(edge, below, above, small)
    n = 1
    for _ in range(draw(st.integers(0, 4))):
        n *= draw(prime) ** draw(st.sampled_from((1, 1, 2, 3)))
    if draw(st.integers(0, 9)) == 0:
        # two primes whose product reaches CERTIFIED_LIMIT
        big = st.integers(2 * 10**12, 10**13).map(_prime_above)
        n *= draw(big) * draw(big)
    return draw(st.sampled_from((1, -1))) * n, budget


def _factor_or_error(factorize, n, budget):
    arith._factor_positive.cache_clear()
    try:
        return "factored", factorize(n, budget)
    except FactoringBudgetError as exc:
        return "raised", exc.cofactor, exc.budget, str(exc)


def _check_against_oracle(case):
    n, budget = case
    got = _factor_or_error(lambda n, b: factor(n, b).factors, n, budget)
    want = _factor_or_error(trial_factor_oracle, abs(n), budget)
    assert got == want
    if want[0] == "factored":
        assert factor(n, budget).value() == n


@settings(max_examples=225, derandomize=True, deadline=None)
@given(_factor_cases())
def test_factor_matches_trial_division_oracle(case):
    _check_against_oracle(case)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_factor_cases())
def test_factor_without_rho_matches_trial_division_oracle(case):
    # rho giving up at once sends every piece through the trial-division fallback
    with mock.patch.object(kernel, "rho_split", lambda n, cap: 0):
        _check_against_oracle(case)
    arith._factor_positive.cache_clear()


@pytest.mark.parametrize(
    "n,budget",
    [
        (1009 * 1013, 10**6),  # two primes just above the horizon
        (1009 * 1013 * 1019, 10**6),  # three
        (1009**2 * 1013, 1009**2),  # a horizon just past the trial-divided primes
        (1_000_003 * 1_000_033 * 4, 10**12),
        (3_162_277**2 * 3_162_283, 10**13),  # at the horizon, and one above
        ((10**13 + 37) * (10**13 + 51), 10**6),  # cofactor >= CERTIFIED_LIMIT
        (2**89 - 1, 10**6),  # a prime past CERTIFIED_LIMIT
    ],
)
def test_factor_budget_edge_matches_oracle(n, budget):
    _check_against_oracle((n, budget))


# --- unit equations ----------------------------------------------------------


def unit_eq_oracle(S, bound):
    """Brute force over all reduced rationals supported on S in the box."""
    from math import gcd

    limit = 1
    for p in S.primes:
        limit *= p**bound
    sols = set()
    for den in range(1, limit + 1):
        for num in range(-limit, limit + 1):
            if num == 0 or gcd(num, den) != 1:
                continue
            u = F(num, den)
            if not is_s_unit(S, u):
                continue
            if any(abs(ord_at(p, u)) > bound for p in S.primes):
                continue
            v = 1 - u
            if is_s_unit(S, v):
                sols.add((u, v))
    return sorted(
        sols, key=lambda t: (t[0].numerator, t[0].denominator, t[1].numerator, t[1].denominator)
    )


def test_unit_equation_examples():
    sols1 = unit_equation_solutions(S23, 1)
    assert (F(2), F(-1)) in sols1
    sols2 = unit_equation_solutions(S23, 2)
    assert (F(9), F(-8)) in sols2
    assert (F(1, 2), F(1, 2)) in sols2


def test_unit_equation_s5_matches_bruteforce():
    assert unit_equation_solutions(S5, 1) == unit_eq_oracle(S5, 1)
    # 36 candidate pairs from {±1, ±5, ±1/5}; none of them sums to 1
    assert unit_equation_solutions(S5, 1) == []


def test_unit_equation_small_matches_bruteforce():
    assert unit_equation_solutions(S23, 2) == unit_eq_oracle(S23, 2)


def test_unit_equation_sorted_and_unique():
    sols = unit_equation_solutions(S23, 3)
    keys = [(u.numerator, u.denominator) for u, _ in sols]
    assert keys == sorted(keys)
    assert len(set(sols)) == len(sols)


def test_unit_equation_symmetries():
    bound = 3
    sols = set(unit_equation_solutions(S23, bound))

    def within(u):
        return all(abs(ord_at(p, u)) <= bound for p in S23.primes)

    for u, v in sols:
        if within(v):
            assert (v, u) in sols
        image = (1 / u, -v / u)
        assert image[0] + image[1] == 1
        if within(image[0]):
            assert image in sols


def test_unit_equation_rejects_negative_bound():
    with pytest.raises(ValueError):
        unit_equation_solutions(S23, -1)
