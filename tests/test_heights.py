"""Measurement layer: heights, counting functions, exact log comparisons."""

import math
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from urskit import _kernel, arith, heights, subspace
from urskit.arith import (
    TRIAL_BOUND,
    FactoringBudgetError,
    SContext,
    factor,
    is_s_integer,
    non_s_part,
    truncated_radical,
)
from urskit.heights import (
    EQUAL,
    GREATER,
    LESS,
    Magnitude,
    ScaledLog,
    cmp_powers,
    cmp_scaled,
    counting,
    counting_trunc,
    display_log,
    height,
)
from urskit.subspace import LinearFormSystem, evaluate_conjecture

S23 = SContext.of([2, 3])

s23_integers = st.builds(
    lambda num, d2, d3: F(num, 2**d2 * 3**d3),
    st.integers(min_value=-10**4, max_value=10**4).filter(lambda n: n != 0),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
)


def test_magnitude_invariants():
    assert Magnitude(1).is_zero_quantity
    with pytest.raises(ValueError):
        Magnitude(0)
    assert Magnitude(6) * Magnitude(4) == Magnitude(24)
    assert Magnitude(5).pow(3) == Magnitude(125)
    assert Magnitude(5).divides(Magnitude(25))
    assert not Magnitude(7).divides(Magnitude(25))


@pytest.mark.parametrize(
    "x,expected",
    [(F(1), 1), (F(3, 2), 3), (F(-81, 80), 81), (F(0), 1), (-12, 12)],
)
def test_height_examples(x, expected):
    assert height(x) == Magnitude(expected)


@pytest.mark.parametrize(
    "x,expected",
    [(F(10), 5), (F(8, 9), 1), (F(50), 25), (-50, 25)],
)
def test_counting_examples(x, expected):
    assert counting(S23, x) == Magnitude(expected)


def test_counting_zero_error():
    with pytest.raises(ValueError, match="counting function undefined at zero"):
        counting(S23, F(0))
    with pytest.raises(ValueError, match="counting function undefined at zero"):
        counting_trunc(S23, 1, F(0))


@pytest.mark.parametrize(
    "x", [1_000_003 * 1_000_033, F(1_000_003 * 1_000_033, 8)], ids=["int", "fraction"]
)
def test_counting_budget_error(x):
    # the untruncated count is the non-S part, exact without factoring; only
    # the truncated count needs the primes, so only it meets the budget
    small = SContext.of([2], factoring_budget=10**6)
    assert counting(small, x) == Magnitude(1_000_003 * 1_000_033)
    with pytest.raises(FactoringBudgetError):
        counting_trunc(small, 1, x)


@settings(max_examples=300, derandomize=True)
@given(
    st.integers(min_value=-10**14, max_value=10**14).filter(lambda n: n != 0),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=10**4),
)
def test_counting_is_the_factored_non_s_part(num, k, den):
    # a horizon of 10^4 leaves many of these numerators unfactorable
    small = SContext.of([2, 3], factoring_budget=10**8)
    x = F(num * 6**k, den)
    try:
        fz = factor(non_s_part(small, x)[0], small.factoring_budget)
    except FactoringBudgetError:
        assume(False)
    assert counting(small, x) == Magnitude(math.prod(p**e for p, e in fz.factors))


@pytest.mark.parametrize(
    "level,x,expected",
    [(1, F(50), 5), (2, F(1000), 25), (3, F(1), 1), (7, F(1), 1), (2, 1000, 25)],
)
def test_counting_trunc_examples(level, x, expected):
    assert counting_trunc(S23, level, x) == Magnitude(expected)


def test_counting_trunc_factors_nothing_at_an_s_unit(monkeypatch):
    def no_factoring(*args):
        raise AssertionError(f"truncated_radical called on {args}")

    monkeypatch.setattr(heights, "truncated_radical", no_factoring)
    for x in (F(1), F(-1), F(6), F(-8, 27), F(1, 35), 12):
        assert counting_trunc(S23, 2, x) == Magnitude(1)
    with pytest.raises(AssertionError, match="truncated_radical called"):
        counting_trunc(S23, 2, F(10))


def _factored_counting_trunc(S, level, x):
    """The truncated count with the non-S part always factored, even when it
    is 1."""
    non_s = non_s_part(S, F(x))[0]
    fz = factor(non_s, S.factoring_budget)
    return Magnitude(math.prod(p ** min(e, level) for p, e in fz.factors))


@settings(max_examples=300, derandomize=True)
@given(
    st.sampled_from([1, 1, 5, 25, 7 * 49, 1_000_003]),
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=1, max_value=10**4),
    st.booleans(),
    st.integers(min_value=1, max_value=4),
)
def test_counting_trunc_matches_always_factoring(cofactor, i, j, den, negative, level):
    # mostly S-units (cofactor 1), where the count skips factoring
    x = F(cofactor) * F(2) ** i * F(3) ** j / den * (-1 if negative else 1)
    assert counting_trunc(S23, level, x) == _factored_counting_trunc(S23, level, x)


def _outcome(count, *args):
    """A count's value, or the cofactor and budget of its FactoringBudgetError."""
    try:
        return count(*args)
    except FactoringBudgetError as exc:
        return exc.cofactor, exc.budget


def _radical_outcomes(n, level, budget):
    """truncated_radical and the factoring oracle, each on a cold factor cache."""
    arith._factor_positive.cache_clear()
    fast = _outcome(lambda: Magnitude(truncated_radical(n, level, budget)))
    arith._factor_positive.cache_clear()
    slow = _outcome(_factored_counting_trunc, SContext(factoring_budget=budget), level, n)
    return fast, slow


# primes below each stage bound of `truncated_radical` (10^3 and 10^4), the
# largest included; the first primes above each bound; and primes on to 10^6,
# past the horizons 10^3 and ~10^4 of budgets 10^6 and 10^8, and on to 10^12,
# past every horizon here
_TRIAL = (2, 3, 5, 7, 11, 97, 991, 997, 9967, 9973)
_JUST_ABOVE = ((1009, 1013, 1019, 1021), (10007, 10009, 10037, 10039))
_NEAR = _JUST_ABOVE[0] + _JUST_ABOVE[1] + (65537, 999983, 1_000_003)
_FAR = (999_999_937, 10**12 + 39)
# each stage's budget threshold and the budget below it, then larger budgets
_BUDGETS = (10**6 - 1, 10**6, 10**8 - 1, 10**8, 10**12, 10**13)


@st.composite
def _trial_part_and_u(draw, primes=_NEAR + _FAR):
    """(level, trial part, U): a part with primes below TRIAL_BOUND, and a U
    made of primes above a stage bound, shaped after the edges of the root
    test."""
    level = draw(st.integers(1, 4))
    trial = st.sets(st.sampled_from(_TRIAL), max_size=3)
    small = math.prod(p ** draw(st.integers(0, 6)) for p in draw(trial))
    p, q = draw(st.sampled_from(primes)), draw(st.sampled_from(primes))
    above = draw(st.sampled_from(_JUST_ABOVE))
    u = draw(st.sampled_from([
        1, p, p * q, p ** (level + 1), p**level * q, p ** (level + 2),
        # level + 1 and level + 2 primes just above a stage bound B: the most
        # prime factors a U below B**(level + 2) can have, and the fewest a
        # U above it can have
        math.prod(above[i % 4] for i in range(level + 1)),
        math.prod(above[i % 4] for i in range(level + 2)),
    ]))
    return level, small, u


@settings(max_examples=600, derandomize=True, deadline=None)
@given(_trial_part_and_u(), st.sampled_from(_BUDGETS))
def test_truncated_radical_matches_factoring(case, budget):
    level, small, u = case
    fast, slow = _radical_outcomes(small * u, level, budget)
    assert fast == slow


@pytest.mark.parametrize("budget", _BUDGETS)
@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_truncated_radical_at_the_root_test_bound(level, budget):
    # B**(level + 2) and the number below it, each as n, for each stage bound B
    for bound in (1000, TRIAL_BOUND):
        for n in (bound ** (level + 2) - 1, bound ** (level + 2)):
            fast, slow = _radical_outcomes(n, level, budget)
            assert fast == slow


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_trial_part_and_u(primes=_NEAR), st.integers(0, 1))
def test_truncated_radical_at_the_budget_edge(case, above):
    # U at the budget, and at the budget + 1
    level, small, u = case
    assume(u > above)
    fast, slow = _radical_outcomes(small * u, level, u - above)
    assert fast == slow


def test_truncated_radical_factors_past_the_certified_range(monkeypatch):
    # at level 5, U = psi_13 = 1287836182261 * 2575672364521 passes every gate
    # of the last stage but the certified range, where `factor` cannot prove
    # a prime; it goes to `factor`, stood in for here, since factoring it
    # would take seconds
    u = _kernel.CERTIFIED_LIMIT
    assert u == 1287836182261 * 2575672364521 < TRIAL_BOUND**7
    factored = []
    monkeypatch.setattr(arith, "factor", lambda n, budget: factored.append(n) or factor(1))
    assert truncated_radical(7 * u, 5, u) == 1
    assert factored == [7 * u]


_MIDDLE_PRIMES = tuple(p for p in _kernel._primes_below(10**6) if p > 10**4)


@settings(max_examples=100, derandomize=True)
@given(st.sampled_from(_MIDDLE_PRIMES), st.sampled_from(_MIDDLE_PRIMES), st.integers(1, 3))
def test_truncated_radical_needs_no_rho_below_the_gates(p, q, level):
    # p*q < 10^12 <= TRIAL_BOUND**(level + 2) and <= the budget 10^13, so the
    # root test decides: no Miller-Rabin, no rho, no trial division
    def kernel_called(*args):
        raise AssertionError(f"kernel called on {args}")

    arith._factor_positive.cache_clear()
    S = SContext.of([2, 3], factoring_budget=10**13)
    with pytest.MonkeyPatch.context() as mp:
        for name in ("rho_split", "is_prime", "smallest_factor_below"):
            mp.setattr(_kernel, name, kernel_called)
        count = counting_trunc(S, level, F(p * q, 7))
        square = counting_trunc(S, level, F(-(p**2)))
    assert count == Magnitude(p * q if p != q else p ** min(2, level))
    assert square == Magnitude(p ** min(2, level))


@settings(max_examples=300, derandomize=True)
@given(s23_integers)
def test_monotone_truncation(x):
    full = counting(S23, x)
    prev = counting_trunc(S23, 1, x)
    assert prev.divides(full)
    for level in (2, 3, 5):
        cur = counting_trunc(S23, level, x)
        assert prev.divides(cur)
        assert cur.divides(full)
        prev = cur
    # once the level clears every exponent, truncation is the full count
    assert counting_trunc(S23, 64, x) == full


@settings(max_examples=200, derandomize=True)
@given(s23_integers, st.integers(min_value=1, max_value=6))
def test_power_law(x, k):
    assert counting_trunc(S23, 1, x**k) == counting_trunc(S23, 1, x)


@settings(max_examples=200, derandomize=True)
@given(s23_integers, s23_integers)
def test_additivity_on_s_integers(x, y):
    assert counting(S23, x * y) == counting(S23, x) * counting(S23, y)
    for level in (1, 2):
        prod = counting_trunc(S23, level, x) * counting_trunc(S23, level, y)
        assert counting_trunc(S23, level, x * y) <= prod


@settings(max_examples=300, derandomize=True)
@given(s23_integers)
def test_counting_bounded_by_height(x):
    assert is_s_integer(S23, x)
    assert counting(S23, x) <= height(x)


@settings(max_examples=300, derandomize=True)
@given(
    st.fractions(max_denominator=1000).filter(lambda q: q != 0),
    st.fractions(max_denominator=1000).filter(lambda q: q != 0),
)
def test_quotient_height_law(s, t):
    assert height(s / t).value <= (height(s) * height(t)).value


@pytest.mark.parametrize(
    "a,A,b,B,expected",
    [
        (1, 8, 3, 2, EQUAL),
        (F(1, 2), 9, 1, 3, EQUAL),
        (F(9, 10), 81, 1, 5, GREATER),
        (1, 5, 1, 6, LESS),
        (0, 100, 0, 7, EQUAL),
        (2, 1, 0, 9, EQUAL),
    ],
)
def test_cmp_scaled_examples(a, A, b, B, expected):
    assert cmp_scaled(ScaledLog.of(a, A), ScaledLog.of(b, B)) == expected


def test_cmp_scaled_rejects_negative_coefficient():
    with pytest.raises(ValueError):
        ScaledLog.of(-1, 2)


def test_cmp_scaled_against_mpmath():
    rng = random.Random(20260809)
    mpmath.mp.dps = 50
    ties = disagreements = 0
    for _ in range(2000):
        a = F(rng.randint(0, 40), rng.randint(1, 12))
        b = F(rng.randint(0, 40), rng.randint(1, 12))
        A = rng.randint(1, 10**6)
        B = rng.randint(1, 10**6)
        verdict = cmp_scaled(ScaledLog.of(a, A), ScaledLog.of(b, B))
        diff = mpmath.mpf(a.numerator) / a.denominator * mpmath.log(A) - mpmath.mpf(
            b.numerator
        ) / b.denominator * mpmath.log(B)
        if abs(diff) < mpmath.mpf("1e-40"):
            ties += 1
            assert verdict == EQUAL
        else:
            disagreements += verdict != (1 if diff > 0 else -1)
    assert disagreements == 0


def test_exact_tie_characterization():
    # ties happen exactly when A^(a d) == B^(b d)
    assert cmp_scaled(ScaledLog.of(F(2, 3), 27), ScaledLog.of(2, 3)) == EQUAL
    assert cmp_scaled(ScaledLog.of(F(2, 3), 27), ScaledLog.of(F(2), 3)) == EQUAL
    assert cmp_scaled(ScaledLog.of(F(3, 2), 4), ScaledLog.of(3, 2)) == EQUAL


def _cmp_exact(lhs, rhs):
    """The oracle: the order of A**(a*d) and B**(b*d), built as integers."""
    a, b = lhs.coefficient, rhs.coefficient
    d = math.lcm(a.denominator, b.denominator)
    ea = int(a * d)
    eb = int(b * d)
    return _pow_order(lhs.base.value, ea, rhs.base.value, eb)


def _pow_order(A, ea, B, eb):
    """The order of A**ea and B**eb, built as integers except on equal
    bases, where the larger exponent wins unless the base is 1."""
    if A == B:
        return EQUAL if A == 1 else (ea > eb) - (ea < eb)
    left, right = A**ea, B**eb
    return (left > right) - (left < right)


# Oracle cases for cmp_scaled, each kept to at most ~2*10^5 power bits so the
# exact comparison stays affordable.  LARGE is a power size in bits past which
# building the powers is the slow way to decide.
LARGE = 1 << 14


@st.composite
def near_ties(draw):
    """(1 - 1/D) log A against log B with B within 3 of A: bit lengths below D
    leave these to the exact powers."""
    la = draw(st.integers(min_value=20, max_value=100))
    D = draw(st.integers(min_value=LARGE // (2 * la) + 1, max_value=1000))
    A = draw(st.integers(min_value=2 ** (la - 1), max_value=2**la - 1))
    B = A + draw(st.integers(min_value=-3, max_value=3))
    return (1 - F(1, D), A), (1, B)


@st.composite
def exact_ties(draw):
    """C^s and C^t with coefficients in ratio t : s, with powers above LARGE
    bits, exact or nudged by 1/D."""
    C = draw(st.integers(min_value=2, max_value=30))
    s = draw(st.integers(min_value=1, max_value=8))
    t = draw(st.integers(min_value=1, max_value=8).filter(lambda t: t != s))
    A, B = C**s, C**t
    q = draw(st.sampled_from([1, 7, 11, 13]))
    # m prime to q keeps d = q, so the powers hold m*(t*len(A) + s*len(B)) bits
    m = LARGE // (t * A.bit_length() + s * B.bit_length()) + draw(st.integers(1, 5))
    if q > 1 and m % q == 0:
        m += 1
    D = draw(st.integers(min_value=2, max_value=12))
    nudge = draw(st.sampled_from([0, F(1, D), -F(1, D)]))
    return (F(t * m, q) + nudge, A), (F(s * m, q), B)


@st.composite
def bracket_edges(draw):
    """Exponents ea, eb and bit lengths la, lb with ea*(la-1) - eb*lb in
    {-1, 0, 1}: the bit-length bracket decides at 0 and 1, and only just
    fails at -1.  The test also runs each case mirrored."""
    la = draw(st.integers(min_value=2, max_value=120))
    ea = draw(st.integers(min_value=1, max_value=150))
    target = ea * (la - 1) - draw(st.sampled_from([-1, 0, 1]))
    eb = draw(st.sampled_from([k for k in range(1, 150) if target % k == 0]))
    lb = target // eb
    assume(lb >= 2)
    A = draw(st.integers(min_value=2 ** (la - 1), max_value=2**la - 1))
    B = draw(st.integers(min_value=2 ** (lb - 1), max_value=2**lb - 1))
    q = draw(st.integers(min_value=1, max_value=5))
    return (F(ea, q), A), (F(eb, q), B)


@st.composite
def small_operands(draw):
    """Bases below 2^20 and exponents below 64, with a common denominator q."""
    q = draw(st.integers(min_value=1, max_value=8))
    exponent = st.integers(min_value=0, max_value=63)
    base = st.integers(min_value=1, max_value=2**20 - 1)
    return (F(draw(exponent), q), draw(base)), (F(draw(exponent), q), draw(base))


@st.composite
def same_bases(draw):
    A = draw(st.integers(min_value=1, max_value=2**64))
    a = draw(st.fractions(min_value=0, max_value=10**4, max_denominator=10**4))
    b = draw(st.fractions(min_value=0, max_value=10**4, max_denominator=10**4))
    return (a, A), (b, A)


@st.composite
def zero_quantities(draw):
    """A zero side (coefficient 0 or base 1) against a side, with powers above
    LARGE bits in total."""
    if draw(st.booleans()):
        zero = (0, draw(st.integers(min_value=2, max_value=2**100)))
    else:
        zero = (draw(st.integers(min_value=1, max_value=LARGE)), 1)
    b = draw(st.integers(min_value=0, max_value=20000))
    B = draw(st.sampled_from([1, draw(st.integers(min_value=2, max_value=2**10))]))
    assume(b * B.bit_length() + zero[0] * zero[1].bit_length() > LARGE)
    return zero, (b, B)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(
    st.one_of(
        near_ties(), exact_ties(), bracket_edges(), small_operands(), same_bases(),
        zero_quantities(),
    )
)
def test_cmp_scaled_matches_exact_powers(case):
    lhs, rhs = (ScaledLog.of(c, n) for c, n in case)
    assert cmp_scaled(lhs, rhs) == _cmp_exact(lhs, rhs)
    assert cmp_scaled(rhs, lhs) == _cmp_exact(rhs, lhs)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(
    st.one_of(
        near_ties(), exact_ties(), bracket_edges(), small_operands(), same_bases(),
        zero_quantities(),
    )
)
def test_cmp_powers_matches_exact_powers(case):
    # the same cases as cmp_scaled's, on the exponents over their common
    # denominator
    (a, A), (b, B) = ((F(c), n) for c, n in case)
    d = math.lcm(a.denominator, b.denominator)
    ea, eb = int(a * d), int(b * d)
    assert cmp_powers(A, ea, B, eb) == _pow_order(A, ea, B, eb)
    assert cmp_powers(B, eb, A, ea) == _pow_order(B, eb, A, ea)


@pytest.mark.parametrize(
    "A,ea,B,eb,expected",
    [
        # zero exponents
        (5, 0, 7, 0, EQUAL),
        (5, 0, 7, 3, LESS),
        (5, 3, 7, 0, GREATER),
        # a base of 1
        (1, 9, 7, 3, LESS),
        (7, 3, 1, 9, GREATER),
        (1, 5, 1, 9, EQUAL),
        (1, 5, 7, 0, EQUAL),
        # equal bases
        (9, 4, 9, 5, LESS),
        (9, 5, 9, 5, EQUAL),
        (9, 6, 9, 5, GREATER),
        # the bit-length bracket, both directions: 133 bits against 130
        (10**40, 10**3 - 1, 10**39, 10**3, GREATER),
        (10**39, 10**3, 10**40, 10**3 - 1, LESS),
        # left to the powers: 9 > 8, 64 = 64, 2^5 < 3^4
        (3, 2, 2, 3, GREATER),
        (8, 2, 4, 3, EQUAL),
        (2, 5, 3, 4, LESS),
    ],
)
def test_cmp_powers_examples(A, ea, B, eb, expected):
    assert cmp_powers(A, ea, B, eb) == expected == _pow_order(A, ea, B, eb)
    assert cmp_powers(B, eb, A, ea) == -expected


class NoPowers(int):
    """A base that fails the test if cmp_scaled or cmp_powers raises it to a
    power."""

    def __pow__(self, exponent, modulo=None):
        raise AssertionError(f"cmp_scaled built {int(self)}**{exponent}")


class CountedPowers(int):
    """A base that counts the powers cmp_scaled builds of it."""

    built = 0

    def __pow__(self, exponent, modulo=None):
        self.built += 1
        return pow(int(self), exponent, modulo)


@pytest.mark.parametrize(
    "lhs,rhs,expected",
    [
        # the bit-length bounds: 10^6 * 133 bits would be built otherwise
        ((1 - F(1, 10**6), 10**40), (1, 10**39), GREATER),
        ((1, 10**39), (1 - F(1, 10**6), 10**40), LESS),
        # zero quantities, whatever the other side's power size
        ((0, 10**40), (20000, 1), EQUAL),
        ((0, 10**40), (F(20000, 7), 3), LESS),
    ],
)
def test_cmp_scaled_builds_no_big_power(lhs, rhs, expected):
    (a, A), (b, B) = lhs, rhs
    verdict = cmp_scaled(ScaledLog.of(a, NoPowers(A)), ScaledLog.of(b, NoPowers(B)))
    assert verdict == expected


@pytest.mark.parametrize(
    "A,ea,B,eb,expected",
    [
        # the bracket: 10^6 * 133 bits would be built otherwise
        (10**40, 10**6 - 1, 10**39, 10**6, GREATER),
        (10**39, 10**6, 10**40, 10**6 - 1, LESS),
        # zero quantities and equal bases, whatever the exponents
        (10**40, 0, 3, 10**6, LESS),
        (1, 10**6, 10**40, 10**6, LESS),
        (10**40, 10**6, 10**40, 10**6 + 1, LESS),
    ],
)
def test_cmp_powers_builds_no_big_power(A, ea, B, eb, expected):
    assert cmp_powers(NoPowers(A), ea, NoPowers(B), eb) == expected


def test_fine_epsilon_point_builds_no_big_power(monkeypatch):
    # a fine-eps benchmark point: 31-smooth coordinates of height in
    # [2^13, 10^4], three truncated counts with a 32-bit product, eps 1/10^5
    def no_powers(A, ea, B, eb):
        return cmp_powers(NoPowers(A), ea, NoPowers(B), eb)

    monkeypatch.setattr(subspace, "cmp_powers", no_powers)
    forms = LinearFormSystem.of(1, [[1, 0], [0, 1], [1, 1]])
    S = SContext.of([2, 3])
    (row,) = evaluate_conjecture(S, forms, F(1, 10**5), [[F(9918), F(-9269)]])
    assert row.rhs.value.bit_length() == 32
    assert row.verdict == "holds"


def test_cmp_scaled_falls_back_on_equal_bit_lengths():
    # log(2^k + 1) vs log(2^k): the bit-length bounds cannot separate them,
    # so each side's power is built, once
    k = LARGE // 2
    A, B = CountedPowers(2**k + 1), CountedPowers(2**k)
    assert cmp_scaled(ScaledLog.of(1, A), ScaledLog.of(1, B)) == GREATER
    assert (A.built, B.built) == (1, 1)


@pytest.mark.parametrize(
    "value,digits,expected",
    [(1, 3, "0.000"), (5, 4, "1.6094"), (81, 4, "4.3944")],
)
def test_display_log(value, digits, expected):
    assert display_log(Magnitude(value), digits) == expected


def test_display_log_handles_wide_integers():
    assert display_log(Magnitude(2**5000), 2) == f"{5000 * 0.6931471805599453:.2f}"


@pytest.mark.parametrize("digits", [0, -1])
@pytest.mark.parametrize(
    "show",
    [
        lambda d: display_log(Magnitude(3), d),
        lambda d: Magnitude(3).log_display(d),
        lambda d: ScaledLog(F(1), Magnitude(3)).log_display(d),  # the float path
        lambda d: ScaledLog(F(10**400), Magnitude(2)).log_display(d),  # past its range
    ],
    ids=["display_log", "magnitude", "scaled_log_float", "scaled_log_past_float"],
)
def test_log_display_rejects_digits_below_one(show, digits):
    with pytest.raises(ValueError, match="digits must be >= 1"):
        show(digits)


def test_scaled_log_display_past_the_float_range():
    log2 = F(math.log(2))  # the float log that the display rounds from
    # within the float range the float's own decimal expansion is kept
    assert ScaledLog(F(10**300), Magnitude(2)).log_display() == f"{1e300 * math.log(2):.6f}"
    # 10^400 * log2 is an integer: log2 is a float, so its denominator is a
    # power of 2 that divides 10^400
    assert ScaledLog(F(10**400), Magnitude(2)).log_display() == f"{log2 * 10**400}.000000"
    # the coefficient's float overflows, or only its product with the log does
    for coefficient in (F(10**400, 3), F(10**308)):
        for digits in (1, 6, 17):
            text = ScaledLog(coefficient, Magnitude(7)).log_display(digits)
            assert len(text.split(".")[1]) == digits
            exact = coefficient * F(math.log(7))
            assert abs(F(text) - exact) <= F(1, 2 * 10**digits)
