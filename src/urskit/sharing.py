"""Operational S-unit sharing: per-pair quotient certificates, valuation
profile cross-checks, and hash-join pair search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, combinations
from math import gcd, prod

from .arith import (
    SContext,
    UrskitError,
    _strip_supported,
    is_s_integer,
    non_s_ord_profile,
    rational_str,
)
from .polys import RatPoly


class SearchBudgetError(UrskitError):
    """A pair search's n*(n-1) candidate pairs exceed its budget; raised
    before the box is built or P evaluated, so there is no partial result."""

    def __init__(self, message: str, total: int, budget: int):
        self.total = total
        self.budget = budget
        super().__init__(f"{message}: {total} candidate pairs > pair budget {budget}")


@dataclass(frozen=True)
class SharePoint:
    """Sharing certificate for one pair: u = P(x)/P(y) and its S-unit verdict.

    u is None when it is not determined by the pair (both values vanish, or
    only P(y) does).
    """

    x: Fraction
    y: Fraction
    u: Fraction | None
    shares: bool


def share_key(S: SContext, P: RatPoly):
    """key(num, den) = non_s_part(S, num/den), or None when num = 0, for
    num/den = P.evaluate_unreduced at an S-integer: its den is L times an
    S-product, so the non-S part of den is that of L whatever the point.
    Two values share exactly when their keys are equal (both vanishing too)."""
    primes = S.primes
    s_den = _strip_supported(P.coefficient_denominator_lcm(), primes)
    def key(num, den):
        if num == 0:
            return None
        s_num = _strip_supported(abs(num), primes)
        h = gcd(s_num, s_den)
        return s_num // h, s_den // h

    return key


def _keyed_value(S: SContext, P: RatPoly, key, name: str, v):
    """(v, P(v), key of P(v)) for the S-integer v, from one evaluation;
    a v that is not an S-integer raises ValueError naming it as `name`."""
    # Fraction() of a Fraction goes through its slow ABC checks
    v = v if type(v) is Fraction else Fraction(v)
    if not is_s_integer(S, v):
        raise ValueError(f"{name} = {rational_str(v)} is not an S-integer for S = {S}")
    num, den = P.evaluate_unreduced(v.numerator, v.denominator)
    return v, Fraction(num, den), key(num, den)


def share_check(S: SContext, P: RatPoly, x: Fraction, y: Fraction) -> SharePoint:
    """Decide whether the pair shares the zero set of P outside S: whether
    P(x) and P(y) have the same share_key."""
    key = share_key(S, P)
    x, px, kx = _keyed_value(S, P, key, "x", x)
    y, py, ky = _keyed_value(S, P, key, "y", y)
    return SharePoint(x, y, None if py == 0 else px / py, kx == ky)


def ord_profile_equal(S: SContext, P: RatPoly, x: Fraction, y: Fraction) -> bool:
    """True iff ord_p(P(x)) = ord_p(P(y)) for every prime p outside S.

    Independent of share_check: compares full valuation profiles computed by
    factoring the non-S parts of both values.
    """
    px = P.evaluate(x)
    py = P.evaluate(y)
    if px == 0 or py == 0:
        raise ValueError(
            "valuation profile undefined at a vanishing value; "
            "use share_check's vanishing convention"
        )
    return non_s_ord_profile(S, px) == non_s_ord_profile(S, py)


def _box_denominators(
    S: SContext, height_bound: int, denom_exponent_bound: int
) -> list[int]:
    """The denominators of s_integer_box, increasing: S-products d <= the
    height bound whose S-exponents are <= the exponent bound, found without
    passing the height bound, whatever the exponent bound."""
    if height_bound < 0 or denom_exponent_bound < 0:
        raise ValueError("bounds must be nonnegative")
    denominators = [1]
    for p in S.primes:
        for d in denominators[:]:
            for _ in range(denom_exponent_bound):
                d *= p
                if d > height_bound:
                    break
                denominators.append(d)
    return sorted(d for d in denominators if d <= height_bound)


def _box_points(S: SContext, height_bound: int, denom_exponent_bound: int):
    """The points (a, d) of s_integer_box, a/d in lowest terms with d > 0,
    in its order: by a, then by d."""
    ds, H = _box_denominators(S, height_bound, denom_exponent_bound), height_bound
    return ((a, d) for a in range(-H, H + 1) for d in ds if gcd(a, d) == 1)


def s_integer_box(
    S: SContext, height_bound: int, denom_exponent_bound: int
) -> list[Fraction]:
    """All S-integers of height <= bound whose denominator S-exponents are
    <= the given bound, sorted by (numerator, denominator)."""
    return [Fraction(a, d) for a, d in _box_points(S, height_bound, denom_exponent_bound)]


def _box_size(S: SContext, height_bound: int, denom_exponent_bound: int) -> int:
    """len(s_integer_box(...)) without building it: for each denominator d,
    the numerators 0 < |a| <= H prime to d number 2*sum over T of the primes
    of d of (-1)^|T| * floor(H / prod T), and d = 1 also takes a = 0."""
    size = 0
    for d in _box_denominators(S, height_bound, denom_exponent_bound):
        ps = [p for p in S.primes if d % p == 0]
        size += d == 1
        for r in range(len(ps) + 1):
            for T in combinations(ps, r):
                size += 2 * (-1) ** r * (height_bound // prod(T))
    return size


def _column(P: RatPoly, H: int, d: int) -> tuple[list[int], int]:
    """(nums, den) with P(a/d) = nums[a + H]/den for a = -H, ..., H, as
    P.evaluate_unreduced(a, d) gives them.  With d fixed, num is an integer
    polynomial of degree n in a, so n + 1 Horner seeds fix its difference
    table, and each further value is n additions down that table (Knuth,
    TAOCP Vol. 2, 4.6.4), done by one accumulate pass per difference.  The
    zero polynomial, (0, 1) everywhere, and a constant are tabulated as
    degree 0, with no pass."""
    n = max(P.degree, 0)
    seeds = [P.evaluate_unreduced(a, d) for a in range(-H, min(-H + n, H) + 1)]
    den, row = seeds[0][1], [num for num, _ in seeds]
    if 2 * H <= n:
        return row, den
    for k in range(n):  # row[i] becomes the i-th difference at a = -H
        for i in range(n, k, -1):
            row[i] -= row[i - 1]
    nums = [row[n]] * (2 * H + 1 - n)
    for k in range(n - 1, -1, -1):
        nums = accumulate(nums, initial=row[k])
    return list(nums), den


def _pair_join(
    S, P, height_bound, denom_exponent_bound, pair_budget, key, partner_key, pair, what
):
    """pair(x, P(x), y, P(y)) for each ordered pair x != y of the S-integer
    box with partner_key(key(x)) == key(y), x-major in box order; key(x) is
    key(num, den) of P.evaluate_unreduced at x.

    The budget is decided from the box size alone: a negative pair_budget is
    rejected first, and a SearchBudgetError is raised when the n*(n-1)
    candidate pairs exceed pair_budget, with n counted in closed form before
    the box is enumerated or P evaluated.  Otherwise the box is enumerated
    as integer points (a, d), and P is evaluated on integers per column, by
    differences: _column tabulates num(a, d) for a = -H, ..., H once for each
    denominator d, from deg P + 1 Horner seeds and deg P additions per
    further value.  Each point (a, d, num, den) reads its value there, and
    the columns are dropped once read, so no value at a numerator not prime
    to d outlives them.  The Fractions x = a/d and P(x) are built from those
    integers only for values in a pair: the work is O(n + pairs emitted).
    """
    if pair_budget is not None and pair_budget < 0:
        raise ValueError("pair_budget must be >= 0")
    n = _box_size(S, height_bound, denom_exponent_bound)
    if pair_budget is not None and n * (n - 1) > pair_budget:
        raise SearchBudgetError(f"{what} budget exceeded", n * (n - 1), pair_budget)
    H = height_bound
    points = _box_points(S, H, denom_exponent_bound)
    columns = {d: _column(P, H, d) for d in _box_denominators(S, H, denom_exponent_bound)}
    box = [(a, d, nums[a + H], den) for a, d in points for nums, den in (columns[d],)]
    del columns  # the values at numerators not prime to d are not in the box
    keys = [key(num, den) for _, _, num, den in box]
    groups: dict = {}
    for j, k in enumerate(keys):
        groups.setdefault(k, []).append(j)

    @cache
    def value(i):
        a, d, num, den = box[i]
        return Fraction(a, d), Fraction(num, den)

    return [
        pair(*value(i), *value(j))
        for i, k in enumerate(keys)
        for j in groups.get(partner_key(k), ())
        if j != i
    ]


def search_shared_pairs(
    S: SContext,
    P: RatPoly,
    height_bound: int,
    denom_exponent_bound: int = 0,
    pair_budget: int | None = None,
) -> list[SharePoint]:
    """All sharing pairs (x, y), x != y, over the S-integer box.

    A hash join on share_key: only pairs within one group of the key are
    probed, and every probed pair shares, so each comes out as its
    SharePoint with shares=True and u = P(x)/P(y) (None when P(y) = 0),
    x-major in box order, with no S-unit test per pair.  The keys are
    computed on integers, from P evaluated per column of the box by
    differences; x, y, P(x) and P(y) are built as Fractions for the pairs
    found only.  When the box's n*(n-1) candidate pairs exceed
    pair_budget, a SearchBudgetError is raised before the box is enumerated
    or P evaluated; there is no partial result.
    """
    key = share_key(S, P)
    return _pair_join(
        S, P, height_bound, denom_exponent_bound, pair_budget, key, lambda k: k,
        lambda x, px, y, py: SharePoint(x, y, None if py == 0 else px / py, True),
        "shared-pair search",
    )
