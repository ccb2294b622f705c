"""Operational S-unit sharing: per-pair quotient certificates, valuation
profile cross-checks, and hash-join pair search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd, prod

from .arith import (
    SContext,
    UrskitError,
    _strip_supported,
    is_s_integer,
    is_s_unit,
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


def share_check(S: SContext, P: RatPoly, x: Fraction, y: Fraction) -> SharePoint:
    """Decide whether the pair shares the zero set of P outside S."""
    # Fraction() of a Fraction goes through its slow ABC checks
    x = x if type(x) is Fraction else Fraction(x)
    y = y if type(y) is Fraction else Fraction(y)
    for name, value in (("x", x), ("y", y)):
        if not is_s_integer(S, value):
            raise ValueError(
                f"{name} = {rational_str(value)} is not an S-integer for S = {S}"
            )
    return _share(S, x, P.evaluate(x), y, P.evaluate(y))


def _share(S: SContext, x, px, y, py) -> SharePoint:
    """The sharing verdict for the pair (x, y) with px = P(x), py = P(y).

    Vanishing convention: if both P(x) and P(y) vanish the pair shares with u
    undetermined; if exactly one vanishes it does not share.
    """
    if py == 0:
        return SharePoint(x, y, None, px == 0)
    u = px / py
    return SharePoint(x, y, u, is_s_unit(S, u))


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
    height bound whose S-exponents are <= the exponent bound."""
    if height_bound < 0 or denom_exponent_bound < 0:
        raise ValueError("bounds must be nonnegative")
    denominators = {1}
    for p in S.primes:
        denominators = {
            d * p**e for d in denominators for e in range(denom_exponent_bound + 1)
        }
    return sorted(d for d in denominators if d <= height_bound)


def s_integer_box(
    S: SContext, height_bound: int, denom_exponent_bound: int
) -> list[Fraction]:
    """All S-integers of height <= bound whose denominator S-exponents are
    <= the given bound, sorted by (numerator, denominator)."""
    ds = _box_denominators(S, height_bound, denom_exponent_bound)
    return [
        Fraction(a, d)
        for a in range(-height_bound, height_bound + 1)
        for d in ds
        if gcd(a, d) == 1
    ]


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


def _pair_join(
    S, P, height_bound, denom_exponent_bound, pair_budget, key, partner_key, pair, what
):
    """pair(x, P(x), y, P(y)) for each ordered pair x != y of the S-integer
    box with partner_key(key(x)) == key(y), x-major in box order; key(x) is
    key(num, den) of P.evaluate_unreduced at x.

    The budget is decided from the box size alone: a negative pair_budget is
    rejected first, and a SearchBudgetError is raised when the n*(n-1)
    candidate pairs exceed pair_budget, with n counted in closed form before
    the box is built or P evaluated.  Otherwise P is evaluated on integers
    once per box value, which keeps only its key and box index, and the
    Fraction P(x) is built only for values in a pair: the work is
    O(n + pairs emitted).
    """
    if pair_budget is not None and pair_budget < 0:
        raise ValueError("pair_budget must be >= 0")
    n = _box_size(S, height_bound, denom_exponent_bound)
    if pair_budget is not None and n * (n - 1) > pair_budget:
        raise SearchBudgetError(f"{what} budget exceeded", n * (n - 1), pair_budget)
    values = s_integer_box(S, height_bound, denom_exponent_bound)
    evaluate = P.evaluate_unreduced
    keys = [key(*evaluate(v.numerator, v.denominator)) for v in values]
    groups: dict = {}
    for j, k in enumerate(keys):
        groups.setdefault(k, []).append(j)
    value = cache(lambda i: P.evaluate(values[i]))
    return [
        pair(values[i], value(i), values[j], value(j))
        for i, k in enumerate(keys)
        for j in groups.get(partner_key(k), ())
        if j != i
    ]


def _shared_key(S: SContext, P: RatPoly):
    """key(num, den) = non_s_part(S, num/den), or None when num = 0, for
    num/den = P.evaluate_unreduced at an S-integer: its den is L times an
    S-product, so the non-S part of den is that of L whatever the point."""
    primes = S.primes
    s_den = _strip_supported(P.coefficient_denominator_lcm(), primes)

    def key(num, den):
        if num == 0:
            return None
        s_num = _strip_supported(abs(num), primes)
        h = gcd(s_num, s_den)
        return s_num // h, s_den // h

    return key


def search_shared_pairs(
    S: SContext,
    P: RatPoly,
    height_bound: int,
    denom_exponent_bound: int = 0,
    pair_budget: int | None = None,
) -> list[SharePoint]:
    """All sharing pairs (x, y), x != y, over the S-integer box.

    A hash join: u = P(x)/P(y) is an S-unit exactly when P(x) and P(y) have
    the same non-S part, so only pairs within one group of that key (or
    within the group of vanishing values) are probed, and every probed pair
    shares; each comes out as its _share verdict, x-major in box order.  The
    keys are computed on integers; P(x) and P(y) are built as Fractions for
    the pairs found only.  When the box's n*(n-1) candidate pairs exceed
    pair_budget, a SearchBudgetError is raised before the box is built or P
    evaluated; there is no partial result.
    """
    key = _shared_key(S, P)
    return _pair_join(
        S, P, height_bound, denom_exponent_bound, pair_budget, key, lambda k: k,
        lambda x, px, y, py: _share(S, x, px, y, py), "shared-pair search",
    )
