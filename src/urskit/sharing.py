"""Operational S-unit sharing: per-pair quotient certificates, valuation
profile cross-checks, and hash-join pair search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .arith import (
    SContext,
    UrskitError,
    is_s_integer,
    is_s_unit,
    non_s_ord_profile,
    non_s_part,
    rational_str,
)
from .polys import RatPoly


class SearchBudgetError(UrskitError):
    """A pair search's n*(n-1) candidate pairs exceed its budget; raised
    before P is evaluated, so there is no partial result."""

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
    return evaluated_share(S, P, x, y)[0]


def evaluated_share(S: SContext, P: RatPoly, x: Fraction, y: Fraction):
    """share_check's verdict with the values it was decided from:
    (SharePoint, P(x), P(y)), P evaluated once at each of x and y."""
    # Fraction() of a Fraction goes through its slow ABC checks
    x = x if type(x) is Fraction else Fraction(x)
    y = y if type(y) is Fraction else Fraction(y)
    for name, value in (("x", x), ("y", y)):
        if not is_s_integer(S, value):
            raise ValueError(
                f"{name} = {rational_str(value)} is not an S-integer for S = {S}"
            )
    px, py = P.evaluate(x), P.evaluate(y)
    return _share(S, x, px, y, py), px, py


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


def s_integer_box(
    S: SContext, height_bound: int, denom_exponent_bound: int
) -> list[Fraction]:
    """All S-integers of height <= bound whose denominator S-exponents are
    <= the given bound, sorted by (numerator, denominator)."""
    if height_bound < 0 or denom_exponent_bound < 0:
        raise ValueError("bounds must be nonnegative")
    denominators = {1}
    for p in S.primes:
        denominators = {
            d * p**e for d in denominators for e in range(denom_exponent_bound + 1)
        }
    ds = sorted(d for d in denominators if d <= height_bound)
    return [
        Fraction(a, d)
        for a in range(-height_bound, height_bound + 1)
        for d in ds
        if gcd(a, d) == 1
    ]


def _pair_join(
    S, P, height_bound, denom_exponent_bound, pair_budget, key, partner_key, pair, what
):
    """pair(x, P(x), y, P(y)) for each ordered pair x != y of the S-integer
    box with partner_key(P(x)) == key(P(y)), x-major in box order.

    The budget is decided from the box size alone: a negative pair_budget is
    rejected before the box is built, and a SearchBudgetError is raised when
    the n*(n-1) candidate pairs exceed pair_budget, before P is evaluated.
    Otherwise P is evaluated once per box value and the work is
    O(n + pairs emitted).
    """
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
    shares; each comes out as its _share verdict, x-major in box order.
    When the box's n*(n-1) candidate pairs exceed pair_budget, a
    SearchBudgetError is raised before P is evaluated; there is no partial
    result.
    """

    def key(pv):
        return None if pv == 0 else non_s_part(S, pv)

    return _pair_join(
        S, P, height_bound, denom_exponent_bound, pair_budget, key, key,
        lambda x, px, y, py: _share(S, x, px, y, py), "shared-pair search",
    )
