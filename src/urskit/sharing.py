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
    """An enumeration hit its budget; carries the completed prefix."""

    def __init__(self, message: str, partial, completed: int, total: int):
        self.partial = partial
        self.completed = completed
        self.total = total
        super().__init__(
            f"{message}: completed {completed} of {total} candidate pairs"
        )


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
    out = []
    for d in sorted(denominators):
        if d > height_bound and d > 1:
            continue
        for a in range(-height_bound, height_bound + 1):
            if gcd(a, d) == 1 and max(abs(a), d) <= height_bound:
                out.append(Fraction(a, d))
    out.sort(key=lambda v: (v.numerator, v.denominator))
    return out


def _pair_join(
    S, P, height_bound, denom_exponent_bound, pair_budget, key, partner_key, hit, what
):
    """The results of hit(x, P(x), y, P(y)) that are not None, over the
    ordered pairs x != y of the S-integer box with partner_key(P(x)) ==
    key(P(y)).

    A negative pair_budget is rejected before the box is built.  P is
    evaluated once per box value.  With x = values[i] and y = values[j], a
    pair's canonical index is i*(n-1) + j - [j > i]; hits come out in that
    order.  Only pairs below pair_budget are examined, and when the budget is
    smaller than the n*(n-1) candidate pairs a SearchBudgetError carrying the
    hits found so far is raised.  Work is O(n + pairs emitted).
    """
    if pair_budget is not None and pair_budget < 0:
        raise ValueError("pair_budget must be >= 0")
    values = s_integer_box(S, height_bound, denom_exponent_bound)
    evals = [P.evaluate(v) for v in values]
    n = len(values)
    total = n * (n - 1)
    limit = total if pair_budget is None else min(pair_budget, total)
    groups: dict = {}
    for j, pv in enumerate(evals):
        groups.setdefault(key(pv), []).append(j)
    hits = []
    for i, x in enumerate(values):
        row = i * (n - 1)
        if row >= limit:
            break
        px = evals[i]
        for j in groups.get(partner_key(px), ()):
            if j == i:
                continue
            if row + j - (j > i) >= limit:
                break
            result = hit(x, px, values[j], evals[j])
            if result is not None:
                hits.append(result)
    if limit < total:
        raise SearchBudgetError(f"{what} budget exceeded", hits, limit, total)
    return hits


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
    within the group of vanishing values) are probed.  The result is in
    canonical order.  When the number of candidate pairs exceeds
    pair_budget, exactly the first pair_budget pairs in canonical order are
    examined and a SearchBudgetError carrying those results is raised.
    """

    def key(pv):
        return None if pv == 0 else non_s_part(S, pv)

    def hit(x, px, y, py):
        share = _share(S, x, px, y, py)
        return share if share.shares else None

    return _pair_join(
        S, P, height_bound, denom_exponent_bound, pair_budget, key, key, hit,
        "shared-pair search",
    )
