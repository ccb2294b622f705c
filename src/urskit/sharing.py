"""Operational S-unit sharing: per-pair quotient certificates, valuation
profile cross-checks, admissibility statistics, and hash-join pair search.
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
from .heights import Magnitude, height
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


@dataclass(frozen=True)
class PairSequence:
    context: SContext
    poly: RatPoly
    rows: tuple[SharePoint, ...]

    @classmethod
    def build(cls, S: SContext, P: RatPoly, pairs) -> "PairSequence":
        rows = tuple(share_check(S, P, x, y) for x, y in pairs)
        return cls(S, P, rows)


def share_check(S: SContext, P: RatPoly, x: Fraction, y: Fraction) -> SharePoint:
    """Decide whether the pair shares the zero set of P outside S.

    Vanishing convention: if both P(x) and P(y) vanish the pair shares with u
    undetermined; if exactly one vanishes it does not share.
    """
    x, y = Fraction(x), Fraction(y)
    for name, value in (("x", x), ("y", y)):
        if not is_s_integer(S, value):
            raise ValueError(
                f"{name} = {rational_str(value)} is not an S-integer for S = {S}"
            )
    px = P.evaluate(x)
    py = P.evaluate(y)
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


@dataclass(frozen=True)
class SequenceThresholdStats:
    """Height-threshold statistics of one coordinate sequence of a prefix."""

    rows_at_or_below: int
    max_height: Magnitude | None
    last_below_index: int | None
    tail_length: int


@dataclass(frozen=True)
class AdmissibilityReport:
    """Finite-prefix stand-in for 'heights tend to infinity'.

    The asymptotic notion is not decidable on a prefix; this reports
    threshold-exceedance statistics instead.
    """

    threshold: Magnitude
    total_rows: int
    x_stats: SequenceThresholdStats
    y_stats: SequenceThresholdStats

    @property
    def vacuous(self) -> bool:
        return self.total_rows == 0


def _threshold_stats(values, bound: Magnitude) -> SequenceThresholdStats:
    heights = [height(v) for v in values]
    below = [i for i, h in enumerate(heights) if h <= bound]
    last = below[-1] if below else None
    tail = len(heights) - 1 - last if last is not None else len(heights)
    return SequenceThresholdStats(
        rows_at_or_below=len(below),
        max_height=max(heights) if heights else None,
        last_below_index=last,
        tail_length=tail,
    )


def admissibility_report(seq: PairSequence, bound: Magnitude) -> AdmissibilityReport:
    xs = [row.x for row in seq.rows]
    ys = [row.y for row in seq.rows]
    return AdmissibilityReport(
        threshold=bound,
        total_rows=len(seq.rows),
        x_stats=_threshold_stats(xs, bound),
        y_stats=_threshold_stats(ys, bound),
    )


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


def _pair_join(values, keys, partner_keys, probe, pair_budget, workers, what):
    """Hits of probe(x, y) over the ordered pairs x != y of the box with
    partner_keys[i] == keys[j], where x = values[i] and y = values[j].

    A pair's canonical index is i*(n-1) + j - [j > i]; hits come out in that
    order.  Only pairs below pair_budget are examined, and when the budget is
    smaller than the n*(n-1) candidate pairs a SearchBudgetError carrying the
    hits found so far is raised.  Work is O(n + pairs emitted).  `workers` is
    validated and otherwise unused: the join is single-threaded.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if pair_budget is not None and pair_budget < 0:
        raise ValueError("pair_budget must be >= 0")
    n = len(values)
    total = n * (n - 1)
    limit = total if pair_budget is None else min(pair_budget, total)
    groups: dict = {}
    for j, key in enumerate(keys):
        groups.setdefault(key, []).append(j)
    hits = []
    for i, x in enumerate(values):
        row = i * (n - 1)
        if row >= limit:
            break
        for j in groups.get(partner_keys[i], ()):
            if j == i:
                continue
            if row + j - (j > i) >= limit:
                break
            result = probe(x, values[j])
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
    workers: int = 1,
) -> list[SharePoint]:
    """All sharing pairs (x, y), x != y, over the S-integer box.

    A hash join: u = P(x)/P(y) is an S-unit exactly when P(x) and P(y) have
    the same non-S part, so only pairs within one group of that key (or
    within the group of vanishing values) are probed.  The result is in
    canonical order; `workers` is accepted and has no effect.  When the
    number of candidate pairs exceeds pair_budget, exactly the first
    pair_budget pairs in canonical order are examined and a
    SearchBudgetError carrying those results is raised.
    """
    values = s_integer_box(S, height_bound, denom_exponent_bound)
    evals = {v: P.evaluate(v) for v in values}
    keys = [None if pv == 0 else non_s_part(S, pv) for pv in evals.values()]

    def probe(x, y):
        px, py = evals[x], evals[y]
        if py == 0:
            return SharePoint(x, y, None, True) if px == 0 else None
        u = px / py
        if is_s_unit(S, u):
            return SharePoint(x, y, u, True)
        return None

    return _pair_join(
        values, keys, keys, probe, pair_budget, workers, "shared-pair search"
    )
