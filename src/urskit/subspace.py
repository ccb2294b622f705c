"""Exact evaluator for the truncated subspace-type inequality on concrete
points, plus the two-variable linear-relation special case.

Verdicts are per-point data: the inequality under test is asymptotic, so a
single violated point never decides anything; the evaluator only ever reports
exact comparisons.  Every holds/violated verdict on the inequality, here and
in trace's conjectural step, comes from one function, inequality_verdict,
which decides on integers through cmp_powers; no point is decided in Fractions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Callable, ClassVar

from .arith import SContext, _strip_supported, rational_str
from .exactlinalg import clear_denominators, det
from .heights import (
    Magnitude,
    ScaledLog,
    cmp_powers,
    counting_trunc,
    height,
    nonnegative_epsilon,
)

HOLDS = "holds"
VIOLATED = "violated"
SKIPPED = "skipped"
ERROR = "error"


def inequality_verdict(coeff: Fraction) -> Callable[[int, int], str]:
    """The verdict HOLDS or VIOLATED on coeff * log(base) <= log(rhs), as a
    function of integers base, rhs >= 1.  coeff = p/q is read once: a
    nonpositive one holds against the nonnegative right side with no
    comparison, and otherwise cmp_powers(base, p, rhs, q) decides exactly."""
    p, q = coeff.numerator, coeff.denominator
    return lambda base, rhs: (
        HOLDS if p <= 0 or cmp_powers(base, p, rhs, q) <= 0 else VIOLATED
    )


@dataclass(frozen=True)
class LinearFormSystem:
    """q linear forms in r+1 variables, rows of rational coefficients."""

    r: int
    forms: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("need r >= 1")
        if len(self.forms) < self.r + 1:
            raise ValueError("need at least r+1 forms")
        for row in self.forms:
            if len(row) != self.r + 1:
                raise ValueError(f"every form needs {self.r + 1} coefficients")

    @classmethod
    def of(cls, r: int, rows) -> "LinearFormSystem":
        return cls(r, tuple(tuple(Fraction(c) for c in row) for row in rows))

    @property
    def q(self) -> int:
        return len(self.forms)

    def evaluator(self) -> Callable[[tuple[Fraction, ...]], tuple[Fraction, ...]]:
        """The map from a point to its q form values: the forms are cleared of
        denominators here, once, the point on each call, and each value is one
        integer dot product over their common denominators."""
        cleared = [clear_denominators(row) for row in self.forms]

        def values(coords):
            nums, den = clear_denominators(coords)
            return tuple(Fraction(sum(map(mul, row, nums)), d * den) for row, d in cleared)

        return values


def general_position_check(sys: LinearFormSystem) -> tuple[int, ...] | None:
    """The first dependent (r+1)-subset of forms in itertools.combinations
    order, or None when every r+1 forms are linearly independent."""
    for subset in itertools.combinations(range(sys.q), sys.r + 1):
        if det([sys.forms[i] for i in subset]) == 0:
            return subset
    return None


def normalize_point(S: SContext, coords) -> tuple[Fraction, ...]:
    """The coordinates scaled so the point is primitive: the minimum of
    ord_p over the nonzero coordinates is 0 at every prime p outside S.

    Clears denominators outside S and divides by the common non-S content;
    the S-supported scaling freedom is deliberately left untouched.  Needs
    only gcds, never a factorization: with G the gcd of the non-S parts of
    the numerators and L the lcm of those of the denominators, over the
    nonzero coordinates, min ord_p(c) = ord_p(G) - ord_p(L) for every p
    outside S, so scaling by L/G sets each of those minima to 0.
    """
    cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coords]
    if not any(cs):
        raise ValueError("cannot normalize the zero tuple")
    G = gcd(*(_strip_supported(abs(c.numerator), S.primes) for c in cs if c))
    L = lcm(*(_strip_supported(c.denominator, S.primes) for c in cs))
    return tuple(Fraction(c.numerator * L, c.denominator * G) for c in cs)


def check_primitive(S: SContext, coords) -> tuple[Fraction, ...]:
    """Strict mode: raise unless the tuple is already normalized; return the
    normalized point, equal to the tuple."""
    point = normalize_point(S, coords)
    if tuple(Fraction(c) for c in coords) != point:
        raise ValueError(
            "point is not primitive for S = "
            f"{S}: expected {[rational_str(c) for c in point]}"
        )
    return point


@dataclass(frozen=True)
class DefectReport:
    """Per-point outcome of the truncated inequality evaluation."""

    point: tuple[Fraction, ...]
    coord_heights: tuple[Magnitude, ...]
    max_height: Magnitude
    form_values: tuple[Fraction, ...]
    form_counts: tuple[Magnitude | None, ...]  # all None when a form vanishes
    rhs: Magnitude | None
    lhs_coefficient: Fraction  # q - r - 1 - eps; may be negative
    verdict: str
    reason: str | None = None

    derived_keys: ClassVar[tuple[str, ...]] = ("lhs",)

    @property
    def lhs(self) -> ScaledLog | None:
        if self.lhs_coefficient < 0:
            return None
        return ScaledLog(self.lhs_coefficient, self.max_height)


def evaluate_conjecture(
    S: SContext,
    sys: LinearFormSystem,
    eps: Fraction,
    points,
    strict: bool = False,
) -> list[DefectReport]:
    """Exact per-point comparison of (q-r-1-eps)*max h(coord) against the sum
    of r-truncated counting functions of the form values.

    eps and general position are checked once per call.  A point where a
    form value vanishes is skipped, with every count None and none computed,
    matching the requirement that no form vanishes along the sequence under
    test.
    """
    eps = nonnegative_epsilon(eps)
    witness = general_position_check(sys)
    if witness is not None:
        raise ValueError(f"degenerate system: forms {witness} are dependent")
    reports = []
    coeff = Fraction(sys.q - sys.r - 1) - eps
    form_values = sys.evaluator()
    decide = inequality_verdict(coeff)
    for raw in points:
        coords = check_primitive(S, raw) if strict else normalize_point(S, raw)
        hs = tuple(height(c) for c in coords)
        hmax = max(hs)
        values = form_values(coords)
        if 0 in values:
            counts, rhs = (None,) * sys.q, None
            verdict, reason = SKIPPED, "form vanishes at the point"
        else:
            counts = tuple(counting_trunc(S, sys.r, v) for v in values)
            rhs = Magnitude(prod(c.value for c in counts))
            verdict, reason = decide(hmax.value, rhs.value), None
        reports.append(
            DefectReport(coords, hs, hmax, values, counts, rhs, coeff, verdict, reason)
        )
    return reports


@dataclass(frozen=True)
class DefectSummary:
    """Aggregate statistics; the inequality under test stays undecided."""

    points: int
    holds: int
    violated: int
    skipped: int
    max_violating_height: Magnitude | None

    note = (
        "per-point evidence only: the inequality is asymptotic and a finite "
        "evaluation never decides it"
    )
    derived_keys: ClassVar[tuple[str, ...]] = ("note",)


def summarize_defects(reports) -> DefectSummary:
    verdicts = [r.verdict for r in reports]
    violating = [r.max_height for r in reports if r.verdict == VIOLATED]
    return DefectSummary(
        points=len(reports),
        holds=verdicts.count(HOLDS),
        violated=verdicts.count(VIOLATED),
        skipped=verdicts.count(SKIPPED),
        max_violating_height=max(violating) if violating else None,
    )


@dataclass(frozen=True)
class CorollaryRow:
    """One pair under the relation A*x + B*y = C, evaluated two ways.

    `delegated` is the subspace evaluation of the point (1, x) under the three
    forms (x0, x1, C*x0 - A*x1); the direct side restates the two-variable
    inequality (1-eps)*h(x) <= N1(x) + N1(y).  Both are exact; they coincide
    whenever B is an S-unit (the delegated third form value is B*y).
    """

    x: Fraction
    y: Fraction
    constraint_ok: bool
    delegated: DefectReport | None
    direct_lhs_coefficient: Fraction
    direct_lhs_base: Magnitude | None
    direct_rhs: Magnitude | None
    direct_verdict: str
    verdict: str
    agree: bool | None
    reason: str | None = None


def corollary_eval(
    S: SContext,
    A: Fraction,
    B: Fraction,
    C: Fraction,
    eps: Fraction,
    pairs,
) -> list[CorollaryRow]:
    """Evaluate the two-variable consequence on pairs satisfying A*x+B*y=C.

    A negative eps is rejected before any pair is looked at.  The points
    (1, x) of the pairs on the line go to one evaluate_conjecture call, so
    every delegated count runs before any direct one."""
    eps = nonnegative_epsilon(eps)
    A, B, C = Fraction(A), Fraction(B), Fraction(C)
    if A == 0 or B == 0 or C == 0:
        raise ValueError("A, B, C must all be nonzero")
    sys = LinearFormSystem.of(1, [[1, 0], [0, 1], [C, -A]])
    xys = [(Fraction(x), Fraction(y)) for x, y in pairs]
    on_line = [A * x + B * y == C for x, y in xys]
    points = [(Fraction(1), x) for (x, _), ok in zip(xys, on_line) if ok]
    reports = iter(evaluate_conjecture(S, sys, eps, points))
    coeff = Fraction(1) - eps
    decide = inequality_verdict(coeff)
    rows = []
    for (x, y), ok in zip(xys, on_line):
        if not ok:
            rows.append(
                CorollaryRow(
                    x, y, False, None, coeff, None, None, ERROR,
                    ERROR, None, "pair does not satisfy A*x + B*y = C",
                )
            )
            continue
        delegated = next(reports)
        lhs_base = height(x)
        if x == 0 or y == 0:  # no right side: only a zero left side decides
            direct_rhs = None
            direct_verdict = HOLDS if coeff <= 0 or lhs_base.is_zero_quantity else SKIPPED
        else:
            direct_rhs = counting_trunc(S, 1, x) * counting_trunc(S, 1, y)
            direct_verdict = decide(lhs_base.value, direct_rhs.value)
        if delegated.verdict == SKIPPED:
            agree = None
            verdict = direct_verdict
        else:
            agree = (
                delegated.verdict == direct_verdict
                and delegated.rhs == direct_rhs
                and delegated.max_height == lhs_base
            )
            verdict = delegated.verdict
        rows.append(
            CorollaryRow(
                x, y, True, delegated, coeff, lhs_base, direct_rhs,
                direct_verdict, verdict, agree,
            )
        )
    return rows
