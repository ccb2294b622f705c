"""Exact univariate polynomials over Q: arithmetic, resultants, discriminants,
and hypothesis validation for the trinomial family X^n + a*X^(n-m) + b.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import ClassVar

from .arith import SContext, is_s_integer, is_s_unit, rational_str
from .exactlinalg import clear_denominators


@dataclass(frozen=True)
class RatPoly:
    """Polynomial with Fraction coefficients, constant term first."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def of(cls, coefficients) -> "RatPoly":
        cs = [Fraction(c) for c in coefficients]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @cached_property
    def _cleared(self) -> tuple[int, tuple[int, ...]]:
        """(L, (L*c_d, ..., L*c_0)) with L the lcm of the coefficient
        denominators: integer coefficients, leading first."""
        cs, lcm = clear_denominators(self.coeffs[::-1])
        return lcm, tuple(cs)

    def evaluate_unreduced(self, p: int, q: int) -> tuple[int, int]:
        """(num, den) with P(p/q) = num/den and den = L q^d > 0 for q > 0,
        not reduced: homogeneous Horner on integers,
        num = sum L*c_i p^i q^(d-i).  The zero polynomial gives (0, 1) at
        every point."""
        lcm, cs = self._cleared
        if not cs:
            return 0, 1
        num, qpow = cs[0], 1
        for c in cs[1:]:
            qpow *= q
            num = num * p + c * qpow
        return num, lcm * qpow

    def evaluate(self, x: Fraction) -> Fraction:
        """P(x), as a Fraction of evaluate_unreduced."""
        if not isinstance(x, (int, Fraction)):
            x = Fraction(x)
        return Fraction(*self.evaluate_unreduced(x.numerator, x.denominator))

    def __add__(self, other: "RatPoly") -> "RatPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        cs = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            cs[i] += c
        for i, c in enumerate(other.coeffs):
            cs[i] += c
        return RatPoly.of(cs)

    def __mul__(self, other: "RatPoly") -> "RatPoly":
        if self.is_zero or other.is_zero:
            return RatPoly(())
        cs = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    cs[i + j] += a * b
        return RatPoly.of(cs)

    def scale(self, c) -> "RatPoly":
        c = Fraction(c)
        if c == 0:
            return RatPoly(())
        return RatPoly(tuple(c * a for a in self.coeffs))

    def derivative(self) -> "RatPoly":
        return RatPoly.of([i * c for i, c in enumerate(self.coeffs)][1:])

    def divmod(self, other: "RatPoly") -> tuple["RatPoly", "RatPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.degree
        lead = other.leading
        while len(rem) - 1 >= d and rem:
            k = len(rem) - 1 - d
            q = rem[-1] / lead
            quo[k] = q
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= q * c
            while rem and rem[-1] == 0:
                rem.pop()
        return RatPoly.of(quo), RatPoly.of(rem)

    def __mod__(self, other: "RatPoly") -> "RatPoly":
        return self.divmod(other)[1]

    def monic(self) -> "RatPoly":
        if self.is_zero:
            return self
        return self.scale(1 / self.leading)

    def gcd(self, other: "RatPoly") -> "RatPoly":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        if a.is_zero:
            return a
        return a.monic()

    def sum_abs_coefficients(self) -> Fraction:
        return sum((abs(c) for c in self.coeffs), Fraction(0))

    def coefficient_denominator_lcm(self) -> int:
        return self._cleared[0]

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(rational_str(c))
            else:
                coeff = "" if c == 1 else ("-" if c == -1 else rational_str(c) + "*")
                parts.append(f"{coeff}X^{i}" if i > 1 else f"{coeff}X")
        return " + ".join(parts).replace("+ -", "- ")


def build_from_roots(roots) -> RatPoly:
    """Monic polynomial with exactly the given pairwise-distinct roots."""
    rs = [Fraction(r) for r in roots]
    if len(set(rs)) != len(rs):
        raise ValueError("roots must be pairwise distinct (the target is a set)")
    poly = RatPoly.of([1])
    for r in rs:
        poly = poly * RatPoly.of([-r, 1])
    return poly


def resultant(P: RatPoly, Q: RatPoly) -> Fraction:
    """res(P, Q) = lc(P)^deg(Q) * prod of Q over the roots of P, exactly.

    Computed by a Euclidean remainder chain over exact rationals; tests
    cross-validate against a Sylvester-matrix determinant.
    """
    if P.is_zero or Q.is_zero:
        raise ValueError("resultant of the zero polynomial is undefined")
    result = Fraction(1)
    A, B = P, Q
    while True:
        if B.degree == 0:
            return result * B.leading**A.degree
        if A.degree == 0:
            return result * A.leading**B.degree
        R = A % B
        if R.is_zero:
            return Fraction(0)
        result *= Fraction(-1) ** (A.degree * B.degree) * B.leading ** (
            A.degree - R.degree
        )
        A, B = B, R


def discriminant(P: RatPoly) -> Fraction:
    """disc(P) from res(P, P'); zero exactly when P has a repeated root."""
    n = P.degree
    if n < 1:
        raise ValueError("discriminant requires degree >= 1")
    sign = Fraction(-1) ** (n * (n - 1) // 2)
    return sign * resultant(P, P.derivative()) / P.leading


@dataclass(frozen=True)
class TrinomialFamily:
    """The family X^n + a*X^(n-m) + b with n > m >= 1."""

    n: int
    m: int
    a: Fraction
    b: Fraction

    def __post_init__(self):
        if not (self.n > self.m >= 1):
            raise ValueError("family requires n > m >= 1")
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    def polynomial(self) -> RatPoly:
        cs = [Fraction(0)] * (self.n + 1)
        cs[0] = self.b
        cs[self.n - self.m] += self.a
        cs[self.n] += 1
        return RatPoly.of(cs)


_ROOT_UNIT_JUSTIFICATION = (
    "monic, all coefficients S-integers, constant term an S-unit: at every "
    "prime p outside S the Newton polygon is a single slope-zero segment, so "
    "every root has valuation 0 at every place above p, i.e. all roots are "
    "S-units"
)


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    family: TrinomialFamily
    checks: tuple[HypothesisCheck, ...]

    derived_keys: ClassVar[tuple[str, ...]] = ("passed",)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> HypothesisCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def validate_family(S: SContext, fam: TrinomialFamily) -> ValidationReport:
    """Check every hypothesis the trinomial family must satisfy over S.

    Failures are verdicts, never exceptions.
    """
    g = gcd(fam.n, fam.m)
    checks = [
        HypothesisCheck(
            "coprime_degrees", g == 1, f"gcd({fam.n}, {fam.m}) = {g}"
        ),
        HypothesisCheck(
            "degree_gap",
            fam.n > 2 * fam.m + 4,
            f"n = {fam.n} vs 2m+4 = {2 * fam.m + 4}",
        ),
        HypothesisCheck(
            "a_s_unit",
            is_s_unit(S, fam.a),
            f"a = {rational_str(fam.a)}, S = {S}",
        ),
        HypothesisCheck(
            "b_s_unit",
            is_s_unit(S, fam.b),
            f"b = {rational_str(fam.b)}, S = {S}",
        ),
    ]
    disc = discriminant(fam.polynomial())
    checks.append(
        HypothesisCheck(
            "squarefree",
            disc != 0,
            f"disc = {rational_str(disc)}",
        )
    )
    coeffs_integral = all(is_s_integer(S, c) for c in fam.polynomial().coeffs)
    roots_ok = coeffs_integral and is_s_unit(S, fam.b)
    checks.append(
        HypothesisCheck(
            "roots_s_units",
            roots_ok,
            _ROOT_UNIT_JUSTIFICATION if roots_ok else
            "criterion needs S-integer coefficients and an S-unit constant term",
        )
    )
    return ValidationReport(fam, tuple(checks))
