"""Heights, counting functions, truncated counting functions, and the exact
comparator for rational multiples of logarithms.

Only the truncated count depends on the primes of a value, so it alone is
held to the S-context's factoring budget.  It caps multiplicities through
`arith.truncated_radical`, which factors only what its gcd and integer-root
stages leave, and fails on exactly the values `factor` fails on.  The
untruncated count is the non-S part of the numerator and never factors.

A `Magnitude` stores the positive integer M and *means* log M; multiplying
Magnitudes adds the underlying log values with no rounding.  Every inequality
verdict in the package ends in `cmp_powers`, which orders A**ea and B**eb
exactly, by integer bounds on bit lengths where those suffice and by the
integer powers otherwise.  `cmp_scaled` reaches it for a*log(A) vs b*log(B);
a caller with fixed coefficients finds the exponents once and calls
`cmp_powers` itself.  Decimal output exists only for display.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .arith import SContext, _strip_supported, truncated_radical

LESS, EQUAL, GREATER = -1, 0, 1

DEFAULT_DISPLAY_DIGITS = 6
# a double carries about 17 significant digits; more places only show noise
MAX_DISPLAY_DIGITS = 17


@dataclass(frozen=True, order=True)
class Magnitude:
    """A nonnegative log quantity, stored exactly as the integer under the log."""

    value: int

    def __post_init__(self):
        if self.value < 1:
            raise ValueError("Magnitude stores integers >= 1")

    @property
    def is_zero_quantity(self) -> bool:
        return self.value == 1

    def __mul__(self, other: "Magnitude") -> "Magnitude":
        # product of Magnitudes == sum of the log values
        return Magnitude(self.value * other.value)

    def pow(self, k: int) -> "Magnitude":
        if k < 0:
            raise ValueError("Magnitude powers must be nonnegative")
        return Magnitude(self.value**k)

    def divides(self, other: "Magnitude") -> bool:
        return other.value % self.value == 0

    def log_display(self, digits: int = DEFAULT_DISPLAY_DIGITS) -> str:
        return display_log(self, digits)


@dataclass(frozen=True)
class ScaledLog:
    """coefficient * log(base), with an exact comparison rule."""

    coefficient: Fraction
    base: Magnitude

    def __post_init__(self):
        # the sign is the numerator's: a Fraction's denominator is positive
        if self.coefficient.numerator < 0:
            raise ValueError("ScaledLog coefficients must be nonnegative")

    @classmethod
    def of(cls, coefficient, base) -> "ScaledLog":
        if isinstance(base, int):
            base = Magnitude(base)
        return cls(Fraction(coefficient), base)

    def log_display(self, digits: int = DEFAULT_DISPLAY_DIGITS) -> str:
        _check_digits(digits)
        log_base = math.log(self.base.value)
        try:
            val = float(self.coefficient) * log_base
        except OverflowError:  # the coefficient alone is past the float range
            val = math.inf
        if math.isfinite(val):
            return f"{val:.{digits}f}"
        # past the float range: round to `digits` places in integers
        whole, places = divmod(round(self.coefficient * Fraction(log_base) * 10**digits),
                               10**digits)
        return f"{whole}.{places:0{digits}d}"


def nonnegative_epsilon(eps) -> Fraction:
    """eps as a Fraction; a ValueError when it is negative."""
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError("epsilon must be nonnegative")
    return eps


def height(x: Fraction) -> Magnitude:
    """Multiplicative Weil height max(|num|, den) of x in lowest terms."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return Magnitude(max(abs(x.numerator), x.denominator))


def counting(S: SContext, x: Fraction) -> Magnitude:
    """Counting function of zeros outside S: the non-S part of the numerator.

    Exact without factoring, so no budget applies.
    """
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    if x == 0:
        raise ValueError("counting function undefined at zero")
    return Magnitude(_strip_supported(abs(x.numerator), S.primes))


def counting_trunc(S: SContext, level: int, x: Fraction) -> Magnitude:
    """Counting function with each multiplicity capped at `level`.

    The non-S part of the numerator, each prime's exponent capped at `level`,
    from `truncated_radical`.  That factors only what its gcd and
    integer-root stages leave undecided, within the budget of S, and raises
    FactoringBudgetError exactly where `factor` does.
    """
    if level < 1:
        raise ValueError("truncation level must be a positive integer")
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    if x == 0:
        raise ValueError("counting function undefined at zero")
    non_s = _strip_supported(abs(x.numerator), S.primes)
    if non_s == 1:  # an S-unit numerator: nothing to factor
        return Magnitude(1)
    return Magnitude(truncated_radical(non_s, level, S.factoring_budget))


def cmp_scaled(lhs: ScaledLog, rhs: ScaledLog) -> int:
    """Exact ordering of a*log(A) vs b*log(B): -1, 0 or +1.

    The verdict is cmp_powers(A, a*d, B, b*d), where d is the common
    denominator of the two coefficients.  No floating point decides a
    verdict.
    """
    a, b = lhs.coefficient, rhs.coefficient
    d = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
    return cmp_powers(lhs.base.value, a.numerator * (d // a.denominator),
                      rhs.base.value, b.numerator * (d // b.denominator))


def cmp_powers(A: int, ea: int, B: int, eb: int) -> int:
    """Exact ordering of A**ea vs B**eb for integers A, B >= 1 and
    ea, eb >= 0: -1, 0 or +1.

    Zero quantities (a zero exponent or a base of 1), equal bases and then
    the bounds 2**(len-1) <= A < 2**len on bit lengths decide when they
    can; what they leave, the two powers decide.
    """
    left_zero = ea == 0 or A == 1
    right_zero = eb == 0 or B == 1
    if left_zero or right_zero:
        return right_zero - left_zero
    if A == B:
        return (ea > eb) - (ea < eb)
    la, lb = A.bit_length(), B.bit_length()
    # A**ea >= 2**(ea*(la-1)) and B**eb < 2**(eb*lb), and the mirror image
    if ea * (la - 1) >= eb * lb:
        return GREATER
    if eb * (lb - 1) >= ea * la:
        return LESS
    left = A**ea
    right = B**eb
    return (left > right) - (left < right)


def _check_digits(digits: int) -> None:
    """The decimal places of every display-only log: at least 1."""
    if digits < 1:
        raise ValueError("digits must be >= 1")


def display_log(m: Magnitude, digits: int = DEFAULT_DISPLAY_DIGITS) -> str:
    """Decimal approximation of log(value), display-only (natural log)."""
    _check_digits(digits)
    return f"{math.log(m.value):.{digits}f}"
