"""Exact rational ground layer: S-contexts, valuations, factoring,
S-integer/S-unit predicates, and S-unit equation enumeration.

Every quantity is an exact `fractions.Fraction` or Python int; nothing here
ever rounds.  Factoring is budgeted: inputs whose non-smooth part exceeds the
configured budget fail loudly instead of degrading.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, prod

from . import _kernel as kernel

DEFAULT_FACTORING_BUDGET = 10**12

# `truncated_radical` divides out the primes below TRIAL_BOUND, the cube root
# of the default budget, so a level-1 count of anything up to that budget
# needs no rho.  It does so in two stages, (bound, product of the primes from
# the previous bound up to this one): most values are decided after the
# first, whose product has a tenth of the bits.
TRIAL_BOUND = 10**4
_TRIAL_STAGES = (
    (kernel.SMALL_PRIME_BOUND, prod(kernel.SMALL_PRIMES)),
    (TRIAL_BOUND, prod(kernel._primes_below(TRIAL_BOUND)[len(kernel.SMALL_PRIMES):])),
)


class UrskitError(Exception):
    """Base class for package-specific failures."""


class FactoringBudgetError(UrskitError):
    """A cofactor could not be fully factored within the configured budget."""

    def __init__(self, cofactor: int, budget: int):
        self.cofactor = cofactor
        self.budget = budget
        super().__init__(
            f"factoring budget {budget} exceeded: cofactor {cofactor} "
            f"has no prime factor within the trial horizon"
        )


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse the wire format 'a/b' (or 'a').  Floats are rejected."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(
            f"not a rational in 'a/b' form: {text!r} (floats are not accepted)"
        )
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def rational_str(x: Fraction) -> str:
    """Inverse of parse_rational: 'a/b', or 'a' when the denominator is 1."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def is_certified_prime(p: int) -> bool:
    """Deterministic primality; False for anything past the certificate range."""
    if p >= kernel.CERTIFIED_LIMIT:
        return False
    return kernel.is_prime(p)


@dataclass(frozen=True)
class SContext:
    """The finite-prime part of S.  The Archimedean place is always implied.

    `factoring_budget` is the largest integer the context promises to factor
    completely; its horizon isqrt(budget) bounds the primes `factor` finds.
    """

    primes: tuple[int, ...] = ()
    factoring_budget: int = DEFAULT_FACTORING_BUDGET

    def __post_init__(self):
        if self.factoring_budget < 1:
            raise ValueError("factoring budget must be positive")
        prev = 1
        for p in self.primes:
            if p <= prev:
                raise ValueError("primes of S must be strictly increasing")
            if not is_certified_prime(p):
                raise ValueError(f"{p} is not a certified prime")
            prev = p

    @classmethod
    def of(cls, primes, factoring_budget: int = DEFAULT_FACTORING_BUDGET) -> "SContext":
        return cls(tuple(sorted(set(primes))), factoring_budget)

    def __str__(self):
        return "{" + ",".join(str(p) for p in self.primes) + "}"


@dataclass(frozen=True)
class Factorization:
    """Signed prime factorization; re-multiplying reproduces the input exactly."""

    sign: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), primes increasing

    def value(self) -> int:
        n = self.sign
        for p, e in self.factors:
            n *= p**e
        return n


@lru_cache(maxsize=65536)
def _factor_positive(n: int, horizon: int, budget: int) -> tuple[tuple[int, int], ...]:
    found: dict[int, int] = {}
    cof = n
    for p in kernel.SMALL_PRIMES:
        if p * p > cof or (p > horizon and p > 5):
            break
        e = 0
        while cof % p == 0:
            cof //= p
            e += 1
        if e:
            found[p] = e
    # Every prime factor of cof now lies above min(horizon, 997) and above 5,
    # or cof is 1 or a prime.  `beyond` collects the primes above the horizon
    # and whatever stays unsplit: the U of `factor`.  At a horizon below 997
    # no prime factor of cof lies within it, so the loop below only moves the
    # pieces of cof into `beyond`.
    beyond, pieces = 1, [cof] if cof > 1 else []
    # Rho finds a prime p in about sqrt(p) steps, so the first term reaches
    # the primes up to the horizon.  The second binds below a horizon of
    # ~2.6 * 10^5 and keeps a rho that gives up to about a tenth of the
    # trial division that follows (~5% at the default budget, ~3% at 10^13).
    cap = min(4 * isqrt(horizon) + 64, horizon // 128)
    while pieces:
        m = pieces.pop()
        if is_certified_prime(m):
            if m <= horizon:
                found[m] = found.get(m, 0) + 1
            else:
                beyond *= m
            continue
        d = kernel.rho_split(m, cap) or kernel.smallest_factor_below(m, horizon)
        if d:
            pieces += (d, m // d)
        else:
            beyond *= m  # no prime factor within the horizon
    if beyond > 1:
        if not is_certified_prime(beyond):
            raise FactoringBudgetError(beyond, budget)
        found[beyond] = 1
    return tuple(sorted(found.items()))


def factor(n: int, budget: int = DEFAULT_FACTORING_BUDGET) -> Factorization:
    """Exact deterministic prime factorization of a nonzero integer.

    The findable primes are 2, 3, 5 and every prime up to isqrt(budget).
    Let U be the product, with multiplicity, of the other prime factors of
    |n|.  The factorization succeeds iff U is 1 or a single certified prime;
    otherwise FactoringBudgetError names U as the cofactor.  So every
    |n| <= budget factors completely.  Small primes are divided out first,
    Pollard-Brent rho splits the rest, and trial division up to the horizon
    takes over from rho only when it gives up.
    """
    if n == 0:
        raise ValueError("cannot factor zero")
    sign = 1 if n > 0 else -1
    return Factorization(sign, _factor_positive(abs(n), isqrt(budget), budget))


def truncated_radical(n: int, level: int, budget: int = DEFAULT_FACTORING_BUDGET) -> int:
    """The product of p**min(e, level) over the prime powers p**e of n >= 1.

    Equal to that product over `factor(n, budget)`, with a
    FactoringBudgetError on exactly the same n, but mostly without factoring.
    Each stage finds the primes below its bound B that divide n by one gcd
    with their product, and caps and strips their powers by more gcds.
    Every prime factor of what is left, U, lies above B.  So if
    U < B**(level + 2), U has at most level + 1 prime factors, and an
    exponent can pass the level only when U = r**(level + 1), r prime.  If
    moreover the primes below B are within the horizon (isqrt(budget) >= B)
    and U <= budget, at most one prime factor of U lies beyond the horizon,
    so `factor` would succeed.  What no stage decides is factored.
    """
    capped, rest = 1, n
    for bound, product in _TRIAL_STAGES:
        if budget < bound * bound:  # isqrt(budget) < bound
            break
        layer, depth = gcd(rest, product), 0
        while layer > 1:  # the primes of this stage with exponent > depth
            if depth < level:
                capped *= layer
            rest //= layer
            layer = gcd(rest, layer)
            depth += 1
        if rest <= budget and rest < bound ** (level + 2) and rest < kernel.CERTIFIED_LIMIT:
            root = kernel.iroot(rest, level + 1)
            return capped * (root**level if root ** (level + 1) == rest else rest)
    return prod(p ** min(e, level) for p, e in factor(n, budget).factors)


def ord_at(p: int, x: Fraction) -> int:
    """The p-adic valuation of a nonzero rational."""
    if x == 0:
        raise ValueError("valuation of zero undefined")
    if not is_certified_prime(p):
        raise ValueError(f"{p} is not prime")
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    num, den = abs(x.numerator), x.denominator
    e = 0
    while num % p == 0:
        num //= p
        e += 1
    if e:
        return e
    while den % p == 0:
        den //= p
        e -= 1
    return e


def _strip_supported(n: int, primes) -> int:
    """Divide out every power of the given primes; n > 0."""
    for p in primes:
        while n % p == 0:
            n //= p
    return n


def is_s_integer(S: SContext, x: Fraction) -> bool:
    """True iff every prime of the denominator lies in S (0 counts)."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return _strip_supported(x.denominator, S.primes) == 1


def non_s_part(S: SContext, x: Fraction) -> tuple[int, int]:
    """(non-S part of |numerator|, non-S part of denominator) of nonzero x.

    Two nonzero rationals have the same non-S part exactly when their
    quotient is an S-unit.
    """
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    if x == 0:
        raise ValueError("non-S part of zero undefined")
    return (
        _strip_supported(abs(x.numerator), S.primes),
        _strip_supported(x.denominator, S.primes),
    )


def is_s_unit(S: SContext, x: Fraction) -> bool:
    """True iff x is nonzero and numerator and denominator are S-supported."""
    return x != 0 and non_s_part(S, x) == (1, 1)


def non_s_ord_profile(S: SContext, x: Fraction) -> dict[int, int]:
    """Map p -> ord_p(x) over primes p outside S with nonzero valuation."""
    if x == 0:
        raise ValueError("valuation of zero undefined")
    num, den = non_s_part(S, x)
    profile = dict(factor(num, S.factoring_budget).factors)
    for p, e in factor(den, S.factoring_budget).factors:
        profile[p] = profile.get(p, 0) - e
    return dict(sorted(profile.items()))


def unit_equation_solutions(
    S: SContext, exponent_bound: int
) -> list[tuple[Fraction, Fraction]]:
    """All S-unit pairs (u, v) with u + v = 1 and |ord_p(u)| <= bound on S.

    Enumerates u over signed exponent vectors and keeps pairs whose v = 1 - u
    is an S-unit.  Output is duplicate-free and sorted by (numerator,
    denominator) of u, then of v.
    """
    if exponent_bound < 0:
        raise ValueError("exponent bound must be nonnegative")
    sols = []
    ranges = [range(-exponent_bound, exponent_bound + 1)] * len(S.primes)
    for exps in itertools.product(*ranges):
        mag = Fraction(1)
        for p, e in zip(S.primes, exps):
            mag *= Fraction(p) ** e
        for sign in (1, -1):
            u = sign * mag
            v = 1 - u
            if is_s_unit(S, v):
                sols.append((u, v))
    sols.sort(
        key=lambda pair: (
            pair[0].numerator,
            pair[0].denominator,
            pair[1].numerator,
            pair[1].denominator,
        )
    )
    return sols
