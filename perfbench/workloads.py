"""Seeded inputs for the four benchmark workloads.

A run of a workload with seed s repeats one list of ``Call`` objects drawn
from ``random.Random(f"{s}:{workload}")``: the argv handed to
``urskit.cli.main``, the input files that argv names, the number of items the
call completes, and what the oracle needs to check its report.  Nothing here
imports urskit: the oracle regenerates the same calls and checks the reports
with this module's own arithmetic.  File names are relative to the directory
the calls run in, so the reports (which echo them) do not depend on where
the checkout lives.

Inputs that would make one seed much dearer than another are held to a fixed
shape (degrees, bit lengths, the spread of the smallest prime factors), so
that runs with different seeds measure the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

S_PRIMES = (2, 3)
S_ARG = "2,3"

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# search: one family per (n, m) shape, so every seed has the same mix of
# degrees; the seed picks a, b and c.
SEARCH_SHAPES = ((7, 1), (8, 1), (9, 2), (11, 3))
SEARCH_HEIGHT = 60

# trace: X^7 + X^6 + 1 over S = {2, 3}.  Every fourth pair is (x, x), so it
# shares and the whole counting chain runs, factoring P(x); those x are drawn
# without replacement from the box, so every seed factors nearly the same
# values.
TRACE_FAMILY = (7, 1, 1, 1)
TRACE_CALLS, TRACE_PAIRS = 2, 600  # pairs per call
TRACE_HEIGHT = 60
TRACE_DENOM_EXPONENT = 1

SUBSPACE_FORMS = {"r": 1, "forms": [["1", "0"], ["0", "1"], ["1", "1"]]}

# fine-eps: one point per call, 31-smooth coordinates of height in
# [2^13, 10^4], and a product of the three truncated counts with a fixed bit
# length, so every point costs the same two big powers inside cmp_scaled.
FINE_EPS_CALLS = 2
FINE_EPS_EPSILON = "1/100000"
FINE_EPS_LOW, FINE_EPS_HIGH = 2**13, 10**4
FINE_EPS_RHS_BITS = 32

# stubborn-factor: coordinates p*q with p < q primes in [10^5, 10^6]; the
# smaller primes are spread evenly over [10^5, 9*10^5) so every seed does the
# same trial-division work.  The third form value x0 + x1 is kept to
# a 1000-smooth part times a prime, so the stubborn work sits in the two
# semiprime coordinates.
STUBBORN_CALLS, STUBBORN_POINTS = 2, 6  # points per call
STUBBORN_BUDGET = 10**13
STUBBORN_LOW, STUBBORN_SPLIT, STUBBORN_HIGH = 10**5, 9 * 10**5, 10**6
STUBBORN_SUM_SMOOTH = 1000


@dataclass
class Call:
    kind: str  # "search-shared" | "search-su" | "trace" | "subspace"
    argv: list[str]
    files: dict[str, object]
    items: int
    out: str
    check: dict


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3 * 10^24."""
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def trial_factor(n: int, limit: int) -> tuple[dict[int, int], int]:
    """Prime powers of n below ``limit`` and the remaining cofactor; n >= 1."""
    found: dict[int, int] = {}
    d = 2
    while d < limit and d * d <= n:
        while n % d == 0:
            found[d] = found.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if 1 < n < limit:
        found[n] = found.get(n, 0) + 1
        n = 1
    return found, n


def strip_s(n: int) -> int:
    """n with every factor 2 and 3 divided out; n >= 1."""
    for p in S_PRIMES:
        while n % p == 0:
            n //= p
    return n


def is_s_unit(x: Fraction) -> bool:
    return x != 0 and strip_s(abs(x.numerator)) == 1 and strip_s(x.denominator) == 1


def rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def s_integer_box(height: int, denom_exponent: int) -> list[Fraction]:
    """S-integers a/d with d = 2^i 3^j (i, j <= denom_exponent) and
    max(|a|, d) <= height."""
    dens = sorted(
        2**i * 3**j
        for i in range(denom_exponent + 1)
        for j in range(denom_exponent + 1)
        if 2**i * 3**j <= max(height, 1)
    )
    return [
        Fraction(a, d)
        for d in dens
        for a in range(-height, height + 1)
        if gcd(a, d) == 1
    ]


def _s_unit(rng: random.Random, lo: int, hi: int) -> Fraction:
    return (
        rng.choice((1, -1))
        * Fraction(2) ** rng.randint(lo, hi)
        * Fraction(3) ** rng.randint(lo, hi)
    )


def _family_argv(n: int, m: int, a: Fraction, b: Fraction) -> list[str]:
    # "--a=-1/2" rather than "--a -1/2": argparse reads a leading "-" as a flag
    return ["--n", str(n), "--m", str(m), f"--a={rat(a)}", f"--b={rat(b)}", "--s", S_ARG]


def _search_calls(rng: random.Random) -> list[Call]:
    calls = []
    box = len(s_integer_box(SEARCH_HEIGHT, 0))
    for n, m in SEARCH_SHAPES:
        a, b, c = _s_unit(rng, -1, 2), _s_unit(rng, -1, 2), _s_unit(rng, -2, 2)
        common = [*_family_argv(n, m, a, b), "--height-bound", str(SEARCH_HEIGHT),
                  "--denom-exponent", "0", "--format", "json"]
        check = {"n": n, "m": m, "a": a, "b": b, "height": SEARCH_HEIGHT}
        for kind, extra in (("search-shared", []), ("search-su", [f"--c={rat(c)}"])):
            out = f"{kind}-{n}.json"
            calls.append(Call(kind, [kind, *common, *extra, "--out", out], {},
                              box * (box - 1), out, {**check, "c": c}))
    return calls


def _trace_calls(rng: random.Random) -> list[Call]:
    box = s_integer_box(TRACE_HEIGHT, TRACE_DENOM_EXPONENT)
    diagonal = iter(rng.sample(box, len(box)))
    n, m, a, b = TRACE_FAMILY
    calls = []
    for k in range(TRACE_CALLS):
        pairs = []
        for j in range(TRACE_PAIRS):
            if j % 4 == 0:
                x = next(diagonal)
                pairs.append((x, x))
            else:
                pairs.append((rng.choice(box), rng.choice(box)))
        pairs_file, out = f"pairs-{k}.json", f"trace-{k}.json"
        argv = ["trace", *_family_argv(n, m, a, b), "--pairs", pairs_file,
                "--epsilon", "1/10", "--format", "json", "--out", out]
        files = {pairs_file: [{"x": rat(x), "y": rat(y)} for x, y in pairs]}
        calls.append(Call("trace", argv, files, len(pairs), out,
                          {"n": n, "m": m, "a": a, "b": b, "pairs": pairs}))
    return calls


def _smooth(rng: random.Random, lo: int, hi: int) -> int:
    """A 31-smooth integer in [lo, hi]."""
    while True:
        v = 1
        while v < lo:
            v *= rng.choice(SMALL_PRIMES[:-1])
        if v <= hi:
            return v


def _nonsmooth_radical(factors: dict[int, int]) -> int:
    r = 1
    for p in factors:
        if p not in S_PRIMES:
            r *= p
    return r


def _subspace_call(k, points, factorizations, epsilon, extra) -> Call:
    forms_file, points_file, out = "forms.json", f"points-{k}.json", f"subspace-{k}.json"
    argv = ["subspace", "--forms", forms_file, "--points", points_file, "--s", S_ARG,
            "--epsilon", epsilon, *extra, "--format", "json", "--out", out]
    files = {forms_file: SUBSPACE_FORMS,
             points_file: [[str(x0), str(x1)] for x0, x1 in points]}
    return Call("subspace", argv, files, len(points), out,
                {"points": points, "factorizations": factorizations,
                 "epsilon": Fraction(epsilon), "r": 1})


def _fine_eps_point(rng: random.Random):
    while True:
        x0 = _smooth(rng, FINE_EPS_LOW, FINE_EPS_HIGH) * rng.choice((1, -1))
        x1 = _smooth(rng, FINE_EPS_LOW, FINE_EPS_HIGH) * rng.choice((1, -1))
        if x0 + x1 == 0 or strip_s(gcd(x0, x1)) != 1:
            continue
        values = (x0, x1, x0 + x1)
        fs = [trial_factor(abs(v), abs(v) + 1)[0] for v in values]
        rhs = 1
        for f in fs:
            rhs *= _nonsmooth_radical(f)
        if rhs.bit_length() == FINE_EPS_RHS_BITS:
            return (x0, x1), fs


def _fine_eps_calls(rng: random.Random) -> list[Call]:
    calls = []
    for k in range(FINE_EPS_CALLS):
        point, facts = _fine_eps_point(rng)
        calls.append(_subspace_call(k, [point], [facts], FINE_EPS_EPSILON, []))
    return calls


def _prime_in(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        p = rng.randrange(lo, hi) | 1
        if is_prime(p):
            return p


def _stubborn_calls(rng: random.Random) -> list[Call]:
    count = 2 * STUBBORN_CALLS * STUBBORN_POINTS
    step = (STUBBORN_SPLIT - STUBBORN_LOW) // count
    lows = [STUBBORN_LOW + k * step for k in range(count)]
    rng.shuffle(lows)
    points, facts = [], []
    for k in range(STUBBORN_CALLS * STUBBORN_POINTS):
        while True:
            coords = []
            for lo in lows[2 * k: 2 * k + 2]:
                p = _prime_in(rng, lo, lo + step)
                q = _prime_in(rng, p + 1, STUBBORN_HIGH)
                coords.append(({p: 1, q: 1}, p * q))
            total = coords[0][1] + coords[1][1]
            small, cofactor = trial_factor(total, STUBBORN_SUM_SMOOTH)
            if cofactor == 1 or is_prime(cofactor):
                break
        if cofactor > 1:
            small[cofactor] = 1
        points.append((coords[0][1], coords[1][1]))
        facts.append([coords[0][0], coords[1][0], small])
    extra = ["--budget", str(STUBBORN_BUDGET)]
    per = STUBBORN_POINTS
    return [_subspace_call(k, points[k * per: (k + 1) * per], facts[k * per: (k + 1) * per],
                           "1/10", extra) for k in range(STUBBORN_CALLS)]


WORKLOADS = {
    "search": _search_calls,
    "trace": _trace_calls,
    "fine-eps": _fine_eps_calls,
    "stubborn-factor": _stubborn_calls,
}


def make_calls(workload: str, seed: int) -> list[Call]:
    """The calls a run of ``workload`` with this seed repeats."""
    return WORKLOADS[workload](random.Random(f"{seed}:{workload}"))
