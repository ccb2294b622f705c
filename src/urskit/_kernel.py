"""Integer kernel: deterministic primality, wheel trial division, integer
roots, and Brent's variant of Pollard's rho for splitting composites.

`BACKEND` names the implementation in every report's artifact envelope.
"""

from itertools import compress
from math import gcd, isqrt

BACKEND = "pure"

# Deterministic Miller-Rabin witness set: the first 13 primes certify every
# n < CERTIFIED_LIMIT = psi_13 (Sorenson & Webster 2017).  The first 12 stop
# at psi_12 = 318665857834031151167461, a strong pseudoprime to all of them.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# The bound below which the witness set above is a primality certificate.
CERTIFIED_LIMIT = 3_317_044_064_679_887_385_961_981

# mod-30 wheel: gaps between candidate divisors starting at 7.
_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)

# Rho steps between gcds: their differences are multiplied together first.
_RHO_BATCH = 128


def _primes_below(n):
    """Sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return tuple(compress(range(n), sieve))


# The primes below SMALL_PRIME_BOUND, tried by plain division before any rho.
SMALL_PRIME_BOUND = 1000
SMALL_PRIMES = _primes_below(SMALL_PRIME_BOUND)


def is_prime(n):
    """Deterministic primality for 0 <= n < CERTIFIED_LIMIT (~3.3 * 10^24).

    Strong probable-prime tests to the 13 witnesses 2, ..., 41 decide every n
    in that range; at or above it, a True is not a proof.
    """
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def smallest_factor_below(n, limit):
    """Smallest prime factor of n that is <= min(isqrt(n), limit), else 0.

    n >= 2.  A return of 0 means n has no prime factor within the trial
    horizon; it does NOT mean n is prime unless limit >= isqrt(n).  The
    wheel primes 2, 3 and 5 are tested whatever the horizon.
    """
    if n % 2 == 0:
        return 2
    if n % 3 == 0:
        return 3
    if n % 5 == 0:
        return 5
    top = isqrt(n)
    if limit < top:
        top = limit
    d = 7
    i = 0
    while d <= top:
        if n % d == 0:
            return d
        d += _WHEEL[i]
        i = (i + 1) & 7
    return 0


def iroot(n, k):
    """floor(n ** (1/k)) for n >= 0 and k >= 1, by Newton's method in integers."""
    if k == 1 or n < 2:
        return n
    if k == 2:
        return isqrt(n)
    r = 1 << -(-n.bit_length() // k)  # above the root: n < 2**bit_length
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def rho_split(n, cap):
    """A proper factor of the composite n, else 0 after at most `cap` steps.

    Brent's variant of Pollard's rho (Pollard 1975; Brent 1980) on
    x -> x*x + c mod n for c = 1, 2, ...; a step is one application of the
    map.  A return of 0 says nothing about n: it may be prime or just
    unlucky.
    """
    steps = 0
    c = 0
    while steps < cap:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps + r >= cap:
                return 0
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            steps += r
            k = 0
            while k < r and g == 1:
                batch = min(_RHO_BATCH, r - k, cap - steps)
                if batch == 0:
                    return 0
                ys = y
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += batch
                steps += batch
            r *= 2
        if g == n:
            # the batch overshot: retrace it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
    return 0
