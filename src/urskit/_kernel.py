"""Integer kernel: deterministic primality and wheel trial division.

`BACKEND` names the implementation in every report's artifact envelope.
"""

from math import isqrt

BACKEND = "pure"

# Deterministic Miller-Rabin witness set, valid for n < 3_317_044_064_679_887_385_961_981.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Largest n for which the witness set above is a primality certificate.
CERTIFIED_LIMIT = 3_317_044_064_679_887_385_961_981

# mod-30 wheel: gaps between candidate divisors starting at 7.
_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)


def is_prime(n):
    """Deterministic primality for 0 <= n < CERTIFIED_LIMIT."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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
