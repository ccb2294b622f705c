"""Integer kernel: primality, trial division and integer roots against naive
references."""

from math import isqrt

from hypothesis import given, settings
from hypothesis import strategies as st

from urskit import _kernel as kernel
from urskit.arith import factor

# psi_12: the least strong pseudoprime to each of the first 12 prime bases
PSI_12 = 318665857834031151167461


def _reference_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _reference_smallest_factor(n, limit):
    """First divisor of n by plain trial division up to min(isqrt(n), limit);
    the wheel primes 2, 3 and 5 are tried whatever the horizon."""
    for d in range(2, max(5, min(isqrt(n), limit)) + 1):
        if n % d == 0:
            return d
    return 0


SMALL_PRIMES = [p for p in range(2, 2000) if _reference_is_prime(p)]


def test_is_prime_small_range():
    for n in range(2000):
        assert kernel.is_prime(n) == _reference_is_prime(n), n


def test_is_prime_known_values():
    assert kernel.is_prime(2**31 - 1)  # Mersenne prime
    assert not kernel.is_prime(561)  # Carmichael
    assert not kernel.is_prime(3215031751)  # strong pseudoprime to 2,3,5,7
    assert kernel.is_prime(1_000_000_007)


def test_is_prime_rejects_psi_12():
    # witnesses up to 37 all pass it; 41 does not
    assert PSI_12 == 399165290221 * 798330580441
    assert PSI_12 < kernel.CERTIFIED_LIMIT
    assert not kernel.is_prime(PSI_12)
    assert kernel.is_prime(399165290221) and kernel.is_prime(798330580441)
    assert factor(PSI_12, budget=PSI_12).factors == ((399165290221, 1), (798330580441, 1))


@settings(max_examples=400, derandomize=True)
@given(st.integers(0, 10**4) | st.integers(0, 2**200), st.integers(1, 12))
def test_iroot_is_the_floor_root(n, k):
    r = kernel.iroot(n, k)
    assert r**k <= n < (r + 1) ** k


def test_iroot_of_exact_powers():
    for k in range(1, 8):
        for r in (0, 1, 2, 10007, 999983, 2**64 + 13):
            assert kernel.iroot(r**k, k) == r
            if r > 1:
                assert kernel.iroot(r**k - 1, k) == r - 1


def test_smallest_factor_below_examples():
    assert kernel.smallest_factor_below(91, 10) == 7
    assert kernel.smallest_factor_below(91, 6) == 0  # horizon too small
    assert kernel.smallest_factor_below(2**2 * 3, 100) == 2
    assert kernel.smallest_factor_below(49, 7) == 7
    # prime: no factor at or below isqrt
    assert kernel.smallest_factor_below(97, 100) == 0


def test_wide_integers():
    assert kernel.is_prime(2**89 - 1)  # Mersenne prime
    assert kernel.smallest_factor_below(2**70 * 3, 10) == 2


_WIDE = st.integers(2**64, 2**100)

_N = st.one_of(
    st.integers(2, 10**6),
    st.integers(2**64 - 2**10, 2**64 + 2**10),
    st.sampled_from(SMALL_PRIMES).map(lambda p: p * p),
    st.builds(lambda p, q: p * q, st.sampled_from(SMALL_PRIMES), st.sampled_from(SMALL_PRIMES)),
    st.builds(lambda p, q: p * q, st.sampled_from(SMALL_PRIMES), _WIDE),
    _WIDE,
)


@st.composite
def _n_and_limit(draw):
    """n with a limit drawn from around its smallest factor p (p-1, p, p+1)
    and around isqrt(n), or at random."""
    n = draw(_N)
    anchors = []
    p = _reference_smallest_factor(n, 10**4)
    if p:
        anchors += [p - 1, p, p + 1]
    if p or n < 10**10:  # keeps the reference's scan short
        r = isqrt(n)
        anchors += [r - 1, r, r + 1]
    limits = st.integers(0, 3000)
    if anchors:
        limits |= st.sampled_from(anchors)
    return n, draw(limits)


@settings(max_examples=400, derandomize=True)
@given(_n_and_limit())
def test_smallest_factor_below_matches_trial_division(case):
    n, limit = case
    assert kernel.smallest_factor_below(n, limit) == _reference_smallest_factor(n, limit)


# primes above 1000, as factor leaves them to rho
_RHO_PRIMES = st.sampled_from(SMALL_PRIMES[168:]) | st.sampled_from(
    [1_000_003, 1_000_033, 999_999_937, 2**31 - 1]
)


@settings(max_examples=200, derandomize=True)
@given(_RHO_PRIMES, _RHO_PRIMES, st.integers(1, 3))
def test_rho_split_returns_a_proper_factor(p, q, e):
    n = p**e * q
    d = kernel.rho_split(n, 10**6)
    assert 1 < d < n and n % d == 0


def test_rho_split_retries_when_both_cycles_close_together():
    # with c = 1 the gcd jumps straight to n for these, so rho must try c = 2
    for p, q in [(101, 271), (103, 149), (107, 163)]:
        assert kernel.rho_split(p * q, 10**4) in (p, q)


def test_rho_split_gives_up():
    assert kernel.rho_split(1_000_000_007, 10**4) == 0  # a prime never splits
    assert kernel.rho_split(1009 * 1013, 0) == 0
    # both factors near 10^12 need far more than 1000 steps
    assert kernel.rho_split((10**12 + 39) * (10**12 + 61), 1000) == 0


def test_small_primes():
    assert kernel.SMALL_PRIMES == tuple(
        p for p in range(kernel.SMALL_PRIME_BOUND) if _reference_is_prime(p)
    )
