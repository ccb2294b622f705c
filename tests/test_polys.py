"""Polynomial layer: evaluation, resultants vs the Sylvester oracle,
discriminants, family validation, root construction."""

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urskit.arith import SContext, ord_at
from urskit.exactlinalg import det
from urskit.polys import (
    RatPoly,
    TrinomialFamily,
    build_from_roots,
    discriminant,
    resultant,
    validate_family,
)
from urskit.report import stable_json

S23 = SContext.of([2, 3])

YI_EXAMPLE = TrinomialFamily(7, 1, F(1), F(1))

small_polys = st.builds(
    RatPoly.of,
    st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
        min_size=1,
        max_size=9,  # degree up to 8
    ),
)


def sylvester_resultant(P: RatPoly, Q: RatPoly) -> F:
    """Independent oracle: determinant of the Sylvester matrix."""
    n, m = P.degree, Q.degree
    if n == 0:
        return P.leading**m
    if m == 0:
        return Q.leading**n
    size = n + m
    rows = []
    pc = list(reversed(P.coeffs))
    qc = list(reversed(Q.coeffs))
    for i in range(m):
        rows.append([F(0)] * i + pc + [F(0)] * (size - n - 1 - i))
    for i in range(n):
        rows.append([F(0)] * i + qc + [F(0)] * (size - m - 1 - i))
    return det(rows)


# --- evaluation and ring structure --------------------------------------------


def test_eval_examples():
    P = YI_EXAMPLE.polynomial()
    assert P.evaluate(F(0)) == 1
    assert P.evaluate(F(1)) == 3
    assert P.evaluate(F(-1)) == 1


@settings(max_examples=200, derandomize=True)
@given(small_polys, small_polys, st.fractions(min_value=-5, max_value=5, max_denominator=4))
def test_eval_ring_homomorphism(P, Q, x):
    assert (P * Q).evaluate(x) == P.evaluate(x) * Q.evaluate(x)
    assert (P + Q).evaluate(x) == P.evaluate(x) + Q.evaluate(x)


def fraction_horner(P: RatPoly, x) -> F:
    """Reference: the Fraction Horner loop RatPoly.evaluate used to run."""
    x = F(x)
    acc = F(0)
    for c in reversed(P.coeffs):
        acc = acc * x + c
    return acc


@settings(max_examples=200, derandomize=True)
@given(
    st.lists(
        st.fractions(min_value=-50, max_value=50, max_denominator=36),
        max_size=9,  # includes [] and all-zero lists: the zero polynomial
    ),
    st.fractions(min_value=-40, max_value=40, max_denominator=60),
)
def test_eval_matches_fraction_horner(coeffs, x):
    coeffs = coeffs + [F(0)] * (len(coeffs) % 3)  # trailing zeros to trim
    P = RatPoly.of(coeffs)
    got = P.evaluate(x)
    assert type(got) is F
    assert got == fraction_horner(P, x)
    assert P.evaluate(x.numerator) == fraction_horner(P, x.numerator)


def test_eval_zero_and_constant_polynomials():
    assert RatPoly.of([]).evaluate(F(3, 4)) == 0
    assert RatPoly.of([0, 0]).evaluate(F(-7)) == 0
    assert RatPoly.constant(F(-5, 6)).evaluate(F(9, 8)) == F(-5, 6)
    assert RatPoly.of([F(1, 2), F(1, 3)]).evaluate(F(-3, 2)) == 0
    assert RatPoly.of([1, 2]).evaluate("1/2") == 2


def test_divmod_identity():
    A = RatPoly.of([1, 2, 0, 3, 5])
    B = RatPoly.of([-1, 4, 2])
    q, r = A.divmod(B)
    assert q * B + r == A
    assert r.degree < B.degree


# --- resultant ----------------------------------------------------------------


def test_resultant_linear_convention():
    for a, b in [(F(5), F(3)), (F(-2), F(7)), (F(1, 2), F(1, 3))]:
        P = RatPoly.of([-a, 1])
        Q = RatPoly.of([-b, 1])
        assert resultant(P, Q) == a - b


def test_resultant_examples():
    assert resultant(RatPoly.of([1, 0, 1]), RatPoly.of([0, 1])) == 1  # X^2+1, X
    # X^2-1 against 2X, pinned by the Sylvester determinant
    P, Q = RatPoly.of([-1, 0, 1]), RatPoly.of([0, 2])
    assert sylvester_resultant(P, Q) == -4
    assert resultant(P, Q) == -4


def test_resultant_zero_error():
    with pytest.raises(ValueError):
        resultant(RatPoly.of([]), RatPoly.of([1, 2]))


def test_resultant_root_product():
    # res(P, Q) = lc(P)^deg(Q) * prod Q(root) over the roots of P
    roots = [F(1), F(-2), F(3, 2)]
    P = build_from_roots(roots).scale(4)
    Q = RatPoly.of([1, 1, 1])
    expected = F(4) ** Q.degree
    for r in roots:
        expected *= Q.evaluate(r)
    assert resultant(P, Q) == expected


@settings(max_examples=150, derandomize=True)
@given(small_polys, small_polys)
def test_resultant_matches_sylvester(P, Q):
    if P.is_zero or Q.is_zero:
        return
    assert resultant(P, Q) == sylvester_resultant(P, Q)


# --- discriminant ---------------------------------------------------------------


@settings(max_examples=100, derandomize=True)
@given(
    st.fractions(min_value=-8, max_value=8, max_denominator=5),
    st.fractions(min_value=-8, max_value=8, max_denominator=5),
)
def test_discriminant_quadratic_identity(b, c):
    assert discriminant(RatPoly.of([c, b, 1])) == b * b - 4 * c


def test_discriminant_examples():
    assert discriminant(RatPoly.of([-1, 0, 1])) == 4
    assert discriminant(RatPoly.of([0, 0, 1])) == 0
    # frozen regression value, cross-checked against an independent
    # computer-algebra system once at fixture time
    assert discriminant(YI_EXAMPLE.polynomial()) == -870199


def test_discriminant_constant_error():
    with pytest.raises(ValueError):
        discriminant(RatPoly.of([5]))


@settings(max_examples=200, derandomize=True)
@given(small_polys)
def test_discriminant_iff_gcd(P):
    if P.degree < 1:
        return
    disc_zero = discriminant(P) == 0
    gcd_nonconstant = P.gcd(P.derivative()).degree >= 1
    assert disc_zero == gcd_nonconstant


# --- family validation -----------------------------------------------------------


def test_family_structure():
    assert str(YI_EXAMPLE.polynomial()) == "X^7 + X^6 + 1"
    with pytest.raises(ValueError):
        TrinomialFamily(3, 3, F(1), F(1))
    with pytest.raises(ValueError):
        TrinomialFamily(3, 0, F(1), F(1))


def test_validate_accepts_reference_family():
    for S in (SContext.of([]), S23, SContext.of([2, 3, 7])):
        assert validate_family(S, YI_EXAMPLE).passed


@pytest.mark.parametrize(
    "fam,S,failing",
    [
        (TrinomialFamily(6, 1, F(1), F(1)), S23, "degree_gap"),
        (TrinomialFamily(8, 2, F(1), F(1)), S23, "coprime_degrees"),
        (TrinomialFamily(7, 1, F(1), F(1, 5)), S23, "b_s_unit"),
        (
            TrinomialFamily(7, 1, F(1), F(-(6**6), 7**7)),
            SContext.of([2, 3, 7]),
            "squarefree",
        ),
    ],
)
def test_validate_rejections(fam, S, failing):
    rep = validate_family(S, fam)
    assert not rep.passed
    assert not rep.check(failing).passed


def test_disc_zero_family_confirmed_by_gcd():
    fam = TrinomialFamily(7, 1, F(1), F(-(6**6), 7**7))
    P = fam.polynomial()
    assert discriminant(P) == 0
    g = P.gcd(P.derivative())
    assert g.degree >= 1
    assert P.evaluate(F(-6, 7)) == 0 and g.evaluate(F(-6, 7)) == 0


def test_roots_criterion_consequences():
    # for a passing family and p outside S: ord_p(b) = 0, coefficient ords >= 0
    S = SContext.of([2, 3, 7])
    fam = TrinomialFamily(7, 1, F(-3, 2), F(8, 9))
    rep = validate_family(S, fam)
    assert rep.check("roots_s_units").passed
    for p in (5, 11, 13):
        assert ord_at(p, fam.b) == 0
        for c in fam.polynomial().coeffs:
            if c != 0:
                assert ord_at(p, c) >= 0


# --- construction from roots -----------------------------------------------------


def test_build_from_roots_examples():
    assert build_from_roots([F(1), F(-1)]) == RatPoly.of([-1, 0, 1])
    assert build_from_roots([]) == RatPoly.of([1])
    assert build_from_roots([F(2), F(3), F(1, 2)]) == RatPoly.of(
        [F(-3), F(17, 2), F(-11, 2), F(1)]
    )


def test_build_from_roots_duplicate_error():
    with pytest.raises(ValueError, match="distinct"):
        build_from_roots([F(1), F(1)])


@settings(max_examples=100, derandomize=True)
@given(st.sets(st.fractions(min_value=-6, max_value=6, max_denominator=4), max_size=5))
def test_build_from_roots_vanishes_at_roots(roots):
    P = build_from_roots(sorted(roots))
    for r in roots:
        assert P.evaluate(r) == 0
    assert P.degree == len(roots)
    assert P.is_zero or P.leading == 1


def test_poly_json_roundtrip():
    P = RatPoly.of([F(1, 2), F(0), F(-3)])
    data = json.loads(stable_json(P))
    assert data == {"coeffs": ["1/2", "0", "-3"]}
    assert RatPoly.of(F(c) for c in data["coeffs"]) == P


def test_random_discriminant_agreement_with_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(7)
    for _ in range(20):
        coeffs = [F(rng.randint(-6, 6)) for _ in range(rng.randint(2, 7))]
        P = RatPoly.of(coeffs + [F(rng.randint(1, 5))])
        expr = sum(int(c) * x**i for i, c in enumerate(P.coeffs))
        assert discriminant(P) == F(str(sympy.discriminant(expr, x)))
