"""Subspace-inequality evaluator: general position, normalization, per-point
verdicts, and the two-variable delegation."""

import json
from fractions import Fraction as F
from math import gcd, lcm, prod
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from urskit import subspace
from urskit.arith import SContext, non_s_ord_profile, non_s_part, unit_equation_solutions
from urskit.cli import load_pairs_file
from urskit.heights import (
    Magnitude,
    ScaledLog,
    cmp_scaled,
    counting,
    counting_trunc,
    height,
)
from urskit.polys import TrinomialFamily
from urskit.sharing import s_integer_box
from urskit.subspace import (
    HOLDS,
    SKIPPED,
    VIOLATED,
    DefectReport,
    LinearFormSystem,
    check_primitive,
    corollary_eval,
    evaluate_conjecture,
    general_position_check,
    normalize_point,
)
from urskit.trace import build_trace_rows, main_inequality_report
from urskit.report import stable_json

GOLDEN = Path(__file__).parent / "golden"

S23 = SContext.of([2, 3])

FORMS_3 = LinearFormSystem.of(1, [[1, 0], [0, 1], [1, 1]])


def test_general_position_examples():
    assert general_position_check(FORMS_3) is None
    bad = LinearFormSystem.of(1, [[1, 0], [2, 0], [0, 1]])
    assert general_position_check(bad) == (0, 1)
    r2 = LinearFormSystem.of(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    assert general_position_check(r2) is None


def test_form_system_shape_validation():
    with pytest.raises(ValueError):
        LinearFormSystem.of(1, [[1, 0]])  # q < r+1
    with pytest.raises(ValueError):
        LinearFormSystem.of(1, [[1, 0], [0, 1], [1, 1, 1]])


@pytest.mark.parametrize(
    "coords,expected",
    [
        ((F(81), F(-80)), ["81", "-80"]),
        ((F(10), F(15)), ["2", "3"]),
        ((F(1, 5), F(1)), ["1", "5"]),
    ],
)
def test_normalize_examples(coords, expected):
    assert json.loads(stable_json(normalize_point(S23, coords))) == expected


def _normalize_oracle(S, coords):
    """Normalization by valuation profiles: scale by p^(-min ord_p) over the
    primes p outside S that divide some nonzero coordinate."""
    cs = [F(c) for c in coords]
    profiles = [non_s_ord_profile(S, c) for c in cs if c != 0]
    primes = sorted(set().union(*(set(pr) for pr in profiles)))
    scale = F(1)
    for p in primes:
        # absent primes have valuation 0 at that coordinate
        low = min(pr.get(p, 0) for pr in profiles)
        if low != 0:
            scale *= F(p) ** (-low)
    return tuple(c * scale for c in cs)


coords_strategy = st.lists(
    st.builds(
        F,
        st.integers(min_value=-10**4, max_value=10**4),
        st.integers(min_value=1, max_value=10**4),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=300, derandomize=True)
@given(st.sets(st.sampled_from([2, 3, 5, 7])), coords_strategy)
def test_normalize_matches_profile_oracle(primes, coords):
    assume(any(c != 0 for c in coords))
    S = SContext.of(primes)
    assert normalize_point(S, coords) == _normalize_oracle(S, coords)


def test_normalize_zero_tuple_error():
    with pytest.raises(ValueError, match="zero tuple"):
        normalize_point(S23, (F(0), F(0)))


def test_normalize_idempotent():
    for coords in [(F(7), F(35)), (F(1, 7), F(2)), (F(50), F(15), F(10))]:
        once = normalize_point(S23, coords)
        twice = normalize_point(S23, once)
        assert once == twice


def test_strict_mode():
    assert check_primitive(S23, ("81", -80)) == (F(81), F(-80))
    with pytest.raises(ValueError, match="not primitive"):
        check_primitive(S23, (F(10), F(15)))


def test_strict_reports_equal_non_strict_on_primitive_points():
    points = [(F(81), F(-80)), (F(5), F(-4)), (F(1), F(-1))]
    strict = evaluate_conjecture(S23, FORMS_3, F(1, 10), points, strict=True)
    assert strict == evaluate_conjecture(S23, FORMS_3, F(1, 10), points)


def test_worked_defect_fixture():
    reports = evaluate_conjecture(
        S23, FORMS_3, F(1, 10), [(F(81), F(-80)), (F(5), F(-4))]
    )
    first, second = reports
    assert first.max_height == Magnitude(81)
    assert first.rhs == Magnitude(5)
    assert first.verdict == VIOLATED
    assert second.rhs == Magnitude(5)
    assert second.verdict == HOLDS


def test_negative_coefficient_always_holds():
    two_forms = LinearFormSystem.of(1, [[1, 0], [0, 1]])  # q = r + 1
    reports = evaluate_conjecture(S23, two_forms, F(1, 10), [(F(7), F(5))])
    assert reports[0].verdict == HOLDS
    assert reports[0].lhs_coefficient < 0


def test_vanishing_form_skipped():
    reports = evaluate_conjecture(S23, FORMS_3, F(1, 10), [(F(1), F(-1))])
    assert reports[0].verdict == SKIPPED
    assert reports[0].reason == "form vanishes at the point"
    assert reports[0].form_counts == (None,) * FORMS_3.q
    assert reports[0].rhs is None


def test_skipped_point_counts_nothing(monkeypatch):
    # (x0, x1, x2, x0+x1+x2) at a point where the last form vanishes: the
    # first coordinate, 1000003 * 1000033, is never factored
    def no_count(*args):
        raise AssertionError("counting_trunc called on a skipped point")

    monkeypatch.setattr(subspace, "counting_trunc", no_count)
    forms = LinearFormSystem.of(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    point = (F(1000036000099), F(-1000036000098), F(-1))
    (report,) = evaluate_conjecture(S23, forms, F(1, 10), [point])
    assert report.verdict == SKIPPED and report.form_counts == (None,) * 4
    # so is a corollary pair on an axis: C*x0 - A*x1 or x1 vanishes at (1, x)
    C = point[0]
    rows = corollary_eval(S23, F(1), F(1), C, F(1, 10), [(F(0), C), (C, F(0))])
    assert [row.delegated.verdict for row in rows] == [SKIPPED, SKIPPED]


def test_one_general_position_check_per_call(monkeypatch):
    calls = []

    def spy(sys):
        calls.append(sys)
        return general_position_check(sys)

    monkeypatch.setattr(subspace, "general_position_check", spy)
    points = [(F(81), F(-80)), (F(5), F(-4)), (F(1), F(-1)), (F(17), F(13))]
    evaluate_conjecture(S23, FORMS_3, F(1, 10), points)
    assert calls == [FORMS_3]
    pairs = load_pairs_file(str(GOLDEN / "corollary_pairs.json"))
    rows = corollary_eval(S23, F(1), F(1), F(1), F(1, 10), pairs)
    assert sum(row.constraint_ok for row in rows) == 5
    assert len(calls) == 2


def test_degenerate_system_error():
    bad = LinearFormSystem.of(1, [[1, 0], [2, 0], [0, 1]])
    with pytest.raises(ValueError, match="degenerate"):
        evaluate_conjecture(S23, bad, F(1, 10), [(F(1), F(1))])


def test_epsilon_monotonicity():
    points = [(F(17), F(13)), (F(81), F(-80)), (F(5), F(-4)), (F(7), F(18)), (F(25), F(6))]
    eps_grid = [F(0), F(1, 10), F(1, 2), F(9, 10)]
    verdicts = [evaluate_conjecture(S23, FORMS_3, e, points) for e in eps_grid]
    for idx in range(len(points)):
        seen_hold = False
        for level in range(len(eps_grid)):
            v = verdicts[level][idx].verdict
            if seen_hold and v != SKIPPED:
                assert v == HOLDS  # once it holds, larger epsilon keeps it
            if v == HOLDS:
                seen_hold = True


def test_summary_statistics():
    from urskit.subspace import summarize_defects

    reports = evaluate_conjecture(
        S23, FORMS_3, F(1, 10), [(F(81), F(-80)), (F(5), F(-4)), (F(1), F(-1))]
    )
    summary = summarize_defects(reports)
    assert summary.points == 3
    assert summary.violated == 1 and summary.holds == 1 and summary.skipped == 1
    assert summary.max_violating_height == Magnitude(81)


def test_truncation_ceiling():
    reports = evaluate_conjecture(S23, FORMS_3, F(1, 10), [(F(50), F(7))])
    rep = reports[0]
    for value, trunc in zip(rep.form_values, rep.form_counts):
        assert trunc.value <= counting(S23, value).value
        assert counting_trunc(S23, FORMS_3.r, value) == trunc


def test_scaling_invariance_outside_s():
    # scaling by a rational with no S-support is undone by normalization
    base = [(F(81), F(-80)), (F(17), F(5))]
    scaled = [(7 * x, 7 * y) for x, y in base]
    r1 = evaluate_conjecture(S23, FORMS_3, F(1, 10), base)
    r2 = evaluate_conjecture(S23, FORMS_3, F(1, 10), scaled)
    for a, b in zip(r1, r2):
        assert a == b


def test_s_unit_scaling_fixes_counting_side():
    # S-unit rescaling never changes the N side; heights may move
    base = evaluate_conjecture(S23, FORMS_3, F(1, 10), [(F(1), F(5))])[0]
    scaled = evaluate_conjecture(S23, FORMS_3, F(1, 10), [(F(1024), F(5120))])[0]
    assert base.rhs == scaled.rhs
    assert base.form_counts == scaled.form_counts


# --- abc calibration ----------------------------------------------------------
# With r = 1 and the forms (x0, x1, x0+x1), the point (a, -c) with a + b = c
# and gcd(a, b) = 1 is tested as (1 - eps)*log max(|a|, |c|) <= log rad(abc),
# rad over the primes outside S: the abc conjecture with its constant dropped.

REYSSAT = (F(2), F(-6436343))  # 2 + 3^10*109 = 23^5, quality 1.62991
DE_WEGER = (F(121), F(-48234496))  # 11^2 + 3^2*5^6*7^3 = 2^21*23, quality 1.62599


@pytest.mark.parametrize(
    "eps, verdicts",
    [
        (F(38, 100), [VIOLATED, VIOLATED]),
        (F(385, 1000), [VIOLATED, HOLDS]),  # between 1 - 1/quality of each
        (F(39, 100), [HOLDS, HOLDS]),
    ],
)
def test_abc_calibration_points(eps, verdicts):
    reports = evaluate_conjecture(SContext.of([]), FORMS_3, eps, [REYSSAT, DE_WEGER])
    assert [r.verdict for r in reports] == verdicts
    assert [r.rhs.value for r in reports] == [15042, 53130]  # rad(abc)


def _radical_outside(primes, n):
    """The product of the primes outside `primes` dividing n != 0, by trial
    division."""
    n, rad, p = abs(n), 1, 2
    while p * p <= n:
        if n % p == 0:
            rad *= 1 if p in primes else p
            while n % p == 0:
                n //= p
        p += 1
    return rad * (1 if n == 1 or n in primes else n)


def _smooth(sign, exponents):
    """sign * 2^e0 * 3^e1 * 5^e2 * 7^e3: a small radical."""
    out = sign
    for p, e in zip((2, 3, 5, 7), exponents):
        out *= p**e
    return out


# smooth a and b give small radicals, so both verdicts occur
_ABC_TERMS = st.one_of(
    st.integers(-(10**5), 10**5),
    st.builds(_smooth, st.sampled_from((1, -1)),
              st.lists(st.integers(0, 4), min_size=4, max_size=4)),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.sets(st.sampled_from([2, 3, 5, 7]), max_size=3),
    _ABC_TERMS,
    _ABC_TERMS,
    st.integers(1, 100),
    st.integers(0, 100),
)
def test_abc_verdict_matches_integer_oracle(primes, a, b, D, N):
    c = a + b
    assume(a != 0 and b != 0 and c != 0 and gcd(a, b) == 1)
    (report,) = evaluate_conjecture(SContext.of(primes), FORMS_3, F(N, D), [(F(a), F(-c))])
    rad = _radical_outside(primes, a) * _radical_outside(primes, b) * _radical_outside(primes, c)
    assert report.rhs.value == rad
    # (1 - N/D)*log H > log rad, raised to the D-th power; F keeps D - N < 0 exact
    violated = F(max(abs(a), abs(c))) ** (D - N) > rad**D
    assert report.verdict == (VIOLATED if violated else HOLDS)


# --- corollary mode -----------------------------------------------------------


def test_corollary_fixture_rows():
    rows = corollary_eval(
        S23, F(1), F(1), F(1), F(1, 10), [(F(81), F(-80)), (F(5), F(-4)), (F(1), F(0))]
    )
    first, second, third = rows
    assert first.verdict == VIOLATED and first.direct_rhs == Magnitude(5)
    assert second.verdict == HOLDS
    assert third.verdict == HOLDS  # h(1) = 0 makes the left side vanish
    assert first.agree and second.agree


def test_corollary_constraint_error_row():
    rows = corollary_eval(S23, F(1), F(1), F(1), F(1, 10), [(F(2), F(2))])
    assert rows[0].verdict == "error"
    assert not rows[0].constraint_ok


def test_corollary_rejects_zero_constants():
    with pytest.raises(ValueError):
        corollary_eval(S23, F(0), F(1), F(1), F(1, 10), [])


def test_corollary_agrees_with_delegation_on_unit_equation_data():
    pairs = unit_equation_solutions(S23, 3)
    rows = corollary_eval(S23, F(1), F(1), F(1), F(1, 10), pairs)
    assert len(rows) == len(pairs)
    for row in rows:
        assert row.constraint_ok
        assert row.agree is True
        assert row.delegated.rhs == row.direct_rhs
        assert row.delegated.verdict == row.direct_verdict


def test_delegated_point_matches_proof_reduction():
    # the delegated system is x0, x1, C*x0 - A*x1 evaluated at (1, x)
    A, B, C = F(2), F(3), F(5)
    x, y = F(1), F(1)
    rows = corollary_eval(S23, A, B, C, F(1, 10), [(x, y)])
    delegated = rows[0].delegated
    assert delegated.form_values == (F(1), x, C - A * x)
    assert delegated.point == (F(1), x)


# --- the Fraction point pipeline, kept as the oracle --------------------------
# Form values as Fraction sums, normalization by a Fraction scale and the
# verdict through cmp_scaled on two ScaledLogs: what evaluate_conjecture did
# before it decided points on integers.


def _form_values_oracle(sys, coords):
    return tuple(sum((c * v for c, v in zip(row, coords)), F(0)) for row in sys.forms)


def _normalize_fraction_oracle(S, coords):
    cs = [F(c) for c in coords]
    parts = [non_s_part(S, c) for c in cs if c != 0]
    scale = F(lcm(*(den for _, den in parts)), gcd(*(num for num, _ in parts)))
    return tuple(c * scale for c in cs)


def _verdict_oracle(coeff, base, rhs):
    if coeff <= 0 or cmp_scaled(ScaledLog(coeff, base), ScaledLog(F(1), rhs)) <= 0:
        return HOLDS
    return VIOLATED


def _evaluate_oracle(S, sys, eps, points):
    coeff = F(sys.q - sys.r - 1) - eps
    reports = []
    for raw in points:
        coords = _normalize_fraction_oracle(S, raw)
        hs = tuple(height(c) for c in coords)
        hmax = max(hs)
        values = _form_values_oracle(sys, coords)
        if 0 in values:
            counts, rhs = (None,) * sys.q, None
            verdict, reason = SKIPPED, "form vanishes at the point"
        else:
            counts = tuple(counting_trunc(S, sys.r, v) for v in values)
            rhs = prod(counts, start=Magnitude(1))
            verdict, reason = _verdict_oracle(coeff, hmax, rhs), None
        reports.append(
            DefectReport(coords, hs, hmax, values, counts, rhs, coeff, verdict, reason)
        )
    return reports


# S = {2, 3}: denominators inside S and outside it (5, 7, 35)
_COORDS = st.builds(
    F,
    st.integers(-(10**4), 10**4),
    st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9, 12, 35]),
)
_FORM_COEFFS = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def _point_cases(draw):
    """A system in general position with r in {1, 2}, rational coefficients,
    and points of which some are solved to make one form vanish."""
    r = draw(st.sampled_from([1, 2]))
    q = draw(st.integers(r + 1, r + 3))
    sys = LinearFormSystem.of(
        r, [draw(st.lists(_FORM_COEFFS, min_size=r + 1, max_size=r + 1)) for _ in range(q)]
    )
    assume(general_position_check(sys) is None)
    points = []
    for _ in range(draw(st.integers(1, 4))):
        point = draw(st.lists(_COORDS, min_size=r + 1, max_size=r + 1))
        if draw(st.booleans()):
            row = sys.forms[draw(st.integers(0, q - 1))]
            j = max(k for k, c in enumerate(row) if c)
            rest = sum((c * v for k, (c, v) in enumerate(zip(row, point)) if k != j), F(0))
            point[j] = -rest / row[j]
        assume(any(point))
        points.append(point)
    gap = F(q - r - 1)
    # coefficient gap, gap - 1/10^5, 0 and negative
    eps = draw(st.sampled_from([F(0), F(1, 10**5), F(1, 10), gap, gap + F(1, 3)]))
    return sys, eps, points


# violated, holds and skipped points under each kind of coefficient
_FIXED_POINTS = [[F(81), F(-80)], [F(5), F(-4)], [F(1), F(-1)], [F(1, 5), F(7, 2)]]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_point_cases())
@example((FORMS_3, F(0), _FIXED_POINTS))
@example((FORMS_3, F(1, 10**5), _FIXED_POINTS))
@example((FORMS_3, F(1), _FIXED_POINTS))
@example((FORMS_3, F(4, 3), _FIXED_POINTS))
def test_point_pipeline_matches_fraction_oracle(case):
    sys, eps, points = case
    assert evaluate_conjecture(S23, sys, eps, points) == _evaluate_oracle(S23, sys, eps, points)


@pytest.mark.parametrize("eps", [F(0), F(1, 10**5), F(1, 10), F(1), F(3, 2)])
def test_corollary_rows_match_fraction_oracle(eps):
    pairs = unit_equation_solutions(S23, 3) + [(F(81), F(-80)), (F(0), F(1)), (F(7), F(-6))]
    rows = corollary_eval(S23, F(1), F(1), F(1), eps, pairs)
    sys = LinearFormSystem.of(1, [[1, 0], [0, 1], [1, -1]])
    assert [row.delegated for row in rows] == _evaluate_oracle(
        S23, sys, eps, [(F(1), x) for x, _ in pairs]
    )
    for (x, y), row in zip(pairs, rows):
        if x != 0 and y != 0:
            rhs = counting_trunc(S23, 1, x) * counting_trunc(S23, 1, y)
            assert row.direct_verdict == _verdict_oracle(1 - eps, height(x), rhs)


# not 1/10^5: the diagonal rows' sides share a bit length, so each comparison
# would build its powers (ROADMAP item 3), seconds per call on both sides
@pytest.mark.parametrize("eps", [F(0), F(1, 1000), F(1, 10), F(1), F(3, 2)])
def test_conjectural_step_matches_fraction_oracle(eps):
    fam = TrinomialFamily(7, 1, F(1), F(1))
    box = s_integer_box(S23, 12, 1)
    pairs = [(x, x) for x in box] + load_pairs_file(str(GOLDEN / "trace_pairs.json"))
    rows, _ = build_trace_rows(S23, fam, pairs)
    report = main_inequality_report(S23, fam, eps, rows)
    decided = 0
    for row, out in zip(rows, report.rows):
        if "conjectural_max_height" not in out:
            continue
        hmax = Magnitude(int(out["conjectural_max_height"]))
        rhs = Magnitude(int(out["conjectural_rhs"]))
        assert hmax == max(row.h_eta, row.h_u, row.h_zeta)
        assert rhs == row.n2_eta * row.n2_u * row.n2_zeta
        assert out["conjectural_step"] == _verdict_oracle(1 - eps, hmax, rhs)
        decided += 1
    assert decided > 0
