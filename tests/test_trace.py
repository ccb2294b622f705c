"""Proof-engine tests: auxiliary identities, chain inequalities with explicit
constants, dependence detection, case classification, uniqueness search."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from urskit.arith import FactoringBudgetError, SContext, unit_equation_solutions
from urskit.heights import Magnitude, ScaledLog, cmp_scaled, counting, counting_trunc, height
from urskit.polys import RatPoly, TrinomialFamily, ValidationReport, validate_family
from urskit.sharing import SearchBudgetError, s_integer_box, search_shared_pairs, share_check
from urskit import trace
from urskit.trace import (
    aux_build,
    build_trace_rows,
    case_classify,
    dependence_detect,
    eta_height_constant,
    evaluation_height_constant,
    identity_check,
    main_inequality_report,
    roth_chain_report,
    shift_height_constant,
    strong_uniqueness_search,
    CheckReport,
    TraceRow,
    trunc_bound_check,
    unit_height_check,
)

S23 = SContext.of([2, 3])
FAM = TrinomialFamily(7, 1, F(1), F(1))
P7 = FAM.polynomial()


def test_aux_build_examples():
    assert aux_build(FAM, F(1), F(1), F(1)) == (F(-2), F(2))
    assert aux_build(FAM, F(0), F(5), F(1))[0] == 0
    assert aux_build(FAM, F(0), F(-1), F(1)) == (F(0), F(0))


def test_aux_build_requires_nonzero_b():
    fam = TrinomialFamily(7, 1, F(1), F(0))
    with pytest.raises(ValueError):
        aux_build(fam, F(1), F(1), F(1))


def _aux_oracle(fam, x, y, u):
    """aux_build on Fractions, as its definition reads."""
    eta = -(x ** (fam.n - fam.m)) * (x**fam.m + fam.a) / fam.b
    zeta = (y ** (fam.n - fam.m)) * (y**fam.m + fam.a) * u / fam.b
    return eta, zeta


_aux_rats = st.fractions(min_value=-50, max_value=50, max_denominator=40)
_aux_values = st.one_of(_aux_rats, st.integers(-20, 20))


@given(
    st.sampled_from([(2, 1), (3, 2), (5, 2), (7, 1), (7, 6), (12, 5)]),
    _aux_rats,
    _aux_rats.filter(bool),
    _aux_values,
    _aux_values,
    _aux_values,
)
def test_aux_build_matches_fraction_oracle(nm, a, b, x, y, u):
    fam = TrinomialFamily(*nm, a, b)
    assert aux_build(fam, x, y, u) == _aux_oracle(fam, F(x), F(y), F(u))


def test_identity_examples():
    assert identity_check(FAM, F(1), F(1), F(1))
    assert identity_check(FAM, F(0), F(-1), F(1))
    assert not identity_check(FAM, F(1), F(0), F(1))


def test_identity_holds_for_quotient_units():
    rng = random.Random(101)
    box = s_integer_box(S23, 9, 1)
    checked = 0
    for _ in range(300):
        x, y = rng.choice(box), rng.choice(box)
        py = P7.evaluate(y)
        if py == 0:
            continue
        u = P7.evaluate(x) / py
        assert identity_check(FAM, x, y, u)
        checked += 1
    assert checked > 250


# --- constants ---------------------------------------------------------------


def test_evaluation_height_constant():
    assert evaluation_height_constant(P7) == 4
    # rational coefficients pick up the denominator factor
    assert evaluation_height_constant(RatPoly.of([F(1, 3), F(0), F(1)])) == 7


def test_evaluation_height_constant_is_a_bound():
    rng = random.Random(5)
    c = evaluation_height_constant(P7)
    n = P7.degree
    from urskit.heights import height

    for _ in range(300):
        x = F(rng.randint(-50, 50), rng.randint(1, 50))
        assert height(P7.evaluate(x)).value <= c * height(x).value ** n


def test_eta_height_constant_is_a_floor():
    from urskit.heights import height

    c = eta_height_constant(FAM)
    assert c == 2**8
    rng = random.Random(6)
    for _ in range(300):
        x = F(rng.randint(-60, 60), rng.randint(1, 60))
        eta = -(x**6) * (x + 1)
        if eta == 0:
            continue
        assert height(eta).value * c >= height(x).value ** 7
    # the tight spot: x = -3/2 needs a constant larger than 2
    x = F(-3, 2)
    eta = -(x**6) * (x + 1)
    assert height(eta).value * 2 < height(x).value ** 7


def test_shift_height_constant_is_a_bound():
    from urskit.heights import height

    a = F(-7, 3)
    c = shift_height_constant(a)
    assert c == 10
    rng = random.Random(8)
    for m in (1, 2, 3):
        for _ in range(120):
            x = F(rng.randint(-40, 40), rng.randint(1, 40))
            assert height(x**m + a).value <= c * height(x).value ** m


# --- row building and chain checks --------------------------------------------


def trace_for(pairs):
    return build_trace_rows(S23, FAM, pairs)


def rows_for(pairs):
    return trace_for(pairs)[0]


def test_build_trace_rows_flags():
    rows = rows_for([(F(0), F(-1)), (F(1), F(0)), (F(2), F(2))])
    r0, r1, r2 = rows
    assert r0.identity_ok and "eta_zero" in r0.flags and "zeta_zero" in r0.flags
    assert r1.u == 3 and r1.shares and "zeta_zero" in r1.flags
    assert r2.u == 1 and not r2.flags


def test_roth_chain_examples():
    rows, values = trace_for([(F(0), F(-1)), (F(2), F(2)), (F(1), F(0))])
    rep = roth_chain_report(S23, P7, rows, values)
    assert rep.constants["C_P"] == 4
    assert rep.ok
    by_pair = {(r["x"], r["y"]): r for r in rep.rows}
    assert by_pair[(F(0), F(-1))]["count_px"] == "1"
    assert by_pair[(F(2), F(2))]["counting_equal"]
    assert by_pair[(F(1), F(0))]["count_px"] == "1"  # P(1)=3 is S-supported


def test_roth_chain_row_errors():
    rows = rows_for([(F(0), F(-1)), (F(2), F(3))])
    # P = X vanishes at 0; the values passed are X's, not those of P7
    rep = roth_chain_report(S23, RatPoly.of([0, 1]), rows, [(r.x, r.y) for r in rows])
    vanish, nonshare = rep.rows
    assert vanish["ok"] is None and "vanishing" in vanish["error"]
    assert nonshare["ok"] is None and "share" in nonshare["error"]


def test_unit_height_examples():
    rows, values = trace_for([(F(1), F(0)), (F(0), F(-1)), (F(3), F(3))])
    rep = unit_height_check(rows, values)
    assert rep.ok
    row = rep.rows[0]
    assert row["h_u"] == "3"
    assert row["h_px"] == "3" and row["h_py"] == "1"


def _roth_chain_oracle(S, P, rows):
    """roth_chain_report as it was before it took the row values: it
    evaluates P at each row's x and y itself."""
    c_p = evaluation_height_constant(P)
    n = P.degree
    out = []
    for row in rows:
        px = P.evaluate(row.x)
        py = P.evaluate(row.y)
        if px == 0 or py == 0:
            out.append(
                {"x": row.x, "y": row.y, "ok": None, "error": "vanishing P value on this row"}
            )
            continue
        if not row.shares:
            out.append({"x": row.x, "y": row.y, "ok": None,
                        "error": "row does not share; chain not applicable"})
            continue
        cx = counting(S, px)
        cy = counting(S, py)
        counting_equal = cx == cy
        bound_x = cx.value <= c_p * row.h_x.value**n
        bound_y = cy.value <= c_p * row.h_y.value**n
        lx, ly = math.log(row.h_x.value), math.log(row.h_y.value)
        ratio = None if ly == 0 or lx == 0 else f"{lx / ly:.6f}"
        out.append(
            {
                "x": row.x,
                "y": row.y,
                "ok": counting_equal and bound_x and bound_y,
                "count_px": str(cx.value),
                "count_py": str(cy.value),
                "counting_equal": counting_equal,
                "bound_x_ok": bound_x,
                "bound_y_ok": bound_y,
                "height_ratio": ratio,
                "error": None,
            }
        )
    return CheckReport("roth_chain", tuple(out), {"C_P": c_p, "degree": n})


def _unit_height_oracle(S, P, rows):
    """unit_height_check as it was before it took the row values."""
    out = []
    for row in rows:
        if row.u is None:
            out.append({"x": row.x, "y": row.y, "ok": None, "error": "unit undefined on this row"})
            continue
        hpx = height(P.evaluate(row.x))
        hpy = height(P.evaluate(row.y))
        ok = row.h_u.value <= hpx.value * hpy.value
        out.append(
            {
                "x": row.x,
                "y": row.y,
                "ok": ok,
                "h_u": str(row.h_u.value),
                "h_px": str(hpx.value),
                "h_py": str(hpy.value),
                "error": None,
            }
        )
    return CheckReport("unit_height", tuple(out), {})


def _unit_skipped(row):
    return {"x": row.x, "y": row.y, "ok": None, "error": "unit undefined on this row"}


def _trunc_bound_oracle(S, fam, rows):
    """trunc_bound_check row by row, every count taken afresh from the
    row's x, y and u, not read off the row."""
    out = []
    for row in rows:
        if row.u is None:
            out.append(_unit_skipped(row))
            continue
        if not row.shares:
            out.append({"x": row.x, "y": row.y, "ok": None,
                        "error": "u is not an S-unit on this row"})
            continue
        eta, zeta = aux_build(fam, row.x, row.y, row.u)
        out_row = {"x": row.x, "y": row.y}
        ok = True
        for name, v, aux in (("eta", row.x, eta), ("zeta", row.y, zeta)):
            if aux == 0:
                out_row[f"{name}_bound"] = f"not checked ({name} = 0)"
                continue
            n2 = counting_trunc(S, 2, aux).value
            rhs = counting_trunc(S, 1, v).value ** 2 * counting(S, v**fam.m + fam.a).value
            out_row[f"{name}_bound_ok"] = n2 <= rhs
            out_row[f"n2_{name}"] = str(n2)
            out_row[f"{name}_rhs"] = str(rhs)
            ok = ok and n2 <= rhs
        unit_zero = row.u != 0 and counting_trunc(S, 2, row.u).value == 1
        out_row["unit_trunc_zero"] = unit_zero
        if eta + row.u + zeta == 1:
            out_row["sum_trunc_zero"] = True
        out.append({**out_row, "ok": ok and unit_zero, "error": None})
    return tuple(out)


def _main_inequality_oracle(S, fam, eps, rows):
    """main_inequality_report's rows, row by row, every height and count
    taken afresh and every comparison made through cmp_scaled."""
    n, m = fam.n, fam.m
    c_eta = eta_height_constant(fam)
    c_total = Magnitude(shift_height_constant(fam.a) ** 4 * c_eta**2)
    gap = n - 2 * m - 4 - eps
    out = []
    for row in rows:
        if row.u is None:
            out.append(_unit_skipped(row))
            continue
        eta, zeta = aux_build(fam, row.x, row.y, row.u)
        h_x, h_y = height(row.x), height(row.y)
        out_row = {"x": row.x, "y": row.y, "ok": None, "error": None}
        if not row.shares or eta + row.u + zeta != 1 or 0 in (eta, row.u, zeta):
            out_row["conjectural_step"] = (
                "skipped (non-sharing row, zero auxiliary value, or identity failure)"
            )
        else:
            hmax = max(height(eta).value, height(row.u).value, height(zeta).value)
            rhs = math.prod(counting_trunc(S, 2, v).value for v in (eta, row.u, zeta))
            holds = 1 - eps <= 0 or cmp_scaled(
                ScaledLog(1 - eps, Magnitude(hmax)), ScaledLog(F(1), Magnitude(rhs))) <= 0
            out_row["conjectural_rhs"] = str(rhs)
            out_row["conjectural_max_height"] = str(hmax)
            out_row["conjectural_step"] = "holds" if holds else "violated"
            out_row["ok"] = out_row["eta_floor_ok"] = (
                height(eta).value * c_eta >= h_x.value**n
            )
        h_xy = Magnitude(h_x.value * h_y.value)
        derived = n - eps < 0 or cmp_scaled(
            ScaledLog(n - eps, h_x), ScaledLog(F(2 + m), h_xy)) <= 0
        out_row["derived_step"] = "holds" if derived else "exceeds"
        if gap > 0:
            out_row["exceeds_ceiling"] = cmp_scaled(
                ScaledLog(F(1), h_xy), ScaledLog(1 / gap, c_total)) > 0
        out.append(out_row)
    return tuple(out)


BOX23 = s_integer_box(S23, 12, 1)


@st.composite
def _trace_cases(draw):
    """A family X^n + a*X^(n-m) + b, where b may be chosen to make P vanish
    at a box value, and pairs from the box: diagonal, with a zero
    coordinate, or at that root."""
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, n - 1))
    a = draw(st.sampled_from([F(1), F(-1), F(2), F(-3), F(1, 2), F(-4, 3)]))
    root = draw(st.sampled_from([None, F(1), F(-1), F(2), F(-1, 2), F(3)]))
    if root is None:
        b = draw(st.sampled_from([F(1), F(-1), F(6), F(-2, 3), F(9, 4)]))
    else:
        b = -(root**n + a * root ** (n - m))
        assume(b != 0)
    box = st.sampled_from(BOX23)
    special = st.sampled_from([F(0)] + ([root] if root is not None else []))
    pair = (
        st.tuples(box, box)
        | box.map(lambda v: (v, v))
        | st.tuples(special, box)
        | st.tuples(box, special)
        | special.map(lambda v: (v, v))
    )
    return TrinomialFamily(n, m, a, b), draw(st.lists(pair, max_size=8))


def _epsilon(fam, choice):
    """choice as epsilon for fam: "n" gives eps = n, a zero exponent on the
    left of the derived step; "gap" gives eps = n - 2m - 4, where the
    ceiling is gone, or None when that is negative."""
    if choice == "n":
        return F(fam.n)
    if choice == "gap":
        gap = fam.n - 2 * fam.m - 4
        return F(gap) if gap >= 0 else None
    return choice


@settings(max_examples=150, deadline=None)
@given(
    _trace_cases(),
    st.sampled_from([F(0), F(1, 10), F(3, 2), F(9), F(7, 1000), "n", "gap"]),
)
@example((TrinomialFamily(7, 1, F(1), F(1)), [(F(2), F(2))]), "gap")
@example((TrinomialFamily(8, 1, F(-3), F(6)), [(F(3), F(3)), (F(2), F(-2))]), "gap")
@example((TrinomialFamily(7, 1, F(1), F(1)), [(F(2), F(2))]), "n")
def test_checks_on_row_values_match_reevaluating_oracles(case, eps):
    fam, pairs = case
    eps = _epsilon(fam, eps)
    assume(eps is not None)
    P = fam.polynomial()
    # drawn pairs seldom share off the diagonal; these do
    pairs += [(sp.x, sp.y) for sp in search_shared_pairs(S23, P, 8, 1)]
    rows, values = build_trace_rows(S23, fam, pairs)
    assert values == [(P.evaluate(r.x), P.evaluate(r.y)) for r in rows]
    assert roth_chain_report(S23, P, rows, values) == _roth_chain_oracle(S23, P, rows)
    assert unit_height_check(rows, values) == _unit_height_oracle(S23, P, rows)
    assert trunc_bound_check(rows).rows == _trunc_bound_oracle(S23, fam, rows)
    # a report with no hypothesis checks passes, so the rows of any drawn
    # family are compared, not only of those validate_family accepts
    unchecked = ValidationReport(fam, ())
    assert main_inequality_report(S23, fam, eps, rows, unchecked).rows == (
        _main_inequality_oracle(S23, fam, eps, rows)
    )


def test_checks_reject_values_of_another_length():
    rows, values = trace_for([(F(1), F(0)), (F(2), F(2))])
    with pytest.raises(ValueError):
        roth_chain_report(S23, P7, rows, values[:1])
    with pytest.raises(ValueError):
        unit_height_check(rows, values + values)


def test_checks_read_values_made_afresh_for_each_row():
    # each value is a new object, dropped after its row, so ids repeat for
    # other values: the checks work per row and must not key on identity
    rows, values = trace_for([(x, x) for x in BOX23[:30]] + list(zip(BOX23, BOX23[1:])))

    def fresh():
        return ((F(px.numerator, px.denominator), F(py.numerator, py.denominator))
                for px, py in values)

    assert roth_chain_report(S23, P7, rows, fresh()) == roth_chain_report(S23, P7, rows, values)
    assert unit_height_check(rows, fresh()) == unit_height_check(rows, values)


def test_build_trace_rows_counts_each_value_once(monkeypatch):
    calls = []

    def spy_trunc(S, level, v):
        calls.append((level, v))
        return counting_trunc(S, level, v)

    def spy_counting(S, v):
        calls.append((None, v))
        return counting(S, v)

    monkeypatch.setattr(trace, "counting_trunc", spy_trunc)
    monkeypatch.setattr(trace, "counting", spy_counting)
    diagonal = [(x, x) for x in BOX23]
    shared = [(sp.x, sp.y) for sp in search_shared_pairs(S23, P7, 12, 1) if sp.x != sp.y]
    assert shared
    pairs = diagonal + shared + [(y, x) for x, y in shared] + diagonal[::-1]
    rows, _ = trace_for(pairs)
    assert all(r.shares for r in rows)
    assert len(calls) == len(set(calls))
    assert {v for level, v in calls if level == 1} == set(BOX23) - {0}


def _maybe_counting(S, value, level=None):
    if value is None or value == 0:
        return None
    if level is None:
        return counting(S, value)
    return counting_trunc(S, level, value)


def _build_trace_rows_oracle(S, fam, pairs):
    """build_trace_rows as it was before it traced each value once: every
    pair goes through share_check and recomputes each value's quantities."""
    P = fam.polynomial()
    rows = []
    values = []
    for raw_x, raw_y in pairs:
        sp = share_check(S, P, raw_x, raw_y)
        px, py = P.evaluate(sp.x), P.evaluate(sp.y)
        values.append((px, py))
        x, y, u = sp.x, sp.y, sp.u
        flags = []
        if not sp.shares:
            flags.append("not_sharing")
        if u is None:
            flags.append("unit_undefined")
            eta = zeta = None
            identity_ok = None
        else:
            eta, zeta = aux_build(fam, x, y, u)
            identity_ok = eta + u + zeta == 1
            if eta == 0:
                flags.append("eta_zero")
            if zeta == 0:
                flags.append("zeta_zero")
            if u == 0:
                flags.append("unit_zero")
        if x == 0:
            flags.append("x_zero")
        if y == 0:
            flags.append("y_zero")
        count = sp.shares
        rows.append(
            TraceRow(
                x=x,
                y=y,
                u=u,
                shares=sp.shares,
                eta=eta,
                zeta=zeta,
                identity_ok=identity_ok,
                h_x=height(x),
                h_y=height(y),
                h_u=None if u is None else height(u),
                h_eta=None if eta is None else height(eta),
                h_zeta=None if zeta is None else height(zeta),
                n1_x=_maybe_counting(S, x if count else None, 1),
                n1_y=_maybe_counting(S, y if count else None, 1),
                n2_eta=_maybe_counting(S, eta if count else None, 2),
                n2_zeta=_maybe_counting(S, zeta if count else None, 2),
                n2_u=_maybe_counting(S, u if count else None, 2),
                n_xm_a=_maybe_counting(S, x**fam.m + fam.a if count else None),
                n_ym_a=_maybe_counting(S, y**fam.m + fam.a if count else None),
                flags=tuple(flags),
            )
        )
    return rows, values


def _outcome(build, S, fam, pairs):
    """build's (rows, values), or the type and message of what it raised."""
    try:
        return build(S, fam, pairs)
    except (ValueError, FactoringBudgetError) as exc:
        return type(exc), str(exc)


@st.composite
def _oracle_cases(draw):
    """S of (2,3), (2,) or (3,5) with a budget of 10^2 to 10^6; a family
    that may vanish at a box value, or have b = 0; up to 12 pairs over a few values (of a
    box of height 30, integers up to 3000, 0 and that root), so values
    repeat, some given as ints; then the sharing pairs of the box of
    height 8 and denominator exponent 1; maybe a non-S-integer 1/7 at a
    random position."""
    primes = draw(st.sampled_from([(2, 3), (2,), (3, 5)]))
    budget = draw(st.sampled_from([10**e for e in range(2, 7)]) | st.integers(10**2, 10**6))
    S = SContext.of(primes, budget)
    box = s_integer_box(S, 30, 1)
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, n - 1))
    a = draw(st.sampled_from([F(1), F(-1), F(2), F(-3), F(1, 2), F(-4, 3)]))
    root = draw(st.none() | st.sampled_from(box))
    if root is None:
        # b = 0: a row with a unit raises, as aux_build does
        b = draw(st.sampled_from([F(1), F(-1), F(6), F(-2, 3), F(9, 4), F(0)]))
    else:
        b = -(root**n + a * root ** (n - m))
        assume(b != 0)
    # integers past the box have non-S parts the smaller budgets cannot factor
    wide = st.integers(-3000, 3000).map(F)
    pool = draw(st.lists(st.sampled_from(box) | wide, min_size=1, max_size=5))
    value = st.sampled_from(pool + [F(0)] + ([root] if root is not None else []))
    value = value | value.filter(lambda v: v.denominator == 1).map(int)
    pair = st.tuples(value, value) | value.map(lambda v: (v, v))
    pairs = draw(st.lists(pair, max_size=12))
    # drawn pairs seldom share off the diagonal; these do
    fam = TrinomialFamily(n, m, a, b)
    pairs += [(sp.x, sp.y) for sp in search_shared_pairs(S, fam.polynomial(), 8, 1)]
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(pairs)))
        other = draw(value)
        bad = (F(1, 7), other) if draw(st.booleans()) else (other, F(1, 7))
        pairs.insert(i, bad)
    return S, fam, pairs


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_oracle_cases())
def test_build_trace_rows_matches_per_pair_oracle(case):
    S, fam, pairs = case
    expected = _outcome(_build_trace_rows_oracle, S, fam, pairs)
    assert _outcome(build_trace_rows, S, fam, pairs) == expected


def test_trunc_bound_fixture_x5():
    # direct fixture: eta = -5^6 * 6; N2 = 25 meets 2*N1(x) + N(x+1) = 25 exactly
    rows = rows_for([(F(5), F(5))])
    rep = trunc_bound_check(rows)
    row = rep.rows[0]
    assert row["ok"]
    assert row["n2_eta"] == "25"
    assert row["eta_rhs"] == "25"


def test_trunc_bound_s_unit_x():
    rows = rows_for([(F(2), F(2))])
    rep = trunc_bound_check(rows)
    row = rep.rows[0]
    assert row["ok"]
    assert row["n2_eta"] == "1"  # eta = -2^6*3 is S-supported
    assert row["unit_trunc_zero"] and row["sum_trunc_zero"]


def test_trunc_bound_skips_non_unit_rows():
    rows = rows_for([(F(2), F(3))])  # u = 193/(2916+729+1)... not an S-unit
    assert not rows[0].shares
    rep = trunc_bound_check(rows)
    assert rep.rows[0]["ok"] is None
    assert "not an S-unit" in rep.rows[0]["error"]


def test_trunc_bounds_hold_on_all_searched_pairs():
    from urskit.sharing import search_shared_pairs

    pairs = [(sp.x, sp.y) for sp in search_shared_pairs(S23, P7, 12, 1)]
    rows = rows_for(pairs)
    rep = trunc_bound_check(rows)
    assert rep.ok
    assert any(r["ok"] for r in rep.rows)


def test_bulk_chain_on_second_validated_family():
    # fractional S-unit coefficients exercise the denominator-aware constants
    S = SContext.of([2, 3, 7])
    fam = TrinomialFamily(7, 1, F(-3, 2), F(8, 9))
    from urskit.polys import validate_family
    from urskit.sharing import search_shared_pairs

    assert validate_family(S, fam).passed
    P = fam.polynomial()
    pairs = [(sp.x, sp.y) for sp in search_shared_pairs(S, P, 8, 1)]
    assert pairs  # diagonal-free sharing pairs exist in the box
    rows, values = build_trace_rows(S, fam, pairs)
    assert trunc_bound_check(rows).ok
    assert roth_chain_report(S, P, rows, values).ok
    assert unit_height_check(rows, values).ok
    assert main_inequality_report(S, fam, F(1, 10), rows).ok


def test_main_inequality_constants_and_ceiling():
    rows = rows_for([(F(0), F(-1)), (F(5), F(5))])
    rep = main_inequality_report(S23, FAM, F(1, 10), rows)
    assert rep.constants == {
        "C_a": 2,
        "C_eta": 256,
        "C_total": str(2**20),
        "C_P": 4,
    }
    assert rep.ceiling == ScaledLog(F(10, 9), Magnitude(2**20))
    assert rep.ok
    trivial = rep.rows[0]
    assert trivial.get("conjectural_step", "").startswith("skipped")
    nontrivial = rep.rows[1]
    assert nontrivial["eta_floor_ok"]
    assert nontrivial["exceeds_ceiling"] is False


def test_main_inequality_ceiling_formula():
    # gap = n - 2m - 4 - eps = 1 - eps; the ceiling is log(C_total)/(1 - eps)
    rows = rows_for([(F(2), F(2))])
    for eps in (F(0), F(1, 10), F(1, 2)):
        rep = main_inequality_report(S23, FAM, eps, rows)
        assert rep.ceiling == ScaledLog(1 / (1 - eps), Magnitude(2**20))
    rep = main_inequality_report(S23, FAM, F(1), rows)
    assert rep.ceiling is None


def test_main_inequality_requires_valid_family():
    bad = TrinomialFamily(6, 1, F(1), F(1))
    with pytest.raises(ValueError, match="validate"):
        main_inequality_report(S23, bad, F(1, 10), [])


# --- dependence and cases -------------------------------------------------------


def test_dependence_examples():
    rows = rows_for([(F(0), F(-1))])
    res = dependence_detect(rows)
    assert res.basis == ((1, 0, 0), (0, 0, 1))

    generic = rows_for([(F(2), F(2))])
    assert dependence_detect(generic).nullity == 2  # one generic row

    three = rows_for([(F(0), F(-1)), (F(1), F(0)), (F(-1), F(1))])
    assert dependence_detect(three).basis == ()


def test_dependence_monotone_under_new_rows():
    rows1 = rows_for([(F(0), F(-1))])
    rows2 = rows_for([(F(0), F(-1)), (F(1), F(0))])
    n1 = dependence_detect(rows1).nullity
    n2 = dependence_detect(rows2).nullity
    assert n2 <= n1


def test_dependence_basis_annihilates_rows():
    rows = rows_for([(F(0), F(-1)), (F(1), F(0)), (F(2), F(2))])
    res = dependence_detect(rows)
    for c1, c2, c3 in res.basis:
        for r in rows:
            if r.u is None:
                continue
            assert c1 * r.eta + c2 * r.u + c3 * r.zeta == 0


def test_dependence_needs_rows():
    with pytest.raises(ValueError):
        dependence_detect([])


def test_case_all_zero_triple_rejected():
    rows = rows_for([(F(0), F(-1))])
    with pytest.raises(ValueError):
        case_classify(S23, FAM, (F(0), F(0), F(0)), rows)


def test_case_c1_zero():
    # rows where zeta = u: y^(n-m)(y^m+a) = b, e.g. y with y^6(y+1) = 1 has no
    # rational solution in the box, so build the relation situation directly:
    rows = rows_for([(F(0), F(-1))])  # eta = zeta = 0, u = 1
    rep = case_classify(S23, FAM, (F(0), F(1), F(-1)), rows)
    assert rep.branch == "c1_zero"
    row = rep.rows[0]
    # relation c2*u + c3*zeta = u - zeta = 1 != 0: relation fails on this row
    assert row["relation_ok"] is False


def test_case_c2_c3_nonzero_fixture():
    rows = rows_for([(F(0), F(-1))])
    rep = case_classify(S23, FAM, (F(1), F(0), F(0)), rows)
    assert rep.branch == "C2_C3_nonzero"
    assert rep.coefficients["C2"] == "1" and rep.coefficients["C3"] == "1"
    row = rep.rows[0]
    assert row["relation_ok"]  # 1*0 + 0*1 + 0*0 = 0
    assert row["unit_relation_ok"]
    assert row["ok"]


def test_case_c2_c3_nonzero_growth_diagnostics():
    rows = rows_for([(F(5), F(5))])
    triple = (F(1), F(0), F(0))
    rep = case_classify(S23, FAM, triple, rows)
    row = rep.rows[0]
    assert row["w_formula_ok"]
    assert row["trunc_product_ok"]
    assert row["w_height_floor_ok"]
    assert row["growth_scale_cmp"] == "above"  # n > m+1 scale on data


def test_case_inconsistent():
    rows = rows_for([(F(0), F(-1))])
    rep = case_classify(S23, FAM, (F(1), F(1), F(1)), rows)
    assert rep.branch == "inconsistent_C2_C3_zero"
    assert all(r["ok"] for r in rep.rows)  # no row satisfies both constraints


def test_case_c2_zero():
    # c = (1, 0, c3) with c3 != c1 gives C2 = 1, need C2 = 0: c2 = c1
    rows = rows_for([(F(2), F(2))])  # u = 1, zeta = -eta... zeta = 192, eta = -192
    triple = (F(1), F(1), F(1, 2))
    rep = case_classify(S23, FAM, triple, rows)
    assert rep.branch == "C2_zero"
    row = rep.rows[0]
    # zeta = 1/C3 = 2 would be needed; actual zeta = 192, relation fails
    assert row["relation_ok"] is False
    assert row["y_is_s_unit"] is True
    assert row["y_shift_is_s_unit"] is True
    assert row["in_enumeration"] is True


@pytest.mark.parametrize(
    "triple, branch, error",
    [
        ((F(1), F(0), F(0)), "C2_C3_nonzero", "u = 0; unit relation undefined"),
        ((F(1), F(1), F(1, 2)), "C2_zero", "u = 0; displayed relation undefined"),
        ((F(0), F(1), F(-1)), "c1_zero", "u = 0; w relation undefined"),
    ],
)
def test_case_rows_with_u_zero(triple, branch, error):
    # X^7 - 2X^6 + 1 vanishes at 1, so the pair (1, 2) has u = 0, eta = 1 and
    # zeta = 0; each branch divides by u, so the row is an error
    fam = TrinomialFamily(7, 1, F(-2), F(1))
    rows, _ = build_trace_rows(S23, fam, [(F(1), F(2))])
    assert (rows[0].u, rows[0].eta, rows[0].zeta) == (0, 1, 0)
    rep = case_classify(S23, fam, triple, rows)
    assert rep.branch == branch
    (row,) = rep.rows
    assert row["ok"] is None
    assert row["error"] == error
    # eta = 1, so the relation holds exactly when c1 = 0
    assert row == {"x": F(1), "y": F(2), "ok": None, "relation_ok": triple[0] == 0,
                   "error": error}


def _s_units(S):
    """Signed products of powers (-2..2) of the primes of S."""

    def build(sign, exps):
        out = F(sign)
        for p, e in zip(S.primes, exps):
            out *= F(p) ** e
        return out

    exps = st.lists(st.integers(-2, 2), min_size=len(S.primes), max_size=len(S.primes))
    return st.builds(build, st.sampled_from((1, -1)), exps)


@st.composite
def _c2_zero_cases(draw):
    """(S, family, y): y an S-unit, and a such that u0 = -y^m/a solves the
    S-unit equation, or y^m + a is an S-unit, or is one nudged."""
    S = SContext.of(draw(st.lists(st.sampled_from((2, 3, 5, 7)), max_size=3, unique=True)))
    m = draw(st.integers(1, 2))
    y = draw(_s_units(S))
    solutions = unit_equation_solutions(S, 2)
    if solutions and draw(st.booleans()):
        u0, _ = draw(st.sampled_from(solutions))
        a = -(y**m) / u0
    else:
        a = draw(_s_units(S)) + draw(st.sampled_from((0, 1, -1, F(1, 11)))) - y**m
    assume(a != 0)
    return S, TrinomialFamily(m + 2, m, a, F(1)), y


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_c2_zero_cases())
def test_case_c2_zero_membership_matches_enumeration(case):
    S, fam, y = case
    rows, _ = build_trace_rows(S, fam, [(y, y)])
    rep = case_classify(S, fam, (F(1), F(1), F(1, 2)), rows)
    assert rep.branch == "C2_zero"
    for row in rep.rows:
        if "in_enumeration" not in row:
            continue
        u0, v0 = (F(t) for t in row["unit_equation_pair"])
        members = unit_equation_solutions(S, row["unit_equation_bound"])
        assert row["in_enumeration"] == ((u0, v0) in members)


def test_case_c3_zero():
    rows = rows_for([(F(0), F(-1)), (F(2), F(2))])  # both have u = 1
    triple = (F(1), F(1, 2), F(1))  # C3 = 0, C2 = 1/2, u expected = 2
    rep = case_classify(S23, FAM, triple, rows)
    assert rep.branch == "C3_zero"
    assert rep.coefficients["u_expected"] == "2"
    for row in rep.rows:
        assert row["u_matches_constant"] is False
    # and with the matching constant:
    triple2 = (F(1), F(0), F(1))  # C2 = 1, C3 = 0, u expected = 1
    rep2 = case_classify(S23, FAM, triple2, rows)
    by = {(r["x"], r["y"]): r for r in rep2.rows}
    assert by[(F(0), F(-1))]["u_matches_constant"]
    assert by[(F(0), F(-1))]["off_diagonal"]
    assert by[(F(2), F(2))]["off_diagonal"] is False


# --- lemmas ----------------------------------------------------------------------

# detail keys that hold on every row build_trace_rows makes: a false one is a bug
LEMMA_KEYS = (
    "counting_equal", "bound_x_ok", "bound_y_ok", "unit_trunc_zero", "eta_bound_ok",
    "zeta_bound_ok", "eta_floor_ok", "w_formula_ok", "unit_relation_ok",
    "displayed_relation_ok", "trunc_product_ok", "w_height_floor_ok",
)


def _s_products(S, bound):
    """The products of powers of the primes of S up to bound, in order."""
    out = [1]
    for p in S.primes:
        out = [d * p**e for d in out for e in range(bound.bit_length()) if d * p**e <= bound]
    return sorted(out)


@st.composite
def _lemma_cases(draw):
    """A family X^n + a*X^(n-m) + b valid over S, S within {2, 3, 5, 7}, and
    pairs of S-integers up to height 10^4, some diagonal (these share)."""
    primes = draw(st.lists(st.sampled_from((2, 3, 5, 7)), min_size=1, max_size=3, unique=True))
    S = SContext.of(primes)
    m = draw(st.integers(1, 2))
    n = draw(st.sampled_from([k for k in range(2 * m + 5, 2 * m + 8) if math.gcd(k, m) == 1]))
    fam = TrinomialFamily(n, m, draw(_s_units(S)), draw(_s_units(S)))
    assume(validate_family(S, fam).passed)
    v = st.builds(F, st.integers(-(10**4), 10**4), st.sampled_from(_s_products(S, 10**4)))
    pairs = st.lists(st.tuples(v, v) | v.map(lambda x: (x, x)), min_size=1, max_size=8)
    return S, fam, draw(pairs)


def _relations_through(row):
    """Triples whose relation holds on the row, by eta + u + zeta = 1: one in
    C2_zero (c2 = c1), one in c1_zero and one in C3_zero (c3 = c1)."""
    u, zeta = row.u, row.zeta
    return [t for t in ((zeta, zeta, zeta - 1), (F(0), zeta, -u), (u, u - 1, u)) if any(t)]


@settings(max_examples=50, derandomize=True, deadline=None)
@given(_lemma_cases())
def test_lemmas_hold_on_valid_families(case):
    # drawn pairs and the sharing pairs of the height-12 box; case_classify on
    # every dependence-basis vector, of all rows and of each row, and on the
    # relations through each row from _relations_through
    S, fam, pairs = case
    P = fam.polynomial()
    pairs += [(sp.x, sp.y) for sp in search_shared_pairs(S, P, 12, 1)]
    rows, values = build_trace_rows(S, fam, pairs)
    unit_rows = [r for r in rows if r.u is not None]
    assert all(r.identity_ok for r in unit_rows)
    # each check's detail for each row, before it is merged into the row
    details = []
    check_rows = trace._check_rows

    def recording(check, *columns, **options):
        def recorded(*args):
            out = check(*args)
            details.append(out[1])
            return out

        return check_rows(recorded, *columns, **options)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trace, "_check_rows", recording)
        checks = [
            roth_chain_report(S, P, rows, values),
            unit_height_check(rows, values),
            trunc_bound_check(rows),
            main_inequality_report(S, fam, F(1, 10), rows),
        ]
        assert all(rep.ok for rep in checks)  # each row's ok is made of lemmas
        triples = set(dependence_detect(unit_rows).basis)
        for r in unit_rows:
            triples.update(dependence_detect([r]).basis)
            triples.update(_relations_through(r))
        cases = [case_classify(S, fam, t, rows) for t in sorted(triples)]
    for rep in checks + cases:
        for row in rep.rows:
            for key in LEMMA_KEYS:
                assert row.get(key) is not False, (key, row)
    # a detail key named like a row's own key would overwrite it silently
    for detail in details:
        assert not detail.keys() & {"x", "y", "ok", "error"}, detail
    # C3_zero reads the scaled value relation P(x) = c*P(y) off u = c
    for rep in cases:
        if rep.branch != "C3_zero":
            continue
        c = F(rep.coefficients["u_expected"])
        for row in rep.rows:
            assert row["scaled_value_relation_ok"] == row["u_matches_constant"]
            assert row["scaled_value_relation_ok"] == (
                P.evaluate(row["x"]) == c * P.evaluate(row["y"])
            )


# --- strong uniqueness search ----------------------------------------------------


def su_oracle(S, P, c, bound, exp):
    values = s_integer_box(S, bound, exp)
    hits = [
        (x, y)
        for x in values
        for y in values
        if x != y and P.evaluate(x) == c * P.evaluate(y)
    ]
    hits.sort(key=lambda t: (t[0].numerator, t[0].denominator, t[1].numerator, t[1].denominator))
    return hits


def test_su_search_examples():
    found = strong_uniqueness_search(S23, P7, F(1), 20, 0)
    assert (F(0), F(-1)) in found
    assert (F(-1), F(0)) in found
    assert found == su_oracle(S23, P7, F(1), 20, 0)

    linear = strong_uniqueness_search(S23, RatPoly.of([0, 1]), F(1), 10, 0)
    assert linear == []

    squares = strong_uniqueness_search(S23, RatPoly.of([0, 0, 1]), F(1), 3, 0)
    assert squares == [(F(n), F(-n)) for n in (-3, -2, -1, 1, 2, 3)]


def test_su_search_swap_symmetry():
    found = strong_uniqueness_search(S23, P7, F(1), 15, 1)
    as_set = set(found)
    for x, y in found:
        assert (y, x) in as_set
        assert x != y


def test_su_search_inverse_constant_symmetry():
    c = F(3)
    fwd = strong_uniqueness_search(S23, P7, c, 12, 0)
    rev = strong_uniqueness_search(S23, P7, 1 / c, 12, 0)
    assert {(y, x) for x, y in fwd} == set(rev)


def test_su_search_rejects_zero_constant():
    with pytest.raises(ValueError):
        strong_uniqueness_search(S23, P7, F(0), 5, 0)


def test_su_search_budget():
    with pytest.raises(SearchBudgetError) as err:
        strong_uniqueness_search(S23, P7, F(1), 10, 0, pair_budget=25)
    assert (err.value.total, err.value.budget) == (21 * 20, 25)


@st.composite
def su_cases(draw):
    """(S, P, c, height bound, denominator exponent bound) with zero,
    constant, even and random polynomials and monomials, coefficient
    denominators up to 10, and c other than +-1 (X^2 with c = 4 has the hits
    x = +-2y)."""
    S = SContext.of(draw(st.sampled_from([(), (2,), (2, 3), (3, 5), (2, 3, 5)])))
    coeffs = draw(
        st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=10), max_size=5)
    )
    shape = draw(st.sampled_from(["random", "even", "monomial"]))
    if shape == "even":
        coeffs = [a for c in coeffs for a in (c, 0)]
    elif shape == "monomial":
        coeffs = [0] * draw(st.integers(0, 3)) + [draw(st.sampled_from([1, -2, F(1, 3)]))]
    c = draw(st.sampled_from([F(1), F(-1), F(2), F(-3), F(4), F(1, 4), F(-2, 3), F(9)]))
    return S, RatPoly.of(coeffs), c, draw(st.integers(0, 6)), draw(st.integers(0, 2))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(su_cases(), st.data())
def test_su_join_matches_oracle(case, data):
    S, P, c, bound, exp = case
    n = len(s_integer_box(S, bound, exp))
    total = n * (n - 1)
    budget = data.draw(st.sampled_from([None, 0, 1, max(total - 1, 0), total, total + 3]))
    expected = su_oracle(S, P, c, bound, exp)
    if budget is None or budget >= total:
        assert strong_uniqueness_search(S, P, c, bound, exp, pair_budget=budget) == expected
        return
    with pytest.raises(SearchBudgetError) as err:
        strong_uniqueness_search(S, P, c, bound, exp, pair_budget=budget)
    assert (err.value.total, err.value.budget) == (total, budget)
