"""Proof engine for the trinomial construction: auxiliary sequences, the
exact unit identity, every displayed height/counting inequality with explicit
constants, linear-dependence detection, case classification, and the
strong-uniqueness counterexample search.

All O(1) terms are replaced by printed constants so each chain step becomes an
exact integer comparison.  The constants are provable bounds (see the module
functions); any sharper constant only strengthens the reported slack.

Every check is a per-row function run by one loop, _check_rows.  A lemma
holds on every row build_trace_rows makes, so a false one is a bug:
identity_ok, counting_equal, bound_x_ok, bound_y_ok, unit_trunc_zero,
eta_bound_ok, zeta_bound_ok, eta_floor_ok (so the four trace checks' ok),
w_formula_ok, unit_relation_ok, displayed_relation_ok, trunc_product_ok and
w_height_floor_ok.  A verdict depends on the data: shares, conjectural_step,
derived_step and exceeds_ceiling.  sum_trunc_zero is recorded, never tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import ClassVar

from .arith import SContext, is_s_unit, ord_at, rational_str
from .exactlinalg import nullspace_basis
from .heights import (
    DEFAULT_DISPLAY_DIGITS,
    GREATER,
    Magnitude,
    ScaledLog,
    cmp_powers,
    cmp_scaled,
    counting,
    counting_trunc,
    height,
    nonnegative_epsilon,
)
from .polys import RatPoly, TrinomialFamily, ValidationReport, validate_family
from .sharing import _keyed_value, _pair_join, share_key
from .subspace import inequality_verdict


def _exact(v):
    """v as an exact rational; ints and Fractions pass through as they are."""
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def _w(fam: TrinomialFamily, v: Fraction) -> Fraction:
    """w(v) = v^(n-m)*(v^m+a)/b for b != 0, so eta = -w(x), zeta = w(y)*u.

    On integers: for v = p/q, v^(n-m)*(v^m+a) = p^(n-m)*(p^m*a_d + a_n*q^m)
    / (q^n*a_d) with a = a_n/a_d, so w is one Fraction.
    """
    n, m = fam.n, fam.m
    an, ad = fam.a.numerator, fam.a.denominator
    p, q = v.numerator, v.denominator
    return Fraction(
        p ** (n - m) * (p**m * ad + an * q**m) * fam.b.denominator,
        q**n * ad * fam.b.numerator,
    )


def aux_build(fam: TrinomialFamily, x: Fraction, y: Fraction, u: Fraction):
    """The auxiliary pair: eta = -(1/b)*x^(n-m)*(x^m+a) and
    zeta = (1/b)*y^(n-m)*(y^m+a)*u, exactly."""
    if fam.b == 0:
        raise ValueError("auxiliary sequences require b != 0")
    return -_w(fam, _exact(x)), _w(fam, _exact(y)) * _exact(u)


def identity_check(fam: TrinomialFamily, x: Fraction, y: Fraction, u: Fraction) -> bool:
    """Whether eta + u + zeta == 1 exactly.

    This is an algebraic identity whenever u = P(x)/P(y), so it must hold for
    every quotient-built row; it can fail only for externally supplied u.
    """
    eta, zeta = aux_build(fam, x, y, u)
    return eta + _exact(u) + zeta == 1


def evaluation_height_constant(P: RatPoly) -> int:
    """C with h(P(x)) <= C * h(x)^deg(P) for every rational x.

    C = ceil(D * (1 + sum |c_i|)) where D is the lcm of the coefficient
    denominators; for integer coefficients this is ceil(1 + sum |c_i|).
    """
    if P.is_zero:
        raise ValueError("constant undefined for the zero polynomial")
    D = P.coefficient_denominator_lcm()
    return math.ceil(D * (1 + P.sum_abs_coefficients()))


def shift_height_constant(a: Fraction) -> int:
    """C with h(x^m + a) <= C * h(x)^m for every rational x and m >= 1."""
    a = Fraction(a)
    return abs(a.numerator) + a.denominator


def eta_height_constant(fam: TrinomialFamily) -> int:
    """C with h(eta) >= h(x)^n / C, valid for every rational x.

    C = 2^(n+1) * H(a)^n * H(b): place-by-place, max(1,|x|_v)^n exceeds
    max(1,|eta|_v) by at most max(1,|a|_v)^n * max(1,|b|_v) at finite places
    and by at most (2*max(1,|a|))^n * 2*max(1,|b|) at the Archimedean place;
    the product over all places telescopes to this constant.
    """
    ha = height(fam.a).value
    hb = height(fam.b).value
    return 2 ** (fam.n + 1) * ha**fam.n * hb


@dataclass(slots=True)
class TraceRow:
    """All exact quantities attached to one candidate pair.  Slotted, not
    frozen, which made each row several times dearer to build."""

    x: Fraction
    y: Fraction
    u: Fraction | None
    shares: bool
    eta: Fraction | None
    zeta: Fraction | None
    identity_ok: bool | None
    h_x: Magnitude
    h_y: Magnitude
    h_u: Magnitude | None
    h_eta: Magnitude | None
    h_zeta: Magnitude | None
    n1_x: Magnitude | None
    n1_y: Magnitude | None
    n2_eta: Magnitude | None
    n2_zeta: Magnitude | None
    n2_u: Magnitude | None
    n_xm_a: Magnitude | None
    n_ym_a: Magnitude | None
    flags: tuple[str, ...]


def _maybe_counting(S, value, level=None):
    if value is None or value == 0:
        return None
    if level is None:
        return counting(S, value)
    return counting_trunc(S, level, value)


class _TracedValue:
    """What the rows need of one value v, whichever side it is on: P(v) and
    its sharing key, as sharing._keyed_value gives them, h(v), w(v) =
    v^(n-m)*(v^m+a)/b, eta = -w(v) and h(eta).  w, eta and h(eta) stay None
    when b = 0, where a row with a unit raises before it reads them."""

    __slots__ = ("v", "p", "key", "h", "w", "eta", "h_eta")

    def __init__(self, fam: TrinomialFamily, v: Fraction, p: Fraction, key):
        self.v, self.p, self.key = v, p, key
        self.h = height(v)
        self.w = self.eta = self.h_eta = None
        if fam.b != 0:
            self.w = _w(fam, v)
            self.eta = -self.w
            self.h_eta = height(self.eta)


def build_trace_rows(S: SContext, fam: TrinomialFamily, pairs):
    """The sharing verdict of share_check on each (x, y), with every derived
    quantity.

    Returns (rows, values): the TraceRows, and per row the (P(x), P(y)) the
    sharing verdict was decided from, which roth_chain_report and
    unit_height_check take instead of evaluating P again.

    This is the one place a trace dedupes its values.  Each distinct value
    is checked, evaluated and measured once per call, whichever sides it
    takes (_TracedValue), and its counts are computed the first time a
    sharing row asks for them; a pair adds only
    u = P(x)/P(y), zeta = w(y)*u, their heights, read off their integers,
    and the identity, one integer cross-multiplication.  The pair shares
    when P(x) and P(y) have the same sharing.share_key, the key share_check
    and search_shared_pairs decide by.  Equal keys make u a nonzero S-unit,
    so a sharing row counts nothing of its own: N^(2)(u) = 1, and
    N^(2)(zeta) is N^(2)(eta(y)), one non-S numerator.  Rows ask for their
    counts in the order n1_x, n1_y, N^(2)(eta(x)), N^(2)(eta(y)), so the
    first FactoringBudgetError names the same cofactor as a row-by-row
    computation of n1_x, n1_y, n2_eta, n2_zeta, n2_u would.

    Zero values (eta, zeta, x, y, or the shifted terms) leave the affected
    counting entries unset and add a flag; downstream checks skip those rows
    and list them separately.
    """
    P = fam.polynomial()
    key = share_key(S, P)
    traced: dict = {}

    def trace_value(v, name):
        # Fraction() of a Fraction goes through its slow ABC checks
        v = v if type(v) is Fraction else Fraction(v)
        nd = v.numerator, v.denominator  # hashes faster than the Fraction
        t = traced.get(nd)
        if t is None:
            t = traced[nd] = _TracedValue(fam, *_keyed_value(S, P, key, name, v))
        return t

    # once per value, on the first sharing row that asks: _TracedValue hashes by id
    n1 = cache(lambda t: _maybe_counting(S, t.v, 1))
    n2_eta = cache(lambda t: _maybe_counting(S, t.eta, 2))
    n_shift = cache(lambda t: _maybe_counting(S, t.v**fam.m + fam.a))
    unit = Magnitude(1)  # N^(2) of an S-unit

    rows = []
    values = []
    for raw_x, raw_y in pairs:
        tx, ty = trace_value(raw_x, "x"), trace_value(raw_y, "y")
        x, y, px, py = tx.v, ty.v, tx.p, ty.p
        values.append((px, py))
        shares = tx.key == ty.key
        flags = []
        if not shares:
            flags.append("not_sharing")
        if py == 0:
            flags.append("unit_undefined")
            u = eta = zeta = identity_ok = h_u = h_eta = h_zeta = None
        else:
            if fam.b == 0:
                raise ValueError("auxiliary sequences require b != 0")
            u = px / py
            eta = tx.eta
            zeta = ty.w * u
            # eta + u + zeta == 1, over the common denominator
            en, ed = eta.numerator, eta.denominator
            un, ud = u.numerator, u.denominator
            zn, zd = zeta.numerator, zeta.denominator
            identity_ok = (en * ud + un * ed) * zd + zn * ed * ud == ed * ud * zd
            h_u, h_eta = Magnitude(max(abs(un), ud)), tx.h_eta
            h_zeta = Magnitude(max(abs(zn), zd))
            if en == 0:
                flags.append("eta_zero")
            if zn == 0:
                flags.append("zeta_zero")
            if un == 0:
                flags.append("unit_zero")
        if x == 0:
            flags.append("x_zero")
        if y == 0:
            flags.append("y_zero")
        # counting quantities belong to the chain, whose premise is sharing;
        # rows failing it keep heights only and are excluded by every check
        if shares:
            n1_x, n1_y = n1(tx), n1(ty)
            n2_eta_x = n2_zeta = n2_u = None
            if u is not None:  # so u is a nonzero S-unit: see above
                n2_eta_x, n2_zeta, n2_u = n2_eta(tx), n2_eta(ty), unit
            n_xm_a, n_ym_a = n_shift(tx), n_shift(ty)
        else:
            n1_x = n1_y = n2_eta_x = n2_zeta = n2_u = n_xm_a = n_ym_a = None
        rows.append(
            TraceRow(
                x=x,
                y=y,
                u=u,
                shares=shares,
                eta=eta,
                zeta=zeta,
                identity_ok=identity_ok,
                h_x=tx.h,
                h_y=ty.h,
                h_u=h_u,
                h_eta=h_eta,
                h_zeta=h_zeta,
                n1_x=n1_x,
                n1_y=n1_y,
                n2_eta=n2_eta_x,
                n2_zeta=n2_zeta,
                n2_u=n2_u,
                n_xm_a=n_xm_a,
                n_ym_a=n_ym_a,
                flags=tuple(flags),
            )
        )
    return rows, values


def _check_rows(check, *columns, needs_unit=True) -> tuple[dict, ...]:
    """{"x", "y", "ok", **detail, "error"} for each row of columns[0], the
    other columns (such as the (P(x), P(y)) values) passed alongside to
    check(row, ...); columns of different lengths raise ValueError.  check
    returns (ok, detail), or (None, detail, error) for a row it skips; the
    detail keys are reported as keys of the row itself, and error is None
    where check gives none.  With needs_unit, rows without a unit are
    skipped before check sees them."""
    out = []
    for args in zip(*columns, strict=True):
        row = args[0]
        if needs_unit and row.u is None:
            out.append({"x": row.x, "y": row.y, "ok": None, "error": "unit undefined on this row"})
        else:
            ok, detail, *error = check(*args)
            out.append({"x": row.x, "y": row.y, "ok": ok, **detail,
                        "error": error[0] if error else None})
    return tuple(out)


class _RowsReport:
    """A report that is ok unless a row failed; a skipped row's ok is None."""

    derived_keys: ClassVar[tuple[str, ...]] = ("ok",)

    @property
    def ok(self) -> bool:
        return all(r["ok"] is not False for r in self.rows)


@dataclass(frozen=True)
class CheckReport(_RowsReport):
    name: str
    rows: tuple[dict, ...]
    constants: dict
    notes: tuple[str, ...] = ()


def roth_chain_report(
    S: SContext, P: RatPoly, rows, values, digits: int = DEFAULT_DISPLAY_DIGITS
) -> CheckReport:
    """Exact kernel of the height-comparability step: for sharing rows,
    counting(S, P(x)) == counting(S, P(y)) and both are bounded by
    C_P * h(.)^deg(P).  Height ratios are reported for display only, to
    `digits` decimal places.  Lemmas: counting_equal (from the sharing
    key), bound_x_ok and bound_y_ok, so the row's ok.

    `values` holds (P(x), P(y)) for each row, as build_trace_rows returns
    them; P itself is not evaluated here.  Each sharing row counts its own
    two values: counting strips S from the numerator, no factoring."""
    c_p = evaluation_height_constant(P)
    n = P.degree

    def check(row, pv):
        px, py = pv
        if px == 0 or py == 0:
            return None, {}, "vanishing P value on this row"
        if not row.shares:
            return None, {}, "row does not share; chain not applicable"
        cx = counting(S, px)
        cy = counting(S, py)
        counting_equal = cx == cy
        bound_x = cx.value <= c_p * row.h_x.value**n
        bound_y = cy.value <= c_p * row.h_y.value**n
        lx, ly = math.log(row.h_x.value), math.log(row.h_y.value)
        ratio = None if ly == 0 or lx == 0 else f"{lx / ly:.{digits}f}"
        return counting_equal and bound_x and bound_y, {
            "count_px": str(cx.value),
            "count_py": str(cy.value),
            "counting_equal": counting_equal,
            "bound_x_ok": bound_x,
            "bound_y_ok": bound_y,
            "height_ratio": ratio,
        }

    out = _check_rows(check, rows, values, needs_unit=False)
    return CheckReport("roth_chain", out, {"C_P": c_p, "degree": n})


def unit_height_check(rows, values) -> CheckReport:
    """h(u) <= h(P(x)) * h(P(y)) as Magnitudes (quotient height law), a
    lemma: the row's ok.

    `values` holds (P(x), P(y)) for each row, as build_trace_rows returns
    them; each row reads their heights off their integers."""

    def check(row, pv):
        px, py = pv
        hpx = max(abs(px.numerator), px.denominator)
        hpy = max(abs(py.numerator), py.denominator)
        ok = row.h_u.value <= hpx * hpy
        return ok, {"h_u": str(row.h_u.value), "h_px": str(hpx), "h_py": str(hpy)}

    return CheckReport("unit_height", _check_rows(check, rows, values), {})


def trunc_bound_check(rows) -> CheckReport:
    """The two displayed truncation bounds and the vanishing of N^(2) at the
    unit, as exact Magnitude comparisons: lemmas eta_bound_ok, zeta_bound_ok
    and unit_trunc_zero, so the row's ok.  sum_trunc_zero records N^(2)(1) = 0
    at eta + u + zeta where the identity holds; it is never tested."""

    def check(row):
        if not row.shares:
            return None, {}, "u is not an S-unit on this row"
        detail: dict = {}
        eta_ok = zeta_ok = True
        if row.eta == 0:
            detail["eta_bound"] = "not checked (eta = 0)"
        else:
            rhs = row.n1_x.value**2 * row.n_xm_a.value
            eta_ok = detail["eta_bound_ok"] = row.n2_eta.value <= rhs
            detail["n2_eta"] = str(row.n2_eta.value)
            detail["eta_rhs"] = str(rhs)
        if row.zeta == 0:
            detail["zeta_bound"] = "not checked (zeta = 0)"
        else:
            rhs = row.n1_y.value**2 * row.n_ym_a.value
            zeta_ok = detail["zeta_bound_ok"] = row.n2_zeta.value <= rhs
            detail["n2_zeta"] = str(row.n2_zeta.value)
            detail["zeta_rhs"] = str(rhs)
        unit_zero = detail["unit_trunc_zero"] = (
            row.n2_u is not None and row.n2_u.is_zero_quantity
        )
        if row.identity_ok:
            detail["sum_trunc_zero"] = True
        return eta_ok and zeta_ok and unit_zero, detail

    return CheckReport("trunc_bounds", _check_rows(check, rows), {})


@dataclass(frozen=True)
class MainInequalityReport(_RowsReport):
    epsilon: Fraction
    constants: dict
    ceiling: ScaledLog | None  # None when epsilon >= n - 2m - 4
    rows: tuple[dict, ...]
    notes: tuple[str, ...]


def main_inequality_report(
    S: SContext,
    fam: TrinomialFamily,
    eps: Fraction,
    rows,
    validation: ValidationReport | None = None,
) -> MainInequalityReport:
    """Every quantity in the contradiction chain, with explicit constants.

    Per row: the conjectural-step comparison
        (1-eps) * max(h(eta), h(u), h(zeta))  vs  sum of the four N^(2) terms,
    the derived comparison (n-eps)*h(x) vs (2+m)*(h(x)+h(y)), the exact
    per-row validity of the eta height floor h(eta) >= h(x)^n / C_eta, and
    whether h(x)+h(y) exceeds the ceiling H* = log(C_total)/(n-2m-4-eps)
    beyond which rows would contradict the degree gap if the conjectural step
    held (invoked at eps/n for both orientations).  eta_floor_ok, the row's
    ok, is a lemma; conjectural_step, derived_step and exceeds_ceiling are
    verdicts on the data.  The derived step and the ceiling are one
    heights.cmp_powers call each per row, with exponents found once per call.

    `validation` is validate_family(S, fam) when the caller has it already;
    without it the family is validated here.
    """
    eps = nonnegative_epsilon(eps)
    if validation is None:
        validation = validate_family(S, fam)
    if not validation.passed:
        failed = [c.name for c in validation.checks if not c.passed]
        raise ValueError(
            f"family hypotheses unmet ({', '.join(failed)}); "
            "run validate_family (CLI: validate-poly) first"
        )
    n, m = fam.n, fam.m
    c_a = shift_height_constant(fam.a)
    c_eta = eta_height_constant(fam)
    c_total = Magnitude(c_a**4 * c_eta**2)
    gap = Fraction(n - 2 * m - 4) - eps
    ceiling = ScaledLog(1 / gap, c_total) if gap > 0 else None
    conjectural = inequality_verdict(1 - eps)
    n_eps = n - eps
    # h(x)**e_x vs (h(x)*h(y))**e_xy, and (h(x)*h(y))**e_over vs
    # C_total**e_ceil, e_ceil/e_over = 1/gap: cmp_scaled's exponents
    e_x, e_xy = n_eps.numerator, (2 + m) * n_eps.denominator
    e_over, e_ceil = gap.numerator, gap.denominator

    def check(row):
        detail: dict = {}
        ok = None  # the eta floor, where the conjectural step ran
        # conjectural step on this row
        if not row.shares or not row.identity_ok or 0 in (row.eta, row.u, row.zeta):
            detail["conjectural_step"] = (
                "skipped (non-sharing row, zero auxiliary value, or identity failure)"
            )
        else:
            hmax = max(row.h_eta.value, row.h_u.value, row.h_zeta.value)
            rhs = row.n2_eta.value * row.n2_u.value * row.n2_zeta.value  # N^(2)(1) = 0
            detail["conjectural_rhs"] = str(rhs)
            detail["conjectural_max_height"] = str(hmax)
            detail["conjectural_step"] = conjectural(hmax, rhs)
            # eta height floor with the explicit constant
            ok = detail["eta_floor_ok"] = row.h_eta.value * c_eta >= row.h_x.value**n
        # derived comparison (n-eps) h(x) vs (2+m)(h(x)+h(y))
        hx = row.h_x.value
        h_xy = hx * row.h_y.value
        holds = n_eps < 0 or cmp_powers(hx, e_x, h_xy, e_xy) <= 0
        detail["derived_step"] = "holds" if holds else "exceeds"
        if ceiling is not None:
            over = cmp_powers(h_xy, e_over, c_total.value, e_ceil) == GREATER
            detail["exceeds_ceiling"] = over
        return ok, detail

    notes = (
        "ceiling H* assumes the conjectural step at eps/n for both pair "
        "orientations; rows with h(x)+h(y) > H* would contradict n > 2m+4",
        "constants: h(P-shift) via C_a, eta floor via C_eta, "
        "C_total = C_a^4 * C_eta^2, H* = log(C_total)/(n-2m-4-eps)",
    )
    return MainInequalityReport(
        epsilon=eps,
        constants={
            "C_a": c_a,
            "C_eta": c_eta,
            "C_total": str(c_total.value),
            "C_P": evaluation_height_constant(fam.polynomial()),
        },
        ceiling=ceiling,
        rows=_check_rows(check, rows),
        notes=notes,
    )


@dataclass(frozen=True)
class DependenceResult:
    """Exact nullspace of the (eta, u, zeta) row matrix."""

    basis: tuple[tuple[int, int, int], ...]
    rows_used: int

    derived_keys: ClassVar[tuple[str, ...]] = ("nullity",)

    @property
    def nullity(self) -> int:
        return len(self.basis)


def dependence_detect(rows) -> DependenceResult:
    """Canonical basis of all (c1, c2, c3) with c1*eta + c2*u + c3*zeta = 0
    across the usable rows (fraction-free: primitive integer vectors)."""
    data = [[row.eta, row.u, row.zeta] for row in rows if row.u is not None]
    if not data:
        raise ValueError("dependence detection needs at least one row with a unit")
    basis = nullspace_basis(data)
    return DependenceResult(tuple(tuple(v) for v in basis), len(data))


@dataclass(frozen=True)
class CaseReport:
    branch: str
    triple: tuple[Fraction, Fraction, Fraction]
    coefficients: dict
    constants: dict
    rows: tuple[dict, ...]
    notes: tuple[str, ...]


def case_classify(S: SContext, fam: TrinomialFamily, triple, rows) -> CaseReport:
    """Label the branch of the relation c1*eta + c2*u + c3*zeta = 0 and
    verify it exactly on each row, with the branch's diagnostic quantities.

    The branches: c1_zero (degenerate when c2 or c3 is 0 too), and with
    C2 = 1 - c2/c1 and C3 = 1 - c3/c1, inconsistent_C2_C3_zero,
    C2_C3_nonzero, C2_zero and C3_zero.  Rows without a unit are left out,
    where the four CLI checks list them as skipped.  Non-degenerate c1_zero,
    C2_C3_nonzero and C2_zero divide by u, so they report a row with u = 0
    as an error holding only relation_ok.  w(y) is _w(y), times b where a
    branch reports y^(n-m)*(y^m+a); build_trace_rows gives no row a unit
    when b = 0.  Lemmas on such rows: w_formula_ok, unit_relation_ok,
    displayed_relation_ok, trunc_product_ok and w_height_floor_ok; the other
    keys are verdicts on the data."""
    c1, c2, c3 = (Fraction(c) for c in triple)
    if c1 == c2 == c3 == 0:
        raise ValueError("the all-zero triple carries no relation")
    coeffs: dict = {"c1": rational_str(c1), "c2": rational_str(c2), "c3": rational_str(c3)}
    constants: dict = {}

    # each branch sets its notes and a check(row, relation_ok) for _check_rows
    if c1 == 0:
        branch = "c1_zero"
        if c2 == 0 or c3 == 0:
            notes = (
                "degenerate sub-case: a single nonzero coefficient forces the "
                "corresponding auxiliary value to vanish identically",
            )

            def check(r, rel):
                return rel, {}
        else:
            constant = -fam.b * c2 / c3
            coeffs["expected_w"] = rational_str(constant)
            notes = (
                "relation pins w = y^(n-m)*(y^m+a) to a constant, so only "
                "finitely many y can occur; unbounded heights are impossible",
            )

            def check(r, rel):
                if r.u == 0:
                    return None, {}, "u = 0; w relation undefined"
                w = _w(fam, r.y) * fam.b
                match = w == constant
                return (not rel) or match, {"w": rational_str(w), "w_matches_constant": match}
    else:
        C2 = 1 - c2 / c1
        C3 = 1 - c3 / c1
        coeffs["C2"] = rational_str(C2)
        coeffs["C3"] = rational_str(C3)
        if C2 == 0 and C3 == 0:
            branch = "inconsistent_C2_C3_zero"
            notes = (
                "C2 = C3 = 0 makes the relation contradict eta + u + zeta = 1; "
                "no row can satisfy both unless degenerate",
            )

            def check(r, rel):
                both = rel and bool(r.identity_ok)
                return not both, {"identity_ok": r.identity_ok, "inconsistent_row": both}
        elif C2 != 0 and C3 != 0:
            branch = "C2_C3_nonzero"
            c_a = shift_height_constant(fam.a)
            c_eta = eta_height_constant(fam)
            constants = {"C_a": c_a, "C_eta": c_eta}
            notes = (
                "two-term unit relation C3*(zeta/u) - 1/u = -C2 feeds the "
                "two-variable inequality; h(zeta/u) grows like n*h(y) while its "
                "truncated counting is bounded at (m+1)*h(y) scale",
            )

            def check(r, rel):
                if r.u == 0:
                    return None, {}, "u = 0; unit relation undefined"
                w = r.zeta / r.u
                unit_ok = (not rel) or C3 * w - 1 / r.u == -C2
                w_formula = w == _w(fam, r.y)
                detail = {"unit_relation_ok": unit_ok, "w": rational_str(w),
                          "w_formula_ok": w_formula}
                shift = r.y**fam.m + fam.a
                if w == 0 or r.y == 0 or shift == 0:
                    detail["diagnostics"] = "skipped (vanishing w or shifted term)"
                    return w_formula and unit_ok, detail
                n1_w = counting_trunc(S, 1, w)
                n1_y = counting_trunc(S, 1, r.y)
                trunc_ok = n1_w.value <= n1_y.value * counting_trunc(S, 1, shift).value
                floor_ok = height(w).value * c_eta >= r.h_y.value**fam.n
                scale = cmp_scaled(
                    ScaledLog(Fraction(fam.n), r.h_y),
                    ScaledLog(Fraction(1), Magnitude(c_a) * r.h_y.pow(fam.m + 1)),
                )
                detail["n1_w"] = str(n1_w.value)
                detail["trunc_product_ok"] = trunc_ok
                detail["w_height_floor_ok"] = floor_ok
                detail["growth_scale_cmp"] = ("below", "equal", "above")[scale + 1]
                return w_formula and unit_ok and trunc_ok and floor_ok, detail
        elif C2 == 0:
            branch = "C2_zero"
            expected = fam.b / C3
            coeffs["b_over_C3"] = rational_str(expected)
            b_unit = is_s_unit(S, expected)
            constants["b_over_C3_is_s_unit"] = b_unit
            notes = () if b_unit else (
                "b/C3 is not an S-unit for this S; the argument would enlarge "
                "S until it is",
            )
            notes += (
                "forces y and y^m+a to be S-units; cross-referenced against the "
                "S-unit equation enumeration",
            )

            def check(r, rel):
                if r.u == 0:
                    return None, {}, "u = 0; displayed relation undefined"
                displayed = (not rel) or _w(fam, r.y) * fam.b == expected / r.u
                shift = r.y**fam.m + fam.a
                y_unit, shift_unit = is_s_unit(S, r.y), is_s_unit(S, shift)
                detail = {"displayed_relation_ok": displayed, "y_is_s_unit": y_unit,
                          "y_shift_is_s_unit": shift_unit}
                if not (y_unit and shift_unit and fam.a != 0):
                    return displayed, detail
                u0 = -(r.y**fam.m) / fam.a
                # The enumeration up to this bound holds every S-unit u with
                # |ord_p(u)| <= bound, u0 among them when it is an S-unit; so
                # membership is the S-unit test on both sides.
                member = is_s_unit(S, u0) and is_s_unit(S, 1 - u0)
                detail["unit_equation_pair"] = [rational_str(u0), rational_str(shift / fam.a)]
                detail["unit_equation_bound"] = max(
                    (abs(ord_at(p, u0)) for p in S.primes), default=0
                )
                detail["in_enumeration"] = member
                return displayed and member, detail
        else:
            branch = "C3_zero"
            u_expected = 1 / C2
            coeffs["u_expected"] = rational_str(u_expected)
            notes = (
                "constant unit forces P(x) = c*P(y) with c = 1/C2; off-diagonal "
                "rows below are candidate strong-uniqueness counterexamples "
                "(feed them to the search)",
            )

            # u = P(x)/P(y) with P(y) != 0, so P(x) = c*P(y) exactly when u = c
            def check(r, rel):
                matches = r.u == u_expected
                detail = {"u_matches_constant": matches, "scaled_value_relation_ok": matches,
                          "off_diagonal": r.x != r.y}
                return (not rel) or matches, detail

    def with_relation(r):
        rel = c1 * r.eta + c2 * r.u + c3 * r.zeta == 0
        ok, detail, *error = check(r, rel)
        return ok, {"relation_ok": rel, **detail}, *error

    out = _check_rows(with_relation, [r for r in rows if r.u is not None])
    return CaseReport(branch, (c1, c2, c3), coeffs, constants, out, notes)


def strong_uniqueness_search(
    S: SContext,
    P: RatPoly,
    c: Fraction,
    height_bound: int,
    denom_exponent_bound: int = 0,
    pair_budget: int | None = None,
) -> list[tuple[Fraction, Fraction]]:
    """All pairs x != y in the S-integer box with P(x) = c * P(y), exactly.

    Evidence probe: for a genuine strong uniqueness polynomial the list stays
    finite and height-bounded as the box grows.  sharing._pair_join
    evaluates P per column of the box, by differences, groups the box by
    P(y), kept as a reduced integer pair (num, den), and looks up P(x)/c,
    reduced from x's own key, so every probed pair is a hit; pairs come out
    x-major in box order.  The budget is that of
    search_shared_pairs: over budget, SearchBudgetError is raised before the
    box is built or P evaluated, with no partial result.
    """
    c = Fraction(c)
    if c == 0:
        raise ValueError("the unit constant c must be nonzero")
    inv = 1 / c  # its denominator is positive, as every key's is
    p, q = inv.numerator, inv.denominator

    def key(num, den):
        g = math.gcd(num, den)
        return num // g, den // g

    return _pair_join(
        S, P, height_bound, denom_exponent_bound, pair_budget, key,
        lambda k: key(k[0] * p, k[1] * q),
        lambda x, px, y, py: (x, y),
        "strong-uniqueness search",
    )
