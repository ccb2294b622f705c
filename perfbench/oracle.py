"""Checks every report against an oracle that shares no code with urskit.

``check(call, rc, text)`` returns the list of problems found (empty when the
report is right).  The oracle evaluates the polynomials, S-unit tests and
factorizations with ``workloads``' own arithmetic and decides subspace
verdicts with a 50-digit mpmath comparison.
"""

from __future__ import annotations

import json
from fractions import Fraction

from workloads import (
    S_PRIMES,
    is_prime,
    is_s_unit,
    rat,
    s_integer_box,
    strip_s,
)


def trinomial(n: int, m: int, a: Fraction, b: Fraction):
    """Evaluator for X^n + a X^(n-m) + b."""

    def P(x: Fraction) -> Fraction:
        return x**n + a * x ** (n - m) + b

    return P


def _key(x: Fraction, y: Fraction):
    return (x.numerator, x.denominator, y.numerator, y.denominator)


def _shared_pairs(check: dict) -> dict:
    """Every sharing pair of the box, found by grouping the values by the
    non-S parts of numerator and denominator rather than by scanning pairs."""
    P = trinomial(check["n"], check["m"], check["a"], check["b"])
    groups: dict = {}
    values = {}
    for x in s_integer_box(check["height"], 0):
        v = values[x] = P(x)
        sig = None if v == 0 else (strip_s(abs(v.numerator)), strip_s(v.denominator))
        groups.setdefault(sig, []).append(x)
    rows = []
    for members in groups.values():
        for x in members:
            for y in members:
                if x != y:
                    u = None if values[y] == 0 else values[x] / values[y]
                    rows.append((x, y, u))
    rows.sort(key=lambda r: _key(r[0], r[1]))
    return {
        "count": len(rows),
        "rows": [{"x": rat(x), "y": rat(y), "u": None if u is None else rat(u),
                  "shares": True} for x, y, u in rows],
    }


def _su_pairs(check: dict) -> dict:
    """Pairs x != y with P(x) = c P(y), found through a table of values."""
    P = trinomial(check["n"], check["m"], check["a"], check["b"])
    box = s_integer_box(check["height"], 0)
    by_value: dict = {}
    for x in box:
        by_value.setdefault(P(x), []).append(x)
    pairs = [(x, y) for y in box for x in by_value.get(check["c"] * P(y), ()) if x != y]
    pairs.sort(key=lambda p: _key(*p))
    return {"count": len(pairs), "pairs": [[rat(x), rat(y)] for x, y in pairs]}


def _check_search(call, report: dict) -> list[str]:
    expected = _shared_pairs(call.check) if call.kind == "search-shared" else _su_pairs(call.check)
    problems = []
    for field, value in expected.items():
        if report.get(field) != value:
            problems.append(f"{call.kind} {field} differs from the oracle "
                            f"(report count {report.get('count')}, oracle {expected['count']})")
    return problems


def _check_trace(call, report: dict) -> list[str]:
    ck = call.check
    P = trinomial(ck["n"], ck["m"], ck["a"], ck["b"])
    rows = report.get("rows", [])
    if len(rows) != len(ck["pairs"]):
        return [f"trace has {len(rows)} rows for {len(ck['pairs'])} pairs"]
    problems = []
    for i, (row, (x, y)) in enumerate(zip(rows, ck["pairs"])):
        u = P(x) / P(y)
        want = {"x": rat(x), "y": rat(y), "u": rat(u), "shares": is_s_unit(u),
                "identity_ok": True}
        got = {k: row.get(k) for k in want}
        if got != want:
            problems.append(f"trace row {i}: {got} != {want}")
    return problems


def _product(factors: dict[int, int]) -> int:
    n = 1
    for p, e in factors.items():
        n *= p**e
    return n


def _check_subspace(call, report: dict) -> tuple[list[str], int]:
    import mpmath

    mpmath.mp.dps = 50
    ck = call.check
    r, eps = ck["r"], ck["epsilon"]
    coeff = Fraction(3 - r - 1) - eps
    rows = report.get("rows", [])
    if len(rows) != len(ck["points"]):
        return [f"subspace has {len(rows)} rows for {len(ck['points'])} points"], 0
    problems, violated = [], 0
    for i, (row, (x0, x1), facts) in enumerate(zip(rows, ck["points"], ck["factorizations"])):
        values = (x0, x1, x0 + x1)
        counts = []
        for v, f in zip(values, facts):
            if _product(f) != abs(v) or not all(is_prime(p) for p in f):
                problems.append(f"point {i}: oracle factorization of {v} does not re-multiply")
            c = 1
            for p, e in f.items():
                if p not in S_PRIMES:
                    c *= p ** min(e, r)
            counts.append(c)
        rhs = counts[0] * counts[1] * counts[2]
        height = max(abs(x0), abs(x1))
        diff = (mpmath.mpf(coeff.numerator) / coeff.denominator * mpmath.log(height)
                - mpmath.log(rhs))
        # a difference below 10^-40 is an exact tie, which holds
        verdict = "violated" if diff > mpmath.mpf(10) ** -40 else "holds"
        violated += verdict == "violated"
        want = {
            "point": [str(x0), str(x1)],
            "form_values": [str(v) for v in values],
            "coord_heights": [str(abs(x0)), str(abs(x1))],
            "max_height": str(height),
            "form_counts": [str(c) for c in counts],
            "rhs": str(rhs),
            "lhs_coefficient": rat(coeff),
            "verdict": verdict,
        }
        got = {
            "point": row.get("point"),
            "form_values": row.get("form_values"),
            "coord_heights": [h["exact"] for h in row.get("coord_heights", [])],
            "max_height": (row.get("max_height") or {}).get("exact"),
            "form_counts": [c and c["exact"] for c in row.get("form_counts", [])],
            "rhs": (row.get("rhs") or {}).get("exact"),
            "lhs_coefficient": row.get("lhs_coefficient"),
            "verdict": row.get("verdict"),
        }
        if got != want:
            problems.append(f"subspace point {i}: {got} != {want}")
    summary = report.get("summary", {})
    if (summary.get("points"), summary.get("violated")) != (len(rows), violated):
        problems.append(f"subspace summary {summary} disagrees with {violated} violated")
    return problems, 1 if violated else 0


def check(call, rc, text: str | None) -> list[str]:
    """Problems with one call's exit code and report; [] when it is right."""
    if text is None:
        return [f"exit code {rc} and no report"]
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    expected_rc = 0
    if call.kind == "trace":
        problems = _check_trace(call, report)
    elif call.kind == "subspace":
        problems, expected_rc = _check_subspace(call, report)
    else:
        problems = _check_search(call, report)
    if rc != expected_rc:
        problems.append(f"exit code {rc}, oracle expects {expected_rc}")
    return problems
