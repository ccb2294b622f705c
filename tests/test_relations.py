"""Cross-command relations: facts two commands compute each, which must
agree exactly, so a failure is a bug in one of them and no oracle is needed.

(a) every search-shared pair shares under share_check and in trace's rows;
(b) the search-su pairs at c = 1 are search-shared pairs;
(c) unit-eq solutions (u, v), on the line x + y = 1 of subspace --corollary,
agree between its delegated and direct sides;
(d) on all-diagonal pairs (x, x), u = 1 and eta + zeta = 0, so trace's
dependence basis is (1, 0, 1) and case_classify puts it in C3_zero."""

from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from urskit.arith import SContext, unit_equation_solutions
from urskit.polys import TrinomialFamily
from urskit.sharing import s_integer_box, search_shared_pairs, share_check
from urskit.subspace import corollary_eval
from urskit.trace import (
    build_trace_rows,
    case_classify,
    dependence_detect,
    strong_uniqueness_search,
)

_CONTEXTS = [SContext.of(primes) for primes in ((2, 3), (2,), (3, 5), (2, 3, 5))]


@st.composite
def _families(draw):
    """S, and X^n + a*X^(n-m) + b with b != 0, which trace needs."""
    n = draw(st.integers(2, 9))
    m = draw(st.integers(1, n - 1))
    a = draw(st.sampled_from([F(1), F(-1), F(2), F(-3), F(1, 2), F(5)]))
    b = draw(st.sampled_from([F(1), F(-1), F(6), F(-2, 3), F(7)]))
    return draw(st.sampled_from(_CONTEXTS)), TrinomialFamily(n, m, a, b)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_families(), st.integers(1, 10), st.integers(0, 1))
def test_search_shared_pairs_share_in_share_check_and_trace(case, height, exponent):
    S, fam = case
    P = fam.polynomial()
    pairs = [(sp.x, sp.y) for sp in search_shared_pairs(S, P, height, exponent)]
    assert all(share_check(S, P, x, y).shares for x, y in pairs)
    rows, _ = build_trace_rows(S, fam, pairs)
    assert [(r.x, r.y) for r in rows] == pairs
    assert all(r.shares for r in rows)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_families(), st.integers(1, 10), st.integers(0, 1))
def test_search_su_pairs_at_c_one_are_shared_pairs(case, height, exponent):
    # P(x) = P(y) gives equal share_keys, vanishing values included
    S, fam = case
    P = fam.polynomial()
    shared = {(sp.x, sp.y) for sp in search_shared_pairs(S, P, height, exponent)}
    assert set(strong_uniqueness_search(S, P, F(1), height, exponent)) <= shared


@pytest.mark.parametrize("eps", [F(0), F(1, 10)])
def test_unit_equation_solutions_agree_on_the_corollary_line(eps):
    # every nonempty S within {2, 3, 5} and every exponent bound up to 4
    for r in range(1, 4):
        for primes in combinations((2, 3, 5), r):
            for bound in range(5):
                S = SContext.of(primes)
                solutions = unit_equation_solutions(S, bound)
                rows = corollary_eval(S, 1, 1, 1, eps, solutions)
                assert [(row.x, row.y) for row in rows] == solutions
                assert all(row.agree is True for row in rows), (primes, bound)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_families(), st.data())
def test_diagonal_rows_give_the_c3_zero_relation(case, data):
    S, fam = case
    box = s_integer_box(S, 12, 1)
    xs = data.draw(st.lists(st.sampled_from(box), min_size=2, max_size=8, unique=True))
    rows, _ = build_trace_rows(S, fam, [(x, x) for x in xs])
    unit_rows = [r for r in rows if r.u is not None]
    # (1, 0, 1) is the whole basis once two rows have distinct w(x) = zeta
    assume(len({r.zeta for r in unit_rows}) >= 2)
    assert all(r.u == 1 and r.eta + r.zeta == 0 for r in unit_rows)
    basis = dependence_detect(rows).basis
    assert basis == ((1, 0, 1),)
    report = case_classify(S, fam, basis[0], rows)
    assert report.branch == "C3_zero"
    assert len(report.rows) == len(unit_rows)
    assert all(r["ok"] and r["u_matches_constant"] and not r["off_diagonal"]
               for r in report.rows)
