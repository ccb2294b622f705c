"""Golden reports: every README example, plus the flags the README leaves out,
run with --format json and compared byte for byte with tests/golden/expected.
The cases in TABLE_CASES, at least one per command, are also run with
--format table, pinning the console tables.  The parser's own text (help,
usage errors) is pinned the same way, each case at a fixed COLUMNS (80, and
40 for two help texts) so that help wrapping does not depend on the terminal.

Each case runs with tests/golden as the working directory, so the file names
echoed in "config" are relative and the reports are machine-independent.
After a deliberate format change, regenerate with `python tests/test_golden.py`
and review the diff.

`case_classify`, which no command calls yet, is pinned the same way: its
reports over CASE_CORPUS, one stable_json text, in case_classify.json.
"""

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from urskit.arith import SContext
from urskit.cli import main
from urskit.polys import TrinomialFamily
from urskit.report import stable_json
from urskit.trace import build_trace_rows, case_classify, dependence_detect

COMMAND_NAMES = [
    "validate-poly", "share", "trace", "subspace", "unit-eq", "search-shared", "search-su",
]

GOLDEN = Path(__file__).parent / "golden"

FAM = ["--n", "7", "--m", "1", "--a", "1", "--b", "1", "--s", "2,3"]

# name -> (argv, exit code)
CASES = {
    "validate_poly": (["validate-poly", *FAM], 0),
    "share": (["share", *FAM, "--pairs", "pairs.json"], 0),
    "share_poly": (["share", "--poly", "poly.json", "--s", "2,3", "--pairs", "pairs.json"], 1),
    "trace": (["trace", *FAM, "--pairs", "pairs.json", "--epsilon", "1/10"], 0),
    "trace_rows": (["trace", *FAM, "--pairs", "trace_pairs.json"], 0),
    "trace_diagonal": (["trace", *FAM, "--pairs", "diagonal_pairs.json"], 0),
    "trace_digits3": (["trace", *FAM, "--pairs", "trace_pairs.json", "--digits", "3"], 0),
    # x-heights near 10^4 with diagonal pairs: P(x) has non-S cofactors past
    # the default trial horizon, which the untruncated count never factors
    "trace_large_height": (["trace", *FAM, "--pairs", "large_height_pairs.json"], 0),
    # P = X^7 - 2X^6 + 1 vanishes at 1: on both sides, on one side, beside
    # x = 0 and y = 0; values repeat in both roles, and 2 is also written 6/3
    "trace_vanishing": (
        ["trace", "--n", "7", "--m", "1", "--a=-2", "--b", "1", "--s", "2,3", "--pairs",
         "trace_vanishing_pairs.json"],
        0,
    ),
    # epsilon just below n - 2m - 4 = 1: the ceiling's coefficient 10^309 is
    # past the float range, so its log is rounded in integers; P(1) = 0, so
    # no row reaches the comparison
    "trace_ceiling_overflow": (
        ["trace", "--n", "7", "--m", "1", "--a=-2", "--b", "1", "--s", "2,3", "--pairs",
         "ceiling_overflow_pairs.json", "--epsilon", f"{10**309 - 1}/{10**309}"],
        0,
    ),
    "subspace": (
        ["subspace", "--forms", "forms.json", "--points", "points.json", "--s", "2,3",
         "--epsilon", "1/10"],
        1,
    ),
    "subspace_fine_eps": (
        ["subspace", "--forms", "forms.json", "--points", "points.json", "--s", "2,3",
         "--epsilon", "1/1000000"],
        1,
    ),
    # (2^36, 3^20): the max height and x0 + x1 have the same bit length, so
    # only the powers themselves order them
    "subspace_near_tie": (
        ["subspace", "--forms", "forms.json", "--points", "near_tie_points.json", "--s",
         "2,3", "--epsilon", "1/10000"],
        0,
    ),
    # x0 + x1 vanishes at (1, -1): its rhs is undetermined and the point skipped
    "subspace_vanishing": (
        ["subspace", "--forms", "forms.json", "--points", "vanishing_points.json", "--s",
         "2,3"],
        1,
    ),
    # x0 + x1 + x2 vanishes, so the point is skipped before any count: the
    # cofactor 1000036000099 = 1000003 * 1000033 of x0 is never factored, and
    # every count is null at a budget that cannot factor it
    "subspace_vanishing_budget": (
        ["subspace", "--forms", "forms_r2.json", "--points", "vanishing_hard_points.json",
         "--s", "2,3", "--budget", "1000000"],
        0,
    ),
    "subspace_strict": (
        ["subspace", "--forms", "forms.json", "--points", "points.json", "--s", "2,3",
         "--strict"],
        1,
    ),
    "subspace_strict_nonprimitive": (
        ["subspace", "--forms", "forms.json", "--points", "points_nonprimitive.json",
         "--s", "2,3", "--strict"],
        2,
    ),
    "subspace_stubborn": (
        ["subspace", "--forms", "forms.json", "--points", "points_stubborn.json", "--s", "2,3",
         "--budget", "10000000000000"],
        0,
    ),
    "subspace_corollary": (
        ["subspace", "--corollary", "--A", "1", "--B", "1", "--C", "1", "--pairs",
         "pairs.json", "--s", "2,3", "--epsilon", "1/10"],
        1,
    ),
    "subspace_corollary_fine_eps": (
        ["subspace", "--corollary", "--A", "1", "--B", "1", "--C", "1", "--pairs",
         "corollary_pairs.json", "--s", "2,3", "--epsilon", "1/1000000"],
        1,
    ),
    "subspace_corollary_rows": (
        ["subspace", "--corollary", "--A", "1", "--B", "1", "--C", "1", "--pairs",
         "corollary_pairs.json", "--s", "2,3"],
        1,
    ),
    # x + y = 2 on (2, 0), (0, 2) and (3, -1): the direct side skips a pair
    # with no right side unless h(x) = 1, where it holds; (3, -1) is violated
    "subspace_corollary_edges": (
        ["subspace", "--corollary", "--A", "1", "--B", "1", "--C", "2", "--pairs",
         "corollary_edge_pairs.json", "--s", "2,3"],
        1,
    ),
    # at eps = 2 the coefficient 1 - eps is negative: every row holds
    "subspace_corollary_edges_eps2": (
        ["subspace", "--corollary", "--A", "1", "--B", "1", "--C", "2", "--pairs",
         "corollary_edge_pairs.json", "--s", "2,3", "--epsilon", "2"],
        0,
    ),
    # at eps = 1 the coefficient q - r - 1 - eps is 0: (81, -80) holds, while
    # (1, -1), where x0 + x1 vanishes, stays skipped
    "subspace_vanishing_eps1": (
        ["subspace", "--forms", "forms.json", "--points", "vanishing_points.json", "--s",
         "2,3", "--epsilon", "1"],
        0,
    ),
    # abc calibration: with S empty, (x0, x1, x0+x1) at (a, -c), a + b = c,
    # tests (1 - eps)*log max(|a|, c) <= log rad(abc).  Reyssat's triple
    # (quality 1.62991) is violated at 385/1000, de Weger's (1.62599) holds
    "subspace_abc": (
        ["subspace", "--forms", "forms.json", "--points", "abc_points.json", "--s", "",
         "--epsilon", "385/1000"],
        1,
    ),
    "unit_eq": (["unit-eq", "--s", "2,3", "--bound", "4"], 0),
    "search_shared": (["search-shared", *FAM, "--height-bound", "30"], 0),
    "search_shared_denom": (
        ["search-shared", *FAM, "--height-bound", "12", "--denom-exponent", "1"],
        0,
    ),
    "search_shared_linear": (
        ["search-shared", "--poly", "linear.json", "--s", "2", "--height-bound", "3",
         "--denom-exponent", "1"],
        0,
    ),
    # a coefficient denominator (5) outside S
    "search_shared_fifth": (
        ["search-shared", "--poly", "poly_fifth.json", "--s", "2,3", "--height-bound", "40",
         "--denom-exponent", "1"],
        0,
    ),
    "search_su": (["search-su", *FAM, "--c", "1", "--height-bound", "20"], 0),
    "search_su_fifth": (
        ["search-su", "--poly", "poly_fifth.json", "--s", "2,3", "--c", "1",
         "--height-bound", "40", "--denom-exponent", "1"],
        0,
    ),
    "search_su_linear": (
        ["search-su", "--poly", "linear.json", "--s", "2", "--c", "-1", "--height-bound",
         "3", "--denom-exponent", "1"],
        0,
    ),
}

# the cases also rendered with --format table: one per command, plus the
# cells those leave out (an error row, 13-digit magnitudes, non-sharing rows,
# a vanishing form)
TABLE_CASES = [
    "validate_poly",
    "share",
    "share_poly",
    "trace",
    "subspace",
    "subspace_corollary",
    "subspace_stubborn",
    "subspace_vanishing",
    "unit_eq",
    "search_shared",
    "search_su",
]

# name -> (argv, the stream the parser writes, exit code, COLUMNS)
TEXT_CASES = {
    "help": (["--help"], "stdout", 0, "80"),
    **{
        f"help_{name.replace('-', '_')}": ([name, "--help"], "stdout", 0, "80")
        for name in COMMAND_NAMES
    },
    # help wraps at the width argparse reads from COLUMNS: a second width
    "help_narrow": (["--help"], "stdout", 0, "40"),
    "help_trace_narrow": (["trace", "--help"], "stdout", 0, "40"),
    # a command after the first token: top-level help still lists all seven
    "help_before_trace": (["-h", "trace"], "stdout", 0, "80"),
    "usage_no_command": ([], "stderr", 2, "80"),
    "usage_bogus": (["bogus"], "stderr", 2, "80"),
    "usage_bogus_flag_trace": (["--bogus", "trace", "--n", "7"], "stderr", 2, "80"),
    "usage_trace_extra": (
        ["trace", *FAM, "--pairs", "pairs.json", "extra"], "stderr", 2, "80",
    ),
}


# one triple per branch: c1_zero degenerate (two) and not (two; w(1) = 2 on
# X^7+X^6+1), inconsistent_C2_C3_zero, C2_C3_nonzero (two), C2_zero with
# b/C3 = 2b and 5b/4, C3_zero (two)
BRANCH_TRIPLES = (
    ("0", "1", "0"), ("0", "0", "1"), ("0", "1", "-1"), ("0", "2", "-1"),
    ("1", "1", "1"), ("1", "0", "0"), ("2", "1", "-1"), ("1", "1", "1/2"),
    ("1", "1", "1/5"), ("1", "1/2", "1"), ("1", "0", "1"),
)

# name -> (primes of S, family (n, m, a, b), pairs); each case runs
# BRANCH_TRIPLES and the dependence basis of its rows.  On X^7-2X^6+1, (1, 2)
# has u = 0 and (2, 1), (0, 1), (1, 1) no unit, as P(1) = 0; on X^5-3X^3+2
# so do (2, 1) and (1, 1); (0, -1) and (1, 0) have a vanishing shift or w;
# S = {} and {5} leave b/C3 = 2b no S-unit
CASE_CORPUS = {
    "trace_s23": (
        (2, 3), (7, 1, "1", "1"),
        "2 3  1/2 3  3 3  -1 2  5 7  0 -1  1 0  4/3 2/9  -2 6  1 1  1/2 1/2",
    ),
    "diagonal_s23": ((2, 3), (7, 1, "1", "1"), "2 2  -1 -1  1/2 1/2  3 3  0 -1"),
    "diagonal_s_empty": ((), (7, 1, "1", "1"), "2 2  -1 -1  3 3  0 -1  1 1  2 3"),
    "vanishing_s23": (
        (2, 3), (7, 1, "-2", "1"), "0 1  1 1  1 2  2 1  0 0  2 -1/2  1 0  -1 -1",
    ),
    "vanishing_s5": ((5,), (5, 2, "-3", "2"), "1 2  2 1  1 1  1/5 1/5  3 3  -2 2  0 5"),
    # a nullity-2 basis: relations that hold on every row
    "one_row_s23": ((2, 3), (7, 1, "1", "1"), "3 3"),
    # a = 5 is no S-unit, so no S-unit equation pair is in the enumeration
    "shift_unit_s23": ((2, 3), (4, 1, "5", "1"), "1 1  -1 3"),
}


def case_classify_text():
    reports = {}
    for name, (primes, (n, m, a, b), pairs) in CASE_CORPUS.items():
        S = SContext.of(primes)
        fam = TrinomialFamily(n, m, Fraction(a), Fraction(b))
        pairs = [tuple(map(Fraction, pair.split())) for pair in pairs.split("  ")]
        rows, _ = build_trace_rows(S, fam, pairs)
        triples = [tuple(map(Fraction, t)) for t in BRANCH_TRIPLES]
        triples += dependence_detect(rows).basis
        reports[name] = [case_classify(S, fam, t, rows) for t in triples]
    return stable_json(reports)


def run_case(name, fmt="json"):
    argv, _ = CASES[name]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([*argv, "--format", fmt])
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, out = run_case(name)
    assert code == CASES[name][1]
    expected = (GOLDEN / "expected" / f"{name}.json").read_text(encoding="utf-8")
    assert out == expected


@pytest.mark.parametrize("name", TABLE_CASES)
def test_golden_table(name, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, out = run_case(name, "table")
    assert code == CASES[name][1]
    expected = (GOLDEN / "expected" / f"table_{name}.txt").read_text(encoding="utf-8")
    assert out == expected


def run_text_case(name):
    argv, stream, _, _ = TEXT_CASES[name]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue() if stream == "stdout" else err.getvalue()


@pytest.mark.parametrize("name", sorted(TEXT_CASES))
def test_golden_parser_text(name, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.setenv("COLUMNS", TEXT_CASES[name][3])
    code, text = run_text_case(name)
    assert code == TEXT_CASES[name][2]
    expected = (GOLDEN / "expected" / f"{name}.txt").read_text(encoding="utf-8")
    assert text == expected


def test_golden_case_classify():
    expected = (GOLDEN / "expected" / "case_classify.json").read_text(encoding="utf-8")
    assert case_classify_text() == expected


if __name__ == "__main__":
    (GOLDEN / "expected" / "case_classify.json").write_text(case_classify_text(),
                                                              encoding="utf-8")
    os.chdir(GOLDEN)
    for case in sorted(CASES):
        code, text = run_case(case)
        (GOLDEN / "expected" / f"{case}.json").write_text(text, encoding="utf-8")
        print(f"{case}: exit {code}, {len(text)} bytes")
    for case in TABLE_CASES:
        code, text = run_case(case, "table")
        (GOLDEN / "expected" / f"table_{case}.txt").write_text(text, encoding="utf-8")
        print(f"table_{case}: exit {code}, {len(text)} bytes")
    for case in sorted(TEXT_CASES):
        os.environ["COLUMNS"] = TEXT_CASES[case][3]
        code, text = run_text_case(case)
        (GOLDEN / "expected" / f"{case}.txt").write_text(text, encoding="utf-8")
        print(f"{case}: exit {code}, {len(text)} bytes")
