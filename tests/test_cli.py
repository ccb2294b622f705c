"""CLI contract: flags, file schemas, exit codes, byte-stable JSON."""

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urskit import cli
from urskit.arith import parse_rational
from urskit.cli import main
from urskit.heights import MAX_DISPLAY_DIGITS
from urskit.polys import RatPoly, validate_family
from urskit.report import stable_json, write_json

BUILD_PARSER = cli.build_parser
PARSE_INVOKED = cli._parse_invoked


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


BASE = ["--n", "7", "--m", "1", "--a", "1", "--b", "1", "--s", "2,3"]
GOLDEN = Path(__file__).parent / "golden"


# --- validate-poly --------------------------------------------------------------


def test_validate_poly_pass(capsys):
    code, out, _ = run(["validate-poly", *BASE], capsys)
    assert code == 0
    assert "squarefree" in out


def test_validate_poly_degree_gap(capsys):
    code, _, _ = run(
        ["validate-poly", "--n", "6", "--m", "1", "--a", "1", "--b", "1", "--s", "2,3"],
        capsys,
    )
    assert code == 1


def test_validate_poly_non_unit_b(capsys):
    code, _, _ = run(
        ["validate-poly", "--n", "7", "--m", "1", "--a", "1", "--b", "1/5", "--s", "2,3"],
        capsys,
    )
    assert code == 1


def test_malformed_rational_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate-poly", "--n", "7", "--m", "1", "--a", "0.5", "--b", "1", "--s", "2,3"])
    assert exc.value.code == 2


def test_float_rejected_in_files(tmp_path, capsys):
    pairs = write(tmp_path, "pairs.json", [{"x": "0.5", "y": "1"}])
    code, _, err = run(["share", *BASE, "--pairs", pairs], capsys)
    assert code == 2
    assert "floats are not accepted" in err
    assert "pairs.json[0].x" in err


def test_schema_error_names_field(tmp_path, capsys):
    pairs = write(tmp_path, "pairs.json", [{"x": "1"}])
    code, _, err = run(["share", *BASE, "--pairs", pairs], capsys)
    assert code == 2
    assert "pairs.json[0]" in err


# --- share / unit-eq --------------------------------------------------------------


def test_share_command(tmp_path, capsys):
    pairs = write(tmp_path, "pairs.json", [{"x": "0", "y": "-1"}, {"x": "1", "y": "0"}])
    code, out, _ = run(
        ["share", *BASE, "--pairs", pairs, "--format", "json"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["rows"][0]["shares"] is True
    assert data["rows"][1]["u"] == "3"
    assert data["artifact"]["version"]
    assert data["config"]["s_primes"] == [2, 3]


def test_share_nonsharing_exit(tmp_path, capsys):
    pairs = write(tmp_path, "pairs.json", [{"x": "2", "y": "3"}])
    code, _, _ = run(["share", *BASE, "--pairs", pairs], capsys)
    assert code == 1


def test_unit_eq_contains_fixture(capsys):
    code, out, _ = run(
        ["unit-eq", "--s", "2,3", "--bound", "3", "--format", "json"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert ["9", "-8"] in data["solutions"]


# --- trace -------------------------------------------------------------------------


def test_trace_reports_identity(tmp_path, capsys):
    pairs = write(tmp_path, "pairs.json", [{"x": "0", "y": "-1"}])
    code, out, _ = run(
        ["trace", *BASE, "--pairs", pairs, "--epsilon", "1/10", "--format", "json"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    row = data["rows"][0]
    assert row["identity_ok"] is True and row["u"] == "1"
    checks = data["checks"]
    assert checks["main_inequality"]["constants"]["C_total"] == str(2**20)
    assert checks["roth_chain"]["ok"] and checks["trunc_bounds"]["ok"]
    assert data["dependence"]["basis"] == [[1, 0, 0], [0, 0, 1]]

    # P(2)/P(0) = 193 is no S-unit: heights only, every count unset
    pairs = write(tmp_path, "pairs.json", [{"x": "2", "y": "0"}])
    code, out, _ = run(
        ["trace", *BASE, "--pairs", pairs, "--digits", "3", "--format", "json"], capsys
    )
    assert code == 0
    assert json.loads(out)["rows"] == [
        {
            "x": "2",
            "y": "0",
            "u": "193",
            "shares": False,
            "eta": "-192",
            "zeta": "0",
            "identity_ok": True,
            "h_x": {"exact": "2", "log": "0.693"},
            "h_y": {"exact": "1", "log": "0.000"},
            "h_u": {"exact": "193", "log": "5.263"},
            "h_eta": {"exact": "192", "log": "5.257"},
            "h_zeta": {"exact": "1", "log": "0.000"},
            "n1_x": None,
            "n1_y": None,
            "n2_eta": None,
            "n2_zeta": None,
            "n2_u": None,
            "n_xm_a": None,
            "n_ym_a": None,
            "flags": ["not_sharing", "zeta_zero", "y_zero"],
        }
    ]


def test_trace_invalid_family_exit(tmp_path, capsys):
    pairs = write(tmp_path, "pairs.json", [{"x": "0", "y": "-1"}])
    code, _, err = run(
        ["trace", "--n", "6", "--m", "1", "--a", "1", "--b", "1", "--s", "2,3",
         "--pairs", pairs],
        capsys,
    )
    assert code == 1
    assert "validate-poly" in err


def _distinct_and_evaluated(monkeypatch, capsys, family, pairs_file):
    """The distinct values of a pairs file, and the points one `trace` run
    on it evaluates P at."""
    monkeypatch.chdir(GOLDEN)
    pairs = json.loads((GOLDEN / pairs_file).read_text(encoding="utf-8"))
    distinct = {parse_rational(v) for pair in pairs for v in pair.values()}
    calls = []
    evaluate = RatPoly.evaluate_unreduced

    # every evaluation of P, to a Fraction or not, goes through this
    def counted(self, p, q):
        calls.append(Fraction(p, q))
        return evaluate(self, p, q)

    monkeypatch.setattr(RatPoly, "evaluate_unreduced", counted)
    assert main(["trace", *family, "--pairs", pairs_file, "--format", "json"]) == 0
    capsys.readouterr()
    return distinct, calls


def test_trace_evaluates_p_once_per_value(monkeypatch, capsys):
    distinct, calls = _distinct_and_evaluated(monkeypatch, capsys, BASE, "trace_pairs.json")
    assert len(distinct) == 12  # of 18 value slots
    assert sorted(calls) == sorted(distinct)


def test_trace_evaluates_p_once_per_value_not_per_string(monkeypatch, capsys):
    # the file writes 2 also as "6/3"
    family = [*BASE[:4], "--a=-2", *BASE[6:]]
    distinct, calls = _distinct_and_evaluated(
        monkeypatch, capsys, family, "trace_vanishing_pairs.json"
    )
    assert len(distinct) == 4  # of 16 value slots
    assert sorted(calls) == sorted(distinct)


def test_trace_validates_the_family_once(monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    calls = []

    def counted(S, fam):
        calls.append(fam)
        return validate_family(S, fam)

    # cli is the one module that binds the name: trace takes the report
    monkeypatch.setattr(cli, "validate_family", counted)
    assert main(["trace", *BASE, "--pairs", "trace_pairs.json", "--format", "json"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_negative_epsilon_rejected_before_any_row(tmp_path, capsys, monkeypatch):
    def no_rows(*args):
        raise AssertionError("rows built for a negative epsilon")

    monkeypatch.setattr(cli, "build_trace_rows", no_rows)
    pairs = write(tmp_path, "pairs.json", [{"x": "0", "y": "-1"}])
    code, out, err = run(["trace", *BASE, "--pairs", pairs, "--epsilon=-1/10"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: epsilon must be nonnegative\n"


def test_corollary_negative_epsilon_exits_2_off_the_line(tmp_path, capsys):
    # (1, 1) misses x + y = 5, so no point is delegated: epsilon is rejected
    # before any pair is looked at
    pairs = write(tmp_path, "pairs.json", [{"x": "1", "y": "1"}])
    code, out, err = run(
        ["subspace", "--corollary", "--A", "1", "--B", "1", "--C", "5", "--pairs", pairs,
         "--s", "2,3", "--epsilon=-1/10", "--format", "json"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err == "error: epsilon must be nonnegative\n"


# --- subspace -----------------------------------------------------------------------


def test_subspace_fixture(tmp_path, capsys):
    forms = write(tmp_path, "forms.json", {"r": 1, "forms": [["1", "0"], ["0", "1"], ["1", "1"]]})
    points = write(tmp_path, "points.json", [["81", "-80"], ["5", "-4"]])
    code, out, _ = run(
        ["subspace", "--s", "2,3", "--epsilon", "1/10", "--forms", forms,
         "--points", points, "--format", "json"],
        capsys,
    )
    assert code == 1  # one violated row
    data = json.loads(out)
    first, second = data["rows"]
    assert first["verdict"] == "violated"
    assert first["rhs"]["exact"] == "5"
    assert first["max_height"]["exact"] == "81"
    assert second["verdict"] == "holds"


def test_subspace_corollary_mode(tmp_path, capsys):
    pairs = write(tmp_path, "pairs.json", [{"x": "5", "y": "-4"}])
    code, out, _ = run(
        ["subspace", "--s", "2,3", "--corollary", "--A", "1", "--B", "1", "--C", "1",
         "--pairs", pairs, "--epsilon", "1/10", "--format", "json"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["rows"][0]["agree"] is True


def test_subspace_missing_files_schema_error(capsys):
    code, _, err = run(["subspace", "--s", "2,3"], capsys)
    assert code == 2
    assert "forms" in err


@pytest.mark.parametrize("r", [True, False, 1.0, "1", 0])
def test_forms_r_not_a_positive_int_is_schema_error(r, tmp_path, capsys):
    # true would pass an isinstance(r, int) test as r = 1
    forms = write(tmp_path, "forms.json", {"r": r, "forms": [["1", "0"], ["0", "1"], ["1", "1"]]})
    points = write(tmp_path, "points.json", [["10", "15"]])
    code, out, err = run(
        ["subspace", "--s", "2,3", "--forms", forms, "--points", points], capsys
    )
    assert (code, out) == (2, "")
    assert err == f"schema error: {forms}.r: must be an integer >= 1\n"


# one argv per input flag, with {path} standing for the input under test
INPUT_FLAG_ARGVS = [
    ["share", *BASE, "--pairs", "{path}"],
    ["share", "--poly", "{path}", "--s", "2,3", "--pairs", "pairs.json"],
    ["search-shared", "--poly", "{path}", "--s", "2,3", "--height-bound", "3"],
    ["subspace", "--s", "2,3", "--forms", "{path}", "--points", "points.json"],
    ["subspace", "--s", "2,3", "--forms", "forms.json", "--points", "{path}"],
]


# Unreadable-file cases use a directory; permission cases cannot be tested
# when the suite runs as root, which may read any file.
@pytest.mark.parametrize("argv", INPUT_FLAG_ARGVS)
def test_unreadable_input_is_usage_error(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, _, err = run([arg.format(path=tmp_path) for arg in argv], capsys)
    assert code == 2
    assert "Traceback" not in err
    assert f"cannot read {tmp_path}" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", INPUT_FLAG_ARGVS)
def test_non_utf8_input_is_usage_error(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe[")
    code, _, err = run([arg.format(path=bad) for arg in argv], capsys)
    assert code == 2
    assert "Traceback" not in err
    assert f"cannot read {bad}: 'utf-8' codec can't decode byte 0xff" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", INPUT_FLAG_ARGVS)
def test_deeply_nested_input_is_usage_error(argv, tmp_path, capsys, monkeypatch):
    # json.load recurses once per level, so this depth exhausts the stack
    monkeypatch.chdir(GOLDEN)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    code, out, err = run([arg.format(path=deep) for arg in argv], capsys)
    assert (code, out) == (2, "")
    assert err == f"schema error: {deep}: invalid JSON: nested too deeply to read\n"


SHARE_PAIRS = ["share", *BASE, "--pairs", "{path}"]
SHARE_POLY = ["share", "--poly", "{path}", "--s", "2,3", "--pairs", "pairs.json"]
SUBSPACE_FORMS = ["subspace", "--s", "2,3", "--forms", "{path}", "--points", "points.json"]
SUBSPACE_POINTS = ["subspace", "--s", "2,3", "--forms", "forms.json", "--points", "{path}"]
COROLLARY = ["subspace", "--s", "2,3", "--corollary", "--A", "1", "--B", "1"]


# one case per schema check: the input file's text (None writes no file), the
# argv with {path} standing for that file, and the location the error names
@pytest.mark.parametrize(
    "text, argv, location",
    [
        (None, SHARE_PAIRS, "{path}"),  # file not found
        ("[", SHARE_PAIRS, "{path}"),  # invalid JSON
        ('[{"x": 1, "y": "2"}]', SHARE_PAIRS, "{path}[0].x"),
        ("{}", SHARE_PAIRS, "{path}"),
        ('{"coef": ["1"]}', SHARE_POLY, "{path}"),
        ('{"coeffs": []}', SHARE_POLY, "{path}.coeffs"),
        ('{"r": 1}', SUBSPACE_FORMS, "{path}"),
        ('{"r": 1, "forms": {}}', SUBSPACE_FORMS, "{path}.forms"),
        ('{"r": 1, "forms": [["1"]]}', SUBSPACE_FORMS, "{path}.forms[0]"),
        ('{"r": 1, "forms": [["1", "0"]]}', SUBSPACE_FORMS, "{path}"),
        ("{}", SUBSPACE_POINTS, "{path}"),
        ('[["1"]]', SUBSPACE_POINTS, "{path}[0]"),
        (None, ["validate-poly", "--n", "3", "--m", "3", *BASE[4:]], "--n/--m"),
        (None, ["share", "--n", "7", "--s", "2,3", "--pairs", "pairs.json"], "--poly/--n"),
        (None, [*COROLLARY, "--pairs", "pairs.json"], "--A/--B/--C"),
        (None, [*COROLLARY, "--C", "1"], "--pairs"),
    ],
)
def test_schema_error_names_location(text, argv, location, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    code, out, err = run([arg.format(path=path) for arg in argv], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"schema error: {location.format(path=path)}: ")
    assert err.count("\n") == 1


# --poly is an alternative to the family flags, not an override of them: a
# line that gives both is a usage error, whichever family flags it gives
@pytest.mark.parametrize(
    "argv",
    [
        ["share", "--s", "2,3", "--pairs", "pairs.json"],
        ["search-shared", "--s", "2,3", "--height-bound", "3"],
        ["search-su", "--s", "2,3", "--height-bound", "3"],
    ],
    ids=["share", "search-shared", "search-su"],
)
@pytest.mark.parametrize("family", [BASE[:8], ["--n", "7"], ["--b", "1"]], ids=["all", "n", "b"])
def test_poly_with_family_flags_is_usage_error(argv, family, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, out, err = run([*argv, "--poly", "poly.json", *family], capsys)
    assert (code, out) == (2, "")
    assert err == "schema error: --poly/--n: give either --poly FILE or all of --n --m --a --b\n"
    assert run([*argv, "--poly", "poly.json"], capsys)[0] != 2


@pytest.mark.parametrize("fmt", ["json", "both"])
def test_unwritable_out_is_usage_error(fmt, tmp_path, capsys):
    out_file = tmp_path / "missing" / "report.json"
    code, _, err = run(
        ["unit-eq", "--s", "2,3", "--bound", "1", "--format", fmt, "--out", str(out_file)],
        capsys,
    )
    assert code == 2
    assert "Traceback" not in err
    assert f"--out: cannot write {out_file}" in err
    assert err.count("\n") == 1


class FailsAfterOneWrite:
    """An --out file that takes its first write and then raises `error`."""

    def __init__(self, file, error):
        self.file, self.error, self.writes = file, error, 0

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise self.error
        return self.file.write(text)

    def flush(self):
        self.file.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()


FAILURES = pytest.mark.parametrize("error, message", [
    (ValueError("Exceeds the limit (4300 digits) for integer string conversion"),
     "error: Exceeds the limit (4300 digits) for integer string conversion"),
    (OSError(28, "No space left on device"),
     "schema error: --out: cannot write {out}: No space left on device"),
], ids=["digit-limit", "disk-full"])


def _fail_after_one_write(monkeypatch, name, error):
    """Make every file `cli` opens whose path starts with `name` fail at its
    second write; the returned list gathers them."""
    files = []

    def open_failing(path, *args, **kwargs):
        file = open(path, *args, **kwargs)
        if not path.startswith(name):
            return file
        files.append(FailsAfterOneWrite(file, error))
        return files[-1]

    monkeypatch.setattr(cli, "open", open_failing, raising=False)
    return files


@FAILURES
@pytest.mark.parametrize("before", [None, "the last whole report\n"], ids=["new", "existing"])
def test_report_failing_midway_leaves_out_file_as_it_was(error, message, before, tmp_path,
                                                         capsys, monkeypatch):
    # 200 rows are more than one chunk of the writer, so the first chunk is
    # written when the second write fails; a new --out file is removed, and
    # one already there keeps its bytes, the report going to a file beside it
    out_file = tmp_path / "report.json"
    if before is not None:
        out_file.write_text(before, encoding="utf-8")
    files = _fail_after_one_write(monkeypatch, str(out_file), error)
    pairs = write(tmp_path, "pairs.json", [{"x": "0", "y": "-1"}] * 200)
    code, out, err = run(["trace", *BASE, "--pairs", pairs, "--format", "json",
                          "--out", str(out_file)], capsys)
    assert [f.writes for f in files] == [2]
    assert (code, out, err) == (2, "", message.format(out=out_file) + "\n")
    left = {p.name: p.read_text(encoding="utf-8") for p in tmp_path.iterdir()}
    del left["pairs.json"]
    assert left == ({} if before is None else {"report.json": before})


@FAILURES
def test_report_failing_midway_on_a_device_removes_nothing(error, message, tmp_path,
                                                           capsys, monkeypatch):
    # a device is written straight through: a failing report leaves it be,
    # and its own error and exit code are the ones told
    removed = []
    monkeypatch.setattr(os, "remove", removed.append)
    files = _fail_after_one_write(monkeypatch, os.devnull, error)
    pairs = write(tmp_path, "pairs.json", [{"x": "0", "y": "-1"}] * 200)
    code, out, err = run(["trace", *BASE, "--pairs", pairs, "--format", "json",
                          "--out", os.devnull], capsys)
    assert [f.writes for f in files] == [2]
    assert (code, out, err) == (2, "", message.format(out=os.devnull) + "\n")
    assert removed == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.json"]


@FAILURES
def test_report_failing_midway_keeps_its_error_when_removal_fails(error, message, tmp_path,
                                                                  capsys, monkeypatch):
    def remove(path):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(os, "remove", remove)
    out_file = tmp_path / "report.json"
    _fail_after_one_write(monkeypatch, str(out_file), error)
    pairs = write(tmp_path, "pairs.json", [{"x": "0", "y": "-1"}] * 200)
    code, out, err = run(["trace", *BASE, "--pairs", pairs, "--format", "json",
                          "--out", str(out_file)], capsys)
    assert (code, out, err) == (2, "", message.format(out=out_file) + "\n")


def test_out_file_made_meanwhile_by_another_writer_is_kept(tmp_path, capsys, monkeypatch):
    # --out is absent when looked at, then made by someone else before it is
    # opened: the exclusive open fails, and the file that run did not make
    # is kept
    out_file = tmp_path / "report.json"
    out_file.write_text("another writer's report\n", encoding="utf-8")
    monkeypatch.setattr(os.path, "lexists", lambda path: False)
    pairs = write(tmp_path, "pairs.json", [{"x": "0", "y": "-1"}])
    code, out, err = run(["trace", *BASE, "--pairs", pairs, "--format", "json",
                          "--out", str(out_file)], capsys)
    monkeypatch.undo()
    assert (code, out, err) == (2, "", f"schema error: --out: cannot write {out_file}: File exists\n")
    assert out_file.read_text(encoding="utf-8") == "another writer's report\n"


def test_out_replaces_a_file_and_writes_through_a_link(tmp_path, capsys):
    # a whole report replaces the file at --out, or the file a link there
    # names, and leaves no file beside it; the link stays a link
    pairs = write(tmp_path, "pairs.json", [{"x": "0", "y": "-1"}])
    argv = ["trace", *BASE, "--pairs", pairs, "--format", "json"]
    code, text, _ = run(argv, capsys)
    assert code == 0
    target, link = tmp_path / "report.json", tmp_path / "link.json"
    link.symlink_to(target)
    for out_file in (target, link):
        target.write_text("an older and longer report than this one\n" * 100, encoding="utf-8")
        assert run([*argv, "--out", str(out_file)], capsys) == (0, "", "")
        assert target.read_text(encoding="utf-8") == text
    assert link.is_symlink()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "pairs.json", "report.json"]


def test_trace_report_is_written_in_less_memory_than_its_text(tmp_path, capsys,
                                                              monkeypatch):
    # 3000 seeded pairs, every fourth (x, x), so it shares and every count is
    # written; the writer's caches grow with the rows, but slower than the text
    rng = random.Random(3000)
    xs = [rng.randrange(-60, 61) for _ in range(3000)]
    pairs = write(tmp_path, "pairs.json", [
        {"x": str(x), "y": str(x if k % 4 == 0 else rng.randrange(-60, 61))}
        for k, x in enumerate(xs)
    ])
    reports = []
    monkeypatch.setattr(cli, "write_json", lambda *args: reports.append(args))
    assert run(["trace", *BASE, "--pairs", pairs, "--format", "json"], capsys)[0] == 0
    ((report, _, digits),) = reports
    length = len(stable_json(report, digits))
    with open(os.devnull, "w", encoding="utf-8") as sink:
        tracemalloc.start()
        try:
            write_json(report, sink, digits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < length


def test_subspace_summary_and_strict(tmp_path, capsys):
    forms = write(tmp_path, "forms.json", {"r": 1, "forms": [["1", "0"], ["0", "1"], ["1", "1"]]})
    points = write(tmp_path, "points.json", [["10", "15"]])
    code, out, _ = run(
        ["subspace", "--s", "2,3", "--forms", forms, "--points", points,
         "--format", "json"],
        capsys,
    )
    data = json.loads(out)
    assert data["summary"]["points"] == 1
    # strict mode rejects the same non-primitive point
    code, _, err = run(
        ["subspace", "--s", "2,3", "--forms", forms, "--points", points, "--strict"],
        capsys,
    )
    assert code == 2
    assert "not primitive" in err


def test_empty_prime_set_allowed(capsys):
    code, _, _ = run(
        ["validate-poly", "--n", "7", "--m", "1", "--a", "1", "--b", "1", "--s", ""],
        capsys,
    )
    assert code == 0  # 1 and -1 are S-units for every S


# the last is psi_12 = 399165290221 * 798330580441, a strong pseudoprime to the
# first 12 prime bases
@pytest.mark.parametrize("part", ["4", "²", "-2", "", "318665857834031151167461"])
def test_s_entry_not_a_prime_is_usage_error(part, capsys):
    # '²' passes str.isdigit but not int(); only a parsed entry is shown bare
    with pytest.raises(SystemExit) as exc:
        main(["unit-eq", "--s", f"2,{part}", "--bound", "1"])
    assert exc.value.code == 2
    shown = part if part.isdecimal() and part.isascii() else repr(part)
    assert capsys.readouterr().err.endswith(f"argument --s: not a prime: {shown}\n")


def test_zero_b_fails_unit_check(capsys):
    code, out, _ = run(
        ["validate-poly", "--n", "7", "--m", "1", "--a", "1", "--b", "0", "--s", "2,3"],
        capsys,
    )
    assert code == 1
    assert "b_s_unit" in out


def test_format_both_prints_table_and_writes_json(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out, _ = run(
        ["unit-eq", "--s", "2,3", "--bound", "1", "--format", "both",
         "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    assert "u" in out and "v" in out  # table headers on stdout
    data = json.loads(out_file.read_text())
    assert data["command"] == "unit-eq"


def test_table_format_builds_no_json(tmp_path, capsys, monkeypatch):
    def no_json(*_):
        raise AssertionError("write_json called under --format table")

    monkeypatch.setattr(cli, "write_json", no_json)
    pairs = write(tmp_path, "pairs.json", [{"x": "0", "y": "-1"}])
    code, out, _ = run(["trace", *BASE, "--pairs", pairs, "--format", "table"], capsys)
    assert code == 0
    assert "identity" in out and "main_inequality" in out
    assert not out.lstrip().startswith("{")


COROLLARY = ["subspace", "--corollary", "--A", "1", "--B", "1", "--C", "1"]
FORMS = ["--forms", str(GOLDEN / "forms.json"), "--points", str(GOLDEN / "points.json")]


def test_undetermined_cells_print_a_dash(tmp_path, capsys):
    # u is undetermined on both rows, and with it the identity check; in
    # corollary mode, agree is undetermined on both rows too
    pairs = write(tmp_path, "pairs.json", [{"x": "0", "y": "1"}, {"x": "1", "y": "1"}])
    fam = ["--n", "7", "--m", "1", "--a", "-2", "--b", "1", "--s", "2,3"]
    code, out, _ = run(["trace", *fam, "--pairs", pairs], capsys)
    assert code == 0
    assert out.splitlines()[2:4] == [
        "0  1  -  False   -         not_sharing,unit_undefined,x_zero",
        "1  1  -  True    -         unit_undefined",
    ]
    code, out, _ = run([*COROLLARY, "--pairs", pairs, "--s", "2,3"], capsys)
    assert code == 1
    assert "None" not in out and out.splitlines()[2].split()[-1] == "-"


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", *BASE, "--pairs", "PAIRS"],
        ["search-shared", *BASE, "--height-bound", "5"],
        ["validate-poly", *BASE],
        ["share", *BASE, "--pairs", "PAIRS"],
        ["subspace", *FORMS, "--s", "2,3"],
        [*COROLLARY, "--pairs", "PAIRS", "--s", "2,3"],
        ["unit-eq", "--s", "2,3", "--bound", "2"],
        ["search-su", *BASE, "--c", "1", "--height-bound", "5"],
    ],
)
def test_json_format_builds_no_table(argv, tmp_path, capsys, monkeypatch):
    def no_table(*_):
        raise AssertionError("render_table called under --format json")

    monkeypatch.setattr(cli, "render_table", no_table)
    pairs = write(tmp_path, "pairs.json", [{"x": "0", "y": "-1"}])
    out_file = tmp_path / "report.json"
    argv = [pairs if a == "PAIRS" else a for a in argv]
    code, out, _ = run([*argv, "--format", "json", "--out", str(out_file)], capsys)
    # both subspace inputs fail a verdict: (81, -80) violates, (0, -1) misses x + y = 1
    assert code == (1 if argv[0] == "subspace" else 0)
    assert out == ""
    assert json.loads(out_file.read_text())["command"] == argv[0]


# --- searches and determinism ---------------------------------------------------------


def test_search_shared_fixture(tmp_path, capsys):
    code, out, _ = run(
        ["search-shared", *BASE, "--height-bound", "5", "--format", "json"], capsys
    )
    assert code == 0
    data = json.loads(out)
    pairs = [(r["x"], r["y"]) for r in data["rows"]]
    assert ("0", "-1") in pairs and ("-1", "0") in pairs


def test_search_su_fixture(capsys):
    code, out, _ = run(
        ["search-su", *BASE, "--c", "1", "--height-bound", "20", "--format", "json"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert ["0", "-1"] in data["pairs"] and ["-1", "0"] in data["pairs"]


def test_search_budget_exit(capsys):
    code, _, err = run(
        ["search-su", *BASE, "--c", "1", "--height-bound", "10", "--pair-budget", "5"],
        capsys,
    )
    assert code == 3
    assert "budget" in err


def test_factoring_budget_exit_names_cofactor(tmp_path, capsys):
    # 1009 and 1013 are both primes above isqrt(10^6) = 1000
    forms = write(tmp_path, "forms.json", {"r": 1, "forms": [["1", "0"], ["0", "1"], ["1", "1"]]})
    points = write(tmp_path, "points.json", [[str(1009 * 1013), "1"]])
    code, out, err = run(
        ["subspace", "--forms", forms, "--points", points, "--s", "2,3", "--budget", "1000000"],
        capsys,
    )
    assert code == 3
    assert out == ""
    assert err == (
        "budget error: factoring budget 1000000 exceeded: cofactor 1022117 "
        "has no prime factor within the trial horizon\n"
    )


def _semiprime_point_argv(tmp_path):
    # 1022117 = 1009 * 1013; normalization divides by the gcd 1009 and never
    # factors, so only the form values 1013, 1 and 1014 meet the budget
    forms = write(tmp_path, "forms.json", {"r": 1, "forms": [["1", "0"], ["0", "1"], ["1", "1"]]})
    points = write(tmp_path, "points.json", [["1022117", "1009"]])
    return ["subspace", "--forms", forms, "--points", points, "--s", "2,3",
            "--budget", "1000000"]


def test_normalization_needs_no_factoring(tmp_path, capsys):
    code, out, err = run([*_semiprime_point_argv(tmp_path), "--format", "json"], capsys)
    assert (code, err) == (0, "")
    (row,) = json.loads(out)["rows"]
    assert row["point"] == ["1013", "1"]
    assert row["verdict"] == "holds"


def test_strict_names_the_normalized_point(tmp_path, capsys):
    code, out, err = run([*_semiprime_point_argv(tmp_path), "--strict"], capsys)
    assert code == 2
    assert out == ""
    assert "expected ['1013', '1']" in err


@pytest.mark.parametrize("command", [["search-shared"], ["search-su", "--c", "1"]])
def test_search_negative_budget_usage_error(command, capsys):
    code, _, err = run(
        [*command, *BASE, "--height-bound", "5", "--pair-budget", "-5"], capsys
    )
    assert code == 2
    assert "pair_budget must be >= 0" in err


# every command, with all its required flags, so only the flag under test can
# fail parsing
DIGITS_COMMANDS = {
    "validate-poly": ["validate-poly", *BASE],
    "share": ["share", *BASE, "--pairs", "pairs.json"],
    "trace": ["trace", *BASE, "--pairs", "pairs.json"],
    "subspace": ["subspace", "--s", "2,3", "--forms", "f.json", "--points", "p.json"],
    "unit-eq": ["unit-eq", "--s", "2,3", "--bound", "1"],
    "search-shared": ["search-shared", *BASE, "--height-bound", "2"],
    "search-su": ["search-su", *BASE, "--height-bound", "2"],
}


def assert_digits_usage_error(command, digits, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*DIGITS_COMMANDS[command], "--digits", digits])
    assert exc.value.code == 2
    assert "--digits" in capsys.readouterr().err


@pytest.mark.parametrize("digits", ["-5", "0", "x"])
@pytest.mark.parametrize("command", sorted(DIGITS_COMMANDS))
def test_digits_below_one_is_usage_error(command, digits, capsys):
    assert_digits_usage_error(command, digits, capsys)


# above 17 places a double shows only noise; 10**9 would format a
# gigabyte-long string if it got through
@pytest.mark.parametrize("digits", [str(MAX_DISPLAY_DIGITS + 1), "1000000000"])
@pytest.mark.parametrize("command", sorted(DIGITS_COMMANDS))
def test_digits_above_max_is_usage_error(command, digits, capsys):
    assert_digits_usage_error(command, digits, capsys)


def test_digits_one_accepted(capsys):
    code, out, _ = run(["unit-eq", "--s", "2", "--bound", "1", "--digits", "1",
                        "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["digits"] == 1


def test_digits_max_accepted(capsys):
    code, out, _ = run(["unit-eq", "--s", "2", "--bound", "1", "--digits",
                        str(MAX_DISPLAY_DIGITS), "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["digits"] == MAX_DISPLAY_DIGITS


def test_worker_count_does_not_change_bytes(tmp_path, capsys):
    out1 = tmp_path / "w1.json"
    out4 = tmp_path / "w4.json"
    argv = ["search-shared", *BASE, "--height-bound", "8", "--denom-exponent", "1",
            "--format", "json"]
    assert main([*argv, "--workers", "1", "--out", str(out1)]) == 0
    assert main([*argv, "--workers", "4", "--out", str(out4)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out4.read_bytes()


# --workers changes nothing, but a count below 1 is still a usage error
@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("command", ["search-shared", "search-su"])
def test_workers_below_one_is_usage_error(command, workers, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*DIGITS_COMMANDS[command], "--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_repeated_run_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["unit-eq", "--s", "2,3", "--bound", "4", "--format", "json"]
    assert main([*argv, "--out", str(a)]) == 0
    assert main([*argv, "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


# the `urskit` console script calls main() with no argv, so it parses sys.argv
@pytest.mark.parametrize(
    "argv",
    [
        ["unit-eq", "--s", "2,3", "--bound", "4", "--format", "json"],
        ["trace", *BASE, "--pairs", "pairs.json", "--format", "json"],
    ],
)
def test_main_reads_sys_argv(argv, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    expected = run(argv, capsys)
    monkeypatch.setattr(sys, "argv", ["urskit", *argv])
    assert run(None, capsys) == expected


ALL_COMMANDS = list(cli.COMMANDS)


# a valid command line is read from the COMMANDS spec and builds no parser;
# any other command line goes to build_parser, once, which registers all seven
# commands with their arguments, so top-level help lists them all
@pytest.mark.no_parse_oracle
@pytest.mark.parametrize(
    "argv, fast",
    [
        (["trace", *BASE, "--pairs", "share"], True),
        (["subspace", "--s=", "--corollary", "--A", "-1", "--B", "1", "--C", "1"], True),
        (["unit-eq", "--help"], False),
        (["unit-eq", "--s", "2,3", "--bound", "4", "--bou", "3"], False),
        (["unit-eq", "--s", "2,3"], False),
        (["--format", "json", "unit-eq"], False),
        (["-h", "trace"], False),
        ([], False),
        (["--help"], False),
        (["--version"], False),
        (["bogus"], False),
    ],
    ids=[
        "trace", "equals_and_negative", "help", "abbreviated", "missing_required",
        "flag_before_command", "help_before_command", "empty", "top_help", "version",
        "bogus",
    ],
)
def test_valid_line_builds_no_parser(argv, fast, tmp_path, capsys, monkeypatch):
    built, full = [], []
    init = argparse.ArgumentParser.__init__

    def spy_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    def spy_build_parser():
        parser = BUILD_PARSER()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        # the commands registered with their arguments, beyond -h
        full.append([name for name, p in sub.choices.items() if len(p._actions) > 1])
        return parser

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy_init)
    monkeypatch.setattr(cli, "build_parser", spy_build_parser)
    monkeypatch.chdir(tmp_path)  # no file "share": trace exits 2 after parsing
    monkeypatch.setattr(sys, "argv", ["urskit", *argv])
    for main_argv in (argv, None):
        built.clear()
        full.clear()
        with contextlib.suppress(SystemExit):  # help, --version and usage errors
            main(main_argv)
        capsys.readouterr()
        if fast:
            assert (built, full) == ([], [])
        else:
            assert full == [ALL_COMMANDS]


# a valid value for each flag that takes one, so that drawn lines often are valid
GOOD = {"--s": "2,3", "--budget": "1000", "--format": "both", "--out": "r.json",
        "--digits": "6", "--n": "7", "--m": "1", "--a": "1", "--b": "1/2", "--poly": "x.json",
        "--height-bound": "10", "--denom-exponent": "2", "--pair-budget": "9",
        "--workers": "2", "--pairs": "p.json", "--epsilon": "1/3", "--forms": "f.json",
        "--points": "q.json", "--A": "2", "--B": "3", "--C": "5", "--bound": "4", "--c": "2"}
VALUES = ("7", "0", "1/2", "2,3", "2,4", "", "json", "both", "6", "18", "x.json", "a b",
          "1.5", "-", "-1", "-1/2", "-0.5", "--s", "-h")
STRAYS = ("-h", "--help", "--version", "--", "extra", "--bogus", "--bogus=1", "-x", "-1")
KINDS = ("separate", "equals") * 5 + ("alone", "abbreviated", "stray")


@st.composite
def command_lines(draw):
    """(argv, clean): argv drawn from a command's spec, clean when every flag
    is exact, every value not '-'-led, every store_true flag bare, nothing is
    left over and every required flag is given."""
    name = draw(st.sampled_from(ALL_COMMANDS))
    spec = dict(cli.COMMANDS[name][1])
    required = [flag for flag, keywords in spec.items() if keywords.get("required")]
    pieces = []  # (tokens, clean, flag given)
    if draw(st.integers(0, 3)):
        pieces += [([flag, GOOD[flag]], True, flag) for flag in required]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(KINDS))
        flag = draw(st.sampled_from(list(spec)))
        bare = spec[flag].get("action") == "store_true"
        value = draw(st.sampled_from(VALUES + (GOOD.get(flag, "1"),) * 20))
        if kind == "separate":
            tokens = [flag] if bare else [flag, value]
            pieces.append((tokens, bare or not value.startswith("-"), flag))
        elif kind == "equals":
            pieces.append(([f"{flag}={value}"], not bare and not value.startswith("-"), flag))
        elif kind == "alone":
            pieces.append(([flag], bare, flag))
        elif kind == "abbreviated":
            cut = draw(st.integers(2, len(flag) - 1))
            pieces.append(([flag[:cut]] if bare else [flag[:cut], value], False, None))
        else:
            pieces.append(([draw(st.sampled_from(STRAYS))], False, None))
    pieces = draw(st.permutations(pieces))
    argv = [name, *(token for tokens, _, _ in pieces for token in tokens)]
    given = {flag for _, _, flag in pieces}
    clean = all(ok for _, ok, _ in pieces) and given.issuperset(required)
    return argv, clean


# the fast path gives the full parser's namespace or None, and None only
# where a flag, a value or a required flag is amiss: it cannot silently fall
# back to the full parser on a clean line argparse accepts
@settings(max_examples=700, derandomize=True, deadline=None)
@given(command_lines())
def test_fast_path_matches_the_full_parser(line):
    argv, clean = line
    args = PARSE_INVOKED(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            expected = vars(BUILD_PARSER().parse_args(argv))
    except SystemExit:
        expected = None
    if args is not None:
        assert vars(args) == expected
    if clean and expected is not None:
        assert args is not None


VALIDATE = ["validate-poly", "--n", "7", "--m", "1", "--b", "1", "--s", "2,3", "--format", "json"]


# lines that differ only in how argparse reads them print the same bytes and
# exit alike, whichever path reads them: an abbreviation goes to the full
# parser, a separate negative number stays on the fast path
@pytest.mark.parametrize(
    "argv, same_as, fast",
    [
        ([*VALIDATE, "--a", "-1"], [*VALIDATE, "--a=-1"], True),
        ([*VALIDATE, "--a", "1", "--dig", "3"], [*VALIDATE, "--a", "1", "--digits", "3"], False),
    ],
    ids=["negative", "abbreviation"],
)
def test_lines_read_alike_print_alike(argv, same_as, fast, capsys):
    assert (PARSE_INVOKED(argv) is not None) == fast
    assert PARSE_INVOKED(same_as) is not None
    assert run(argv, capsys) == run(same_as, capsys)


# argparse reads a separate '-'-led value only when it looks like a negative
# number, so -1/2 after --a is a missing value, not a rational
def test_dash_led_fraction_needs_the_equals_form(capsys):
    with pytest.raises(SystemExit) as exc:
        main([*VALIDATE, "--a", "-1/2"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --a: expected one argument\n"
    )


def _golden_text(name):
    return (GOLDEN / "expected" / name).read_text(encoding="utf-8")


TOP_USAGE = """\
usage: urskit [-h] [--version]
              {validate-poly,share,trace,subspace,unit-eq,search-shared,search-su}
              ...
"""


# a command line with something left over after the command's own arguments
# goes to the full parser, whose top level prints the error; -h anywhere after
# the command prints that command's help before anything else is checked
@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["trace", *BASE, "--pairs", "pairs.json", "extra"], 2, "",
         _golden_text("usage_trace_extra.txt")),
        (["validate-poly", *BASE, "--version"], 2, "",
         TOP_USAGE + "urskit: error: unrecognized arguments: --version\n"),
        (["trace", *BASE, "--pairs", "pairs.json", "--bogus", "1"], 2, "",
         TOP_USAGE + "urskit: error: unrecognized arguments: --bogus 1\n"),
        (["unit-eq", "--s", "2,3", "--bound", "4", "--bogus"], 2, "",
         TOP_USAGE + "urskit: error: unrecognized arguments: --bogus\n"),
        (["trace", "--n", "7", "-h", "--m", "1"], 0, _golden_text("help_trace.txt"), ""),
        (["unit-eq", "--bound", "4", "-h", "--s", "x"], 0, _golden_text("help_unit_eq.txt"),
         ""),
    ],
    ids=[
        "extra", "version", "unknown_flag_and_value", "unknown_flag", "help",
        "help_before_bad_value",
    ],
)
def test_leftover_arguments_and_mid_line_help(argv, code, out, err, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    assert capsys.readouterr() == (out, err)


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "urskit", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "urskit" in proc.stdout
