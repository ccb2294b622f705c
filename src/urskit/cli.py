"""Command-line front end: reproducible batch runs over stable file formats.

Exit codes: 0 every check passed, 1 a mathematical verdict failed, 2 usage or
schema error, 3 factoring/search budget exceeded.

Rationals are always strings 'a/b' on the command line and in files; floats
are rejected at parse time.  JSON output is byte-stable for a given
configuration.  `--workers` is accepted for compatibility and validated when
the arguments are parsed; the searches are single-threaded, so it changes
nothing and is not echoed.

The seven commands live in one table, `COMMANDS`, each with its arguments as
data.  A valid command line is read straight from the spec of the command its
first argument names, with no argparse parser built, since building one costs
more than the reading; any other line goes to the full parser, which
registers all seven commands and prints the help, --version and usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import suppress
from fractions import Fraction
from operator import attrgetter, itemgetter

from . import __version__
from ._kernel import BACKEND
from .arith import (
    DEFAULT_FACTORING_BUDGET,
    FactoringBudgetError,
    SContext,
    is_certified_prime,
    parse_rational,
    rational_str,
    unit_equation_solutions,
)
from .heights import DEFAULT_DISPLAY_DIGITS, MAX_DISPLAY_DIGITS, nonnegative_epsilon
from .polys import RatPoly, TrinomialFamily, validate_family
from .report import SchemaError, render_table, write_json
from .sharing import SearchBudgetError, search_shared_pairs, share_check
from .subspace import (
    ERROR,
    VIOLATED,
    LinearFormSystem,
    corollary_eval,
    evaluate_conjecture,
    summarize_defects,
)
from .trace import (
    build_trace_rows,
    dependence_detect,
    main_inequality_report,
    roth_chain_report,
    strong_uniqueness_search,
    trunc_bound_check,
    unit_height_check,
)


def _parse_primes(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    primes = []
    for part in text.split(","):
        part = part.strip()
        if not part.isdecimal():  # isdigit() also passes '²', which int() rejects
            raise argparse.ArgumentTypeError(f"not a prime: {part!r}")
        p = int(part)
        if not is_certified_prime(p):
            raise argparse.ArgumentTypeError(f"not a prime: {p}")
        primes.append(p)
    return tuple(sorted(set(primes)))


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _digits_arg(text: str) -> int:
    digits = _int_arg(text)
    if not 1 <= digits <= MAX_DISPLAY_DIGITS:
        raise argparse.ArgumentTypeError(
            f"must be between 1 and {MAX_DISPLAY_DIGITS}, got {digits}"
        )
    return digits


def _workers_arg(text: str) -> int:
    workers = _int_arg(text)
    if workers < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {workers}")
    return workers


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(path, f"file not found: {path}")
    except OSError as exc:
        raise SchemaError(path, f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise SchemaError(path, f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise SchemaError(path, f"invalid JSON: {exc}")
    except RecursionError:
        raise SchemaError(path, "invalid JSON: nested too deeply to read")


def _parse_rat_field(raw, location: str) -> Fraction:
    if not isinstance(raw, str):
        raise SchemaError(location, f"rationals must be strings 'a/b', got {raw!r}")
    try:
        return parse_rational(raw)
    except ValueError as exc:
        raise SchemaError(location, str(exc))


def load_pairs_file(path: str) -> list[tuple[Fraction, Fraction]]:
    """The pairs of a pairs file; each distinct string is parsed once."""
    data = _load_json(path)
    if not isinstance(data, list):
        raise SchemaError(path, "pairs file must be a JSON array")
    parsed: dict[str, Fraction] = {}

    def field(raw, location):
        if isinstance(raw, str) and raw in parsed:
            return parsed[raw]
        value = parsed[raw] = _parse_rat_field(raw, location)  # raw is a str
        return value

    pairs = []
    for i, entry in enumerate(data):
        loc = f"{path}[{i}]"
        if not isinstance(entry, dict) or "x" not in entry or "y" not in entry:
            raise SchemaError(loc, 'each pair needs fields "x" and "y"')
        pairs.append((field(entry["x"], f"{loc}.x"), field(entry["y"], f"{loc}.y")))
    return pairs


def load_poly_file(path: str) -> RatPoly:
    data = _load_json(path)
    if not isinstance(data, dict) or "coeffs" not in data:
        raise SchemaError(path, 'polynomial file needs field "coeffs"')
    coeffs = data["coeffs"]
    if not isinstance(coeffs, list) or not coeffs:
        raise SchemaError(f"{path}.coeffs", "must be a nonempty array of rationals")
    return RatPoly.of(
        _parse_rat_field(c, f"{path}.coeffs[{i}]") for i, c in enumerate(coeffs)
    )


def load_forms_file(path: str) -> LinearFormSystem:
    data = _load_json(path)
    if not isinstance(data, dict) or "r" not in data or "forms" not in data:
        raise SchemaError(path, 'forms file needs fields "r" and "forms"')
    r = data["r"]
    if type(r) is not int or r < 1:  # bool is an int subclass: true is not 1
        raise SchemaError(f"{path}.r", "must be an integer >= 1")
    rows = []
    if not isinstance(data["forms"], list):
        raise SchemaError(f"{path}.forms", "must be an array of coefficient rows")
    for i, row in enumerate(data["forms"]):
        loc = f"{path}.forms[{i}]"
        if not isinstance(row, list) or len(row) != r + 1:
            raise SchemaError(loc, f"each form needs exactly {r + 1} coefficients")
        rows.append([_parse_rat_field(c, f"{loc}[{j}]") for j, c in enumerate(row)])
    try:
        return LinearFormSystem.of(r, rows)
    except ValueError as exc:
        raise SchemaError(path, str(exc))


def load_points_file(path: str, width: int) -> list[list[Fraction]]:
    data = _load_json(path)
    if not isinstance(data, list):
        raise SchemaError(path, "points file must be a JSON array")
    points = []
    for i, row in enumerate(data):
        loc = f"{path}[{i}]"
        if not isinstance(row, list) or len(row) != width:
            raise SchemaError(loc, f"each point needs exactly {width} coordinates")
        points.append([_parse_rat_field(c, f"{loc}[{j}]") for j, c in enumerate(row)])
    return points


def _family_from_args(args) -> TrinomialFamily:
    try:
        return TrinomialFamily(args.n, args.m, args.a, args.b)
    except ValueError as exc:
        raise SchemaError("--n/--m", str(exc))


def _poly_from_args(args) -> RatPoly:
    family = [args.n, args.m, args.a, args.b]
    if args.poly and family.count(None) == 4:
        return load_poly_file(args.poly)
    if args.poly or None in family:
        raise SchemaError("--poly/--n", "give either --poly FILE or all of --n --m --a --b")
    return _family_from_args(args).polynomial()


def _context(args) -> SContext:
    return SContext(args.s, args.budget)


def _emit(args, config: dict, payload: dict, *tables) -> None:
    """Print the tables, each a (columns, items) pair for render_table and
    separated by a blank line, and stream the JSON report, which names
    args.command, as --format and --out ask; neither is rendered unless it is
    written.  A new --out file is removed if the report fails; one already
    there, or the file a link names, is replaced only by a whole report,
    written beside it first; a device or a pipe is written straight through."""
    if args.format in ("table", "both"):
        print("\n\n".join(render_table(*table) for table in tables))
    if args.format == "table" and not args.out:
        return
    report = {
        "artifact": {"name": "urskit", "version": __version__, "kernel": BACKEND},
        "command": args.command,
        "config": config,
        **payload,
    }
    if not args.out:
        return write_json(report, sys.stdout, args.digits)
    made = not os.path.lexists(args.out)  # a new file, made here
    whole = not made and (os.path.isfile(args.out) or not os.path.exists(args.out))
    path = os.path.realpath(args.out) if whole else args.out
    part = f"{path}.{os.getpid()}.part" if whole else path
    out = None
    try:
        try:
            with open(part, "x" if made else "w", encoding="utf-8") as out:
                write_json(report, out, args.digits)
            if whole:
                os.replace(part, path)
        except BaseException:
            if out is not None and (made or whole):
                with suppress(OSError):  # the report's own error is the one told
                    os.remove(part)
            raise
    except OSError as exc:
        raise SchemaError("--out", f"cannot write {args.out}: {exc.strerror}")


def _common_config(args, **extra) -> dict:
    cfg = {
        "s_primes": args.s,
        "factoring_budget": args.budget,
        "format": args.format,
        "digits": args.digits,
    }
    cfg.update(extra)
    return cfg


def _search_config(args, P: RatPoly, **extra) -> dict:
    return _common_config(
        args,
        poly=str(P),
        height_bound=args.height_bound,
        denom_exponent=args.denom_exponent,
        pair_budget=args.pair_budget,
        **extra,
    )


# --format table layouts: (header, getter) pairs, one per column, each cell
# written by report.render_table by its type
_X, _Y, _U = ((name, attrgetter(name)) for name in "xyu")
_PAIR_COLUMNS = (("x", itemgetter(0)), ("y", itemgetter(1)))
_UNIT_EQ_COLUMNS = (("u", itemgetter(0)), ("v", itemgetter(1)))
_SHARE_COLUMNS = (_X, _Y, _U, ("shares", attrgetter("shares")))
_CHECK_COLUMNS = (
    ("check", attrgetter("name")),
    ("passed", attrgetter("passed")),
    ("detail", attrgetter("detail")),
)
_COROLLARY_COLUMNS = (
    _X,
    _Y,
    ("verdict", attrgetter("verdict")),
    ("direct", attrgetter("direct_verdict")),
    ("agree", attrgetter("agree")),
)
_POINT_COLUMNS = (
    ("point", lambda r: "(" + ",".join(map(rational_str, r.point)) + ")"),
    ("max_height", attrgetter("max_height")),
    ("rhs", attrgetter("rhs")),
    ("verdict", attrgetter("verdict")),
)
_TRACE_COLUMNS = (
    *_SHARE_COLUMNS,
    ("identity", attrgetter("identity_ok")),
    ("flags", lambda r: ",".join(r.flags) or "-"),
)
_OK_COLUMNS = (("check", itemgetter(0)), ("ok", itemgetter(1)))


def cmd_validate_poly(args) -> int:
    S = _context(args)
    fam = _family_from_args(args)
    rep = validate_family(S, fam)
    config = _common_config(args, n=fam.n, m=fam.m, a=fam.a, b=fam.b)
    _emit(args, config, {"validation": rep}, (_CHECK_COLUMNS, rep.checks))
    return 0 if rep.passed else 1


def cmd_share(args) -> int:
    S = _context(args)
    P = _poly_from_args(args)
    pairs = load_pairs_file(args.pairs)
    rows = [share_check(S, P, x, y) for x, y in pairs]
    config = _common_config(args, pairs=args.pairs, poly=str(P))
    _emit(args, config, {"rows": rows}, (_SHARE_COLUMNS, rows))
    return 0 if all(r.shares for r in rows) else 1


def cmd_unit_eq(args) -> int:
    S = _context(args)
    sols = unit_equation_solutions(S, args.bound)
    config = _common_config(args, exponent_bound=args.bound)
    payload = {"solutions": sols, "count": len(sols)}
    _emit(args, config, payload, (_UNIT_EQ_COLUMNS, sols))
    return 0


def cmd_search_shared(args) -> int:
    S = _context(args)
    P = _poly_from_args(args)
    rows = search_shared_pairs(
        S,
        P,
        args.height_bound,
        args.denom_exponent,
        pair_budget=args.pair_budget,
    )
    config = _search_config(args, P)
    payload = {"rows": rows, "count": len(rows)}
    _emit(args, config, payload, ((_X, _Y, _U), rows))
    return 0


def cmd_search_su(args) -> int:
    S = _context(args)
    P = _poly_from_args(args)
    pairs = strong_uniqueness_search(
        S,
        P,
        args.c,
        args.height_bound,
        args.denom_exponent,
        pair_budget=args.pair_budget,
    )
    config = _search_config(args, P, c=args.c)
    payload = {"pairs": pairs, "count": len(pairs)}
    _emit(args, config, payload, (_PAIR_COLUMNS, pairs))
    return 0


def cmd_subspace(args) -> int:
    S = _context(args)
    if args.corollary:
        for flag in ("A", "B", "C"):
            if getattr(args, flag) is None:
                raise SchemaError("--A/--B/--C", "corollary mode needs A, B and C")
        if not args.pairs:
            raise SchemaError("--pairs", "corollary mode needs a pairs file")
        pairs = load_pairs_file(args.pairs)
        rows = corollary_eval(S, args.A, args.B, args.C, args.epsilon, pairs)
        config = _common_config(
            args,
            mode="corollary",
            A=args.A,
            B=args.B,
            C=args.C,
            epsilon=args.epsilon,
            pairs=args.pairs,
        )
        _emit(args, config, {"rows": rows}, (_COROLLARY_COLUMNS, rows))
        return 1 if any(r.verdict in (VIOLATED, ERROR) for r in rows) else 0
    if not args.forms or not args.points:
        raise SchemaError("--forms/--points", "conjecture mode needs both files")
    sys_ = load_forms_file(args.forms)
    points = load_points_file(args.points, sys_.r + 1)
    reports = evaluate_conjecture(S, sys_, args.epsilon, points, strict=args.strict)
    config = _common_config(
        args,
        mode="conjecture",
        forms=args.forms,
        points=args.points,
        epsilon=args.epsilon,
        strict=args.strict,
    )
    payload = {"rows": reports, "summary": summarize_defects(reports)}
    _emit(args, config, payload, (_POINT_COLUMNS, reports))
    return 1 if any(r.verdict == VIOLATED for r in reports) else 0


def cmd_trace(args) -> int:
    S = _context(args)
    fam = _family_from_args(args)
    validation = validate_family(S, fam)
    if not validation.passed:
        failed = ", ".join(c.name for c in validation.checks if not c.passed)
        print(
            f"family hypotheses unmet ({failed}); run validate-poly for details",
            file=sys.stderr,
        )
        return 1
    nonnegative_epsilon(args.epsilon)  # before any per-row work
    pairs = load_pairs_file(args.pairs)
    rows, values = build_trace_rows(S, fam, pairs)
    checks = {
        "roth_chain": roth_chain_report(S, fam.polynomial(), rows, values, args.digits),
        "unit_height": unit_height_check(rows, values),
        "trunc_bounds": trunc_bound_check(rows),
        "main_inequality": main_inequality_report(S, fam, args.epsilon, rows, validation),
    }
    dependence = dependence_detect(rows) if any(r.u is not None for r in rows) else None
    config = _common_config(
        args,
        n=fam.n,
        m=fam.m,
        a=fam.a,
        b=fam.b,
        epsilon=args.epsilon,
        pairs=args.pairs,
    )
    payload = {
        "validation": validation,
        "rows": rows,
        "checks": checks,
        "dependence": dependence,
    }
    oks = {name: c.ok for name, c in checks.items()}
    tables = (_TRACE_COLUMNS, rows), (_OK_COLUMNS, oks.items())
    _emit(args, config, payload, *tables)
    identity_fail = any(r.identity_ok is False for r in rows)
    return 1 if identity_fail or not all(oks.values()) else 0


# each command's arguments: (flag, add_argument keywords) pairs, added in order
_COMMON = (
    ("--s", dict(
        type=_parse_primes,
        required=True,
        help="comma-separated finite primes of S (may be empty: --s '')",
    )),
    ("--budget", dict(
        type=int,
        default=DEFAULT_FACTORING_BUDGET,
        help="largest integer fully factorable by this run",
    )),
    ("--format", dict(
        choices=("json", "table", "both"),
        default="table",
        help="report format (default: table)",
    )),
    ("--out", dict(default=None, help="write the JSON report to this path")),
    ("--digits", dict(
        type=_digits_arg,
        default=DEFAULT_DISPLAY_DIGITS,
        help=f"decimal places for display-only log values (1 to {MAX_DISPLAY_DIGITS})",
    )),
)
_FAMILY, _OPTIONAL_FAMILY = (
    (
        ("--n", dict(type=int, required=required)),
        ("--m", dict(type=int, required=required)),
        ("--a", dict(type=_rational_arg, required=required)),
        ("--b", dict(type=_rational_arg, required=required)),
    )
    for required in (True, False)
)
_SEARCH = (
    *_COMMON,
    *_OPTIONAL_FAMILY,
    ("--poly", dict(help="polynomial JSON file")),
    ("--height-bound", dict(type=int, required=True)),
    ("--denom-exponent", dict(type=int, default=0)),
    ("--pair-budget", dict(type=int, default=None)),
    ("--workers", dict(
        type=_workers_arg,
        default=1,
        help="accepted for compatibility; the search is single-threaded "
        "and this has no effect (must be >= 1)",
    )),
)
_EPSILON = ("--epsilon", dict(type=_rational_arg, default=Fraction(1, 10)))


# name -> (help, arguments, handler), in the order --help lists them
COMMANDS = {
    "validate-poly": (
        "check the trinomial family hypotheses", (*_COMMON, *_FAMILY), cmd_validate_poly
    ),
    "share": ("sharing certificates for a pairs file", (
        *_COMMON,
        *_OPTIONAL_FAMILY,
        ("--poly", dict(help="polynomial JSON file (alternative to --n/--m/--a/--b)")),
        ("--pairs", dict(required=True, help="JSON array of {x, y}")),
    ), cmd_share),
    "trace": ("full proof-chain report on a pairs file", (
        *_COMMON, *_FAMILY, ("--pairs", dict(required=True)), _EPSILON
    ), cmd_trace),
    "subspace": ("evaluate the truncated inequality on points", (
        *_COMMON,
        ("--forms", dict(help="forms JSON file (conjecture mode)")),
        ("--points", dict(help="points JSON file (conjecture mode)")),
        ("--strict", dict(action="store_true", help="reject non-primitive points")),
        ("--corollary", dict(action="store_true", help="two-variable mode")),
        ("--A", dict(type=_rational_arg, default=None)),
        ("--B", dict(type=_rational_arg, default=None)),
        ("--C", dict(type=_rational_arg, default=None)),
        ("--pairs", dict(help="pairs JSON file (corollary mode)")),
        _EPSILON,
    ), cmd_subspace),
    "unit-eq": ("enumerate S-unit equation solutions u+v=1", (
        *_COMMON, ("--bound", dict(type=int, required=True, help="max |ord_p(u)| over S"))
    ), cmd_unit_eq),
    "search-shared": (
        "hash-join search for sharing pairs in a box", _SEARCH, cmd_search_shared
    ),
    "search-su": ("search pairs with P(x) = c*P(y), x != y", (
        *_SEARCH, ("--c", dict(type=_rational_arg, default=Fraction(1)))
    ), cmd_search_su),
}


# argparse's _negative_number_matcher: the only '-'-led tokens it reads as values
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _parse_invoked(argv: list[str]):
    """The namespace of a valid command line, read straight from the COMMANDS
    spec of the command argv[0] names, with no parser built; None for any line
    it cannot read exactly as argparse would, which main then hands to the full
    parser for its help, --version and errors.

    It reads exact long flags only, as `--flag value` or `--flag=value`, a
    separate value led by '-' only where argparse reads a negative number, and
    a store_true flag only bare.  Each occurrence goes through `type`, the last
    wins, and `choices` are checked after `type`; an absent flag gets its
    default, a str default through `type`.  Help, --version, an abbreviated or
    unknown flag, `--`, a leftover token, a bad value or a missing required
    flag gives None.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, arguments, handler = COMMANDS[argv[0]]
    spec = dict(arguments)
    given = {}
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            flag, eq, value = token.partition("=")
            keywords = spec.get(flag)
            if keywords is None:
                return None
            if keywords.get("action") == "store_true":
                if eq:
                    return None
                given[flag] = True
                continue
            if not eq:
                value = next(tokens, "-")
                if value.startswith("-") and not _NEGATIVE_NUMBER.match(value):
                    return None
            given[flag] = value = keywords.get("type", str)(value)
            if value not in keywords.get("choices", (value,)):
                return None
        args = argparse.Namespace(func=handler, command=argv[0])
        for flag, keywords in arguments:
            if flag in given:
                value = given[flag]
            elif keywords.get("required"):
                return None
            elif keywords.get("action") == "store_true":
                value = False
            else:
                value = keywords.get("default")
                if isinstance(value, str):
                    value = keywords.get("type", str)(value)
            setattr(args, flag[2:].replace("-", "_"), value)
        return args
    except (argparse.ArgumentTypeError, TypeError, ValueError):  # from a type, as argparse
        return None


def build_parser() -> argparse.ArgumentParser:
    """The full parser, with all seven commands and their arguments, for
    help, --version and usage errors: main builds it only for a command line
    that _parse_invoked cannot read.  Help wraps at the width argparse reads
    itself, from COLUMNS or the terminal, less 2.
    """
    parser = argparse.ArgumentParser(
        prog="urskit",
        description=(
            "Exact S-unit sharing, heights, truncated counting functions, and "
            "unique-range-set experiments over Q"
        ),
    )
    parser.add_argument("--version", action="version", version=f"urskit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, handler) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            command.add_argument(flag, **keywords)
        command.set_defaults(func=handler, command=name)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_invoked(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except (FactoringBudgetError, SearchBudgetError) as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
