"""The full parser is the oracle for the fast path: every command line that
`cli.main` reads straight from the invoked command's `COMMANDS` spec, with no
parser built, in any test, must give the namespace
`build_parser().parse_args(argv)` gives.  A test that counts the parsers main
builds opts out with the `no_parse_oracle` mark."""

import pytest

from urskit import cli

BUILD_PARSER = cli.build_parser
PARSE_INVOKED = cli._parse_invoked


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "no_parse_oracle: do not check main's fast path against the full parser"
    )


@pytest.fixture(autouse=True)
def parse_oracle(request, monkeypatch):
    if request.node.get_closest_marker("no_parse_oracle"):
        return

    def checked(argv):
        args = PARSE_INVOKED(argv)
        if args is not None:
            try:
                expected = BUILD_PARSER().parse_args(argv)
            except SystemExit:
                pytest.fail(f"the full parser rejects {argv}")
            assert vars(args) == vars(expected), argv
        return args

    monkeypatch.setattr(cli, "_parse_invoked", checked)
