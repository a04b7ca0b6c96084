"""The CLI's usage text, argparse error text and exit codes stay the same.

The test hashes the `--help` output of the top level and of each command, and
holds the stderr and exit code of a fixed list of malformed requests that
argparse refuses.  Help and usage lines wrap at the terminal width, so every
case runs with COLUMNS=80.  The entries were recorded with `main` calling
`build_parser().parse_args(argv)` for every argv, so a change to how argv is
read that alters what a user sees shows up here.

Print the current table with `python tests/test_cli_usage_guard.py`.
"""

import contextlib
import hashlib
import io
import os

import pytest

from hopfscf import cli

HELP = ("--help", "expand --help", "structconst --help", "verify --help")

ERRORS = (
    "expand --to H",
    "expand --elem B:(1,2) --to Pi --nu 2.5",
    "expand --elem B:(1,2) --to H --bogus",
    "bogus --elem B:(1,2)",
    "",
)


def run(line: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `hopfscf LINE`, argv split on spaces."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(line.split())
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def help_digest(line: str) -> str:
    code, out, err = run(line)
    assert (code, err) == (0, ""), line
    return hashlib.sha256(out.encode()).hexdigest()


HELP_DIGESTS = {
    '--help': '2437422048165f73a0cee1778ce39abc69cad5c986be296df25b805572272395',
    'expand --help': 'ee3e04074236be09fffc581b3092534a5f1eeb0a8ce6074cfed8aa296d365a14',
    'structconst --help': '6724c58a5cb22152fdebd65b513b4524ef4c154a352a487c5eb0587cf650f840',
    'verify --help': '8420d777d920908fe61f0101977142d7f45d5fe7517e7200600397c4df3c9934',
}

EXPAND_USAGE = "usage: hopfscf expand [-h] --elem ELEM --to TO [--nu NU] [--json]\n"
TOP_USAGE = "usage: hopfscf [-h] {expand,structconst,verify} ...\n"

ERROR_OUTPUTS = {
    'expand --to H':
        EXPAND_USAGE + "hopfscf expand: error: the following arguments are required: --elem\n",
    'expand --elem B:(1,2) --to Pi --nu 2.5':
        EXPAND_USAGE + "hopfscf expand: error: argument --nu: invalid int value: '2.5'\n",
    'expand --elem B:(1,2) --to H --bogus':
        TOP_USAGE + "hopfscf: error: unrecognized arguments: --bogus\n",
    'bogus --elem B:(1,2)':
        TOP_USAGE + "hopfscf: error: argument command: invalid choice: 'bogus' "
        "(choose from 'expand', 'structconst', 'verify')\n",
    '':
        TOP_USAGE + "hopfscf: error: the following arguments are required: command\n",
}


@pytest.fixture(autouse=True)
def eighty_columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def test_every_case_is_recorded():
    assert set(HELP_DIGESTS) == set(HELP)
    assert set(ERROR_OUTPUTS) == set(ERRORS)


@pytest.mark.parametrize("line", HELP)
def test_help_unchanged(line):
    assert help_digest(line) == HELP_DIGESTS[line]


@pytest.mark.parametrize("line", ERRORS)
def test_argparse_errors_unchanged(line):
    assert run(line) == (2, "", ERROR_OUTPUTS[line])


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    for line in HELP:
        print(f"    {line!r}: {help_digest(line)!r},")
    for line in ERRORS:
        code, out, err = run(line)
        assert (code, out) == (2, ""), line
        print(f"    {line!r}: {err!r},")
