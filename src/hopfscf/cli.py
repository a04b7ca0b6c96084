"""Command-line front end: basis expansion, structure-constant tables, verification.

Machine output is JSON (--json) or CSV (--csv); the default is a small aligned
table for reading.  Exit status: 0 on success, 1 on failed verification, 2 on
argument or parse errors, on a degree past the subset-mask bound of 64, and
on a group larger than the enumeration bound.
The env var HOPF_SCF_MAX_GROUP overrides that bound.  `structconst` prints a
fixed-K table from nsym.structure_constants_table, one pass over the selectors
per m.  The argument parser is built on the first main call and shared; main
reads a well-formed request straight from its actions (`_parse`) and leaves
help, abbreviations, --opt=value, repeats and every error to parse_args.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from . import nsym, qsym, verify
from .compositions import AmbientBoundError, Composition, check_ambient, members_of
from .groupscf import GroupBoundError


class CliError(ValueError):
    """User input that cannot be parsed; exits with status 2."""


def parse_composition(text: str) -> Composition:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise CliError(f"composition literal must look like (1,3,2), got {text!r}")
    body = text[1:-1].strip().rstrip(",")
    if not body:
        return Composition()
    try:
        return Composition(int(p) for p in body.split(","))
    except ValueError as exc:
        raise CliError(f"bad composition literal {text!r}: {exc}") from exc


def parse_subset(text: str) -> frozenset[int]:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise CliError(f"subset literal must look like {{1,4}}, got {text!r}")
    body = text[1:-1].strip()
    if not body:
        return frozenset()
    try:
        return frozenset(int(p) for p in body.split(","))
    except ValueError as exc:
        raise CliError(f"bad subset literal {text!r}: {exc}") from exc


def parse_elem(text: str):
    basis, sep, comp_text = text.partition(":")
    if not sep:
        raise CliError(f"element must look like BASIS:(parts), got {text!r}")
    basis = basis.strip()
    comp = parse_composition(comp_text)
    if basis in nsym.BASES:
        return "nsym", basis, comp
    if basis in qsym.BASES:
        return "qsym", basis, comp
    raise CliError(
        f"unknown basis {basis!r}; QSym: {', '.join(qsym.BASES)}; "
        f"NSym: {', '.join(nsym.BASES)}"
    )


def _subset_literal(members) -> str:
    return "{" + ",".join(map(str, members)) + "}"


def _format_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def cmd_expand(args) -> int:
    algebra, basis, comp = parse_elem(args.elem)
    target = args.to.strip()
    if algebra == "nsym" and target not in nsym.BASES:
        raise CliError(f"cannot expand an NSym element in basis {target!r}")
    if algebra == "qsym" and target not in qsym.BASES:
        raise CliError(f"cannot expand a QSym element in basis {target!r}")
    nu = args.nu
    if "Pi" not in (basis, target):
        if nu is not None:
            raise CliError(f"--nu applies only when the --elem basis or --to is Pi, not {basis} to {target}")
    elif nu is None:
        raise CliError("the Pi basis needs --nu")
    elif nu < 2:
        raise CliError(f"the Pi basis needs --nu of at least 2, got {nu}")
    if algebra == "nsym":
        elem = nsym.convert(nsym.NSymElem.basis_elem(basis, comp), target)
    else:
        source = qsym.QSymElem.basis_elem(basis, comp, nu=nu if basis == "Pi" else None)
        elem = qsym.convert(source, target, nu=nu if target == "Pi" else None)
    payload = elem.to_json_dict()
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        # to_json_dict lists the terms in sorted label order
        rows = [[repr(k), t["coeff"]] for k, t in zip(sorted(elem.terms), payload["terms"])]
        title = f"{args.elem} expanded in {target}"
        if payload.get("nu") is not None:
            title += f" (nu={payload['nu']})"
        print(title)
        print(_format_table(["label", "coefficient"], rows))
    return 0


def cmd_structconst(args) -> int:
    k = check_ambient(args.k)  # before [k - 1] is built
    if k < 0:
        raise CliError(f"--k must be nonnegative, got {k}")
    if args.filter_m is not None and not 0 <= args.filter_m <= k:
        raise CliError(f"--filter-m must lie in [0, {k}], got {args.filter_m}")
    K = parse_subset(args.K)
    if not K <= set(range(1, k)):
        raise CliError(f"K={sorted(K)} is not a subset of [{k - 1}]")
    k_text, K_text = str(k), _subset_literal(sorted(K))
    ms = range(k + 1) if args.filter_m is None else (args.filter_m,)
    tables = {str(m): nsym.structure_constants_table(k, K, m) for m in ms}
    masks = {mask for table in tables.values() for pair in table for mask in pair}
    literals = {mask: _subset_literal(members_of(mask)) for mask in masks}  # one literal per mask
    rows = [
        [k_text, K_text, m_text, literals[imask], literals[jmask], str(table[imask, jmask])]
        for m_text, table in tables.items()
        for imask, jmask in sorted(table)
    ]
    header = ["k", "K", "m", "I", "J", "polynomial"]
    if args.csv:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())
    else:
        print(_format_table(header, rows))
    return 0


def cmd_verify(args) -> int:
    name = args.suite
    if name not in verify.SUITES:
        raise CliError(f"unknown suite {name!r}; choose from {', '.join(verify.SUITES)}")
    nus = None
    if args.nu is not None:
        try:
            nus = [int(x) for x in args.nu.split(",")]
        except ValueError as exc:
            raise CliError(f"--nu must be a comma-separated integer list: {exc}") from exc
        if any(nu < 2 for nu in nus):
            raise CliError(f"every --nu must be at least 2, got {args.nu}")
    if args.max_degree is not None and args.max_degree < 0:
        raise CliError(f"--max-degree must be nonnegative, got {args.max_degree}")
    if nus is not None and name not in verify._NU_DEFAULTS:
        raise CliError(f"--nu applies only to the suites {', '.join(verify._NU_DEFAULTS)}, not {name}")
    report = verify.run_suite(name, max_degree=args.max_degree, nus=nus)
    summary = {
        "suite": name,
        "checks": len(report.checks),
        "passed": report.passed,
        "failures": [
            {"check": check, "detail": detail} for check, detail in report.failures()
        ],
    }
    if not args.json:
        for check, passed, detail in report.checks:
            line = f"{'PASS' if passed else 'FAIL'} {check}"
            if not passed and detail:
                line += f": {detail}"
            print(line)
    print(json.dumps(summary, sort_keys=True))
    return 0 if report.passed else 1


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every main call.

    It holds syntax only: main picks the command function by name at each
    call, so the shared parser keeps no reference to a function."""
    parser = argparse.ArgumentParser(
        prog="hopfscf",
        description="Exact QSym/NSym computations over the q,t fraction field.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expand a basis element in another basis")
    p.add_argument("--elem", required=True, help="element literal, e.g. B:(1,2)")
    p.add_argument("--to", required=True, help="target basis tag")
    p.add_argument("--nu", type=int, help="parameter for the Pi basis")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("structconst", help="table of coproduct structure constants")
    p.add_argument("--k", type=int, required=True, help="total degree")
    p.add_argument("--K", required=True, help="subset literal, e.g. {1,2}")
    p.add_argument("--filter-m", type=int, dest="filter_m", help="only rows with this m")
    p.add_argument("--csv", action="store_true", help="CSV output")

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, help=f"one of: {', '.join(verify.SUITES)}")
    p.add_argument("--max-degree", type=int, dest="max_degree", help="degree bound override")
    p.add_argument("--nu", help="comma-separated list of nu values")
    p.add_argument("--json", action="store_true", help="summary only")

    return parser


def _parse(argv=None) -> argparse.Namespace:
    """The Namespace parse_args would build from argv (sys.argv[1:] if None).

    A well-formed request is read straight from the parser's actions: a command,
    then exact option strings of its store and store-const actions, each once
    and followed by its value where it takes one; a value must not start with
    "-" and must pass the option's type, and every required option is given.
    Any other argv goes to parse_args, which owns help and every error."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = commands.choices.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    given, tokens = {}, iter(argv[1:])
    for token in tokens:
        action = command._option_string_actions.get(token)
        if (not isinstance(action, (argparse._StoreAction, argparse._StoreConstAction))
                or action.nargs not in (None, 0) or action.choices is not None or action in given):
            return parser.parse_args(argv)
        if action.nargs == 0:
            given[action] = action.const
            continue
        text = next(tokens, None)
        if text is None or text.startswith("-"):
            return parser.parse_args(argv)
        try:
            given[action] = text if action.type is None else action.type(text)
        except (TypeError, ValueError):
            return parser.parse_args(argv)
    if any(a.required and a not in given for a in command._actions):
        return parser.parse_args(argv)
    return argparse.Namespace(**{commands.dest: argv[0]}, **{
        a.dest: given.get(a, a.default) for a in command._actions
        if argparse.SUPPRESS not in (a.dest, a.default)})


def main(argv=None) -> int:
    args = _parse(argv)
    command = {"expand": cmd_expand, "structconst": cmd_structconst, "verify": cmd_verify}
    try:
        return command[args.command](args)
    except (CliError, AmbientBoundError, GroupBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
