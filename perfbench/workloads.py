"""Seeded inputs, ops and output checks for the benchmark workloads.

A workload is a stream of rounds of ops.  The *shape* of each op -- which
request, basis pair, degree, subset size or group -- comes from a fixed plan
that is part of the workload's definition and the same for every seed.  The
seed draws everything inside a shape: the composition, nu for the Pi basis,
labels, subsets and rational coefficients, and the order of the ops in each
round.  Op costs span four orders of magnitude (0.1 ms to 3 s on the same
workload), so drawing the shapes from the seed would let the seed, not the
program, decide the timings.

One op is one unit of work handed to hopfscf's public API; `execute` runs it
and returns its raw output, and `check` verifies that output by an
independent route after the timed phase.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from hopfscf import charmap, cli, groupscf, nsym, qsym
from hopfscf.charmap import CHI_DOT, KAPPA, ScfElem
from hopfscf.compositions import Composition, SubsetLabel
from hopfscf.groupscf import GroupSpec
from hopfscf.scalars import parse_scalar


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple  # exactly what the op hands to hopfscf
    key: tuple  # (request, basis pair or group, degree, nu): for the repeat share
    degree: int
    group_order: int | None = None


# ---------------------------------------------------------------------------
# Plans and instances


def _members(rng: random.Random, ambient: int, size: int) -> tuple[int, ...]:
    """A seeded subset of [ambient - 1] with the given size."""
    return tuple(sorted(rng.sample(range(1, ambient), size)))


def _random_members(rng: random.Random, ambient: int) -> tuple[int, ...]:
    """A uniformly random subset of [ambient - 1]."""
    return tuple(i for i in range(1, ambient) if rng.getrandbits(1))


def _parts(n: int, members: tuple[int, ...]) -> tuple[int, ...]:
    """The composition of n with partial sums at the members."""
    points = (0,) + members + (n,)
    return tuple(b - a for a, b in zip(points, points[1:]))


def _literal(members) -> str:
    return "{" + ",".join(map(str, members)) + "}"


# expand_mix: what a CLI user runs.  Degrees are skewed small; compositions are
# uniform, so the subset size follows a binomial law.
QSYM_PAIRS = [("qsym", a, b) for a in qsym.BASES for b in qsym.BASES if a != b]
NSYM_PAIRS = [("nsym", a, b) for a in nsym.BASES for b in nsym.BASES if a != b]
EXPAND_DEGREES = tuple(range(1, 10))
EXPAND_DEGREE_WEIGHTS = tuple(10 - n for n in EXPAND_DEGREES)
PI_NUS = (2, 3, 5)
STRUCTCONST_SHARE = 0.1
STRUCTCONST_MAX_K = 7
# share of requests that ask for machine output (--json / --csv) over a table
MACHINE_OUTPUT_SHARE = 0.75


def _expand_shape(rng: random.Random) -> tuple:
    machine = rng.random() < MACHINE_OUTPUT_SHARE
    if rng.random() < STRUCTCONST_SHARE:
        return ("structconst", rng.randint(1, STRUCTCONST_MAX_K), machine)
    algebra, src, tgt = rng.choice(QSYM_PAIRS + NSYM_PAIRS)
    n = rng.choices(EXPAND_DEGREES, weights=EXPAND_DEGREE_WEIGHTS)[0]
    size = sum(rng.getrandbits(1) for _ in range(n - 1))
    return ("expand", algebra, src, tgt, n, size, machine)


def _expand_op(shape: tuple, rng: random.Random) -> Op:
    if shape[0] == "structconst":
        _, k, csv_out = shape
        K = _members(rng, k, rng.randint(0, k - 1))
        argv = ["structconst", "--k", str(k), "--K", _literal(K)]
        if csv_out:
            argv.append("--csv")
        return Op("structconst", (argv, k, K, csv_out), ("structconst", k), k)
    _, algebra, src, tgt, n, size, json_out = shape
    parts = _parts(n, _members(rng, n, size))
    nu = rng.choice(PI_NUS) if "Pi" in (src, tgt) else None
    argv = ["expand", "--elem", f"{src}:({','.join(map(str, parts))})", "--to", tgt]
    if nu is not None:
        argv += ["--nu", str(nu)]
    if json_out:
        argv.append("--json")
    return Op("expand", (argv, algebra, src, tgt, parts, nu, json_out), (src, tgt, n, nu), n)


# ch_diagrams: the Hopf isomorphism on random sparse rational combinations.
CH_TOP_DEGREE = {2: 6, 3: 5}
CH_PRODUCT_SHARE = 0.75
CH_MAX_TERMS = 3


def _ch_terms(rng: random.Random, degree: int) -> tuple:
    """(tag, label size) of 1 to CH_MAX_TERMS terms; labels are uniform subsets."""
    return tuple(
        (rng.choice((KAPPA, CHI_DOT)), sum(rng.getrandbits(1) for _ in range(degree - 1)))
        for _ in range(rng.randint(1, CH_MAX_TERMS))
    )


def _ch_shape(rng: random.Random) -> tuple:
    nu = rng.choice(sorted(CH_TOP_DEGREE))
    top = CH_TOP_DEGREE[nu]
    if rng.random() < CH_PRODUCT_SHARE:
        m, n = rng.choice([(m, t - m) for t in range(1, top + 1) for m in range(t + 1)])
        return ("product", nu, m, n, _ch_terms(rng, m), _ch_terms(rng, n))
    n = rng.randint(1, top)
    return ("coproduct", nu, n, _ch_terms(rng, n))


def _scf(rng: random.Random, nu: int, degree: int, terms: tuple) -> ScfElem:
    """A rational combination with the given (tag, label size) terms."""
    out = {}
    for tag, size in terms:
        label = SubsetLabel.of(degree, _members(rng, degree, size))
        num = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
        out[(degree, tag, label)] = Fraction(num, rng.randint(1, 4))
    return ScfElem(nu, out)


def _ch_op(shape: tuple, rng: random.Random) -> Op:
    if shape[0] == "product":
        _, nu, m, n, tx, ty = shape
        args = (nu, m, n, _scf(rng, nu, m, tx), _scf(rng, nu, n, ty))
        return Op("product", args, ("product", nu, m, n), m + n, nu ** max(m + n - 1, 0))
    _, nu, n, tx = shape
    args = (nu, n, _scf(rng, nu, n, tx))
    return Op("coproduct", args, ("coproduct", nu, n), n, nu ** max(n - 1, 0))


# dense_group: the group side alone.  Axiom requests run every degree up to d,
# so their cost grows like (number of subsets)^2 * group order; the pool stops
# where one request takes about two seconds.
AXIOM_DEGREES = {2: range(2, 8), 3: range(2, 7), 5: range(2, 5), 7: range(2, 4)}
AXIOM_SHARE = 0.1
KAPPA_TOP_DEGREE = {2: 8, 3: 6, 5: 4}


def _dense_shape(rng: random.Random) -> tuple:
    if rng.random() < AXIOM_SHARE:
        nu = rng.choice(sorted(AXIOM_DEGREES))
        return ("axioms", nu, rng.choice(AXIOM_DEGREES[nu]), rng.random() < MACHINE_OUTPUT_SHARE)
    nu = rng.choice(sorted(KAPPA_TOP_DEGREE))
    top = KAPPA_TOP_DEGREE[nu]
    m, n = rng.choice([(m, t - m) for t in range(1, top + 1) for m in range(t + 1)])
    return ("kappa", nu, m, n)


def _dense_op(shape: tuple, rng: random.Random) -> Op:
    if shape[0] == "axioms":
        _, nu, d, json_out = shape
        argv = ["verify", "--suite", "group-axioms", "--nu", str(nu), "--max-degree", str(d)]
        if json_out:
            argv.append("--json")
        return Op("axioms", (argv, nu, d), ("axioms", nu, d), d, nu ** max(d - 1, 0))
    _, nu, m, n = shape
    args = (nu, m, n, _random_members(rng, m), _random_members(rng, n))
    return Op("kappa", args, ("kappa", nu, m, n), m + n, nu ** max(m + n - 1, 0))


# name -> (ops per round, shape planner, instance drawer)
PLANS = {
    "expand_mix": (100, _expand_shape, _expand_op),
    "ch_diagrams": (50, _ch_shape, _ch_op),
    "dense_group": (40, _dense_shape, _dense_op),
}


def generate(name: str, seed: int, rounds: int) -> list[list[Op]]:
    """The first `rounds` rounds of the workload's op stream for `seed`."""
    size, plan, draw = PLANS[name]
    out = []
    for r in range(rounds):
        shape_rng = random.Random(f"plan:{name}:{r}")
        rng = random.Random(f"inputs:{name}:{seed}:{r}")
        ops = [draw(plan(shape_rng), rng) for _ in range(size)]
        rng.shuffle(ops)
        out.append(ops)
    return out


def digest(rounds: list[list[Op]]) -> str:
    h = hashlib.sha256()
    for ops in rounds:
        for op in ops:
            h.update(repr((op.kind, op.args)).encode())
    return h.hexdigest()[:16]


def input_properties(ops: list[Op]) -> dict:
    """Properties of the ops a run attempted that a later change may key on."""
    seen = set()
    repeats = 0
    for op in ops:
        repeats += op.key in seen
        seen.add(op.key)
    orders = Counter(op.group_order for op in ops if op.group_order is not None)
    return {
        "degree_histogram": dict(sorted(Counter(op.degree for op in ops).items())),
        "group_orders": dict(sorted(orders.items())),
        "repeat_share": round(repeats / len(ops), 4) if ops else 0.0,
        "ops_by_kind": dict(sorted(Counter(op.kind for op in ops).items())),
    }


# ---------------------------------------------------------------------------
# Execution


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = cli.main(argv)
    return status, out.getvalue()


def _product_sides(nu, m, n, x, y):
    """ch(m(x, y)) through the dense group side, and ch(x) ch(y) in QSym."""
    dense = groupscf.product_m(x.to_dense(m), y.to_dense(n), m, n)
    lhs = charmap.ch(ScfElem.from_dense(dense, m + n))
    rhs = qsym.product(charmap.ch(x), charmap.ch(y))
    return lhs, rhs


def _coproduct_sides(nu, n, x):
    """(ch x ch)(delta x) through the dense group side, and Delta(ch x) in QSym."""
    acc = {}
    for k, pairs in groupscf.coproduct(x.to_dense(n), n).items():
        for left, right in pairs:
            ch_left = charmap.ch(ScfElem.from_dense(left, k))
            ch_right = charmap.ch(ScfElem.from_dense(right, n - k))
            for ca, va in ch_left.terms.items():
                for cb, vb in ch_right.terms.items():
                    term = va * vb
                    acc[(ca, cb)] = acc[(ca, cb)] + term if (ca, cb) in acc else term
    lhs = qsym.QSymTensor(("M", "M"), acc)
    return lhs, qsym.coproduct(charmap.ch(x))


def _kappa_product(nu, m, n, I, J):
    phi = groupscf.kappa(GroupSpec.standard(nu, m), I)
    psi = groupscf.kappa(GroupSpec.standard(nu, n), J)
    return groupscf.expand_kappa(groupscf.product_m(phi, psi, m, n))


def execute(op: Op):
    """Run one op through hopfscf and return its raw output."""
    if op.kind in ("expand", "structconst", "axioms"):
        return _run_cli(op.args[0])
    if op.kind == "product":
        return _product_sides(*op.args)
    if op.kind == "coproduct":
        return _coproduct_sides(*op.args)
    if op.kind == "kappa":
        return _kappa_product(*op.args)
    raise ValueError(f"unknown op kind {op.kind!r}")


# ---------------------------------------------------------------------------
# Checks: each returns None when the output is right, else a reason.


def _canonical(text: str) -> str | None:
    again = str(parse_scalar(text))
    return None if again == text else f"coefficient {text!r} prints back as {again!r}"


def _table_rows(text: str, skip: int, columns: int) -> list[list[str]]:
    """Rows of cli's aligned table; the last column may contain spaces."""
    return [line.split(None, columns - 1) for line in text.splitlines()[skip:]]


def _check_expand(op: Op, output) -> str | None:
    status, text = output
    if status != 0:
        return f"exit status {status}"
    _, algebra, src, tgt, parts, nu, json_out = op.args
    if json_out:
        payload = json.loads(text)
        if payload["basis"] != tgt or payload.get("nu") != (nu if tgt == "Pi" else None):
            return f"response is in basis {payload['basis']} nu={payload.get('nu')}"
        terms = [(tuple(t["comp"]), t["coeff"]) for t in payload["terms"]]
    else:
        # title, header and rule lines come first
        terms = [(tuple(cli.parse_composition(label)), coeff.rstrip())
                 for label, coeff in _table_rows(text, 3, 2)]
    if not terms:
        return "empty expansion"
    coeffs = {}
    for comp, text_coeff in terms:
        bad = _canonical(text_coeff)
        if bad:
            return bad
        coeffs[Composition(comp)] = parse_scalar(text_coeff)
    if algebra == "qsym":
        def nu_of(basis):
            return nu if basis == "Pi" else None

        def convert(x, basis):
            return qsym.convert(x, basis, nu=nu_of(basis))

        response = qsym.QSymElem(tgt, coeffs, nu=nu_of(tgt))
        source = qsym.QSymElem.basis_elem(src, parts, nu=nu_of(src))
        hub = "M"
    else:
        convert = nsym.convert
        response = nsym.NSymElem(tgt, coeffs)
        source = nsym.NSymElem.basis_elem(src, parts)
        hub = "H"
    # Converting a response back to the source basis costs up to 800 times the
    # request, so both sides are compared in the hub basis, whose transitions
    # are separate formulas from the request's.  A response in the hub basis
    # itself is converted back instead.
    if tgt == hub:
        got, want = convert(response, src), source
    else:
        got, want = convert(response, hub), convert(source, hub)
    if set(got.terms) != set(want.terms):
        return f"{tgt} response and {src}{Composition(parts)!r} differ in basis {got.basis}"
    for comp, coeff in want.terms.items():
        if got.terms[comp] != coeff:
            return f"{got.basis}{comp!r}: response gives {got.terms[comp]}, source {coeff}"
    return None


def _structconst_expected(checker: "Checker", k: int, K) -> dict[tuple, object]:
    """The nonzero C^K_IJ for every (m, I, J), from the sweeps."""
    kmask = sum(1 << (i - 1) for i in K)
    out = {}
    for m in range(k + 1):
        n = k - m
        for imask in range(1 << max(m - 1, 0)):
            for jmask in range(1 << max(n - 1, 0)):
                I = SubsetLabel(m, imask).members
                J = SubsetLabel(n, jmask).members
                coeff = checker.sweep(k, m, I, J).get(kmask)
                if coeff is not None and not coeff.is_zero():
                    out[(m, I, J)] = coeff
    return out


def _parse_subset(text: str) -> tuple[int, ...]:
    return tuple(sorted(cli.parse_subset(text)))


def _check_structconst(op: Op, output, checker: "Checker") -> str | None:
    status, text = output
    if status != 0:
        return f"exit status {status}"
    _, k, K, csv_out = op.args
    if csv_out:
        rows = list(csv.reader(io.StringIO(text)))[1:]
    else:
        rows = [[c.rstrip() for c in row] for row in _table_rows(text, 2, 6)]
    got = {}
    for row in rows:
        rk, rK, m, I, J, poly = row
        if int(rk) != k or _parse_subset(rK) != tuple(K):
            return f"row {row} is not for k={k} K={_literal(K)}"
        bad = _canonical(poly)
        if bad:
            return bad
        got[(int(m), _parse_subset(I), _parse_subset(J))] = parse_scalar(poly)
    want = _structconst_expected(checker, k, K)
    if set(got) != set(want):
        return f"rows {sorted(set(got) ^ set(want))[:3]} differ from the sweep"
    for key, value in want.items():
        if got[key] != value:
            return f"C^K_IJ at (m,I,J)={key} is {got[key]}, the sweep gives {value}"
    return None


def _check_sides(op: Op, output) -> str | None:
    lhs, rhs = output
    return None if lhs == rhs else f"{op.kind} diagram does not commute at {op.key}"


def _check_kappa(op: Op, output, checker: "Checker") -> str | None:
    """Criterion 07's bridge: d_K = (nu-1)^{|I|+|J|-|K|} C^K_IJ(-nu, nu-1)."""
    nu, m, n, I, J = op.args
    dense = {frozenset(s): v for s, v in output.items() if v}
    want = {}
    for kmask, poly in checker.sweep(m + n, m, I, J).items():
        K = frozenset(SubsetLabel(m + n, kmask).members)
        value = Fraction(nu - 1) ** (len(I) + len(J) - len(K)) * poly.eval_at(-nu, nu - 1)
        if value:
            want[K] = value
    return None if dense == want else f"kappa product differs from C(-nu,nu-1) at {op.key}"


def _check_axioms(op: Op, output) -> str | None:
    status, text = output
    _, nu, d = op.args
    summary = json.loads(text.splitlines()[-1])
    if summary["checks"] == 0:
        return "verification examined zero checks"
    if summary["checks"] != d + 1:
        return f"expected {d + 1} checks, got {summary['checks']}"
    if status != 0 or not summary["passed"]:
        return f"verification failed: {summary['failures']}"
    return None


class Checker:
    """Checks op outputs after the timed phase; caches the structure-constant
    sweeps that the structconst and kappa checks share."""

    def __init__(self):
        self._sweeps = {}

    def sweep(self, k: int, m: int, I: tuple, J: tuple) -> dict:
        key = (k, m, I, J)
        if key not in self._sweeps:
            self._sweeps[key] = nsym.structure_constants_sweep(k, m, I, J)
        return self._sweeps[key]

    def check(self, op: Op, output) -> str | None:
        if op.kind == "expand":
            return _check_expand(op, output)
        if op.kind == "structconst":
            return _check_structconst(op, output, self)
        if op.kind in ("product", "coproduct"):
            return _check_sides(op, output)
        if op.kind == "kappa":
            return _check_kappa(op, output, self)
        if op.kind == "axioms":
            return _check_axioms(op, output)
        raise ValueError(f"unknown op kind {op.kind!r}")
