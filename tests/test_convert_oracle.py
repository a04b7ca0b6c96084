"""The Kronecker-factor conversion kernel against the hub routes.

qsym.convert and nsym.convert expand each label by one composed 2x2 factor
per coordinate; convert_oracle keeps the hub routes through M and H that they
replaced.  Both must give the same terms, by value and by the printed string
of every coefficient, on every ordered pair of bases: in QSym with Pi(nu) for
nu = 2, 3 and 5, in NSym over Q(q,t).  The kernel's signature groups, and
the side entries it caches once per transition, source bit and count, are
checked against the per-coordinate products they replaced, and the CLI's
`expand --json` against the hub routes' elements printed term by term.
`Tensor.convert`, one side at a time through the element kernel, is checked
against the per-term route that expands both sides of every pure tensor.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import convert_oracle as oracle
from hopfscf import cli, nsym, qsym
from hopfscf.compositions import (
    Composition,
    SubsetLabel,
    _full_mask,
    comp_of_set,
    compositions_of,
    set_of_comp,
)
from hopfscf.nsym import NSymElem
from hopfscf.qsym import QSymElem
from hopfscf.scalars import ONE, Q, T, ScalarQT, _coeff, rational
from transition_oracle import L_from_pi_entry, pi_from_L_entry

NUS = (2, 3, 5)
MAX_DEGREE = 7
SETTINGS = settings(max_examples=60, deadline=None)

# (basis, nu): Pi once for each nu, every other basis once
QSYM_BASES = [(b, None) for b in qsym.BASES if b != "Pi"] + [("Pi", nu) for nu in NUS]
QSYM_PAIRS = [(s, t) for s in QSYM_BASES for t in QSYM_BASES if s != t]
NSYM_PAIRS = [(s, t) for s in nsym.BASES for t in nsym.BASES if s != t]
LABELS = [c for n in range(MAX_DEGREE + 1) for c in compositions_of(n)]


def assert_same(fast, slow):
    assert type(fast) is type(slow) and fast.basis == slow.basis
    assert getattr(fast, "nu", None) == getattr(slow, "nu", None)
    assert fast.terms == slow.terms
    assert {c: str(v) for c, v in fast.terms.items()} == {
        c: str(v) for c, v in slow.terms.items()
    }


def qsym_pair(src, tgt, x_terms):
    x = QSymElem(src[0], x_terms, nu=src[1])
    return qsym.convert(x, tgt[0], nu=tgt[1]), oracle.qsym_convert(x, tgt[0], nu=tgt[1])


def nsym_pair(src, tgt, x_terms):
    x = NSymElem(src, x_terms)
    return nsym.convert(x, tgt), oracle.nsym_convert(x, tgt)


@pytest.mark.parametrize("src,tgt", QSYM_PAIRS, ids=str)
def test_qsym_pair_on_every_label(src, tgt):
    for comp in LABELS:
        assert_same(*qsym_pair(src, tgt, {comp: ONE}))


@pytest.mark.parametrize("src,tgt", NSYM_PAIRS, ids=str)
def test_nsym_pair_on_every_label(src, tgt):
    for comp in LABELS:
        assert_same(*nsym_pair(src, tgt, {comp: ONE}))


# -- the grouped kernel against the per-coordinate one --------------------------

KERNEL_DEGREE = 8
HUB_FACTORS = {"qsym": qsym._m_factor, "nsym": nsym._h_factor}
KERNEL_PAIRS = [("qsym", s, t) for s, t in QSYM_PAIRS]
KERNEL_PAIRS += [("nsym", (s, None), (t, None)) for s, t in NSYM_PAIRS]


@pytest.mark.parametrize("algebra,src,tgt", KERNEL_PAIRS, ids=str)
def test_grouped_kernel_matches_the_per_coordinate_products(algebra, src, tgt):
    """Every label of degree <= 8: the groups partition the target masks of
    the per-coordinate expansion, and each group's one entry equals every
    product it stands for, by value and by its printed string."""
    hub_factor = HUB_FACTORS[algebra]
    cases = 0
    for n in range(KERNEL_DEGREE + 1):
        for mask in range(_full_mask(n) + 1):
            groups = qsym._expand(hub_factor, *src, *tgt, n, mask)
            slow = oracle.expand_per_coordinate(hub_factor, *src, *tgt, n, mask)
            masks = [m for _, ms in groups for m in ms]
            assert len(masks) == len(set(masks)) and set(masks) == set(slow)
            for entry, ms in groups:
                for m in ms:
                    assert entry == slow[m] and str(entry) == str(slow[m]), (n, mask, m)
                    cases += 1
    assert cases > 0


# -- the side entries, built once per transition, source bit and count ---------

SIDE_COUNT = 8
SIDE_KEYS = [
    (HUB_FACTORS[algebra], *src, *tgt, bit, count)
    for algebra, src, tgt in KERNEL_PAIRS
    for bit in (0, 1)
    for count in range(SIDE_COUNT + 1)
]


def test_side_entries_are_the_per_coordinate_products():
    """Each cached entry is the product of the row's entries over `count`
    coordinates, one at a time, when j of them carry target bit 1; every
    nonzero product has its entry, by value, by type and by printed string."""
    for key in SIDE_KEYS:
        row = dict(qsym._transition(*key[:5])[key[5]])
        count = key[6]
        want = {}
        for j in range(count + 1):
            product = 1
            for i in range(count):
                product = product * row.get(1 if i < j else 0, 0)
            if product:
                want[j] = _coeff(product)
        entries = qsym._side_entries(*key)
        assert [j for j, _ in entries] == sorted(want), key
        for j, entry in entries:
            assert type(entry) is type(want[j]) and entry == want[j], (key, j)
            assert str(ScalarQT.wrap(entry)) == str(ScalarQT.wrap(want[j]))
    assert len(SIDE_KEYS) == 60 * 2 * 9


def side_convert(algebra, src, tgt, terms):
    if algebra == "qsym":
        return qsym.convert(QSymElem(src[0], terms, nu=src[1]), tgt[0], nu=tgt[1])
    return nsym.convert(NSymElem(src[0], terms), tgt[0])


def test_side_entries_are_read_again_and_never_modified():
    """A repeated conversion reads every side entry as a hit, with no new
    miss, and scaling or adding a conversion's output leaves every cached
    entry as it was."""
    # counts up to SIDE_COUNT on both source bits
    terms = {comp_of_set(SubsetLabel(9, 0b10110011)): ONE, comp_of_set(SubsetLabel(5, 0b0110)): Q}
    for key in SIDE_KEYS:
        qsym._side_entries(*key)
    def printed_entries():
        return {key: [(j, str(ScalarQT.wrap(e))) for j, e in qsym._side_entries(*key)] for key in SIDE_KEYS}

    before = printed_entries()
    for algebra, src, tgt in KERNEL_PAIRS:
        first = side_convert(algebra, src, tgt, terms)
        info = qsym._side_entries.cache_info()
        again = side_convert(algebra, src, tgt, terms)
        after = qsym._side_entries.cache_info()
        assert after.misses == info.misses and after.hits == info.hits + 2 * len(terms)
        assert_same(again, first)
        for out in (first.scale(Q), first + again, first - again, first.scale(Fraction(-3, 2)) + first):
            assert out.basis == first.basis
    assert printed_entries() == before
    assert isinstance(qsym._side_entries.cache_info().maxsize, int)


# -- CLI output past the repr guard's degree 4 ---------------------------------

CLI_PAIRS = [("qsym", s, t) for s in qsym.BASES for t in qsym.BASES if s != t]
CLI_PAIRS += [("nsym", s, t) for s in nsym.BASES for t in nsym.BASES if s != t]


def cli_cases(seed: int = 0):
    """Two seeded labels per degree 5, 6 and 7 for each of the 42 basis pairs,
    and for each nu of a pair that names Pi."""
    rng = random.Random(seed)
    for algebra, src, tgt in CLI_PAIRS:
        for nu in NUS if "Pi" in (src, tgt) else (None,):
            for n in (5, 6, 7, 5, 6, 7):
                yield algebra, src, tgt, nu, comp_of_set(SubsetLabel(n, rng.getrandbits(n - 1)))


def printed(elem) -> str:
    """The expected `expand --json` line, every coefficient printed on its own."""
    terms = [{"comp": list(k), "coeff": str(ScalarQT.wrap(elem.terms[k]))} for k in sorted(elem.terms)]
    payload = {"basis": elem.basis, "terms": terms}
    if getattr(elem, "nu", None) is not None:
        payload["nu"] = elem.nu
    return json.dumps(payload, sort_keys=True) + "\n"


def test_cli_expand_json_is_the_hub_routes_output(capsys):
    cases = 0
    for algebra, src, tgt, nu, comp in cli_cases():
        argv = ["expand", "--elem", f"{src}:({','.join(map(str, comp))})", "--to", tgt, "--json"]
        if algebra == "qsym":
            argv += [] if nu is None else ["--nu", str(nu)]
            x = QSymElem(src, {comp: ONE}, nu=nu if src == "Pi" else None)
            slow = oracle.qsym_convert(x, tgt, nu=nu if tgt == "Pi" else None)
        else:
            slow = oracle.nsym_convert(NSymElem(src, {comp: ONE}), tgt)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == printed(slow), argv
        cases += 1
    assert cases == 6 * (6 * 3 + 6 + 30)


# -- random mixed-degree, multi-term inputs -----------------------------------

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
monomials = st.builds(
    lambda c, a, b: rational(c) * Q**a * T**b, rationals, st.integers(-2, 2), st.integers(-2, 2)
)
scalars = st.lists(monomials, min_size=1, max_size=3).map(lambda ms: sum(ms, rational(0)))


@st.composite
def labels(draw):
    n = draw(st.integers(0, 6))
    return comp_of_set(SubsetLabel(n, draw(st.integers(0, _full_mask(n)))))


term_dicts = st.dictionaries(labels(), scalars, min_size=1, max_size=6)


@SETTINGS
@given(st.sampled_from(QSYM_PAIRS), term_dicts)
def test_qsym_random_sums(pair, terms):
    assert_same(*qsym_pair(*pair, terms))


@SETTINGS
@given(st.sampled_from(NSYM_PAIRS), term_dicts)
# the kernel's t * 1/(2t) must be stored as the Fraction 1/2, as the hub route stores it
@example(("Bhat", "H"), {Composition((2,)): ScalarQT({(0, -1): Fraction(1, 2)})})
def test_nsym_random_sums(pair, terms):
    assert_same(*nsym_pair(*pair, terms))


# -- tensor squares: one side at a time against the per-term route -------------

TENSOR_SIDES = {qsym.QSymTensor: [b for b in qsym.BASES if b != "Pi"], nsym.NSymTensor: nsym.BASES}
TENSOR_CASES = [(tensor, (s, t)) for tensor, sides in TENSOR_SIDES.items() for s in sides for t in sides]
# a multi-term denominator makes a true quotient, not a Laurent polynomial
quotients = st.builds(lambda c, d: c / d, scalars, st.sampled_from([Q + T, 1 + Q, Q - 2 * T]))
small_labels = st.integers(0, 4).flatmap(
    lambda n: st.integers(0, _full_mask(n)).map(lambda m: comp_of_set(SubsetLabel(n, m)))
)


@pytest.mark.parametrize("tensor,bases", TENSOR_CASES, ids=str)
@settings(max_examples=8, deadline=None)
@given(st.data())
def test_tensor_convert_is_the_per_term_route(tensor, bases, data):
    """Every ordered pair of side bases as the target, from a random source
    pair, on multi-term tensors whose coefficients hold q, t and quotients;
    the operand is left as it was."""
    sides = TENSOR_SIDES[tensor]
    source = data.draw(st.tuples(st.sampled_from(sides), st.sampled_from(sides)))
    pairs = st.tuples(small_labels, small_labels)
    laurent = data.draw(st.booleans())
    coeffs = (scalars if laurent else st.one_of(scalars, quotients)).filter(bool)
    x = tensor(source, data.draw(st.dictionaries(pairs, coeffs, min_size=2, max_size=5)))
    before = dict(x.terms)
    fast, slow = x.convert(bases), oracle.tensor_convert(x, bases)
    assert x.terms == before and x.bases == source
    assert type(fast) is tensor and fast.bases == slow.bases == bases
    assert fast.terms == slow.terms
    if laurent:  # a quotient's printed form depends on the order of its sums
        assert {k: str(v) for k, v in fast.terms.items()} == {k: str(v) for k, v in slow.terms.items()}


# -- the composed factors -----------------------------------------------------


def factor_matrix(factor):
    return [[dict(row).get(k, 0) for k in (0, 1)] for row in factor]


def test_composed_factors_are_exact_and_invert():
    cases = [(qsym._m_factor, s, t, (int, Fraction)) for s, t in QSYM_PAIRS]
    cases += [(nsym._h_factor, (s, None), (t, None), (int, ScalarQT)) for s, t in NSYM_PAIRS]
    for hub_factor, (s, snu), (t, tnu), ring in cases:
        there = qsym._transition(hub_factor, s, snu, t, tnu)
        back = qsym._transition(hub_factor, t, tnu, s, snu)
        # a constant entry is an int or a Fraction, never a ScalarQT
        assert all(type(e) in ring and _coeff(e) is e for row in there for _, e in row)
        assert all(e.denominator > 1 for row in there for _, e in row if type(e) is Fraction)
        a, b = factor_matrix(there), factor_matrix(back)
        product = [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in (0, 1)] for i in (0, 1)]
        assert product == [[1, 0], [0, 1]], (s, snu, t, tnu)
    assert len(cases) == 60 and len(LABELS) == 128
    assert isinstance(qsym._transition.cache_info().maxsize, int)


# -- edges and reach ----------------------------------------------------------


def test_degrees_0_and_1_give_the_unit():
    cases = 0
    for comp in ((), (1,)):
        for src, tgt in QSYM_PAIRS:
            fast, slow = qsym_pair(src, tgt, {comp: ONE})
            assert fast.terms == {comp: ONE} and str(fast.terms[comp]) == "1"
            assert_same(fast, slow)
            cases += 1
        for src, tgt in NSYM_PAIRS:
            fast, slow = nsym_pair(src, tgt, {comp: ONE})
            assert fast.terms == {comp: ONE} and str(fast.terms[comp]) == "1"
            assert_same(fast, slow)
            cases += 1
    assert cases == 120


def test_b_to_bhat_at_degree_20_is_one_term():
    out = nsym.convert(nsym.B((1,) * 20), "Bhat")
    assert out.basis == "Bhat" and out.terms == {(20,): ONE}
    back = nsym.convert(nsym.Bhat((20,)), "B")
    assert back.terms == {(1,) * 20: ONE}


def test_pi_reach_at_degree_12():
    """At n = 12 and nu = 3.  A literal L -> Pi -> L round trip of one label
    multiplies 2^11 rows of 2^11 terms; instead, L -> Pi and Pi -> L are
    checked entry by entry against the pi_from_L_entry and L_from_pi_entry
    displays (mutually inverse by transition_oracle's inverse checks), and M -> Pi
    -> M, whose rows are sparse, round-trips every label with |I| <= 2."""
    n, nu = 12, 3
    imask = 0b10100110001
    to_pi = qsym.convert(qsym.L(comp_of_set(SubsetLabel(n, imask))), "Pi", nu)
    assert len(to_pi.terms) == 1 << (n - 1)
    for comp, coeff in to_pi.terms.items():
        assert coeff == rational(pi_from_L_entry(n, imask, set_of_comp(comp).mask, nu))
    to_l = qsym.convert(qsym.Pi(comp_of_set(SubsetLabel(n, imask)), nu), "L")
    assert len(to_l.terms) == 1 << (n - 1)
    for comp, coeff in to_l.terms.items():
        assert coeff == rational(L_from_pi_entry(n, imask, set_of_comp(comp).mask, nu))
    cases = 0
    for mask in range(1 << (n - 1)):
        if mask.bit_count() <= 2:
            x = qsym.M(comp_of_set(SubsetLabel(n, mask)))
            back = qsym.convert(qsym.convert(x, "Pi", nu), "M")
            assert back.terms == x.terms
            cases += 1
    assert cases == 1 + 11 + 55
