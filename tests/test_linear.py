"""Module laws of the one linear-combination core, over every element class.

Each class draws elements in random bases (and nu, for Pi and the superclass
functions) with a few terms of degree at most 3.  The laws: `+` commutes and
associates, `x - x` is zero, `scale` distributes over both sums, a scalar
multiplies from either side, `==` and `+` across bases meet in the hub, and
`+`, `-` and `scale` leave both operands' terms as they were.  `convert` hands
back its argument itself when the basis already matches, so an accumulator
writing into an operand's dict would show up as a changed operand here.

The same draws, which are multi-term, check that every product is bilinear
and that every coproduct, antipode, basis change and algebra map is linear:
each is a rule on basis labels extended by `linear.extend` or
`linear.extend2`, whose own contract is tested on plain dicts at the end.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fqsym_oracle as fqsym
from fqsym_oracle import FQSymElem
from hopfscf import nsym, qsym
from hopfscf.charmap import CHI_DOT, KAPPA, ScfElem
from hopfscf.compositions import SubsetLabel, _full_mask, comp_of_set
from hopfscf.linear import LinComb, extend, extend2, tensor_terms
from hopfscf.nsym import NSymElem, NSymTensor
from hopfscf.qsym import QSymElem, QSymTensor
from hopfscf.scalars import Q, T, _coeff, rational
from hopfscf.symring import Partition, SymElem, comm

from test_coefficient_types import off_normal_form

SETTINGS = settings(max_examples=40, deadline=None)
MAX_DEGREE = 3

QSYM_TAGS = [("M", None), ("L", None), ("E", None), ("Pi", 2), ("Pi", 3)]
QSYM_SIDES = ["M", "L", "E"]
PERMUTATIONS = [p for n in range(MAX_DEGREE + 1) for p in itertools.permutations(range(1, n + 1))]

fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
monomials = st.builds(
    lambda c, a, b: rational(c) * Q**a * T**b, fractions, st.integers(-1, 2), st.integers(-1, 2)
)
scalars = st.lists(monomials, min_size=1, max_size=2).map(lambda ms: sum(ms, rational(0)))


@st.composite
def subsets(draw):
    n = draw(st.integers(0, MAX_DEGREE))
    return SubsetLabel(n, draw(st.integers(0, _full_mask(n))))


compositions = subsets().map(comp_of_set)
partitions = compositions.map(Partition)


def terms(keys, coeffs=scalars):
    return st.dictionaries(keys, coeffs, max_size=3)


# kind -> (strategy of one element given the shared draw, recast into another basis)


def qsym_elem(draw, shared):
    basis, nu = draw(st.sampled_from(QSYM_TAGS))
    return QSymElem(basis, draw(terms(compositions)), nu=nu)


def qsym_recast(draw, x, shared):
    basis, nu = draw(st.sampled_from(QSYM_TAGS))
    return qsym.convert(x, basis, nu=nu)


def nsym_elem(draw, shared):
    return NSymElem(draw(st.sampled_from(nsym.BASES)), draw(terms(compositions)))


def nsym_recast(draw, x, shared):
    return nsym.convert(x, draw(st.sampled_from(nsym.BASES)))


def tensor_elem(cls, sides):
    def elem(draw, shared):
        bases = draw(st.tuples(st.sampled_from(sides), st.sampled_from(sides)))
        return cls(bases, draw(terms(st.tuples(compositions, compositions))))

    def recast(draw, x, shared):
        return x.convert(draw(st.tuples(st.sampled_from(sides), st.sampled_from(sides))))

    return elem, recast


def sym_elem(draw, shared):
    return SymElem(draw(terms(partitions)))


def fqsym_elem(draw, shared):
    return FQSymElem(draw(terms(st.sampled_from(PERMUTATIONS))))


@st.composite
def scf_keys(draw):
    label = draw(subsets())
    return (label.ambient, draw(st.sampled_from((KAPPA, CHI_DOT))), label)


def scf_elem(draw, shared):
    return ScfElem(shared, draw(terms(scf_keys(), fractions)))


def same(draw, x, shared):
    return x


KINDS = {
    "qsym": (qsym_elem, qsym_recast, scalars),
    "nsym": (nsym_elem, nsym_recast, scalars),
    "qsym_tensor": (*tensor_elem(QSymTensor, QSYM_SIDES), scalars),
    "nsym_tensor": (*tensor_elem(NSymTensor, nsym.BASES), scalars),
    "sym": (sym_elem, same, scalars),
    "fqsym": (fqsym_elem, same, scalars),
    "scf": (scf_elem, same, fractions),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
@SETTINGS
@given(data=st.data())
def test_module_laws(kind, data):
    elem, recast, coeffs = KINDS[kind]
    draw = data.draw
    shared = draw(st.sampled_from((2, 3)))  # one nu for all superclass functions
    x, y, z = (elem(draw, shared) for _ in range(3))
    a, b = draw(coeffs), draw(coeffs)
    before = [dict(v.terms) for v in (x, y, z)]

    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert (x - x).is_zero() and (x - y) + y == x
    assert (x + y).scale(a) == x.scale(a) + y.scale(a)
    assert x.scale(a + b) == x.scale(a) + x.scale(b)
    assert x.scale(a) == x * a and x.scale(2) == 2 * x
    assert a * x == x * a

    # across bases, == and + meet in the hub
    x2 = recast(draw, x, shared)
    assert x2 == x and x == x2
    assert x2 + y == x + y
    if not y.is_zero():
        assert x2 != x + y

    assert [dict(v.terms) for v in (x, y, z)] == before


def test_nu_mismatch_refused():
    with pytest.raises(ValueError):
        ScfElem.kappa(2, 3, {1}) + ScfElem.kappa(3, 3, {1})
    assert ScfElem.kappa(2, 3, {1}) != ScfElem.kappa(3, 3, {1})


def test_classes_do_not_mix():
    assert QSymTensor(("M", "M")) != NSymTensor(("H", "H"))
    with pytest.raises(TypeError):
        QSymTensor(("M", "M")) + NSymTensor(("H", "H"))


def test_same_basis_equality_converts_nothing(monkeypatch):
    x, y = (NSymElem("B", {(1, 2): Q, (3,): 1}), NSymElem("B", {(3,): 1, (1, 2): Q}))
    z = NSymElem("B", {(1, 2): T, (3,): 1})
    pair = ((1,), (2,))
    tx, ty = (NSymTensor(("B", "B"), {pair: Q + T}), NSymTensor(("B", "B"), {pair: T + Q}))
    tz = NSymTensor(("B", "B"), {pair: Q})

    def refuse(*args):
        raise AssertionError("a same-basis == converted")

    monkeypatch.setattr(nsym, "convert", refuse)
    monkeypatch.setattr(qsym.Tensor, "convert", refuse)
    assert x == y and x != z
    assert tx == ty and tx != tz


# products, and linear maps: kind -> (its drawn elements, the map given a draw)


def mul(x, y):
    return x * y


PRODUCTS = {
    "qsym": mul,
    "nsym": mul,
    "sym": mul,
    "fqsym": mul,
    "qsym_tensor": QSymTensor.product,
    "nsym_tensor": NSymTensor.product,
}


class WordPairs(LinComb):
    """fqsym.coproduct's dict of word pairs, as a linear combination."""

    __slots__ = ()
    _key = staticmethod(tuple)


def fixed(f):
    return lambda draw: f


def qsym_convert(draw):
    basis, nu = draw(st.sampled_from(QSYM_TAGS))
    return lambda x: qsym.convert(x, basis, nu=nu)


def nsym_convert(draw):
    basis = draw(st.sampled_from(nsym.BASES))
    return lambda x: nsym.convert(x, basis)


def tensor_convert(sides):
    def make(draw):
        bases = draw(st.tuples(st.sampled_from(sides), st.sampled_from(sides)))
        return lambda x: x.convert(bases)

    return make


LINEAR_MAPS = {
    "qsym.coproduct": ("qsym", fixed(qsym.coproduct)),
    "qsym.antipode": ("qsym", fixed(qsym.antipode)),
    "qsym.convert": ("qsym", qsym_convert),
    "nsym.coproduct": ("nsym", fixed(nsym.coproduct)),
    "nsym.omega": ("nsym", fixed(nsym.omega)),
    "nsym.convert": ("nsym", nsym_convert),
    "symring.comm": ("nsym", fixed(comm)),
    "fqsym.coproduct": ("fqsym", fixed(lambda x: WordPairs(fqsym.coproduct(x)))),
    "fqsym.project_pi": ("fqsym", fixed(fqsym.project_pi)),
    "QSymTensor.convert": ("qsym_tensor", tensor_convert(QSYM_SIDES)),
    "NSymTensor.convert": ("nsym_tensor", tensor_convert(nsym.BASES)),
}


@pytest.mark.parametrize("kind", sorted(PRODUCTS))
@SETTINGS
@given(data=st.data())
def test_products_are_bilinear(kind, data):
    elem, _, coeffs = KINDS[kind]
    product = PRODUCTS[kind]
    x, y, z = (elem(data.draw, None) for _ in range(3))
    a = data.draw(coeffs)
    before = [dict(v.terms) for v in (x, y, z)]

    assert product(x + y, z) == product(x, z) + product(y, z)
    assert product(z, x + y) == product(z, x) + product(z, y)
    assert product(x.scale(a), z) == product(x, z).scale(a) == product(x, z.scale(a))
    assert [dict(v.terms) for v in (x, y, z)] == before


@pytest.mark.parametrize("name", sorted(LINEAR_MAPS))
@SETTINGS
@given(data=st.data())
def test_maps_are_linear(name, data):
    kind, make = LINEAR_MAPS[name]
    elem, _, coeffs = KINDS[kind]
    f = make(data.draw)
    x, y = elem(data.draw, None), elem(data.draw, None)
    a = data.draw(coeffs)
    before = [dict(v.terms) for v in (x, y)]

    assert f(x.scale(a) + y) == f(x).scale(a) + f(y)
    assert f(x - x).is_zero()
    assert [dict(v.terms) for v in (x, y)] == before


class Unmultipliable:
    """A coefficient that fails any multiplication."""

    def __mul__(self, other):
        raise AssertionError("multiplied")

    __rmul__ = __mul__


def test_extend_adds_a_unit_coefficient_as_it_is():
    v, c = Unmultipliable(), Q + T
    assert extend([("a", v)], lambda k: [(k + "b", 1)])["ab"] is v
    assert extend([("a", c)], lambda k: [(k, 1), ("b", 2)]) == {"a": c, "b": 2 * c}
    assert extend([("a", c)], lambda k: [(k, 1)])["a"] is c
    # every other c multiplies, a Fraction 1 among them, into normal form: int when integral
    assert type(extend([("a", 3)], lambda k: [(k, Fraction(1))])["a"]) is int


def test_extend_drops_cancelling_terms():
    out = extend([("a", 2), ("b", -2)], lambda k: [("x", 1), (k, 3)])
    assert out == {"a": 6, "b": -6}
    assert extend([("a", 1)], lambda k: [(k, 1), (k, -1)]) == {}


def test_extend2_multiplies_by_both_coefficients():
    x, y = {"a": 2, "b": 3}, {"c": Fraction(1, 2)}
    out = extend2(x, y, lambda p, q: [(p + q, 2), ("z", 1 if p == "a" else Fraction(-2, 3))])
    assert out == {"ac": 2, "bc": 3}  # z: 1 from (a, c), -1 from (b, c)
    assert extend2(x, {}, lambda p, q: [(p, 1)]) == {}


def test_extensions_leave_their_operands_unchanged():
    x, y = {"a": 2, "b": 3}, {"c": 5}
    out = extend(x.items(), lambda k: [(k, 1)])
    out2 = extend2(x, y, lambda p, q: [(p, 1)])
    assert out == x and out is not x
    out["a"] = out2["a"] = 0
    assert x == {"a": 2, "b": 3} and y == {"c": 5}


# extend2 clears the denominators of two all-rational dicts and sums on ints;
# its oracle is the bilinear extension through tensor_terms, as written before
nonzero = st.integers(-6, 6).filter(bool)
coefficients = {
    "int": nonzero,
    "Fraction": st.builds(Fraction, nonzero, st.integers(2, 6)),
    "q,t": scalars,
    "quotient": st.builds(lambda s, d: s / d, scalars, st.sampled_from([1 + Q, Q - T, 1 - Q * T])),
}
# mostly rational, so that both dicts often take the cleared route
mixes = [["int"], ["Fraction"], ["int", "Fraction"]] * 3 + [["q,t"], ["quotient"], list(coefficients)]
# a rule yields its coefficients in normal form too: an int, a Fraction that is
# not integral, or a Laurent ScalarQT, which the cleared route sums apart from the ints
rule_coefficients = st.one_of(
    nonzero, st.builds(Fraction, nonzero, st.integers(2, 4)).map(_coeff), scalars.map(_coeff).filter(bool)
)


def normal_terms(draw, labels):
    kinds = draw(st.sampled_from(mixes))
    values = st.one_of(*(coefficients[k] for k in kinds)).map(_coeff).filter(bool)
    return draw(st.dictionaries(st.sampled_from(labels), values, min_size=1, max_size=3))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_extend2_matches_the_tensor_terms_route(data):
    draw = data.draw
    x, y = normal_terms(draw, "abc"), normal_terms(draw, "uvw")
    outs = st.lists(st.tuples(st.sampled_from(["o", "p", "q"]), rule_coefficients), max_size=3)
    # a pair that cancels: a rule may yield its first output again, negated
    outs = outs.flatmap(lambda out: st.sampled_from([out, out + [(k, -c) for k, c in out[:1]]]))
    table = {(a, b): draw(outs) for a in "abc" for b in "uvw"}
    rule = lambda a, b: table[a, b]  # noqa: E731
    got = extend2(x, y, rule)
    want = extend(tensor_terms(x, y), lambda ab: rule(*ab))
    assert {k: (type(v), v) for k, v in got.items()} == {k: (type(v), v) for k, v in want.items()}
    assert all(got.values())
    assert not off_normal_form(got), got
