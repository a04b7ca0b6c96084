"""Constant coefficients stay exact ints and Fractions; ScalarQT only where q or t enters.

`scalars._coeff` is the coercion of every element class but ScfElem: it keeps
an int or a Fraction as it is, lowers a constant (or zero) ScalarQT to one,
keeps a ScalarQT in which q or t appears, and refuses anything inexact.
`scalars._format` prints a coefficient of either kind; its oracle is the
canonical string of the wrapped scalar, `str(ScalarQT.wrap(v))`.

The guard walks the QSym side (ch, every conversion among M, L, E and
Pi(2, 3, 5), products, coproducts, antipode, the tensor constructor) and
requires int or Fraction coefficients throughout, then checks that NSym in
B and Bhat still carries a ScalarQT wherever q or t enters.  The cancellation
property scales every element class by a drawn p in which q or t appears and
cancels it again, by sums, by 1/p and through products, conversions and
coproducts: the core's one product and one sum must store the constant that
comes out as an int or a Fraction, never as a ScalarQT, and an integral
Fraction as its int.
"""

import itertools
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fqsym_oracle as fqsym
from fqsym_oracle import FQSymElem
from hopfscf import nsym, qsym
from hopfscf.charmap import ScfElem, ch
from hopfscf.compositions import compositions_of
from hopfscf.linear import extend
from hopfscf.nsym import NSymElem, NSymTensor
from hopfscf.qsym import QSymElem, QSymTensor
from hopfscf.symring import SymElem, partitions_of
from hopfscf.scalars import ONE, Q, T, ZERO, ScalarQT, _coeff, _format, _times, parse_scalar, rational

RATIONAL = (int, Fraction)

# -- the formatter against the canonical string ------------------------------

ints = st.integers(-10**6, 10**6)
fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 40))
laurent = st.builds(
    lambda c, a, b: rational(c) * Q**a * T**b, fractions, st.integers(-2, 3), st.integers(-2, 3)
)
polys = st.lists(laurent, min_size=1, max_size=3).map(lambda ms: sum(ms, ZERO))
quotients = st.tuples(polys, polys.filter(bool)).map(lambda nd: nd[0] / nd[1])
values = st.one_of(ints, fractions, fractions.map(rational), polys, quotients)


@settings(max_examples=200, deadline=None)
@given(values)
def test_format_is_the_canonical_string(v):
    text = _format(v)
    assert text == str(ScalarQT.wrap(v))
    assert parse_scalar(text) == v
    # lowering a constant changes neither its value nor its string
    assert _format(_coeff(v)) == text and _coeff(v) == v


def test_format_reads_fractions_without_a_scalar():
    assert [_format(v) for v in (0, 7, -3, Fraction(1, 2), Fraction(-5, 3), Fraction(4, 2))] == [
        "0", "7", "-3", "1 / 2", "-5 / 3", "2",
    ]


# -- the coercion ------------------------------------------------------------


def test_coeff_lowers_constants_and_keeps_q_and_t():
    for value, want in ((ONE, 1), (ZERO, 0), (-ONE, -1), (rational(Fraction(3, 4)), Fraction(3, 4)),
                        (Fraction(6, 3), 2), (True, 1), (5, 5)):
        got = _coeff(value)
        assert got == want and type(got) is type(want), value
    for value in (Q, T, Q + 1, ONE / (Q + T), Q / Q * T):
        assert _coeff(value) is value


@pytest.mark.parametrize("value", [0.5, Decimal("0.5"), complex(1, 0), "1"], ids=repr)
def test_coeff_refuses_inexact_and_non_scalars(value):
    with pytest.raises(TypeError):
        _coeff(value)


# -- the guard ---------------------------------------------------------------

QSYM_BASES = [("M", None), ("L", None), ("E", None), ("Pi", 2), ("Pi", 3), ("Pi", 5)]
COMPS = [c for n in range(5) for c in compositions_of(n)]


def rational_coeffs(x) -> int:
    """How many coefficients x has; each must be an int or a Fraction."""
    bad = {k: v for k, v in x.terms.items() if type(v) not in RATIONAL}
    assert not bad, bad
    return len(x.terms)


def elem(basis, nu, comp, c=Fraction(2, 3)):
    return QSymElem(basis, {comp: c}, nu=nu)


def test_ch_has_rational_coefficients():
    seen = 0
    for nu in (2, 3):
        for n in range(5):
            total = ScfElem(nu)
            for members in itertools.chain.from_iterable(
                itertools.combinations(range(1, n), r) for r in range(n)
            ):
                for x in (ScfElem.kappa(nu, n, members), ScfElem.chi_dot(nu, n, members)):
                    seen += rational_coeffs(ch(x.scale(Fraction(1, 3))))
                    total = total + x.scale(-2)
            seen += rational_coeffs(ch(total))
    assert seen > 150


def test_conversions_have_rational_coefficients():
    seen = 0
    for (src, snu), (tgt, tnu) in itertools.product(QSYM_BASES, repeat=2):
        for comp in COMPS:
            seen += rational_coeffs(qsym.convert(elem(src, snu, comp), tgt, nu=tnu))
    assert seen > 1000


def test_products_coproducts_and_antipode_have_rational_coefficients():
    seen = 0
    small = [c for c in COMPS if c.size <= 3]
    for (basis, nu), (other, onu) in itertools.product(QSYM_BASES, repeat=2):
        for a, b in itertools.product(small, repeat=2):
            seen += rational_coeffs(qsym.product(elem(basis, nu, a), elem(other, onu, b, 1)))
    for basis, nu in QSYM_BASES:
        for comp in COMPS:
            x = elem(basis, nu, comp)
            seen += rational_coeffs(qsym.coproduct(x)) + rational_coeffs(qsym.antipode(x))
    assert seen > 1000


def test_basis_elements_and_the_tensor_constructor_lower_constants():
    assert type(qsym.M((2, 1)).terms[(2, 1)]) is int
    x = QSymTensor(("M", "L"), {((1,), (2,)): rational(Fraction(1, 2)), ((), (1,)): ONE * 3})
    assert rational_coeffs(x) == 2 and x.terms[((), (1,))] == 3
    assert QSymTensor(("M", "M"), {((1,), ()): ZERO}).terms == {}
    assert rational_coeffs(x.product(x)) > 0


def test_nsym_carries_scalars_where_q_or_t_enters():
    scalars = 0
    for basis, target in (("B", "H"), ("Bhat", "H"), ("H", "B"), ("B", "Bhat"), ("R", "Bhat")):
        for comp in COMPS:
            x = nsym.convert(NSymElem.basis_elem(basis, comp), target)
            for v in x.terms.values():
                # a constant is never a ScalarQT here; q or t makes one
                assert type(v) in RATIONAL or _coeff(v) is v
                scalars += type(v) is ScalarQT
    assert scalars > 100
    # the q-free bases stay in ints
    for comp in COMPS:
        for v in nsym.convert(nsym.Lam(comp), "R").terms.values():
            assert type(v) is int
    assert nsym.B((1, 2)).coefficient((1, 2)) == ONE
    assert type(nsym.counit(nsym.H(()))) is ScalarQT


# -- q,t cancellations store constants as ints and Fractions -------------------


def off_normal_form(terms: dict) -> dict:
    """The stored coefficients off the normal form: a ScalarQT in which neither
    q nor t appears, or an integral Fraction."""
    return {
        k: v for k, v in terms.items()
        if type(v) is ScalarQT and v.terms is not None and set(v.terms) <= {(0, 0)}
        or type(v) is Fraction and v.denominator == 1
    }


def assert_no_constant_scalars(*results):
    for x in results:
        terms = x if isinstance(x, dict) else x.terms
        assert not off_normal_form(terms), x


def test_integral_rational_results_are_stored_as_ints():
    x = QSymElem("M", {(1,): Fraction(2, 3)})
    third = ScfElem.kappa(2, 2, {1}).scale(Fraction(1, 3))
    for y in (x.scale(Fraction(3, 2)), x + x.scale(Fraction(1, 2)), third + third + third):
        assert [type(c) for c in y.terms.values()] == [int] and list(y.terms.values()) == [1]


@pytest.mark.parametrize("c", [ONE, Fraction(1), Fraction(4, 2)], ids=repr)
def test_a_unit_factor_skips_the_product_not_the_normal_form(c):
    # a rule coefficient that is a constant ScalarQT or an integral Fraction
    got = extend([("a", 1)], lambda k: [(k, c)])
    assert got == {"a": c} and type(got["a"]) is int
    assert all(type(v) is int for v in (_times(1, c), _times(c, 1)))


def test_the_counit_of_a_coproduct_term_is_stored_as_an_int():
    # the sum verify's counit laws take: qsym.counit answers in ScalarQT
    x = qsym.M((1, 2))
    terms = qsym.coproduct(x).terms.items()
    left = extend(terms, lambda ab: ((ab[1], qsym.counit(qsym.M(ab[0]))),))
    assert left == x.terms and [type(v) for v in left.values()] == [int]


NSYM_BASES = list(nsym.BASES)
TENSOR_SIDES = {QSymTensor: ["M", "L", "E"], NSymTensor: NSYM_BASES}
SMALL = [c for c in COMPS if c.size <= 3]
coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
# p carries q or t: a Laurent monomial or a sum of two, so 1/p is a true quotient at times
p_monomials = st.builds(
    lambda c, a, b: rational(c) * Q**a * T**b, coeffs, st.integers(-2, 2), st.integers(-2, 2)
)
p_values = st.one_of(p_monomials, st.tuples(p_monomials, p_monomials).map(sum)).filter(
    lambda p: bool(p) and _coeff(p) is p
)
CANCEL = settings(max_examples=30, deadline=None)


def terms_of(labels):
    return st.dictionaries(st.sampled_from(labels), coeffs, min_size=1, max_size=3)


def cancellations(x, y, p, mul, maps=()):
    """The ways p cancels out: x p + x (1 - p), x p - x (p - 1), x p / p, the
    product of x p and y / p, and each map of x p and of x / p."""
    yield x.scale(p) + x.scale(1 - p)
    yield x.scale(p) - x.scale(p - 1)
    yield x.scale(p).scale(1 / p)
    yield mul(x.scale(p), y.scale(1 / p))
    for f in maps:
        yield f(x.scale(p))
        yield f(x.scale(1 / p))


@CANCEL
@given(st.sampled_from(QSYM_BASES), terms_of(SMALL), terms_of(SMALL), p_values)
def test_qsym_cancellations_store_no_constant_scalar(basis, xs, ys, p):
    (b, nu) = basis
    x, y = QSymElem(b, xs, nu=nu), QSymElem(b, ys, nu=nu)
    maps = [lambda z, t=t: qsym.convert(z, t[0], nu=t[1]) for t in QSYM_BASES]
    assert_no_constant_scalars(*cancellations(x, y, p, qsym.product, maps + [qsym.coproduct]))


@CANCEL
@given(st.sampled_from(NSYM_BASES), terms_of(SMALL), terms_of(SMALL), p_values)
def test_nsym_cancellations_store_no_constant_scalar(basis, xs, ys, p):
    x, y = NSymElem(basis, xs), NSymElem(basis, ys)
    maps = [lambda z, t=t: nsym.convert(z, t) for t in NSYM_BASES]
    assert_no_constant_scalars(*cancellations(x, y, p, nsym.product, maps + [nsym.coproduct]))


@CANCEL
@given(st.sampled_from(sorted(TENSOR_SIDES, key=str)), st.data(), p_values)
def test_tensor_cancellations_store_no_constant_scalar(cls, data, p):
    sides = st.sampled_from(TENSOR_SIDES[cls])
    bases = data.draw(st.tuples(sides, sides))
    pairs = [(a, b) for a in SMALL for b in SMALL if a.size + b.size <= 3]
    x, y = (cls(bases, data.draw(terms_of(pairs))) for _ in range(2))
    maps = [lambda z, t=t: z.convert((t, t)) for t in TENSOR_SIDES[cls]]
    assert_no_constant_scalars(*cancellations(x, y, p, cls.product, maps))


@CANCEL
@given(terms_of([lam for n in range(4) for lam in partitions_of(n)]), st.data(), p_values)
def test_sym_cancellations_store_no_constant_scalar(xs, data, p):
    ys = data.draw(terms_of(list(xs)))
    assert_no_constant_scalars(*cancellations(SymElem(xs), SymElem(ys), p, SymElem.__mul__))


@CANCEL
@given(terms_of([w for n in range(4) for w in itertools.permutations(range(1, n + 1))]),
       st.data(), p_values)
def test_fqsym_cancellations_store_no_constant_scalar(xs, data, p):
    x, y = FQSymElem(xs), FQSymElem(data.draw(terms_of(list(xs))))
    maps = [fqsym.coproduct, fqsym.project_pi]
    assert_no_constant_scalars(*cancellations(x, y, p, fqsym.product_F, maps))


def test_structure_constant_coproducts_store_no_constant_scalar():
    seen = 0
    for k in range(6):
        for r in range(k):
            for K in itertools.combinations(range(1, k), r):
                x = nsym.coproduct_B_comp(k, K)
                assert_no_constant_scalars(x)
                seen += sum(type(v) is int for v in x.terms.values())
        x = nsym.coproduct_bhat(k)
        assert_no_constant_scalars(x)
        seen += sum(type(v) is int for v in x.terms.values())
    assert seen > 50
    # the scalar API still answers in ScalarQT
    assert type(nsym.structure_constant(4, {1, 3}, 2, (), ())) is ScalarQT
    assert all(type(v) is ScalarQT for v in nsym.structure_constants_table(4, {1, 3}, 2).values())
