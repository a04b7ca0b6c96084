"""The Hopf laws as properties on random multi-term elements.

`ch` from the superclass functions to QSym intertwines the dense product
m and coproduct delta with QSym's product and coproduct.  The elements are
random sums of one to three kappa and chi_dot terms of one degree, with
Fraction coefficients, at nu 2 and 3 and total degree at most 4; each key's
label is drawn either as a SubsetLabel or as its mask.

QSym's three mask rules hold against the M route: the A-shuffle product of
two L elements is the product of their M conversions, the split-or-fuse
coproduct of an L element is the coproduct of its M conversion, and the
antipode satisfies sum S(x1) x2 = counit(x) 1 on elements in M, L, E and
Pi(nu) at nu 2, 3 and 5.  These elements are sums of one to three terms of
mixed degree, total degree at most 5, with int, Fraction and q,t coefficients.

NSym is a bialgebra: Delta(xy) = Delta(x) Delta(y) and both counit laws hold
on sums of one to three terms in H, B or Bhat, with the same coefficients and
total degree at most 4, so B's near-concatenation and Bhat's concatenation
are checked against the H coproduct.  The duality pairing of NSym with QSym
turns each structure into the other's: <fg, x> = <f (x) g, Delta x> and
<Delta f, x (x) y> = <f, xy>, with the pairing of pure tensors written here
as <f1 (x) f2, x1 (x) x2> = <f1, x1><f2, x2>.
"""

import itertools
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopfscf import groupscf, nsym, qsym
from hopfscf.charmap import CHI_DOT, KAPPA, ScfElem, ch
from hopfscf.compositions import SubsetLabel, _full_mask, compositions_of
from hopfscf.linear import extend, tensor_terms
from hopfscf.nsym import NSymElem, NSymTensor
from hopfscf.qsym import QSymElem, QSymTensor
from hopfscf.scalars import ZERO, Q, T, rational

SETTINGS = settings(max_examples=60, deadline=None)
TOP_DEGREE = 4

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def scf_sums(draw, nu: int, degree: int) -> ScfElem:
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        mask = draw(st.integers(0, _full_mask(degree)))
        label = draw(st.sampled_from((mask, SubsetLabel(degree, mask))))
        terms[(degree, draw(st.sampled_from((KAPPA, CHI_DOT))), label)] = draw(rationals)
    return ScfElem(nu, terms)


@st.composite
def operands(draw):
    nu = draw(st.sampled_from((2, 3)))
    m = draw(st.integers(0, TOP_DEGREE))
    n = draw(st.integers(0, TOP_DEGREE - m))
    return nu, m, n, draw(scf_sums(nu, m)), draw(scf_sums(nu, n))


@SETTINGS
@given(operands())
def test_ch_intertwines_the_dense_product(case):
    nu, m, n, x, y = case
    product = groupscf.product_m(x.to_dense(m), y.to_dense(n), m, n)
    assert ch(ScfElem.from_dense(product, m + n)) == qsym.product(ch(x), ch(y))


@SETTINGS
@given(operands())
def test_ch_intertwines_the_dense_coproduct(case):
    _, n, _, x, _ = case
    lift = ScfElem.from_dense
    images = (
        tensor_terms(ch(lift(left, k)).terms, ch(lift(right, n - k)).terms)
        for k, pairs in groupscf.coproduct(x.to_dense(n), n).items()
        for left, right in pairs
    )
    terms = extend(itertools.chain.from_iterable(images), lambda pair: ((pair, 1),))
    assert QSymTensor(("M", "M"), terms) == qsym.coproduct(ch(x))


@SETTINGS
@given(operands())
def test_stored_keys_build_the_same_element(case):
    nu, _, _, x, y = case
    for z in (x, y, x + y):
        assert ScfElem(nu, z.terms) == z
        assert all(type(d) is int and type(mask) is int for d, _, mask in z.terms)


# -- QSym's mask rules against the M route -----------------------------------

QSYM_TOP = 5
coefficients = st.one_of(
    st.integers(-6, 6).filter(bool),
    rationals.filter(bool),
    st.builds(
        lambda c, a, b: rational(c) * Q**a * T**b,
        rationals.filter(bool), st.integers(0, 2), st.integers(0, 2),
    ),
    st.builds(lambda c: (Q + rational(c) * T) / (1 - Q * T), rationals),
)


@st.composite
def qsym_sums(draw, basis: str, top: int, nu: int | None = None) -> QSymElem:
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        alpha = draw(st.sampled_from(list(compositions_of(draw(st.integers(0, top))))))
        terms[alpha] = draw(coefficients)
    return QSymElem(basis, terms, nu=nu)


@st.composite
def l_pairs(draw):
    m = draw(st.integers(0, QSYM_TOP))
    return draw(qsym_sums("L", m)), draw(qsym_sums("L", QSYM_TOP - m))


@st.composite
def any_basis(draw):
    bases = (("M", None), ("L", None), ("E", None), ("Pi", 2), ("Pi", 3), ("Pi", 5))
    basis, nu = draw(st.sampled_from(bases))
    return draw(qsym_sums(basis, QSYM_TOP, nu))


@SETTINGS
@given(l_pairs())
def test_the_a_shuffle_product_is_the_m_product(pair):
    x, y = pair
    assert qsym.product(x, y) == qsym.product(qsym.convert(x, "M"), qsym.convert(y, "M"))


@SETTINGS
@given(qsym_sums("L", QSYM_TOP))
def test_the_split_or_fuse_coproduct_is_the_m_coproduct(x):
    assert qsym.coproduct(x) == qsym.coproduct(qsym.convert(x, "M"))


@SETTINGS
@given(any_basis())
def test_the_antipode_law(x):
    coproduct = qsym.coproduct(x)
    left, right = coproduct.bases

    def convolved(pair):  # S(x1) x2 for one pure tensor x1 (x) x2
        a, b = pair
        image = qsym.antipode(QSymElem.basis_elem(left, a)) * QSymElem.basis_elem(right, b)
        return image.terms.items()

    expected = QSymElem.unit("M").scale(qsym.counit(x))
    assert QSymElem("M", extend(coproduct.terms.items(), convolved)) == expected


# -- NSym's bialgebra laws, and its duality with QSym ------------------------

NSYM_TOP = 4
NSYM_BASES = ("H", "B", "Bhat")


@st.composite
def nsym_sums(draw, top: int, basis: str | None = None) -> NSymElem:
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        alpha = draw(st.sampled_from(list(compositions_of(draw(st.integers(0, top))))))
        terms[alpha] = draw(coefficients)
    return NSymElem(basis or draw(st.sampled_from(NSYM_BASES)), terms)


@st.composite
def nsym_pairs(draw):
    """Two sums of total degree at most NSYM_TOP, in one basis at least half
    the time, so the closed product rules of B and Bhat are drawn."""
    m = draw(st.integers(0, NSYM_TOP))
    x = draw(nsym_sums(m))
    return x, draw(nsym_sums(NSYM_TOP - m, draw(st.sampled_from((x.basis, *NSYM_BASES)))))


@st.composite
def qsym_pairs(draw):
    """Two sums in the parameter-free bases, of total degree at most NSYM_TOP."""
    m = draw(st.integers(0, NSYM_TOP))
    return tuple(draw(qsym_sums(draw(st.sampled_from("MLE")), top)) for top in (m, NSYM_TOP - m))


def tensor_pairing(f: NSymTensor, x: QSymTensor):
    """<f1 (x) f2, x1 (x) x2> = <f1, x1><f2, x2>, extended bilinearly: in the
    dual hubs H_a (x) H_b pairs with M_c (x) M_d to 1 when (a, b) = (c, d)."""
    h, m = f.convert(("H", "H")).terms, x.convert(("M", "M")).terms
    return sum((c * m[pair] for pair, c in h.items() if pair in m), ZERO)


@SETTINGS
@given(nsym_pairs())
@example((nsym.B((1,)), nsym.B((1, 1))))  # B(1)B(1,1) = B(2,1), not B(1,2)
def test_the_nsym_coproduct_is_multiplicative(pair):
    x, y = pair
    assert nsym.coproduct(x * y) == nsym.coproduct(x).product(nsym.coproduct(y))


@SETTINGS
@given(nsym_sums(NSYM_TOP))
def test_the_nsym_counit_laws(x):
    terms = nsym.coproduct(x).terms.items()
    left = extend(terms, lambda ab: ((ab[1], nsym.counit(nsym.H(ab[0]))),))
    right = extend(terms, lambda ab: ((ab[0], nsym.counit(nsym.H(ab[1]))),))
    assert NSymElem("H", left) == x
    assert NSymElem("H", right) == x


@SETTINGS
@given(nsym_pairs(), st.sampled_from("MLE").flatmap(lambda basis: qsym_sums(basis, NSYM_TOP)))
def test_the_pairing_takes_the_nsym_product_to_the_qsym_coproduct(pair, x):
    f, g = pair
    fg = NSymTensor((f.basis, g.basis), dict(tensor_terms(f.terms, g.terms)))
    assert nsym.pairing(f * g, x) == tensor_pairing(fg, qsym.coproduct(x))


@SETTINGS
@given(nsym_sums(NSYM_TOP), qsym_pairs())
def test_the_pairing_takes_the_nsym_coproduct_to_the_qsym_product(f, pair):
    x, y = pair
    xy = QSymTensor((x.basis, y.basis), dict(tensor_terms(x.terms, y.terms)))
    assert tensor_pairing(nsym.coproduct(f), xy) == nsym.pairing(f, x * y)
