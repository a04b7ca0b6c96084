"""The Hopf laws as properties on random multi-term elements.

`ch` from the superclass functions to QSym intertwines the dense product
m and coproduct delta with QSym's product and coproduct.  The elements are
random sums of one to three kappa and chi_dot terms of one degree, with
Fraction coefficients, at nu 2 and 3 and total degree at most 4; each key's
label is drawn either as a SubsetLabel or as its mask.
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hopfscf import groupscf, qsym
from hopfscf.charmap import CHI_DOT, KAPPA, ScfElem, ch
from hopfscf.compositions import SubsetLabel, _full_mask
from hopfscf.linear import extend, tensor_terms
from hopfscf.qsym import QSymTensor

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
