"""The cached-row ch and the per-mask to_dense of hopfscf.charmap against
their per-term routes."""

import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

import charmap_oracle as oracle
from hopfscf import qsym
from hopfscf.charmap import CHI_DOT, KAPPA, ScfElem, _ch_row, ch
from hopfscf.compositions import Composition, SubsetLabel, _full_mask
from transition_oracle import pi_from_L_entry

NUS = (2, 3, 5)
SETTINGS = settings(max_examples=80, deadline=None)

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
PRIMES = (7, 11, 13, 17, 19)


def all_labels(top: int):
    for nu in NUS:
        for n in range(top + 1):
            for tag in (KAPPA, CHI_DOT):
                for mask in range(_full_mask(n) + 1):
                    yield nu, n, tag, mask


def assert_same(fast, slow):
    assert fast.basis == slow.basis == "M"
    assert fast == slow
    assert {c: str(v) for c, v in fast.terms.items()} == {
        c: str(v) for c, v in slow.terms.items()
    }


@st.composite
def scf_elems(draw):
    nu = draw(st.sampled_from(NUS))
    x = ScfElem(nu)
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(0, 6))
        mask = draw(st.integers(0, _full_mask(n)))
        tag = draw(st.sampled_from((KAPPA, CHI_DOT)))
        x = x + ScfElem(nu, {(n, tag, SubsetLabel(n, mask)): draw(rationals)})
    return x


@st.composite
def coprime_scf_elems(draw):
    """One term in each of at least two degrees, whose coefficients have
    pairwise coprime denominators, so no term's denominator divides another's."""
    nu = draw(st.sampled_from(NUS))
    degrees = draw(st.lists(st.integers(0, 6), min_size=2, max_size=len(PRIMES), unique=True))
    terms = {}
    for n, p in zip(degrees, draw(st.permutations(PRIMES))):
        label = SubsetLabel(n, draw(st.integers(0, _full_mask(n))))
        num = draw(st.integers(-6, 6).filter(bool))
        terms[(n, draw(st.sampled_from((KAPPA, CHI_DOT))), label)] = Fraction(num, p)
    return ScfElem(nu, terms)


def test_every_basis_label_matches_oracle():
    labels = list(all_labels(7))
    assert len(labels) == len(NUS) * 2 * 128
    for nu, n, tag, mask in labels:
        x = ScfElem(nu, {(n, tag, SubsetLabel(n, mask)): Fraction(1)})
        assert_same(ch(x), oracle.ch(x))


def test_rows_are_integer_over_least_denominator():
    for nu, n, tag, mask in all_labels(4):
        d, row = _ch_row(nu, n, tag, mask)
        assert type(d) is int and d > 0 and row
        for comp, c in row:
            assert type(comp) is Composition and comp.size == n
            assert type(c) is int and c
        assert gcd(d, *(c for _, c in row)) == 1


@SETTINGS
@given(st.one_of(scf_elems(), coprime_scf_elems()))
def test_random_sums_match_oracle(x):
    assert_same(ch(x), oracle.ch(x))


@SETTINGS
@given(scf_elems(), rationals)
def test_cancelling_pairs_give_zero(x, c):
    assert ch(x + x.scale(-1)).is_zero()
    assert (ch(x) + ch(x.scale(-1))).is_zero()
    assert_same(ch(x.scale(c)), ch(x).scale(c))


def test_cancellation_inside_one_sum():
    # L_I = sum_J pi_from_L_entry(I, J) Pi_J and ch(kappa_J) = (nu-1)^{|J|} Pi_J,
    # so chi_dot^I minus its kappa expansion maps to zero term by term in M.
    cases = 0
    for nu, n, tag, imask in all_labels(5):
        if tag != CHI_DOT:
            continue
        terms = {(n, CHI_DOT, SubsetLabel(n, imask)): Fraction(1)}
        for jmask in range(_full_mask(n) + 1):
            c = pi_from_L_entry(n, imask, jmask, nu) / (nu - 1) ** jmask.bit_count()
            terms[(n, KAPPA, SubsetLabel(n, jmask))] = -c
        y = ScfElem(nu, terms)
        assert len(y.terms) > 1
        assert ch(y).is_zero() and oracle.ch(y).is_zero()
        cases += 1
    assert cases == len(NUS) * 32


def random_scf_elem(rng: random.Random, nu: int) -> ScfElem:
    """Up to 8 terms at degrees 0-6, both tags, int and Fraction coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 8)):
        n = rng.randint(0, 6)
        label = SubsetLabel(n, rng.randint(0, _full_mask(n)))
        coeff = rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 12))))
        terms[(n, rng.choice((KAPPA, CHI_DOT)), label)] = coeff
    return ScfElem(nu, terms)


def test_to_dense_matches_oracle():
    rng = random.Random(1717)
    cases = mixed = 0
    for nu in NUS:
        for _ in range(12):
            x = random_scf_elem(rng, nu)
            degrees = {d for d, _, _ in x.terms}
            mixed += len(degrees) > 1  # the other degrees' terms are ignored
            for degree in range(7):
                assert x.to_dense(degree) == oracle.to_dense(x, degree)
                cases += degree in degrees
    assert cases > 0 and mixed > 0


def test_caches_are_bounded():
    assert isinstance(_ch_row.cache_info().maxsize, int)
    assert isinstance(qsym._l_product_masks.cache_info().maxsize, int)
    assert isinstance(qsym._m_product.cache_info().maxsize, int)
