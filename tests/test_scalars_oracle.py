"""The Laurent scalar ring against the fraction-field oracle.

Values are drawn as num / den with num a random polynomial with rational
coefficients and den either a monomial c * q^a * t^b (a Laurent value, the hot
path) or a polynomial of up to three terms (a true quotient).  Every result
must print exactly as the oracle prints it, which also pins the value.  The
printing test draws every case the printer tells apart: integer polynomials,
which print straight from their terms, and negative exponents, non-integral
coefficients, +-1 and constant terms, zero and true quotients.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalars_oracle as oracle
from hopfscf import scalars

SETTINGS = settings(max_examples=80, deadline=None)

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
nonzero_rationals = rationals.filter(bool)
monomials = st.tuples(st.integers(0, 3), st.integers(0, 3))


def polys(min_size=0):
    return st.dictionaries(monomials, nonzero_rationals, min_size=min_size, max_size=3)


dens = st.one_of(
    st.builds(lambda mono, c: {mono: c}, monomials, nonzero_rationals),
    polys(min_size=1),
)


@st.composite
def pairs(draw):
    """The same value in both implementations."""
    num, den = draw(polys()), draw(dens)
    new = scalars.ScalarQT(num, den)
    old = oracle.ScalarQT(oracle.PolyQT(num), oracle.PolyQT(den))
    return new, old


def _agree(new_op, old_op):
    """Both raise ZeroDivisionError, or both print the same."""
    try:
        want = str(old_op())
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            new_op()
        return
    assert str(new_op()) == want


@SETTINGS
@given(pairs(), pairs())
def test_arithmetic_agrees(x, y):
    (a, a0), (b, b0) = x, y
    assert str(a) == str(a0)
    _agree(lambda: a + b, lambda: a0 + b0)
    _agree(lambda: a - b, lambda: a0 - b0)
    _agree(lambda: a * b, lambda: a0 * b0)
    _agree(lambda: a / b, lambda: a0 / b0)
    _agree(lambda: (a + b) * a - b / a, lambda: (a0 + b0) * a0 - b0 / a0)
    assert (a == b) == (a0 == b0)
    assert a == a + b - b


@SETTINGS
@given(pairs(), rationals)
def test_mixed_operands_agree(x, c):
    a, a0 = x
    _agree(lambda: a + c, lambda: a0 + c)
    _agree(lambda: a * c, lambda: a0 * c)
    _agree(lambda: a / c, lambda: a0 / c)
    _agree(lambda: c - a, lambda: c - a0)
    assert (a == c) == (a0 == c)


@SETTINGS
@given(pairs(), st.integers(-3, 3))
def test_powers_agree(x, k):
    a, a0 = x
    _agree(lambda: a**k, lambda: a0**k)


@SETTINGS
@given(pairs())
def test_parse_round_trip_agrees(x):
    a, a0 = x
    text = str(a)
    back = scalars.parse_scalar(text)
    assert back == a
    assert str(back) == str(oracle.parse_scalar(text)) == text


# -- printing: every route of ScalarQT.__str__ ---------------------------------

laurent_monomials = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


def _shifted(terms: dict) -> tuple[dict, dict]:
    """A Laurent term dict as num / q^a t^b with num a polynomial."""
    a = max(0, -min(q for q, _ in terms))
    b = max(0, -min(t for _, t in terms))
    return {(q + a, t + b): c for (q, t), c in terms.items()}, {(a, b): 1}


printed_parts = st.one_of(
    # integer polynomials: the direct route
    st.dictionaries(monomials, st.integers(-6, 6).filter(bool), max_size=4).map(lambda p: (p, {(0, 0): 1})),
    # negative exponents
    st.dictionaries(laurent_monomials, nonzero_rationals, min_size=1, max_size=4).map(_shifted),
    # non-integral Fraction coefficients
    st.dictionaries(monomials, nonzero_rationals.filter(lambda c: c.denominator > 1), min_size=1, max_size=3)
    .map(lambda p: (p, {(0, 0): 1})),
    # +-1 coefficients beside a constant term, 0 included
    st.tuples(st.dictionaries(monomials, st.sampled_from([-1, 1]), max_size=3), st.integers(-3, 3))
    .map(lambda pc: ({**pc[0], (0, 0): pc[1]}, {(0, 0): 1})),
    # true quotients
    st.tuples(polys(), polys(min_size=2)),
)

PRINT_CASES = {
    "integer polynomial": lambda x: x.as_integer_poly() is not None and not x.is_zero(),
    "negative exponent": lambda x: x.terms is not None and any(q < 0 or t < 0 for q, t in x.terms),
    "fraction coefficient": lambda x: x.terms is not None and any(type(c) is Fraction for c in x.terms.values()),
    "unit coefficient": lambda x: x.terms is not None and any(c in (1, -1) for m, c in x.terms.items() if m != (0, 0)),
    "constant term": lambda x: x.terms is not None and (0, 0) in x.terms,
    "zero": lambda x: x.is_zero(),
    "quotient": lambda x: x.quot is not None,
}


def test_printing_agrees_on_every_route():
    """The one-pass print of an integer polynomial and the num / den print of
    every other value both agree with the oracle, as do parse, .num and .den."""
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(printed_parts)
    def check(parts):
        num, den = parts
        x = scalars.ScalarQT(num, den)
        x0 = oracle.ScalarQT(oracle.PolyQT(num), oracle.PolyQT(den))
        seen.update(name for name, holds in PRINT_CASES.items() if holds(x))
        text = str(x)
        assert text == str(x0)
        back = scalars.parse_scalar(text)
        assert back == x and str(back) == str(oracle.parse_scalar(text)) == text
        assert x.num.terms == x0.num.terms and x.den.terms == x0.den.terms
        assert str(x.num) == oracle.poly_to_str(x0.num) and str(x.den) == oracle.poly_to_str(x0.den)
        assert x.terms is None or (x.num.terms is not x.terms and x.den.terms is not x.terms)

    check()
    assert seen == set(PRINT_CASES)


@SETTINGS
@given(pairs(), st.tuples(rationals, rationals))
def test_evaluation_agrees(x, point):
    a, a0 = x
    try:
        want = a0.eval_at(*point)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            a.eval_at(*point)
        return
    assert a.eval_at(*point) == want


def test_division_by_monomials_stays_laurent():
    c = Fraction(-3, 2)
    x = (scalars.Q + scalars.T * 2) / (scalars.Q**2 * scalars.T * c)
    assert x.quot is None
    assert str(x) == str((oracle.Q + oracle.T * 2) / (oracle.Q**2 * oracle.T * c))
    assert str(x) == "-2*q - 4*t / 3*q^2*t"


# `_ratio` turns an int sum over a common denominator into a coefficient through
# a memo keyed by (num, den) and their types; its oracle is `_rational` of the
# Fraction, checked for one num over several denominators, so that a memo that
# ignored den would answer one of them wrongly
past_64_bits = st.integers(2**64, 2**70)
wide_ints = st.one_of(st.integers(-40, 40), past_64_bits, past_64_bits.map(lambda v: -v))


@SETTINGS
@given(wide_ints, wide_ints.filter(bool), wide_ints.filter(bool))
@example(0, -3, 5)
@example(2**65 + 1, -(2**65 + 1), 2**64)
@example(-7, -2, 14)
def test_ratio_is_the_reduced_fraction(num, den, other):
    for n, d in [(num, den), (num, other), (num, -den), (num * den, den), (num * other, -other)]:
        got, want = scalars._ratio(n, d), scalars._rational(Fraction(n, d))
        assert (type(got), got) == (type(want), want)


def test_ratio_memo_keeps_a_bool_key_apart_from_the_int():
    scalars._ratio.cache_clear()
    assert scalars._ratio(True, 3) == scalars._ratio(1, 3) == Fraction(1, 3)
    assert scalars._ratio.cache_info().misses == scalars._ratio.cache_info().currsize == 2
    assert type(scalars._ratio(True, 1)) is int
