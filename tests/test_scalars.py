from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfscf.scalars import (
    ONE,
    Q,
    T,
    ZERO,
    ScalarParseError,
    ScalarQT,
    parse_scalar,
    rational,
)

rationals = st.builds(
    Fraction, st.integers(-6, 6), st.integers(1, 4)
)


@st.composite
def small_polys(draw):
    n_terms = draw(st.integers(0, 3))
    terms = {}
    for _ in range(n_terms):
        mono = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        terms[mono] = draw(rationals)
    return terms


@st.composite
def small_scalars(draw):
    num = draw(small_polys())
    den = draw(small_polys().filter(lambda p: any(p.values())))
    return ScalarQT(num, den)


@st.composite
def laurent_scalars(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        mono = (draw(st.integers(-2, 2)), draw(st.integers(-2, 2)))
        terms[mono] = draw(rationals)
    return ScalarQT(terms, {(0, 0): 1})


# evaluation points, zero among them on either coordinate
POINTS = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]


def at(terms: dict, q0, t0) -> Fraction:
    """A polynomial term dict summed at (q0, t0), exponents all >= 0."""
    return sum((c * Fraction(q0) ** a * Fraction(t0) ** b for (a, b), c in terms.items()), Fraction(0))


class TestArithmetic:
    def test_product_minus_square(self):
        assert (Q + T) * T - T**2 == Q * T

    def test_rational_function_vanishing(self):
        # (2 - nu)/(1 - nu) vanishes at nu = 2
        expr = (rational(2) - Q) / (ONE - Q)
        assert expr.eval_at(2, 0) == 0
        assert expr.eval_at(3, 0) == Fraction(1, 2)

    def test_division_by_zero_reported(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO
        with pytest.raises(ZeroDivisionError):
            ScalarQT({(0, 0): 1}, {})

    def test_negative_powers(self):
        assert Q**-2 == ONE / Q**2
        assert (Q / T) ** -1 == T / Q

    @given(small_scalars(), small_scalars(), small_scalars())
    @settings(max_examples=60, deadline=None)
    def test_field_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a and a * ONE == a
        assert a - a == ZERO
        if not a.is_zero():
            assert a / a == ONE

    @given(small_scalars(), small_scalars())
    @settings(max_examples=60, deadline=None)
    def test_eval_commutes_with_arithmetic(self, a, b):
        point = (Fraction(2), Fraction(3))
        try:
            ea, eb = a.eval_at(*point), b.eval_at(*point)
        except ZeroDivisionError:
            return
        assert (a + b).eval_at(*point) == ea + eb
        assert (a * b).eval_at(*point) == ea * eb


class TestEvaluation:
    def test_examples(self):
        assert (Q + rational(2) * T).eval_at(1, 0) == 1
        assert ((Q + T) * T).eval_at(-1, 1) == 0

    def test_vanishing_denominator_reports_point(self):
        with pytest.raises(ZeroDivisionError) as err:
            (ONE / (Q + T)).eval_at(1, -1)
        assert "(1,-1)" in str(err.value)

    @given(st.one_of(laurent_scalars(), small_scalars()), st.sampled_from(POINTS), st.sampled_from(POINTS))
    @settings(max_examples=200, deadline=None)
    def test_direct_laurent_route_agrees_with_num_over_den(self, s, q0, t0):
        """eval_at sums the Laurent form directly unless a zero meets a
        negative power; num / den of the canonical form gives the same value,
        or the same error where its denominator vanishes."""
        num, den = s.num, s.den
        d = at(den.terms, q0, t0)
        if d == 0:
            with pytest.raises(ZeroDivisionError) as err:
                s.eval_at(q0, t0)
            assert str(err.value) == f"denominator {den} vanishes at (q,t)=({q0},{t0})"
        else:
            got = s.eval_at(q0, t0)
            assert type(got) is Fraction and got == at(num.terms, q0, t0) / d


def substitute(s: ScalarQT, q_expr: ScalarQT, t_expr: ScalarQT) -> ScalarQT:
    """Formal composition q -> q_expr, t -> t_expr."""
    num, den = (
        sum((rational(c) * q_expr**a * t_expr**b for (a, b), c in p.items()), ZERO)
        for p in s._pair()
    )
    if den.is_zero():
        raise ZeroDivisionError("substitution produced a zero denominator")
    return num / den


class TestSubstitution:
    def test_identity_substitution(self):
        s = rational(3) * Q**2 * T - ONE
        assert substitute(s, Q, T) == s

    def test_rescaling_on_monomials(self):
        # q^a t^b == (-q-t)^(a+b) * [q -> -q/(q+t), t -> q/(q+t) - 1] applied to q^a t^b
        Qp = Q / (Q + T)
        for a in range(0, 4):
            for b in range(0, 4):
                mono = Q**a * T**b
                sub = substitute(mono, -Qp, Qp - ONE)
                assert (-(Q + T)) ** (a + b) * sub == mono

    def test_integer_specialization_matches_eval(self):
        s = (Q + T) ** 2 / (Q - T)
        for nu in (2, 3):
            via_sub = substitute(s, rational(-nu), rational(nu - 1))
            assert via_sub == rational(s.eval_at(-nu, nu - 1))

    def test_zero_denominator_substitution_reported(self):
        with pytest.raises(ZeroDivisionError):
            substitute(ONE / Q, ZERO, T)


class TestPolynomiality:
    def test_monomial_quotient(self):
        s = Q * T / Q
        assert s.as_poly() is not None
        assert s == T

    def test_non_polynomial(self):
        assert not (ONE / (Q + T)).as_poly() is not None

    def test_exact_cancellation(self):
        s = (Q**2 - T**2) / (Q + T)
        assert s.as_poly() is not None
        assert s == Q - T
        assert s.as_integer_poly() is not None

    def test_integer_filter(self):
        half = rational(Fraction(1, 2))
        assert (half * Q).as_poly() is not None
        assert (half * Q).as_integer_poly() is None


class TestStringsAndParsing:
    def test_canonical_ordering(self):
        assert str(Q + rational(2) * T) == "q + 2*t"
        assert str((Q + T) * T) == "q*t + t^2"
        assert str(rational(3) * Q**2 * T - ONE) == "3*q^2*t - 1"
        assert str(ZERO) == "0"
        assert str(ONE / (Q + T)) == "1 / q + t"
        assert str(rational(Fraction(5, 3))) == "5 / 3"

    def test_denominator_sign_normalized(self):
        s = ONE / (ZERO - Q)
        assert str(s) == "-1 / q"

    def test_round_trip(self):
        for s in (
            Q + rational(2) * T,
            rational(3) * Q**2 * T - ONE,
            ONE / (Q + T),
            (Q - T) / (Q + T),
            rational(Fraction(-7, 2)),
            ZERO,
        ):
            assert parse_scalar(str(s)) == s

    def test_parse_errors(self):
        for bad in ("", "q^", "x + 1", "1 / 2 / 3", "q^-1"):
            with pytest.raises(ScalarParseError):
                parse_scalar(bad)

    def test_zero_denominator_is_a_parse_error(self):
        for bad in ("1/0", "q / 0", "1 / q - q", "2*t / 0*q"):
            with pytest.raises(ScalarParseError):
                parse_scalar(bad)

    @given(small_scalars())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, s):
        assert parse_scalar(str(s)) == s

    def test_poly_str_of_zero(self):
        assert str(ZERO) == "0"


def test_integral_quotients_and_powers_keep_int_coefficients():
    from hopfscf import nsym

    for value in (
        (Q + T) * T / T,
        Q**-2,
        rational(Fraction(3, 2)) * T**-1 / rational(Fraction(1, 2)),
        nsym.structure_constant(3, {1, 2}, 1, (), (1,)),
        rational(Fraction(1, 2)) * 2,
        rational(Fraction(1, 2)) + rational(Fraction(1, 2)),
        Q * Fraction(3, 2) * Fraction(2, 3),
    ):
        assert value.terms and all(type(c) is int for c in value.terms.values()), value.terms
    assert (Q / 2).terms == {(1, 0): Fraction(1, 2)}
    assert (rational(Fraction(2, 3)) ** -1).terms == {(0, 0): Fraction(3, 2)}
