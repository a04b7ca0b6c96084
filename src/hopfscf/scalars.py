"""Exact coefficient arithmetic in Q(q,t): Laurent polynomials, and quotients.

A ScalarQT is almost always a canonical sparse Laurent polynomial: a dict from
(q, t) exponents, possibly negative, to nonzero coefficients (int when
integral, else Fraction; never float).  Sums, products, division by a one-term
scalar and powers of a one-term scalar stay in that form and reduce no
fraction; two Laurent values are equal exactly when their dicts are.  Only
division by a scalar of more than one term builds a true quotient, reduced
best-effort (common monomial and integer content, exact collapse) rather than
by a multivariate gcd, folded back when its denominator comes out a monomial,
and compared by cross-multiplication.  The canonical string is 'num / den'
with coprime integer coefficients, e.g. `1 / q^2`, `1 / 2`, `3*q + 2*t / 6`,
or the polynomial alone when it has integer coefficients, e.g. `q*t + t^2`.

A coefficient of an element is an int or a Fraction while it is constant and
a ScalarQT only once q or t enters: `_lower` keeps that normal form in the one
coefficient product `_times` and the one sum `linear._add_term`, `_coeff` at
the constructors, and `_format` prints either kind canonically.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from numbers import Rational

Monomial = tuple[int, int]  # (q-exponent, t-exponent)
_UNIT = {(0, 0): 1}


def _display_key(mono: Monomial) -> tuple[int, int]:
    # total degree descending, then q-degree descending
    return (-(mono[0] + mono[1]), -mono[0])


def _rational(value):
    """value as an exact rational: an int when integral, else a Fraction.
    Anything that is not a Rational is refused: exactness is the contract."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        if not isinstance(value, Rational):
            raise TypeError(f"{value!r} is not an exact rational; use an int or a Fraction")
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


@lru_cache(maxsize=4096, typed=True)
def _ratio(num: int, den: int):
    """num / den for ints, den nonzero, as `_rational` would give it.  Memoised:
    the crossings from integer sums to coefficients meet few distinct pairs."""
    return Fraction(num, den) if num % den else num // den


def _exact_nu(nu, message: str = "") -> int:
    """nu as the parameter of Q_n(nu) and of Pi(nu): an int of at least 2.
    A nu that is not an int is refused with TypeError, one below 2 with
    ValueError(message), by default a message naming the value."""
    if type(nu) is not int:
        raise TypeError(f"nu must be an int, got {nu!r}")
    if nu < 2:
        raise ValueError(message or f"nu must be at least 2, got {nu}")
    return nu


# -- sparse term dicts: {(q, t): nonzero coefficient} -------------------------


def _add(a: dict, b: dict) -> dict:
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    for mono, coeff in b.items():
        if mono in out:
            coeff += out[mono]
            if not coeff:
                del out[mono]
                continue
            coeff = _rational(coeff)
        out[mono] = coeff
    return out


def _neg(a: dict) -> dict:
    return {mono: -coeff for mono, coeff in a.items()}


def _mul(a: dict, b: dict) -> dict:
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        ((q2, t2), c2), = b.items()
        return {(q1 + q2, t1 + t2): _rational(c1 * c2) for (q1, t1), c1 in a.items()}
    out: dict = {}
    for (q2, t2), c2 in b.items():
        for (q1, t1), c1 in a.items():
            mono = (q1 + q2, t1 + t2)
            out[mono] = out[mono] + c1 * c2 if mono in out else c1 * c2
    return {mono: _rational(coeff) for mono, coeff in out.items() if coeff}


def _pow(a: dict, k: int) -> dict:
    """a ** k for k >= 0, by repeated squaring."""
    out = _UNIT
    while k:
        if k & 1:
            out = _mul(out, a)
        k >>= 1
        if k:
            a = _mul(a, a)
    return out


def _eval(a: dict, q0, t0) -> Fraction:
    q0, t0 = Fraction(_rational(q0)), Fraction(_rational(t0))
    return sum((c * q0**e * t0**f for (e, f), c in a.items()), Fraction(0))


def _exact_div(num: dict, den: dict) -> dict | None:
    """num / den if den divides num exactly in Q[q,t], else None."""
    (dq, dt) = lead = min(den, key=_display_key)
    quot = {}
    while num:
        (rq, rt) = top = min(num, key=_display_key)
        if rq < dq or rt < dt:
            return None
        mono, coeff = (rq - dq, rt - dt), Fraction(num[top]) / den[lead]
        quot[mono] = coeff
        num = _add(num, _mul(den, {mono: -coeff}))
    return quot


def _reduce(num: dict, den: dict) -> tuple[dict, dict]:
    """Best-effort reduced num / den: strip the common monomial, collapse an
    exact quotient, clear integer content, make den's leading coefficient > 0."""
    cq = min(q for q, _ in (*num, *den))
    ct = min(t for _, t in (*num, *den))
    if cq or ct:
        num = {(q - cq, t - ct): c for (q, t), c in num.items()}
        den = {(q - cq, t - ct): c for (q, t), c in den.items()}
    quotient = _exact_div(num, den)
    if quotient is not None:
        num, den = quotient, _UNIT
    coeffs = [Fraction(c) for c in (*num.values(), *den.values())]
    factor = Fraction(lcm(*(c.denominator for c in coeffs)), gcd(*(c.numerator for c in coeffs)))
    if den[min(den, key=_display_key)] < 0:
        factor = -factor
    return (
        {m: _rational(c * factor) for m, c in num.items()},
        {m: _rational(c * factor) for m, c in den.items()},
    )


def _laurent_pair(terms: dict) -> tuple[dict, dict]:
    """Canonical num and den of a Laurent polynomial: den is d * q^a * t^b with
    the least a, b >= 0 that clear negative exponents and d the lcm of the
    coefficient denominators, so num has coprime integer coefficients."""
    a = max(0, -min((q for q, _ in terms), default=0))
    b = max(0, -min((t for _, t in terms), default=0))
    d = lcm(*(c.denominator for c in terms.values()))
    num = {(q + a, t + b): c.numerator * (d // c.denominator) for (q, t), c in terms.items()}
    return num, {(a, b): d}


# One display key and text (q^2*t, '' for (0, 0)) per exponent pair, both below 64.
@lru_cache(maxsize=4096)
def _monomial(mono: Monomial) -> tuple:
    text = "*".join(var if e == 1 else f"{var}^{e}" for var, e in zip("qt", mono) if e)
    return _display_key(mono), text, mono


def _terms_str(terms: dict) -> str:
    """Monomials by total degree then q-degree, both descending; int coefficients."""
    if not terms:
        return "0"
    parts = []
    for _, text, mono in sorted(map(_monomial, terms)):
        coeff = terms[mono]
        if abs(coeff) != 1 or not text:
            text = f"{abs(coeff)}*{text}" if text else str(abs(coeff))
        sign = ("-" if coeff < 0 else "") if not parts else ("- " if coeff < 0 else "+ ")
        parts.append(sign + text)
    return " ".join(parts)


class ScalarQT:
    """Element of Q(q,t).  `terms` is the Laurent form, or None for a true
    quotient, which `quot` holds as a reduced (num, den) of term dicts.
    ScalarQT(terms) adopts a dict of nonzero Laurent coefficients as it is;
    ScalarQT(num, den) divides two term dicts of exact rational coefficients,
    dropping zeros and keeping ints where they are integral."""

    __slots__ = ("terms", "quot")

    def __init__(self, num: dict, den: dict | None = None):
        self.quot = None
        if den is None:
            self.terms = num
            return
        num = {m: c for m, v in num.items() if (c := _rational(v))}
        den = {m: c for m, v in den.items() if (c := _rational(v))}
        if not den:
            raise ZeroDivisionError("scalar with zero denominator")
        if len(den) > 1:
            num, den = _reduce(num, den)
        if len(den) > 1:
            self.terms, self.quot = None, (num, den)
            return
        ((dq, dt), dc), = den.items()
        self.terms = {(a - dq, b - dt): _rational(Fraction(c) / dc) for (a, b), c in num.items()}

    @classmethod
    def wrap(cls, value) -> "ScalarQT":
        """value as a scalar: a ScalarQT, an int or a Fraction, as in arithmetic."""
        if (out := _operand(value)) is NotImplemented:
            raise TypeError(f"{value!r} is not a scalar; use a ScalarQT, an int or a Fraction")
        return out

    def _pair(self) -> tuple[dict, dict]:
        return self.quot or _laurent_pair(self.terms)

    num = property(lambda self: ScalarQT(self._pair()[0]), doc="Numerator of the canonical form.")
    den = property(lambda self: ScalarQT(self._pair()[1]), doc="Denominator of the canonical form.")

    def is_zero(self) -> bool:
        return not self.terms and self.quot is None

    def __bool__(self) -> bool:
        return bool(self.terms) or self.quot is not None

    def __eq__(self, other) -> bool:
        if type(other) is not ScalarQT and (other := _operand(other)) is NotImplemented:
            return other
        if self.quot is None and other.quot is None:
            return self.terms == other.terms
        (an, ad), (bn, bd) = self._pair(), other._pair()
        return _mul(an, bd) == _mul(bn, ad)

    # Quotients compare by cross-multiplication on non-canonical forms; no stable hash.
    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other) -> "ScalarQT":
        if type(other) is not ScalarQT and (other := _operand(other)) is NotImplemented:
            return other
        if self.quot is None and other.quot is None:
            return ScalarQT(_add(self.terms, other.terms))
        (an, ad), (bn, bd) = self._pair(), other._pair()
        if ad == bd:
            return ScalarQT(_add(an, bn), ad)
        return ScalarQT(_add(_mul(an, bd), _mul(bn, ad)), _mul(ad, bd))

    __radd__ = __add__

    def __neg__(self) -> "ScalarQT":
        if self.quot is None:
            return ScalarQT(_neg(self.terms))
        return ScalarQT(_neg(self.quot[0]), self.quot[1])

    def __sub__(self, other) -> "ScalarQT":
        other = _operand(other)
        return other if other is NotImplemented else self + -other

    def __rsub__(self, other) -> "ScalarQT":
        other = _operand(other)
        return other if other is NotImplemented else other - self

    def __mul__(self, other) -> "ScalarQT":
        if type(other) is not ScalarQT and (other := _operand(other)) is NotImplemented:
            return other
        if self.quot is None and other.quot is None:
            return ScalarQT(_mul(self.terms, other.terms))
        (an, ad), (bn, bd) = self._pair(), other._pair()
        return ScalarQT(_mul(an, bn), _mul(ad, bd))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ScalarQT":
        if type(other) is not ScalarQT and (other := _operand(other)) is NotImplemented:
            return other
        if other.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        if self.quot is None and other.quot is None and len(other.terms) == 1:
            ((q, t), c), = other.terms.items()
            inv = 1 / Fraction(c)
            return ScalarQT(
                {(a - q, b - t): _rational(v * inv) for (a, b), v in self.terms.items()}
            )
        (an, ad), (bn, bd) = self._pair(), other._pair()
        return ScalarQT(_mul(an, bd), _mul(ad, bn))

    def __rtruediv__(self, other) -> "ScalarQT":
        other = _operand(other)
        return other if other is NotImplemented else other / self

    def __pow__(self, k: int) -> "ScalarQT":
        terms = self.terms
        if k >= 0:
            if terms is None:
                return ScalarQT(*(_pow(p, k) for p in self.quot))
            return ScalarQT(_pow(terms, k))
        if self.is_zero():
            raise ZeroDivisionError("negative power of zero")
        if terms is not None and len(terms) == 1:
            ((q, t), c), = terms.items()
            return ScalarQT({(q * k, t * k): _rational(Fraction(c) ** k)})
        num, den = self._pair()
        return ScalarQT(_pow(den, -k), _pow(num, -k))

    def eval_at(self, q0, t0) -> Fraction:
        if self.quot is None and all((q0 != 0 or a >= 0) and (t0 != 0 or b >= 0) for a, b in self.terms):
            return _eval(self.terms, q0, t0)  # no zero meets a negative power: no num / den
        num, den = self._pair()
        d = _eval(den, q0, t0)
        if d == 0:
            raise ZeroDivisionError(f"denominator {_terms_str(den)} vanishes at (q,t)=({q0},{t0})")
        return _eval(num, q0, t0) / d

    def as_poly(self) -> ScalarQT | None:
        """This scalar if it is a polynomial: a Laurent form with no negative
        exponent.  A reduced quotient never is one: an exact quotient collapses."""
        if self.terms is None or any(a < 0 or b < 0 for a, b in self.terms):
            return None
        return self

    def as_integer_poly(self) -> ScalarQT | None:
        """as_poly restricted to integer coefficients."""
        p = self.as_poly()
        return p if p is not None and all(c.denominator == 1 for c in p.terms.values()) else None

    def __str__(self) -> str:
        if self.as_integer_poly() is not None:  # its own num over 1: printed in one pass
            return _terms_str(self.terms)
        num, den = self._pair()
        return _terms_str(num) if den == _UNIT else f"{_terms_str(num)} / {_terms_str(den)}"

    def __repr__(self) -> str:
        return f"ScalarQT({self})"


def rational(value) -> ScalarQT:
    return ScalarQT.wrap(_rational(value))


def _operand(other):
    """An arithmetic operand as a ScalarQT, or NotImplemented when it is not a
    scalar, so that Python asks the other operand (an element's scale)."""
    if type(other) is ScalarQT:
        return other
    if isinstance(other, (int, Fraction)):
        return ScalarQT({(0, 0): _rational(other)} if other else {})
    return NotImplemented


def _lower(value):
    """value in normal form: a ScalarQT free of q and t as its int or Fraction,
    an integral Fraction as its int."""
    if type(value) is Fraction:
        return value.numerator if value.denominator == 1 else value
    if type(value) is ScalarQT and value.terms is not None and value.terms.keys() <= _UNIT.keys():
        return value.terms.get((0, 0), 0)
    return value


def _times(a, b):
    """a * b in normal form, the one coefficient product; the int 1 costs no multiplication."""
    if type(a) is int and a == 1:
        return _lower(b)
    if type(b) is int and b == 1:
        return _lower(a)
    return _lower(a * b)


def _coeff(value):
    """value as a coefficient in normal form.  A non-scalar is refused, as by wrap."""
    return _rational(value) if isinstance(value, (int, Fraction)) else _lower(ScalarQT.wrap(value))


def _format(value) -> str:
    """str(ScalarQT.wrap(value)), without the wrapping."""
    if type(value) is Fraction and value.denominator != 1:
        return f"{value.numerator} / {value.denominator}"
    return str(value)


ZERO = ScalarQT({})
ONE = ScalarQT(_UNIT)
Q = ScalarQT({(1, 0): 1})
T = ScalarQT({(0, 1): 1})


class ScalarParseError(ValueError):
    """Input does not follow the canonical scalar grammar."""


_FACTOR = r"(?:\d+|[qt](?:\^\d+)?)"
_TERM = rf"{_FACTOR}(?:\*{_FACTOR})*"
_POLY = re.compile(rf"[+-]?{_TERM}(?:[+-]{_TERM})*")
_SIGNED_TERM = re.compile(rf"([+-]?)({_TERM})")


def _parse_poly(text: str) -> dict:
    text = text.replace(" ", "")
    if not _POLY.fullmatch(text):
        raise ScalarParseError(f"malformed polynomial {text!r}")
    out: dict = {}
    for sign, term in _SIGNED_TERM.findall(text):
        coeff, qe, te = (-1 if sign == "-" else 1), 0, 0
        for factor in term.split("*"):
            if factor[0] == "q":
                qe += int(factor[2:] or 1)
            elif factor[0] == "t":
                te += int(factor[2:] or 1)
            else:
                coeff *= int(factor)
        out = _add(out, {(qe, te): coeff} if coeff else {})
    return out


def parse_scalar(text: str) -> ScalarQT:
    """Parse the canonical string form, optionally 'num / den'."""
    pieces = text.split("/")
    if len(pieces) > 2:
        raise ScalarParseError(f"more than one '/' in {text!r}")
    num, *den = map(_parse_poly, pieces)
    if den and not den[0]:
        raise ScalarParseError(f"zero denominator in {text!r}")
    return ScalarQT(num, *den)
