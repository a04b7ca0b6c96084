"""Fraction-field reference for hopfscf.scalars.

This is the scalar implementation hopfscf had before its Laurent ring, kept
whole as the slow oracle: every value is a quotient of two PolyQT values,
reduced best-effort after each operation (common monomial and integer content
stripped, exact quotients collapsed), and equality is cross-multiplication.
The Laurent ring must agree with it on every value, print every value the
same way and parse what it prints the same way.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Monomial = tuple[int, int]  # (q-exponent, t-exponent)


def _display_key(mono: Monomial) -> tuple[int, int]:
    # total degree descending, then q-degree descending
    return (-(mono[0] + mono[1]), -mono[0])


class PolyQT:
    """Sparse polynomial in commuting q and t with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, Fraction] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    clean[mono] = coeff
        self.terms = clean

    @classmethod
    def constant(cls, c) -> "PolyQT":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def monomial(cls, qexp: int, texp: int, coeff=1) -> "PolyQT":
        if qexp < 0 or texp < 0:
            raise ValueError("polynomial exponents must be nonnegative")
        return cls({(qexp, texp): Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyQT) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "PolyQT") -> "PolyQT":
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            new = out.get(mono, 0) + coeff
            if new:
                out[mono] = new
            else:
                out.pop(mono, None)
        return PolyQT(out)

    def __neg__(self) -> "PolyQT":
        return PolyQT({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "PolyQT") -> "PolyQT":
        return self + (-other)

    def __mul__(self, other: "PolyQT") -> "PolyQT":
        out: dict[Monomial, Fraction] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                mono = (a1 + a2, b1 + b2)
                new = out.get(mono, 0) + c1 * c2
                if new:
                    out[mono] = new
                else:
                    out.pop(mono, None)
        return PolyQT(out)

    def scale(self, c) -> "PolyQT":
        c = Fraction(c)
        return PolyQT({m: v * c for m, v in self.terms.items()})

    def __pow__(self, k: int) -> "PolyQT":
        if k < 0:
            raise ValueError("negative power of a polynomial; use ScalarQT")
        out = PolyQT.constant(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def eval_at(self, q0, t0) -> Fraction:
        q0, t0 = Fraction(q0), Fraction(t0)
        total = Fraction(0)
        for (a, b), c in self.terms.items():
            total += c * q0**a * t0**b
        return total

    def leading(self) -> tuple[Monomial, Fraction]:
        mono = min(self.terms, key=_display_key)
        return mono, self.terms[mono]

    def exact_div(self, divisor: "PolyQT") -> "PolyQT | None":
        """Quotient if divisor divides self exactly, else None."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return PolyQT()
        (dq, dt), dc = divisor.leading()
        quot: dict[Monomial, Fraction] = {}
        rem = self
        while not rem.is_zero():
            (rq, rt), rc = rem.leading()
            if rq < dq or rt < dt:
                return None
            mono = (rq - dq, rt - dt)
            coeff = rc / dc
            quot[mono] = coeff
            rem = rem - divisor * PolyQT({mono: coeff})
        return PolyQT(quot)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    def min_exponents(self) -> Monomial:
        if self.is_zero():
            return (0, 0)
        return (
            min(a for a, _ in self.terms),
            min(b for _, b in self.terms),
        )

    def shift_down(self, dq: int, dt: int) -> "PolyQT":
        return PolyQT({(a - dq, b - dt): c for (a, b), c in self.terms.items()})

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"PolyQT({poly_to_str(self)})"


POLY_ZERO = PolyQT()
POLY_ONE = PolyQT.constant(1)


def _term_str(mono: Monomial, coeff: Fraction) -> str:
    a, b = mono
    factors = []
    if abs(coeff) != 1 or (a == 0 and b == 0):
        factors.append(str(abs(coeff)))
    if a:
        factors.append("q" if a == 1 else f"q^{a}")
    if b:
        factors.append("t" if b == 1 else f"t^{b}")
    return "*".join(factors)


def poly_to_str(p: PolyQT) -> str:
    """Canonical form: monomials by total degree then q-degree, both descending."""
    if p.is_zero():
        return "0"
    parts = []
    for mono in sorted(p.terms, key=_display_key):
        coeff = p.terms[mono]
        body = _term_str(mono, coeff)
        if not parts:
            parts.append(("-" if coeff < 0 else "") + body)
        else:
            parts.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(parts)


class ScalarQT:
    """Element of the fraction field of PolyQT."""

    __slots__ = ("num", "den")

    def __init__(self, num: PolyQT, den: PolyQT = POLY_ONE):
        if den.is_zero():
            raise ZeroDivisionError("scalar with zero denominator")
        self.num, self.den = _reduce(num, den)

    @classmethod
    def wrap(cls, value) -> "ScalarQT":
        if isinstance(value, ScalarQT):
            return value
        if isinstance(value, PolyQT):
            return cls(value)
        return cls(PolyQT.constant(value))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, (ScalarQT, PolyQT, int, Fraction)):
            return NotImplemented
        other = ScalarQT.wrap(other)
        return self.num * other.den == other.num * self.den

    # Equality is cross-multiplication on non-canonical forms; no stable hash.
    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other) -> "ScalarQT":
        other = ScalarQT.wrap(other)
        if self.den == other.den:
            return ScalarQT(self.num + other.num, self.den)
        return ScalarQT(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "ScalarQT":
        return ScalarQT(-self.num, self.den)

    def __sub__(self, other) -> "ScalarQT":
        return self + (-ScalarQT.wrap(other))

    def __rsub__(self, other) -> "ScalarQT":
        return ScalarQT.wrap(other) - self

    def __mul__(self, other) -> "ScalarQT":
        other = ScalarQT.wrap(other)
        return ScalarQT(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ScalarQT":
        other = ScalarQT.wrap(other)
        if other.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        return ScalarQT(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "ScalarQT":
        return ScalarQT.wrap(other) / self

    def __pow__(self, k: int) -> "ScalarQT":
        if k >= 0:
            return ScalarQT(self.num**k, self.den**k)
        if self.is_zero():
            raise ZeroDivisionError("negative power of zero")
        return ScalarQT(self.den ** (-k), self.num ** (-k))

    def eval_at(self, q0, t0) -> Fraction:
        d = self.den.eval_at(q0, t0)
        if d == 0:
            raise ZeroDivisionError(
                f"denominator {poly_to_str(self.den)} vanishes at (q,t)=({q0},{t0})"
            )
        return self.num.eval_at(q0, t0) / d

    def substitute(self, q_expr: "ScalarQT", t_expr: "ScalarQT") -> "ScalarQT":
        """Formal composition q -> q_expr, t -> t_expr."""

        def poly_subst(p: PolyQT) -> ScalarQT:
            total = ZERO
            for (a, b), c in p.terms.items():
                total = total + ScalarQT.wrap(c) * q_expr**a * t_expr**b
            return total

        num_s = poly_subst(self.num)
        den_s = poly_subst(self.den)
        if den_s.is_zero():
            raise ZeroDivisionError("substitution produced a zero denominator")
        return num_s / den_s

    def is_polynomial(self) -> bool:
        return self.as_poly() is not None

    def as_poly(self) -> PolyQT | None:
        """The polynomial this scalar equals, when the denominator divides out."""
        if self.den == POLY_ONE:
            return self.num
        return self.num.exact_div(self.den)

    def as_integer_poly(self) -> PolyQT | None:
        """as_poly restricted to integer coefficients."""
        p = self.as_poly()
        if p is not None and p.is_integral():
            return p
        return None

    def __str__(self) -> str:
        if self.den == POLY_ONE:
            return poly_to_str(self.num)
        return f"{poly_to_str(self.num)} / {poly_to_str(self.den)}"

    def __repr__(self) -> str:
        return f"ScalarQT({self})"


def _integer_normalize(num: PolyQT, den: PolyQT) -> tuple[PolyQT, PolyQT]:
    coeffs = list(num.terms.values()) + list(den.terms.values())
    if not coeffs:
        return num, den
    den_lcm = 1
    for c in coeffs:
        den_lcm = lcm(den_lcm, c.denominator)
    num_gcd = 0
    for c in coeffs:
        num_gcd = gcd(num_gcd, abs(c.numerator))
    factor = Fraction(den_lcm, num_gcd) if num_gcd else Fraction(den_lcm)
    return num.scale(factor), den.scale(factor)


def _reduce(num: PolyQT, den: PolyQT) -> tuple[PolyQT, PolyQT]:
    if num.is_zero():
        return POLY_ZERO, POLY_ONE
    if den == POLY_ONE:
        if num.is_integral():
            return num, POLY_ONE
        num, den = _integer_normalize(num, den)
        if den.leading()[1] < 0:
            num, den = -num, -den
        return num, den
    # common monomial content
    nq, nt = num.min_exponents()
    dq, dt = den.min_exponents()
    cq, ct = min(nq, dq), min(nt, dt)
    if cq or ct:
        num = num.shift_down(cq, ct)
        den = den.shift_down(cq, ct)
    # collapse exact quotients
    quotient = num.exact_div(den)
    if quotient is not None:
        num, den = quotient, POLY_ONE
    # integer content and sign of the denominator's leading term
    num, den = _integer_normalize(num, den)
    if den.leading()[1] < 0:
        num, den = -num, -den
    return num, den


ZERO = ScalarQT(POLY_ZERO)
ONE = ScalarQT(POLY_ONE)
Q = ScalarQT(PolyQT.monomial(1, 0))
T = ScalarQT(PolyQT.monomial(0, 1))


def rational(value) -> ScalarQT:
    return ScalarQT(PolyQT.constant(Fraction(value)))


class ScalarParseError(ValueError):
    """Input does not follow the canonical scalar grammar."""


def _parse_poly(text: str) -> PolyQT:
    text = text.replace(" ", "")
    if not text:
        raise ScalarParseError("empty polynomial")
    if text == "0":
        return PolyQT()
    # split into signed terms
    terms: list[tuple[int, str]] = []
    sign, start = 1, 0
    if text[0] in "+-":
        sign = -1 if text[0] == "-" else 1
        start = 1
    cur = start
    buf_start = start
    while cur <= len(text):
        if cur == len(text) or text[cur] in "+-":
            chunk = text[buf_start:cur]
            if not chunk:
                raise ScalarParseError(f"malformed polynomial {text!r}")
            terms.append((sign, chunk))
            if cur < len(text):
                sign = -1 if text[cur] == "-" else 1
            buf_start = cur + 1
        cur += 1
    out: dict[Monomial, Fraction] = {}
    for sgn, chunk in terms:
        coeff = Fraction(sgn)
        qe = te = 0
        for factor in chunk.split("*"):
            if not factor:
                raise ScalarParseError(f"malformed term {chunk!r}")
            if factor[0] in "qt":
                var, caret, exp = factor.partition("^")
                if var not in ("q", "t"):
                    raise ScalarParseError(f"unknown variable {var!r}")
                if caret and not exp:
                    raise ScalarParseError(f"missing exponent in {factor!r}")
                e = int(exp) if exp else 1
                if e < 0:
                    raise ScalarParseError("negative exponent in polynomial")
                if var == "q":
                    qe += e
                else:
                    te += e
            else:
                try:
                    coeff *= int(factor)
                except ValueError as exc:
                    raise ScalarParseError(f"bad coefficient {factor!r}") from exc
        out[(qe, te)] = out.get((qe, te), Fraction(0)) + coeff
    return PolyQT(out)


def parse_scalar(text: str) -> ScalarQT:
    """Parse the canonical string form, optionally 'num / den'."""
    pieces = text.split("/")
    if len(pieces) == 1:
        return ScalarQT(_parse_poly(pieces[0]))
    if len(pieces) == 2:
        return ScalarQT(_parse_poly(pieces[0]), _parse_poly(pieces[1]))
    raise ScalarParseError(f"more than one '/' in {text!r}")
