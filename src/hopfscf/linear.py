"""Finite linear combinations over a labelled basis: the one free-module core.

Every element class of hopfscf is a sparse dict `terms` from basis labels to
nonzero coefficients: QSym and NSym in one basis, their tensor squares, Sym in
h and the superclass functions.  `LinComb` holds everything they share; a
subclass supplies only

- its tag, the slots named in `_TAG` (a basis, a nu, a pair of bases), and
  the validation of the tag in its `__init__`;
- `_key`, the normaliser that validates one label from outside;
- `_coeff`, the exact coercion that refuses floats: `scalars._coeff`, which
  keeps a constant an int or a Fraction and a ScalarQT only where q or t
  enters, or `scalars._rational` for ScfElem's rational coefficients;
- `_label`, the printed form of one label;
- `_hub`, the element in the basis where mixed-basis `==` and `+` meet (the
  element itself where the class has one basis);
- its product, by overriding `__mul__`.

Input from outside goes through the public constructor, which validates each
label and drops zero coefficients.  Results built inside the package (`+`,
`scale`, products, conversions) have clean terms already and take the trusted
route `_with_terms`, which checks nothing.  No operation writes into an
operand's dict: `convert` returns its argument itself when the basis already
matches, so an accumulator that did would corrupt the caller's element.

Every product, coproduct and basis map is a rule on basis labels, extended
linearly by `extend` or bilinearly by `extend2`; those two are where a
linear combination is accumulated, always into a fresh dict.  Every
coefficient product is `scalars._times` and every sum `_add_term`, and both
lower a q,t cancellation to an int or a Fraction: no element stores a
constant ScalarQT.  The one exception is `extend2` on two all-rational
dicts, which clears their denominators and sums an int rule coefficient's
products as plain ints, dividing each nonzero sum once at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .scalars import ScalarQT, _coeff, _format, _lower, _ratio, _times, parse_scalar


def _add_term(acc: dict, key, coeff) -> None:
    """Add coeff to acc[key] in normal form, dropping the key when the sum is zero."""
    cur = acc.get(key)
    new = coeff if cur is None else _lower(cur + coeff)
    if new:
        acc[key] = new
    else:
        acc.pop(key, None)


def extend(pairs, rule) -> dict:
    """The linear extension of a rule on basis labels: the sum over the
    (label, coefficient) pairs of coefficient * c * out, for each (out, c) that
    rule(label) yields, as fresh terms with zero sums dropped."""
    acc: dict = {}
    for label, v in pairs:
        for key, c in rule(label):
            _add_term(acc, key, _times(v, c))
    return acc


def tensor_terms(x_terms: dict, y_terms: dict):
    """The pure tensors of two term dicts, as ((a, b), va * vb) pairs."""
    return (((a, b), _times(va, vb)) for a, va in x_terms.items() for b, vb in y_terms.items())


def _denominator(terms: dict) -> int:
    """The lcm of the denominators of all-rational terms; 0 if one is a ScalarQT."""
    if any(type(v) is ScalarQT for v in terms.values()):
        return 0
    return lcm(*(v.denominator for v in terms.values()))


def extend2(x_terms: dict, y_terms: dict, rule) -> dict:
    """The bilinear extension of rule(a, b) over two term dicts: each (out, c)
    it yields counts va * vb * c.

    Two all-rational dicts are cleared of their denominators dx and dy first,
    so an int c adds a plain int product, any other c goes through `_times`
    and `_add_term`, and each nonzero sum is divided by dx * dy once; a dict
    holding a ScalarQT is extended as it is."""
    dx, dy = _denominator(x_terms), _denominator(y_terms)
    if not (dx and dy):
        return extend(tensor_terms(x_terms, y_terms), lambda ab: rule(*ab))
    xs = {a: v.numerator * (dx // v.denominator) for a, v in x_terms.items()}
    ys = {b: v.numerator * (dy // v.denominator) for b, v in y_terms.items()}
    acc: dict = {}
    for a, va in xs.items():
        for b, vb in ys.items():
            v = va * vb
            for key, c in rule(a, b):
                if type(c) is int:
                    acc[key] = acc.get(key, 0) + v * c
                else:
                    _add_term(acc, key, _times(v, c))
    d = dx * dy
    return {k: _ratio(v, d) if type(v) is int else _times(v, Fraction(1, d)) for k, v in acc.items() if v}


class LinComb:
    """A finite linear combination of basis labels, tagged by its basis."""

    __slots__ = ("terms",)
    _TAG: tuple[str, ...] = ()
    _coeff = staticmethod(_coeff)

    def __init__(self, terms=None):
        self.terms = {}
        for key, coeff in (terms or {}).items():
            key, coeff = self._key(key), self._coeff(coeff)
            if coeff:
                self.terms[key] = coeff

    def _tag(self) -> tuple:
        return tuple(getattr(self, name) for name in self._TAG)

    def _with_terms(self, terms: dict):
        """The trusted constructor: self's tag over terms whose labels are
        normalised and whose coefficients are exact and nonzero."""
        out = object.__new__(type(self))
        for name in self._TAG:
            setattr(out, name, getattr(self, name))
        out.terms = terms
        return out

    def _hub(self):
        return self

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, key) -> ScalarQT:
        return ScalarQT.wrap(self.terms.get(self._key(key), 0))

    def scale(self, c):
        c = self._coeff(c)
        # a product of nonzero field elements is nonzero
        return self._with_terms({k: _times(v, c) for k, v in self.terms.items()} if c else {})

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        a, b = self, other
        if a._tag() != b._tag():
            a, b = a._hub(), b._hub()
            if a._tag() != b._tag():
                raise ValueError(f"cannot mix {type(self).__name__}s tagged {a._tag()} and {b._tag()}")
        out = dict(a.terms)
        for key, coeff in b.terms.items():
            _add_term(out, key, coeff)
        return a._with_terms(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        if self._tag() == other._tag():
            return self.terms == other.terms
        a, b = self._hub(), other._hub()
        return a._tag() == b._tag() and a.terms == b.terms

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({_format(self.terms[k])})*{self._label(k)}" for k in sorted(self.terms))

    # JSON, for the classes that name a `basis` and have sequences as labels

    def to_json_dict(self) -> dict:
        printed: dict = {}  # by id: a conversion shares one coefficient among many labels
        terms = [
            {"comp": list(k), "coeff": printed.get(id(v)) or printed.setdefault(id(v), _format(v))}
            for k, v in sorted(self.terms.items())
        ]
        out = {"basis": self.basis, "terms": terms}
        out.update((name, v) for name, v in zip(self._TAG, self._tag()) if v is not None)
        return out

    @classmethod
    def from_json_dict(cls, data: dict):
        terms = {cls._key(item["comp"]): parse_scalar(item["coeff"]) for item in data["terms"]}
        return cls(terms=terms, **{name: data.get(name) for name in cls._TAG})
