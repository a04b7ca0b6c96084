"""QSym over the q,t fraction field: bases M, L, E, Pi(nu) and their Hopf structure.

Every element stores one basis tag; mixed-basis arithmetic meets in M.  The
order conventions are the refinement-sum ones,

    L_{comp(K)} = sum_{K <= I} M_{comp(I)},    E_{comp(K)} = sum_{I <= K} M_{comp(I)},

validated downstream by the duality and Hopf-axiom tests rather than trusted
from any display.  Every transition between two bases, here and in NSym,
factors over the n-1 coordinates of a subset mask: each basis has one 2x2
factor into its hub, and `convert` expands a label by the composed factor
src @ tgt^-1, one coordinate at a time.  The hub routes through M and H are
the test oracle (tests/convert_oracle.py).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .compositions import (
    Composition,
    SubsetLabel,
    a_shuffle,
    comp_of_set,
    iter_submasks,
    overlapping_shuffles,
    set_of_comp,
)
from .scalars import ONE, ZERO, ScalarQT, _rational, parse_scalar, rational

BASES = ("M", "L", "E", "Pi")


def _full_mask(n: int) -> int:
    return (1 << (n - 1)) - 1 if n >= 1 else 0


def _comp(parts) -> Composition:
    """parts as a Composition; one already built is kept as it is."""
    return parts if type(parts) is Composition else Composition(parts)


def _wrap_terms(terms) -> dict[Composition, ScalarQT]:
    out: dict[Composition, ScalarQT] = {}
    for comp, coeff in terms.items():
        coeff = ScalarQT.wrap(coeff)
        if not coeff.is_zero():
            out[_comp(comp)] = coeff
    return out


def _add_term(acc: dict, key, coeff) -> None:
    cur = acc.get(key)
    new = coeff if cur is None else cur + coeff
    if new.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = new


# A hub factor F of a basis is its 2x2 transition into the hub at one
# coordinate of a subset mask: where a label's bit is a, the hub bit b carries
# F[a][b], and a label's hub expansion is the product of those entries over its
# coordinates.  The entries are Fractions (QSym, hub M) or ScalarQT (NSym, hub
# H), so the inverse below stays exact; an integral composed Fraction entry is
# kept as an int, which keeps the products of the L, E and M rows in ints.
# 256 cache entries hold every ordered pair of both algebras for dozens of nu.
@lru_cache(maxsize=256)
def _transition(hub_factor, src: str, src_nu, tgt: str, tgt_nu) -> tuple:
    """The composed factor src @ tgt^-1 of hub_factor's bases, as the nonzero
    (target bit, entry) pairs of its row for source bit 0 and for source bit 1."""
    (a, b), (c, d) = hub_factor(tgt, tgt_nu)
    det = a * d - b * c
    inv = ((d / det, -b / det), (-c / det, a / det))
    return tuple(
        tuple(
            (k, _rational(e) if type(e) is Fraction else e)
            for k in (0, 1)
            if (e := x * inv[0][k] + y * inv[1][k])
        )
        for x, y in hub_factor(src, src_nu)
    )


def _expand(hub_factor, src: str, src_nu, tgt: str, tgt_nu, n: int, mask: int) -> dict:
    """The label `mask` of degree n in basis src, expanded in tgt as
    {target mask: entry}.  Each of the n-1 coordinates multiplies in its row of
    the composed factor and adds a fresh bit, so no two products share a mask."""
    factor = _transition(hub_factor, src, src_nu, tgt, tgt_nu)
    out = {0: 1}
    for i in range(n - 1):
        row = factor[mask >> i & 1]
        out = {m | k << i: c * e for m, c in out.items() for k, e in row}
    return out


class QSymElem:
    """A finite linear combination of basis labels in a single basis."""

    __slots__ = ("basis", "nu", "terms")

    def __init__(self, basis: str, terms=None, nu: int | None = None):
        if basis not in BASES:
            raise ValueError(f"unknown QSym basis {basis!r}")
        if basis == "Pi":
            if nu is None or nu < 2:
                raise ValueError("the Pi basis needs an integer parameter nu >= 2")
        elif nu is not None:
            raise ValueError(f"basis {basis} takes no nu parameter")
        self.basis = basis
        self.nu = nu
        self.terms = _wrap_terms(terms or {})

    @classmethod
    def basis_elem(cls, basis: str, parts, nu: int | None = None) -> "QSymElem":
        return cls(basis, {Composition(parts): ONE}, nu=nu)

    @classmethod
    def zero(cls, basis: str = "M", nu: int | None = None) -> "QSymElem":
        return cls(basis, {}, nu=nu)

    @classmethod
    def unit(cls, basis: str = "M", nu: int | None = None) -> "QSymElem":
        return cls.basis_elem(basis, (), nu=nu)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, parts) -> ScalarQT:
        return self.terms.get(Composition(parts), ZERO)

    def scale(self, c) -> "QSymElem":
        c = ScalarQT.wrap(c)
        return QSymElem(
            self.basis, {a: v * c for a, v in self.terms.items()}, nu=self.nu
        )

    def __add__(self, other: "QSymElem") -> "QSymElem":
        if self.basis == other.basis and self.nu == other.nu:
            out = dict(self.terms)
            for a, v in other.terms.items():
                _add_term(out, a, v)
            return QSymElem(self.basis, out, nu=self.nu)
        return convert(self, "M") + convert(other, "M")

    def __sub__(self, other: "QSymElem") -> "QSymElem":
        return self + other.scale(-1)

    def __mul__(self, other):
        if isinstance(other, QSymElem):
            return product(self, other)
        return self.scale(other)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSymElem):
            return NotImplemented
        a = self if self.basis == "M" else convert(self, "M")
        b = other if other.basis == "M" else convert(other, "M")
        if set(a.terms) != set(b.terms):
            return False
        return all(a.terms[k] == b.terms[k] for k in a.terms)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        tag = f"Pi({self.nu})" if self.basis == "Pi" else self.basis
        bits = []
        for comp in sorted(self.terms, key=tuple):
            bits.append(f"({self.terms[comp]})*{tag}{comp!r}")
        return " + ".join(bits)

    def to_json_dict(self) -> dict:
        out = {
            "basis": self.basis,
            "terms": [
                {"comp": list(comp), "coeff": str(self.terms[comp])}
                for comp in sorted(self.terms, key=tuple)
            ],
        }
        if self.nu is not None:
            out["nu"] = self.nu
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "QSymElem":
        terms = {
            Composition(item["comp"]): parse_scalar(item["coeff"])
            for item in data["terms"]
        }
        return cls(data["basis"], terms, nu=data.get("nu"))


def M(parts) -> QSymElem:
    return QSymElem.basis_elem("M", parts)


def L(parts) -> QSymElem:
    return QSymElem.basis_elem("L", parts)


def E(parts) -> QSymElem:
    return QSymElem.basis_elem("E", parts)


def Pi(parts, nu: int) -> QSymElem:
    return QSymElem.basis_elem("Pi", parts, nu=nu)


# ---------------------------------------------------------------------------
# Transition displays at the subset level (fixed degree n, masks over [n-1])


def pi_from_L_entry(n: int, imask: int, jmask: int, nu: int) -> Fraction:
    """Coefficient of Pi_{comp(J)} in L_{comp(I)}."""
    if n == 0:
        return Fraction(1)
    j_minus_i = (jmask & ~imask).bit_count()
    meet = (imask & jmask).bit_count()
    return Fraction((-1) ** j_minus_i * (nu - 1) ** meet)


def L_from_pi_entry(n: int, jmask: int, imask: int, nu: int) -> Fraction:
    """Coefficient of L_{comp(I)} in Pi_{comp(J)}."""
    if n == 0:
        return Fraction(1)
    j_minus_i = (jmask & ~imask).bit_count()
    union_c = (n - 1) - (imask | jmask).bit_count()
    return Fraction((-1) ** j_minus_i * (nu - 1) ** union_c, nu ** (n - 1))


def pi_from_M_entry(n: int, imask: int, jmask: int, nu: int) -> Fraction:
    """Coefficient of Pi_{comp(J)} in M_{comp(I)}; zero unless I u J = [n-1]."""
    if n == 0:
        return Fraction(1)
    if (imask | jmask) != _full_mask(n):
        return Fraction(0)
    j_minus_i = (jmask & ~imask).bit_count()
    meet = (imask & jmask).bit_count()
    return Fraction((-nu) ** j_minus_i * (nu - 1) ** meet)


def M_from_pi_entry(n: int, jmask: int, imask: int, nu: int) -> Fraction:
    """Coefficient of M_{comp(I)} in Pi_{comp(J)}; zero unless I n J is empty."""
    if n == 0:
        return Fraction(1)
    if imask & jmask:
        return Fraction(0)
    jj = jmask.bit_count()
    ii = imask.bit_count()
    return Fraction(1, (1 - nu) ** jj) * Fraction(nu - 1, nu) ** ((n - 1) - ii)


# ---------------------------------------------------------------------------
# Basis conversion


def _m_factor(basis: str, nu: int | None) -> tuple:
    """The hub factor into M: L_K = sum_{I >= K} M_I, E_K = sum_{I <= K} M_I,
    and M_from_pi_entry one coordinate at a time."""
    one, nil = Fraction(1), Fraction(0)
    if basis == "Pi":
        return (Fraction(nu - 1, nu), one), (Fraction(-1, nu), nil)
    return {
        "M": ((one, nil), (nil, one)),
        "L": ((one, one), (nil, one)),
        "E": ((one, nil), (one, one)),
    }[basis]


def convert(x: QSymElem, target: str, nu: int | None = None) -> QSymElem:
    """Change of basis; linear, invertible, degree-preserving."""
    if target not in BASES:
        raise ValueError(f"unknown QSym basis {target!r}")
    if target == "Pi" and (nu is None or nu < 2):
        raise ValueError("converting to Pi needs nu >= 2")
    if target != "Pi":
        nu = None
    if x.basis == target and x.nu == nu:
        return x
    acc: dict[tuple[int, int], ScalarQT] = {}  # keyed by (degree, mask)
    for comp, coeff in x.terms.items():
        n = comp.size
        row = _expand(_m_factor, x.basis, x.nu, target, nu, n, set_of_comp(comp).mask)
        for tmask, c in row.items():
            _add_term(acc, (n, tmask), coeff * c)
    terms = {comp_of_set(SubsetLabel(n, m)): v for (n, m), v in acc.items()}
    return QSymElem(target, terms, nu=nu)


# ---------------------------------------------------------------------------
# Product, coproduct, antipode


# 4096 entries hold every (I, J) pair with m + n <= 9.
@lru_cache(maxsize=4096)
def _l_product_masks(m: int, n: int, imask: int, jmask: int) -> tuple[tuple[int, int], ...]:
    """Multiset of a_shuffle masks over all selectors A, as (mask, mult) pairs."""
    I = SubsetLabel(m, imask)
    J = SubsetLabel(n, jmask)
    counts: dict[int, int] = {}
    for A in itertools.combinations(range(1, m + n + 1), n):
        res = a_shuffle(I, J, frozenset(A), m, n)
        counts[res.mask] = counts.get(res.mask, 0) + 1
    return tuple(sorted(counts.items()))


def product(x: QSymElem, y: QSymElem) -> QSymElem:
    """Product; the A-shuffle route when both factors are in L, the
    overlapping-shuffle route through M otherwise."""
    if x.basis == "L" and y.basis == "L":
        acc: dict[Composition, ScalarQT] = {}
        for ca, va in x.terms.items():
            for cb, vb in y.terms.items():
                m, n = ca.size, cb.size
                pairs = _l_product_masks(m, n, set_of_comp(ca).mask, set_of_comp(cb).mask)
                v = va * vb
                for mask, mult in pairs:
                    _add_term(acc, comp_of_set(SubsetLabel(m + n, mask)), v * mult)
        return QSymElem("L", acc)
    a = convert(x, "M")
    b = convert(y, "M")
    acc = {}
    for ca, va in a.terms.items():
        for cb, vb in b.terms.items():
            v = va * vb
            for gamma, mult in overlapping_shuffles(ca, cb).items():
                _add_term(acc, gamma, v * mult)
    return QSymElem("M", acc)


class QSymTensor:
    """A sum of pure tensors QSym (x) QSym, one basis tag per side."""

    __slots__ = ("bases", "terms")

    def __init__(self, bases: tuple[str, str], terms=None):
        for b in bases:
            if b not in ("M", "L", "E"):
                raise ValueError(f"tensor sides must be parameter-free bases, got {b}")
        self.bases = bases
        self.terms = {}
        for (ca, cb), coeff in (terms or {}).items():
            coeff = ScalarQT.wrap(coeff)
            if not coeff.is_zero():
                self.terms[(_comp(ca), _comp(cb))] = coeff

    def convert(self, bases: tuple[str, str]) -> "QSymTensor":
        acc: dict[tuple[Composition, Composition], ScalarQT] = {}
        for (ca, cb), coeff in self.terms.items():
            left = convert(QSymElem(self.bases[0], {ca: ONE}), bases[0])
            right = convert(QSymElem(self.bases[1], {cb: ONE}), bases[1])
            for la, va in left.terms.items():
                for lb, vb in right.terms.items():
                    _add_term(acc, (la, lb), coeff * va * vb)
        return QSymTensor(bases, acc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSymTensor):
            return NotImplemented
        a = self.convert(("M", "M")) if self.bases != ("M", "M") else self
        b = other.convert(("M", "M")) if other.bases != ("M", "M") else other
        if set(a.terms) != set(b.terms):
            return False
        return all(a.terms[k] == b.terms[k] for k in a.terms)

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "QSymTensor") -> "QSymTensor":
        if self.bases != other.bases:
            return self.convert(("M", "M")) + other.convert(("M", "M"))
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            _add_term(out, key, coeff)
        return QSymTensor(self.bases, out)

    def product(self, other: "QSymTensor") -> "QSymTensor":
        """(a (x) b)(c (x) d) = ac (x) bd, both sides in M."""
        a = self.convert(("M", "M"))
        b = other.convert(("M", "M"))
        acc: dict[tuple[Composition, Composition], ScalarQT] = {}
        for (ca, cb), va in a.terms.items():
            for (cc, cd), vb in b.terms.items():
                v = va * vb
                left = overlapping_shuffles(ca, cc)
                right = overlapping_shuffles(cb, cd)
                for gl, ml in left.items():
                    for gr, mr in right.items():
                        _add_term(acc, (gl, gr), v * (ml * mr))
        return QSymTensor(("M", "M"), acc)

    def __repr__(self) -> str:
        bits = [
            f"({coeff})*{self.bases[0]}{a!r}(x){self.bases[1]}{b!r}"
            for (a, b), coeff in sorted(self.terms.items())
        ]
        return " + ".join(bits) if bits else "0"


def coproduct(x: QSymElem) -> QSymTensor:
    """Deconcatenation on M; split-or-fuse on L; through M otherwise."""
    if x.basis == "L":
        acc: dict[tuple[Composition, Composition], ScalarQT] = {}
        for comp, coeff in x.terms.items():
            n = comp.size
            members = set(set_of_comp(comp).members)
            for k in range(n + 1):
                left = frozenset(i for i in members if i < k)
                right = frozenset(i - k for i in members if i > k)
                _add_term(
                    acc,
                    (
                        comp_of_set(SubsetLabel.of(k, left)),
                        comp_of_set(SubsetLabel.of(n - k, right)),
                    ),
                    coeff,
                )
        return QSymTensor(("L", "L"), acc)
    m = convert(x, "M")
    acc = {}
    for comp, coeff in m.terms.items():
        for k in range(len(comp) + 1):
            _add_term(acc, (Composition(comp[:k]), Composition(comp[k:])), coeff)
    return QSymTensor(("M", "M"), acc)


def counit(x: QSymElem) -> ScalarQT:
    return convert(x, "M").coefficient(())


def antipode_M(alpha) -> QSymElem:
    """S(M_alpha): signed sum of M over the coarsenings of the reverse."""
    alpha = Composition(alpha)
    rev_mask = set_of_comp(alpha.reverse()).mask
    n = alpha.size
    sign = rational((-1) ** alpha.length)
    terms: dict[Composition, ScalarQT] = {}
    for sub in iter_submasks(rev_mask):
        terms[comp_of_set(SubsetLabel(n, sub))] = sign
    return QSymElem("M", terms)


def antipode(x: QSymElem) -> QSymElem:
    acc: dict[Composition, ScalarQT] = {}
    for comp, coeff in convert(x, "M").terms.items():
        for gamma, sign in antipode_M(comp).terms.items():
            _add_term(acc, gamma, sign * coeff)
    return QSymElem("M", acc)
