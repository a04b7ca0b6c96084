"""QSym over the q,t fraction field: bases M, L, E, Pi(nu) and their Hopf structure.

`QSymElem` is a `linear.LinComb` of compositions with one basis tag (and nu
for Pi); mixed-basis `==` and `+` meet in M.  `Tensor` is the one tensor
square of both algebras (`QSymTensor` here, `NSymTensor` in nsym), and changes
basis one side at a time through the element kernel.  The order conventions
are the refinement-sum ones,

    L_{comp(K)} = sum_{K <= I} M_{comp(I)},    E_{comp(K)} = sum_{I <= K} M_{comp(I)},

validated downstream by the duality and Hopf-axiom tests rather than trusted
from any display.  Every transition between two bases, here and in NSym,
factors over the n-1 coordinates of a subset mask: each basis has one 2x2
factor into its hub, and `convert` expands a label by the composed factor
src @ tgt^-1, a Kronecker product of one copy per coordinate.  So the entry
of a target label depends only on its signature, how many of its bits lie on
the source's 0 coordinates and how many on its 1 coordinates: the kernel
groups the target masks by signature, builds each distinct entry once from
powers of the factor's entries, and `convert` scales it by the source
coefficient once for the whole group.  The hub routes through M and H, and
the per-coordinate products, are the test oracle (tests/convert_oracle.py).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .compositions import (
    Composition,
    SubsetLabel,
    _full_mask,
    comp_of_mask,
    comp_of_set,
    iter_submasks,
    mask_of_comp,
    overlapping_shuffles,
    selector_masks,
    selectors,
)
from .linear import LinComb, extend, extend2, tensor_terms
from .scalars import ScalarQT, _coeff, _exact_nu, _times

BASES = ("M", "L", "E", "Pi")


# A hub factor F of a basis is its 2x2 transition into the hub at one
# coordinate of a subset mask: where a label's bit is a, the hub bit b carries
# F[a][b], and a label's hub expansion is the product of those entries over its
# coordinates.  The entries are ints, Fractions or ScalarQT in q and t (NSym's
# B and Bhat); the inverse below divides a Fraction 1, so it stays exact, and
# `_coeff` keeps each constant composed entry an int or a Fraction.
# 256 cache entries hold every ordered pair of both algebras for dozens of nu.
@lru_cache(maxsize=256)
def _transition(hub_factor, src: str, src_nu, tgt: str, tgt_nu) -> tuple:
    """The composed factor src @ tgt^-1 of hub_factor's bases, as the nonzero
    (target bit, entry) pairs of its row for source bit 0 and for source bit 1."""
    (a, b), (c, d) = hub_factor(tgt, tgt_nu)
    r = Fraction(1) / (a * d - b * c)
    inv = ((d * r, -b * r), (-c * r, a * r))
    return tuple(
        tuple((k, _coeff(e)) for k in (0, 1) if (e := x * inv[0][k] + y * inv[1][k]))
        for x, y in hub_factor(src, src_nu)
    )


# The interned side entries: shared, and never to be modified.  Their number
# depends on the degree only; 4096 hold both rows of 200 transitions to degree 10.
@lru_cache(maxsize=4096)
def _side_entries(hub_factor, src: str, src_nu, tgt: str, tgt_nu, bit: int, count: int) -> tuple:
    """The nonzero products of the composed factor's row for source bit `bit`
    over `count` coordinates, as (j, entry) pairs, j the target bits set."""
    row = dict(_transition(hub_factor, src, src_nu, tgt, tgt_nu)[bit])
    e0, e1 = row.get(0, 0), row.get(1, 0)
    return tuple((j, e) for j in range(count + 1) if (e := _times(e0 ** (count - j), e1 ** j)))


def _side(entries: tuple, coords: int) -> list:
    """The coordinates in `coords`, which share one source bit and so one row
    of the composed factor, as (entry, target submasks) pairs.  A submask's
    entry depends only on how many target bits j it sets: one pair per j."""
    if len(entries) == 1:
        ((j, e),) = entries
        return [(e, (coords if j else 0,))]
    by_count = [[] for _ in range(coords.bit_count() + 1)]
    for sub in iter_submasks(coords):
        by_count[sub.bit_count()].append(sub)
    return [(e, by_count[j]) for j, e in entries]


def _expand(hub_factor, src: str, src_nu, tgt: str, tgt_nu, n: int, mask: int) -> list:
    """The label `mask` of degree n in basis src, expanded in tgt as
    (entry, target masks) pairs, one per distinct signature.

    A target mask's entry is the product over the n-1 coordinates of the
    composed factor's entry at (source bit, target bit), so it depends only on
    the signature: how many target bits are set on the source's 0 coordinates
    and how many on its 1 coordinates.  The masks are grouped by signature
    before any coefficient is touched, and each group's entry is one product
    of two side entries, which `_side_entries` builds once per transition and
    count: at most (n+1)^2/4 entries instead of 2^(n-1) products of n-1
    factors.  The groups partition the target masks, so no mask appears twice."""
    key, zeros = (hub_factor, src, src_nu, tgt, tgt_nu), _full_mask(n) & ~mask
    ones = _side(_side_entries(*key, 1, mask.bit_count()), mask)
    return [
        (_times(e0, e1), [a | b for a in subs0 for b in subs1])
        for e0, subs0 in _side(_side_entries(*key, 0, zeros.bit_count()), zeros)
        for e1, subs1 in ones
    ]


def _m_factor(basis: str, nu: int | None) -> tuple:
    """The hub factor into M: L_K = sum_{I >= K} M_I, E_K = sum_{I <= K} M_I,
    and M_from_pi_entry one coordinate at a time."""
    if basis == "Pi":
        return (Fraction(nu - 1, nu), 1), (Fraction(-1, nu), 0)
    return {
        "M": ((1, 0), (0, 1)),
        "L": ((1, 1), (0, 1)),
        "E": ((1, 0), (1, 1)),
    }[basis]


def _convert_into(out, x):
    """x expanded by the conversion kernel into the basis of out, an empty
    element of x's algebra with a validated tag.  Each distinct entry of a
    label is scaled by its coefficient once and shared by its target masks."""

    def groups():
        for comp, v in x.terms.items():
            n = comp.size
            for e, masks in _expand(x._factor, x.basis, x.nu, out.basis, out.nu, n, mask_of_comp(comp)):
                yield (n, masks), _times(v, e)

    # keyed by (degree, mask), so each output label is built once
    acc = extend(groups(), lambda group: (((group[0], m), 1) for m in group[1]))
    # comp_of_set, not comp_of_mask: perfbench/test_perfbench.py pins this call
    return out._with_terms({comp_of_set(SubsetLabel(n, m)): v for (n, m), v in acc.items()})


class QSymElem(LinComb):
    """A finite linear combination of compositions in one basis of QSym."""

    __slots__ = _TAG = ("basis", "nu")
    _key = Composition
    HUB = "M"
    _factor = staticmethod(_m_factor)

    def __init__(self, basis: str, terms=None, nu: int | None = None):
        if basis not in BASES:
            raise ValueError(f"unknown QSym basis {basis!r}")
        if basis == "Pi":
            message = "the Pi basis needs an integer parameter nu >= 2"
            if nu is None:
                raise ValueError(message)
            _exact_nu(nu, message)
        elif nu is not None:
            raise ValueError(f"basis {basis} takes no nu parameter")
        self.basis = basis
        self.nu = nu
        super().__init__(terms)

    @classmethod
    def basis_elem(cls, basis: str, parts, nu: int | None = None) -> "QSymElem":
        return cls(basis, {Composition(parts): 1}, nu=nu)

    @classmethod
    def unit(cls, basis: str = "M", nu: int | None = None) -> "QSymElem":
        return cls.basis_elem(basis, (), nu=nu)

    def _hub(self) -> "QSymElem":
        return self if self.basis == "M" else convert(self, "M")

    def _label(self, comp: Composition) -> str:
        return f"Pi({self.nu}){comp!r}" if self.basis == "Pi" else f"{self.basis}{comp!r}"

    def __mul__(self, other):
        return product(self, other) if isinstance(other, QSymElem) else self.scale(other)


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
    _exact_nu(nu)
    j_minus_i = (jmask & ~imask).bit_count()
    meet = (imask & jmask).bit_count()
    return Fraction((-1) ** j_minus_i * (nu - 1) ** meet)


def L_from_pi_entry(n: int, jmask: int, imask: int, nu: int) -> Fraction:
    """Coefficient of L_{comp(I)} in Pi_{comp(J)}."""
    _exact_nu(nu)
    if n == 0:
        return Fraction(1)
    j_minus_i = (jmask & ~imask).bit_count()
    union_c = (n - 1) - (imask | jmask).bit_count()
    return Fraction((-1) ** j_minus_i * (nu - 1) ** union_c, nu ** (n - 1))


def pi_from_M_entry(n: int, imask: int, jmask: int, nu: int) -> Fraction:
    """Coefficient of Pi_{comp(J)} in M_{comp(I)}; zero unless I u J = [n-1]."""
    _exact_nu(nu)
    if (imask | jmask) != _full_mask(n):
        return Fraction(0)
    j_minus_i = (jmask & ~imask).bit_count()
    meet = (imask & jmask).bit_count()
    return Fraction((-nu) ** j_minus_i * (nu - 1) ** meet)


def M_from_pi_entry(n: int, jmask: int, imask: int, nu: int) -> Fraction:
    """Coefficient of M_{comp(I)} in Pi_{comp(J)}; zero unless I n J is empty."""
    _exact_nu(nu)
    if n == 0:
        return Fraction(1)
    if imask & jmask:
        return Fraction(0)
    jj = jmask.bit_count()
    ii = imask.bit_count()
    return Fraction(1, (1 - nu) ** jj) * Fraction(nu - 1, nu) ** ((n - 1) - ii)


# ---------------------------------------------------------------------------
# Basis conversion


def convert(x: QSymElem, target: str, nu: int | None = None) -> QSymElem:
    """Change of basis; linear, invertible, degree-preserving.  nu is read
    only for the target Pi."""
    out = QSymElem(target, nu=nu if target == "Pi" else None)
    if x.basis == out.basis and x.nu == out.nu:
        return x
    return _convert_into(out, x)


# ---------------------------------------------------------------------------
# Product, coproduct, antipode


# 4096 entries hold every (I, J) pair with m + n <= 9.
@lru_cache(maxsize=4096)
def _l_product_masks(m: int, n: int, imask: int, jmask: int) -> tuple[tuple[int, int], ...]:
    """Multiset of a_shuffle masks over all selectors A, as (mask, mult) pairs:
    c1(A) joined with the preshuffle stripped of c(A), read from the masks."""
    masks = (selector_masks(imask, jmask, amask, m + n) for amask in selectors(m + n, n))
    counts = Counter(c1 | pre & ~c2 for pre, c1, c2 in masks)
    return tuple(sorted(counts.items()))


@lru_cache(maxsize=4096)
def _m_product(ca: Composition, cb: Composition) -> tuple[tuple[Composition, int], ...]:
    """M_ca M_cb as (composition, multiplicity) pairs: the overlapping shuffles."""
    return tuple(overlapping_shuffles(ca, cb).items())


def product(x: QSymElem, y: QSymElem) -> QSymElem:
    """Product; the A-shuffle route when both factors are in L, the memoised
    overlapping-shuffle rule of `_m_product` through M otherwise."""
    if x.basis == "L" and y.basis == "L":

        def a_shuffles(ca, cb):
            m, n = ca.size, cb.size
            for mask, mult in _l_product_masks(m, n, mask_of_comp(ca), mask_of_comp(cb)):
                yield comp_of_mask(m + n, mask), mult

        return QSymElem("L")._with_terms(extend2(x.terms, y.terms, a_shuffles))
    a, b = convert(x, "M"), convert(y, "M")
    return QSymElem("M")._with_terms(extend2(a.terms, b.terms, _m_product))


class Tensor(LinComb):
    """A sum of pure tensors A (x) A, one basis tag per side.  A subclass
    names the algebra A by its element class, whose basis validation, hub,
    hub factors and product serve both sides."""

    __slots__ = _TAG = ("bases",)
    algebra: type

    def __init__(self, bases: tuple[str, str], terms=None):
        if len(bases) != 2:
            raise ValueError(f"a tensor square takes a pair of bases, got {bases!r}")
        for basis in bases:
            self.algebra(basis)
        self.bases = tuple(bases)
        super().__init__(terms)

    @staticmethod
    def _key(pair) -> tuple[Composition, Composition]:
        left, right = pair
        return Composition(left), Composition(right)

    def _hub(self) -> "Tensor":
        return self.convert((self.algebra.HUB,) * 2)

    def _label(self, pair) -> str:
        return f"{self.bases[0]}{pair[0]!r}(x){self.bases[1]}{pair[1]!r}"

    def convert(self, bases: tuple[str, str]) -> "Tensor":
        """Change of basis one side at a time: each pass sends the terms that
        share a right label, as one element in their left labels, through
        `_convert_into`, and swaps every pair, so the next pass converts the
        other side."""
        out = type(self)(bases)
        if out.bases == self.bases:
            return self
        terms = self.terms
        for src, tgt in zip(self.bases, out.bases):
            x, y, groups = self.algebra(src), self.algebra(tgt), {}
            for (a, b), v in terms.items():
                groups.setdefault(b, {})[a] = v
            if src != tgt:
                groups = {b: _convert_into(y, x._with_terms(part)).terms for b, part in groups.items()}
            terms = {(b, a): v for b, part in groups.items() for a, v in part.items()}
        return out._with_terms(terms)

    def product(self, other: "Tensor") -> "Tensor":
        """(a (x) b)(c (x) d) = ac (x) bd, both sides in the hub."""
        algebra, hub = self.algebra, self.algebra.HUB
        out = type(self)((hub, hub))

        def sides(ab, cd):
            left = algebra.basis_elem(hub, ab[0]) * algebra.basis_elem(hub, cd[0])
            right = algebra.basis_elem(hub, ab[1]) * algebra.basis_elem(hub, cd[1])
            return tensor_terms(left.terms, right.terms)

        terms = extend2(self.convert(out.bases).terms, other.convert(out.bases).terms, sides)
        return out._with_terms(terms)


class QSymTensor(Tensor):
    """QSym (x) QSym; the sides take the parameter-free bases M, L, E."""

    __slots__ = ()
    algebra = QSymElem


def coproduct(x: QSymElem) -> QSymTensor:
    """Deconcatenation on M; split-or-fuse on L; through M otherwise."""
    if x.basis == "L":

        def split_or_fuse(comp):  # the members below k, and those above k shifted down
            n, mask = comp.size, mask_of_comp(comp)
            for k in range(n + 1):
                yield (comp_of_mask(k, mask & _full_mask(k)), comp_of_mask(n - k, mask >> k)), 1

        return QSymTensor(("L", "L"))._with_terms(extend(x.terms.items(), split_or_fuse))

    def deconcatenations(comp):  # the slices of a valid composition are valid: built unchecked
        for k in range(len(comp) + 1):
            yield (tuple.__new__(Composition, comp[:k]), tuple.__new__(Composition, comp[k:])), 1

    terms = extend(convert(x, "M").terms.items(), deconcatenations)
    return QSymTensor(("M", "M"))._with_terms(terms)


def counit(x: QSymElem) -> ScalarQT:
    return convert(x, "M").coefficient(())


def _reverse_coarsenings(alpha: Composition):
    """S(M_alpha) = (-1)^len(alpha) times the sum of M over the coarsenings of
    the reverse of alpha, as (label, sign) pairs."""
    n, sign = alpha.size, (-1) ** alpha.length
    for sub in iter_submasks(mask_of_comp(alpha.reverse())):
        yield comp_of_mask(n, sub), sign


def antipode(x: QSymElem) -> QSymElem:
    return QSymElem("M")._with_terms(extend(convert(x, "M").terms.items(), _reverse_coarsenings))
