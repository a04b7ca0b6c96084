"""The characteristic isomorphism between graded superclass functions and QSym.

ScfElem is the symbolic side: a `linear.LinComb` with rational coefficients
on kappa / normalized-chi labels I, keyed by (degree, tag, mask of I).  It
lowers to dense ClassFunctions only inside the diagram verifier, keeping the
Hopf arithmetic independent of group bounds.  On Q_n a support mask is its
superclass label's mask, so both crossings carry one integer numerator per
key mask; the per-term `to_dense` is the test oracle.
`ch` sums one cached integer row of M coefficients per basis label, expanded
by qsym's Kronecker-factor kernel from L or Pi(nu) into M, over one common
denominator into int and Fraction coefficients.  The per-term route through
the hub conversion of tests/convert_oracle.py is the test oracle
(tests/charmap_oracle.py).  A dense function crosses to QSym one way, through
`ch(ScfElem.from_dense(...))`, and the diagram verifier maps each distinct one
once per call.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd, lcm
from operator import index

from . import groupscf, qsym
from .compositions import Composition, SubsetLabel, comp_of_mask, members_of, subsets_of
from .groupscf import CheckReport, ClassFunction, GroupSpec, check
from .linear import LinComb, extend, tensor_terms
from .qsym import QSymElem, QSymTensor
from .scalars import _exact_nu, _ratio, _rational

KAPPA = "kappa"
CHI_DOT = "chi_dot"

Key = tuple[int, str, int]


class ScfElem(LinComb):
    """Element of the direct sum over n of the supercharacter function spaces:
    int and Fraction coefficients on (degree, tag, mask) keys, all for one nu.
    A key's label may come in as a SubsetLabel of the degree or as its mask."""

    __slots__ = _TAG = ("nu",)
    _coeff = staticmethod(_rational)

    def __init__(self, nu: int, terms=None):
        self.nu = _exact_nu(nu)
        super().__init__(terms)

    @staticmethod
    def _key(key) -> Key:
        degree, tag, label = key
        if tag not in (KAPPA, CHI_DOT):
            raise ValueError(f"unknown basis tag {tag!r}")
        if not isinstance(label, SubsetLabel):
            label = SubsetLabel(degree, label)
        if label.ambient != index(degree):
            raise ValueError(f"label {label} does not match degree {degree}")
        return degree, tag, label.mask

    def _label(self, key: Key) -> str:
        degree, tag, mask = key
        return f"{tag}{list(members_of(mask))} (deg {degree})"

    @classmethod
    def kappa(cls, nu: int, degree: int, members=()) -> "ScfElem":
        return cls(nu, {(degree, KAPPA, SubsetLabel.of(degree, members)): 1})

    @classmethod
    def chi_dot(cls, nu: int, degree: int, members=()) -> "ScfElem":
        return cls(nu, {(degree, CHI_DOT, SubsetLabel.of(degree, members)): 1})

    @classmethod
    def from_dense(cls, phi: ClassFunction, degree: int) -> "ScfElem":
        """Expand a dense superclass function on Q_degree in the kappa basis."""
        if not groupscf._is_standard(phi.spec, degree):
            raise ValueError("dense lift expects a standard group")
        nums, den = groupscf._superclass_nums(phi), phi.den
        out = cls(phi.spec.nu)
        out.terms = {(degree, KAPPA, s): _ratio(v, den) for s, v in nums.items() if v}
        return out

    def to_dense(self, degree: int) -> ClassFunction:
        """Lower the degree-n component to a dense function on Q_n(nu): one
        numerator per support mask, kappa_I adding at mask I and chi_dot^I
        (1-nu)^{-e} at each mask s, with e the members of s off I."""
        spec = GroupSpec.standard(self.nu, degree)
        nu, rank = self.nu, spec.rank
        terms = [(tag, mask, c) for (d, tag, mask), c in self.terms.items() if d == degree]
        weights, unit = groupscf._off_weights(nu, rank - 1)  # (1-nu)^{-e} over unit
        den = lcm(*(c.denominator for _, _, c in terms))
        acc = [0] * (1 << rank)
        for tag, mask, c in terms:
            a = c.numerator * (den // c.denominator)
            if tag == KAPPA:
                acc[mask] += a * unit
            else:
                acc = [v + a * weights[(s & ~mask).bit_count()] for s, v in enumerate(acc)]
        return ClassFunction(spec, map(acc.__getitem__, groupscf.support_masks(nu, rank)), den * unit)


@lru_cache(maxsize=4096)
def _ch_row(
    nu: int, n: int, tag: str, mask: int
) -> tuple[int, tuple[tuple[Composition, int], ...]]:
    """ch of one basis label in M, as a denominator d and (composition,
    numerator) pairs: the kernel's L -> M row for chi_dot, (nu-1)^{|I|} times
    its Pi(nu) -> M row for kappa.  4096 rows hold both tags at every degree
    <= 11 for one nu."""
    if tag == CHI_DOT:
        basis, scale, nu = "L", 1, None
    else:
        basis, scale = "Pi", (nu - 1) ** mask.bit_count()
    # every QSym factor entry is a rational constant
    expansion = qsym._expand(qsym._m_factor, basis, nu, "M", None, n, mask)
    groups = [(scale * c, imasks) for c, imasks in expansion]
    d = lcm(*(c.denominator for c, _ in groups))
    return d, tuple(
        (comp_of_mask(n, imask), c.numerator * (d // c.denominator))
        for c, imasks in groups
        for imask in imasks
    )


def ch(x: ScfElem) -> QSymElem:
    """chi_dot^I goes to L_{comp(I)}; kappa_I to (nu-1)^{|I|} Pi(nu)_{comp(I)}."""
    terms = x.terms.items()
    return _ch_sum(x.nu, ((n, t, mask, c.numerator, c.denominator) for (n, t, mask), c in terms))


def _ch_sum(nu: int, terms) -> QSymElem:
    """Sum of num/den times ch(label) over (degree, tag, mask, num, den) terms:
    each label's cached integer row, summed over one common denominator into
    int or Fraction coefficients."""
    den, acc = 1, {}  # acc[comp] / den is the coefficient of M_comp
    for degree, tag, mask, num, d0 in terms:
        d, row = _ch_row(nu, degree, tag, mask)
        e = d * d0
        if den % e:
            grow = e // gcd(den, e)
            acc = {comp: v * grow for comp, v in acc.items()}
            den *= grow
        a = num * (den // e)
        for comp, c in row:
            acc[comp] = acc.get(comp, 0) + a * c
    terms = {comp: _ratio(v, den) for comp, v in acc.items() if v}
    return QSymElem("M")._with_terms(terms)


def _dense_basis(spec: GroupSpec, tag: str, members) -> ClassFunction:
    if tag == KAPPA:
        return groupscf.kappa(spec, members)
    return groupscf.dot_chi(spec, members)


def verify_diagrams(nu: int, degree_bound: int) -> CheckReport:
    """Check that ch intertwines the group-side (m, delta) with QSym's product
    and coproduct on every kappa/chi_dot basis tuple up to the degree bound."""

    memo = {}  # ch of each distinct dense function, for this call only

    def ch_of(phi, n):
        # degrees 0 and 1 share the trivial group but map to M() and M(1)
        key = (n, phi.spec, phi.nums, phi.den)
        if key not in memo:
            memo[key] = ch(ScfElem.from_dense(phi, n))
        return memo[key]

    def basis(n):  # (degree, witness label, dense lowering, ch image) per basis function
        spec = GroupSpec.standard(nu, n)
        lowered = (
            (f"{tag}{sorted(mem)} (deg {n})", _dense_basis(spec, tag, mem))
            for tag in (KAPPA, CHI_DOT)
            for mem in subsets_of(n)
        )
        return [(n, label, phi, ch_of(phi, n)) for label, phi in lowered]

    # products: ch(m(phi, psi)) == ch(phi) * ch(psi)
    def products(case):
        (m, label_a, phi, ch_phi), (n, label_b, psi, ch_psi) = case
        lhs = ch(ScfElem.from_dense(groupscf.product_m(phi, psi, m, n), m + n))
        if lhs != qsym.product(ch_phi, ch_psi):
            return f"product {label_a} * {label_b}"

    # coproducts: (ch x ch)(delta phi) == Delta(ch phi)
    def coproducts(case):
        n, label, phi, ch_phi = case
        images = (
            tensor_terms(ch_of(left, k).terms, ch_of(right, n - k).terms)
            for k, pairs in groupscf.coproduct(phi, n).items()
            for left, right in pairs
        )
        terms = extend(itertools.chain.from_iterable(images), lambda pair: ((pair, 1),))
        if QSymTensor(("M", "M"), terms) != qsym.coproduct(ch_phi):
            return f"coproduct {label}"

    # graded dimensions agree on both sides
    def dimension(n):
        if len(bases[n]) != 2 * (1 << max(n - 1, 0)):
            return ""

    degrees = range(degree_bound + 1)
    bases = [basis(n) for n in degrees]
    shapes = ((m, n) for m in degrees for n in range(degree_bound + 1 - m))
    pairs = (ab for m, n in shapes for ab in itertools.product(bases[m], bases[n]))
    return CheckReport([
        check("ch intertwines products", pairs, products),
        check("ch intertwines coproducts", itertools.chain.from_iterable(bases), coproducts),
        check("graded dimension 2^(n-1)", degrees, dimension),
    ])
