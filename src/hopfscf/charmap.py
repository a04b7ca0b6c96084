"""The characteristic isomorphism between graded superclass functions and QSym.

ScfElem is the symbolic side: a `linear.LinComb` with rational coefficients
on kappa / normalized-chi labels graded by degree.  It lowers to dense
ClassFunctions only inside the diagram verifier, keeping the Hopf arithmetic
independent of group bounds.
`ch` sums one cached integer row of M coefficients per basis label, expanded
by qsym's Kronecker-factor kernel from L or Pi(nu) into M, over one common
denominator; the per-term route through the hub conversion of
tests/convert_oracle.py is the test oracle (tests/charmap_oracle.py).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import groupscf, qsym
from .compositions import Composition, SubsetLabel, comp_of_set, subsets_of
from .groupscf import CheckReport, ClassFunction, GroupSpec, check
from .linear import LinComb, extend, tensor_terms
from .qsym import QSymElem, QSymTensor
from .scalars import _exact_nu, _rational, rational

KAPPA = "kappa"
CHI_DOT = "chi_dot"

Key = tuple[int, str, SubsetLabel]


class ScfElem(LinComb):
    """Element of the direct sum over n of the supercharacter function spaces:
    rational coefficients on (degree, tag, label) keys, all for one nu."""

    __slots__ = _TAG = ("nu",)
    _coeff = staticmethod(_rational)

    def __init__(self, nu: int, terms=None):
        self.nu = _exact_nu(nu)
        super().__init__(terms)

    @staticmethod
    def _key(key: Key) -> Key:
        degree, tag, label = key
        if tag not in (KAPPA, CHI_DOT):
            raise ValueError(f"unknown basis tag {tag!r}")
        if label.ambient != degree:
            raise ValueError(f"label {label} does not match degree {degree}")
        return key

    def _label(self, key: Key) -> str:
        degree, tag, label = key
        return f"{tag}{list(label.members)} (deg {degree})"

    @classmethod
    def kappa(cls, nu: int, degree: int, members=()) -> "ScfElem":
        label = SubsetLabel.of(degree, members)
        return cls(nu, {(degree, KAPPA, label): Fraction(1)})

    @classmethod
    def chi_dot(cls, nu: int, degree: int, members=()) -> "ScfElem":
        label = SubsetLabel.of(degree, members)
        return cls(nu, {(degree, CHI_DOT, label): Fraction(1)})

    @classmethod
    def from_dense(cls, phi: ClassFunction, degree: int) -> "ScfElem":
        """Expand a dense superclass function in the kappa basis."""
        spec = phi.spec
        if degree < 0:
            raise ValueError(f"degree must be nonnegative, got {degree}")
        if spec.index_set != tuple(range(1, degree)):
            raise ValueError("dense lift expects a standard group")
        terms = {}
        for supp, coeff in groupscf.expand_kappa(phi).items():
            if coeff:
                terms[(degree, KAPPA, SubsetLabel.of(degree, supp))] = coeff
        return cls(spec.nu)._with_terms(terms)

    def to_dense(self, degree: int) -> ClassFunction:
        """Lower the degree-n component to a dense function on Q_n(nu)."""
        spec = GroupSpec.standard(self.nu, degree)
        total = groupscf.one(spec).scale(0)
        for (d, tag, label), coeff in self.terms.items():
            if d == degree:
                total = total + _dense_basis(spec, tag, label.members).scale(coeff)
        return total


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
    entries = [
        (comp_of_set(SubsetLabel(n, imask)), scale * c)
        for imask, c in qsym._expand(qsym._m_factor, basis, nu, "M", None, n, mask).items()
    ]
    d = lcm(*(c.denominator for _, c in entries))
    return d, tuple((comp, c.numerator * (d // c.denominator)) for comp, c in entries)


def ch(x: ScfElem) -> QSymElem:
    """chi_dot^I goes to L_{comp(I)}; kappa_I to (nu-1)^{|I|} Pi(nu)_{comp(I)}.
    Each label's image in M is a cached integer row; the rows are summed as
    integer numerators over one common denominator."""
    den, acc = 1, {}  # acc[comp] / den is the coefficient of M_comp
    for (degree, tag, label), coeff in x.terms.items():
        d, row = _ch_row(x.nu, degree, tag, label.mask)
        e = d * coeff.denominator
        if den % e:
            grow = e // gcd(den, e)
            acc = {comp: v * grow for comp, v in acc.items()}
            den *= grow
        a = coeff.numerator * (den // e)
        for comp, c in row:
            acc[comp] = acc.get(comp, 0) + a * c
    return QSymElem("M")._with_terms({comp: rational(Fraction(v, den)) for comp, v in acc.items() if v})


def _dense_basis(spec: GroupSpec, tag: str, members) -> ClassFunction:
    if tag == KAPPA:
        return groupscf.kappa(spec, members)
    return groupscf.dot_chi(spec, members)


def _ch_of_dense(phi: ClassFunction, degree: int) -> QSymElem:
    return ch(ScfElem.from_dense(phi, degree))


def verify_diagrams(nu: int, degree_bound: int) -> CheckReport:
    """Check that ch intertwines the group-side (m, delta) with QSym's product
    and coproduct on every kappa/chi_dot basis tuple up to the degree bound."""

    def basis(n):  # (degree, witness label, dense lowering, ch image) per basis function
        spec = GroupSpec.standard(nu, n)
        lowered = (
            (f"{tag}{sorted(mem)} (deg {n})", _dense_basis(spec, tag, mem))
            for tag in (KAPPA, CHI_DOT)
            for mem in subsets_of(n)
        )
        return [(n, label, phi, _ch_of_dense(phi, n)) for label, phi in lowered]

    # products: ch(m(phi, psi)) == ch(phi) * ch(psi)
    def products(case):
        (m, label_a, phi, ch_phi), (n, label_b, psi, ch_psi) = case
        lhs = _ch_of_dense(groupscf.product_m(phi, psi, m, n), m + n)
        if lhs != qsym.product(ch_phi, ch_psi):
            return f"product {label_a} * {label_b}"

    # coproducts: (ch x ch)(delta phi) == Delta(ch phi)
    def coproducts(case):
        n, label, phi, ch_phi = case
        images = (
            tensor_terms(_ch_of_dense(left, k).terms, _ch_of_dense(right, n - k).terms)
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
