"""Per-element Fraction reference for the dense kernels of hopfscf.groupscf.

These are the straightforward versions of restriction, tensor embedding, the
m_A summand and the Hall product: they walk the mixed-radix enumeration of
the target group, rebuild each element as a tuple, look its preimages up with
`index_of` and multiply Fractions one element at a time.  The integer
gather kernels in groupscf must agree with them exactly.  So must groupscf's
gather tables, which are coordinate sums: the element walks that built them
before are kept here under their names.  So must the coproduct slices, which
groupscf reads off a restriction: the label split that built them before,
which expands phi in kappa and splits each support at k, is kept here as
`coproduct_k`.  So must the summed product, which groupscf computes through
one plan per shape: the literal sum of groupscf.product_mA over every A is
kept here as `product_m`.  The factor-vector notation (a pure tensor of
per-index functions on C_nu), which only tests use, lives here too.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from fractions import Fraction

from hopfscf import groupscf
from hopfscf.compositions import run_markers
from hopfscf.groupscf import (
    ClassFunction,
    GroupSpec,
    _require_subset,
    expand_kappa,
    kappa,
    relabel,
    unit,
)


def index_of(spec: GroupSpec, element: tuple[int, ...]) -> int:
    """The index of `element` in `spec.elements()`."""
    # mixed radix matching the elements() enumeration (last index fastest)
    idx = 0
    for g in element:
        idx = idx * spec.nu + g
    return idx


# ---------------------------------------------------------------------------
# Single-index factors (functions on C_nu) and the coordinate notation


def f_one(nu: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1) for _ in range(nu))


def f_reg_minus_one(nu: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(nu - 1 if g == 0 else -1) for g in range(nu))


def f_dot_off(nu: int) -> tuple[Fraction, ...]:
    """(reg - 1)/(nu - 1): value 1 at 0 and -1/(nu-1) elsewhere."""
    return tuple(v / (nu - 1) for v in f_reg_minus_one(nu))


def f_nonzero_indicator(nu: int) -> tuple[Fraction, ...]:
    """1 - reg/nu: the indicator of the nonidentity elements."""
    return tuple(Fraction(0 if g == 0 else 1) for g in range(nu))


def f_zero_indicator(nu: int) -> tuple[Fraction, ...]:
    """reg/nu: the indicator of the identity."""
    return tuple(Fraction(1 if g == 0 else 0) for g in range(nu))


def f_scaled(factor: tuple[Fraction, ...], c) -> tuple[Fraction, ...]:
    c = Fraction(c)
    return tuple(c * v for v in factor)


@dataclass(frozen=True)
class FactorVector:
    """A pure tensor of per-index factors with a global rational prefactor."""

    spec: GroupSpec
    factors: tuple[tuple[Fraction, ...], ...]
    prefactor: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if len(self.factors) != self.spec.rank:
            raise ValueError("one factor per index is required")
        if any(len(f) != self.spec.nu for f in self.factors):
            raise ValueError("each factor must list nu values")

    def expand(self) -> ClassFunction:
        values = []
        for g in self.spec.elements():
            v = self.prefactor
            for factor, gi in zip(self.factors, g):
                v *= factor[gi]
            values.append(v)
        return ClassFunction(self.spec, values)


def factor_vector(spec: GroupSpec, on_set, on_factor, off_factor, prefactor=1) -> FactorVector:
    on = _require_subset(on_set, spec.index_set, "index subset")
    factors = tuple(
        on_factor if label in on else off_factor for label in spec.index_set
    )
    return FactorVector(spec, factors, Fraction(prefactor))


def kappa_factor_vector(spec: GroupSpec, I) -> FactorVector:
    """kappa_I as a factor vector: nonzero-indicators on I, zero-indicators off I."""
    return factor_vector(
        spec, I, f_nonzero_indicator(spec.nu), f_zero_indicator(spec.nu)
    )


# ---------------------------------------------------------------------------
# Per-element kernels


def restrict(phi: ClassFunction, T) -> ClassFunction:
    spec = phi.spec
    T = frozenset(T)
    if not T <= set(spec.index_set):
        raise ValueError(f"restriction target {sorted(T)} is not inside {spec.index_set}")
    target = GroupSpec(spec.nu, tuple(sorted(T)))
    positions = [spec.index_set.index(label) for label in target.index_set]
    phi_values = phi.values
    values = []
    for h in target.elements():
        g = [0] * spec.rank
        for pos, value in zip(positions, h):
            g[pos] = value
        values.append(phi_values[index_of(spec, tuple(g))])
    return ClassFunction(target, values)


def tensor_embed(phi: ClassFunction, psi: ClassFunction) -> ClassFunction:
    sa, sb = phi.spec, psi.spec
    target = GroupSpec(sa.nu, tuple(sorted(sa.index_set + sb.index_set)))
    pos_a = [target.index_set.index(label) for label in sa.index_set]
    pos_b = [target.index_set.index(label) for label in sb.index_set]
    phi_values, psi_values = phi.values, psi.values
    values = []
    for g in target.elements():
        a = tuple(g[p] for p in pos_a)
        b = tuple(g[p] for p in pos_b)
        values.append(phi_values[index_of(sa, a)] * psi_values[index_of(sb, b)])
    return ClassFunction(target, values)


def product_mA(phi: ClassFunction, psi: ClassFunction, A, m: int, n: int) -> ClassFunction:
    nu = phi.spec.nu
    if m == 0 or n == 0:
        scalar = phi.values[0] if m == 0 else psi.values[0]
        other = psi if m == 0 else phi
        return other.scale(scalar)
    A = frozenset(A)

    def padded(f: ClassFunction, deg: int) -> ClassFunction:
        pad = ClassFunction(GroupSpec(nu, (deg,)), f_dot_off(nu))
        return tensor_embed(f, pad)

    a_sorted = tuple(sorted(A))
    ac_sorted = tuple(sorted(set(range(1, m + n + 1)) - A))
    left = relabel(padded(phi, m), ac_sorted)
    right = relabel(padded(psi, n), a_sorted)
    s_a = tensor_embed(left, right)

    c1, _, c = run_markers(A, m + n)
    keep = tuple(i for i in range(1, m + n) if not c.contains(i))
    restricted = restrict(s_a, keep)

    marker_spec = GroupSpec(nu, c.members)
    marker = factor_vector(marker_spec, c1.members, f_one(nu), f_dot_off(nu)).expand()
    return tensor_embed(marker, restricted)


def product_m(phi: ClassFunction, psi: ClassFunction, m: int, n: int) -> ClassFunction:
    """Sum of groupscf.product_mA over all size-n subsets A of [m+n], one
    summand at a time."""
    terms = [
        groupscf.product_mA(phi, psi, A, m, n)
        for A in itertools.combinations(range(1, m + n + 1), n)
    ]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def coproduct_k(phi: ClassFunction, k: int, n: int) -> list[tuple[ClassFunction, ClassFunction]]:
    """delta_k as a list of pure tensor summands (left on Q_k, right on Q_{n-k}).

    Computed by expanding phi in the kappa basis; the factor pair of the
    defining restriction identity is not unique, but the value is.
    """
    nu = phi.spec.nu
    if phi.spec != GroupSpec.standard(nu, n):
        raise ValueError("coproduct operands must live on a standard group")
    if not 0 <= k <= n:
        raise ValueError(f"slice position k={k} out of range 0..{n}")
    if k == 0:
        return [(unit(nu), phi)]
    if k == n:
        return [(phi, unit(nu))]
    left_spec = GroupSpec.standard(nu, k)
    right_spec = GroupSpec.standard(nu, n - k)
    out = []
    for I, coeff in sorted(expand_kappa(phi).items(), key=lambda kv: sorted(kv[0])):
        if coeff == 0 or k in I:
            continue
        left_label = {i for i in I if i < k}
        right_label = {i - k for i in I if i > k}
        out.append(
            (
                kappa(left_spec, left_label).scale(coeff),
                kappa(right_spec, right_label),
            )
        )
    return out


def hall_inner(phi: ClassFunction, psi: ClassFunction) -> Fraction:
    spec = phi.spec
    if psi.spec != spec:
        raise ValueError("class functions live on different groups")
    total = Fraction(0)
    psi_values = psi.values
    for g, v in zip(spec.elements(), phi.values):
        inv = tuple((-x) % spec.nu for x in g)
        total += v * psi_values[index_of(spec, inv)]
    return total / spec.order


# ---------------------------------------------------------------------------
# Gather tables, one element at a time


def _shape(nu: int, rank: int) -> GroupSpec:
    return GroupSpec(nu, tuple(range(1, rank + 1)))


def support_masks(nu: int, rank: int) -> array:
    """Per element, the bitmask of the positions where it is not the identity."""
    elements = _shape(nu, rank).elements()
    return array("I", (sum(1 << p for p, x in enumerate(g) if x) for g in elements))


def inverse_map(nu: int, rank: int) -> array:
    """Per element g, the index of g^{-1}; inverses negate componentwise."""
    spec = _shape(nu, rank)
    return array("I", (index_of(spec, ((-x) % nu for x in g)) for g in spec.elements()))


def restriction_map(nu: int, rank: int, positions: tuple[int, ...]) -> array:
    """Per element h of the subgroup on `positions`, the index of h padded by
    identities in the rank-`rank` group."""
    source = _shape(nu, rank)
    out = []
    for h in _shape(nu, len(positions)).elements():
        g = [0] * rank
        for pos, value in zip(positions, h):
            g[pos] = value
        out.append(index_of(source, g))
    return array("I", out)


def embedding_map(nu: int, rank: int, positions: tuple[int, ...]) -> tuple[array, array]:
    """Per element g of the rank-`rank` group, the indices of its parts on
    `positions` and on the remaining positions."""
    rest = tuple(p for p in range(rank) if p not in positions)
    left, right = _shape(nu, len(positions)), _shape(nu, len(rest))
    ia, ib = [], []
    for g in _shape(nu, rank).elements():
        ia.append(index_of(left, (g[p] for p in positions)))
        ib.append(index_of(right, (g[p] for p in rest)))
    return array("I", ia), array("I", ib)


def product_map(nu: int, m: int, n: int, A: tuple[int, ...]) -> tuple[array, array, array]:
    """The composite gather of m_A on Q_{m+n}(nu); A is sorted.

    Per element g: the index of the phi argument, the index of the psi
    argument, and how many of the (nu-1)^{-1}(reg - 1) factors (the two pads
    and the markers on c2) take a nonidentity value there.  m_A(phi, psi)(g)
    is phi(a) psi(b) (-1/(nu-1))^e.
    """
    k = m + n
    ac = tuple(i for i in range(1, k + 1) if i not in A)
    c1, _, c = run_markers(A, k)
    dropped = set(c.members) | {k}  # restricted away: identity there
    marker_off = [i - 1 for i in c.members if not c1.contains(i)]
    left, right = GroupSpec.standard(nu, m), GroupSpec.standard(nu, n)
    ia, ib, ee = [], [], array("B")
    for g in GroupSpec.standard(nu, k).elements():
        h = [0 if i in dropped else g[i - 1] for i in range(1, k + 1)]
        ia.append(index_of(left, (h[i - 1] for i in ac[:-1])))
        ib.append(index_of(right, (h[i - 1] for i in A[:-1])))
        ee.append(
            sum(1 for p in marker_off if g[p]) + (h[ac[-1] - 1] != 0) + (h[A[-1] - 1] != 0)
        )
    return array("I", ia), array("I", ib), ee
