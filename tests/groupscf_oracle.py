"""Per-element Fraction reference for the dense kernels of hopfscf.groupscf.

These are the straightforward versions of restriction, tensor embedding, the
m_A summand and the Hall product: they walk the mixed-radix enumeration of
the target group, rebuild each element as a tuple, look its preimages up with
GroupSpec.index_of and multiply Fractions one element at a time.  The integer
gather kernels in groupscf must agree with them exactly.
"""

from __future__ import annotations

from fractions import Fraction

from hopfscf.compositions import run_markers
from hopfscf.groupscf import (
    ClassFunction,
    GroupSpec,
    f_dot_off,
    f_one,
    factor_vector,
    relabel,
)


def restrict(phi: ClassFunction, T) -> ClassFunction:
    spec = phi.spec
    T = frozenset(T)
    if not T <= set(spec.index_set):
        raise ValueError(f"restriction target {sorted(T)} is not inside {spec.index_set}")
    target = GroupSpec(spec.nu, tuple(sorted(T)))
    positions = [spec.index_set.index(label) for label in target.index_set]
    values = []
    for h in target.elements():
        g = [0] * spec.rank
        for pos, value in zip(positions, h):
            g[pos] = value
        values.append(phi.values[spec.index_of(tuple(g))])
    return ClassFunction(target, values)


def tensor_embed(phi: ClassFunction, psi: ClassFunction) -> ClassFunction:
    sa, sb = phi.spec, psi.spec
    target = GroupSpec(sa.nu, tuple(sorted(sa.index_set + sb.index_set)))
    pos_a = [target.index_set.index(label) for label in sa.index_set]
    pos_b = [target.index_set.index(label) for label in sb.index_set]
    values = []
    for g in target.elements():
        a = tuple(g[p] for p in pos_a)
        b = tuple(g[p] for p in pos_b)
        values.append(phi.values[sa.index_of(a)] * psi.values[sb.index_of(b)])
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


def hall_inner(phi: ClassFunction, psi: ClassFunction) -> Fraction:
    spec = phi.spec
    if psi.spec != spec:
        raise ValueError("class functions live on different groups")
    total = Fraction(0)
    for g, v in zip(spec.elements(), phi.values):
        inv = tuple((-x) % spec.nu for x in g)
        total += v * psi.values[spec.index_of(inv)]
    return total / spec.order
