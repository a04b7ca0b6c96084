"""Per-term routes for hopfscf.charmap's ch and ScfElem.to_dense.

`ch`: each term of the ScfElem becomes a one-term QSymElem in L or Pi(nu),
goes through the hub-route conversion of convert_oracle to M, and is added to
the running total.  The cached-row `ch` in charmap, whose rows come from
qsym's conversion kernel, must agree with it exactly.

`to_dense`: each term of the requested degree is lowered to its dense basis
function, scaled and added as a ClassFunction.  The per-mask integer sum of
`ScfElem.to_dense` must give the same ClassFunction.
"""

from __future__ import annotations

from fractions import Fraction

import convert_oracle
from hopfscf import groupscf
from hopfscf.charmap import CHI_DOT, ScfElem, _dense_basis
from hopfscf.compositions import SubsetLabel, comp_of_set, members_of
from hopfscf.groupscf import ClassFunction, GroupSpec
from hopfscf.qsym import QSymElem
from hopfscf.scalars import rational


def ch(x: ScfElem) -> QSymElem:
    """chi_dot^I goes to L_{comp(I)}; kappa_I to (nu-1)^{|I|} Pi(nu)_{comp(I)}."""
    total = QSymElem("M")
    for (degree, tag, mask), coeff in sorted(
        x.terms.items(), key=lambda kv: (kv[0][0], kv[0][1], members_of(kv[0][2]))
    ):
        label = SubsetLabel(degree, mask)
        comp = comp_of_set(label)
        if tag == CHI_DOT:
            elem = QSymElem("L", {comp: rational(coeff)})
        else:
            scale = Fraction((x.nu - 1) ** label.size) * coeff
            elem = QSymElem("Pi", {comp: rational(scale)}, nu=x.nu)
        total = total + convert_oracle.qsym_convert(elem, "M")
    return total


def to_dense(x: ScfElem, degree: int) -> ClassFunction:
    """Lower the degree-n component to a dense function on Q_n(nu)."""
    spec = GroupSpec.standard(x.nu, degree)
    total = groupscf.one(spec).scale(0)
    for (d, tag, mask), coeff in x.terms.items():
        if d == degree:
            total = total + _dense_basis(spec, tag, SubsetLabel(d, mask).members).scale(coeff)
    return total
