"""The hub routes for hopfscf.qsym.convert and hopfscf.nsym.convert.

This is the basis conversion hopfscf had before its one Kronecker-factor
kernel, kept whole as the slow oracle: every label is expanded in the hub (M
for QSym, H for NSym) by its own hand-written display, and every hub term is
expanded again in the target basis.  The kernel must agree with it exactly.
`expand_per_coordinate` is the kernel as it was before it grouped the target
masks by signature: one product of n-1 factor entries per target mask, and
`tensor_convert` builds on it the per-term route of Tensor.convert, which
expands both sides of every pure tensor and multiplies the two images.  The
dual basis of B(q,t) in M and the triangular shape of B -> H, which only
tests check, live here too.
"""

from __future__ import annotations

from hopfscf import nsym, qsym
from hopfscf.compositions import (
    Composition,
    SubsetLabel,
    _full_mask,
    comp_of_set,
    iter_submasks,
    set_of_comp,
)
from hopfscf.linear import _add_term
from hopfscf.nsym import NSymElem, b_to_H_masks
from hopfscf.qsym import QSymElem, _transition
from hopfscf.scalars import ONE, Q, T, ScalarQT, _times, rational
from transition_oracle import M_from_pi_entry, b_inverse_entry, pi_from_M_entry

# ---------------------------------------------------------------------------
# The conversion kernel, one coordinate at a time


def expand_per_coordinate(hub_factor, src: str, src_nu, tgt: str, tgt_nu, n: int, mask: int) -> dict:
    """The label `mask` of degree n in basis src, expanded in tgt as
    {target mask: entry}.  Each of the n-1 coordinates multiplies in its row of
    the composed factor and adds a fresh bit, so no two products share a mask."""
    factor = _transition(hub_factor, src, src_nu, tgt, tgt_nu)
    out = {0: 1}
    for i in range(n - 1):
        row = factor[mask >> i & 1]
        out = {m | k << i: c * e for m, c in out.items() for k, e in row}
    return out


def tensor_convert(x, bases):
    """x, a Tensor, in the basis pair `bases`, one pure tensor at a time: each
    side's label expanded per coordinate, and every pair of the two images
    counted with the product of their entries and x's coefficient."""
    out = type(x)(bases)

    def image(src, tgt, comp):
        n, mask = comp.size, set_of_comp(comp).mask
        expansion = expand_per_coordinate(x.algebra._factor, src, None, tgt, None, n, mask)
        return {comp_of_set(SubsetLabel(n, m)): e for m, e in expansion.items()}

    acc: dict = {}
    for pair, v in x.terms.items():
        left, right = (image(*side) for side in zip(x.bases, out.bases, pair))
        for a, ea in left.items():
            for b, eb in right.items():
                _add_term(acc, (a, b), _times(v, _times(ea, eb)))
    return out._with_terms(acc)


# ---------------------------------------------------------------------------
# QSym, through M


def _to_M_terms(basis: str, n: int, mask: int, nu: int | None) -> dict[int, ScalarQT]:
    if n == 0:
        return {0: ONE}  # all bases share the unit
    full = _full_mask(n)
    out: dict[int, ScalarQT] = {}
    if basis == "M":
        out[mask] = ONE
    elif basis == "L":
        for sub in iter_submasks(full & ~mask):
            out[mask | sub] = ONE
    elif basis == "E":
        for sub in iter_submasks(mask):
            out[sub] = ONE
    elif basis == "Pi":
        for imask in iter_submasks(full & ~mask):
            coeff = M_from_pi_entry(n, mask, imask, nu)
            if coeff:
                out[imask] = rational(coeff)
    return out


def _from_M_terms(target: str, n: int, mask: int, nu: int | None) -> dict[int, ScalarQT]:
    if n == 0:
        return {0: ONE}
    full = _full_mask(n)
    out: dict[int, ScalarQT] = {}
    if target == "M":
        out[mask] = ONE
    elif target == "L":
        for sub in iter_submasks(full & ~mask):
            out[mask | sub] = rational((-1) ** sub.bit_count())
    elif target == "E":
        for sub in iter_submasks(mask):
            out[sub] = rational((-1) ** (mask.bit_count() - sub.bit_count()))
    elif target == "Pi":
        for sub in iter_submasks(mask):
            jmask = (full & ~mask) | sub
            coeff = pi_from_M_entry(n, mask, jmask, nu)
            if coeff:
                out[jmask] = rational(coeff)
    return out


def qsym_convert(x: QSymElem, target: str, nu: int | None = None) -> QSymElem:
    """Change of basis; linear, invertible, degree-preserving."""
    if target not in qsym.BASES:
        raise ValueError(f"unknown QSym basis {target!r}")
    if target == "Pi" and (nu is None or nu < 2):
        raise ValueError("converting to Pi needs nu >= 2")
    if target != "Pi":
        nu = None
    if x.basis == target and x.nu == nu:
        return x
    acc: dict[Composition, ScalarQT] = {}
    for comp, coeff in x.terms.items():
        n = comp.size
        mask = set_of_comp(comp).mask
        mid = _to_M_terms(x.basis, n, mask, x.nu)
        for mmask, c1 in mid.items():
            if target == "M":
                _add_term(acc, comp_of_set(SubsetLabel(n, mmask)), coeff * c1)
                continue
            for tmask, c2 in _from_M_terms(target, n, mmask, nu).items():
                _add_term(
                    acc, comp_of_set(SubsetLabel(n, tmask)), coeff * c1 * c2
                )
    return QSymElem(target, acc, nu=nu)


# ---------------------------------------------------------------------------
# NSym, through H


def h_to_B_masks(n: int, imask: int) -> dict[int, ScalarQT]:
    """Inverse transition: H_{comp(I)} = sum over J disjoint from I of
    q^{|I|-(n-1)} (-t)^{(n-1)-|I|-|J|} B(q,t)_{comp(J)}."""
    size_i = imask.bit_count()
    out: dict[int, ScalarQT] = {}
    for jmask in iter_submasks(_full_mask(n) & ~imask):
        size_j = jmask.bit_count()
        out[jmask] = Q ** (size_i - (n - 1)) * (-T) ** ((n - 1) - size_i - size_j)
    return out


def _lambda_to_H_masks(n: int, smask: int) -> dict[int, ScalarQT]:
    full = _full_mask(n)
    out = {}
    for sub in iter_submasks(full & ~smask):
        jmask = smask | sub
        out[jmask] = rational((-1) ** ((n - 1) - jmask.bit_count()))
    return out


def _r_to_H_masks(n: int, smask: int) -> dict[int, ScalarQT]:
    out = {}
    for tmask in iter_submasks(smask):
        out[tmask] = rational((-1) ** (smask.bit_count() - tmask.bit_count()))
    return out


def _estar_to_H_masks(n: int, smask: int) -> dict[int, ScalarQT]:
    full = _full_mask(n)
    out = {}
    for sub in iter_submasks(full & ~smask):
        out[smask | sub] = rational((-1) ** sub.bit_count())
    return out


def _to_H_masks(basis: str, n: int, mask: int) -> dict[int, ScalarQT]:
    if n == 0:
        return {0: ONE}  # all bases share the unit
    if basis == "H":
        return {mask: ONE}
    if basis == "Lambda":
        return _lambda_to_H_masks(n, mask)
    if basis == "R":
        return _r_to_H_masks(n, mask)
    if basis == "Estar":
        return _estar_to_H_masks(n, mask)
    if basis == "B":
        return b_to_H_masks(n, mask)
    if basis == "Bhat":
        return b_to_H_masks(n, _full_mask(n) & ~mask)
    raise AssertionError(basis)


def _from_H_masks(target: str, n: int, mask: int) -> dict[int, ScalarQT]:
    if n == 0:
        return {0: ONE}
    full = _full_mask(n)
    if target == "H":
        return {mask: ONE}
    if target == "Lambda":
        # the signed refinement sum is its own inverse
        return _lambda_to_H_masks(n, mask)
    if target == "R":
        return {tmask: ONE for tmask in iter_submasks(mask)}
    if target == "Estar":
        return {mask | sub: ONE for sub in iter_submasks(full & ~mask)}
    if target == "B":
        return h_to_B_masks(n, mask)
    if target == "Bhat":
        return {
            full & ~jmask: coeff for jmask, coeff in h_to_B_masks(n, mask).items()
        }
    raise AssertionError(target)


def nsym_convert(x: NSymElem, target: str) -> NSymElem:
    if target not in nsym.BASES:
        raise ValueError(f"unknown NSym basis {target!r}")
    if x.basis == target:
        return x
    acc: dict[Composition, ScalarQT] = {}
    for comp, coeff in x.terms.items():
        n = comp.size
        mask = set_of_comp(comp).mask
        for hmask, c1 in _to_H_masks(x.basis, n, mask).items():
            if target == "H":
                _add_term(acc, comp_of_set(SubsetLabel(n, hmask)), coeff * c1)
                continue
            for tmask, c2 in _from_H_masks(target, n, hmask).items():
                _add_term(acc, comp_of_set(SubsetLabel(n, tmask)), coeff * c1 * c2)
    return NSymElem(target, acc)


# ---------------------------------------------------------------------------
# B(q,t): its dual basis in M, and the triangular shape of B -> H


def b_dual_in_M(n: int, I) -> QSymElem:
    """B(q,t)*_{comp(I)} expanded in the monomial basis of QSym."""
    imask = SubsetLabel.of(n, I).mask
    terms: dict[Composition, ScalarQT] = {}
    for jmask in iter_submasks(_full_mask(n) & ~imask):
        coeff = b_inverse_entry(n, imask, jmask)
        terms[comp_of_set(SubsetLabel(n, jmask))] = coeff
    return QSymElem("M")._with_terms(terms)


def subset_order_key(n: int, mask: int) -> tuple[int, tuple[int, ...]]:
    """Linear extension used for triangularity: size descending, then lex."""
    label = SubsetLabel(n, mask)
    return (-label.size, label.members)


def b_to_H_matrix_is_triangular(n: int) -> bool:
    """Rows B_{comp(I)} by the complement order, columns H_{comp(J)} by size
    order: lower triangular with nonzero diagonal."""
    full = _full_mask(n)
    order = sorted(range(full + 1), key=lambda m: subset_order_key(n, m))
    col_pos = {mask: i for i, mask in enumerate(order)}
    for row_pos, imask in enumerate(sorted(range(full + 1), key=lambda m: subset_order_key(n, full & ~m))):
        expansion = b_to_H_masks(n, imask)
        diag = expansion.get(full & ~imask)
        if diag is None or diag.is_zero():
            return False
        for jmask in expansion:
            if col_pos[jmask] > row_pos:
                return False
    return True
