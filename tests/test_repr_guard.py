"""Printed elements stay byte for byte the same.

One sha256 per element class over the `repr` of a fixed family of elements:
every QSym basis (Pi at nu = 2 and 3) and every NSym basis, converted into
every basis of its algebra on every composition of degree at most 4, with
products, sums, differences and scalings; both algebras' coproduct tensors
and their conversions; `comm` images and products in Sym; FQSym products;
superclass functions at nu = 2 and 3, as basis elements, sums, scalings and
lifts of dense products and coproduct slices.  A second sha256 per class covers `to_json_dict` for QSym, NSym and Sym.  The
digests were recorded before the element classes shared one linear-combination
core, so any change to a printed term, its order or its coefficient shows up
here.

Print the current table with `python tests/test_repr_guard.py`.
"""

import hashlib
import itertools
import json
from fractions import Fraction

import pytest

import fqsym_oracle as fqsym
from fqsym_oracle import FQSymElem
from hopfscf import groupscf, nsym, qsym
from hopfscf.charmap import ScfElem
from hopfscf.compositions import compositions_of, subsets_of
from hopfscf.groupscf import GroupSpec
from hopfscf.nsym import NSymElem
from hopfscf.qsym import QSymElem
from hopfscf.scalars import Q, T, parse_scalar
from hopfscf.symring import SymElem, comm

MAX_DEGREE = 4
QSYM_BASES = (("M", None), ("L", None), ("E", None), ("Pi", 2), ("Pi", 3))
WEIGHT = parse_scalar("1 / q + t")


def _comps():
    for n in range(MAX_DEGREE + 1):
        yield from compositions_of(n)


def qsym_family():
    for (src, snu), (tgt, tnu) in itertools.product(QSYM_BASES, repeat=2):
        for alpha in _comps():
            yield qsym.convert(QSymElem.basis_elem(src, alpha, nu=snu), tgt, nu=tnu)
    for src, nu in QSYM_BASES:
        x = QSymElem.basis_elem(src, (1, 2), nu=nu).scale(Q + T)
        y = QSymElem.basis_elem(src, (2,), nu=nu).scale(WEIGHT)
        yield x + y
        yield x - x
        yield x - y.scale(-3)
        yield x + qsym.L((3,))
        yield qsym.product(x, y)
        yield qsym.antipode(x)
    for alpha, beta in itertools.product(_comps(), repeat=2):
        if alpha.size + beta.size <= MAX_DEGREE:
            yield qsym.product(qsym.L(alpha), qsym.L(beta))
            yield qsym.product(qsym.E(alpha), qsym.M(beta))


def nsym_family():
    for src, tgt in itertools.product(nsym.BASES, repeat=2):
        for alpha in _comps():
            yield nsym.convert(NSymElem.basis_elem(src, alpha), tgt)
    for src in nsym.BASES:
        x = NSymElem.basis_elem(src, (1, 2)).scale(Q + T)
        y = NSymElem.basis_elem(src, (2,)).scale(WEIGHT)
        yield x + y
        yield x - x
        yield x + nsym.H((3,))
        yield nsym.product(x, y)
        yield nsym.omega(x)
        yield nsym.specialize(nsym.convert(x, "H"), 2, -1)
    for alpha, beta in itertools.product(_comps(), repeat=2):
        if alpha.size + beta.size <= MAX_DEGREE:
            for basis in ("H", "B", "Bhat", "R"):
                yield nsym.product(
                    NSymElem.basis_elem(basis, alpha), NSymElem.basis_elem(basis, beta)
                )


def qsym_tensor_family():
    for src, nu in QSYM_BASES:
        for alpha in _comps():
            t = qsym.coproduct(QSymElem.basis_elem(src, alpha, nu=nu))
            yield t
            yield t.convert(("L", "E"))
    x, y = qsym.coproduct(qsym.M((1, 1))), qsym.coproduct(qsym.L((2,)))
    yield x + y
    yield x.product(y)


def nsym_tensor_family():
    for src in nsym.BASES:
        for alpha in _comps():
            t = nsym.coproduct(NSymElem.basis_elem(src, alpha))
            yield t
            yield t.convert(("B", "Bhat"))
    for k in range(MAX_DEGREE + 1):
        yield nsym.coproduct_bhat(k)
        for kmask in range(1 << max(k - 1, 0)):
            K = [i + 1 for i in range(k - 1) if kmask >> i & 1]
            yield nsym.coproduct_B_comp(k, K)
    yield nsym.coproduct(nsym.B((1, 1))) + nsym.coproduct_bhat(2)


def sym_family():
    for src in nsym.BASES:
        for alpha in _comps():
            yield comm(NSymElem.basis_elem(src, alpha))
    for a, b in itertools.product(("B", "Bhat", "Lambda"), repeat=2):
        x = comm(NSymElem.basis_elem(a, (1, 2)))
        y = comm(NSymElem.basis_elem(b, (2,)))
        yield x * y
        yield x + y.scale(WEIGHT)
        yield x - x
    yield SymElem.h((2, 1)) * SymElem.h((3,)) - SymElem.h((3, 2, 1)).scale(Q)


def fqsym_family():
    words = [w for n in range(4) for w in itertools.permutations(range(1, n + 1))]
    for u, v in itertools.product(words, repeat=2):
        yield fqsym.product_F(FQSymElem.F(u), FQSymElem.F(v))
    x = FQSymElem.F((2, 1)).scale(Q + T) + FQSymElem.F((1, 2))
    yield x
    yield x - x
    yield x * FQSymElem.F((1,)).scale(WEIGHT)


def scf_family():
    for nu in (2, 3):
        for n in range(MAX_DEGREE + 1):
            for members in subsets_of(n):
                yield ScfElem.kappa(nu, n, members)
                yield ScfElem.chi_dot(nu, n, members)
        x = ScfElem.kappa(nu, 3, {1}).scale(Fraction(2, 3)) + ScfElem.chi_dot(nu, 4, {1, 3})
        y = ScfElem.chi_dot(nu, 2, {1}).scale(Fraction(-5, 4)) + ScfElem.kappa(nu, 0)
        yield x + y
        yield x - x
        yield x - y.scale(-3)
        yield (x + y).scale(Fraction(7, 6))
        phi = groupscf.kappa(GroupSpec.standard(nu, 2), {1})
        psi = groupscf.kappa(GroupSpec.standard(nu, 2), ())
        yield ScfElem.from_dense(groupscf.product_m(phi, psi, 2, 2), 4)
        for left, right in groupscf.coproduct_k(groupscf.dot_chi(GroupSpec.standard(nu, 4), {2}), 2, 4):
            yield ScfElem.from_dense(left, 2)
            yield ScfElem.from_dense(right, 2)


FAMILIES = {
    "qsym": qsym_family,
    "nsym": nsym_family,
    "qsym_tensor": qsym_tensor_family,
    "nsym_tensor": nsym_tensor_family,
    "sym": sym_family,
    "fqsym": fqsym_family,
    "scf": scf_family,
}
JSON_FAMILIES = ("qsym", "nsym", "sym")


def repr_digest(name: str) -> str:
    h = hashlib.sha256()
    for x in FAMILIES[name]():
        h.update(repr(x).encode() + b"\n")
    return h.hexdigest()


def json_digest(name: str) -> str:
    h = hashlib.sha256()
    for x in FAMILIES[name]():
        h.update(json.dumps(x.to_json_dict(), sort_keys=True).encode() + b"\n")
    return h.hexdigest()


REPR_DIGESTS = {
    'qsym': '48db9d43e6140a13bd8b399ed96e35f3ff506892b4a1f22dc9ef48a7919d4149',
    'nsym': '696257ae73da32d91d97d7fd895e67cfa95afdb135208fdb294a0a015c190535',
    'qsym_tensor': '9e70d61db21c052d362a1bc07c2f586a348149cb9d63abe91875e8984f211c7b',
    'nsym_tensor': '064241e33080b388d1a960a048a86bee2b3c64a8785a9dd321d8d631c3c67f84',
    'sym': '0c8367724b5d9bf3f72b1fc720d29b6671d1690843d79e9376814f4a98d8be0e',
    'fqsym': 'ca53af571898ccdd0c7c3bd5d379f052e55c3dece16752771ece4c2e9125734f',
    'scf': '959567f426586b3c74f59108c36c39ca02368aa22c074f9045b4a53d625ce75d',
}

JSON_DIGESTS = {
    'qsym': 'a6119a55ee75d4d68d208d34cbf4d19bc7ee28e5defbe53dc34b49ccdbcedc46',
    'nsym': 'aa5e6a6c63aac0ee04bccacbd3776cc195dbf7c2327a88e7a4ee2a923559e7b5',
    'sym': '74558fee5440aceb2b13061f70a7d6e9f5a63e51c8f87b9b4fe918b322e1be1b',
}


def test_every_family_is_recorded():
    assert set(REPR_DIGESTS) == set(FAMILIES)
    assert set(JSON_DIGESTS) == set(JSON_FAMILIES)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_printed_elements_unchanged(name):
    assert repr_digest(name) == REPR_DIGESTS[name]


@pytest.mark.parametrize("name", JSON_FAMILIES)
def test_json_unchanged(name):
    assert json_digest(name) == JSON_DIGESTS[name]


if __name__ == "__main__":
    print("REPR_DIGESTS = {")
    for name in FAMILIES:
        print(f"    {name!r}: {repr_digest(name)!r},")
    print("}\n\nJSON_DIGESTS = {")
    for name in JSON_FAMILIES:
        print(f"    {name!r}: {json_digest(name)!r},")
    print("}")
