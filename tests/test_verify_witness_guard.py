"""Exact report rows of every verification sweep, passing and failing.

Each fault below swaps one piece of the mathematics under a check for a wrong
one (the antipode for the identity, the pairing for 1, ...) and runs a suite
at small degree.  The `(name, ok, witness)` rows it returns are compared with
a byte-for-byte record, so a change to a check's name, to the order in which
a sweep examines its cases, or to a witness string shows up here.  The
passing rows of every suite are recorded too.

Print the current rows with `python tests/test_verify_witness_guard.py`.
"""

import pytest

import fqsym_oracle
from hopfscf import charmap, groupscf, nsym, qsym, verify
from hopfscf.compositions import SubsetLabel
from hopfscf.groupscf import ClassFunction, GroupSpec
from hopfscf.nsym import NSymTensor
from hopfscf.scalars import ONE, Q

SMALL = {"diagrams": (2, [2, 3]), "group-axioms": (3, [2, 3])}


def run(name):
    degree, nus = SMALL.get(name, (3, None))
    return lambda: verify.run_suite(name, degree, nus)


def small_overlap():
    return verify.suite_overlap(3, count_bound=2)


def weighted(coproduct):
    """A coproduct that weights each term by the length of its left label:
    no longer coassociative, and no longer the group-side coproduct."""

    def twisted(x):
        t = coproduct(x)
        return type(t)(t.bases, {k: v * (len(k[0]) + 1) for k, v in t.terms.items()})

    return twisted


def degree(x):
    return max(map(sum, x.terms), default=0)


def only_when(when, wrong, right):
    """`wrong` on the arguments `when` holds for, `right` elsewhere: a fault
    that a sweep meets only part of the way through its cases."""
    return lambda *args: (wrong if when(*args) else right)(*args)


def doubled(fn):
    return lambda spec, I: fn(spec, I).scale(2)


def counting(spec, I):
    """Not constant on superclasses once the group has an element of order 3."""
    return ClassFunction(spec, range(spec.order), 1)


# name -> (patches as (module, attribute, replacement), the sweep to run)
FAULTS = {
    "qsym.antipode=id": ([(qsym, "antipode", lambda x: x)], run("hopf-axioms")),
    "qsym.counit=1": ([(qsym, "counit", lambda x: ONE)], run("hopf-axioms")),
    "nsym.counit=1": ([(nsym, "counit", lambda x: ONE)], run("hopf-axioms")),
    "qsym.product=left": ([(qsym, "product", lambda x, y: x)], run("hopf-axioms")),
    "nsym.coproduct=weighted": (
        [(nsym, "coproduct", weighted(nsym.coproduct))],
        run("hopf-axioms"),
    ),
    "nsym.pairing=1": ([(nsym, "pairing", lambda f, x: ONE)], run("dualities")),
    "nsym.pairing=1 at degree 3": (
        [(nsym, "pairing", only_when(lambda f, x: degree(f) == 3, lambda f, x: ONE, nsym.pairing))],
        run("dualities"),
    ),
    "nsym.specialize=id": (
        [(nsym, "specialize", lambda x, q0, t0: x)],
        run("specializations"),
    ),
    "nsym.omega=to_H": (
        [(nsym, "omega", lambda x: nsym.convert(x, "H"))],
        run("omega"),
    ),
    "overlapping_shuffles=empty": (
        [(verify, "overlapping_shuffles", lambda a, b: {})],
        run("overlap"),
    ),
    "overlapping_shuffles=empty at (2, 1)": (
        [
            (
                verify,
                "overlapping_shuffles",
                only_when(
                    lambda a, b: (sum(a), sum(b)) == (2, 1),
                    lambda a, b: {},
                    verify.overlapping_shuffles,
                ),
            )
        ],
        small_overlap,
    ),
    "structure_constants_sweep=empty": (
        [(nsym, "structure_constants_sweep", lambda k, m, I, J: {})],
        small_overlap,
    ),
    "qsym.product=by_basis": (
        [(qsym, "product", lambda x, y: x if x.basis == "M" else y)],
        small_overlap,
    ),
    "qsym.product=by_basis at degree 3": (
        [
            (
                qsym,
                "product",
                only_when(
                    lambda x, y: 0 < degree(x) < 3 and degree(x) + degree(y) == 3,
                    lambda x, y: x if x.basis == "M" else y,
                    qsym.product,
                ),
            )
        ],
        small_overlap,
    ),
    "nsym.structure_constant=1/q": (
        [(nsym, "structure_constant", lambda k, K, m, I, J: 1 / Q)],
        run("integrality"),
    ),
    "nsym.structure_constant=1/q at k=3, m=1": (
        [
            (
                nsym,
                "structure_constant",
                only_when(lambda k, K, m, I, J: (k, m) == (3, 1), lambda *a: 1 / Q, nsym.structure_constant),
            )
        ],
        run("integrality"),
    ),
    "nsym.coproduct_B_comp=0": (
        [(nsym, "coproduct_B_comp", lambda k, K: NSymTensor(("B", "B")))],
        run("integrality"),
    ),
    "descent_set=empty": (
        [(fqsym_oracle, "descent_set", lambda word: SubsetLabel(len(word), 0))],
        lambda: fqsym_oracle.fqsym_descent_oracle(3),
    ),
    "descent_set=empty at length 3": (
        [
            (
                fqsym_oracle,
                "descent_set",
                only_when(lambda word: len(word) == 3, lambda word: SubsetLabel(3, 0), fqsym_oracle.descent_set),
            )
        ],
        lambda: fqsym_oracle.fqsym_descent_oracle(3),
    ),
    "diagrams:qsym.product=left at degree 2": (
        [
            (
                qsym,
                "product",
                only_when(lambda x, y: degree(x) == degree(y) == 1, lambda x, y: x, qsym.product),
            )
        ],
        run("diagrams"),
    ),
    "diagrams:qsym.product=left": ([(qsym, "product", lambda x, y: x)], run("diagrams")),
    "diagrams:qsym.coproduct=weighted": (
        [(qsym, "coproduct", weighted(qsym.coproduct))],
        run("diagrams"),
    ),
    "diagrams:subsets_of=empty_only": (
        [(charmap, "subsets_of", lambda n: [()])],
        run("diagrams"),
    ),
    "nsym.omega=to_H at degree 3": (
        [
            (
                nsym,
                "omega",
                only_when(lambda x: degree(x) == 3, lambda x: nsym.convert(x, "H"), nsym.omega),
            )
        ],
        run("omega"),
    ),
    "groupscf.kappa=one": (
        [(groupscf, "kappa", lambda spec, I: groupscf.one(spec))],
        run("group-axioms"),
    ),
    "groupscf.chi=doubled": (
        [(groupscf, "chi", doubled(groupscf.chi))],
        run("group-axioms"),
    ),
    "groupscf.chi=counting": ([(groupscf, "chi", counting)], run("group-axioms")),
    "groupscf.lattice=one": (
        [(groupscf, "lattice_superclass_oracle", lambda spec, I: groupscf.one(spec))],
        run("group-axioms"),
    ),
    "verify_axioms:kappa=one": (
        [(groupscf, "kappa", lambda spec, I: groupscf.one(spec))],
        lambda: groupscf.verify_axioms(GroupSpec.standard(3, 3)),
    ),
    "verify_axioms:chi=counting": (
        [(groupscf, "chi", counting)],
        lambda: groupscf.verify_axioms(GroupSpec.standard(3, 3)),
    ),
    "verify_axioms:kappa_norm": (
        [(groupscf, "kappa", doubled(groupscf.kappa))],
        lambda: groupscf.verify_axioms(GroupSpec.standard(2, 3)),
    ),
}

PASSING = {
    **{f"pass:{name}": run(name) for name in verify.SUITES},
    "pass:fqsym_descent_oracle": lambda: fqsym_oracle.fqsym_descent_oracle(3),
    "pass:verify_axioms": lambda: groupscf.verify_axioms(GroupSpec.standard(3, 3)),
}


def rows(case, monkeypatch):
    patches, sweep = FAULTS[case] if case in FAULTS else ([], PASSING[case])
    for module, attr, value in patches:
        monkeypatch.setattr(module, attr, value)
    return sweep().checks


# printed by this file's __main__
ROWS = {
    'pass:hopf-axioms': [
        ('QSym antipode axiom', True, ''),
        ('QSym counit laws', True, ''),
        ('QSym bialgebra compatibility', True, ''),
        ('NSym counit laws', True, ''),
        ('coassociativity', True, ''),
    ],
    'pass:diagrams': [
        ('nu=2 deg<=2: ch intertwines products', True, ''),
        ('nu=2 deg<=2: ch intertwines coproducts', True, ''),
        ('nu=2 deg<=2: graded dimension 2^(n-1)', True, ''),
        ('nu=3 deg<=2: ch intertwines products', True, ''),
        ('nu=3 deg<=2: ch intertwines coproducts', True, ''),
        ('nu=3 deg<=2: graded dimension 2^(n-1)', True, ''),
    ],
    'pass:dualities': [
        ('pairing matrix (H, M) = identity', True, ''),
        ('pairing matrix (R, L) = identity', True, ''),
        ('pairing matrix (Estar, E) = identity', True, ''),
    ],
    'pass:specializations': [
        ('B(1,0) = H of complement', True, ''),
        ('B(-1,1) = Lambda of complement', True, ''),
        ('B(1,-1) = E* of complement', True, ''),
    ],
    'pass:omega': [
        ('omega(Bhat(q,t)) = Bhat(-q,q+t) reversed', True, ''),
        ('omega is an involution', True, ''),
        ('omega is an anti-homomorphism', True, ''),
    ],
    'pass:overlap': [
        ('the three overlapping-shuffle descriptions agree', True, ''),
        ('C^K_IJ(1,0) counts overlapping shuffles', True, ''),
        ('M-route product equals L-route product', True, ''),
    ],
    'pass:group-axioms': [
        ('nu=2 n=0: axioms C1-C3, norms, lattice', True, ''),
        ('nu=2 n=1: axioms C1-C3, norms, lattice', True, ''),
        ('nu=2 n=2: axioms C1-C3, norms, lattice', True, ''),
        ('nu=2 n=3: axioms C1-C3, norms, lattice', True, ''),
        ('nu=3 n=0: axioms C1-C3, norms, lattice', True, ''),
        ('nu=3 n=1: axioms C1-C3, norms, lattice', True, ''),
        ('nu=3 n=2: axioms C1-C3, norms, lattice', True, ''),
        ('nu=3 n=3: axioms C1-C3, norms, lattice', True, ''),
    ],
    'pass:integrality': [
        ('C^K_IJ(q,t) lies in Z[q,t]', True, ''),
        ('closed sum matches the H-route coproduct', True, ''),
    ],
    'pass:fqsym_descent_oracle': [
        ('descents of shifted shuffles = A-shuffles', True, ''),
    ],
    'pass:verify_axioms': [
        ('C1 identity superclass', True, ''),
        ('C2 superclass count', True, ''),
        ('C2 supercharacter count', True, ''),
        ('C3 superclass constancy', True, ''),
        ('superclass partition', True, ''),
        ('Hall orthogonality', True, ''),
        ('Hall norms', True, ''),
        ('lattice superclasses', True, ''),
    ],
    'qsym.antipode=id': [
        ('QSym antipode axiom', False, 'antipode axiom at M_(1)'),
        ('QSym counit laws', True, ''),
        ('QSym bialgebra compatibility', True, ''),
        ('NSym counit laws', True, ''),
        ('coassociativity', True, ''),
    ],
    'qsym.counit=1': [
        ('QSym antipode axiom', False, 'antipode axiom at M_(1)'),
        ('QSym counit laws', False, 'counit law at M_(1)'),
        ('QSym bialgebra compatibility', True, ''),
        ('NSym counit laws', True, ''),
        ('coassociativity', True, ''),
    ],
    'nsym.counit=1': [
        ('QSym antipode axiom', True, ''),
        ('QSym counit laws', True, ''),
        ('QSym bialgebra compatibility', True, ''),
        ('NSym counit laws', False, 'NSym counit law at H_(1)'),
        ('coassociativity', True, ''),
    ],
    'qsym.product=left': [
        ('QSym antipode axiom', False, 'antipode axiom at M_(1)'),
        ('QSym counit laws', True, ''),
        ('QSym bialgebra compatibility', False, 'compatibility at (), (1)'),
        ('NSym counit laws', True, ''),
        ('coassociativity', True, ''),
    ],
    'nsym.coproduct=weighted': [
        ('QSym antipode axiom', True, ''),
        ('QSym counit laws', True, ''),
        ('QSym bialgebra compatibility', True, ''),
        ('NSym counit laws', False, 'NSym counit law at H_(1)'),
        ('coassociativity', False, 'coassociativity at (1)'),
    ],
    'nsym.pairing=1': [
        ('pairing matrix (H, M) = identity', False, '(H_(2), M_(1,1))'),
        ('pairing matrix (R, L) = identity', False, '(R_(2), L_(1,1))'),
        ('pairing matrix (Estar, E) = identity', False, '(Estar_(2), E_(1,1))'),
    ],
    'nsym.pairing=1 at degree 3': [
        ('pairing matrix (H, M) = identity', False, '(H_(3), M_(1,2))'),
        ('pairing matrix (R, L) = identity', False, '(R_(3), L_(1,2))'),
        ('pairing matrix (Estar, E) = identity', False, '(Estar_(3), E_(1,2))'),
    ],
    'nsym.specialize=id': [
        ('B(1,0) = H of complement', False, 'at alpha=(1,1)'),
        ('B(-1,1) = Lambda of complement', False, 'at alpha=(1,1)'),
        ('B(1,-1) = E* of complement', False, 'at alpha=(1,1)'),
    ],
    'nsym.omega=to_H': [
        ('omega(Bhat(q,t)) = Bhat(-q,q+t) reversed', False, 'at alpha=(2)'),
        ('omega is an involution', True, ''),
        ('omega is an anti-homomorphism', False, 'at (1), (2)'),
    ],
    'overlapping_shuffles=empty': [
        ('the three overlapping-shuffle descriptions agree', False, 'm=0 n=0 I=[] J=[] K=(): 0 vs 1 vs 1'),
        ('C^K_IJ(1,0) counts overlapping shuffles', False, 'C(1,0) mismatch m=0 n=0 I=[] J=[] K=()'),
        ('M-route product equals L-route product', True, ''),
    ],
    'overlapping_shuffles=empty at (2, 1)': [
        ('the three overlapping-shuffle descriptions agree', False, 'm=2 n=1 I=[] J=[] K=(): 0 vs 3 vs 3'),
        ('C^K_IJ(1,0) counts overlapping shuffles', False, 'C(1,0) mismatch m=2 n=1 I=[] J=[] K=()'),
        ('M-route product equals L-route product', True, ''),
    ],
    'structure_constants_sweep=empty': [
        ('the three overlapping-shuffle descriptions agree', True, ''),
        ('C^K_IJ(1,0) counts overlapping shuffles', False, 'C(1,0) mismatch m=0 n=0 I=[] J=[] K=()'),
        ('M-route product equals L-route product', True, ''),
    ],
    'qsym.product=by_basis': [
        ('the three overlapping-shuffle descriptions agree', True, ''),
        ('C^K_IJ(1,0) counts overlapping shuffles', True, ''),
        ('M-route product equals L-route product', False, 'at (), (1)'),
    ],
    'qsym.product=by_basis at degree 3': [
        ('the three overlapping-shuffle descriptions agree', True, ''),
        ('C^K_IJ(1,0) counts overlapping shuffles', True, ''),
        ('M-route product equals L-route product', False, 'at (1), (2)'),
    ],
    'nsym.structure_constant=1/q': [
        ('C^K_IJ(q,t) lies in Z[q,t]', False, 'k=0 K=[] m=0 I=[] J=[]: 1 / q'),
        ('closed sum matches the H-route coproduct', True, ''),
    ],
    'nsym.structure_constant=1/q at k=3, m=1': [
        ('C^K_IJ(q,t) lies in Z[q,t]', False, 'k=3 K=[] m=1 I=[] J=[]: 1 / q'),
        ('closed sum matches the H-route coproduct', True, ''),
    ],
    'nsym.coproduct_B_comp=0': [
        ('C^K_IJ(q,t) lies in Z[q,t]', True, ''),
        ('closed sum matches the H-route coproduct', False, 'k=0 K=[]'),
    ],
    'descent_set=empty': [
        ('descents of shifted shuffles = A-shuffles', False, 'm=0 n=2 I=[] J=[1]'),
    ],
    'descent_set=empty at length 3': [
        ('descents of shifted shuffles = A-shuffles', False, 'm=0 n=3 I=[] J=[1]'),
    ],
    'diagrams:qsym.product=left at degree 2': [
        ('nu=2 deg<=2: ch intertwines products', False, 'product kappa[] (deg 1) * kappa[] (deg 1)'),
        ('nu=2 deg<=2: ch intertwines coproducts', True, ''),
        ('nu=2 deg<=2: graded dimension 2^(n-1)', True, ''),
        ('nu=3 deg<=2: ch intertwines products', False, 'product kappa[] (deg 1) * kappa[] (deg 1)'),
        ('nu=3 deg<=2: ch intertwines coproducts', True, ''),
        ('nu=3 deg<=2: graded dimension 2^(n-1)', True, ''),
    ],
    'diagrams:qsym.product=left': [
        ('nu=2 deg<=2: ch intertwines products', False, 'product kappa[] (deg 0) * kappa[] (deg 1)'),
        ('nu=2 deg<=2: ch intertwines coproducts', True, ''),
        ('nu=2 deg<=2: graded dimension 2^(n-1)', True, ''),
        ('nu=3 deg<=2: ch intertwines products', False, 'product kappa[] (deg 0) * kappa[] (deg 1)'),
        ('nu=3 deg<=2: ch intertwines coproducts', True, ''),
        ('nu=3 deg<=2: graded dimension 2^(n-1)', True, ''),
    ],
    'diagrams:qsym.coproduct=weighted': [
        ('nu=2 deg<=2: ch intertwines products', True, ''),
        ('nu=2 deg<=2: ch intertwines coproducts', False, 'coproduct kappa[] (deg 1)'),
        ('nu=2 deg<=2: graded dimension 2^(n-1)', True, ''),
        ('nu=3 deg<=2: ch intertwines products', True, ''),
        ('nu=3 deg<=2: ch intertwines coproducts', False, 'coproduct kappa[] (deg 1)'),
        ('nu=3 deg<=2: graded dimension 2^(n-1)', True, ''),
    ],
    'diagrams:subsets_of=empty_only': [
        ('nu=2 deg<=2: ch intertwines products', True, ''),
        ('nu=2 deg<=2: ch intertwines coproducts', True, ''),
        ('nu=2 deg<=2: graded dimension 2^(n-1)', False, ''),
        ('nu=3 deg<=2: ch intertwines products', True, ''),
        ('nu=3 deg<=2: ch intertwines coproducts', True, ''),
        ('nu=3 deg<=2: graded dimension 2^(n-1)', False, ''),
    ],
    'nsym.omega=to_H at degree 3': [
        ('omega(Bhat(q,t)) = Bhat(-q,q+t) reversed', False, 'at alpha=(3)'),
        ('omega is an involution', True, ''),
        ('omega is an anti-homomorphism', False, 'at (1), (2)'),
    ],
    'groupscf.kappa=one': [
        ('nu=2 n=0: axioms C1-C3, norms, lattice', True, ''),
        ('nu=2 n=1: axioms C1-C3, norms, lattice', True, ''),
        ('nu=2 n=2: axioms C1-C3, norms, lattice', False, 'C1 identity superclass: cl_emptyset != {0}; C2 superclass count: superclasses collide; superclass partition: sum of kappas != 1; Hall orthogonality: <kappa_[], kappa_[1]> != 0; Hall norms: kappa norm at I=[]; lattice superclasses: lattice superclass at I=[]'),
        ('nu=2 n=3: axioms C1-C3, norms, lattice', False, 'C1 identity superclass: cl_emptyset != {0}; C2 superclass count: superclasses collide; superclass partition: sum of kappas != 1; Hall orthogonality: <kappa_[], kappa_[1]> != 0; Hall norms: kappa norm at I=[]; lattice superclasses: lattice superclass at I=[]'),
        ('nu=3 n=0: axioms C1-C3, norms, lattice', True, ''),
        ('nu=3 n=1: axioms C1-C3, norms, lattice', True, ''),
        ('nu=3 n=2: axioms C1-C3, norms, lattice', False, 'C1 identity superclass: cl_emptyset != {0}; C2 superclass count: superclasses collide; superclass partition: sum of kappas != 1; Hall orthogonality: <kappa_[], kappa_[1]> != 0; Hall norms: kappa norm at I=[]; lattice superclasses: lattice superclass at I=[]'),
        ('nu=3 n=3: axioms C1-C3, norms, lattice', False, 'C1 identity superclass: cl_emptyset != {0}; C2 superclass count: superclasses collide; superclass partition: sum of kappas != 1; Hall orthogonality: <kappa_[], kappa_[1]> != 0; Hall norms: kappa norm at I=[]; lattice superclasses: lattice superclass at I=[]'),
    ],
    'groupscf.chi=doubled': [
        ('nu=2 n=0: axioms C1-C3, norms, lattice', False, 'Hall norms: chi norm at I=[]'),
        ('nu=2 n=1: axioms C1-C3, norms, lattice', False, 'Hall norms: chi norm at I=[]'),
        ('nu=2 n=2: axioms C1-C3, norms, lattice', False, 'Hall norms: chi norm at I=[]'),
        ('nu=2 n=3: axioms C1-C3, norms, lattice', False, 'Hall norms: chi norm at I=[]'),
        ('nu=3 n=0: axioms C1-C3, norms, lattice', False, 'Hall norms: chi norm at I=[]'),
        ('nu=3 n=1: axioms C1-C3, norms, lattice', False, 'Hall norms: chi norm at I=[]'),
        ('nu=3 n=2: axioms C1-C3, norms, lattice', False, 'Hall norms: chi norm at I=[]'),
        ('nu=3 n=3: axioms C1-C3, norms, lattice', False, 'Hall norms: chi norm at I=[]'),
    ],
    'groupscf.chi=counting': [
        ('nu=2 n=0: axioms C1-C3, norms, lattice', False, 'Hall norms: chi norm at I=[]'),
        ('nu=2 n=1: axioms C1-C3, norms, lattice', False, 'Hall norms: chi norm at I=[]'),
        ('nu=2 n=2: axioms C1-C3, norms, lattice', False, 'C2 supercharacter count: supercharacters collide; Hall orthogonality: <chi^[], chi^[1]> != 0; Hall norms: chi norm at I=[]'),
        ('nu=2 n=3: axioms C1-C3, norms, lattice', False, 'C2 supercharacter count: supercharacters collide; Hall orthogonality: <chi^[], chi^[1]> != 0; Hall norms: chi norm at I=[]'),
        ('nu=3 n=0: axioms C1-C3, norms, lattice', False, 'Hall norms: chi norm at I=[]'),
        ('nu=3 n=1: axioms C1-C3, norms, lattice', False, 'Hall norms: chi norm at I=[]'),
        ('nu=3 n=2: axioms C1-C3, norms, lattice', False, 'C2 supercharacter count: supercharacters collide; C3 superclass constancy: chi^[]: not a superclass function: differs on cl_[1]; Hall orthogonality: <chi^[], chi^[1]> != 0; Hall norms: chi norm at I=[]'),
        ('nu=3 n=3: axioms C1-C3, norms, lattice', False, 'C2 supercharacter count: supercharacters collide; C3 superclass constancy: chi^[]: not a superclass function: differs on cl_[2]; Hall orthogonality: <chi^[], chi^[1]> != 0; Hall norms: chi norm at I=[]'),
    ],
    'groupscf.lattice=one': [
        ('nu=2 n=0: axioms C1-C3, norms, lattice', True, ''),
        ('nu=2 n=1: axioms C1-C3, norms, lattice', True, ''),
        ('nu=2 n=2: axioms C1-C3, norms, lattice', False, 'lattice superclasses: lattice superclass at I=[]'),
        ('nu=2 n=3: axioms C1-C3, norms, lattice', False, 'lattice superclasses: lattice superclass at I=[]'),
        ('nu=3 n=0: axioms C1-C3, norms, lattice', True, ''),
        ('nu=3 n=1: axioms C1-C3, norms, lattice', True, ''),
        ('nu=3 n=2: axioms C1-C3, norms, lattice', False, 'lattice superclasses: lattice superclass at I=[]'),
        ('nu=3 n=3: axioms C1-C3, norms, lattice', False, 'lattice superclasses: lattice superclass at I=[]'),
    ],
    'verify_axioms:kappa=one': [
        ('C1 identity superclass', False, 'cl_emptyset != {0}'),
        ('C2 superclass count', False, 'superclasses collide'),
        ('C2 supercharacter count', True, ''),
        ('C3 superclass constancy', True, ''),
        ('superclass partition', False, 'sum of kappas != 1'),
        ('Hall orthogonality', False, '<kappa_[], kappa_[1]> != 0'),
        ('Hall norms', False, 'kappa norm at I=[]'),
        ('lattice superclasses', False, 'lattice superclass at I=[]'),
    ],
    'verify_axioms:chi=counting': [
        ('C1 identity superclass', True, ''),
        ('C2 superclass count', True, ''),
        ('C2 supercharacter count', False, 'supercharacters collide'),
        ('C3 superclass constancy', False, 'chi^[]: not a superclass function: differs on cl_[2]'),
        ('superclass partition', True, ''),
        ('Hall orthogonality', False, '<chi^[], chi^[1]> != 0'),
        ('Hall norms', False, 'chi norm at I=[]'),
        ('lattice superclasses', True, ''),
    ],
    'verify_axioms:kappa_norm': [
        ('C1 identity superclass', False, 'cl_emptyset != {0}'),
        ('C2 superclass count', True, ''),
        ('C2 supercharacter count', True, ''),
        ('C3 superclass constancy', True, ''),
        ('superclass partition', False, 'sum of kappas != 1'),
        ('Hall orthogonality', True, ''),
        ('Hall norms', False, 'kappa norm at I=[]'),
        ('lattice superclasses', False, 'lattice superclass at I=[]'),
    ],
}


@pytest.mark.parametrize("case", [*PASSING, *FAULTS])
def test_rows_are_unchanged(case, monkeypatch):
    assert rows(case, monkeypatch) == ROWS[case]


def test_every_fault_fails_a_check():
    for case, expected in ROWS.items():
        assert all(ok for _, ok, _ in expected) == case.startswith("pass:"), case


if __name__ == "__main__":
    print("ROWS = {")
    for case in [*PASSING, *FAULTS]:
        with pytest.MonkeyPatch.context() as m:
            print(f"    {case!r}: [")
            for row in rows(case, m):
                print(f"        {row!r},")
            print("    ],")
    print("}")
