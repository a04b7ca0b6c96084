"""Named verification suites: the closed-form identities as executable sweeps.

Each suite returns a CheckReport; the CLI prints one pass/fail line per check
and exits nonzero on any failure.  Every check is one `groupscf.check` sweep:
a flat generator of cases and a local fault function that returns None while
a case holds and the witness string at the first case that does not.  Degree
bounds default to the desk-scale values the suites are specified at.
"""

from __future__ import annotations

import itertools
from collections import Counter

from . import charmap, groupscf, nsym, qsym
from .compositions import (
    _full_mask,
    check_ambient,
    comp_of_mask,
    complement,
    compositions_of,
    mask_of,
    mask_of_comp,
    members_of,
    overlapping_shuffles,
    subsets_of,
)
from .groupscf import CheckReport, GroupSpec, check
from .linear import extend
from .nsym import NSymElem, b_inverse_entry, b_matrix_entry
from .qsym import (
    L_from_pi_entry,
    M_from_pi_entry,
    QSymElem,
    pi_from_L_entry,
    pi_from_M_entry,
)
from .scalars import ONE, ZERO, Q, T, _exact_nu

# the default degree bound per nu of each per-nu dense suite
_NU_DEFAULTS = {"diagrams": {2: 6, 3: 5}, "group-axioms": {2: 7, 3: 5}}


# ---------------------------------------------------------------------------
# case generators


def _compositions_upto(max_degree: int) -> tuple:
    """Every composition of degree <= max_degree, by degree."""
    return tuple(alpha for n in range(max_degree + 1) for alpha in compositions_of(n))


def _subsets_upto(max_k: int):
    """(k, K) for every subset K of [k-1], k <= max_k, by k."""
    return ((k, K) for k in range(max_k + 1) for K in subsets_of(k))


def _by_total(bound: int):
    """(m, n) with m + n <= bound, by total degree, then m."""
    return ((m, total - m) for total in range(bound + 1) for m in range(total + 1))


def _triangle(bound: int):
    """(m, n) with m + n <= bound, by m, then n."""
    return ((m, n) for m in range(bound + 1) for n in range(bound + 1 - m))


def _composition_pairs(shapes):
    """(alpha, beta) over the compositions of m and of n, for each (m, n)."""
    return ((a, b) for m, n in shapes for a in compositions_of(m) for b in compositions_of(n))


def _subset_pairs(shapes):
    """(m, n, I, J) over the subsets I of [m-1] and J of [n-1], for each (m, n)."""
    return ((m, n, I, J) for m, n in shapes for I in subsets_of(m) for J in subsets_of(n))


# ---------------------------------------------------------------------------
# hopf-axioms


def _counit_laws(algebra, elem, witness: str):
    def fault(alpha):
        x = elem(alpha)
        terms = algebra.coproduct(x).terms.items()
        left = x._with_terms(extend(terms, lambda ab: ((ab[1], algebra.counit(elem(ab[0]))),)))
        right = x._with_terms(extend(terms, lambda ab: ((ab[0], algebra.counit(elem(ab[1]))),)))
        if left != x or right != x:
            return f"{witness}{alpha}"

    return fault


def suite_hopf_axioms(max_degree: int = 5) -> CheckReport:
    def antipode(alpha):
        x = qsym.M(alpha)
        terms = qsym.coproduct(x).terms.items()

        def convolve(f, g):  # the sum of c * f(a) * g(b) over the terms of Delta x, in M
            return x._with_terms(extend(terms, lambda ab: (f(ab[0]) * g(ab[1])).terms.items()))

        def s_of(label):
            return qsym.antipode(qsym.M(label))

        expected = QSymElem.unit("M").scale(qsym.counit(x))
        if convolve(s_of, qsym.M) != expected or convolve(qsym.M, s_of) != expected:
            return f"antipode axiom at M_{alpha}"

    def compatibility(pair):
        alpha, beta = pair
        x, y = qsym.M(alpha), qsym.M(beta)
        if qsym.coproduct(x * y) != qsym.coproduct(x).product(qsym.coproduct(y)):
            return f"compatibility at {alpha}, {beta}"

    def coassociativity(alpha):
        for x, cop in ((qsym.M(alpha), qsym.coproduct), (nsym.H(alpha), nsym.coproduct)):

            def delta(label):
                return cop(type(x).basis_elem(x.basis, label)).terms.items()

            terms = cop(x).terms.items()
            left = extend(terms, lambda ab: (((a1, a2, ab[1]), c) for (a1, a2), c in delta(ab[0])))
            right = extend(terms, lambda ab: (((ab[0], b1, b2), c) for (b1, b2), c in delta(ab[1])))
            if left != right:
                return f"coassociativity at {alpha}"

    comps = _compositions_upto(max_degree)
    pairs = _composition_pairs(_by_total(min(max_degree + 1, 6)))
    return CheckReport([
        check("QSym antipode axiom", comps, antipode),
        check("QSym counit laws", comps, _counit_laws(qsym, qsym.M, "counit law at M_")),
        check("QSym bialgebra compatibility", pairs, compatibility),
        check("NSym counit laws", comps, _counit_laws(nsym, nsym.H, "NSym counit law at H_")),
        check("coassociativity", comps, coassociativity),
    ])


# ---------------------------------------------------------------------------
# diagrams / group-axioms: the per-nu dense suites


def _per_nu(suite: str, nu_degrees: dict[int, int] | None, rows) -> CheckReport:
    """The rows(nu, bound) of each nu in order, at the suite's defaults unless
    nu_degrees is given.  Every nu's largest group, of order nu^(bound-1), is
    built first, so an oversize request raises GroupBoundError before any work."""
    nu_degrees = nu_degrees or _NU_DEFAULTS[suite]
    for nu, bound in nu_degrees.items():
        GroupSpec.standard(nu, max(bound, 0))
    return CheckReport([row for nu, bound in sorted(nu_degrees.items()) for row in rows(nu, bound)])


def suite_diagrams(nu_degrees: dict[int, int] | None = None) -> CheckReport:
    return _per_nu("diagrams", nu_degrees, lambda nu, bound: (
        (f"nu={nu} deg<={bound}: {name}", ok, detail)
        for name, ok, detail in charmap.verify_diagrams(nu, bound).checks
    ))


def _axiom_failures(shape: tuple[int, int]):
    report = groupscf.verify_axioms(GroupSpec.standard(*shape))
    if not report.passed:
        return "; ".join(f"{name}: {detail}" for name, detail in report.failures())


def suite_group_axioms(nu_degrees: dict[int, int] | None = None) -> CheckReport:
    return _per_nu("group-axioms", nu_degrees, lambda nu, bound: (
        check(f"nu={nu} n={n}: axioms C1-C3, norms, lattice", [(nu, n)], _axiom_failures)
        for n in range(bound + 1)
    ))


# ---------------------------------------------------------------------------
# dualities


def suite_dualities(max_degree: int = 6) -> CheckReport:
    def dual_bases(left_name, left, right_name, right):
        def fault(pair):
            x, y = pair
            if nsym.pairing(left(x), right(y)) != (ONE if x == y else ZERO):
                return f"({left_name}_{x}, {right_name}_{y})"

        return check(
            f"pairing matrix ({left_name}, {right_name}) = identity",
            _composition_pairs((n, n) for n in range(max_degree + 1)),
            fault,
        )

    return CheckReport([
        dual_bases("H", nsym.H, "M", qsym.M),
        dual_bases("R", nsym.R, "L", qsym.L),
        dual_bases("Estar", nsym.Estar, "E", qsym.E),
    ])


# ---------------------------------------------------------------------------
# specializations


def suite_specializations(max_degree: int = 7) -> CheckReport:
    def specializes(name, q0, t0, target):
        def fault(alpha):
            lhs = nsym.specialize(nsym.convert(nsym.B(alpha), "H"), q0, t0)
            if lhs != nsym.convert(target(complement(alpha)), "H"):
                return f"at alpha={alpha}"

        return check(name, _compositions_upto(max_degree), fault)

    return CheckReport([
        specializes("B(1,0) = H of complement", 1, 0, nsym.H),
        specializes("B(-1,1) = Lambda of complement", -1, 1, nsym.Lam),
        specializes("B(1,-1) = E* of complement", 1, -1, nsym.Estar),
    ])


# ---------------------------------------------------------------------------
# omega


def suite_omega(max_degree: int = 6) -> CheckReport:
    def bhat_image(alpha):
        n = alpha.size
        lhs = nsym.omega(nsym.Bhat(alpha))
        imask = _full_mask(n) ^ mask_of_comp(alpha.reverse())
        terms = {
            comp_of_mask(n, hmask): coeff
            for hmask, coeff in nsym.b_to_H_masks(n, imask, qs=-Q, ts=Q + T).items()
        }
        if lhs != NSymElem("H", terms):
            return f"at alpha={alpha}"

    def involution(alpha):
        if nsym.omega(nsym.omega(nsym.H(alpha))) != nsym.H(alpha):
            return f"omega^2 at H_{alpha}"

    def anti_homomorphism(pair):
        alpha, beta = pair
        lhs = nsym.omega(nsym.H(alpha) * nsym.H(beta))
        if lhs != nsym.omega(nsym.H(beta)) * nsym.omega(nsym.H(alpha)):
            return f"at {alpha}, {beta}"

    comps = _compositions_upto(max_degree)
    pairs = _composition_pairs(_triangle(min(max_degree, 4)))
    return CheckReport([
        check("omega(Bhat(q,t)) = Bhat(-q,q+t) reversed", comps, bhat_image),
        check("omega is an involution", comps, involution),
        check("omega is an anti-homomorphism", pairs, anti_homomorphism),
    ])


# ---------------------------------------------------------------------------
# overlap


def _overlap_selector_counts(m: int, n: int, I, J) -> dict:
    """For fixed (I, J): per-K selector counts of the two A-set descriptions."""
    size = len(I) + len(J)
    selectors = list(nsym.admissible_selectors(m + n, m, I, J))
    return {
        "size": Counter(kmask for kmask, c2 in selectors if (kmask & ~c2).bit_count() == size),
        "empty": Counter(kmask for kmask, c2 in selectors if not kmask & c2),
    }


def _overlap_shuffles(m: int, n: int, I, J) -> dict:
    """Overlapping shuffles of the complements of comp(I) and comp(J), by K's mask."""
    words = overlapping_shuffles(
        comp_of_mask(m, _full_mask(m) ^ mask_of(I)), comp_of_mask(n, _full_mask(n) ^ mask_of(J))
    )
    return {_full_mask(m + n) ^ mask_of_comp(w): count for w, count in words.items()}


def suite_overlap(max_degree: int = 8, count_bound: int = 4) -> CheckReport:
    def descriptions(case):
        m, n, I, J = case
        k = m + n
        counts = _overlap_selector_counts(m, n, I, J)
        shuffles = _overlap_shuffles(m, n, I, J)
        for kmask in range(_full_mask(k) + 1):
            expected = shuffles.get(kmask, 0)
            got_b = counts["size"].get(kmask, 0)
            got_c = counts["empty"].get(kmask, 0)
            if not expected == got_b == got_c:
                return (
                    f"m={m} n={n} I={sorted(I)} J={sorted(J)} "
                    f"K={members_of(kmask)}: "
                    f"{expected} vs {got_b} vs {got_c}"
                )

    def constants_at_one_zero(case):
        m, n, I, J = case
        k = m + n
        shuffles = _overlap_shuffles(m, n, I, J)
        constants = nsym.structure_constants_sweep(k, m, I, J)
        for kmask in range(_full_mask(k) + 1):
            poly = constants.get(kmask, ZERO).as_integer_poly()
            if poly is None:
                return f"non-polynomial constant at K={members_of(kmask)}"
            if poly.eval_at(1, 0) != shuffles.get(kmask, 0):
                return f"C(1,0) mismatch m={m} n={n} I={sorted(I)} J={sorted(J)} K={members_of(kmask)}"

    def routes(pair):
        alpha, beta = pair
        via_M = qsym.M(alpha) * qsym.M(beta)
        if via_M != qsym.convert(qsym.M(alpha), "L") * qsym.convert(qsym.M(beta), "L"):
            return f"at {alpha}, {beta}"

    def square():  # m, n <= count_bound, by m, then n; only the pairs with m + n <= max_degree
        shapes = itertools.product(range(count_bound + 1), repeat=2)
        return _subset_pairs((m, n) for m, n in shapes if m + n <= max_degree)

    pairs = _composition_pairs(_by_total(max_degree))
    return CheckReport([
        check("the three overlapping-shuffle descriptions agree", square(), descriptions),
        check("C^K_IJ(1,0) counts overlapping shuffles", square(), constants_at_one_zero),
        check("M-route product equals L-route product", pairs, routes),
    ])


# ---------------------------------------------------------------------------
# integrality / structure constants


def suite_integrality(max_k: int = 6) -> CheckReport:
    def integral(case):
        k, K, m, _, I, J = case
        c = nsym.structure_constant(k, K, m, I, J)
        if not c.is_zero() and c.as_integer_poly() is None:
            return f"k={k} K={sorted(K)} m={m} I={sorted(I)} J={sorted(J)}: {c}"

    def closed_sum(case):
        k, K = case
        via_const = nsym.coproduct_B_comp(k, K)
        alpha = comp_of_mask(k, mask_of(K))
        if via_const != nsym.coproduct(nsym.B(alpha)):
            return f"k={k} K={sorted(K)}"

    constants = (
        (k, K, *triple)
        for k, K in _subsets_upto(max_k)
        for triple in _subset_pairs((m, k - m) for m in range(k + 1))
    )
    return CheckReport([
        check("C^K_IJ(q,t) lies in Z[q,t]", constants, integral),
        check("closed sum matches the H-route coproduct", _subsets_upto(max_k), closed_sum),
    ])


# ---------------------------------------------------------------------------
# transition-matrix inverse checks (acceptance: Pi/L, Pi/M, B/H)


def pi_L_matrices_inverse(n: int, nu: int) -> bool:
    """The two Pi/L displays multiply to the identity, both ways."""
    _exact_nu(nu)
    size = 1 << max(n - 1, 0)
    scale = nu ** max(n - 1, 0)
    A = [
        [int(pi_from_L_entry(n, r, c, nu)) for c in range(size)]
        for r in range(size)
    ]
    Bs = [
        [int(L_from_pi_entry(n, r, c, nu) * scale) for c in range(size)]
        for r in range(size)
    ]
    # L_I = sum_J A[I][J] Pi_J and Pi_J = (1/scale) sum_I Bs[J][I] L_I
    for X, Y in ((A, Bs), (Bs, A)):
        Yt = list(zip(*Y))
        for i in range(size):
            row = X[i]
            for j in range(size):
                s = sum(a * b for a, b in zip(row, Yt[j]))
                if s != (scale if i == j else 0):
                    return False
    return True


def _sparse_inverses(n: int, x_entry, y_entry) -> bool:
    """XY = YX = I for the two 2^(n-1)-square matrices with entries
    x_entry(row, col) and y_entry(row, col), multiplied as sparse rows."""
    size = 1 << max(n - 1, 0)
    X, Y = (
        [{j: v for j in range(size) if (v := entry(i, j))} for i in range(size)]
        for entry in (x_entry, y_entry)
    )
    for A, B in ((X, Y), (Y, X)):
        for i, row in enumerate(A):
            if extend(row.items(), lambda l: B[l].items()) != {i: 1}:
                return False
    return True


def pi_M_matrices_inverse(n: int, nu: int) -> bool:
    """The two Pi/M displays multiply to the identity, both ways (sparse)."""
    _exact_nu(nu)
    return _sparse_inverses(
        n, lambda i, j: pi_from_M_entry(n, i, j, nu), lambda i, j: M_from_pi_entry(n, i, j, nu)
    )


def bh_matrices_inverse(n: int) -> bool:
    """The B-to-H matrix and its stated inverse satisfy MN = NM = I symbolically."""
    return _sparse_inverses(
        n, lambda i, j: b_matrix_entry(n, i, j), lambda i, j: b_inverse_entry(n, i, j)
    )


# ---------------------------------------------------------------------------
# dispatch


def _nu_degrees(defaults: dict[int, int], max_degree: int | None, nus) -> dict[int, int]:
    """Degree bound per nu: the listed nus at their default bound (4 where
    there is none), or every default nu; all at max_degree when it is given."""
    degrees = {nu: defaults.get(nu, 4) for nu in nus} if nus else dict(defaults)
    if max_degree is not None:
        degrees = dict.fromkeys(degrees, max_degree)
    return degrees


def run_suite(name: str, max_degree: int | None = None, nus: list[int] | None = None) -> CheckReport:
    """Dispatch a named suite with optional overrides; without max_degree each
    suite runs at its own default bound.  A symbolic suite past the subset-mask
    bound could only end in AmbientBoundError, so it is refused first."""
    suite = SUITES.get(name)
    if suite is None:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    if name in _NU_DEFAULTS:
        return suite(_nu_degrees(_NU_DEFAULTS[name], max_degree, nus))
    return suite() if max_degree is None else suite(check_ambient(max_degree))


SUITES = {
    "hopf-axioms": suite_hopf_axioms,
    "diagrams": suite_diagrams,
    "dualities": suite_dualities,
    "specializations": suite_specializations,
    "omega": suite_omega,
    "overlap": suite_overlap,
    "group-axioms": suite_group_axioms,
    "integrality": suite_integrality,
}
