"""Named verification suites: the closed-form identities as executable sweeps.

Each suite returns a CheckReport; the CLI prints one pass/fail line per check
and exits nonzero on any failure.  Degree bounds default to the desk-scale
values the suites are specified at.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import charmap, groupscf, nsym, qsym
from .compositions import (
    SubsetLabel,
    a_shuffle,
    comp_of_set,
    complement,
    compositions_of,
    descent_rep,
    descent_set,
    iter_submasks,
    overlapping_shuffles,
    preshuffle,
    run_markers,
    set_of_comp,
    shifted_shuffle,
    subsets_of,
)
from .groupscf import CheckReport, GroupSpec
from .nsym import NSymElem, b_inverse_entry, b_matrix_entry
from .qsym import (
    L_from_pi_entry,
    M_from_pi_entry,
    QSymElem,
    _full_mask,
    pi_from_L_entry,
    pi_from_M_entry,
)
from .scalars import ONE, ZERO

SUITES = (
    "hopf-axioms",
    "diagrams",
    "dualities",
    "specializations",
    "omega",
    "overlap",
    "group-axioms",
    "integrality",
)

DEFAULT_NU_DEGREES = {2: 6, 3: 5}
GROUP_AXIOM_DEGREES = {2: 7, 3: 5}


# ---------------------------------------------------------------------------
# hopf-axioms


def suite_hopf_axioms(max_degree: int = 5) -> CheckReport:
    checks: list[tuple[str, bool, str]] = []

    ok, witness = True, ""
    for n in range(0, max_degree + 1):
        for alpha in compositions_of(n):
            x = qsym.M(alpha)
            t = qsym.coproduct(x)
            left = QSymElem.zero("M")
            right = QSymElem.zero("M")
            for (a, b), c in t.terms.items():
                left = left + (qsym.antipode(qsym.M(a)) * qsym.M(b)).scale(c)
                right = right + (qsym.M(a) * qsym.antipode(qsym.M(b))).scale(c)
            expected = QSymElem.unit("M").scale(qsym.counit(x))
            if left != expected or right != expected:
                ok, witness = False, f"antipode axiom at M_{alpha}"
                break
        if not ok:
            break
    checks.append(("QSym antipode axiom", ok, witness))

    ok, witness = True, ""
    for n in range(0, max_degree + 1):
        for alpha in compositions_of(n):
            x = qsym.M(alpha)
            t = qsym.coproduct(x)
            left = QSymElem.zero("M")
            right = QSymElem.zero("M")
            for (a, b), c in t.terms.items():
                left = left + qsym.M(b).scale(c * qsym.counit(qsym.M(a)))
                right = right + qsym.M(a).scale(c * qsym.counit(qsym.M(b)))
            if left != x or right != x:
                ok, witness = False, f"counit law at M_{alpha}"
                break
        if not ok:
            break
    checks.append(("QSym counit laws", ok, witness))

    ok, witness = True, ""
    bound = min(max_degree + 1, 6)
    for total in range(0, bound + 1):
        for m in range(0, total + 1):
            for alpha in compositions_of(m):
                for beta in compositions_of(total - m):
                    x, y = qsym.M(alpha), qsym.M(beta)
                    lhs = qsym.coproduct(x * y)
                    rhs = qsym.coproduct(x).product(qsym.coproduct(y))
                    if lhs != rhs:
                        ok, witness = False, f"compatibility at {alpha}, {beta}"
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            break
    checks.append(("QSym bialgebra compatibility", ok, witness))

    ok, witness = True, ""
    for n in range(0, max_degree + 1):
        for alpha in compositions_of(n):
            x = nsym.H(alpha)
            t = nsym.coproduct(x)
            left = NSymElem.zero("H")
            right = NSymElem.zero("H")
            for (a, b), c in t.terms.items():
                left = left + nsym.H(b).scale(c * nsym.counit(nsym.H(a)))
                right = right + nsym.H(a).scale(c * nsym.counit(nsym.H(b)))
            if left != x or right != x:
                ok, witness = False, f"NSym counit law at H_{alpha}"
                break
        if not ok:
            break
    checks.append(("NSym counit laws", ok, witness))

    ok, witness = True, ""
    for n in range(0, max_degree + 1):
        for alpha in compositions_of(n):
            for x, cop, zero in (
                (qsym.M(alpha), qsym.coproduct, QSymElem.zero("M")),
                (nsym.H(alpha), nsym.coproduct, NSymElem.zero("H")),
            ):
                left: dict = {}
                right: dict = {}
                for (a, b), c in cop(x).terms.items():
                    for (a1, a2), c2 in cop(type(x).basis_elem(x.basis, a)).terms.items():
                        qsym._add_term(left, (a1, a2, b), c * c2)
                    for (b1, b2), c2 in cop(type(x).basis_elem(x.basis, b)).terms.items():
                        qsym._add_term(right, (a, b1, b2), c * c2)
                if left != right:
                    ok, witness = False, f"coassociativity at {alpha}"
                    break
            if not ok:
                break
        if not ok:
            break
    checks.append(("coassociativity", ok, witness))

    return CheckReport(checks)


# ---------------------------------------------------------------------------
# diagrams / group-axioms


def suite_diagrams(nu_degrees: dict[int, int] | None = None) -> CheckReport:
    nu_degrees = nu_degrees or DEFAULT_NU_DEGREES
    checks: list[tuple[str, bool, str]] = []
    for nu, bound in sorted(nu_degrees.items()):
        report = charmap.verify_diagrams(nu, bound)
        for name, ok, detail in report.checks:
            checks.append((f"nu={nu} deg<={bound}: {name}", ok, detail))
    return CheckReport(checks)


def suite_group_axioms(nu_degrees: dict[int, int] | None = None) -> CheckReport:
    nu_degrees = nu_degrees or GROUP_AXIOM_DEGREES
    # building the largest group, of order nu^(bound-1), raises GroupBoundError
    # before any degree runs
    for nu, bound in nu_degrees.items():
        GroupSpec.standard(nu, max(bound, 0))
    checks: list[tuple[str, bool, str]] = []
    for nu, bound in sorted(nu_degrees.items()):
        for n in range(0, bound + 1):
            report = groupscf.verify_axioms(GroupSpec.standard(nu, n))
            bad = report.failures()
            checks.append(
                (
                    f"nu={nu} n={n}: axioms C1-C3, norms, lattice",
                    report.passed,
                    "; ".join(f"{name}: {detail}" for name, detail in bad),
                )
            )
    return CheckReport(checks)


# ---------------------------------------------------------------------------
# dualities


def suite_dualities(max_degree: int = 6) -> CheckReport:
    checks: list[tuple[str, bool, str]] = []
    pairs = (
        ("H", nsym.H, "M", qsym.M),
        ("R", nsym.R, "L", qsym.L),
        ("Estar", nsym.Estar, "E", qsym.E),
    )
    for left_name, left, right_name, right in pairs:
        ok, witness = True, ""
        for n in range(0, max_degree + 1):
            comps = list(compositions_of(n))
            for x in comps:
                for y in comps:
                    expected = ONE if x == y else ZERO
                    if nsym.pairing(left(x), right(y)) != expected:
                        ok = False
                        witness = f"({left_name}_{x}, {right_name}_{y})"
                        break
                if not ok:
                    break
            if not ok:
                break
        checks.append(
            (f"pairing matrix ({left_name}, {right_name}) = identity", ok, witness)
        )
    return CheckReport(checks)


# ---------------------------------------------------------------------------
# specializations


def suite_specializations(max_degree: int = 7) -> CheckReport:
    cases = (
        ("B(1,0) = H of complement", 1, 0, nsym.H),
        ("B(-1,1) = Lambda of complement", -1, 1, nsym.Lam),
        ("B(1,-1) = E* of complement", 1, -1, nsym.Estar),
    )
    checks = []
    for name, q0, t0, target in cases:
        ok, witness = True, ""
        for n in range(0, max_degree + 1):
            for alpha in compositions_of(n):
                lhs = nsym.specialize(nsym.convert(nsym.B(alpha), "H"), q0, t0)
                rhs = nsym.convert(target(complement(alpha)), "H")
                if lhs != rhs:
                    ok, witness = False, f"at alpha={alpha}"
                    break
            if not ok:
                break
        checks.append((name, ok, witness))
    return CheckReport(checks)


# ---------------------------------------------------------------------------
# omega


def suite_omega(max_degree: int = 6) -> CheckReport:
    from .scalars import Q, T

    checks = []
    ok, witness = True, ""
    for n in range(0, max_degree + 1):
        for alpha in compositions_of(n):
            lhs = nsym.omega(nsym.Bhat(alpha))
            imask = set_of_comp(complement(alpha.reverse())).mask
            terms = {
                comp_of_set(SubsetLabel(n, hmask)): coeff
                for hmask, coeff in nsym.b_to_H_masks(n, imask, qs=-Q, ts=Q + T).items()
            }
            if lhs != NSymElem("H", terms):
                ok, witness = False, f"at alpha={alpha}"
                break
        if not ok:
            break
    checks.append(("omega(Bhat(q,t)) = Bhat(-q,q+t) reversed", ok, witness))

    ok, witness = True, ""
    for n in range(0, max_degree + 1):
        for alpha in compositions_of(n):
            if nsym.omega(nsym.omega(nsym.H(alpha))) != nsym.H(alpha):
                ok, witness = False, f"omega^2 at H_{alpha}"
                break
        if not ok:
            break
    checks.append(("omega is an involution", ok, witness))

    ok, witness = True, ""
    for m in range(0, min(max_degree, 4) + 1):
        for n in range(0, min(max_degree, 4) + 1 - m):
            for alpha in compositions_of(m):
                for beta in compositions_of(n):
                    lhs = nsym.omega(nsym.H(alpha) * nsym.H(beta))
                    rhs = nsym.omega(nsym.H(beta)) * nsym.omega(nsym.H(alpha))
                    if lhs != rhs:
                        ok, witness = False, f"at {alpha}, {beta}"
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            break
    checks.append(("omega is an anti-homomorphism", ok, witness))

    return CheckReport(checks)


# ---------------------------------------------------------------------------
# overlap


def _overlap_selector_counts(m: int, n: int, I, J) -> dict:
    """For fixed (I, J): per-K selector counts of the two A-set descriptions."""
    k = m + n
    I_lbl, J_lbl = SubsetLabel.of(m, I), SubsetLabel.of(n, J)
    size_count: dict[int, int] = {}
    empty_count: dict[int, int] = {}
    for A in itertools.combinations(range(1, k + 1), n):
        pre = preshuffle(I_lbl, J_lbl, A, m, n)
        _, c2, c = run_markers(A, k)
        if pre.mask & c.mask:
            continue
        for sub in iter_submasks(c.mask & ~pre.mask):
            kmask = pre.mask | sub
            if (kmask & ~c2.mask).bit_count() == I_lbl.size + J_lbl.size:
                size_count[kmask] = size_count.get(kmask, 0) + 1
            if not kmask & c2.mask:
                empty_count[kmask] = empty_count.get(kmask, 0) + 1
    return {"size": size_count, "empty": empty_count}


def suite_overlap(max_degree: int = 8, count_bound: int = 4) -> CheckReport:
    checks: list[tuple[str, bool, str]] = []

    ok, witness = True, ""
    for m in range(0, count_bound + 1):
        for n in range(0, count_bound + 1):
            k = m + n
            full = _full_mask(k)
            for I in subsets_of(m):
                for J in subsets_of(n):
                    counts = _overlap_selector_counts(m, n, I, J)
                    shuffles = overlapping_shuffles(
                        complement(comp_of_set(SubsetLabel.of(m, I))),
                        complement(comp_of_set(SubsetLabel.of(n, J))),
                    )
                    for kmask in range(full + 1):
                        weight = complement(comp_of_set(SubsetLabel(k, kmask)))
                        expected = shuffles.get(weight, 0)
                        got_b = counts["size"].get(kmask, 0)
                        got_c = counts["empty"].get(kmask, 0)
                        if not expected == got_b == got_c:
                            ok = False
                            witness = (
                                f"m={m} n={n} I={sorted(I)} J={sorted(J)} "
                                f"K={SubsetLabel(k, kmask).members}: "
                                f"{expected} vs {got_b} vs {got_c}"
                            )
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            break
    checks.append(("the three overlapping-shuffle descriptions agree", ok, witness))

    ok, witness = True, ""
    for m in range(0, count_bound + 1):
        for n in range(0, count_bound + 1):
            k = m + n
            for I in subsets_of(m):
                for J in subsets_of(n):
                    shuffles = overlapping_shuffles(
                        complement(comp_of_set(SubsetLabel.of(m, I))),
                        complement(comp_of_set(SubsetLabel.of(n, J))),
                    )
                    constants = nsym.structure_constants_sweep(k, m, I, J)
                    for kmask in range(_full_mask(k) + 1):
                        K = SubsetLabel(k, kmask).members
                        c = constants.get(kmask, ZERO)
                        poly = c.as_integer_poly()
                        if poly is None and not c.is_zero():
                            ok, witness = False, f"non-polynomial constant at K={K}"
                            break
                        value = poly.eval_at(1, 0) if poly is not None else Fraction(0)
                        weight = complement(comp_of_set(SubsetLabel(k, kmask)))
                        if value != shuffles.get(weight, 0):
                            ok = False
                            witness = f"C(1,0) mismatch m={m} n={n} I={sorted(I)} J={sorted(J)} K={K}"
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            break
    checks.append(("C^K_IJ(1,0) counts overlapping shuffles", ok, witness))

    ok, witness = True, ""
    for total in range(0, max_degree + 1):
        for m in range(0, total + 1):
            for alpha in compositions_of(m):
                for beta in compositions_of(total - m):
                    via_M = qsym.M(alpha) * qsym.M(beta)
                    via_L = qsym.convert(qsym.M(alpha), "L") * qsym.convert(
                        qsym.M(beta), "L"
                    )
                    if via_M != via_L:
                        ok, witness = False, f"at {alpha}, {beta}"
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            break
    checks.append(("M-route product equals L-route product", ok, witness))

    return CheckReport(checks)


# ---------------------------------------------------------------------------
# integrality / structure constants


def suite_integrality(max_k: int = 6) -> CheckReport:
    checks: list[tuple[str, bool, str]] = []
    ok, witness = True, ""
    for k in range(0, max_k + 1):
        for K in subsets_of(k):
            for m in range(k + 1):
                n = k - m
                for I in subsets_of(m):
                    for J in subsets_of(n):
                        c = nsym.structure_constant(k, K, m, I, J)
                        if c.is_zero():
                            continue
                        if c.as_integer_poly() is None:
                            ok = False
                            witness = (
                                f"k={k} K={sorted(K)} m={m} I={sorted(I)} J={sorted(J)}: {c}"
                            )
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            break
    checks.append(("C^K_IJ(q,t) lies in Z[q,t]", ok, witness))

    ok, witness = True, ""
    for k in range(0, max_k + 1):
        for K in subsets_of(k):
            via_const = nsym.coproduct_B_comp(k, K)
            alpha = comp_of_set(SubsetLabel.of(k, K))
            via_H = nsym.coproduct(nsym.B(alpha)).convert(("B", "B"))
            if via_const != via_H:
                ok, witness = False, f"k={k} K={sorted(K)}"
                break
        if not ok:
            break
    checks.append(("closed sum matches the H-route coproduct", ok, witness))

    return CheckReport(checks)


# ---------------------------------------------------------------------------
# transition-matrix inverse checks (acceptance: Pi/L, Pi/M, B/H)


def pi_L_matrices_inverse(n: int, nu: int) -> bool:
    """The two Pi/L displays multiply to the identity, both ways."""
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


def pi_M_matrices_inverse(n: int, nu: int) -> bool:
    """The two Pi/M displays multiply to the identity, both ways (sparse)."""
    size = 1 << max(n - 1, 0)
    A_rows = []
    for i in range(size):
        row = {}
        for j in range(size):
            v = pi_from_M_entry(n, i, j, nu)
            if v:
                row[j] = v
        A_rows.append(row)
    B_rows = []
    for i in range(size):
        row = {}
        for j in range(size):
            v = M_from_pi_entry(n, i, j, nu)
            if v:
                row[j] = v
        B_rows.append(row)
    for X, Y in ((A_rows, B_rows), (B_rows, A_rows)):
        for i in range(size):
            acc: dict[int, Fraction] = {}
            for l, xv in X[i].items():
                for j, yv in Y[l].items():
                    acc[j] = acc.get(j, Fraction(0)) + xv * yv
            acc = {j: v for j, v in acc.items() if v}
            if acc != {i: Fraction(1)}:
                return False
    return True


def bh_matrices_inverse(n: int) -> bool:
    """The B-to-H matrix and its stated inverse satisfy MN = NM = I symbolically."""
    size = 1 << max(n - 1, 0)
    M_rows = []
    N_rows = []
    for i in range(size):
        M_rows.append({j: v for j in range(size) if (v := b_matrix_entry(n, i, j))})
        N_rows.append({j: v for j in range(size) if (v := b_inverse_entry(n, i, j))})
    for X, Y in ((M_rows, N_rows), (N_rows, M_rows)):
        for i in range(size):
            acc: dict = {}
            for l, xv in X[i].items():
                for j, yv in Y[l].items():
                    qsym._add_term(acc, j, xv * yv)
            if set(acc) != {i} or acc[i] != ONE:
                return False
    return True


# ---------------------------------------------------------------------------
# FQSym oracle sweeps


def fqsym_descent_oracle(max_total: int = 7) -> CheckReport:
    """Des multisets of shifted shuffles match a_shuffle multisets over A."""
    checks = []
    ok, witness = True, ""
    for m in range(0, max_total + 1):
        for n in range(0, max_total + 1 - m):
            for I in subsets_of(m):
                for J in subsets_of(n):
                    w_i = descent_rep(SubsetLabel.of(m, I))
                    w_j = descent_rep(SubsetLabel.of(n, J))
                    from_words: dict[int, int] = {}
                    for word, mult in shifted_shuffle(w_i, w_j, m).items():
                        mask = descent_set(word).mask
                        from_words[mask] = from_words.get(mask, 0) + mult
                    from_shuffles: dict[int, int] = {}
                    for A in itertools.combinations(range(1, m + n + 1), n):
                        mask = a_shuffle(
                            SubsetLabel.of(m, I), SubsetLabel.of(n, J), A, m, n
                        ).mask
                        from_shuffles[mask] = from_shuffles.get(mask, 0) + 1
                    if from_words != from_shuffles:
                        ok = False
                        witness = f"m={m} n={n} I={sorted(I)} J={sorted(J)}"
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            break
    checks.append(("descents of shifted shuffles = A-shuffles", ok, witness))
    return CheckReport(checks)


def run_suite(name: str, max_degree: int | None = None, nus: list[int] | None = None) -> CheckReport:
    """Dispatch a named suite with optional overrides."""
    if name == "hopf-axioms":
        return suite_hopf_axioms(5 if max_degree is None else max_degree)
    if name == "diagrams":
        degrees = dict(DEFAULT_NU_DEGREES)
        if nus:
            degrees = {nu: degrees.get(nu, 4) for nu in nus}
        if max_degree is not None:
            degrees = {nu: max_degree for nu in degrees}
        return suite_diagrams(degrees)
    if name == "dualities":
        return suite_dualities(6 if max_degree is None else max_degree)
    if name == "specializations":
        return suite_specializations(7 if max_degree is None else max_degree)
    if name == "omega":
        return suite_omega(6 if max_degree is None else max_degree)
    if name == "overlap":
        return suite_overlap(8 if max_degree is None else max_degree)
    if name == "group-axioms":
        degrees = dict(GROUP_AXIOM_DEGREES)
        if nus:
            degrees = {nu: degrees.get(nu, 4) for nu in nus}
        if max_degree is not None:
            degrees = {nu: max_degree for nu in degrees}
        return suite_group_axioms(degrees)
    if name == "integrality":
        return suite_integrality(6 if max_degree is None else max_degree)
    raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
