"""Acceptance sweep: every criterion exact, timed against its stated budget.

Run with `pytest tests/test_acceptance.py -s` to see one line per criterion.
"""

import itertools
import json
import time
from fractions import Fraction
from pathlib import Path

import hopfscf.verify as verify
from hopfscf.charmap import verify_diagrams
from hopfscf.compositions import SubsetLabel, a_shuffle, preshuffle, run_markers
from hopfscf.groupscf import GroupSpec, dot_chi, expand_kappa, kappa, product_m, product_mA
from hopfscf.nsym import bhat_coproduct_terms, coproduct_bhat, structure_constants_sweep
from hopfscf.symring import generating_set_rank
from transition_oracle import bh_matrices_inverse, pi_L_matrices_inverse, pi_M_matrices_inverse

GOLDEN = Path(__file__).parent / "golden"


def _report(number: int, name: str, elapsed: float, budget: float) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def _subsets(n):
    for r in range(max(n, 1)):
        yield from (frozenset(c) for c in itertools.combinations(range(1, n), r))


def test_criterion_01_a_shuffle_example():
    t0 = time.time()
    got = a_shuffle(SubsetLabel.of(4, {2, 3}), SubsetLabel.of(3, {2}), {1, 3, 4}, 4, 3)
    assert got.members == (1, 3, 4, 5, 6)
    for nu in (2, 3):
        phi = dot_chi(GroupSpec.standard(nu, 4), {2, 3})
        psi = dot_chi(GroupSpec.standard(nu, 3), {2})
        dense = product_mA(phi, psi, {1, 3, 4}, 4, 3)
        assert dense == dot_chi(GroupSpec.standard(nu, 7), {1, 3, 4, 5, 6})
    _report(1, "A-shuffle worked example", time.time() - t0, 1.0)


def test_criterion_02_bhat3_coproduct():
    t0 = time.time()
    # per-selector terms in subset order; the display merges the two terms
    # landing on (1) x (2) and keeps the (2) x (1) pair split
    terms = bhat_coproduct_terms(3)
    display: list = []
    merge_pos = None
    for alpha, beta, coeff in terms:
        key = (tuple(alpha), tuple(beta))
        if key == ((1,), (2,)):
            if merge_pos is None:
                merge_pos = len(display)
                display.append([key, coeff])
            else:
                display[merge_pos][1] = display[merge_pos][1] + coeff
        else:
            display.append([key, coeff])
    display = [(key, str(coeff)) for key, coeff in display]
    expected = [
        (((), (3,)), "1"),
        (((1,), (2,)), "q + 2*t"),
        (((1,), (1, 1)), "q*t + t^2"),
        (((2,), (1,)), "t"),
        (((1, 1), (1,)), "q*t + t^2"),
        (((2,), (1,)), "q + t"),
        (((3,), ()), "1"),
    ]
    assert display == expected
    assert [c for _, c in display] == ["1", "q + 2*t", "q*t + t^2", "t", "q*t + t^2", "q + t", "1"]
    # and the fully grouped tensor
    grouped = {
        (tuple(a), tuple(b)): str(c) for (a, b), c in coproduct_bhat(3).terms.items()
    }
    assert grouped == {
        ((), (3,)): "1",
        ((1,), (2,)): "q + 2*t",
        ((1,), (1, 1)): "q*t + t^2",
        ((2,), (1,)): "q + 2*t",
        ((1, 1), (1,)): "q*t + t^2",
        ((3,), ()): "1",
    }
    _report(2, "seven-term coproduct of Bhat_3", time.time() - t0, 1.0)


def test_criterion_03_specializations():
    t0 = time.time()
    report = verify.suite_specializations(7)
    assert report.passed, report.failures()
    _report(3, "B(1,0)/B(-1,1)/B(1,-1) specializations, degree <= 7", time.time() - t0, 30.0)


def test_criterion_04_hopf_isomorphism_diagrams():
    t0 = time.time()
    for nu, bound in ((2, 6), (3, 5)):
        report = verify_diagrams(nu, bound)
        assert report.passed, (nu, report.failures())
    _report(4, "ch intertwines (m, delta) with QSym", time.time() - t0, 120.0)


def test_criterion_05_transition_inverses():
    t0 = time.time()
    for n in range(0, 9):
        for nu in (2, 3, 5):
            assert pi_L_matrices_inverse(n, nu), (n, nu)
            assert pi_M_matrices_inverse(n, nu), (n, nu)
        assert bh_matrices_inverse(n), n
    _report(5, "Pi/L, Pi/M, B/H transition matrices invert", time.time() - t0, 60.0)


def test_criterion_06_structure_constants():
    t0 = time.time()
    report = verify.suite_integrality(6)
    assert report.passed, report.failures()
    _report(6, "C^K_IJ closed sum = H-route, integer polynomials, k <= 6", time.time() - t0, 120.0)


def test_criterion_07_kappa_bridge():
    t0 = time.time()
    # frozen golden expansion of the worked example
    golden = json.loads((GOLDEN / "kappa_product_m2_n3.json").read_text())
    for case in golden["cases"]:
        nu = case["nu"]
        phi = kappa(GroupSpec.standard(nu, golden["m"]), set(golden["I"]))
        psi = kappa(GroupSpec.standard(nu, golden["n"]), set(golden["J"]))
        got = {
            ",".join(map(str, sorted(s))): str(v)
            for s, v in expand_kappa(product_m(phi, psi, golden["m"], golden["n"])).items()
            if v
        }
        assert got == case["expansion"]

    for nu in (2, 3):
        for m in range(0, 7):
            for n in range(0, 7 - m):
                k = m + n
                for I in _subsets(m):
                    for J in _subsets(n):
                        phi = kappa(GroupSpec.standard(nu, m), I)
                        psi = kappa(GroupSpec.standard(nu, n), J)
                        dense = {
                            s: v
                            for s, v in expand_kappa(product_m(phi, psi, m, n)).items()
                            if v
                        }
                        # the selector formula for d_K
                        formula: dict[frozenset, Fraction] = {}
                        for A in itertools.combinations(range(1, k + 1), n):
                            pre = preshuffle(
                                SubsetLabel.of(m, I), SubsetLabel.of(n, J), A, m, n
                            )
                            _, c2, c = run_markers(A, k)
                            if pre.mask & c.mask:
                                continue
                            free = c.mask & ~pre.mask
                            sub = free
                            while True:
                                kmask = pre.mask | sub
                                K = frozenset(SubsetLabel(k, kmask).members)
                                w = Fraction(1, 1 - nu) ** (kmask & c2.mask).bit_count()
                                formula[K] = formula.get(K, Fraction(0)) + w
                                if sub == 0:
                                    break
                                sub = (sub - 1) & free
                        formula = {s: v for s, v in formula.items() if v}
                        assert dense == formula, (nu, m, n, I, J)
                        # rescaled structure constants at (q,t) = (-nu, nu-1)
                        sweep = structure_constants_sweep(k, m, I, J)
                        seen = set()
                        for kmask, poly in sweep.items():
                            K = frozenset(SubsetLabel(k, kmask).members)
                            seen.add(K)
                            scale = Fraction(nu - 1) ** (len(I) + len(J) - len(K))
                            expected = scale * poly.eval_at(-nu, nu - 1)
                            assert dense.get(K, Fraction(0)) == expected, (nu, m, n, I, J, K)
                        assert set(dense) <= seen
    _report(7, "kappa product bridges the d_K formula and C(-nu,nu-1)", time.time() - t0, 60.0)


def test_criterion_08_omega():
    t0 = time.time()
    report = verify.suite_omega(6)
    assert report.passed, report.failures()
    _report(8, "omega rescaling and involution, degree <= 6", time.time() - t0, 30.0)


def test_criterion_09_overlapping_shuffles():
    t0 = time.time()
    report = verify.suite_overlap(8, count_bound=4)
    assert report.passed, report.failures()
    _report(9, "overlapping-shuffle counts and product routes", time.time() - t0, 60.0)


def test_criterion_10_group_axioms():
    t0 = time.time()
    report = verify.suite_group_axioms({2: 7, 3: 5})
    assert report.passed, report.failures()
    # the Hall norms behind the report, stated explicitly: chi as displayed,
    # kappa as the reciprocal of the displayed nu^{n-1}/(nu-1)^{|I|} (the
    # dense computation is the arbiter; see the axioms checker)
    from hopfscf.groupscf import chi, hall_inner

    for nu, bound in ((2, 7), (3, 5)):
        for n in range(0, bound + 1):
            spec = GroupSpec.standard(nu, n)
            for I in _subsets(n):
                assert hall_inner(chi(spec, I), chi(spec, I)) == Fraction(
                    (nu - 1) ** (spec.rank - len(I))
                )
                displayed = Fraction(nu**spec.rank, (nu - 1) ** len(I))
                assert hall_inner(kappa(spec, I), kappa(spec, I)) == 1 / displayed
    _report(10, "supercharacter-theory axioms, norms, lattice oracle", time.time() - t0, 60.0)


def test_criterion_11_generating_sets():
    t0 = time.time()
    for a, b in ((2, 3), (1, 1)):
        report = generating_set_rank(a, b, 8)
        assert report["full_rank"], report
        for entry in report["degrees"]:
            assert entry["nsym_rank"] == 1 << (entry["n"] - 1)
    _report(11, "Bhat(a,b) generates NSym and Sym, degree <= 8", time.time() - t0, 60.0)


def test_criterion_12_dualities():
    t0 = time.time()
    report = verify.suite_dualities(6)
    assert report.passed, report.failures()
    _report(12, "(H,M), (R,L), (E*,E) pairing matrices are identity", time.time() - t0, 30.0)
