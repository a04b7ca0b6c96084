import itertools
from fractions import Fraction

import pytest

import hopfscf.linear as linear
import hopfscf.nsym as nsym
import hopfscf.qsym as qsym
from convert_oracle import b_dual_in_M, b_to_H_matrix_is_triangular
from hopfscf.compositions import (
    AmbientBoundError,
    Composition,
    SubsetLabel,
    comp_of_set,
    complement,
    compositions_of,
    preshuffle,
    run_markers,
    set_of_comp,
)
from hopfscf.nsym import (
    B,
    Bhat,
    Estar,
    H,
    Lam,
    NSymElem,
    NSymTensor,
    R,
    b_to_H_masks,
    bhat_coproduct_terms,
    convert,
    coproduct,
    coproduct_B_comp,
    coproduct_bhat,
    counit,
    omega,
    pairing,
    specialize,
    structure_constant,
    structure_constants_sweep,
    structure_constants_table,
)
from hopfscf.qsym import E, L, M
from hopfscf.scalars import ONE, Q, T, ZERO, ScalarQT, parse_scalar, rational


def subsets(n):
    for r in range(max(n, 1)):
        yield from (frozenset(c) for c in itertools.combinations(range(1, n), r))


def structure_constant_by_selectors(k: int, K, m: int, I, J):
    """C^K_{I,J}(q,t): the closed sum over admissible selectors A, with the
    three admissibility tests as the paper states them.  The slow oracle for
    structure_constants_table and structure_constants_sweep.

    The t^{-|I|-|J|} prefactor is a division by a monomial, exact in the
    Laurent ring.
    """
    n = k - m
    if n < 0:
        raise ValueError(f"m={m} exceeds k={k}")
    K = frozenset(K)
    I_lbl = SubsetLabel.of(m, I)
    J_lbl = SubsetLabel.of(n, J)
    if not K <= set(range(1, k)):
        raise ValueError(f"K={sorted(K)} is not a subset of [{k - 1}]")
    kmask = sum(1 << (i - 1) for i in K)
    total = None
    for A in itertools.combinations(range(1, k + 1), n):
        pre = preshuffle(I_lbl, J_lbl, frozenset(A), m, n)
        _, c2, c = run_markers(A, k)
        if pre.mask & c.mask:
            continue
        if not (pre.mask & kmask) == pre.mask:  # I#J subseteq K
            continue
        if kmask & ~(pre.mask | c.mask):  # K subseteq (I#J) u c(A)
            continue
        e_qt = (kmask & c2.mask).bit_count()
        e_t = (kmask & ~c2.mask).bit_count()
        term = (Q + T) ** e_qt * T**e_t
        total = term if total is None else total + term
    if total is None:
        return ZERO
    return total / T ** (I_lbl.size + J_lbl.size)


class TestElements:
    def test_composition_keys_kept_as_built(self):
        comp = Composition((1, 2))
        assert next(iter(NSymElem("B", {comp: 1}).terms)) is comp
        ((a, b),) = NSymTensor(("H", "B"), {(comp, comp): 1}).terms
        assert a is comp and b is comp

    def test_plain_tuple_keys_still_validated(self):
        for bad in ((1, 0), (2, -1), (0,)):
            with pytest.raises(ValueError):
                NSymElem("H", {bad: 1})
            with pytest.raises(ValueError):
                NSymTensor(("H", "H"), {((1,), bad): 1})
            with pytest.raises(ValueError):
                NSymTensor(("B", "Bhat"), {(bad, ()): 1})

    def test_unknown_bases_refused(self):
        with pytest.raises(ValueError):
            NSymElem("M")
        for bases in (("H", "Pi"), ("M", "M")):
            with pytest.raises(ValueError):
                NSymTensor(bases)
        with pytest.raises(ValueError):
            qsym.QSymTensor(("Pi", "M"))

    def test_bases_that_are_not_a_pair_refused(self):
        pair = ((1,), (2,))
        for tensor, side, other in ((qsym.QSymTensor, "M", "L"), (NSymTensor, "H", "B")):
            for bases in ((side,) * 3, (side,), ()):
                with pytest.raises(ValueError, match="pair of bases"):
                    tensor(bases)
                with pytest.raises(ValueError, match="pair of bases"):
                    tensor(bases, {pair: 1})
            with pytest.raises(ValueError, match="pair of bases"):
                tensor((side, other), {pair: 1}).convert((side,) * 3)


class TestBTransition:
    def test_one_part_is_all_ones_H(self):
        for n in range(1, 6):
            assert convert(B((n,)), "H") == H((1,) * n)

    def test_symbolic_coefficients(self):
        x = convert(B((1, 2)), "H")
        assert x.coefficient((2, 1)) == Q
        assert x.coefficient((1, 1, 1)) == T

    def test_inverse_round_trip(self):
        for n in range(0, 7):
            for alpha in compositions_of(n):
                assert convert(convert(H(alpha), "B"), "H") == H(alpha)
                assert convert(convert(B(alpha), "H"), "B") == B(alpha)

    def test_triangular_with_nonzero_diagonal(self):
        for n in range(1, 8):
            assert b_to_H_matrix_is_triangular(n)

    def test_remark_inverse_matrix(self):
        from transition_oracle import bh_matrices_inverse

        for n in range(0, 7):
            assert bh_matrices_inverse(n)


class TestSpecializations:
    @pytest.mark.parametrize(
        "q0,t0,target",
        [(1, 0, H), (-1, 1, Lam), (1, -1, Estar)],
    )
    def test_specialization_families(self, q0, t0, target):
        for n in range(0, 6):
            for alpha in compositions_of(n):
                lhs = specialize(convert(B(alpha), "H"), q0, t0)
                rhs = convert(target(complement(alpha)), "H")
                assert lhs == rhs, alpha


class TestClassicBases:
    def test_lambda_two(self):
        assert convert(Lam((2,)), "H") == H((1, 1)) - H((2,))

    def test_r_direction_fixed_by_duality(self):
        # the coarsening sum gives R_(2) = H_(2) and R_(1,1) = H_(1,1) - H_(2);
        # the orientation is pinned by (R, L) = delta, not by any display
        assert convert(R((2,)), "H") == H((2,))
        assert convert(R((1, 1)), "H") == H((1, 1)) - H((2,))
        assert pairing(R((2,)), L((2,))) == ONE
        assert pairing(R((2,)), L((1, 1))) == ZERO

    def test_estar_direction_fixed_by_duality(self):
        assert convert(Estar((2,)), "H") == H((2,)) - H((1, 1))
        assert pairing(Estar((2,)), E((2,))) == ONE
        assert pairing(Estar((2,)), E((1, 1))) == ZERO

    def test_pairing_identity_matrices(self):
        for n in range(0, 6):
            comps = list(compositions_of(n))
            for x in comps:
                for y in comps:
                    expected = ONE if x == y else ZERO
                    assert pairing(H(x), M(y)) == expected
                    assert pairing(R(x), L(y)) == expected
                    assert pairing(Estar(x), E(y)) == expected

    def test_cross_degree_pairing_is_zero(self):
        assert pairing(H((2,)), M((1, 1, 1))) == ZERO


class TestProducts:
    def test_H_concatenation(self):
        assert H((2,)) * H((1, 1)) == H((2, 1, 1))

    def test_B_near_concatenation(self):
        got = B((1, 2)) * B((2,))
        assert got.basis == "B" and set(got.terms) == {Composition((1, 4))}
        via_H = convert(B((1, 2)), "H") * convert(B((2,)), "H")
        assert convert(got, "H") == via_H

    def test_B_product_agrees_with_H_route(self):
        for m in range(0, 5):
            for n in range(0, 5 - m):
                for alpha in compositions_of(m):
                    for beta in compositions_of(n):
                        fast = B(alpha) * B(beta)
                        slow = convert(B(alpha), "H") * convert(B(beta), "H")
                        assert convert(fast, "H") == slow

    def test_Bhat_multiplicative(self):
        for n in range(0, 7):
            for alpha in compositions_of(n):
                prod = NSymElem.basis_elem("Bhat", ())
                for part in alpha:
                    prod = prod * Bhat((part,))
                assert prod.basis == "Bhat"
                assert convert(prod, "H") == convert(Bhat(alpha), "H"), alpha

    @pytest.mark.parametrize("basis", ["H", "B"])
    def test_product_past_the_degree_bound_is_refused_before_any_term(self, basis, monkeypatch):
        def refuse(*args):
            raise AssertionError("a term was built past the degree bound")

        monkeypatch.setattr(nsym, "extend2", refuse)
        with pytest.raises(AmbientBoundError):
            nsym.product(NSymElem.basis_elem(basis, (64,)), NSymElem.basis_elem(basis, (1,)))

    def test_product_at_the_degree_bound_is_built(self):
        assert H((63,)) * H((1,)) == H((63, 1))
        assert B((63,)) * B((1,)) == B((64,))


class TestCoproduct:
    def test_delta_H2(self):
        got = coproduct(H((2,)))
        expected = NSymTensor(
            ("H", "H"),
            {
                (Composition(()), Composition((2,))): ONE,
                (Composition((1,)), Composition((1,))): ONE,
                (Composition((2,)), Composition(())): ONE,
            },
        )
        assert got == expected

    def test_delta_H11_is_square_of_delta_H1(self):
        got = coproduct(H((1, 1)))
        expected = {
            ((), (1, 1)): 1,
            ((1,), (1,)): 2,
            ((1, 1), ()): 1,
        }
        assert {
            (tuple(a), tuple(b)): c for (a, b), c in got.terms.items()
        } == {k: rational(v) for k, v in expected.items()} or all(
            got.terms[(Composition(a), Composition(b))] == rational(c)
            for (a, b), c in expected.items()
        )

    def test_counit_laws(self):
        for n in range(0, 6):
            for alpha in compositions_of(n):
                x = H(alpha)
                left = NSymElem("H")
                right = NSymElem("H")
                for (a, b), c in coproduct(x).terms.items():
                    left = left + H(b).scale(c * counit(H(a)))
                    right = right + H(a).scale(c * counit(H(b)))
                assert left == x and right == x

    def test_coproduct_is_algebra_map(self):
        for alpha, beta in (((2,), (1,)), ((1, 1), (2,))):
            lhs = coproduct(H(alpha) * H(beta))
            prod: dict = {}
            for (a1, b1), c1 in coproduct(H(alpha)).terms.items():
                for (a2, b2), c2 in coproduct(H(beta)).terms.items():
                    key = (a1.concat(a2), b1.concat(b2))
                    linear._add_term(prod, key, c1 * c2)
            assert lhs == NSymTensor(("H", "H"), prod)


class TestStructureConstants:
    def test_arity_violations_rejected(self):
        with pytest.raises(ValueError):
            structure_constant(3, {1}, 4, (), ())  # m exceeds k
        with pytest.raises(ValueError):
            structure_constant(3, {7}, 1, (), {1})  # K outside [k-1]

    def test_no_admissible_selector_is_zero(self):
        # m = 2, n = 0 forces A = {} with an empty K-window, so K = {1} misses
        assert structure_constant(2, {1}, 2, (), ()) == ZERO
        # K = {3} never contains the preshuffle {2,4} or {1,4} of this pair
        assert structure_constant(5, {3}, 2, {1}, {2}) == ZERO

    def test_delta_bhat3_coefficients(self):
        table = coproduct_bhat(3)
        expected = {
            ((), (3,)): "1",
            ((1,), (2,)): "q + 2*t",
            ((1,), (1, 1)): "q*t + t^2",
            ((2,), (1,)): "q + 2*t",
            ((1, 1), (1,)): "q*t + t^2",
            ((3,), ()): "1",
        }
        got = {
            (tuple(a), tuple(b)): str(c) for (a, b), c in table.terms.items()
        }
        assert got == expected

    def test_per_selector_terms_of_bhat3(self):
        # the display groups the two (1),(2) selectors and keeps (2),(1) split
        terms = bhat_coproduct_terms(3)
        labeled = {}
        for alpha, beta, coeff in terms:
            labeled.setdefault((tuple(alpha), tuple(beta)), []).append(str(coeff))
        assert sorted(labeled[((1,), (2,))]) == ["q + t", "t"]
        assert sorted(labeled[((2,), (1,))]) == ["q + t", "t"]
        assert labeled[((), (3,))] == ["1"]
        assert labeled[((1,), (1, 1))] == ["q*t + t^2"]

    def test_sweep_matches_per_K(self):
        for k in range(0, 5):
            for m in range(k + 1):
                for I in subsets(m):
                    for J in subsets(k - m):
                        sweep = structure_constants_sweep(k, m, I, J)
                        for kmask in range(1 << max(k - 1, 0)):
                            K = SubsetLabel(k, kmask).members
                            direct = structure_constant_by_selectors(k, K, m, I, J)
                            assert sweep.get(kmask, ZERO) == direct
                            if kmask in sweep:  # verify and perfbench read these as scalars, never lowered
                                got = sweep[kmask]
                                assert type(got) is ScalarQT and str(got) == str(direct), (k, m, I, J, K)

    def test_sweep_reads_each_label_once(self):
        # a one-shot iterator gives the constants of its tuple
        for k, m, I, J in [(3, 2, (1,), ()), (5, 3, (1, 2), (1,)), (5, 1, (), (2, 3))]:
            assert structure_constants_sweep(k, m, iter(I), iter(J)) == structure_constants_sweep(k, m, I, J)

    @pytest.mark.parametrize("m", [3, 4, -1])
    def test_sweep_refuses_m_outside_0_to_k(self, m):
        # the message names m and k, as structure_constants_table's does
        with pytest.raises(ValueError, match=f"^m={m} is not in \\[0, 2\\]$"):
            structure_constants_sweep(2, m, (), ())
        with pytest.raises(ValueError, match=f"^m={m} is not in \\[0, 2\\]$"):
            structure_constants_table(2, (), m)

    def test_bhat_coefficients_are_the_papers_weights(self):
        # each selector A inside [k] weighs (q+t)^{|c2(A)|} t^{|c1(A)|}, an int 1
        # when both are empty; the terms list the A by size, then lexicographically
        def run_maxima(members, k):
            return {x for x in members if x + 1 not in members and x != k}

        for k in range(9):
            universe = frozenset(range(1, k + 1))
            selected = [frozenset(A) for r in range(k + 1) for A in itertools.combinations(sorted(universe), r)]
            terms = bhat_coproduct_terms(k)
            assert len(terms) == len(selected) == 2**k
            for A, (_, _, coeff) in zip(selected, terms):
                c1, c2 = run_maxima(A, k), run_maxima(universe - A, k)
                expected = (Q + T) ** len(c2) * T ** len(c1) if c1 or c2 else 1
                assert type(coeff) is type(expected) and str(coeff) == str(expected), (k, sorted(A))
                assert coeff == expected

    def test_negative_degree_refused_by_coproduct_B_comp(self):
        with pytest.raises(ValueError, match="^k must be nonnegative, got -1$"):
            coproduct_B_comp(-1, ())

    def test_negative_degree_refused_by_bhat_coproduct_terms(self):
        with pytest.raises(ValueError, match="^k must be nonnegative, got -1$"):
            bhat_coproduct_terms(-1)

    def test_negative_degree_refused_by_coproduct_bhat(self):
        with pytest.raises(ValueError, match="^k must be nonnegative, got -2$"):
            coproduct_bhat(-2)

    def test_table_matches_per_entry(self):
        # every (k <= 6, K, m, I, J), zero entries included: 5,917 in all
        examined = nonzero = 0
        for k in range(0, 7):
            for K in subsets(k):
                for m in range(k + 1):
                    table = structure_constants_table(k, K, m)
                    rows = 0
                    for I in subsets(m):
                        for J in subsets(k - m):
                            key = (SubsetLabel.of(m, I).mask, SubsetLabel.of(k - m, J).mask)
                            got = table.get(key, ZERO)
                            direct = structure_constant_by_selectors(k, K, m, I, J)
                            assert got == direct and str(got) == str(direct), (k, K, m, I, J)
                            examined += 1
                            rows += not direct.is_zero()
                    # no zero rows and no keys outside the (I, J) range
                    assert len(table) == rows
                    nonzero += rows
        assert examined == 5917 and nonzero > 0

    def test_table_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            structure_constants_table(3, {1}, 4)  # m exceeds k
        with pytest.raises(ValueError):
            structure_constants_table(3, {7}, 1)  # K outside [k-1]

    def test_integrality_builds_each_table_once(self):
        from hopfscf import verify

        nsym._table.cache_clear()
        assert verify.run_suite("integrality", 5).passed
        # one (k, K, m) per K of [k-1] and m in [0, k], for k <= 5
        distinct = sum((k + 1) * len(list(subsets(k))) for k in range(6))
        assert nsym._table.cache_info().misses == distinct == 161

    def test_closed_sum_matches_H_route(self):
        for k in range(0, 6):
            for K in subsets(k):
                alpha = comp_of_set(SubsetLabel.of(k, K))
                via_H = coproduct(B(alpha)).convert(("B", "B"))
                assert coproduct_B_comp(k, K) == via_H, (k, K)

    def test_integrality_small(self):
        for k in range(0, 6):
            for K in subsets(k):
                for m in range(k + 1):
                    for I in subsets(m):
                        for J in subsets(k - m):
                            c = structure_constant(k, K, m, I, J)
                            if not c.is_zero():
                                assert c.as_integer_poly() is not None

    def test_duality_transport(self):
        # the constant equals the coefficient extracted by pairing delta B
        # against the dual-basis M expansions
        for k in range(0, 7):
            duals = {
                (m, imask): b_dual_in_M(m, SubsetLabel(m, imask).members)
                for m in range(k + 1)
                for imask in range(1 << max(m - 1, 0))
            }
            for K in subsets(k):
                alpha = comp_of_set(SubsetLabel.of(k, K))
                tens = coproduct(B(alpha))
                for m in range(k + 1):
                    n = k - m
                    for I in subsets(m):
                        for J in subsets(n):
                            left_dual = duals[(m, SubsetLabel.of(m, I).mask)]
                            right_dual = duals[(n, SubsetLabel.of(n, J).mask)]
                            total = ZERO
                            for (a, b), c in tens.terms.items():
                                if a.size != m:
                                    continue
                                la = left_dual.terms.get(a)
                                rb = right_dual.terms.get(b)
                                if la is not None and rb is not None:
                                    total = total + c * la * rb
                            assert total == structure_constant(k, K, m, I, J)

    def test_bhat_coproduct_specializes_to_H_and_Lambda(self):
        for k in range(0, 6):
            table = coproduct_bhat(k)
            at_10 = {}
            at_m11 = {}
            for (a, b), c in table.terms.items():
                # a constant coefficient is an int; read it as nsym.specialize does
                v10 = ScalarQT.wrap(c).eval_at(1, 0)
                v11 = ScalarQT.wrap(c).eval_at(-1, 1)
                if v10:
                    at_10[(tuple(a), tuple(b))] = v10
                if v11:
                    at_m11[(tuple(a), tuple(b))] = v11
            expected = {((i,) if i else (), (k - i,) if k - i else ()): Fraction(1) for i in range(k + 1)}
            assert at_10 == expected
            assert at_m11 == expected


class TestRescalingIdentity:
    def test_b_equals_scaled_substituted_b(self):
        # B(q,t) = (-q-t)^{|K|} B(-Q, Q-1) with Q = q/(q+t), as H expansions
        Qp = Q / (Q + T)
        for n in range(0, 7):
            for kmask in range(1 << max(n - 1, 0)):
                size_k = kmask.bit_count()
                plain = b_to_H_masks(n, kmask)
                rescaled = b_to_H_masks(n, kmask, qs=-Qp, ts=Qp - ONE)
                scale = (-(Q + T)) ** size_k
                for hmask, coeff in plain.items():
                    assert coeff == scale * rescaled[hmask], (n, kmask, hmask)


class TestPiBridge:
    @pytest.mark.parametrize("nu", [2, 3, 5])
    def test_b_at_minus_nu_is_dual_to_pi(self, nu):
        # (B(-nu, nu-1)_alpha, Pi(nu)_beta) = delta for n <= 6
        for n in range(0, 7):
            comps = list(compositions_of(n))
            pi_in_M = {beta: qsym.convert(qsym.Pi(beta, nu), "M") for beta in comps}
            for alpha in comps:
                f = specialize(convert(B(alpha), "H"), -nu, nu - 1)
                for beta in comps:
                    expected = ONE if alpha == beta else ZERO
                    assert pairing(f, pi_in_M[beta]) == expected, (alpha, beta)

    @pytest.mark.parametrize("nu", [2, 3])
    def test_kappa_bridge_rescaling(self, nu):
        # d_K = (nu-1)^{|I|+|J|-|K|} C^K_IJ(-nu, nu-1), dense side as arbiter
        from hopfscf.groupscf import GroupSpec, expand_kappa, kappa, product_m

        for m in range(0, 5):
            for n in range(0, 5 - m):
                k = m + n
                for I in subsets(m):
                    for J in subsets(n):
                        phi = kappa(GroupSpec.standard(nu, m), I)
                        psi = kappa(GroupSpec.standard(nu, n), J)
                        dense = {
                            frozenset(s): v
                            for s, v in expand_kappa(product_m(phi, psi, m, n)).items()
                            if v
                        }
                        for kmask in range(1 << max(k - 1, 0)):
                            K = frozenset(SubsetLabel(k, kmask).members)
                            c = structure_constant(k, K, m, I, J)
                            value = c.eval_at(-nu, nu - 1)
                            scale = Fraction(nu - 1) ** (len(I) + len(J) - len(K))
                            assert dense.get(K, Fraction(0)) == scale * value


class TestOmega:
    def test_definition(self):
        assert omega(H((2, 1))) == Lam((1, 2))

    def test_involution(self):
        for n in range(0, 6):
            for alpha in compositions_of(n):
                assert omega(omega(H(alpha))) == H(alpha)

    def test_anti_homomorphism(self):
        for alpha, beta in (((2,), (1, 1)), ((1,), (3,))):
            assert omega(H(alpha) * H(beta)) == omega(H(beta)) * omega(H(alpha))

    def test_bhat_rescaling(self):
        for n in range(0, 6):
            for alpha in compositions_of(n):
                lhs = omega(Bhat(alpha))
                imask = set_of_comp(complement(alpha.reverse())).mask
                rhs = NSymElem(
                    "H",
                    {
                        comp_of_set(SubsetLabel(n, hm)): c
                        for hm, c in b_to_H_masks(n, imask, qs=-Q, ts=Q + T).items()
                    },
                )
                assert lhs == rhs, alpha

    def test_h_lambda_special_case(self):
        # omega(Bhat(1,0)) = Bhat(-1,1) reversed, i.e. omega(H) hits Lambda
        for n in range(0, 5):
            for alpha in compositions_of(n):
                lhs = specialize(convert(omega(Bhat(alpha)), "H"), 1, 0)
                rhs = specialize(
                    convert(
                        NSymElem(
                            "H",
                            {
                                comp_of_set(SubsetLabel(n, hm)): c
                                for hm, c in b_to_H_masks(
                                    n,
                                    set_of_comp(complement(alpha.reverse())).mask,
                                    qs=-Q,
                                    ts=Q + T,
                                ).items()
                            },
                        ),
                        "H",
                    ),
                    1,
                    0,
                )
                assert lhs == rhs


class TestJson:
    def test_round_trip(self):
        x = convert(B((1, 2)), "H")
        data = x.to_json_dict()
        assert NSymElem.from_json_dict(data) == x
        assert all(parse_scalar(t["coeff"]) is not None for t in data["terms"])


class TestOverlapSuite:
    def test_max_degree_bounds_the_selector_sweep(self, monkeypatch):
        from hopfscf import verify

        seen = []
        counts = verify._overlap_selector_counts

        def recording(m, n, I, J):
            if (m, n) not in seen:
                seen.append((m, n))
            return counts(m, n, I, J)

        monkeypatch.setattr(verify, "_overlap_selector_counts", recording)
        assert verify.suite_overlap(2).passed
        assert seen == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
