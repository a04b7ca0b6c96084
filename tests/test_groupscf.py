import itertools
import json
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

from groupscf_oracle import factor_vector, index_of, kappa_factor_vector
from hopfscf.compositions import SubsetLabel, a_shuffle, near_concat, compositions_of, set_of_comp
from hopfscf.groupscf import (
    CheckReport,
    ClassFunction,
    GroupBoundError,
    GroupSpec,
    check,
    chi,
    coproduct,
    coproduct_k,
    dot_chi,
    expand_kappa,
    hall_inner,
    kappa,
    lattice_superclass_oracle,
    one,
    product_m,
    product_mA,
    relabel,
    restrict,
    tensor_embed,
    unit,
    verify_axioms,
)

from test_verify_witness_guard import counting

GOLDEN = Path(__file__).parent / "golden"


def subsets(universe):
    universe = list(universe)
    for r in range(len(universe) + 1):
        yield from (frozenset(c) for c in itertools.combinations(universe, r))


class TestGroupSpec:
    def test_standard_degrees(self):
        assert GroupSpec.standard(2, 0).index_set == ()
        assert GroupSpec.standard(2, 1).index_set == ()
        assert GroupSpec.standard(2, 4).index_set == (1, 2, 3)

    def test_order_and_indexing(self):
        spec = GroupSpec(3, (1, 2))
        assert spec.order == 9
        elems = list(spec.elements())
        assert len(elems) == 9
        for i, g in enumerate(elems):
            assert index_of(spec, g) == i

    def test_enumeration_bound(self, monkeypatch):
        monkeypatch.setenv("HOPF_SCF_MAX_GROUP", "100")
        with pytest.raises(GroupBoundError):
            GroupSpec.standard(2, 9)
        monkeypatch.setenv("HOPF_SCF_MAX_GROUP", "1000")
        GroupSpec.standard(2, 9)

    def test_bad_nu(self):
        with pytest.raises(ValueError):
            GroupSpec(1, (1,))

    def test_standard_is_one_spec_per_shape(self):
        spec = GroupSpec.standard(3, 4)
        assert GroupSpec.standard(3, 4) is spec and spec == GroupSpec(3, (1, 2, 3))
        assert GroupSpec.standard(3, 5) is not spec and GroupSpec.standard(2, 4) is not spec

    def test_a_lowered_bound_refuses_a_cached_shape(self, monkeypatch):
        monkeypatch.setenv("HOPF_SCF_MAX_GROUP", "1000")
        spec = GroupSpec.standard(2, 9)
        assert GroupSpec.standard(2, 9) is spec
        monkeypatch.setenv("HOPF_SCF_MAX_GROUP", "100")
        with pytest.raises(GroupBoundError, match="group order 2\\^8 exceeds bound 100"):
            GroupSpec.standard(2, 9)
        monkeypatch.setenv("HOPF_SCF_MAX_GROUP", "1000")
        assert GroupSpec.standard(2, 9) is spec

    def test_a_malformed_bound_raises_on_every_call(self, monkeypatch):
        GroupSpec.standard(2, 3)
        monkeypatch.setenv("HOPF_SCF_MAX_GROUP", "lots")
        # a cached shape and one never built, twice each
        for nu, degree in [(2, 3), (97, 2)] * 2:
            with pytest.raises(GroupBoundError, match="must be an integer, got 'lots'"):
                GroupSpec.standard(nu, degree)

    def test_non_int_arguments_refused_after_the_int_shape_is_cached(self):
        GroupSpec.standard(2, 3)
        for nu, degree in [(2.0, 3), (True, 3), (2, 3.0)]:
            with pytest.raises(TypeError):
                GroupSpec.standard(nu, degree)


class TestKappaAndChi:
    def test_kappa_empty_is_identity_indicator(self):
        spec = GroupSpec.standard(3, 4)
        k = kappa(spec, frozenset())
        assert k.values[0] == 1
        assert sum(k.values) == 1

    def test_kappa_support_exactly(self):
        spec = GroupSpec(2, (1, 2))
        k = kappa(spec, {1})
        expected = [1 if spec.support_of(g) == {1} else 0 for g in spec.elements()]
        assert list(k.values) == expected

    def test_kappa_partition_of_unity(self):
        for nu, n in ((2, 5), (3, 4)):
            spec = GroupSpec.standard(nu, n)
            total = None
            for I in subsets(spec.index_set):
                term = kappa(spec, I)
                total = term if total is None else total + term
            assert total == one(spec)

    def test_kappas_pointwise_orthogonal(self):
        spec = GroupSpec.standard(3, 3)
        for I, J in itertools.combinations(subsets(spec.index_set), 2):
            assert not any(a * b for a, b in zip(kappa(spec, I).nums, kappa(spec, J).nums))

    def test_kappa_factor_vector_lemma(self):
        for nu, n in ((2, 4), (3, 3)):
            spec = GroupSpec.standard(nu, n)
            for I in subsets(spec.index_set):
                assert kappa_factor_vector(spec, I).expand() == kappa(spec, I)

    def test_scaled_factors_and_prefactor(self):
        from groupscf_oracle import FactorVector, f_dot_off, f_reg_minus_one, f_scaled, f_one

        nu = 3
        assert f_scaled(f_reg_minus_one(nu), Fraction(1, nu - 1)) == f_dot_off(nu)
        spec = GroupSpec.standard(nu, 3)
        plain = factor_vector(spec, {1}, f_one(nu), f_reg_minus_one(nu))
        scaled = FactorVector(spec, plain.factors, Fraction(5, 2))
        assert scaled.expand() == plain.expand().scale(Fraction(5, 2))

    def test_chi_full_is_trivial(self):
        spec = GroupSpec.standard(3, 4)
        assert chi(spec, spec.index_set) == one(spec)

    def test_chi_identity_value(self):
        for nu, n in ((2, 4), (3, 3), (5, 3)):
            spec = GroupSpec.standard(nu, n)
            for I in subsets(spec.index_set):
                off = spec.rank - len(I)
                assert chi(spec, I).values[0] == (nu - 1) ** off
                assert dot_chi(spec, I).values[0] == 1

    def test_chi_nu2_single_index(self):
        spec = GroupSpec(2, (1,))
        assert list(chi(spec, frozenset()).values) == [1, -1]

    def test_chi_kappa_basis_change(self):
        # chi^I = sum_J (-1)^{|J \ I|} (nu-1)^{|(I u J)^c|} kappa_J
        for nu, n in ((2, 5), (3, 4)):
            spec = GroupSpec.standard(nu, n)
            for I in subsets(spec.index_set):
                expansion = expand_kappa(chi(spec, I))
                for J in subsets(spec.index_set):
                    expected = Fraction(
                        (-1) ** len(J - I) * (nu - 1) ** (spec.rank - len(I | J))
                    )
                    assert expansion[J] == expected

    def test_chi_against_irreducible_character_definition_nu2(self):
        # at nu = 2 the irreducibles are sign characters, so the block sums of
        # the normal supercharacter theory can be built from first principles
        for n in range(2, 6):
            spec = GroupSpec.standard(2, n)
            rank = spec.rank
            characters = {}
            for a in itertools.product((0, 1), repeat=rank):
                values = [
                    (-1) ** sum(ai * gi for ai, gi in zip(a, g))
                    for g in spec.elements()
                ]
                characters[a] = values

            def kernel_contains(a, members):
                # ker psi_a contains Q_M iff a vanishes on M
                return all(
                    a[spec.index_set.index(i)] == 0 for i in members
                )

            for I in subsets(spec.index_set):
                covers = [I | {j} for j in set(spec.index_set) - I]
                block = [
                    a
                    for a in characters
                    if kernel_contains(a, I)
                    and all(not kernel_contains(a, O) for O in covers)
                ]
                total = [Fraction(0)] * spec.order
                for a in block:
                    # psi(e) = 1 for linear characters
                    total = [x + v for x, v in zip(total, characters[a])]
                assert ClassFunction(spec, total) == chi(spec, I), I


class TestInternedBasis:
    def test_one_function_per_group_and_label(self):
        spec = GroupSpec.standard(3, 4)
        assert kappa(spec, [1, 2]) is kappa(spec, {1, 2}) is kappa(GroupSpec(3, (1, 2, 3)), (2, 1))
        assert chi(spec, [3]) is chi(spec, {3})
        assert one(spec) is one(GroupSpec(3, (1, 2, 3)))
        assert unit(3) is one(GroupSpec.standard(3, 0))
        assert kappa(spec, {1}) is not kappa(GroupSpec.standard(3, 5), {1})

    @pytest.mark.parametrize("nu,n", [(2, 5), (3, 4), (5, 3)])
    def test_the_interned_basis_equals_a_fresh_build(self, nu, n):
        from hopfscf import groupscf

        spec = GroupSpec.standard(nu, n)
        masks = groupscf.support_masks(nu, spec.rank)
        for I in subsets(spec.index_set):
            want = sum(1 << p for p, label in enumerate(spec.index_set) if label in I)
            off = spec.rank - len(I)
            # kappa_I is 1 on support exactly I; chi^I is (-1)^e (nu-1)^(off - e),
            # e counting the positions off I where the element is not the identity
            indicator = [int(s == want) for s in masks]
            character = [(-1) ** e * (nu - 1) ** (off - e) for e in ((s & ~want).bit_count() for s in masks)]
            assert kappa(spec, I) == ClassFunction(spec, indicator, 1)
            assert chi(spec, I) == ClassFunction(spec, character, 1)
            assert dot_chi(spec, I) == ClassFunction(spec, character, (nu - 1) ** off)
            assert dot_chi(spec, I).nums is chi(spec, I).nums  # gcd 1: the tuple is shared
        assert one(spec) == ClassFunction(spec, [1] * nu ** spec.rank, 1)

    @pytest.mark.parametrize("build", [kappa, chi, dot_chi])
    def test_a_bad_label_raises_on_every_call_after_a_good_one_is_cached(self, build):
        spec = GroupSpec.standard(2, 4)
        build(spec, {2})
        for _ in range(2):
            for label in ({0}, {4}, {1, 5}):
                with pytest.raises(ValueError, match="is not a subset of the index set"):
                    build(spec, label)
            with pytest.raises(TypeError):
                build(spec, {2.0})


class TestLatticeOracle:
    def test_identity_class(self):
        spec = GroupSpec.standard(2, 4)
        oracle = lattice_superclass_oracle(spec, frozenset())
        assert oracle == kappa(spec, frozenset())

    @pytest.mark.parametrize("nu,n", [(2, 3), (3, 4), (5, 4), (7, 3)])
    def test_oracle_equals_kappa_everywhere(self, nu, n):
        spec = GroupSpec.standard(nu, n)
        for I in subsets(spec.index_set):
            assert lattice_superclass_oracle(spec, I) == kappa(spec, I)

    def test_oracle_reads_no_gather_table(self, monkeypatch):
        from hopfscf import groupscf

        spec = GroupSpec.standard(3, 4)
        labels = list(subsets(spec.index_set))
        expected = [kappa(spec, I) for I in labels]

        def refuse(*args):
            raise AssertionError("the lattice oracle read a gather table")

        for name in ("support_masks", "inverse_map", "_plan"):
            monkeypatch.setattr(groupscf, name, refuse)
        groupscf.element_supports.cache_clear()
        groupscf.sublattice.cache_clear()
        assert [lattice_superclass_oracle(spec, I) for I in labels] == expected

    def test_corrupt_support_masks_fail_the_lattice_check(self, monkeypatch):
        from hopfscf import groupscf

        spec = GroupSpec.standard(3, 4)
        masks = groupscf.support_masks(spec.nu, spec.rank)
        swapped = array("I", masks)
        swapped[1], swapped[-1] = masks[-1], masks[1]
        assert swapped != masks
        # the interned basis is built from the support masks: drop what was built
        # from the true table, and after the run what was built from the corrupt one
        groupscf._kappa.cache_clear()
        groupscf._chi.cache_clear()
        monkeypatch.setattr(groupscf, "support_masks", lambda nu, rank: swapped)
        try:
            failed = [name for name, _ in verify_axioms(spec).failures()]
        finally:
            groupscf._kappa.cache_clear()
            groupscf._chi.cache_clear()
        assert "lattice superclasses" in failed


class TestRestrictTensorRelabel:
    def test_restrict_kappa_rule(self):
        spec = GroupSpec.standard(2, 6)
        k14 = kappa(spec, {1, 4})
        inside = restrict(k14, {1, 2, 4, 5})
        assert inside == kappa(GroupSpec(2, (1, 2, 4, 5)), {1, 4})
        outside = restrict(k14, {1, 2, 3})
        assert outside.is_zero()

    def test_restrict_one(self):
        spec = GroupSpec.standard(3, 4)
        assert restrict(one(spec), {2}) == one(GroupSpec(3, (2,)))

    def test_restriction_and_unit_specs(self):
        phi = one(GroupSpec.standard(3, 4))
        assert restrict(phi, {1, 3}).spec == restrict(phi, [3, 1]).spec == GroupSpec(3, (1, 3))
        assert restrict(phi, {1, 2}).spec == GroupSpec.standard(3, 3)
        # the unit lives on the interned trivial group
        assert unit(3).spec is GroupSpec.standard(3, 0) == GroupSpec(3, ())

    def test_a_lowered_bound_refuses_a_restriction_built_before(self, monkeypatch):
        monkeypatch.setenv("HOPF_SCF_MAX_GROUP", "1000")
        phi = one(GroupSpec.standard(3, 6))
        target = restrict(phi, {1, 2, 3, 4}).spec
        monkeypatch.setenv("HOPF_SCF_MAX_GROUP", "80")
        with pytest.raises(GroupBoundError, match="group order 3\\^4 exceeds bound 80"):
            restrict(phi, {1, 2, 3, 4})
        restrict(phi, {1, 2, 3})  # 27 elements: still inside
        monkeypatch.setenv("HOPF_SCF_MAX_GROUP", "1000")
        assert restrict(phi, {1, 2, 3, 4}).spec == target

    def test_a_malformed_bound_raises_on_every_restriction_and_unit(self, monkeypatch):
        phi = one(GroupSpec.standard(2, 4))
        restrict(phi, {2})
        unit(2)
        monkeypatch.setenv("HOPF_SCF_MAX_GROUP", "lots")
        for _ in range(2):
            for call in (lambda: restrict(phi, {2}), lambda: restrict(phi, {1, 3}), lambda: unit(2)):
                with pytest.raises(GroupBoundError, match="must be an integer, got 'lots'"):
                    call()

    def test_a_non_int_restriction_label_is_refused(self):
        phi = one(GroupSpec.standard(2, 4))
        restrict(phi, {2})  # the int target is accepted
        with pytest.raises(TypeError):
            restrict(phi, {2.0})

    def test_tensor_of_ones(self):
        a = one(GroupSpec(2, (1, 3)))
        b = one(GroupSpec(2, (2,)))
        assert tensor_embed(a, b) == one(GroupSpec(2, (1, 2, 3)))

    def test_tensor_of_kappas(self):
        for nu in (2, 3):
            left = kappa(GroupSpec(nu, (1, 4)), {4})
            right = kappa(GroupSpec(nu, (2, 3)), {2})
            combined = tensor_embed(left, right)
            assert combined == kappa(GroupSpec(nu, (1, 2, 3, 4)), {2, 4})

    def test_tensor_rejects_overlap(self):
        a = one(GroupSpec(2, (1, 2)))
        with pytest.raises(ValueError):
            tensor_embed(a, a)

    def test_relabel_moves_labels(self):
        for nu in (2, 3):
            phi = chi(GroupSpec.standard(nu, 3), {1})
            moved = relabel(phi, (2, 5))
            assert moved == chi(GroupSpec(nu, (2, 5)), {2})
            for I in subsets((1, 2)):
                k = kappa(GroupSpec.standard(nu, 3), I)
                assert relabel(k, (2, 5)) == kappa(
                    GroupSpec(nu, (2, 5)), {(2, 5)[i - 1] for i in I}
                )

    def test_relabel_round_trip(self):
        phi = dot_chi(GroupSpec.standard(2, 4), {2})
        assert relabel(relabel(phi, (3, 5, 9)), (1, 2, 3)) == phi

    def test_relabel_size_mismatch(self):
        with pytest.raises(ValueError):
            relabel(one(GroupSpec(2, (1, 2))), (1, 2, 3))

    def test_label_outside_index_set_rejected(self):
        spec = GroupSpec.standard(2, 3)
        with pytest.raises(ValueError):
            kappa(spec, {5})
        with pytest.raises(ValueError):
            chi(spec, {5})
        with pytest.raises(ValueError):
            restrict(one(spec), {5})


class TestProduct:
    def test_worked_example(self):
        for nu in (2, 3):
            phi = dot_chi(GroupSpec.standard(nu, 4), {2, 3})
            psi = dot_chi(GroupSpec.standard(nu, 3), {2})
            got = product_mA(phi, psi, {1, 3, 4}, 4, 3)
            assert got == dot_chi(GroupSpec.standard(nu, 7), {1, 3, 4, 5, 6})

    @pytest.mark.parametrize("nu", [2, 3])
    def test_shuffle_lemma_exhaustive(self, nu):
        # m_A on normalized supercharacters is the A-shuffle, all m+n <= 6
        for m in range(0, 7):
            for n in range(0, 7 - m):
                for I in subsets(range(1, m)):
                    for J in subsets(range(1, n)):
                        phi = dot_chi(GroupSpec.standard(nu, m), I)
                        psi = dot_chi(GroupSpec.standard(nu, n), J)
                        for A in itertools.combinations(range(1, m + n + 1), n):
                            label = a_shuffle(
                                SubsetLabel.of(m, I), SubsetLabel.of(n, J), A, m, n
                            )
                            assert product_mA(phi, psi, A, m, n) == dot_chi(
                                GroupSpec.standard(nu, m + n), label.members
                            )

    def test_product_maps_are_cached_and_bounded(self):
        from hopfscf import groupscf

        names = (
            "support_masks",
            "inverse_map",
            "restriction_map",
            "product_plan",
            "element_supports",
            "sublattice",
            "_standard_spec",
            "_off_weights",
            "_kappa",
            "_chi",
            "one",
        )
        tables = {name: getattr(groupscf, name) for name in names}
        for name, table in tables.items():
            assert table.cache_info().maxsize, name  # None would be unbounded
        phi = kappa(GroupSpec.standard(3, 3), {1})
        psi = kappa(GroupSpec.standard(3, 2), set())
        first = product_m(phi, psi, 3, 2)
        before = {name: table.cache_info() for name, table in tables.items()}
        assert product_m(phi, psi, 3, 2) == first
        after = {name: table.cache_info() for name, table in tables.items()}
        # the repeated call reads its summed plan once
        assert after["product_plan"].hits - before["product_plan"].hits == 1
        assert {n: i.misses for n, i in after.items()} == {n: i.misses for n, i in before.items()}

    def test_arity_violations_rejected(self):
        phi = dot_chi(GroupSpec.standard(2, 3), {1})
        psi = dot_chi(GroupSpec.standard(2, 2), set())
        with pytest.raises(ValueError):
            product_mA(phi, psi, {1}, 3, 2)  # |A| != n
        with pytest.raises(ValueError):
            product_mA(phi, psi, {1, 9}, 3, 2)  # out of range
        with pytest.raises(ValueError, match="standard groups"):
            product_mA(phi, relabel(psi, (2,)), {1, 2}, 3, 2)  # non-standard group

    def test_product_plan_refuses_shapes_no_product_reaches(self):
        from hopfscf import groupscf

        with pytest.raises(ValueError, match="^nu must be at least 2, got 1$"):
            groupscf.product_plan(1, 2, 2)
        with pytest.raises(ValueError, match="^m must be at least 1, got 0$"):
            groupscf.product_plan(2, 0, 3)
        with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
            groupscf.product_plan(2, 3, 0)
        groupscf.product_plan(2, 2, 2)  # a cached int shape does not answer for nu = 2.0
        with pytest.raises(TypeError, match="^nu must be an int, got 2.0$"):
            groupscf.product_plan(2.0, 2, 2)
        # refused by the group bound before any table is built
        with pytest.raises(GroupBoundError, match="^group order 2\\^79 exceeds bound 1048576"):
            groupscf.product_plan(2, 40, 40)

    @pytest.mark.parametrize(
        "op",
        [product_m, lambda phi, psi, m, n: product_mA(phi, psi, set(range(1, n + 1)), m, n)],
        ids=["product_m", "product_mA"],
    )
    def test_operands_off_the_standard_index_sets_refused(self, op):
        phi = kappa(GroupSpec.standard(2, 3), {1})
        # the order of Q_3(2) on another index set
        shifted = kappa(GroupSpec(2, (2, 3)), {2})
        for a, b, m, n in [(phi, shifted, 3, 3), (shifted, phi, 3, 3), (phi, phi, 4, 3), (phi, phi, 3, 2)]:
            with pytest.raises(ValueError, match="^operands must live on standard groups Q_m, Q_n$"):
                op(a, b, m, n)
        with pytest.raises(ValueError, match="^operands must share nu$"):
            op(phi, kappa(GroupSpec.standard(3, 3), {1}), 3, 3)
        with pytest.raises(ValueError, match="^degree must be nonnegative, got -1$"):
            op(unit(2), phi, -1, 3)

    def test_coproduct_refuses_a_nonstandard_index_set(self):
        with pytest.raises(ValueError, match="^coproduct operands must live on a standard group$"):
            coproduct_k(kappa(GroupSpec(2, (2, 3)), {2}), 1, 3)

    def test_degenerate_degrees_multiply_by_scalar(self):
        phi = dot_chi(GroupSpec.standard(2, 3), {1})
        scalar = unit(2).scale(5)
        assert product_m(scalar, phi, 0, 3) == phi.scale(5)
        assert product_m(phi, scalar, 3, 0) == phi.scale(5)

    def test_kappa_product_matches_golden(self):
        # dense computation frozen as the arbiter for the worked kappa example
        golden = json.loads((GOLDEN / "kappa_product_m2_n3.json").read_text())
        for case in golden["cases"]:
            nu = case["nu"]
            phi = kappa(GroupSpec.standard(nu, golden["m"]), set(golden["I"]))
            psi = kappa(GroupSpec.standard(nu, golden["n"]), set(golden["J"]))
            got = expand_kappa(product_m(phi, psi, golden["m"], golden["n"]))
            got = {
                ",".join(map(str, sorted(supp))): str(coeff)
                for supp, coeff in got.items()
                if coeff != 0
            }
            assert got == case["expansion"], nu

    def test_kappa_product_matches_selector_formula(self):
        # d_K = sum over admissible A of (1/(1-nu))^{|K n c2(A)|}
        from hopfscf.compositions import preshuffle, run_markers

        for nu in (2, 3):
            for m in range(0, 5):
                for n in range(0, 5 - m):
                    k = m + n
                    for I in subsets(range(1, m)):
                        for J in subsets(range(1, n)):
                            phi = kappa(GroupSpec.standard(nu, m), I)
                            psi = kappa(GroupSpec.standard(nu, n), J)
                            dense = expand_kappa(product_m(phi, psi, m, n))
                            formula: dict[frozenset, Fraction] = {}
                            for A in itertools.combinations(range(1, k + 1), n):
                                pre = preshuffle(
                                    SubsetLabel.of(m, I), SubsetLabel.of(n, J), A, m, n
                                )
                                _, c2, c = run_markers(A, k)
                                if pre.mask & c.mask:
                                    continue
                                for extra in subsets(set(c.members) - set(pre.members)):
                                    K = frozenset(pre.members) | extra
                                    weight = Fraction(1, (1 - nu)) ** len(
                                        K & set(c2.members)
                                    )
                                    formula[K] = formula.get(K, Fraction(0)) + weight
                            dense = {k_: v for k_, v in dense.items() if v}
                            formula = {k_: v for k_, v in formula.items() if v}
                            assert dense == formula, (nu, m, n, I, J)

    def test_product_associative_dense(self):
        # on kappa basis elements, total degree <= 5
        for nu, bound in ((2, 5), (3, 4)):
            for a in range(0, bound + 1):
                for b in range(0, bound + 1 - a):
                    for c in range(0, bound + 1 - a - b):
                        for I in subsets(range(1, a)):
                            for J in subsets(range(1, b)):
                                for K in subsets(range(1, c)):
                                    x = kappa(GroupSpec.standard(nu, a), I)
                                    y = kappa(GroupSpec.standard(nu, b), J)
                                    z = kappa(GroupSpec.standard(nu, c), K)
                                    left = product_m(product_m(x, y, a, b), z, a + b, c)
                                    right = product_m(x, product_m(y, z, b, c), a, b + c)
                                    assert left == right


def _tensor_matrix(pairs, left_spec, right_spec):
    rows = [[Fraction(0)] * right_spec.order for _ in range(left_spec.order)]
    for left, right in pairs:
        assert left.spec == left_spec and right.spec == right_spec
        right_values = right.values
        for i, lv in enumerate(left.values):
            if lv:
                for j, rv in enumerate(right_values):
                    rows[i][j] = rows[i][j] + lv * rv
    return rows


class TestCoproduct:
    def test_chi_slice_example(self):
        # slicing chi_dot^{1,3,4} in degree 5 at position 2
        for nu in (2, 3):
            phi = dot_chi(GroupSpec.standard(nu, 5), {1, 3, 4})
            pairs = coproduct_k(phi, 2, 5)
            left_spec = GroupSpec.standard(nu, 2)
            right_spec = GroupSpec.standard(nu, 3)
            expected = [
                (dot_chi(left_spec, {1}), dot_chi(right_spec, {1, 2}))
            ]
            assert _tensor_matrix(pairs, left_spec, right_spec) == _tensor_matrix(
                expected, left_spec, right_spec
            )

    def test_kappa_coproduct_five_terms(self):
        # all near-concatenation factorizations of (1,3,2); the middle slice
        # comes from (1,2) fused with (1,2), so both labels are {1}
        nu = 2
        phi = kappa(GroupSpec.standard(nu, 6), {1, 4})
        result = coproduct(phi, 6)
        nonzero = {k: pairs for k, pairs in result.items() if pairs}
        assert set(nonzero) == {0, 2, 3, 5, 6}
        for k, left_label, right_label in (
            (2, frozenset({1}), frozenset({2})),
            (3, frozenset({1}), frozenset({1})),
        ):
            pairs = nonzero[k]
            ls, rs = GroupSpec.standard(nu, k), GroupSpec.standard(nu, 6 - k)
            assert _tensor_matrix(pairs, ls, rs) == _tensor_matrix(
                [(kappa(ls, left_label), kappa(rs, right_label))], ls, rs
            )
        # boundary slices
        assert result[0][0][1] == phi
        assert result[6][0][0] == phi

    def test_kappa_coproduct_near_concat_rule(self):
        # delta(kappa_{set(gamma)}) = sum over near-concat factorizations
        for nu in (2, 3):
            for n in range(0, 6):
                for gamma in compositions_of(n):
                    phi = kappa(
                        GroupSpec.standard(nu, n), set(set_of_comp(gamma).members)
                    )
                    factorizations = []
                    for k in range(n + 1):
                        for pairs in [coproduct_k(phi, k, n)]:
                            for left, right in pairs:
                                lk = expand_kappa(left)
                                rk = expand_kappa(right)
                                lbl_l = [s for s, v in lk.items() if v]
                                lbl_r = [s for s, v in rk.items() if v]
                                assert len(lbl_l) == 1 and len(lbl_r) == 1
                                from hopfscf.compositions import comp_of_set

                                la = comp_of_set(SubsetLabel.of(k, lbl_l[0]))
                                ra = comp_of_set(SubsetLabel.of(n - k, lbl_r[0]))
                                assert lk[lbl_l[0]] == 1
                                factorizations.append((la, ra))
                    expected = [
                        (alpha, beta)
                        for k in range(n + 1)
                        for alpha in compositions_of(k)
                        for beta in compositions_of(n - k)
                        if near_concat(alpha, beta) == gamma
                    ]
                    assert sorted(factorizations) == sorted(expected), gamma

    def test_slice_factorizes_the_restriction(self):
        # restricting away index k equals the sum of embedded tensor factors,
        # on every kappa and chi_dot basis function
        shapes = [(nu, n) for nu, top in ((2, 6), (3, 6), (5, 4)) for n in range(top + 1)]
        for nu, n in shapes:
            spec = GroupSpec.standard(nu, n)
            for basis, members in itertools.product((kappa, dot_chi), subsets(range(1, n))):
                phi = basis(spec, members)
                for k in range(1, n):
                    keep = [i for i in range(1, n) if i != k]
                    restricted = restrict(phi, keep)
                    pairs = coproduct_k(phi, k, n)
                    total = None
                    for left, right in pairs:
                        shifted = relabel(right, range(k + 1, n))
                        term = tensor_embed(left, shifted)
                        total = term if total is None else total + term
                    if total is None:
                        assert restricted.is_zero()
                    else:
                        assert relabel(total, keep) == restricted

    def test_function_outside_scf_refused_at_every_inner_slice(self):
        # counting takes distinct values on the two elements of cl_{i} at nu=3
        for n in range(2, 6):
            phi = counting(GroupSpec.standard(3, n), ())
            for k in range(1, n):
                with pytest.raises(ValueError, match="not a superclass function"):
                    coproduct_k(phi, k, n)

    def test_coproduct_checks_superclass_constancy_once(self, monkeypatch):
        from hopfscf import groupscf

        calls, check = [], groupscf._superclass_nums
        monkeypatch.setattr(groupscf, "_superclass_nums", lambda phi: calls.append(phi) or check(phi))
        for nu, n in [(2, 5), (3, 4), (2, 1), (2, 0)]:
            phi = dot_chi(GroupSpec.standard(nu, n), {1} if n > 1 else set())
            calls.clear()
            coproduct(phi, n)
            assert len(calls) == 1, (nu, n)
            calls.clear()
            for k in range(n + 1):
                coproduct_k(phi, k, n)
            assert len(calls) == max(n - 1, 0), (nu, n)
        phi = counting(GroupSpec.standard(3, 4), ())
        texts = []
        for call in (lambda: coproduct(phi, 4), lambda: coproduct_k(phi, 2, 4)):
            with pytest.raises(ValueError, match="not a superclass function") as info:
                call()
            texts.append(str(info.value))
        assert texts[0] == texts[1]

    def test_left_factors_are_interned_superclass_indicators(self):
        for nu, n in [(2, 5), (3, 4)]:
            phi = dot_chi(GroupSpec.standard(nu, n), {2})  # every row is nonzero
            for k in range(1, n):
                first, again = coproduct_k(phi, k, n), coproduct_k(phi, k, n)
                spec = GroupSpec.standard(nu, k)
                assert [left for left, _ in first] == [kappa(spec, L) for L in subsets(range(1, k))]
                assert all(a is b for (a, _), (b, _) in zip(first, again))

    def test_factors_are_the_interned_basis(self):
        for nu, n in [(2, 5), (3, 4)]:
            phi = dot_chi(GroupSpec.standard(nu, n), {2})  # every row is nonzero
            slices = coproduct(phi, n)
            assert slices[0][0][0] is slices[n][0][1] is one(GroupSpec.standard(nu, 0))
            for k in range(1, n):
                left_spec = GroupSpec.standard(nu, k)
                labels = list(subsets(range(1, k)))
                for pairs in (slices[k], coproduct_k(phi, k, n)):
                    assert len(pairs) == len(labels)
                    assert all(left is kappa(left_spec, L) for (left, _), L in zip(pairs, labels))

    def test_a_lowered_or_malformed_bound_refuses_every_coproduct(self, monkeypatch):
        monkeypatch.setenv("HOPF_SCF_MAX_GROUP", "1000")
        phi = dot_chi(GroupSpec.standard(3, 5), {2})
        coproduct(phi, 5)
        coproduct_k(phi, 3, 5)
        # Q_3(3) and Q_4(3) have 9 and 27 elements
        monkeypatch.setenv("HOPF_SCF_MAX_GROUP", "8")
        for _ in range(2):
            for call in (lambda: coproduct(phi, 5), lambda: coproduct_k(phi, 3, 5), lambda: coproduct_k(phi, 1, 5)):
                with pytest.raises(GroupBoundError, match="exceeds bound 8"):
                    call()
        monkeypatch.setenv("HOPF_SCF_MAX_GROUP", "lots")
        for _ in range(2):
            for call in (lambda: coproduct(phi, 5), *(lambda k=k: coproduct_k(phi, k, 5) for k in range(6))):
                with pytest.raises(GroupBoundError, match="must be an integer, got 'lots'"):
                    call()
        monkeypatch.setenv("HOPF_SCF_MAX_GROUP", "1000")
        assert coproduct_k(phi, 3, 5) == coproduct(phi, 5)[3]

    def test_slices_build_functions_on_standard_groups_only(self, monkeypatch):
        # the restriction to Q_{[n-1] \ {k}} is read by gather, not built
        built, init = [], ClassFunction.__init__

        def record(self, spec, *args):
            built.append(spec.index_set)
            init(self, spec, *args)

        monkeypatch.setattr(ClassFunction, "__init__", record)
        for nu, n in [(2, 5), (3, 4)]:
            coproduct(dot_chi(GroupSpec.standard(nu, n), {2}), n)
        assert built and all(labels == tuple(range(1, len(labels) + 1)) for labels in built)

    def test_slice_position_out_of_range(self):
        phi = kappa(GroupSpec.standard(2, 3), {1})
        with pytest.raises(ValueError):
            coproduct_k(phi, 4, 3)
        with pytest.raises(ValueError):
            coproduct_k(phi, -1, 3)

    def test_coassociativity_dense(self):
        # iterated slices agree on kappa elements, degree <= 5
        for nu in (2, 3):
            n = 5
            for members in subsets(range(1, n)):
                phi = kappa(GroupSpec.standard(nu, n), members)
                for k1 in range(n + 1):
                    for k2 in range(k1 + 1):
                        left_route = []
                        for left, right in coproduct_k(phi, k1, n):
                            for ll, lr in coproduct_k(left, k2, k1):
                                left_route.append((ll, lr, right))
                        right_route = []
                        for left, right in coproduct_k(phi, k2, n):
                            for rl, rr in coproduct_k(right, k1 - k2, n - k2):
                                right_route.append((left, rl, rr))

                        def triple_sum_full(terms):
                            acc = {}
                            for x, y, z in terms:
                                for sx, vx in expand_kappa(x).items():
                                    if not vx:
                                        continue
                                    for sy, vy in expand_kappa(y).items():
                                        if not vy:
                                            continue
                                        for sz, vz in expand_kappa(z).items():
                                            if not vz:
                                                continue
                                            key = (
                                                tuple(sorted(sx)),
                                                tuple(sorted(sy)),
                                                tuple(sorted(sz)),
                                            )
                                            acc[key] = acc.get(key, 0) + vx * vy * vz
                            return {k: v for k, v in acc.items() if v}

                        assert triple_sum_full(left_route) == triple_sum_full(right_route)


class TestHallInner:
    def test_chi_norms(self):
        for nu, n in ((2, 5), (3, 4)):
            spec = GroupSpec.standard(nu, n)
            for I in subsets(spec.index_set):
                assert hall_inner(chi(spec, I), chi(spec, I)) == Fraction(
                    (nu - 1) ** (spec.rank - len(I))
                )

    def test_chi_orthogonality(self):
        for nu, n in ((2, 5), (3, 4)):
            spec = GroupSpec.standard(nu, n)
            for I, J in itertools.combinations(subsets(spec.index_set), 2):
                assert hall_inner(chi(spec, I), chi(spec, J)) == 0

    def test_kappa_norm_is_reciprocal_of_quoted_display(self):
        # the dense Hall norm of kappa_I is (nu-1)^{|I|} / nu^{n-1}; the
        # usual display nu^{n-1}/(nu-1)^{|I|} is its reciprocal
        for nu, n in ((2, 5), (3, 4)):
            spec = GroupSpec.standard(nu, n)
            for I in subsets(spec.index_set):
                norm = hall_inner(kappa(spec, I), kappa(spec, I))
                assert norm == Fraction((nu - 1) ** len(I), nu**spec.rank)
                quoted = Fraction(nu**spec.rank, (nu - 1) ** len(I))
                assert norm == 1 / quoted

    def test_spec_mismatch(self):
        with pytest.raises(ValueError):
            hall_inner(one(GroupSpec(2, (1,))), one(GroupSpec(2, (2,))))


class TestAxioms:
    @pytest.mark.parametrize("nu,n", [(2, 5), (3, 4)])
    def test_axioms_pass(self, nu, n):
        report = verify_axioms(GroupSpec.standard(nu, n))
        assert report.passed, report.failures()

    @pytest.mark.parametrize("nu", [2, 3])
    def test_rank_0_has_no_orthogonality_check(self, nu):
        """Q_1(nu) has one superclass, so there is no pair to be orthogonal."""
        report = verify_axioms(GroupSpec.standard(nu, 1))
        names = [name for name, _, _ in report.checks]
        assert report.passed, report.failures()
        assert "Hall orthogonality" not in names and "Hall norms" in names
        assert "Hall orthogonality" in [c[0] for c in verify_axioms(GroupSpec.standard(nu, 2)).checks]

    def test_empty_report_fails(self):
        assert not CheckReport([]).passed
        assert CheckReport([("one check", True, "")]).passed
        assert not CheckReport([("one check", False, "why")]).passed

    def test_oversized_request_refused_before_any_degree(self, monkeypatch):
        from hopfscf import groupscf, verify

        ran = []
        monkeypatch.setattr(groupscf, "verify_axioms", lambda spec: ran.append(spec))
        monkeypatch.setenv("HOPF_SCF_MAX_GROUP", "100")
        with pytest.raises(GroupBoundError):
            verify.suite_group_axioms({2: 9})
        assert ran == []
        with pytest.raises(GroupBoundError):
            verify.suite_group_axioms({3: 2, 2: 9})
        assert ran == []

    def test_each_group_is_checked_once(self, monkeypatch):
        from hopfscf import groupscf, verify

        seen = []

        def recording(spec):
            seen.append(spec)
            return verify_axioms(spec)

        monkeypatch.setattr(groupscf, "verify_axioms", recording)
        report = verify.suite_group_axioms({2: 3})
        # Q_0 = Q_1: the two trivial-group rows share one report
        assert len(report.checks) == 4 and report.passed
        assert seen == [GroupSpec.standard(2, n) for n in (0, 2, 3)]
        seen.clear()
        assert verify.suite_group_axioms({2: 3}).checks == report.checks
        assert len(seen) == 3  # a report lives for one call

    def test_group_axioms_rows(self):
        from hopfscf import verify

        assert verify.suite_group_axioms({2: 4, 3: 3}).checks == [
            ("nu=2 n=0: axioms C1-C3, norms, lattice", True, ""),
            ("nu=2 n=1: axioms C1-C3, norms, lattice", True, ""),
            ("nu=2 n=2: axioms C1-C3, norms, lattice", True, ""),
            ("nu=2 n=3: axioms C1-C3, norms, lattice", True, ""),
            ("nu=2 n=4: axioms C1-C3, norms, lattice", True, ""),
            ("nu=3 n=0: axioms C1-C3, norms, lattice", True, ""),
            ("nu=3 n=1: axioms C1-C3, norms, lattice", True, ""),
            ("nu=3 n=2: axioms C1-C3, norms, lattice", True, ""),
            ("nu=3 n=3: axioms C1-C3, norms, lattice", True, ""),
        ]

    def test_oversized_diagrams_request_refused_before_any_degree(self, monkeypatch):
        from hopfscf import charmap, verify

        ran = []
        monkeypatch.setattr(charmap, "verify_diagrams", lambda nu, bound: ran.append((nu, bound)))
        monkeypatch.delenv("HOPF_SCF_MAX_GROUP", raising=False)
        with pytest.raises(GroupBoundError, match="group order 2\\^29 exceeds bound 1048576"):
            verify.suite_diagrams({2: 30})
        assert ran == []

    def test_not_superclass_function_detected(self):
        # nu = 3 so the superclass cl_{1} = {(1), (2)} has two elements
        spec = GroupSpec(3, (1,))
        with pytest.raises(ValueError):
            expand_kappa(ClassFunction(spec, [0, 1, 2]))


class TestCheck:
    def test_stops_at_the_first_witness(self):
        seen = []

        def fault(case):
            seen.append(case)
            return f"at {case}" if case >= 3 else None

        assert check("sweep", range(10), fault) == ("sweep", False, "at 3")
        assert seen == [0, 1, 2, 3]

    def test_all_none_passes_with_empty_witness(self):
        assert check("sweep", range(5), lambda case: None) == ("sweep", True, "")

    def test_no_case_fails(self):
        assert check("x", [], lambda case: None) == ("x", False, "no cases examined")
        assert check("x", iter(()), lambda case: "never") == ("x", False, "no cases examined")

    def test_empty_witness_fails(self):
        assert check("sweep", range(5), lambda case: "" if case == 2 else None) == (
            "sweep",
            False,
            "",
        )
