from fractions import Fraction

import pytest

import hopfscf.qsym as qsym
from hopfscf.compositions import AmbientBoundError, Composition, compositions_of, overlapping_shuffles
from hopfscf.qsym import (
    E,
    L,
    M,
    Pi,
    QSymElem,
    QSymTensor,
    antipode,
    convert,
    coproduct,
    counit,
)
from hopfscf.scalars import ONE, ZERO, rational
from transition_oracle import (
    L_from_pi_entry,
    M_from_pi_entry,
    pi_from_L_entry,
    pi_from_M_entry,
    pi_L_matrices_inverse,
    pi_M_matrices_inverse,
)


def antipode_M(alpha) -> QSymElem:
    """S(M_alpha)."""
    return antipode(M(alpha))


class TestElements:
    def test_pi_requires_nu(self):
        with pytest.raises(ValueError):
            QSymElem("Pi", {})
        with pytest.raises(ValueError):
            QSymElem("M", {}, nu=2)

    def test_zero_coefficients_dropped(self):
        x = QSymElem("M", {Composition((2,)): ZERO})
        assert x.is_zero()

    def test_composition_keys_kept_as_built(self):
        comp = Composition((1, 2))
        assert next(iter(QSymElem("M", {comp: 1}).terms)) is comp
        ((a, b),) = QSymTensor(("M", "M"), {(comp, comp): 1}).terms
        assert a is comp and b is comp

    def test_plain_tuple_keys_still_validated(self):
        for bad in ((1, 0), (2, -1), (0,)):
            with pytest.raises(ValueError):
                QSymElem("M", {bad: 1})
            with pytest.raises(ValueError):
                QSymTensor(("M", "M"), {((1,), bad): 1})
            with pytest.raises(ValueError):
                QSymTensor(("L", "E"), {(bad, ()): 1})

    def test_equality_across_bases(self):
        # L_(2) = M_(2) + M_(1,1)
        assert L((2,)) == M((2,)) + M((1, 1))

    def test_json_round_trip(self):
        x = M((1, 2)).scale(rational(Fraction(3, 2))) + M((3,))
        data = x.to_json_dict()
        assert data["basis"] == "M"
        assert [t["comp"] for t in data["terms"]] == [[1, 2], [3]]
        assert QSymElem.from_json_dict(data) == x


class TestConversions:
    def test_L_of_one_part_composition(self):
        # L over the coarsest composition sums M over all refinements
        for n in range(1, 5):
            expected = QSymElem("M", {alpha: ONE for alpha in compositions_of(n)})
            assert convert(L((n,)), "M") == expected

    def test_E_of_finest_composition(self):
        for n in range(1, 5):
            expected = QSymElem("M", {alpha: ONE for alpha in compositions_of(n)})
            assert convert(E((1,) * n), "M") == expected

    def test_M_to_Pi_support_condition(self):
        # only labels J with I u J = [n-1] appear
        x = convert(M((1, 2)), "Pi", nu=2)
        assert set(x.terms) == {Composition((2, 1)), Composition((1, 1, 1))}
        assert x.terms[Composition((2, 1))] == rational(-2)
        assert x.terms[Composition((1, 1, 1))] == rational(-2)

    @pytest.mark.parametrize("nu", [2, 3, 5])
    def test_round_trips_through_pi(self, nu):
        for n in range(0, 7):
            for alpha in compositions_of(n):
                x = M(alpha)
                assert convert(convert(x, "Pi", nu), "M") == x
                y = L(alpha)
                assert convert(convert(y, "Pi", nu), "L") == y

    def test_round_trips_L_E(self):
        for n in range(0, 7):
            for alpha in compositions_of(n):
                assert convert(convert(M(alpha), "L"), "M") == M(alpha)
                assert convert(convert(M(alpha), "E"), "M") == M(alpha)


class TestProduct:
    def test_two_L_ones(self):
        assert L((1,)) * L((1,)) == L((1, 1)) + L((2,))

    def test_two_M_ones(self):
        assert M((1,)) * M((1,)) == M((1, 1)).scale(2) + M((2,))

    def test_paper_shuffle_term(self):
        # the A = {1,3,4} selector contributes L indexed by {1,3,4,5,6}
        got = L((2, 1, 1)) * L((2, 1))
        assert Composition((1, 2, 1, 1, 2)) in got.terms

    def test_unit(self):
        x = M((2, 1)) + M((3,))
        assert QSymElem.unit("M") * x == x

    def test_routes_agree(self):
        for total in range(0, 6):
            for m in range(0, total + 1):
                for alpha in compositions_of(m):
                    for beta in compositions_of(total - m):
                        via_M = M(alpha) * M(beta)
                        via_L = convert(M(alpha), "L") * convert(M(beta), "L")
                        assert via_M == via_L, (alpha, beta)

    def test_commutative(self):
        for alpha, beta in (((1, 2), (2,)), ((1, 1), (3,))):
            assert M(alpha) * M(beta) == M(beta) * M(alpha)

    def test_memoised_M_rule_equals_fresh_shuffles(self):
        # every M label pair with m + n <= 7, first with the memo empty,
        # then with every pair already in it
        pairs = [
            (alpha, beta)
            for total in range(8)
            for m in range(total + 1)
            for alpha in compositions_of(m)
            for beta in compositions_of(total - m)
        ]
        qsym._m_product.cache_clear()
        for warm in (False, True):
            before = qsym._m_product.cache_info()
            for alpha, beta in pairs:
                fresh = QSymElem("M", dict(overlapping_shuffles(alpha, beta)))
                assert M(alpha) * M(beta) == fresh, (alpha, beta)
                assert type(qsym._m_product(alpha, beta)) is tuple
            after = qsym._m_product.cache_info()
            # two lookups per pair: a cold pass misses once and hits once each
            assert after.misses - before.misses == (0 if warm else len(pairs))
            assert after.hits - before.hits == (2 if warm else 1) * len(pairs)


    @pytest.mark.parametrize("basis", ["M", "L"])
    def test_product_past_the_degree_bound_is_refused_before_any_term(self, basis, monkeypatch):
        def refuse(*args):
            raise AssertionError("a term was built past the degree bound")

        for rule in ("overlapping_shuffles", "selector_masks"):
            monkeypatch.setattr(qsym, rule, refuse)
        with pytest.raises(AmbientBoundError):
            qsym.product(QSymElem.basis_elem(basis, (64,)), QSymElem.basis_elem(basis, (1,)))
        with pytest.raises(AmbientBoundError):  # the top degrees of the factors add up
            qsym.product(QSymElem(basis, {Composition((60, 3)): 1, Composition((1,)): 1}), L((2,)) + L((1,)))

    def test_product_at_the_degree_bound_is_built(self):
        assert M((63,)) * M((1,)) == M((63, 1)) + M((1, 63)) + M((64,))
        # 64 is inserted into 1..63 before each letter or at the end
        shuffles = {Composition((i, 64 - i)): 1 for i in range(1, 64)}
        assert L((63,)) * L((1,)) == QSymElem("L", {Composition((64,)): 1, **shuffles})


class TestCoproduct:
    def test_deconcatenation(self):
        got = coproduct(M((1, 2)))
        expected = QSymTensor(
            ("M", "M"),
            {
                (Composition(()), Composition((1, 2))): ONE,
                (Composition((1,)), Composition((2,))): ONE,
                (Composition((1, 2)), Composition(())): ONE,
            },
        )
        assert got == expected

    def test_L_fused_term(self):
        got = coproduct(L((1, 3, 2)))
        assert got.terms[(Composition((1, 2)), Composition((1, 2)))] == ONE
        assert len(got.terms) == 7

    def test_L_route_equals_M_route(self):
        for n in range(0, 6):
            for alpha in compositions_of(n):
                assert coproduct(L(alpha)) == coproduct(convert(L(alpha), "M"))

    def test_counit_laws(self):
        for n in range(0, 7):
            for alpha in compositions_of(n):
                x = M(alpha)
                left = QSymElem("M")
                right = QSymElem("M")
                for (a, b), c in coproduct(x).terms.items():
                    left = left + M(b).scale(c * counit(M(a)))
                    right = right + M(a).scale(c * counit(M(b)))
                assert left == x and right == x

    def test_bialgebra_compatibility(self):
        for total in range(0, 6):
            for m in range(0, total + 1):
                for alpha in compositions_of(m):
                    for beta in compositions_of(total - m):
                        x, y = M(alpha), M(beta)
                        assert coproduct(x * y) == coproduct(x).product(coproduct(y))


class TestAntipode:
    def test_one_part(self):
        for n in range(1, 5):
            assert antipode_M((n,)) == M((n,)).scale(-1)

    def test_unit(self):
        assert antipode(QSymElem.unit("M")) == QSymElem.unit("M")

    def test_two_ones(self):
        assert antipode_M((1, 1)) == M((1, 1)) + M((2,))

    def test_hopf_axiom_fixes_the_order_reading(self):
        # m(S x id) delta = unit . counit on M_alpha, n <= 5
        for n in range(0, 6):
            for alpha in compositions_of(n):
                x = M(alpha)
                acc = QSymElem("M")
                for (a, b), c in coproduct(x).terms.items():
                    acc = acc + (antipode(M(a)) * M(b)).scale(c)
                expected = QSymElem.unit("M").scale(counit(x))
                assert acc == expected, alpha

    def test_linear_on_sums(self):
        # L_(3) = M_(3) + M_(1,2) + M_(2,1) + M_(1,1,1)
        x = L((3,)).scale(2) - M((1, 2))
        expected = QSymElem("M")
        for alpha in ((3,), (2, 1), (1, 1, 1), (1, 2)):
            expected = expected + antipode_M(alpha).scale(2)
        assert antipode(x) == expected - antipode_M((1, 2))
        assert antipode(x - x).is_zero()

    def test_antipode_is_antimultiplicative(self):
        for alpha, beta in (((1,), (2,)), ((1, 1), (1,))):
            lhs = antipode(M(alpha) * M(beta))
            rhs = antipode(M(beta)) * antipode(M(alpha))
            assert lhs == rhs


class TestTransitionMatrices:
    @pytest.mark.parametrize("nu", [2, 3])
    def test_pi_L_displays_inverse_small(self, nu):
        for n in range(0, 6):
            assert pi_L_matrices_inverse(n, nu)

    @pytest.mark.parametrize("nu", [2, 3])
    def test_pi_M_displays_inverse_small(self, nu):
        for n in range(0, 6):
            assert pi_M_matrices_inverse(n, nu)

    def test_displays_refuse_a_nu_that_is_not_an_int_of_at_least_2(self):
        with pytest.raises(TypeError):
            pi_from_M_entry(2, 0, 1, 2.5)
        for display in (
            pi_from_L_entry,
            L_from_pi_entry,
            pi_from_M_entry,
            M_from_pi_entry,
        ):
            with pytest.raises(ValueError):
                display(2, 0, 0, 1)
        for check in (pi_L_matrices_inverse, pi_M_matrices_inverse):
            with pytest.raises(ValueError):
                check(3, 1)

    def test_pi_L_entry_values(self):
        # hand-checked degree-2 transitions
        assert pi_from_L_entry(2, 0, 0, 2) == 1
        assert pi_from_L_entry(2, 0, 1, 2) == -1
        assert L_from_pi_entry(2, 1, 0, 2) == Fraction(-1, 2)
        assert L_from_pi_entry(2, 1, 1, 2) == Fraction(1, 2)


class TestPiBridge:
    @pytest.mark.parametrize("nu", [2, 3])
    def test_pi_is_scaled_kappa_image(self, nu):
        # Pi_{(1,1)} = -M_{(2)} / nu, derived by hand from the definition
        x = convert(Pi((1, 1), nu), "M")
        assert x == M((2,)).scale(rational(Fraction(-1, nu)))
