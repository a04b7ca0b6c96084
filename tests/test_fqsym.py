import itertools
import math

import pytest

from fqsym_oracle import (
    FQSymElem,
    coproduct,
    coproduct_F,
    descent_rep,
    descent_set,
    fqsym_descent_oracle,
    product_F,
    project_pi,
)
from hopfscf.compositions import SubsetLabel
from hopfscf.qsym import L
import hopfscf.linear as linear
import hopfscf.qsym as qsym
from hopfscf.scalars import ONE


def permutations_of(n):
    return itertools.permutations(range(1, n + 1))


class TestProduct:
    def test_worked_example(self):
        got = product_F(FQSymElem.F((1, 2)), FQSymElem.F((2, 1)))
        assert set(got.terms) == {
            (1, 2, 4, 3),
            (1, 4, 2, 3),
            (1, 4, 3, 2),
            (4, 1, 2, 3),
            (4, 1, 3, 2),
            (4, 3, 1, 2),
        }
        assert all(c == ONE for c in got.terms.values())

    def test_unit(self):
        w = FQSymElem.F((2, 1, 3))
        assert product_F(FQSymElem.F(()), w) == w
        assert product_F(w, FQSymElem.F(())) == w

    def test_term_count(self):
        for m in range(0, 5):
            for n in range(0, 5 - m):
                for u in permutations_of(m):
                    for v in permutations_of(n):
                        got = product_F(FQSymElem.F(u), FQSymElem.F(v))
                        assert len(got.terms) == math.comb(m + n, n)

    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            FQSymElem.F((1, 3))


class TestCoproduct:
    def test_worked_example(self):
        got = coproduct_F((1, 3, 2))
        assert got == [
            ((), (1, 3, 2)),
            ((1,), (2, 1)),
            ((1, 2), (1,)),
            ((1, 3, 2), ()),
        ]

    def test_single_letter(self):
        assert coproduct_F((1,)) == [((), (1,)), ((1,), ())]

    def test_coassociative(self):
        for n in range(0, 5):
            for w in permutations_of(n):
                left = {}
                right = {}
                for (a, b), c in coproduct(FQSymElem.F(w)).items():
                    for (a1, a2), c2 in coproduct(FQSymElem.F(a)).items():
                        key = (a1, a2, b)
                        left[key] = left.get(key, 0 * ONE) + c * c2
                    for (b1, b2), c2 in coproduct(FQSymElem.F(b)).items():
                        key = (a, b1, b2)
                        right[key] = right.get(key, 0 * ONE) + c * c2
                left = {k: v for k, v in left.items() if not v.is_zero()}
                right = {k: v for k, v in right.items() if not v.is_zero()}
                assert set(left) == set(right)
                assert all(left[k] == right[k] for k in left)


class TestProjection:
    def test_descent_readoff(self):
        assert project_pi(FQSymElem.F((1, 4, 3, 2))) == L((2, 1, 1))

    def test_algebra_map_on_example(self):
        got = project_pi(product_F(FQSymElem.F((1, 2)), FQSymElem.F((2, 1))))
        assert got == L((2,)) * L((1, 1))

    def test_algebra_map_everywhere_small(self):
        for m in range(0, 4):
            for n in range(0, 4 - m):
                for u in permutations_of(m):
                    for v in permutations_of(n):
                        lhs = project_pi(product_F(FQSymElem.F(u), FQSymElem.F(v)))
                        rhs = project_pi(FQSymElem.F(u)) * project_pi(FQSymElem.F(v))
                        assert lhs == rhs

    def test_coalgebra_map_small(self):
        for n in range(0, 5):
            for w in permutations_of(n):
                lhs: dict = {}
                for (a, b), c in coproduct(FQSymElem.F(w)).items():
                    la = project_pi(FQSymElem.F(a))
                    rb = project_pi(FQSymElem.F(b))
                    for ca, va in la.terms.items():
                        for cb, vb in rb.terms.items():
                            linear._add_term(lhs, (ca, cb), c * va * vb)
                lhs_t = qsym.QSymTensor(("L", "L"), lhs)
                rhs = qsym.coproduct(project_pi(FQSymElem.F(w)))
                assert lhs_t == rhs


class TestRepresentativeIndependence:
    def test_product_projection_independent_of_representative(self):
        # every pair of permutations with the given descent sets gives the
        # same L-product
        for m in range(0, 5):
            for n in range(0, 5 - m):
                for I in (
                    frozenset(c)
                    for r in range(max(m, 1))
                    for c in itertools.combinations(range(1, m), r)
                ):
                    for J in (
                        frozenset(c)
                        for r in range(max(n, 1))
                        for c in itertools.combinations(range(1, n), r)
                    ):
                        reps_i = [
                            w for w in permutations_of(m) if set(descent_set(w).members) == I
                        ]
                        reps_j = [
                            w for w in permutations_of(n) if set(descent_set(w).members) == J
                        ]
                        default = project_pi(
                            product_F(
                                FQSymElem.F(descent_rep(SubsetLabel.of(m, I))),
                                FQSymElem.F(descent_rep(SubsetLabel.of(n, J))),
                            )
                        )
                        for u in reps_i:
                            for v in reps_j:
                                got = project_pi(product_F(FQSymElem.F(u), FQSymElem.F(v)))
                                assert got == default


class TestDescentOracle:
    def test_shuffle_descents_match_a_shuffles_up_to_seven(self):
        report = fqsym_descent_oracle(7)
        assert report.passed, report.failures()
