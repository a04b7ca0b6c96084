import random
from collections import Counter
from fractions import Fraction

import pytest

import hopfscf.groupscf as groupscf
import hopfscf.qsym as qsym
from hopfscf.charmap import ScfElem, ch, verify_diagrams
from hopfscf.compositions import Composition, SubsetLabel, subsets_of
from hopfscf.groupscf import (
    ClassFunction,
    GroupSpec,
    _superclass_nums,
    dot_chi,
    expand_kappa,
    kappa,
    support_labels,
    support_masks,
    unit,
)
from hopfscf.qsym import L, QSymElem


class TestScfElem:
    def test_label_degree_consistency(self):
        with pytest.raises(ValueError):
            ScfElem(2, {(3, "kappa", SubsetLabel.of(4, {1})): Fraction(1)})

    def test_a_key_stores_its_degree_as_an_int(self):
        x = ScfElem(2, {(True, "kappa", 0): 1})
        lifted = ScfElem.from_dense(kappa(GroupSpec.standard(2, 1), set()), True)
        for elem in (x, lifted):
            [(degree, _, _)] = elem.terms
            assert type(degree) is int and degree == 1
            assert repr(elem) == "(1)*kappa[] (deg 1)"

    @pytest.mark.parametrize("nu", [1, 0, -2])
    def test_nu_below_two_refused(self, nu):
        with pytest.raises(ValueError, match=f"nu must be at least 2, got {nu}"):
            ScfElem.kappa(nu, 3, {1})
        with pytest.raises(ValueError):
            ScfElem(nu)

    def test_from_dense_round_trip(self):
        for nu in (2, 3):
            for degree in (0, 1, 3):
                spec = GroupSpec.standard(nu, degree)
                phi = kappa(spec, {1} if degree >= 2 else set())
                lifted = ScfElem.from_dense(phi, degree)
                assert lifted.to_dense(degree) == phi

    def test_from_dense_refuses_a_nonstandard_spec_or_degree(self):
        phi = kappa(GroupSpec.standard(2, 3), {1})
        for degree in (2, 4):
            with pytest.raises(ValueError, match="expects a standard group"):
                ScfElem.from_dense(phi, degree)
        for labels in [(1, 3), (2, 3)]:
            gapped = kappa(GroupSpec(2, labels), {3})
            for degree in (3, 4):
                with pytest.raises(ValueError, match="expects a standard group"):
                    ScfElem.from_dense(gapped, degree)
        # tuple(range(1, -1)) == (), the trivial group's index set
        trivial = kappa(GroupSpec.standard(2, 0), set())
        with pytest.raises(ValueError, match="degree must be nonnegative, got -1"):
            ScfElem.from_dense(trivial, -1)

    def test_dense_round_trip_chi(self):
        nu, degree = 3, 4
        phi = dot_chi(GroupSpec.standard(nu, degree), {2})
        elem = ScfElem.chi_dot(nu, degree, {2})
        assert elem.to_dense(degree) == phi


def random_superclass_function(rng: random.Random, nu: int, n: int) -> ClassFunction:
    """A dense function on Q_n(nu), constant on superclasses, with some zero
    supports and a random denominator."""
    spec = GroupSpec.standard(nu, n)
    by_mask = [rng.choice((0, rng.randint(-6, 6))) for _ in range(1 << spec.rank)]
    values = map(by_mask.__getitem__, support_masks(nu, spec.rank))
    return ClassFunction(spec, values, rng.randint(1, 12))


class TestDenseToSymbolic:
    @pytest.mark.parametrize("nu", [2, 3, 5])
    def test_expand_kappa_is_the_fraction_view_of_superclass_nums(self, nu):
        rng = random.Random(10 + nu)
        for n in range(6):
            phi = random_superclass_function(rng, nu, n)
            labels = support_labels(phi.spec)
            nums = _superclass_nums(phi).items()
            view = [(labels[s], Fraction(v, phi.den)) for s, v in nums if v]
            assert list(expand_kappa(phi).items()) == view

    @pytest.mark.parametrize("nu", [2, 3, 5])
    def test_dense_lifts_store_an_int_exactly_where_integral(self, nu):
        rng = random.Random(20 + nu)
        kinds = set()
        for n in range(6):
            for _ in range(4):
                phi = random_superclass_function(rng, nu, n)
                labels = support_labels(phi.spec)
                nums = _superclass_nums(phi).items()
                view = {labels[s]: Fraction(v, phi.den) for s, v in nums if v}
                expanded = expand_kappa(phi)
                lifted = {
                    labels[mask]: c for (_, _, mask), c in ScfElem.from_dense(phi, n).terms.items()
                }
                assert expanded == lifted == view
                for c in [*expanded.values(), *lifted.values()]:
                    assert type(c) is (int if c.denominator == 1 else Fraction), c
                    kinds.add(type(c))
        assert kinds == {int, Fraction}

    def test_expand_kappa_keeps_only_the_nonzero_coordinates(self):
        # kappa_{1} * kappa_{1} on Q_4(2) lands in Q_8(2): 128 supports, 12 reached
        spec = GroupSpec.standard(2, 4)
        product = groupscf.product_m(kappa(spec, {1}), kappa(spec, {1}), 4, 4)
        want = {
            (1, 5): 2, (1, 4): 6, (1, 4, 6, 7): -2, (1, 4, 5, 6): -2, (1, 3): 12,
            (1, 3, 6, 7): -4, (1, 3, 5, 6): -4, (1, 3, 4, 5): -6, (1, 3, 4, 5, 6, 7): 2,
            (1, 2, 3, 4): -6, (1, 2, 3, 4, 6, 7): 2, (1, 2, 3, 4, 5, 6): 2,
        }
        got = expand_kappa(product)
        assert got == {frozenset(I): v for I, v in want.items()}
        for members in subsets_of(8):
            assert got.get(frozenset(members), 0) == want.get(members, 0)

    @pytest.mark.parametrize("nu", [2, 3, 5])
    def test_from_dense_of_kappa_is_the_kappa_element(self, nu):
        for n in range(5):
            for members in subsets_of(n):
                lifted = ScfElem.from_dense(kappa(GroupSpec.standard(nu, n), members), n)
                want = ScfElem.kappa(nu, n, members)
                assert lifted.terms == want.terms
                assert [type(c) for c in lifted.terms.values()] == [int]

    def test_every_route_refuses_a_function_off_the_superclasses_alike(self):
        phi = ClassFunction(GroupSpec.standard(3, 3), range(9), 1)
        routes = (
            _superclass_nums,
            expand_kappa,
            lambda f: ScfElem.from_dense(f, 3),
        )
        messages = set()
        for route in routes:
            with pytest.raises(ValueError, match="not a superclass function") as exc:
                route(phi)
            messages.add(str(exc.value))
        assert messages == {"not a superclass function: differs on cl_[2]"}


class TestCh:
    def test_chi_dot_to_fundamental(self):
        for nu in (2, 3):
            for n in range(0, 5):
                x = ScfElem.chi_dot(nu, n)
                assert ch(x) == qsym.convert(L((n,) if n else ()), "M")

    def test_kappa_empty_to_pi(self):
        for nu in (2, 3):
            x = ScfElem.kappa(nu, 5)
            expected = qsym.convert(QSymElem("Pi", {Composition((5,)): 1}, nu=nu), "M")
            assert ch(x) == expected

    def test_kappa_scaling(self):
        # kappa_{1,4} in degree 6 maps to (nu-1)^2 Pi_{(1,3,2)}
        for nu in (2, 3, 5):
            x = ScfElem.kappa(nu, 6, {1, 4})
            expected = qsym.convert(
                QSymElem("Pi", {Composition((1, 3, 2)): (nu - 1) ** 2}, nu=nu), "M"
            )
            assert ch(x) == expected

    def test_linear(self):
        nu = 2
        x = ScfElem.kappa(nu, 3, {1}).scale(2) + ScfElem.chi_dot(nu, 3, {2})
        assert ch(x) == ch(ScfElem.kappa(nu, 3, {1})).scale(2) + ch(
            ScfElem.chi_dot(nu, 3, {2})
        )

    def test_a_sparse_label_of_high_degree_costs_its_row(self):
        # L_{1^30} is M_{1^30}: a one-entry row, summed without touching the
        # 2^29 compositions of 30
        ones = Composition((1,) * 30)
        x = ScfElem.chi_dot(2, 30, range(1, 30))
        assert ch(x) == QSymElem("M", {ones: 1})
        y = x.scale(Fraction(1, 3)) + ScfElem.chi_dot(2, 2, {1})
        assert ch(y).terms == {ones: Fraction(1, 3), Composition((1, 1)): 1}

    def test_graded_injective_small(self):
        # images of the kappa basis stay linearly independent: convertible back
        for nu in (2, 3):
            for n in range(0, 5):
                import itertools

                labels = [
                    frozenset(c)
                    for r in range(max(n, 1))
                    for c in itertools.combinations(range(1, n), r)
                ]
                images = [ch(ScfElem.kappa(nu, n, lbl)) for lbl in labels]
                # pairwise distinct and nonzero is necessary; full rank follows
                # from the Pi -> M transition being invertible (tested in qsym)
                for img in images:
                    assert not img.is_zero()
                for i, a in enumerate(images):
                    for b in images[i + 1 :]:
                        assert not (a - b).is_zero()


class TestDiagrams:
    @pytest.mark.parametrize("nu,bound", [(2, 4), (3, 3)])
    def test_diagrams_small(self, nu, bound):
        report = verify_diagrams(nu, bound)
        assert report.passed, report.failures()

    @pytest.mark.parametrize("nu", [2, 3, 5])
    def test_degrees_zero_and_one_share_a_group_but_not_an_image(self, nu):
        # why the verifier's memo of ch images keys on the degree as well
        assert unit(nu).spec == GroupSpec.standard(nu, 0) == GroupSpec.standard(nu, 1)
        assert ch(ScfElem.from_dense(unit(nu), 0)) == QSymElem.unit("M")
        assert ch(ScfElem.from_dense(unit(nu), 1)) == QSymElem.basis_elem("M", (1,))

    @pytest.mark.parametrize("nu,bound", [(2, 4), (3, 3)])
    def test_each_distinct_dense_function_crosses_once(self, nu, bound, monkeypatch):
        # the basis functions and the coproduct factors go through the memo;
        # each product check maps its own product, kept alive so ids stay unique
        products, calls, real, lift = {}, Counter(), groupscf.product_m, ScfElem.from_dense

        def product_m(*args):
            out = real(*args)
            products[id(out)] = out
            return out

        def counted(cls, phi, degree):
            if id(phi) not in products:
                calls[degree, phi.spec, phi.nums, phi.den] += 1
            return lift(phi, degree)

        monkeypatch.setattr(groupscf, "product_m", product_m)
        monkeypatch.setattr(ScfElem, "from_dense", classmethod(counted))
        assert verify_diagrams(nu, bound).passed
        assert products and calls and set(calls.values()) == {1}
        # the unit factors of the k = 0 and k = n slices are mapped in degree 0 and 1
        assert (0, GroupSpec.standard(nu, 0), (1,), 1) in calls
        assert (1, GroupSpec.standard(nu, 1), (1,), 1) in calls
