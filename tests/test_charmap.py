from fractions import Fraction

import pytest

import hopfscf.qsym as qsym
from hopfscf.charmap import ScfElem, ch, verify_diagrams
from hopfscf.compositions import Composition, SubsetLabel
from hopfscf.groupscf import GroupSpec, dot_chi, kappa
from hopfscf.qsym import L, QSymElem


class TestScfElem:
    def test_label_degree_consistency(self):
        with pytest.raises(ValueError):
            ScfElem(2, {(3, "kappa", SubsetLabel.of(4, {1})): Fraction(1)})

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
        gapped = kappa(GroupSpec(2, (1, 3)), {1})
        for degree in (3, 4):
            with pytest.raises(ValueError, match="expects a standard group"):
                ScfElem.from_dense(gapped, degree)
        trivial = kappa(GroupSpec.standard(2, 0), set())
        with pytest.raises(ValueError, match="degree must be nonnegative, got -1"):
            ScfElem.from_dense(trivial, -1)

    def test_dense_round_trip_chi(self):
        nu, degree = 3, 4
        phi = dot_chi(GroupSpec.standard(nu, degree), {2})
        elem = ScfElem.chi_dot(nu, degree, {2})
        assert elem.to_dense(degree) == phi


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
