from fractions import Fraction
from math import factorial

import pytest

from hopfscf.compositions import compositions_of
from hopfscf.nsym import Bhat, H, convert
from hopfscf.scalars import Q, T, rational
from hopfscf.symring import (
    Partition,
    SymElem,
    comm,
    generating_set_rank,
    partitions_of,
)


def rearrangement_count(lam: Partition) -> Fraction:
    """Number of compositions rearranging to lam: len(lam)! / prod m_i!."""
    out = factorial(len(lam))
    for part in set(lam):
        out //= factorial(lam.count(part))
    return Fraction(out)


class TestPartition:
    def test_sorting(self):
        assert Partition((1, 3, 2)) == (3, 2, 1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Partition((0, 1))

    def test_partitions_of(self):
        assert list(partitions_of(4)) == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]
        # partition numbers p(0..8)
        assert [len(list(partitions_of(n))) for n in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]


class TestRearrangementCount:
    def test_small_values(self):
        assert rearrangement_count(Partition((2, 1))) == 2
        assert rearrangement_count(Partition((1, 1, 1))) == 1
        assert rearrangement_count(Partition((3, 2, 2, 1))) == 12

    def test_counts_compositions_by_enumeration(self):
        for n in range(0, 11):
            by_partition: dict[Partition, int] = {}
            for alpha in compositions_of(n):
                lam = Partition(alpha.partition())
                by_partition[lam] = by_partition.get(lam, 0) + 1
            for lam in partitions_of(n):
                assert rearrangement_count(lam) == by_partition[lam]


class TestComm:
    def test_identifies_rearrangements(self):
        assert comm(H((2, 1))) == comm(H((1, 2))) == SymElem.h((2, 1))

    def test_multiplicative_on_H(self):
        for total in range(0, 7):
            for m in range(0, total + 1):
                for a in compositions_of(m):
                    for b in compositions_of(total - m):
                        assert comm(H(a) * H(b)) == comm(H(a)) * comm(H(b))

    def test_bhat_image_closed_form(self):
        # comm(Bhat(q,t)_n) = sum over partitions of q^{n-l} t^{l-1} C_lam h_lam
        for n in range(1, 7):
            got = comm(convert(Bhat((n,)), "H"))
            expected = SymElem(
                {
                    lam: Q ** (n - lam.length)
                    * T ** (lam.length - 1)
                    * rational(rearrangement_count(lam))
                    for lam in partitions_of(n)
                }
            )
            assert got == expected

    def test_bhat_products_commute_with_sorting(self):
        # images of Bhat(a,b)_alpha depend only on the sorted part multiset
        for n in range(1, 6):
            images = {}
            for alpha in compositions_of(n):
                img = comm(convert(Bhat(alpha), "H"))
                key = alpha.partition()
                if key in images:
                    assert images[key] == img, alpha
                else:
                    images[key] = img

    def test_bhat_image_is_multiplicative_symbolically(self):
        # the product of the part images equals the image of the whole
        # partition, with symbolic q, t coefficients, up to degree 8
        part_image = {}
        for n in range(1, 9):
            part_image[n] = comm(convert(Bhat((n,)), "H"))
        for n in range(1, 9):
            for lam in partitions_of(n):
                prod = SymElem.h(())
                for part in lam:
                    prod = prod * part_image[part]
                assert prod == comm(convert(Bhat(tuple(lam)), "H")), lam


class TestRanks:
    def test_h_recovered_at_one_zero(self):
        report = generating_set_rank(1, 0, 5)
        assert report["full_rank"]

    @pytest.mark.parametrize("a,b", [(2, 3), (1, 1)])
    def test_full_rank_small(self, a, b):
        report = generating_set_rank(a, b, 6)
        assert report["full_rank"], report

    def test_zero_a_rejected(self):
        with pytest.raises(ValueError):
            generating_set_rank(0, 1, 3)
