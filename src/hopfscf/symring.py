"""Minimal Sym in the h basis: `SymElem`, a `linear.LinComb` of partitions; the
abelianization comm and generating-set ranks."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import index

from .compositions import compositions_of
from .linear import LinComb, extend, extend2
from .nsym import Bhat, NSymElem, convert, specialize
from .scalars import _rational


class Partition(tuple):
    """Weakly decreasing positive parts."""

    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...] | list[int] = ()) -> "Partition":
        parts = tuple(sorted(map(index, parts), reverse=True))
        if any(p < 1 for p in parts):
            raise ValueError(f"partition parts must be positive, got {parts}")
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)


def partitions_of(n: int):
    """All partitions of n, largest part first."""

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield Partition(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(n, n, ())


class SymElem(LinComb):
    """Element of Sym written in the h basis, keyed by partition."""

    __slots__ = ()
    basis = "h"
    _key = Partition

    @classmethod
    def h(cls, parts) -> "SymElem":
        return cls({Partition(parts): 1})

    def _label(self, lam: Partition) -> str:
        return f"h{tuple(lam)}"

    def __mul__(self, other):
        if not isinstance(other, SymElem):
            return self.scale(other)
        terms = extend2(self.terms, other.terms, lambda a, b: ((Partition(a + b), 1),))
        return self._with_terms(terms)


def comm(x: NSymElem) -> SymElem:
    """The surjection onto Sym: H_alpha to h_{lambda(alpha)}, linearly."""
    terms = extend(convert(x, "H").terms.items(), lambda comp: ((Partition(comp.partition()), 1),))
    return SymElem()._with_terms(terms)


def _rank_of_rational_rows(rows: list[list[Fraction]]) -> int:
    """Exact rank over Q by fraction-free elimination on cleared rows."""
    mat = []
    for row in rows:
        denom = lcm(*(x.denominator for x in row))
        mat.append([x.numerator * (denom // x.denominator) for x in row])
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        lead = mat[rank][col]
        for r in range(rank + 1, len(mat)):
            if mat[r][col]:
                factor = mat[r][col]
                mat[r] = [lead * a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _bhat_numeric(parts, a: Fraction, b: Fraction) -> NSymElem:
    return specialize(convert(Bhat(parts), "H"), a, b)


def generating_set_rank(a, b, n_max: int) -> dict:
    """Rank sweep for the degree-n spans of Bhat(a,b) products.

    For NSym_n the products over compositions of n are the Bhat(a,b)_alpha
    themselves (the basis is multiplicative); their H-expansions should have
    rank 2^{n-1}.  For Sym_n the products of comm images over partitions
    should have rank p(n).
    """
    a, b = _rational(a), _rational(b)
    if a == 0:
        raise ValueError("a must be nonzero: the triangular diagonal vanishes at a = 0")
    report: dict = {"a": str(a), "b": str(b), "degrees": []}
    for n in range(1, n_max + 1):
        comps = list(compositions_of(n))
        expansions = (_bhat_numeric(alpha, a, b).terms for alpha in comps)
        nsym_rank = _rank_of_rational_rows([[t.get(beta, 0) for beta in comps] for t in expansions])

        parts_n = list(partitions_of(n))
        sym_rows = []
        for lam in parts_n:
            prod = SymElem({Partition(()): 1})
            for part in lam:
                prod = prod * comm(_bhat_numeric((part,), a, b))
            sym_rows.append([prod.terms.get(mu, 0) for mu in parts_n])
        sym_rank = _rank_of_rational_rows(sym_rows)

        report["degrees"].append(
            {
                "n": n,
                "nsym_rank": nsym_rank,
                "nsym_expected": 1 << (n - 1),
                "sym_rank": sym_rank,
                "sym_expected": len(parts_n),
            }
        )
    report["full_rank"] = all(
        d["nsym_rank"] == d["nsym_expected"] and d["sym_rank"] == d["sym_expected"]
        for d in report["degrees"]
    )
    return report
