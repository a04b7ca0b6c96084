"""Desk-scale FQSym on the F basis: the independent oracle for the A-shuffle laws.

`FQSymElem` is a `linear.LinComb` of permutations, which are tuples in
one-line notation.  The product is the shifted shuffle, the coproduct
de-standardizes prefixes and suffixes, and the projection to QSym reads off
descent sets.
"""

from __future__ import annotations

from operator import index

from .compositions import (
    comp_of_set,
    descent_set,
    shifted_shuffle,
    standardize,
)
from .linear import LinComb, extend, extend2
from .qsym import QSymElem

Word = tuple[int, ...]


def _check_permutation(word: Word) -> Word:
    word = tuple(map(index, word))
    if sorted(word) != list(range(1, len(word) + 1)):
        raise ValueError(f"{word} is not a permutation in one-line notation")
    return word


class FQSymElem(LinComb):
    """Linear combination of F_w over permutation words."""

    __slots__ = ()
    basis = "F"
    _key = staticmethod(_check_permutation)

    @classmethod
    def F(cls, word: Word) -> "FQSymElem":
        return cls({tuple(word): 1})

    def _label(self, word: Word) -> str:
        return f"F{''.join(map(str, word)) or 'e'}"

    def __mul__(self, other):
        return product_F(self, other) if isinstance(other, FQSymElem) else self.scale(other)


def product_F(x: FQSymElem, y: FQSymElem) -> FQSymElem:
    """F_u F_v = sum of F_w over the shuffle of u with the shifted v."""
    terms = extend2(x.terms, y.terms, lambda u, v: shifted_shuffle(u, v, len(u)).items())
    return FQSymElem()._with_terms(terms)


def coproduct_F(word: Word) -> list[tuple[Word, Word]]:
    """The n+1 standardized prefix/suffix splits of F_w."""
    word = _check_permutation(word)
    n = len(word)
    return [
        (standardize(word[:k]), standardize(word[k:])) for k in range(n + 1)
    ]


def coproduct(x: FQSymElem) -> dict:
    return extend(x.terms.items(), lambda word: ((pair, 1) for pair in coproduct_F(word)))


def project_pi(x: FQSymElem) -> QSymElem:
    """The Hopf surjection onto QSym: F_w to L indexed by the descent set."""
    terms = extend(x.terms.items(), lambda word: ((comp_of_set(descent_set(word)), 1),))
    return QSymElem("L")._with_terms(terms)
