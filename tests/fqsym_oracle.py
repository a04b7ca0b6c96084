"""Desk-scale FQSym on the F basis: the independent oracle for the A-shuffle laws.

The paper's Hopf algebra is the sum of the scf(S_n), which is QSym; FQSym is
not part of it.  It is kept here because its Hopf surjection onto QSym
(F_w to L indexed by the descent set of w) gives a second route to QSym's
L x L product: shuffle two permutations, read off the descent sets.

`FQSymElem` is a `linear.LinComb` of permutations, which are tuples in
one-line notation.  The product is the shifted shuffle, the coproduct
de-standardizes prefixes and suffixes, and the projection to QSym reads off
descent sets.  `fqsym_descent_oracle` sweeps that second route against the
A-shuffle masks that qsym's L x L product reads.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Sequence
from operator import index

from hopfscf import qsym
from hopfscf.compositions import SubsetLabel, _interleavings, comp_of_set
from hopfscf.groupscf import CheckReport, check
from hopfscf.linear import LinComb, extend, extend2
from hopfscf.qsym import QSymElem
from hopfscf.verify import _subset_pairs, _triangle

Word = tuple[int, ...]

# ---------------------------------------------------------------------------
# Words over a totally ordered alphabet


def descent_set(word: Sequence[int]) -> SubsetLabel:
    """Positions i with word[i] > word[i+1] (1-based), in ambient len(word)."""
    return SubsetLabel.of(
        len(word), (i for i in range(1, len(word)) if word[i - 1] > word[i])
    )


def standardize(word: Sequence[int]) -> tuple[int, ...]:
    """The permutation with the same relative order; ties broken left to right."""
    order = sorted(range(len(word)), key=lambda i: (word[i], i))
    std = [0] * len(word)
    for rank, i in enumerate(order, start=1):
        std[i] = rank
    return tuple(std)


def shuffle_words(u: Sequence[int], v: Sequence[int]) -> Counter:
    """Multiset of all interleavings of u and v (binom(|u|+|v|, |v|) total)."""
    return _interleavings(tuple(u), tuple(v), fuse=False)


def shifted_shuffle(u: Sequence[int], v: Sequence[int], m: int) -> Counter:
    """Shuffle of u with v shifted up by m."""
    return shuffle_words(u, tuple(x + m for x in v))


def descent_rep(I: SubsetLabel) -> tuple[int, ...]:
    """Lexicographically smallest permutation of [ambient] with descent set I:
    one block per part of comp(complement of I), each holding the next
    consecutive values in decreasing order."""
    tops = itertools.accumulate(comp_of_set(I.complement()), initial=0)
    return tuple(v for low, top in itertools.pairwise(tops) for v in range(top, low, -1))


# ---------------------------------------------------------------------------
# FQSym on the F basis


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


# ---------------------------------------------------------------------------
# The descent sweep


def fqsym_descent_oracle(max_total: int = 7) -> CheckReport:
    """Des multisets of shifted shuffles match the cached A-shuffle multisets
    that qsym's L x L product reads."""

    def fault(case):
        m, n, I, J = case
        I_lbl, J_lbl = SubsetLabel.of(m, I), SubsetLabel.of(n, J)
        words = shifted_shuffle(descent_rep(I_lbl), descent_rep(J_lbl), m).items()
        from_words = extend(words, lambda word: ((descent_set(word).mask, 1),))
        from_shuffles = dict(qsym._l_product_masks(m, n, I_lbl.mask, J_lbl.mask))
        if from_words != from_shuffles:
            return f"m={m} n={n} I={sorted(I)} J={sorted(J)}"

    cases = _subset_pairs(_triangle(max_total))
    return CheckReport([check("descents of shifted shuffles = A-shuffles", cases, fault)])
