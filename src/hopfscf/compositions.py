"""Compositions, subset labels, run decompositions and shuffles.

Compositions of n are identified with subsets of [n-1] = {1, ..., n-1}
through partial sums; every basis of QSym/NSym used elsewhere is labelled by
one or the other.  Subsets are stored as bit sets over a bounded ambient.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from operator import index

# Largest supported degree: subsets carry at most MAX_AMBIENT - 1 split points.
# Exceeding the bound raises AmbientBoundError; desk-scale checks sit far below it.
MAX_AMBIENT = 64


class AmbientBoundError(ValueError):
    """Ambient size exceeds the supported bit-set bound."""


def check_ambient(n: int) -> int:
    """n, refused with AmbientBoundError past the bound before any work."""
    if n > MAX_AMBIENT:
        raise AmbientBoundError(f"ambient {n} exceeds supported bound {MAX_AMBIENT}")
    return n


class Composition(tuple):
    """A finite sequence of positive integers; one already built is kept as it is."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Composition":
        if type(parts) is cls:
            return parts
        parts = tuple(map(index, parts))
        if any(p < 1 for p in parts):
            raise ValueError(f"composition parts must be positive, got {parts}")
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)

    def reverse(self) -> "Composition":
        return Composition(self[::-1])

    def concat(self, other: "Composition") -> "Composition":
        return Composition(tuple(self) + tuple(other))

    def partition(self) -> tuple[int, ...]:
        """Parts rearranged weakly decreasing."""
        return tuple(sorted(self, reverse=True))

    def __repr__(self) -> str:
        return f"({','.join(str(p) for p in self)})"


EMPTY_COMPOSITION = Composition()


def mask_of(members: Iterable[int]) -> int:
    """Bit mask for a set of positive integers (element i at bit i-1)."""
    mask = 0
    for i in members:
        if i < 1:
            raise ValueError(f"subset elements must be positive, got {i}")
        mask |= 1 << (i - 1)
    return mask


def members_of(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


@dataclass(frozen=True, order=True)
class SubsetLabel:
    """A subset of [ambient - 1] carried with its ambient size.

    Two labels are equal only when both the ambient and the members agree;
    the same member set in different ambients labels different compositions.
    """

    ambient: int
    mask: int = 0

    def __post_init__(self) -> None:
        if index(self.ambient) < 0:
            raise ValueError(f"ambient must be nonnegative, got {self.ambient}")
        check_ambient(self.ambient)
        limit = 1 << max(self.ambient - 1, 0) if self.ambient >= 1 else 1
        if self.mask < 0 or self.mask >= limit:
            raise ValueError(
                f"members {members_of(self.mask)} not contained in [{self.ambient - 1}]"
            )

    @classmethod
    def of(cls, ambient: int, members: Iterable[int] = ()) -> "SubsetLabel":
        return cls(ambient, mask_of(members))

    @property
    def members(self) -> tuple[int, ...]:
        return members_of(self.mask)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def contains(self, i: int) -> bool:
        return i >= 1 and bool(self.mask >> (i - 1) & 1)

    def complement(self) -> "SubsetLabel":
        full = (1 << (self.ambient - 1)) - 1 if self.ambient >= 1 else 0
        return SubsetLabel(self.ambient, full ^ self.mask)

    def __repr__(self) -> str:
        return f"{{{','.join(str(i) for i in self.members)}}}<{self.ambient}>"


def comp_of_set(label: SubsetLabel) -> Composition:
    """The composition of n = ambient with partial sums at the members.  The
    gaps of a valid label are positive, so they go into the Composition
    unchecked."""
    n, mask = label.ambient, label.mask
    if n == 0:
        return EMPTY_COMPOSITION
    parts = []
    prev = 0
    while mask:
        low = mask & -mask
        point = low.bit_length()
        parts.append(point - prev)
        prev = point
        mask ^= low
    parts.append(n - prev)
    return tuple.__new__(Composition, parts)


def set_of_comp(alpha: Composition | Iterable[int]) -> SubsetLabel:
    """Inverse of comp_of_set: partial sums of alpha except the last."""
    alpha = Composition(alpha)
    total = 0
    points = []
    for p in alpha[:-1]:
        total += p
        points.append(total)
    return SubsetLabel.of(alpha.size, points)


def complement(alpha: Composition | Iterable[int]) -> Composition:
    """comp([n-1] minus set(alpha)); an involution on compositions of n."""
    return comp_of_set(set_of_comp(alpha).complement())


def near_concat(alpha: Composition | Iterable[int], beta: Composition | Iterable[int]) -> Composition:
    """Concatenation with the boundary parts fused."""
    alpha, beta = Composition(alpha), Composition(beta)
    if not alpha:
        return beta
    if not beta:
        return alpha
    return Composition(alpha[:-1] + (alpha[-1] + beta[0],) + beta[1:])


def iter_submasks(mask: int):
    """All submasks of mask, including 0 and mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def compositions_of(n: int):
    """All compositions of n, ordered by their subset mask."""
    if n == 0:
        yield EMPTY_COMPOSITION
        return
    full = (1 << (n - 1)) - 1
    for mask in range(full + 1):
        yield comp_of_set(SubsetLabel(n, mask))


def subsets_of(n: int):
    """Every subset of [n-1] as a sorted tuple, by size, then lexicographically."""
    for r in range(max(n, 1)):
        yield from itertools.combinations(range(1, n), r)


def run_decomposition(members: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Maximally connected subsets (runs), ordered by their minimum."""
    elems = sorted(set(members))
    runs: list[list[int]] = []
    for x in elems:
        if runs and runs[-1][-1] == x - 1:
            runs[-1].append(x)
        else:
            runs.append([x])
    return tuple(tuple(r) for r in runs)


def runs_composition(members: Iterable[int]) -> Composition:
    """Run lengths as a composition, ordered by run minimum."""
    return Composition(len(r) for r in run_decomposition(members))


def run_maxima(mask: int, k: int) -> int:
    """The run maxima of a subset of [k] given as a mask, k removed."""
    return mask & ~(mask >> 1) & ((1 << k) - 1) >> 1


def run_markers(members: Iterable[int], k: int) -> tuple[SubsetLabel, SubsetLabel, SubsetLabel]:
    """(c1, c2, c) for a subset A of [k]: run maxima of A, of its complement
    in [k], both with k removed, and their disjoint union."""
    a = set(members)
    if any(x < 1 or x > k for x in a):
        raise ValueError(f"subset {sorted(a)} not contained in [{k}]")
    amask = mask_of(a)
    c1 = run_maxima(amask, k)
    c2 = run_maxima(((1 << k) - 1) ^ amask, k)
    return SubsetLabel(k, c1), SubsetLabel(k, c2), SubsetLabel(k, c1 | c2)


def _select(sorted_pool: Sequence[int], positions: Iterable[int]) -> set[int]:
    # positions are 1-based ranks into the ascending pool
    return {sorted_pool[i - 1] for i in positions}


def preshuffle(I: SubsetLabel, J: SubsetLabel, A: Iterable[int], m: int, n: int) -> SubsetLabel:
    """The A-preshuffle: ranks I read off the complement of A, ranks J read
    off A, both inside [m+n], reinterpreted as a subset of [m+n-1]."""
    if I.ambient != m or J.ambient != n:
        raise ValueError(f"expected I in ambient {m} and J in ambient {n}")
    a = sorted(set(A))
    if len(a) != n:
        raise ValueError(f"selector A must have size n={n}, got {a}")
    if a and (a[0] < 1 or a[-1] > m + n):
        raise ValueError(f"selector A={a} not contained in [{m + n}]")
    ac = sorted(set(range(1, m + n + 1)) - set(a))
    picked = _select(ac, I.members) | _select(a, J.members)
    return SubsetLabel.of(m + n, picked)


def a_shuffle(I: SubsetLabel, J: SubsetLabel, A: Iterable[int], m: int, n: int) -> SubsetLabel:
    """The A-shuffle c1(A) joined with the preshuffle stripped of c(A)."""
    pre = preshuffle(I, J, A, m, n)
    c1, _, c = run_markers(A, m + n)
    return SubsetLabel(m + n, c1.mask | (pre.mask & ~c.mask))


def _interleavings(u: tuple, v: tuple, fuse: bool) -> Counter:
    """Multiset of the words built by taking, at each step, the next entry of
    u or the next entry of v, or, when fuse, the sum of the two."""
    out: Counter = Counter()

    def rec(i: int, j: int, prefix: tuple) -> None:
        if i == len(u) and j == len(v):
            out[prefix] += 1
            return
        if i < len(u):
            rec(i + 1, j, prefix + (u[i],))
        if j < len(v):
            rec(i, j + 1, prefix + (v[j],))
        if fuse and i < len(u) and j < len(v):
            rec(i + 1, j + 1, prefix + (u[i] + v[j],))

    rec(0, 0, ())
    return out


def overlapping_shuffles(alpha: Composition | Iterable[int], beta: Composition | Iterable[int]) -> Counter:
    """Multiset of weights of all overlapping shuffles of alpha and beta: at
    each step take the next part of alpha, the next part of beta, or fuse the
    two next parts into one."""
    words = _interleavings(Composition(alpha), Composition(beta), fuse=True)
    return Counter({Composition(w): count for w, count in words.items()})
