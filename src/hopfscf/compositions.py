"""Compositions, subset labels, selectors as masks, and shuffles.

Compositions of n are identified with subsets of [n-1] = {1, ..., n-1}
through partial sums; every basis of QSym/NSym used elsewhere is labelled by
one or the other.  Subsets are stored as bit sets over a bounded ambient.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterable
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


def _full_mask(n: int) -> int:
    """The mask of [n-1], empty for n <= 1."""
    return (1 << (n - 1)) - 1 if n >= 1 else 0


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
        if index(self.mask) < 0:
            raise ValueError(f"mask must be nonnegative, got {self.mask}")
        if self.mask > _full_mask(self.ambient):
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

    def complement(self) -> "SubsetLabel":
        return SubsetLabel(self.ambient, _full_mask(self.ambient) ^ self.mask)

    def __repr__(self) -> str:
        return f"{{{','.join(str(i) for i in self.members)}}}<{self.ambient}>"


def comp_of_set(label: SubsetLabel) -> Composition:
    """The composition of n = ambient with partial sums at the members."""
    return comp_of_mask(label.ambient, label.mask)


def comp_of_mask(n: int, mask: int) -> Composition:
    """comp_of_set of a subset of [n-1] given as a mask.  Its gaps are
    positive, so they go into the Composition unchecked."""
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
    for mask in range(_full_mask(n) + 1):
        yield comp_of_set(SubsetLabel(n, mask))


def subsets_of(n: int):
    """Every subset of [n-1] as a sorted tuple, by size, then lexicographically."""
    for r in range(max(n, 1)):
        yield from itertools.combinations(range(1, n), r)


def run_maxima(mask: int, k: int) -> int:
    """The run maxima of a subset of [k] given as a mask, k removed."""
    return mask & ~(mask >> 1) & ((1 << k) - 1) >> 1


def selectors(k: int, n: int):
    """Every size-n subset A of [k] as a mask, in itertools.combinations order:
    the one enumerator of every selector loop (nsym, and qsym's L product)."""
    return (sum(map((1).__lshift__, A)) for A in itertools.combinations(range(k), n))


def members_at(pool: int, ranks: int) -> int:
    """The mask of the members of pool at the 1-based ranks in ranks."""
    out = 0
    while ranks and pool:
        low = pool & -pool
        if ranks & 1:
            out |= low
        ranks >>= 1
        pool ^= low
    return out


def ranks_within(sub: int, pool: int) -> int:
    """The mask of the 1-based ranks, within the members of pool, of sub's members."""
    out, bit = 0, 1
    while pool:
        low = pool & -pool
        if sub & low:
            out |= bit
        bit <<= 1
        pool ^= low
    return out


def selector_masks(imask: int, jmask: int, amask: int, k: int) -> tuple[int, int, int]:
    """(preshuffle, c1, c2) of the selector A inside [k], all as masks: ranks I
    read off the complement of A joined with ranks J read off A, and the run
    maxima of A and of its complement, both with k removed."""
    rest = ((1 << k) - 1) ^ amask
    pre = members_at(rest, imask) | members_at(amask, jmask)
    return pre, run_maxima(amask, k), run_maxima(rest, k)


def run_markers(members: Iterable[int], k: int) -> tuple[SubsetLabel, SubsetLabel, SubsetLabel]:
    """(c1, c2, c) for a subset A of [k]: run maxima of A, of its complement
    in [k], both with k removed, and their disjoint union."""
    a = set(members)
    if any(x < 1 or x > k for x in a):
        raise ValueError(f"subset {sorted(a)} not contained in [{k}]")
    _, c1, c2 = selector_masks(0, 0, mask_of(a), k)
    return SubsetLabel(k, c1), SubsetLabel(k, c2), SubsetLabel(k, c1 | c2)


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
    pre, _, _ = selector_masks(I.mask, J.mask, mask_of(a), m + n)
    return SubsetLabel(m + n, pre)


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
