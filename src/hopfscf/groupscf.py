"""Dense exact computation on Q_S(nu), the direct sum of copies of C_nu.

Superclasses, supercharacters, the graded product m_A / m and coproduct
delta_k / delta on superclass functions, and the Hall inner product, all
evaluated on actual group elements.  Functions are stored densely over a
mixed-radix enumeration of (g_s)_{s in S}, as int numerators over one
positive common denominator, gcd-reduced so that equality stays exact.

The dense kernels are gathers, and for m and the tensor embedding a
scatter, plus integer multiplies.  Their gather tables (support masks,
inverse and restriction) are each a sum of per-coordinate terms, so
`_coordinate_sum` builds them by outer sums over the coordinates, without
visiting elements one by one.
The support-mask, inverse and restriction tables are built on first use per
group shape and kept as `array`s in bounded LRU caches.  So is the plan of
the product m per shape, `product_plan`: the m_A terms summed over every A,
stored by (phi index, psi index) pair as the elements that pair reaches with
their weights, and sums that cancel dropped, so that m scatters from the
pairs where both operands are nonzero and skips the rest.  `_plan` builds it
in one transfer over the selector's slots, top down, that merges the equal
partial terms of different A as they meet; with each slot's side fixed, it
builds the plan of one m_A for `product_mA` on each call.  `cache_info()` on
each cached function reports its hits and misses.  `tensor_embed` scatters
through the restriction tables of its two factors, and builds no table.
A Hall Gram row of `verify_axioms` reads its function only where it is
nonzero, and the sublattice that the lattice oracle walks is cached per group.

A dense op pays its bookkeeping once per group shape: `GroupSpec.standard`
takes its spec from one bounded interning cache keyed on the degree and the
bound (read on every call, so a lowered bound still refuses), the operand
checks compare index sets with [degree - 1] and build no spec, and the
weights `_off_weights` of m are cached per (nu, degree).
`expand_kappa` reads a function's coordinates as ints where integral and
Fractions otherwise, the normal form of `scalars._rational`.  The superclass
basis is interned per (group, label): `kappa` and `chi` check their label on
every call and then read a bounded cache of kappa_I and chi^I, and `one` is
cached per group.  `dot_chi` shares its chi's numerators, the left factors
kappa_L of `coproduct_k` are read from the kappa cache, and the unit factors
are the interned `one` of the trivial group.  Every cached function is shared
and never to be modified.  `coproduct` and `coproduct_k` read the group bound
once per call and intern each slice's specs under it.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, index, mul, sub

from .compositions import MAX_AMBIENT, mask_of, subsets_of
from .scalars import _exact_nu, _ratio, _rational

DEFAULT_MAX_GROUP_ORDER = 1 << 20
MAX_GROUP_ENV = "HOPF_SCF_MAX_GROUP"


class GroupBoundError(ValueError):
    """Requested group exceeds the enumeration bound."""


def max_group_order() -> int:
    raw = os.environ.get(MAX_GROUP_ENV)
    if raw is None:
        return DEFAULT_MAX_GROUP_ORDER
    try:
        return int(raw)
    except ValueError as exc:
        raise GroupBoundError(f"{MAX_GROUP_ENV} must be an integer, got {raw!r}") from exc


def _too_large(nu: int, rank: int, bound: int) -> GroupBoundError:
    return GroupBoundError(f"group order {nu}^{rank} exceeds bound {bound}; raise {MAX_GROUP_ENV} to override")


@dataclass(frozen=True)
class GroupSpec:
    """Q_S(nu): one copy of the cyclic group C_nu for each index in S."""

    nu: int
    index_set: tuple[int, ...]

    def __post_init__(self) -> None:
        _exact_nu(self.nu)
        if tuple(sorted(set(map(index, self.index_set)))) != self.index_set or any(
            i < 1 for i in self.index_set
        ):
            raise ValueError(f"index set must be sorted positive integers, got {self.index_set}")
        if self.order > (bound := max_group_order()):
            raise _too_large(self.nu, len(self.index_set), bound)

    @classmethod
    def standard(cls, nu: int, degree: int) -> "GroupSpec":
        """Q_degree(nu) = Q_[degree-1](nu); degrees 0 and 1 are both trivial.

        One interned spec per shape and bound: the bound is read on every
        call, so lowering it refuses a shape built before."""
        return _standard_spec(nu, degree, max_group_order())

    @property
    def rank(self) -> int:
        return len(self.index_set)

    @property
    def order(self) -> int:
        return self.nu ** len(self.index_set)

    def elements(self):
        """All (g_s) tuples aligned with the sorted index set."""
        return itertools.product(range(self.nu), repeat=self.rank)

    def support_of(self, element: tuple[int, ...]) -> frozenset[int]:
        return frozenset(
            label for label, g in zip(self.index_set, element) if g != 0
        )


# The interning cache is typed, so a nu of 2.0 or True, equal to 2 and 1 as
# keys, misses the int's entry and is refused.
@lru_cache(maxsize=256, typed=True)
def _standard_spec(nu: int, degree: int, bound: int) -> GroupSpec:
    if (degree := index(degree)) < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    # A degree past the mask bound is refused before its index tuple is built:
    # nu >= 2, so past the bound's bit length the order exceeds the bound.
    if degree > MAX_AMBIENT and degree - 1 > bound.bit_length():
        raise _too_large(_exact_nu(nu), degree - 1, bound)
    return GroupSpec(nu, tuple(range(1, degree)))


def _is_standard(spec: GroupSpec, degree: int) -> bool:
    """Whether spec's index set is [degree - 1], that of Q_degree.  Its labels
    are sorted, distinct and positive, so they are [r] when the last is r."""
    if (degree := index(degree)) < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    labels = spec.index_set
    return len(labels) == max(degree - 1, 0) and (not labels or labels[-1] == len(labels))


class ClassFunction:
    """Exact rational-valued function on Q_S(nu), stored densely.

    `nums[i] / den` is the value at the i-th element; the pair is gcd-reduced
    with den > 0.  Given `den`, `values` are taken as int numerators over it.
    """

    __slots__ = ("spec", "nums", "den")

    def __init__(self, spec: GroupSpec, values, den: int | None = None):
        if den is None:
            nums, den = _over_common_denominator(values)
        else:
            nums = tuple(values)
            if not den:
                raise ZeroDivisionError("class function with denominator 0")
        if len(nums) != spec.order:
            raise ValueError(
                f"expected {spec.order} values for {spec}, got {len(nums)}"
            )
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = tuple(map(g.__rfloordiv__, nums))
            den //= g
        self.spec = spec
        self.nums = nums
        self.den = den

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The function as a tuple of Fractions, built on each read."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ClassFunction)
            and self.spec == other.spec
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.spec, self.nums, self.den))

    def _combine(self, other: "ClassFunction", op) -> "ClassFunction":
        _require_same_spec(self, other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        nums = map(op, map(a.__mul__, self.nums), map(b.__mul__, other.nums))
        return ClassFunction(self.spec, nums, den)

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        return self._combine(other, add)

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        return self._combine(other, sub)

    def scale(self, c) -> "ClassFunction":
        c = _rational(c)
        return ClassFunction(
            self.spec, map(c.numerator.__mul__, self.nums), self.den * c.denominator
        )

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __repr__(self) -> str:
        return f"ClassFunction({self.spec}, {self.values})"


def _over_common_denominator(values) -> tuple[tuple[int, ...], int]:
    fracs = [_rational(v) for v in values]
    den = lcm(*(f.denominator for f in fracs))
    return tuple(f.numerator * (den // f.denominator) for f in fracs), den


def _require_same_spec(a: ClassFunction, b: ClassFunction) -> None:
    if a.spec != b.spec:
        raise ValueError(f"class functions live on different groups: {a.spec} vs {b.spec}")


def _require_subset(I, S, what: str):
    I = frozenset(map(index, I))  # a label such as 2.0 raises TypeError
    if not I <= set(S):
        raise ValueError(f"{what} {sorted(I)} is not a subset of the index set {S}")
    return I


# ---------------------------------------------------------------------------
# Gather maps: index tables over the element enumeration, one per group shape.
# Each cached table is shared by every caller and must not be modified.


def _coordinate_sum(weights) -> list[int]:
    """Per element g, in enumeration order, sum_p weights[p][g_p].

    weights[p] lists the term of coordinate p at each of its nu values; the
    table grows by one outer sum per coordinate, the first coordinate slowest.
    """
    table = [0]
    for w in weights:
        table = [t + x for t in table for x in w]
    return table


@lru_cache(maxsize=64)
def support_masks(nu: int, rank: int) -> array:
    """Per element, the bitmask of the positions where it is not the identity."""
    rows = [[0] + [1 << p] * (nu - 1) for p in range(rank)]
    return array("I", _coordinate_sum(rows))


@lru_cache(maxsize=64)
def inverse_map(nu: int, rank: int) -> array:
    """Per element g, the index of g^{-1}; inverses negate componentwise."""
    rows = [[(-x) % nu * nu ** (rank - 1 - p) for x in range(nu)] for p in range(rank)]
    return array("I", _coordinate_sum(rows))


@lru_cache(maxsize=256)
def restriction_map(nu: int, rank: int, positions: tuple[int, ...]) -> array:
    """Per element h of the subgroup on `positions`, the index of h padded by
    identities in the rank-`rank` group."""
    rows = [[x * nu ** (rank - 1 - q) for x in range(nu)] for q in positions]
    return array("I", _coordinate_sum(rows))


# ---------------------------------------------------------------------------
# Superclass identifiers and supercharacters


# The superclass basis is interned per (group, label): each function below is
# built once and then shared, so it must not be modified.  1024 entries hold
# every label of Q_k for k <= 10 at one nu.
@lru_cache(maxsize=64)
def one(spec: GroupSpec) -> ClassFunction:
    return ClassFunction(spec, (1,) * spec.order, 1)


def unit(nu: int) -> ClassFunction:
    """The function 1 on the trivial group (degrees 0 and 1)."""
    return one(GroupSpec.standard(nu, 0))


def _mask_of(spec: GroupSpec, I) -> int:
    return sum(1 << p for p, label in enumerate(spec.index_set) if label in I)


def kappa(spec: GroupSpec, I) -> ClassFunction:
    """Indicator of the superclass cl_I: elements with support exactly I."""
    return _kappa(spec, _require_subset(I, spec.index_set, "superclass label"))


@lru_cache(maxsize=1024)
def _kappa(spec: GroupSpec, I: frozenset[int]) -> ClassFunction:
    want = _mask_of(spec, I)
    nums = [1 if s == want else 0 for s in support_masks(spec.nu, spec.rank)]
    return ClassFunction(spec, nums, 1)


def chi(spec: GroupSpec, I) -> ClassFunction:
    """Supercharacter: trivial factors on I, reg - 1 off I.

    The factor reg - 1 is nu - 1 at the identity and -1 elsewhere, so the
    value at g is (-1)^e (nu-1)^{|S \\ I| - e} with e the number of indices
    off I where g is not the identity.
    """
    return _chi(spec, _require_subset(I, spec.index_set, "supercharacter label"))


@lru_cache(maxsize=1024)
def _chi(spec: GroupSpec, I: frozenset[int]) -> ClassFunction:
    off = ~_mask_of(spec, I) & ((1 << spec.rank) - 1)
    weights, _ = _off_weights(spec.nu, off.bit_count() - 1)
    nums = [weights[(s & off).bit_count()] for s in support_masks(spec.nu, spec.rank)]
    return ClassFunction(spec, nums, 1)


def dot_chi(spec: GroupSpec, I) -> ClassFunction:
    """chi normalized by its value at the identity, (nu-1)^{|S \\ I|}.  It
    shares the interned chi's numerators: one of them is +-1, so no gcd
    reduction copies them."""
    I = _require_subset(I, spec.index_set, "supercharacter label")
    _, den = _off_weights(spec.nu, spec.rank - len(I) - 1)
    return ClassFunction(spec, _chi(spec, I).nums, den)


@lru_cache(maxsize=64)
def element_supports(spec: GroupSpec) -> tuple[frozenset[int], ...]:
    """Per element, its support as a set of labels, read element by element."""
    return tuple(map(spec.support_of, spec.elements()))


@lru_cache(maxsize=64)
def sublattice(spec: GroupSpec) -> tuple[frozenset[int], ...]:
    """The members Q_J of the sublattice {Q_J : J subset of S}, as their labels J."""
    return tuple(frozenset(c) for r in range(spec.rank + 1) for c in itertools.combinations(spec.index_set, r))


def lattice_superclass_oracle(spec: GroupSpec, I) -> ClassFunction:
    """Superclass of Q_I computed straight from the normal-subgroup lattice.

    Walks the sublattice {Q_J : J subset of S}, finds the members covered by
    Q_I, and keeps the elements of Q_I lying in none of them.  An element's
    membership depends only on its support, so each support is decided once.
    """
    I = _require_subset(I, spec.index_set, "lattice member")
    members = sublattice(spec)
    below = [M for M in members if M < I]
    # every P in below is already < I, so M < P alone says Q_M is not covered
    covered = [M for M in below if not any(M < P for P in below)]
    kept = {
        supp: int(supp <= I and not any(supp <= M for M in covered)) for supp in members
    }
    return ClassFunction(spec, map(kept.__getitem__, element_supports(spec)), 1)


# ---------------------------------------------------------------------------
# Restriction, tensor embedding, relabelling


def restrict(phi: ClassFunction, T) -> ClassFunction:
    """phi pulled back to the subgroup Q_T supported inside T."""
    spec = phi.spec
    T = _require_subset(T, spec.index_set, "restriction target")
    target = GroupSpec(spec.nu, tuple(sorted(T)))
    positions = tuple(spec.index_set.index(label) for label in target.index_set)
    gather = restriction_map(spec.nu, spec.rank, positions)
    return ClassFunction(target, map(phi.nums.__getitem__, gather), phi.den)


def tensor_embed(phi: ClassFunction, psi: ClassFunction) -> ClassFunction:
    """(phi tensor_S psi)(a, b) = phi(a) psi(b) on the disjoint union of indices,
    at the sum of the target indices of a and b under their restriction maps."""
    sa, sb = phi.spec, psi.spec
    if sa.nu != sb.nu:
        raise ValueError("tensor factors must share nu")
    if set(sa.index_set) & set(sb.index_set):
        raise ValueError(
            f"index sets {sa.index_set} and {sb.index_set} do not partition the target"
        )
    target = GroupSpec(sa.nu, tuple(sorted(sa.index_set + sb.index_set)))
    at = target.index_set.index
    ra, rb = (restriction_map(sa.nu, target.rank, tuple(map(at, s.index_set))) for s in (sa, sb))
    nums = [0] * target.order
    for i, x in zip(ra, phi.nums):
        for j, y in zip(rb, psi.nums):
            nums[i + j] = x * y
    return ClassFunction(target, nums, phi.den * psi.den)


def relabel(phi: ClassFunction, index_set) -> ClassFunction:
    """Pull back along the index standardization Q_S -> Q_{t+1}.

    Both enumerations are mixed-radix over the sorted index set, so only the
    labels change.
    """
    index_set = tuple(sorted(index_set))
    if len(index_set) != phi.spec.rank:
        raise ValueError(
            f"cannot relabel {phi.spec.rank} indices onto {index_set}"
        )
    return ClassFunction(GroupSpec(phi.spec.nu, index_set), phi.nums, phi.den)


# ---------------------------------------------------------------------------
# The product


def _check_product_operands(phi: ClassFunction, psi: ClassFunction, m: int, n: int) -> None:
    if psi.spec.nu != phi.spec.nu:
        raise ValueError("operands must share nu")
    if not (_is_standard(phi.spec, m) and _is_standard(psi.spec, n)):
        raise ValueError("operands must live on standard groups Q_m, Q_n")


def _scalar_product(phi: ClassFunction, psi: ClassFunction, m: int) -> ClassFunction:
    # one side lives in degree 0, where a function is a scalar
    scalar = phi.values[0] if m == 0 else psi.values[0]
    return (psi if m == 0 else phi).scale(scalar)


@lru_cache(maxsize=256)
def _off_weights(nu: int, k: int) -> tuple[tuple[int, ...], int]:
    """(-1/(nu-1))^e for e = 0..k+1 as numerators over one denominator: the
    weights of at most k + 1 factors (nu-1)^{-1}(reg - 1), as m_A on Q_k and
    a chi off k + 1 indices carry them."""
    return tuple((-1) ** e * (nu - 1) ** (k + 1 - e) for e in range(k + 2)), (nu - 1) ** (k + 1)


def product_mA(phi: ClassFunction, psi: ClassFunction, A, m: int, n: int) -> ClassFunction:
    """The A-indexed summand m_A of the graded product.

    phi must live on Q_m(nu) and psi on Q_n(nu) (standard index sets); A is a
    size-n subset of [m+n] saying which slots the psi side occupies.  m_A pads
    each side by (nu-1)^{-1}(reg - 1) on its top slot, places phi on the
    complement of A and psi on A, restricts away the run markers c and
    tensors on the marker factor: 1 on c1, (nu-1)^{-1}(reg - 1) on c2.  So
    m_A(phi, psi)(g) = phi(a) psi(b) (-1/(nu-1))^e, a and b indexing g's two
    sides and e counting the markers on c2 where g is not the identity.
    Its plan is `_plan`'s transfer with each slot on the side A gives it.
    """
    _check_product_operands(phi, psi, m, n)
    if m == 0 or n == 0:
        return _scalar_product(phi, psi, m)
    A = frozenset(A)
    if len(A) != n or not A <= set(range(1, m + n + 1)):
        raise ValueError(f"A must be a size-{n} subset of [{m + n}], got {sorted(A)}")
    return _scatter(phi, psi, m, n, _plan(phi.spec.nu, m, n, mask_of(A)))


def _plan(nu: int, m: int, n: int, amask: int | None = None) -> tuple[tuple[tuple[int, array, tuple[int, ...]], ...], ...]:
    """The terms of m_A on Q_{m+n}(nu) summed over every selector mask A, or
    of the one A that `amask` gives: the one builder of those terms.

    Every (phi index a, psi index b, element g) of m_A, its `_off_weights`
    numerator (-1)^e (nu-1)^(k+1-e) summed over those A and a zero sum
    dropped, stored by operand pair: plan[a] lists the rows (b, the elements
    g as an array, their weights as a tuple of ints, equal ints shared), so
    that a scatter reads only the rows where phi(a) and psi(b) are both
    nonzero.  One transfer over the slots k, ..., 1, each on phi's side (0)
    or psi's (1), builds it: equal partial terms merge as they meet, and one
    that cancels goes no further.  A state (phi slots above, side of the slot
    above) maps each partial key (a nu^(n-1) + b) nu^(k-1) + g to its weight.
    A run maximum, a slot just below the other side, is restricted away, and
    so is each pad, the top of a side; a run maximum of phi's is a marker,
    weighing -1 at a nonzero digit.  Every other weight is nu-1, and a kept
    slot with c members of its side above puts its digit at nu^(c-1) in that
    side's index.  Slot k has no digit; the start weight (nu-1)^2 is the pads'.
    """
    k = m + n
    size, width = nu ** (k - 1), nu ** (n - 1)
    states = {(1 - side, side): {0: (nu - 1) ** 2} for side in (0, 1) if amask is None or amask >> k - 1 & 1 == side}
    for i in range(k - 1, 0, -1):
        steps: dict[tuple[int, int], dict[int, int]] = {}
        for above, up in list(states):  # each source freed once read
            sums = states.pop((above, up))
            for side in (0, 1) if amask is None else (amask >> i - 1 & 1,):
                if (c := (k - i - above if side else above)) == (m, n)[side]:
                    continue  # side's slots all placed above
                # a pad below k is a run maximum; a kept slot has c >= 1
                place = nu ** (k - 1 - i) + (nu ** (c - 1) * (1 if side else width) * size if up == side else 0)
                marker = -1 if up != side and not side else nu - 1
                # below slot 1 no side is read, so there all terms meet in one state
                into = steps.setdefault((above + 1 - side, side if i > 1 else 0), {})
                for d in range(nu):
                    step, f = d * place, marker if d else nu - 1
                    for key, w in sums.items():
                        if w:
                            into[key + step] = into.get(key + step, 0) + w * f
        states = steps
    (sums,) = states.values()
    keys = sorted(filter(sums.get, sums))
    shared, ws = {}, list(map(sums.__getitem__, keys))
    elements, ws = array("I", map(size.__rmod__, keys)), tuple(map(shared.setdefault, ws, ws))
    plan, start = [[] for _ in range(nu ** (m - 1))], 0
    for pair, count in Counter(map(size.__rfloordiv__, keys)).items():  # in key order
        end = start + count
        plan[pair // width].append((pair % width, elements[start:end], ws[start:end]))
        start = end
    return tuple(map(tuple, plan))


@lru_cache(maxsize=256, typed=True)
def product_plan(nu: int, m: int, n: int) -> tuple[tuple[tuple[int, array, tuple[int, ...]], ...], ...]:
    """The plan of m = sum_A m_A on Q_{m+n}(nu), `_plan` over every selector.
    A miss refuses a shape that no product reaches before any work."""
    _exact_nu(nu)
    for name, degree in (("m", m), ("n", n)):
        if index(degree) < 1:
            raise ValueError(f"{name} must be at least 1, got {degree}")
    GroupSpec.standard(nu, m + n)
    return _plan(nu, m, n)


def _scatter(phi: ClassFunction, psi: ClassFunction, m: int, n: int, plan) -> ClassFunction:
    """phi and psi through a plan's terms, over the rows where both are nonzero."""
    nu = phi.spec.nu
    out = [0] * nu ** (m + n - 1)
    for x, rows in zip(phi.nums, plan):
        if x:
            for b, elements, weights in rows:
                if y := psi.nums[b]:
                    xy = x * y
                    for g, w in zip(elements, weights):
                        out[g] += xy * w
    _, den = _off_weights(nu, m + n)
    return ClassFunction(GroupSpec.standard(nu, m + n), out, phi.den * psi.den * den)


def product_m(phi: ClassFunction, psi: ClassFunction, m: int, n: int) -> ClassFunction:
    """Sum of m_A over all size-n subsets A of [m+n], scattered through `product_plan`."""
    _check_product_operands(phi, psi, m, n)
    if m == 0 or n == 0:
        return _scalar_product(phi, psi, m)
    return _scatter(phi, psi, m, n, product_plan(phi.spec.nu, m, n))


# ---------------------------------------------------------------------------
# The coproduct


@lru_cache(maxsize=64)
def support_labels(spec: GroupSpec) -> tuple[frozenset, ...]:
    """The superclass label of each support mask."""
    return tuple(
        frozenset(label for p, label in enumerate(spec.index_set) if mask >> p & 1)
        for mask in range(1 << spec.rank)
    )


def _superclass_nums(phi: ClassFunction) -> dict[int, int]:
    """phi's numerator over phi.den on each support mask, keyed in the order
    in which the supports first appear.

    Raises if phi is not constant on superclasses, i.e. lies outside the
    supercharacter function space.
    """
    spec = phi.spec
    masks = support_masks(spec.nu, spec.rank)
    nums = dict(zip(masks, phi.nums))
    if tuple(map(nums.__getitem__, masks)) != phi.nums:
        first: dict[int, int] = {}
        for s, v in zip(masks, phi.nums):
            if first.setdefault(s, v) != v:
                raise ValueError(
                    f"not a superclass function: differs on cl_{sorted(support_labels(spec)[s])}"
                )
    return nums


def expand_kappa(phi: ClassFunction) -> dict[frozenset, int | Fraction]:
    """The nonzero coefficients of phi in the superclass-identifier basis, an
    int where integral and a Fraction otherwise, keyed by label in the order
    of `_superclass_nums`, which raises outside the supercharacter function
    space."""
    labels, den = support_labels(phi.spec), phi.den
    return {labels[s]: _ratio(v, den) for s, v in _superclass_nums(phi).items() if v}


def coproduct_k(phi: ClassFunction, k: int, n: int) -> list[tuple[ClassFunction, ClassFunction]]:
    """delta_k as a list of pure tensor summands (left on Q_k, right on Q_{n-k}).

    Read off phi restricted to Q_{[n-1] \\ {k}}, gathered through
    `restriction_map` with left coordinates slowest: phi is constant on
    superclasses, so the row of the left element that is 1 exactly on L is
    phi(a_L, .) on Q_{n-k}, and the restriction is sum_L kappa_L (x)
    phi(a_L, .), one pair per L whose row is not zero.
    """
    if not _is_standard(phi.spec, n):
        raise ValueError("coproduct operands must live on a standard group")
    if not 0 <= k <= n:
        raise ValueError(f"slice position k={k} out of range 0..{n}")
    if 0 < k < n:
        _superclass_nums(phi)  # raises outside the supercharacter function space
    return _slice(phi, k, n, max_group_order())


def _slice(phi: ClassFunction, k: int, n: int, bound: int) -> list[tuple[ClassFunction, ClassFunction]]:
    """coproduct_k of a phi that has passed its checks, its factors' specs
    interned under the group bound that its caller read once."""
    nu = phi.spec.nu
    if k == 0:
        return [(one(_standard_spec(nu, 0, bound)), phi)]
    if k == n:
        return [(phi, one(_standard_spec(nu, 0, bound)))]
    left_spec = _standard_spec(nu, k, bound)
    right_spec = _standard_spec(nu, n - k, bound)
    gather = restriction_map(nu, n - 1, tuple(p for p in range(n - 1) if p != k - 1))
    keep = tuple(map(phi.nums.__getitem__, gather))
    width = right_spec.order
    out = []
    for L in subsets_of(k):
        start = width * sum(nu ** (k - 1 - i) for i in L)
        row = keep[start:start + width]
        if any(row):
            # L comes from subsets_of(k), so it needs no label check
            out.append((_kappa(left_spec, frozenset(L)), ClassFunction(right_spec, row, phi.den)))
    return out


def coproduct(phi: ClassFunction, n: int) -> dict[int, list[tuple[ClassFunction, ClassFunction]]]:
    """All slices delta_k for k = 0..n, phi checked once as by coproduct_k."""
    if not _is_standard(phi.spec, n):
        raise ValueError("coproduct operands must live on a standard group")
    _superclass_nums(phi)  # raises outside the supercharacter function space
    bound = max_group_order()
    return {k: _slice(phi, k, n, bound) for k in range(n + 1)}



# ---------------------------------------------------------------------------
# Hall inner product and the axiom checker


def hall_inner(phi: ClassFunction, psi: ClassFunction) -> Fraction:
    """(1/|G|) sum_g phi(g) psi(g^{-1}); inverses negate componentwise."""
    _require_same_spec(phi, psi)
    spec = phi.spec
    inverse = inverse_map(spec.nu, spec.rank)
    total = sum(map(mul, phi.nums, map(psi.nums.__getitem__, inverse)))
    return Fraction(total, phi.den * psi.den * spec.order)


def _hall_gram(functions: list[ClassFunction]) -> list[list[int]]:
    """Upper triangle of sum_g f_i(g) f_j(g^{-1}) over the numerators:
    row i lists j = i, i+1, ...; divide by den_i den_j |G| for the Hall product.
    Row i reads f_i only where it is nonzero, and each f_j at those inverses; a
    row with no zero is one dense pass over the f_j gathered at every inverse."""
    if not functions:
        return []
    spec = functions[0].spec
    inverse = inverse_map(spec.nu, spec.rank)
    flipped, rows = None, []
    for i, f in enumerate(functions):
        if all(f.nums):
            flipped = flipped or [tuple(map(g.nums.__getitem__, inverse)) for g in functions]
            rows.append([sum(map(mul, f.nums, g)) for g in flipped[i:]])
        else:
            values = list(itertools.compress(f.nums, f.nums))
            at = list(itertools.compress(inverse, f.nums))
            rows.append([sum(map(mul, values, map(g.nums.__getitem__, at))) for g in functions[i:]])
    return rows


@dataclass
class CheckReport:
    """Outcome of a verification sweep: named checks with optional witnesses.

    A report that holds no checks examined nothing and does not pass.
    """

    checks: list[tuple[str, bool, str]]

    @property
    def passed(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)

    def failures(self) -> list[tuple[str, str]]:
        return [(name, detail) for name, passed, detail in self.checks if not passed]


def check(name: str, cases, fault) -> tuple[str, bool, str]:
    """One CheckReport row for a sweep over `cases`.

    `fault(case)` returns None while the case holds and the witness string
    otherwise.  The sweep stops at the first witness, and an empty witness
    still fails the check.  A sweep that examined no case fails too.
    """
    examined = False
    for case in cases:
        examined = True
        witness = fault(case)
        if witness is not None:
            return name, False, witness
    return (name, True, "") if examined else (name, False, "no cases examined")


def verify_axioms(spec: GroupSpec) -> CheckReport:
    """Supercharacter-theory axioms C1-C3 plus orthogonality, checked densely."""
    subsets = [
        frozenset(spec.index_set[p - 1] for p in positions)
        for positions in subsets_of(spec.rank + 1)
    ]
    kappa_list = [kappa(spec, I) for I in subsets]
    chi_list = [chi(spec, I) for I in subsets]
    # Hall products from one integer Gram matrix per family
    chi_gram, kappa_gram = _hall_gram(chi_list), _hall_gram(kappa_list)

    def claim(name, holds, witness):
        return check(name, [holds], lambda ok: None if ok else witness)

    def constancy(item):
        I, f = item
        try:
            _superclass_nums(f)
        except ValueError as exc:
            return f"chi^{sorted(I)}: {exc}"

    def orthogonality(pair):
        (i, I), (j, J) = pair
        if chi_gram[i][j - i] != 0:
            return f"<chi^{sorted(I)}, chi^{sorted(J)}> != 0"
        if kappa_gram[i][j - i] != 0:
            return f"<kappa_{sorted(I)}, kappa_{sorted(J)}> != 0"

    # the Gram diagonal is den^2 |G| times the norm: (nu-1)^{|S \ I|} for chi, and for kappa
    # (nu-1)^{|I|} / |G|, the reciprocal of the display it is usually quoted as
    def norms(item):
        i, I = item
        if chi_gram[i][0] != (spec.nu - 1) ** (spec.rank - len(I)) * chi_list[i].den ** 2 * spec.order:
            return f"chi norm at I={sorted(I)}"
        if kappa_gram[i][0] != (spec.nu - 1) ** len(I) * kappa_list[i].den ** 2:
            return f"kappa norm at I={sorted(I)}"

    def lattice(item):
        I, f = item
        if lattice_superclass_oracle(spec, I) != f:
            return f"lattice superclass at I={sorted(I)}"

    empty = kappa_list[0]
    identity_only = tuple(1 if i == 0 else 0 for i in range(spec.order))
    distinct = len(subsets)
    den = lcm(*(f.den for f in kappa_list))
    scaled = (map((den // f.den).__mul__, f.nums) for f in kappa_list)
    total = ClassFunction(spec, map(sum, zip(*scaled)), den)
    # orthogonality needs two superclasses, and rank 0 has one
    pairs = itertools.combinations(enumerate(subsets), 2)
    orthogonal = [check("Hall orthogonality", pairs, orthogonality)] if distinct >= 2 else []
    return CheckReport([
        # C1: the identity is its own superclass
        claim(
            "C1 identity superclass",
            empty.den == 1 and empty.nums == identity_only,
            "cl_emptyset != {0}",
        ),
        # C2: as many superclasses as supercharacters, all nonempty and distinct
        claim(
            "C2 superclass count",
            all(not f.is_zero() for f in kappa_list) and len(set(kappa_list)) == distinct,
            "superclasses collide",
        ),
        claim("C2 supercharacter count", len(set(chi_list)) == distinct, "supercharacters collide"),
        # C3: each supercharacter is constant on each superclass
        check("C3 superclass constancy", zip(subsets, chi_list), constancy),
        # the superclasses partition the group
        claim("superclass partition", total == one(spec), "sum of kappas != 1"),
        *orthogonal,
        check("Hall norms", enumerate(subsets), norms),
        # the lattice oracle agrees with the support description of superclasses
        check("lattice superclasses", zip(subsets, kappa_list), lattice),
    ])
