"""NSym over the q,t fraction field: H, Lambda, R, E*, B(q,t), Bhat(q,t).

`NSymElem` is a `linear.LinComb` of compositions with one basis tag, and
`NSymTensor` is qsym's one tensor class over NSym.  H is the free-algebra
basis and the hub, where mixed-basis `==` and `+` meet.  Each basis has one
2x2 factor into H, and `convert` expands a label by the composed factor
src @ tgt^-1 with qsym's Kronecker-factor kernel.  The closed product rules (near-concatenation
for B, concatenation for Bhat) are fast paths; their agreement with the H
route is asserted in the test suite rather than assumed.  The structure
constants C^K_{I,J}(q,t) of the B basis come two ways from one closed sum
over selectors, each the other's cross-check: per fixed K and m
(structure_constants_table, read by the CLI, coproduct_B_comp and the per-entry
structure_constant) and per fixed (I, J) (structure_constants_sweep).  The
test suite checks both against the closed sum as written.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

from .compositions import (
    Composition,
    SubsetLabel,
    _full_mask,
    check_ambient,
    comp_of_mask,
    iter_submasks,
    mask_of,
    near_concat,
    ranks_within,
    selector_masks,
    selectors,
)
from .linear import LinComb, extend, extend2
from .qsym import QSymElem, Tensor, _convert_into, convert as qsym_convert
from .scalars import ONE, Q, T, ZERO, ScalarQT, _lower, _rational, _times

BASES = ("H", "Lambda", "R", "Estar", "B", "Bhat")


def _h_factor(basis: str, nu=None) -> tuple:
    """The hub factor into H (no basis takes nu); B's is b_to_H_masks one
    coordinate at a time and Bhat's is B's with the label bit flipped."""
    return {
        "H": ((1, 0), (0, 1)),
        "Lambda": ((-1, 1), (0, 1)),
        "R": ((1, 0), (-1, 1)),
        "Estar": ((1, -1), (0, 1)),
        "B": ((0, 1), (Q, T)),
        "Bhat": ((Q, T), (0, 1)),
    }[basis]


class NSymElem(LinComb):
    """A finite linear combination of compositions in one basis of NSym."""

    __slots__ = _TAG = ("basis",)
    _key = Composition
    HUB = "H"
    _factor = staticmethod(_h_factor)
    nu = None  # the conversion kernel reads (basis, nu); no NSym basis takes a nu

    def __init__(self, basis: str, terms=None):
        if basis not in BASES:
            raise ValueError(f"unknown NSym basis {basis!r}")
        self.basis = basis
        super().__init__(terms)

    @classmethod
    def basis_elem(cls, basis: str, parts) -> "NSymElem":
        return cls(basis, {Composition(parts): 1})

    def _hub(self) -> "NSymElem":
        return self if self.basis == "H" else convert(self, "H")

    def _label(self, comp: Composition) -> str:
        return f"{self.basis}{comp!r}"

    def __mul__(self, other):
        return product(self, other) if isinstance(other, NSymElem) else self.scale(other)


def H(parts) -> NSymElem:
    return NSymElem.basis_elem("H", parts)


def Lam(parts) -> NSymElem:
    return NSymElem.basis_elem("Lambda", parts)


def R(parts) -> NSymElem:
    return NSymElem.basis_elem("R", parts)


def Estar(parts) -> NSymElem:
    return NSymElem.basis_elem("Estar", parts)


def B(parts) -> NSymElem:
    return NSymElem.basis_elem("B", parts)


def Bhat(parts) -> NSymElem:
    return NSymElem.basis_elem("Bhat", parts)


# ---------------------------------------------------------------------------
# Transitions against H (subset level, fixed degree n)


def b_to_H_masks(n: int, imask: int, qs: ScalarQT = Q, ts: ScalarQT = T) -> dict[int, ScalarQT]:
    """B(q,t)_{comp(I)} = sum over J with I u J = [n-1] of q^{|I\\J|} t^{|I n J|} H_{comp(J)}."""
    full = _full_mask(n)
    base = full & ~imask
    size_i = imask.bit_count()
    out: dict[int, ScalarQT] = {}
    for sub in iter_submasks(imask):
        meet = sub.bit_count()
        out[base | sub] = qs ** (size_i - meet) * ts**meet
    return out


def b_matrix_entry(n: int, imask: int, jmask: int) -> ScalarQT:
    """The transition-matrix entry M_{I,J} = q^{|J\\I|} t^{|J n I|} [I u J = [n-1]]."""
    if (imask | jmask) != _full_mask(n):
        return ZERO
    return Q ** (jmask & ~imask).bit_count() * T ** (jmask & imask).bit_count()


def b_inverse_entry(n: int, imask: int, jmask: int) -> ScalarQT:
    """The inverse-matrix entry N_{I,J} = q^{|J|-(n-1)} (-t)^{(n-1)-|I|-|J|} [I n J empty]."""
    if n == 0:
        return ONE
    if imask & jmask:
        return ZERO
    si, sj = imask.bit_count(), jmask.bit_count()
    return Q ** (sj - (n - 1)) * (-T) ** ((n - 1) - si - sj)


def convert(x: NSymElem, target: str) -> NSymElem:
    out = NSymElem(target)
    return x if x.basis == target else _convert_into(out, x)


def specialize(x: NSymElem, q0, t0) -> NSymElem:
    """Evaluate every coefficient at (q, t) = (q0, t0)."""
    values = ((comp, _rational(ScalarQT.wrap(c).eval_at(q0, t0))) for comp, c in x.terms.items())
    return x._with_terms({comp: v for comp, v in values if v})


# ---------------------------------------------------------------------------
# Product and coproduct


def product(x: NSymElem, y: NSymElem) -> NSymElem:
    """Concatenation in H and Bhat, near-concatenation in B, through H otherwise."""
    if not (x.basis == y.basis and x.basis in ("H", "B", "Bhat")):
        x, y = convert(x, "H"), convert(y, "H")
    combine = near_concat if x.basis == "B" else Composition.concat
    return x._with_terms(extend2(x.terms, y.terms, lambda a, b: ((combine(a, b), 1),)))


class NSymTensor(Tensor):
    """NSym (x) NSym, one basis tag per side."""

    __slots__ = ()
    algebra = NSymElem


def _coproduct_H_comp(alpha: Composition) -> dict[tuple[Composition, Composition], int]:
    """Delta H_alpha by the algebra-map extension of Delta H_n = sum H_i (x) H_j:
    one H_left (x) H_right per cut 0 <= i <= p of each part p, with the zero
    parts dropped, summed with integer coefficients."""

    def halves(cut):  # the nonzero cuts and rests are positive: built unchecked
        rest = filter(None, map(int.__sub__, alpha, cut))
        return (((tuple.__new__(Composition, filter(None, cut)), tuple.__new__(Composition, rest)), 1),)

    return extend(((cut, 1) for cut in itertools.product(*(range(p + 1) for p in alpha))), halves)


def coproduct(x: NSymElem) -> NSymTensor:
    terms = extend(convert(x, "H").terms.items(), lambda comp: _coproduct_H_comp(comp).items())
    return NSymTensor(("H", "H"))._with_terms(terms)


def counit(x: NSymElem) -> ScalarQT:
    return convert(x, "H").coefficient(())


# ---------------------------------------------------------------------------
# Structure constants of the B basis


def structure_constant(k: int, K, m: int, I, J) -> ScalarQT:
    """C^K_{I,J}(q,t): one entry of structure_constants_table(k, K, m)."""
    n = k - m
    if n < 0:
        raise ValueError(f"m={m} exceeds k={k}")
    imask, jmask = SubsetLabel.of(m, I).mask, SubsetLabel.of(n, J).mask
    return structure_constants_table(k, K, m).get((imask, jmask), ZERO)


def admissible_selectors(k: int, m: int, I, J):
    """(mask of K, mask of c2(A)) for every admissible selector A of size
    n = k - m, one whose preshuffle misses c(A), and every K in the interval
    I#J <= K <= (I#J) u c(A)."""
    n = k - m
    imask, jmask = SubsetLabel.of(m, I).mask, SubsetLabel.of(n, J).mask
    for amask in selectors(k, n):
        pre, c1, c2 = selector_masks(imask, jmask, amask, k)
        if not pre & (c1 | c2):
            for sub in iter_submasks(c1 | c2):
                yield pre | sub, c2


def structure_constants_sweep(k: int, m: int, I, J) -> dict[int, ScalarQT]:
    """All C^K_{I,J}(q,t) at once, keyed by the mask of K.

    One pass over the admissible selectors A, distributing each A over its
    interval of K; agrees with structure_constants_table per K.
    """
    weights = (
        (kmask, (Q + T) ** (kmask & c2mask).bit_count() * T ** (kmask & ~c2mask).bit_count())
        for kmask, c2mask in admissible_selectors(k, m, I, J)
    )
    acc = extend(weights, lambda kmask: ((kmask, 1),))
    denom = T ** (SubsetLabel.of(m, I).size + SubsetLabel.of(k - m, J).size)
    return {kmask: coeff / denom for kmask, coeff in acc.items()}


def structure_constants_table(k: int, K, m: int) -> dict[tuple[int, int], ScalarQT]:
    """Every nonzero C^K_{I,J}(q,t) for fixed k, K and m, keyed by (imask, jmask).

    One pass over the selectors A of size n = k - m.  The admissibility tests
    of the closed sum together say preshuffle(I, J, A) = K \\ c(A), and for
    a fixed A the preshuffle determines (I, J), so each A adds to one row.  I
    holds the ranks within [k] \\ A of the elements of K \\ c(A) outside A, and
    J the ranks within A of those inside A.  K \\ c(A) never holds the largest
    element of A or of its complement: that element is k or lies in c(A).
    The weight (q+t)^{|K n c2|} t^{|K \\ c2| - |I| - |J|} equals
    (q+t)^{|K n c2|} t^{|K n c1|}, and each selector adds its binomial
    monomials straight into its row.  Agrees with structure_constants_sweep
    entry by entry.  The table is memoised on (k, mask of K, m) and shared by
    every caller, so it must not be modified.
    """
    if not 0 <= m <= check_ambient(k):  # the bound first: the selectors of [k] are built next
        raise ValueError(f"m={m} is not in [0, {k}]")
    K = frozenset(K)
    if not K <= set(range(1, k)):
        raise ValueError(f"K={sorted(K)} is not a subset of [{k - 1}]")
    return _table(k, mask_of(K), m)


# 1024 tables hold every (k, K, m) with k <= 7: 897 tables, 4,577 entries
@lru_cache(maxsize=1024)
def _table(k: int, kmask: int, m: int) -> dict[tuple[int, int], ScalarQT]:
    full = (1 << k) - 1
    rows: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    for amask in selectors(k, k - m):
        _, c1, c2 = selector_masks(0, 0, amask, k)
        target = kmask & ~(c1 | c2)
        row = (ranks_within(target, full ^ amask), ranks_within(target, amask))
        terms = rows.setdefault(row, {})
        e_qt, e_t = (kmask & c2).bit_count(), (kmask & c1).bit_count()
        for i in range(e_qt + 1):  # (q+t)^e_qt t^e_t, binomially
            mono = (i, e_qt - i + e_t)
            terms[mono] = terms.get(mono, 0) + comb(e_qt, i)
    return {row: ScalarQT(terms) for row, terms in rows.items()}


def coproduct_B_comp(k: int, K) -> NSymTensor:
    """Delta B(q,t)_{comp(K)} straight from the structure constants."""
    terms = {
        (comp_of_mask(m, imask), comp_of_mask(k - m, jmask)): _lower(coeff)
        for m in range(k + 1)
        for (imask, jmask), coeff in structure_constants_table(k, K, m).items()
    }
    return NSymTensor(("B", "B"))._with_terms(terms)


def bhat_coproduct_terms(k: int) -> list[tuple[Composition, Composition, ScalarQT | int]]:
    """Per-selector terms of Delta Bhat(q,t)_k: one for each A inside [k],
    with weight (q+t)^{|c2(A)|} t^{|c1(A)|} on Bhat_{alpha_A} (x) Bhat_{beta_A}.
    alpha_A lists the run lengths of A, whose partial sums are the ranks
    within A of its run maxima but the last; beta_A the same for [k] \\ A."""

    def runs(pool: int, maxima: int) -> Composition:
        size = pool.bit_count()
        return comp_of_mask(size, ranks_within(maxima, pool) & ((1 << size) - 1) >> 1)

    out = []
    full = (1 << k) - 1
    for r in range(k + 1):
        for amask in selectors(k, r):
            _, c1, c2 = selector_masks(0, 0, amask, k)
            coeff = _times((Q + T) ** c2.bit_count(), T ** c1.bit_count())
            out.append((runs(amask, c1), runs(full ^ amask, c2), coeff))
    return out


def coproduct_bhat(k: int) -> NSymTensor:
    terms = (((alpha, beta), coeff) for alpha, beta, coeff in bhat_coproduct_terms(k))
    return NSymTensor(("Bhat", "Bhat"))._with_terms(extend(terms, lambda pair: ((pair, 1),)))


# ---------------------------------------------------------------------------
# omega and the duality pairing


def omega(x: NSymElem) -> NSymElem:
    """The involutive anti-homomorphism H_alpha -> Lambda_{alpha reversed}."""
    terms = extend(convert(x, "H").terms.items(), lambda comp: ((comp.reverse(), 1),))
    return NSymElem("Lambda")._with_terms(terms)


def pairing(f: NSymElem, x: QSymElem) -> ScalarQT:
    """Bilinear extension of (H_alpha, M_beta) = delta_{alpha,beta}."""
    h, m = convert(f, "H").terms, qsym_convert(x, "M").terms
    return sum((coeff * m[comp] for comp, coeff in h.items() if comp in m), ZERO)
