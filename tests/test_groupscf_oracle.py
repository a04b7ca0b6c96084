"""The integer gather kernels of groupscf against the per-element Fraction oracle."""

import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import groupscf_oracle as oracle
from groupscf_oracle import f_one, f_reg_minus_one, factor_vector
from hopfscf import groupscf
from hopfscf.compositions import mask_of, subsets_of
from hopfscf.groupscf import (
    ClassFunction,
    GroupSpec,
    chi,
    dot_chi,
    hall_inner,
    kappa,
    one,
    product_m,
    product_mA,
    relabel,
    restrict,
    tensor_embed,
)

# largest total degree m + n per nu, so that groups stay at most 5^3 elements
TOP_DEGREE = {2: 6, 3: 5, 5: 4}
SETTINGS = settings(max_examples=60, deadline=None)
# per nu, the largest rank of a group table and the largest m + n of a product
# table compared exhaustively; they cover the product shapes the dense
# benchmark requests at nu = 2, 3 and 5
TABLE_TOP = {2: (7, 9), 3: (5, 6), 4: (4, 4), 5: (4, 4)}
# per nu, the largest m + n at which product_m meets the sum of its m_A
# summands on every kappa and chi_dot basis pair
SUMMED_TOP = {2: 6, 3: 5, 5: 3}
# every (nu, degree) at which the coproduct slices meet the label-split oracle
COPRODUCT_SHAPES = [(nu, n) for nu, top in ((2, 6), (3, 6), (5, 4)) for n in range(top + 1)]

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
nus = st.sampled_from(sorted(TOP_DEGREE))


def functions_on(spec: GroupSpec):
    """Random rational class functions, not only superclass functions."""
    return st.lists(rationals, min_size=spec.order, max_size=spec.order).map(
        lambda values: ClassFunction(spec, values)
    )


@st.composite
def specs(draw, max_rank=None):
    nu = draw(nus)
    rank = draw(st.integers(0, max_rank if max_rank is not None else TOP_DEGREE[nu] - 2))
    labels = draw(st.lists(st.integers(1, 9), min_size=rank, max_size=rank, unique=True))
    return GroupSpec(nu, tuple(sorted(labels)))


@st.composite
def product_operands(draw):
    nu = draw(nus)
    k = draw(st.integers(0, TOP_DEGREE[nu]))
    m = draw(st.integers(0, k))
    n = k - m
    A = draw(st.sampled_from(list(itertools.combinations(range(1, k + 1), n))))
    phi = draw(functions_on(GroupSpec.standard(nu, m)))
    psi = draw(functions_on(GroupSpec.standard(nu, n)))
    return phi, psi, A, m, n


@SETTINGS
@given(st.data())
def test_tensor_embed_matches_oracle(data):
    spec = data.draw(specs())
    split = data.draw(st.lists(st.booleans(), min_size=spec.rank, max_size=spec.rank))
    left = GroupSpec(spec.nu, tuple(i for i, s in zip(spec.index_set, split) if s))
    right = GroupSpec(spec.nu, tuple(i for i, s in zip(spec.index_set, split) if not s))
    phi = data.draw(functions_on(left))
    psi = data.draw(functions_on(right))
    assert tensor_embed(phi, psi) == oracle.tensor_embed(phi, psi)


@SETTINGS
@given(st.data())
def test_restrict_matches_oracle(data):
    spec = data.draw(specs())
    phi = data.draw(functions_on(spec))
    T = data.draw(st.sets(st.sampled_from(spec.index_set))) if spec.rank else set()
    assert restrict(phi, T) == oracle.restrict(phi, T)


@SETTINGS
@given(product_operands())
def test_product_mA_matches_oracle(operands):
    phi, psi, A, m, n = operands
    assert product_mA(phi, psi, A, m, n) == oracle.product_mA(phi, psi, A, m, n)


@settings(max_examples=30, deadline=None)
@given(product_operands())
def test_product_m_matches_summed_oracle(operands):
    phi, psi, _, m, n = operands
    terms = [
        oracle.product_mA(phi, psi, A, m, n)
        for A in itertools.combinations(range(1, m + n + 1), n)
    ]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    assert product_m(phi, psi, m, n) == total


@SETTINGS
@given(st.data())
def test_hall_inner_matches_oracle(data):
    spec = data.draw(specs(max_rank=3))
    phi = data.draw(functions_on(spec))
    psi = data.draw(functions_on(spec))
    assert hall_inner(phi, psi) == oracle.hall_inner(phi, psi)


def _gram_matches_hall_inner(functions):
    gram = groupscf._hall_gram(functions)
    assert [len(row) for row in gram] == list(range(len(functions), 0, -1))
    for i, f in enumerate(functions):
        for j, g in enumerate(functions[i:], i):
            assert gram[i][j - i] == hall_inner(f, g) * f.den * g.den * f.spec.order, (i, j)


@pytest.mark.parametrize("nu", [2, 3, 5])
@pytest.mark.parametrize("rank", range(5))
@pytest.mark.parametrize("family", [kappa, chi, dot_chi])
def test_hall_gram_matches_hall_inner(family, rank, nu):
    spec = GroupSpec.standard(nu, rank + 1)
    _gram_matches_hall_inner([family(spec, I) for I in subsets_of(rank + 1)])


nonzero_rationals = rationals.filter(bool)


@st.composite
def gram_rows(draw):
    """Random functions on one group, each row route drawn: at least one with
    no zero value and at least one with a zero, in a drawn order."""
    spec = draw(specs(max_rank=3))
    dense = st.lists(nonzero_rationals, min_size=spec.order, max_size=spec.order)
    sparse = st.lists(st.just(Fraction(0)) | rationals, min_size=spec.order, max_size=spec.order)
    rows = draw(st.lists(dense, min_size=1, max_size=3)) + draw(st.lists(sparse, min_size=1, max_size=3))
    rows[-1][draw(st.integers(0, spec.order - 1))] = 0
    return [ClassFunction(spec, values) for values in draw(st.permutations(rows))]


@SETTINGS
@given(gram_rows())
def test_hall_gram_matches_hall_inner_on_random_functions(functions):
    _gram_matches_hall_inner(functions)


@SETTINGS
@given(st.data())
def test_chi_matches_factor_vector(data):
    spec = data.draw(specs())
    I = data.draw(st.sets(st.sampled_from(spec.index_set))) if spec.rank else set()
    fv = factor_vector(spec, I, f_one(spec.nu), f_reg_minus_one(spec.nu))
    assert chi(spec, I) == fv.expand()


@SETTINGS
@given(st.data())
def test_common_scalings_compare_and_hash_equal(data):
    spec = data.draw(specs(max_rank=2))
    values = data.draw(st.lists(rationals, min_size=spec.order, max_size=spec.order))
    scale = data.draw(st.integers(1, 12).flatmap(lambda c: st.sampled_from((c, -c))))
    reduced = ClassFunction(spec, values)
    den = reduced.den * scale
    rescaled = ClassFunction(spec, [x * scale for x in reduced.nums], den)
    assert rescaled == reduced
    assert hash(rescaled) == hash(reduced)
    assert rescaled.den > 0
    assert rescaled.values == tuple(values)


def _typed(table):
    return table.typecode, table.tolist()


def test_gather_tables_match_the_element_loops():
    """Every gather table, built as a coordinate sum, equals the element walk,
    for every rank and every sorted `positions` up to TABLE_TOP; so does the
    plan of one m_A, for every (m, n, A): its (phi index a, psi index b,
    element g, weight w) entries are those of the element walk `product_map`,
    each once."""
    cases = 0

    def agree(name, *args):
        nonlocal cases
        cases += 1
        built = getattr(groupscf, name)(*args)
        assert _typed(built) == _typed(getattr(oracle, name)(*args)), (name, args)

    for nu, (top_rank, top_degree) in TABLE_TOP.items():
        for rank in range(top_rank + 1):
            agree("support_masks", nu, rank)
            agree("inverse_map", nu, rank)
            for r in range(rank + 1):
                for positions in itertools.combinations(range(rank), r):
                    agree("restriction_map", nu, rank, positions)
        for k in range(2, top_degree + 1):
            weights = [(-1) ** e * (nu - 1) ** (k + 1 - e) for e in range(k + 2)]
            for n in range(1, k):
                for A in itertools.combinations(range(1, k + 1), n):
                    walked = oracle.product_map(nu, k - n, n, A)
                    plan = groupscf._plan(nu, k - n, n, mask_of(A))
                    held = [
                        (a, b, g, w)
                        for a, rows in enumerate(plan)
                        for b, elements, ws in rows
                        for g, w in zip(elements, ws, strict=True)
                    ]
                    assert len(plan) == nu ** (k - n - 1)
                    assert sorted(held) == sorted(
                        (a, b, g, weights[e]) for g, (a, b, e) in enumerate(zip(*walked))
                    ), (nu, k - n, n, A)
                    cases += 1
    assert cases > 0


def basis_functions(nu: int, n: int) -> list[ClassFunction]:
    """Every kappa and chi_dot basis function of Q_n(nu)."""
    spec = GroupSpec.standard(nu, n)
    return [basis(spec, I) for basis in (kappa, dot_chi) for I in subsets_of(n)]


def slice_value(pairs, nu: int, k: int, n: int) -> ClassFunction:
    """The value of delta_k's pairs, sum of left (x) right, on Q_{[n-1] \\ {k}}."""
    total = groupscf.one(GroupSpec(nu, tuple(i for i in range(1, n) if i != k))).scale(0)
    for left, right in pairs:
        total = total + tensor_embed(left, relabel(right, range(k + 1, n)))
    return total


def assert_slices_match_oracle(phi: ClassFunction, n: int) -> None:
    nu = phi.spec.nu
    for k in range(n + 1):
        pairs, expected = groupscf.coproduct_k(phi, k, n), oracle.coproduct_k(phi, k, n)
        assert slice_value(pairs, nu, k, n) == slice_value(expected, nu, k, n), (phi, k)
        assert len(pairs) <= len(expected)


@pytest.mark.parametrize("nu, n", COPRODUCT_SHAPES)
def test_coproduct_slices_match_the_label_split_on_every_basis_function(nu, n):
    for phi in basis_functions(nu, n):
        assert_slices_match_oracle(phi, n)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_coproduct_slices_match_the_label_split_on_random_sums(data):
    nu, n = data.draw(st.sampled_from(COPRODUCT_SHAPES))
    basis = basis_functions(nu, n)
    chosen = data.draw(st.lists(st.sampled_from(basis), min_size=1, max_size=6))
    phi = groupscf.one(basis[0].spec).scale(0)
    for f in chosen:
        phi = phi + f.scale(data.draw(rationals))
    assert_slices_match_oracle(phi, n)


def product_shapes(top: int) -> list[tuple[int, int]]:
    """Every (m, n) with m + n <= top, the degree-0 sides included."""
    return [(m, k - m) for k in range(top + 1) for m in range(k + 1)]


def test_product_m_equals_its_summands_on_every_basis_pair():
    cases = 0
    for nu, top in SUMMED_TOP.items():
        for m, n in product_shapes(top):
            for phi in basis_functions(nu, m):
                for psi in basis_functions(nu, n):
                    assert product_m(phi, psi, m, n) == oracle.product_m(phi, psi, m, n), (
                        phi, psi, m, n
                    )
                    cases += 1
    assert cases > 0


def test_product_m_equals_its_summands_on_seeded_functions():
    """Functions off the supercharacter function space, over denominators > 1."""
    rng = random.Random(1801)
    cases = outside_scf = 0
    for nu, top in SUMMED_TOP.items():
        for m, n in product_shapes(top):
            for _ in range(3):
                phi, psi = (
                    ClassFunction(
                        GroupSpec.standard(nu, d),
                        [Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(2, 7))
                         for _ in range(nu ** max(d - 1, 0))],
                    ).scale(Fraction(1, 11))
                    for d in (m, n)
                )
                assert phi.den > 1 and psi.den > 1
                assert product_m(phi, psi, m, n) == oracle.product_m(phi, psi, m, n), (
                    phi, psi, m, n
                )
                cases += 1
                try:
                    groupscf._superclass_nums(phi)
                except ValueError:
                    outside_scf += 1
    assert cases > 0 and outside_scf > 0


def test_product_plan_keeps_only_nonzero_summed_weights():
    """product_plan holds each (phi index a, psi index b, element g, weight w)
    whose weight, summed over every A from the element walk `product_map`, is
    nonzero, each once, and nothing else; equal weights are one int object."""
    cases, sizes = 0, {}
    for nu, (_, top_degree) in TABLE_TOP.items():
        for k in range(2, top_degree + 1):
            weights = [(-1) ** e * (nu - 1) ** (k + 1 - e) for e in range(k + 2)]
            for n in range(1, k):
                summed = Counter()
                for A in itertools.combinations(range(1, k + 1), n):
                    for g, (a, b, e) in enumerate(zip(*oracle.product_map(nu, k - n, n, A))):
                        summed[a, b, g] += weights[e]
                plan = groupscf.product_plan(nu, k - n, n)
                held = [
                    (a, b, g, w)
                    for a, rows in enumerate(plan)
                    for b, elements, ws in rows
                    for g, w in zip(elements, ws, strict=True)
                ]
                assert len(plan) == nu ** (k - n - 1)
                assert len(held) == len(set(held))
                assert set(held) == {(*key, w) for key, w in summed.items() if w}
                assert len({id(w) for *_, w in held}) == len({w for *_, w in held})
                sizes[nu, k - n, n] = len(held)
                cases += 1
    assert cases > 0
    assert sizes[2, 4, 4] == 934  # of 70 * 2^7 = 8,960 gathered
    assert sizes[3, 3, 3] == 2843  # of 20 * 3^5 = 4,860 gathered
    # past TABLE_TOP, where the element walk is slow, each summed plan is
    # pinned by its term count, its pair count and a digest of its repr
    for shape, terms, pairs, digest in [
        ((2, 5, 5), 8422, 256, "9adc205e46d003e7"),
        ((3, 4, 3), 14737, 243, "12cfdcf4054a61b2"),
        ((3, 4, 4), 83083, 729, "22d831e284440dae"),
    ]:
        plan = groupscf.product_plan(*shape)
        assert sum(len(elements) for rows in plan for _, elements, _ in rows) == terms, shape
        assert sum(map(len, plan)) == pairs, shape
        assert hashlib.sha256(repr(plan).encode()).hexdigest()[:16] == digest, shape


def sparse_functions(spec: GroupSpec):
    """Mostly-zero class functions: zero, one-hot at any element (off the
    supercharacter function space when its superclass has more elements), a
    few nonzero values, or a scaled superclass indicator; values over
    denominators > 1 included."""
    def placed(cells):
        values = [0] * spec.order
        for i, v in cells:
            values[i] = v
        return ClassFunction(spec, values)

    cell = st.tuples(st.integers(0, spec.order - 1), rationals.filter(bool))
    labels = st.sets(st.sampled_from(spec.index_set)) if spec.rank else st.just(set())
    return st.one_of(
        st.just(placed([])),
        cell.map(lambda c: placed([c])),
        st.lists(cell, max_size=3).map(placed),
        st.builds(lambda I, c: kappa(spec, I).scale(c), labels, rationals),
    )


@st.composite
def sparse_operands(draw):
    nu = draw(nus)
    k = draw(st.integers(0, TOP_DEGREE[nu]))
    m = draw(st.integers(0, k))
    phi = draw(sparse_functions(GroupSpec.standard(nu, m)))
    psi = draw(sparse_functions(GroupSpec.standard(nu, k - m)))
    return phi, psi, m, k - m


@SETTINGS
@given(sparse_operands())
@example((one(GroupSpec.standard(5, 3)).scale(0), kappa(GroupSpec.standard(5, 2), {1}), 3, 2))
def test_product_m_matches_summed_oracle_on_sparse_operands(operands):
    """The scatter skips the rows where an operand is zero: on mostly-zero
    operands it still equals the literal sum of its m_A summands, and a zero
    operand gives the zero function over 1."""
    phi, psi, m, n = operands
    got = product_m(phi, psi, m, n)
    assert got == oracle.product_m(phi, psi, m, n)
    if phi.is_zero() or psi.is_zero():
        assert got.is_zero() and got.den == 1
