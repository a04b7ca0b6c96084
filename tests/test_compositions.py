import itertools
import os
import resource
import subprocess
import sys
from collections import Counter
from collections.abc import Iterable, Sequence
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfscf.compositions import (
    AmbientBoundError,
    Composition,
    SubsetLabel,
    a_shuffle,
    comp_of_set,
    complement,
    compositions_of,
    near_concat,
    overlapping_shuffles,
    members_at,
    preshuffle,
    ranks_within,
    run_markers,
    selectors,
    set_of_comp,
)
from hopfscf.nsym import bhat_coproduct_terms
from hopfscf.qsym import _l_product_masks
from fqsym_oracle import descent_rep, descent_set, shifted_shuffle, shuffle_words, standardize

SRC = Path(__file__).resolve().parents[1] / "src"


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def shuffle_by_selector(u: Sequence[int], v: Sequence[int], A: Iterable[int]) -> tuple[int, ...]:
    """Single interleaving: letters of v go to the positions in A, letters of
    u to the rest, both in order."""
    m, n = len(u), len(v)
    a = sorted(set(A))
    if len(a) != n or (a and (a[0] < 1 or a[-1] > m + n)):
        raise ValueError(f"selector A={a} invalid for word lengths {m}, {n}")
    word = [0] * (m + n)
    it_v = iter(v)
    for pos in a:
        word[pos - 1] = next(it_v)
    it_u = iter(u)
    for pos in sorted(set(range(1, m + n + 1)) - set(a)):
        word[pos - 1] = next(it_u)
    return tuple(word)


def subsets(universe):
    for r in range(len(universe) + 1):
        yield from (frozenset(c) for c in itertools.combinations(universe, r))


def run_decomposition(members: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Maximally connected subsets (runs), ordered by their minimum: the
    definition that run_markers and the Bhat coproduct read off masks."""
    elems = sorted(set(members))
    runs: list[list[int]] = []
    for x in elems:
        if runs and runs[-1][-1] == x - 1:
            runs[-1].append(x)
        else:
            runs.append([x])
    return tuple(tuple(r) for r in runs)


def descent_rep_search(I: SubsetLabel) -> tuple[int, ...]:
    """Lexicographically smallest permutation of [ambient] with descent set I."""
    m = I.ambient
    target = set(I.members)

    def rec(prefix: list[int], used: set[int]):
        pos = len(prefix)
        if pos == m:
            return tuple(prefix)
        for val in range(1, m + 1):
            if val in used:
                continue
            if pos > 0:
                descends = prefix[-1] > val
                if descends != (pos in target):
                    continue
            found = rec(prefix + [val], used | {val})
            if found is not None:
                return found
        return None

    word = rec([], set())
    if word is None:
        raise ValueError(f"no permutation of [{m}] has descent set {I}")
    return word


class TestCompSetBijection:
    def test_worked_example(self):
        assert comp_of_set(SubsetLabel.of(6, {1, 4})) == Composition((1, 3, 2))
        assert set_of_comp((1, 3, 2)) == SubsetLabel.of(6, {1, 4})

    def test_empty_subset_gives_one_part(self):
        assert comp_of_set(SubsetLabel.of(5)) == Composition((5,))

    def test_full_subset_gives_all_ones(self):
        assert comp_of_set(SubsetLabel.of(5, {1, 2, 3, 4})) == Composition((1,) * 5)

    def test_ambient_zero(self):
        assert comp_of_set(SubsetLabel.of(0)) == Composition()
        assert set_of_comp(()) == SubsetLabel.of(0)

    def test_is_the_validated_composition_of_every_label(self):
        cases = 0
        for n in range(11):
            for mask in range(1 << max(n - 1, 0)):
                label = SubsetLabel(n, mask)
                points = (0, *label.members, n) if n else (0,)
                expected = Composition(b - a for a, b in itertools.pairwise(points))
                alpha = comp_of_set(label)
                assert type(alpha) is Composition and alpha == expected
                cases += 1
        assert cases == 1 + (1 << 10) - 1

    def test_round_trip_all_degrees(self):
        for n in range(0, 8):
            for alpha in compositions_of(n):
                assert comp_of_set(set_of_comp(alpha)) == alpha

    def test_invalid_parts_rejected(self):
        with pytest.raises(ValueError):
            Composition((1, 0, 2))

    def test_ambient_bound_enforced(self):
        with pytest.raises(AmbientBoundError):
            SubsetLabel.of(100, {1})

    @pytest.mark.parametrize(
        "call",
        [
            'qsym.convert(qsym.M((65,)), "L")',
            "qsym.product(qsym.L((65,)), qsym.L((1,)))",
            "qsym.coproduct(qsym.L((65,)))",
            "qsym.antipode(qsym.M((1,) * 65))",
            'nsym.convert(nsym.B((65,)), "H")',
            "nsym.coproduct_B_comp(65, ())",
            "nsym.structure_constants_table(65, (), 32)",
        ],
    )
    def test_every_mask_crossing_refuses_degree_65_first(self, call):
        # each crossing from a composition to its mask checks the bound before
        # any work; a regression hangs or answers, so run capped in a fresh interpreter
        script = f"from hopfscf import nsym, qsym\nprint({call})"
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": str(SRC)}, preexec_fn=_cap_memory,
        )
        assert done.stdout == ""
        assert done.stderr.splitlines()[-1] == (
            "hopfscf.compositions.AmbientBoundError: ambient 65 exceeds supported bound 64"
        )

    def test_negative_mask_refused_at_once(self):
        # a negative mask has no finite member list, so the refusal must not
        # build one: run in a fresh interpreter, capped in time and memory
        script = "from hopfscf.compositions import SubsetLabel\nSubsetLabel(3, -1)"
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": str(SRC)}, preexec_fn=_cap_memory,
        )
        assert done.stderr.splitlines()[-1] == "ValueError: mask must be nonnegative, got -1"


class TestComplement:
    def test_example_via_direct_set_complement(self):
        # {1,4} inside [5] complements to {2,3,5}
        members = {1, 4}
        direct = comp_of_set(SubsetLabel.of(6, set(range(1, 6)) - members))
        assert direct == Composition((2, 1, 2, 1))
        assert complement((1, 3, 2)) == direct

    def test_one_part(self):
        assert complement((4,)) == Composition((1, 1, 1, 1))

    def test_empty(self):
        assert complement(()) == Composition()

    def test_involution(self):
        for n in range(0, 8):
            for alpha in compositions_of(n):
                assert complement(complement(alpha)) == alpha
                assert complement(alpha).size == alpha.size


class TestNearConcat:
    def test_paper_factorizations(self):
        assert near_concat((1, 1), (2, 2)) == Composition((1, 3, 2))
        assert near_concat((1, 3, 1), (1,)) == Composition((1, 3, 2))

    def test_empty_unit(self):
        assert near_concat((), (1, 3, 2)) == Composition((1, 3, 2))
        assert near_concat((1, 3, 2), ()) == Composition((1, 3, 2))

    def test_complement_turns_fusion_into_concatenation(self):
        for m in range(1, 5):
            for n in range(1, 5):
                for a in compositions_of(m):
                    for b in compositions_of(n):
                        assert complement(near_concat(a, b)) == complement(a).concat(
                            complement(b)
                        )


class TestRunMarkers:
    def test_nine_point_example(self):
        assert run_decomposition({1, 2, 5, 7, 8, 9}) == ((1, 2), (5,), (7, 8, 9))
        c1, c2, c = run_markers({1, 2, 5, 7, 8, 9}, 9)
        assert c1.members == (2, 5)
        assert c2.members == (4, 6)
        assert c.members == (2, 4, 5, 6)

    def test_shuffle_example_markers(self):
        c1, c2, _ = run_markers({1, 3, 4}, 7)
        assert c1.members == (1, 4)
        assert c2.members == (2,)

    def test_empty_subset(self):
        # the complement [k] is a single run whose max k is excluded
        c1, c2, c = run_markers(set(), 5)
        assert c1.members == ()
        assert c2.members == () and c.members == ()

    def test_run_markers_match_the_run_decomposition(self):
        # the mask formula against the definition, for every A inside [k], k = 0 included
        cases = 0
        for k in range(9):
            universe = frozenset(range(1, k + 1))
            for A in subsets(sorted(universe)):
                c1 = {r[-1] for r in run_decomposition(A)} - {k}
                c2 = {r[-1] for r in run_decomposition(universe - A)} - {k}
                expected = (SubsetLabel.of(k, c1), SubsetLabel.of(k, c2), SubsetLabel.of(k, c1 | c2))
                assert run_markers(A, k) == expected, (k, sorted(A))
                cases += 1
        assert cases == 2**9 - 1

    @given(st.integers(1, 10).flatmap(lambda k: st.tuples(st.just(k), st.sets(st.integers(1, 10).filter(lambda x: x <= k)))))
    def test_marker_partition_property(self, data):
        k, members = data
        members = {x for x in members if x <= k}
        c1, c2, c = run_markers(members, k)
        assert not set(c1.members) & set(c2.members)
        # i splits [k] at a boundary of A exactly when one of i, i+1 is in A
        for i in range(1, k):
            boundary = (i in members) != (i + 1 in members)
            assert (i in c.members) == boundary


class TestShuffles:
    def test_preshuffle_paper_example(self):
        got = preshuffle(SubsetLabel.of(4, {2, 3}), SubsetLabel.of(3, {2}), {1, 3, 4}, 4, 3)
        assert set(got.members) == {3, 5, 6}

    def test_preshuffle_table_row(self):
        got = preshuffle(SubsetLabel.of(2, {1}), SubsetLabel.of(3, {2}), {1, 2, 3}, 2, 3)
        assert got.members == (2, 4)

    def test_preshuffle_empty(self):
        got = preshuffle(SubsetLabel.of(2), SubsetLabel.of(2), {1, 3}, 2, 2)
        assert got.members == ()

    def test_a_shuffle_paper_example(self):
        got = a_shuffle(SubsetLabel.of(4, {2, 3}), SubsetLabel.of(3, {2}), {1, 3, 4}, 4, 3)
        assert got.members == (1, 3, 4, 5, 6)

    def test_a_shuffle_degenerate_singletons(self):
        # m = n = 1: the two selectors give the empty set and {1}
        I = SubsetLabel.of(1)
        assert a_shuffle(I, I, {2}, 1, 1).members == ()
        assert a_shuffle(I, I, {1}, 1, 1).members == (1,)

    def test_a_shuffle_j_block_first(self):
        for m in range(1, 5):
            for n in range(1, 5):
                got = a_shuffle(
                    SubsetLabel.of(m), SubsetLabel.of(n), set(range(1, n + 1)), m, n
                )
                assert got.members == (n,)

    def test_a_shuffle_degenerate_sides(self):
        # m = 0 or n = 0 returns the other label unchanged
        for n in range(0, 5):
            for J in subsets(range(1, n)):
                lbl = SubsetLabel.of(n, J)
                assert a_shuffle(SubsetLabel.of(0), lbl, set(range(1, n + 1)), 0, n) == lbl
                assert a_shuffle(lbl, SubsetLabel.of(0), set(), n, 0) == lbl

    def test_selector_validation(self):
        with pytest.raises(ValueError):
            preshuffle(SubsetLabel.of(2), SubsetLabel.of(2), {1}, 2, 2)
        with pytest.raises(ValueError):
            preshuffle(SubsetLabel.of(2), SubsetLabel.of(2), {1, 9}, 2, 2)

    def test_preshuffle_size_invariant(self):
        for m in range(0, 5):
            for n in range(0, 5 - m):
                for I in subsets(range(1, m)):
                    for J in subsets(range(1, n)):
                        for A in itertools.combinations(range(1, m + n + 1), n):
                            got = preshuffle(
                                SubsetLabel.of(m, I), SubsetLabel.of(n, J), A, m, n
                            )
                            assert got.size == len(I) + len(J)
                            assert got.ambient == m + n


class TestSelectorMasks:
    def test_selectors_follow_combinations_order(self):
        for k in range(8):
            for n in range(k + 1):
                expected = [sum(1 << (i - 1) for i in A) for A in itertools.combinations(range(1, k + 1), n)]
                assert list(selectors(k, n)) == expected

    @given(st.integers(0, 2**20 - 1), st.integers(0, 2**20 - 1), st.integers(0, 2**20 - 1))
    def test_rank_maps_invert_each_other(self, pool, sub, ranks):
        sub &= pool
        ranks &= (1 << pool.bit_count()) - 1
        assert members_at(pool, ranks_within(sub, pool)) == sub
        assert ranks_within(members_at(pool, ranks), pool) == ranks
        assert members_at(pool, ranks).bit_count() == ranks.bit_count()

    def test_l_product_masks_match_the_a_shuffles(self):
        # the cached L-product kernel against the public a_shuffle per selector
        cases = 0
        for m in range(8):
            for n in range(8 - m):
                for I in subsets(range(1, m)):
                    for J in subsets(range(1, n)):
                        lbl_i, lbl_j = SubsetLabel.of(m, I), SubsetLabel.of(n, J)
                        selected = itertools.combinations(range(1, m + n + 1), n)
                        expected = Counter(a_shuffle(lbl_i, lbl_j, A, m, n).mask for A in selected)
                        assert dict(_l_product_masks(m, n, lbl_i.mask, lbl_j.mask)) == expected
                        cases += 1
        assert cases == sum(max(2 ** (m - 1), 1) * max(2 ** (n - 1), 1) for m in range(8) for n in range(8 - m))

    @staticmethod
    def bhat_terms_by_selector(k):
        # bhat_coproduct_terms lists one term per A inside [k], by size, then lexicographically
        terms = bhat_coproduct_terms(k)
        assert len(terms) == 2**k
        selected = (A for r in range(k + 1) for A in itertools.combinations(range(1, k + 1), r))
        return dict(zip(selected, terms))

    def test_bhat_coproduct_runs_match_the_run_decomposition(self):
        # alpha_A and beta_A are the run lengths of A and of its complement in [k]
        cases = 0
        for k in range(9):
            universe = frozenset(range(1, k + 1))
            for A, (alpha, beta, _) in self.bhat_terms_by_selector(k).items():
                assert alpha == Composition(map(len, run_decomposition(A))), (k, A)
                assert beta == Composition(map(len, run_decomposition(universe - set(A)))), (k, A)
                cases += 1
        assert cases == 2**9 - 1

    def test_bhat_coproduct_runs_nine_point_example(self):
        alpha, beta, _ = self.bhat_terms_by_selector(9)[(1, 2, 5, 7, 8, 9)]
        assert alpha == Composition((2, 1, 3))
        assert beta == Composition((2, 1))


class TestOverlappingShuffles:
    def test_single_parts(self):
        got = overlapping_shuffles((1,), (1,))
        assert got == Counter({Composition((1, 1)): 2, Composition((2,)): 1})

    def test_empty_is_unit(self):
        gamma = Composition((2, 1))
        assert overlapping_shuffles((), gamma) == Counter({gamma: 1})
        assert overlapping_shuffles(gamma, ()) == Counter({gamma: 1})

    def test_hand_enumerated_case(self):
        got = overlapping_shuffles((1, 1), (2,))
        expected = Counter(
            {
                Composition((1, 1, 2)): 1,
                Composition((1, 2, 1)): 1,
                Composition((2, 1, 1)): 1,
                Composition((1, 3)): 1,
                Composition((3, 1)): 1,
            }
        )
        assert got == expected

    def test_total_count_is_delannoy(self):
        # independent oracle: D(p,q) = D(p-1,q) + D(p,q-1) + D(p-1,q-1)
        def delannoy(p, q):
            table = [[1] * (q + 1) for _ in range(p + 1)]
            for i in range(1, p + 1):
                for j in range(1, q + 1):
                    table[i][j] = table[i - 1][j] + table[i][j - 1] + table[i - 1][j - 1]
            return table[p][q]

        for m in range(0, 5):
            for n in range(0, 5):
                for a in compositions_of(m):
                    for b in compositions_of(n):
                        got = overlapping_shuffles(a, b)
                        assert sum(got.values()) == delannoy(len(a), len(b))
                        assert all(g.size == m + n for g in got)


class TestWords:
    def test_descents(self):
        assert descent_set((1, 4, 3, 2)).members == (2, 3)
        assert descent_set(()).members == ()

    def test_standardize(self):
        assert standardize((3, 1, 2)) == (3, 1, 2)
        assert standardize((5, 9, 2)) == (2, 3, 1)
        assert standardize((2, 2, 1)) == (2, 3, 1)

    def test_shifted_shuffle_example(self):
        got = shifted_shuffle((1, 2), (2, 1), 2)
        expected = {(1, 2, 4, 3), (1, 4, 2, 3), (1, 4, 3, 2), (4, 1, 2, 3), (4, 1, 3, 2), (4, 3, 1, 2)}
        assert set(got) == expected
        assert all(v == 1 for v in got.values())

    def test_shuffle_count(self):
        import math

        for m in range(0, 5):
            for n in range(0, 5):
                u = tuple(range(1, m + 1))
                v = tuple(range(1, n + 1))
                got = shifted_shuffle(u, v, m)
                assert sum(got.values()) == math.comb(m + n, n)
                # disjoint alphabets: all words distinct
                assert len(got) == math.comb(m + n, n)

    def test_shuffle_by_selector_matches_enumeration(self):
        u, v = (1, 3), (2,)
        words = Counter(
            shuffle_by_selector(u, v, A)
            for A in itertools.combinations(range(1, 4), 1)
        )
        assert words == shuffle_words(u, v)

    def test_descent_rep_examples(self):
        # the representatives used in the worked shuffle example
        assert descent_rep(SubsetLabel.of(4, {2, 3})) == (1, 4, 3, 2)
        assert descent_rep(SubsetLabel.of(3, {2})) == (1, 3, 2)

    def test_descent_rep_is_permutation_with_right_descents(self):
        for m in range(0, 7):
            for I in subsets(range(1, m)):
                w = descent_rep(SubsetLabel.of(m, I))
                assert sorted(w) == list(range(1, m + 1))
                assert set(descent_set(w).members) == set(I)

    def test_descent_rep_matches_the_search(self):
        # the closed form against the backtracking search, every I up to ambient 7
        cases = 0
        for m in range(0, 8):
            for I in subsets(range(1, m)):
                label = SubsetLabel.of(m, I)
                assert descent_rep(label) == descent_rep_search(label), label
                cases += 1
        assert cases == 1 + sum(2 ** (m - 1) for m in range(1, 8))


class TestAShuffleDescentLaw:
    def test_descents_of_shuffles_match(self):
        # Des(w_I shuffled via A with shifted w_J) == a_shuffle(I, J, A)
        for m in range(0, 5):
            for n in range(0, 5 - m):
                for I in subsets(range(1, m)):
                    for J in subsets(range(1, n)):
                        w_i = descent_rep(SubsetLabel.of(m, I))
                        w_j = tuple(x + m for x in descent_rep(SubsetLabel.of(n, J)))
                        for A in itertools.combinations(range(1, m + n + 1), n):
                            word = shuffle_by_selector(w_i, w_j, A)
                            assert descent_set(word) == a_shuffle(
                                SubsetLabel.of(m, I), SubsetLabel.of(n, J), A, m, n
                            )
