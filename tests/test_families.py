import hashlib
import heapq
import random

import pytest
from hypothesis import given, settings, strategies as st

from fodef.families import (
    FamilySpec, enumerate_graphs, enumerate_hop_graphs, generate,
    path, cycle, two_cycles, star, complete, triv,
    random_bounded_tree, random_hop, _random_triangulation_chords,
)
from fodef.graphs import ColoredGraph, GraphError, are_isomorphic

from helpers import brute_all_graphs, brute_isomorphic, brute_outerplanar, brute_two_connected


def reference_bounded_tree(n: int, d: int, seed: int) -> ColoredGraph:
    """random_bounded_tree as it was before the sorted eligible list: the
    list is rebuilt at every step, O(n^2)."""
    if n == 1:
        return ColoredGraph.build(1, [])
    if n == 2:
        return ColoredGraph.build(2, [(0, 1)])
    rng = random.Random(seed)
    count = [0] * n
    seq = []
    for _ in range(n - 2):
        eligible = [v for v in range(n) if count[v] < d - 1]
        v = rng.choice(eligible)
        count[v] += 1
        seq.append(v)
    # standard sequence decode
    degree = [c + 1 for c in count]
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((u, w))
    return ColoredGraph.build(n, edges)


def reference_triangulation_chords(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """_random_triangulation_chords as it was before the explicit stack."""
    chords: list[tuple[int, int]] = []

    def tri(i: int, j: int):
        # polygon arc i..j (cyclic positions, i<j); split at a random k
        if j - i < 2:
            return
        k = rng.randint(i + 1, j - 1)
        if k - i >= 2:
            chords.append((i, k))
        if j - k >= 2:
            chords.append((k, j))
        tri(i, k)
        tri(k, j)

    if n >= 4:
        tri(0, n - 1)
    return chords


class TestGenerators:
    def test_star4(self):
        g = star(4)
        assert g.degree(0) == 3
        assert g.edge_count() == 3

    def test_triv_2_4(self):
        g = triv(2, 4)
        assert g.n == 8
        assert g.edge_count() == 2
        assert g.max_degree() == 1

    def test_two_cycles(self):
        g = two_cycles(4)
        assert g.n == 8
        assert len(g.components()) == 2

    def test_size_guards(self):
        with pytest.raises(GraphError):
            cycle(2)
        with pytest.raises(GraphError):
            star(1)

    def test_generate_dispatch(self):
        assert are_isomorphic(generate(FamilySpec("path", n=4)), path(4))
        assert are_isomorphic(generate(FamilySpec("triv", a=1, b=2)), triv(1, 2))
        with pytest.raises(GraphError):
            generate(FamilySpec("nonsense", n=3))

    @given(st.integers(2, 40), st.integers(2, 5), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_random_tree_properties(self, n, d, seed):
        g = random_bounded_tree(n, d, seed)
        assert g.n == n
        assert g.edge_count() == n - 1
        assert g.is_connected()
        assert g.max_degree() <= d

    @given(st.integers(1, 300), st.sampled_from([2, 3, 4]), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_random_tree_matches_reference(self, n, d, seed):
        got = random_bounded_tree(n, d, seed)
        assert list(got.edges()) == list(reference_bounded_tree(n, d, seed).edges())

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_tree_large_degree_bound(self, seed):
        g = random_bounded_tree(20000, 3, seed)
        assert g.edge_count() == 19999 and g.max_degree() <= 3

    @given(st.integers(0, 300), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_triangulation_matches_reference(self, n, seed):
        got = _random_triangulation_chords(n, random.Random(seed))
        assert got == reference_triangulation_chords(n, random.Random(seed))

    def test_random_tree_reproducible(self):
        a = random_bounded_tree(20, 3, 99)
        b = random_bounded_tree(20, 3, 99)
        assert a == b

    @given(st.integers(3, 30), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_random_hop_two_connected_outerplanar(self, n, seed):
        g = random_hop(n, seed)
        assert g.n == n
        # spanning cycle 0..n-1 present
        for i in range(n):
            assert g.has_edge(i, (i + 1) % n)
        if n <= 8:
            assert brute_two_connected(g)
            assert brute_outerplanar(g)

    def test_random_hop_classified(self):
        from fodef.separators import classify_o
        g = random_hop(12, 7)
        assert classify_o(g).tag == "HOP"


class TestEnumeration:
    def test_counts(self):
        assert len(list(enumerate_graphs(1))) == 1
        assert len(list(enumerate_graphs(2))) == 2
        assert len(list(enumerate_graphs(3))) == 4
        assert len(list(enumerate_graphs(4))) == 11

    def test_matches_raw_scan(self):
        for n in (2, 3, 4):
            ours = list(enumerate_graphs(n))
            brute = brute_all_graphs(n)
            assert len(ours) == len(brute)
            for b in brute:
                assert sum(1 for g in ours if brute_isomorphic(g, b)) == 1

    def test_pairwise_non_isomorphic(self):
        graphs = list(enumerate_graphs(5))
        assert len(graphs) == 34
        for i in range(len(graphs)):
            for j in range(i + 1, len(graphs)):
                assert not are_isomorphic(graphs[i], graphs[j])

    def test_pinned_order(self):
        # the benchmark's exhaustive and oracle pairs are drawn from this list
        digest = hashlib.sha256()
        for n in range(1, 7):
            digest.update(repr([sorted(g.edges()) for g in enumerate_graphs(n)]).encode())
        assert digest.hexdigest() == (
            "0d21686bfc8bff085147bed84e1b7a4155501e50a610dab6e186e2b0d015a9b4")

    def test_connected_filter(self):
        assert len(list(enumerate_graphs(4, connected_only=True))) == 6
        assert len(list(enumerate_graphs(5, connected_only=True))) == 21

    def test_cap(self):
        with pytest.raises(GraphError):
            list(enumerate_graphs(9))


class TestHopEnumeration:
    def test_small_counts(self):
        # n=3: triangle only; n=4: C4 and C4 + one chord
        assert len(enumerate_hop_graphs(3)) == 1
        assert len(enumerate_hop_graphs(4)) == 2

    def test_all_members_hop(self):
        for n in (3, 4, 5, 6):
            for g in enumerate_hop_graphs(n):
                assert brute_two_connected(g) or n < 3
                assert brute_outerplanar(g)

    def test_pairwise_distinct(self):
        for n in (5, 6):
            gs = enumerate_hop_graphs(n)
            for i in range(len(gs)):
                for j in range(i + 1, len(gs)):
                    assert not are_isomorphic(gs[i], gs[j])

    def test_complete_against_general_enumeration(self):
        # every 2-connected outerplanar graph of order <= 6 appears
        for n in (3, 4, 5, 6):
            target = [g for g in enumerate_graphs(n)
                      if brute_two_connected(g) and brute_outerplanar(g)]
            ours = enumerate_hop_graphs(n)
            assert len(ours) == len(target)
            for t in target:
                assert sum(1 for g in ours if are_isomorphic(g, t)) == 1
