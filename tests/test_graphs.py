import gc
import math
import random
from collections import Counter
from itertools import permutations

import pytest

import fodef.graphs
from hypothesis import assume, given, settings, strategies as st

from fodef.cli import perturb_hop, perturb_tree
from fodef.families import random_bounded_tree, random_hop
from fodef.graphs import (
    ColoredGraph,
    GraphError,
    are_isomorphic,
    automorphisms,
    check_partial_isomorphism,
    distances_within,
    find_isomorphism,
    flap_classes,
    flap_overlay,
    flaps_of,
    flaps_within,
    group_by_isomorphism,
    iso_invariant_key,
    recolored_flap,
)
from fodef.strategies import StrategyConfig, StrategyMachine

from helpers import (
    brute_automorphisms, brute_isomorphic, brute_similar, reference_flap_overlay,
    reference_flaps_within,
)


def path(n):
    return ColoredGraph.build(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return ColoredGraph.build(n, [(i, (i + 1) % n) for i in range(n)])


def star(n):
    return ColoredGraph.build(n, [(0, i) for i in range(1, n)])


def complete(n):
    return ColoredGraph.build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


@st.composite
def small_graphs(draw, max_n=6, colored=True):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    colors = None
    if colored and draw(st.booleans()):
        colors = [draw(st.sets(st.integers(0, 2), max_size=2)) for _ in range(n)]
    return ColoredGraph.build(n, edges, colors)


@st.composite
def small_forests(draw, max_n=7):
    # vertex v > 0 hangs from an earlier vertex or starts a new tree
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)
             if draw(st.integers(0, 3))]
    colors = [draw(st.sets(st.integers(0, 1), max_size=1)) for _ in range(n)]
    return ColoredGraph.build(n, edges, colors)


def relabel(g, perm):
    """The copy of g with vertex v renamed perm[v]."""
    inv = {w: v for v, w in enumerate(perm)}
    return ColoredGraph.build(g.n, [(perm[u], perm[v]) for u, v in g.edges()],
                              [g.colors[inv[i]] for i in range(g.n)])


@st.composite
def relabelled_batches(draw):
    """Small graphs, some of them forests, each with up to two relabelled
    copies, in shuffled order."""
    batch = []
    for g in draw(st.lists(st.one_of(small_graphs(max_n=5), small_forests(max_n=6)),
                           min_size=1, max_size=5)):
        batch.append(g)
        for _ in range(draw(st.integers(0, 2))):
            batch.append(relabel(g, draw(st.permutations(range(g.n)))))
    return [batch[i] for i in draw(st.permutations(range(len(batch))))]


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            ColoredGraph.build(2, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError):
            ColoredGraph.build(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            ColoredGraph.build(2, [(0, 5)])

    def test_json_roundtrip(self):
        g = ColoredGraph.build(3, [(0, 1), (1, 2)], [[1], [], [0, 2]])
        h = ColoredGraph.from_json(g.to_json())
        assert g == h

    def test_json_rejects_non_integer_ids(self):
        for text in ('{"n": 3, "edges": [[0, 1], [1, "a"]]}',
                     '{"n": 3, "edges": [[0, true]]}',
                     '{"n": 3, "edges": [[0, 1, 2]]}',
                     '{"n": 3, "edges": {"0": 1}}',
                     '{"n": 3.0, "edges": []}',
                     '{"n": null}'):
            with pytest.raises(GraphError, match="graph JSON"):
                ColoredGraph.from_json(text)

    def test_edge_list_parse(self):
        g = ColoredGraph.from_edge_list("3 2\n0 1\n1 2\n")
        assert g == path(3)

    @given(small_graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_induced_matches_build(self, g, data):
        vs = sorted(data.draw(st.sets(st.integers(0, g.n - 1))))
        idx = {v: i for i, v in enumerate(vs)}
        want = ColoredGraph.build(len(vs), [(idx[u], idx[v]) for u, v in g.edges()
                                            if u in idx and v in idx],
                                  [g.colors[v] for v in vs])
        assert g.induced(vs) == (want, idx)
        assert g.components(within=frozenset(vs)) == [
            tuple(vs[i] for i in c) for c in want.components()]

    @given(st.integers(1, 30), st.integers(0, 10**6), st.data())
    @settings(max_examples=80, deadline=None)
    def test_components_match_union_find(self, n, seed, data):
        # ids up to 30 in small sets, so a set's iteration order is not
        # always ascending
        rng = random.Random(seed)
        g = ColoredGraph.build(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                   if rng.random() < 2 / n])
        within = data.draw(st.one_of(st.none(), st.frozensets(st.integers(0, n - 1))))
        vs = range(g.n) if within is None else within
        root = {v: v for v in vs}

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        for u, v in g.edges():
            if u in root and v in root:
                root[find(u)] = find(v)
        comps: dict[int, list[int]] = {}
        for v in sorted(vs):
            comps.setdefault(find(v), []).append(v)
        assert g.components(within) == [tuple(c) for c in comps.values()]

    def test_components_reject_out_of_range(self):
        # a negative id would wrap around in adj and be answered silently
        for within, bad in (({-1, 0}, -1), ({0, 4}, 4), ({9}, 9)):
            with pytest.raises(GraphError, match=f"vertex {bad} out of range"):
                path(4).components(frozenset(within))

    def test_induced_rejects_out_of_range(self):
        # the least vertex out of range is named
        for vs, bad in (([0, 3], 3), ([-1, 1], -1), ([9, 1, 5], 5)):
            with pytest.raises(GraphError, match=f"vertex {bad} out of range"):
                path(3).induced(vs)


def fresh_colors(g, x):
    """One color per separator vertex, above every color of g."""
    return [g.max_color() + 1 + i for i in range(len(x))]


class TestFlapDecompose:
    """The X-flaps of `flaps_of` and their `recolored_flap`s."""

    def test_c4_antipodal(self):
        g, x = cycle(4), [0, 2]
        assert flaps_of(g, x) == ((1,), (3,))
        for flap in flaps_of(g, x):
            # single vertex adjacent to both separator vertices
            rec = recolored_flap(g, flap, x, fresh_colors(g, x))
            assert rec.colors[0] == frozenset(fresh_colors(g, x))

    def test_p5_center(self):
        g, x = path(5), [2]
        assert flaps_of(g, x) == ((0, 1), (3, 4))
        a1 = fresh_colors(g, x)[0]
        left, right = (recolored_flap(g, f, x, [a1]) for f in flaps_of(g, x))
        assert left.colors[1] == frozenset({a1})  # vertex 1 touches the separator
        assert left.colors[0] == frozenset()
        assert right.colors[0] == frozenset({a1})  # vertex 3

    def test_empty_separator(self):
        assert flaps_of(complete(4), []) == ((0, 1, 2, 3),)
        assert are_isomorphic(recolored_flap(complete(4), (0, 1, 2, 3), [], []),
                              complete(4))

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            flaps_of(path(3), [7])

    @given(small_graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_recolored_flap_matches_recoloring_g(self, g, data):
        # recoloring the flap's subgraph is recoloring g and then inducing
        sep = sorted(data.draw(st.sets(st.integers(0, g.n - 1), max_size=2)))
        fresh = fresh_colors(g, sep)
        base = {v: {9} for v in range(0, g.n, 2)}
        for flap in flaps_of(g, sep):
            whole = g.with_extra_colors(flap_overlay(g, flap, sep, fresh, base))
            assert recolored_flap(g, flap, sep, fresh, base) == whole.induced(flap)[0]

    def test_fresh_colors_distinct_from_base(self):
        # the strategy draws each level's fresh colors above every color of
        # both graphs, so they never meet a base color
        g = ColoredGraph.build(4, [(0, 1), (1, 2), (2, 3)], [[5], [], [3], []])
        h = ColoredGraph.build(4, [(0, 1), (1, 2), (2, 3)], [[], [], [], [6]])
        assert StrategyMachine.start(g, h, StrategyConfig()).color_counter > 6

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_flaps_partition_and_are_connected(self, g):
        x = [v for v in range(g.n) if v % 3 == 0][:2]
        flaps = flaps_of(g, x)
        covered = [v for f in flaps for v in f]
        assert sorted(covered) == sorted(set(range(g.n)) - set(x))
        for f in flaps:
            sub, _ = g.induced(f)
            assert sub.is_connected()
        # no edge joins two distinct flaps
        for i, f in enumerate(flaps):
            for j, f2 in enumerate(flaps):
                if i < j:
                    assert not any(g.has_edge(u, v) for u in f for v in f2)


@st.composite
def split_graphs(draw):
    """random_bounded_tree or random_hop, as drawn or with one perturbation
    of the kind `fodef verify` draws opponents with."""
    family = draw(st.sampled_from(["tree", "hop"]))
    n = draw(st.integers(min_value=3, max_value=40))
    seed = draw(st.integers(min_value=1, max_value=10 ** 6))
    g = random_bounded_tree(n, 3, seed) if family == "tree" else random_hop(n, seed)
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
        g = perturb_tree(g, rng) if family == "tree" else perturb_hop(g, rng)
    return g


class TestFlapsWithin:
    """The split of a connected domain by searches from its cut against
    `components` over the whole rest, the split it replaced."""

    @given(split_graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_components_on_a_recursive_split(self, g, data):
        # every flap of every split is split again, by 1-5 of its vertices
        doms = [frozenset(c) for c in g.components()]
        while doms:
            dom = doms.pop()
            cut = data.draw(st.lists(st.sampled_from(sorted(dom)), min_size=1,
                                     max_size=min(5, len(dom)), unique=True))
            flaps = flaps_within(g, dom, cut)
            assert flaps == reference_flaps_within(g, dom, cut)
            doms += flaps

    def test_cut_vertex_with_one_neighbor(self):
        # one search: the one flap is the rest of the domain, with no walk
        g = path(6)
        assert flaps_within(g, frozenset(range(6)), [0]) == [frozenset(range(1, 6))]
        assert flaps_within(g, frozenset(range(6)), [1]) == [
            frozenset({0}), frozenset(range(2, 6))]
        assert flaps_within(g, frozenset(range(3, 6)), [5]) == [frozenset({3, 4})]

    def test_searches_that_meet_merge(self):
        # both neighbors of 0 start a search in the one flap; on a HOP
        # graph the searches from a chord's ends meet around a face
        g = cycle(8)
        assert flaps_within(g, frozenset(range(8)), [0]) == [frozenset(range(1, 8))]
        assert flaps_within(g, frozenset(range(8)), [0, 4]) == [
            frozenset({1, 2, 3}), frozenset({5, 6, 7})]
        for seed in range(1, 30):
            h = random_hop(16, seed)
            for cut in ([0], [0, 8], [3, 5, 11]):
                assert flaps_within(h, frozenset(range(16)), cut) == \
                    reference_flaps_within(h, frozenset(range(16)), cut)

    def test_empty_rest(self):
        assert flaps_within(path(2), frozenset({0, 1}), [0, 1]) == []
        assert flaps_within(path(3), frozenset({1}), [1]) == []


class TestFlapOverlay:
    @given(small_graphs(max_n=7), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_per_vertex_walk(self, g, data):
        # base entries outside the flap, empty ones and separator vertices
        # inside the flap included; the flap as a set, a dict and a tuple
        vs = st.sampled_from(range(g.n))
        flap = frozenset(data.draw(st.sets(vs)))
        sep = data.draw(st.lists(vs, unique=True, max_size=3))
        fresh = fresh_colors(g, sep)
        base = data.draw(st.none() | st.dictionaries(vs, st.sets(st.integers(0, 3),
                                                                 max_size=2)))
        want = reference_flap_overlay(g, flap, sep, fresh, base)
        for as_given in (flap, dict.fromkeys(sorted(flap)), tuple(sorted(flap))):
            assert flap_overlay(g, as_given, sep, fresh, base) == want

    def test_base_outside_the_flap_is_dropped(self):
        g = path(5)
        got = flap_overlay(g, frozenset({3, 4}), [2], [7], {0: {1}, 3: {2}, 4: set()})
        assert got == {3: frozenset({2, 7})}


class TestIsomorphism:
    def test_c4_relabeled(self):
        h = ColoredGraph.build(4, [(2, 0), (0, 3), (3, 1), (1, 2)])
        m = find_isomorphism(cycle(4), h)
        assert m is not None
        assert check_partial_isomorphism(cycle(4), h, list(m.items()))

    def test_p4_vs_star(self):
        assert not are_isomorphic(path(4), star(4))

    def test_colored_endpoint_vs_midpoint(self):
        a = ColoredGraph.build(3, [(0, 1), (1, 2)], [[1], [], []])
        b = ColoredGraph.build(3, [(0, 1), (1, 2)], [[], [1], []])
        assert not are_isomorphic(a, b)

    @given(small_graphs(max_n=5), small_graphs(max_n=5))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, g, h):
        assert are_isomorphic(g, h) == brute_isomorphic(g, h)

    @given(small_graphs(max_n=5))
    @settings(max_examples=30, deadline=None)
    def test_equivalence_relation_on_samples(self, g):
        assert are_isomorphic(g, g)
        h = ColoredGraph.build(
            g.n, [(g.n - 1 - u, g.n - 1 - v) for u, v in g.edges()],
            [g.colors[g.n - 1 - i] for i in range(g.n)])
        assert are_isomorphic(g, h) and are_isomorphic(h, g)

    @given(small_graphs(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_witness_is_full_partial_isomorphism(self, g):
        perm = [(v * 7 + 3) % g.n for v in range(g.n)]
        if len(set(perm)) != g.n:
            perm = list(reversed(range(g.n)))
        h = ColoredGraph.build(
            g.n, [(perm[u], perm[v]) for u, v in g.edges()],
            [g.colors[perm.index(i)] for i in range(g.n)])
        m = find_isomorphism(g, h)
        assert m is not None
        assert check_partial_isomorphism(g, h, list(m.items()))

    def test_automorphisms_leave_no_garbage(self):
        # the search holds no reference cycle, so its result is freed as
        # soon as it is dropped, not at the next full collection
        listed = brute_automorphisms(cycle(6))
        assert len(listed) == 12
        gc.collect()
        gc.disable()
        try:
            found = automorphisms(cycle(6))
            assert sorted(tuple(a[v] for v in range(6)) for a in found) == listed
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_big_tree_fast_path(self):
        # two paths on 400 vertices with different colorings
        a = ColoredGraph.build(400, [(i, i + 1) for i in range(399)])
        b = ColoredGraph.build(400, [(i, i + 1) for i in range(399)],
                               [[1] if i == 0 else [] for i in range(400)])
        assert are_isomorphic(a, a)
        assert not are_isomorphic(a, b)


@st.composite
def forests_with_moved_edge(draw, same_degrees):
    """An uncolored forest of order 4 to 7 and the forest made from it by
    moving one edge to join the two trees its removal leaves, with equal or
    with unequal degree multisets as `same_degrees` asks.

    Moving edge ab to cd keeps the degree multiset exactly when a, b and
    c, d have the same degrees without it, so the new endpoints are drawn
    among the pairs whose degrees match or differ as asked.  Only a forest
    with no such move is rejected."""
    n = draw(st.integers(min_value=4, max_value=7))
    # vertex v > 0 hangs from an earlier vertex, counted back from v - 1, or
    # one time in eight starts a new tree; the simplest draws make a path,
    # which has moves of both kinds, where stars have none
    edges = [(v - 1 - draw(st.integers(0, v - 1)), v) for v in range(1, n)
             if draw(st.integers(0, 7)) < 7]
    moves = {}
    for gone in edges:
        rest = [e for e in edges if e != gone]
        deg = Counter(v for e in rest for v in e)
        sides = ColoredGraph.build(n, rest).components()
        left = next(c for c in sides if gone[0] in c)
        right = next(c for c in sides if gone[1] in c)
        old = sorted((deg[gone[0]], deg[gone[1]]))
        new = [tuple(sorted((a, b))) for a in left for b in right
               if (a, b) != gone and (sorted((deg[a], deg[b])) == old) == same_degrees]
        if new:
            moves[gone] = new
    assume(moves)
    gone = draw(st.sampled_from(sorted(moves)))
    rest = [e for e in edges if e != gone]
    h = ColoredGraph.build(n, rest + [draw(st.sampled_from(moves[gone]))])
    return ColoredGraph.build(n, edges), h


class TestForestIsomorphism:
    @pytest.mark.parametrize("same_degrees", [True, False], ids=["equal", "unequal"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_moved_edge_matches_brute_force(self, same_degrees, data):
        g, h = data.draw(forests_with_moved_edge(same_degrees))
        assert are_isomorphic(g, h) == brute_isomorphic(g, h)
        assert are_isomorphic(h, g) == are_isomorphic(g, h)


class TestGrouping:
    @given(relabelled_batches())
    @settings(max_examples=40, deadline=None)
    def test_partition_matches_brute_force(self, graphs):
        expected: list[list[int]] = []
        for i, g in enumerate(graphs):
            for cls in expected:
                if brute_isomorphic(graphs[cls[0]], g):
                    cls.append(i)
                    break
            else:
                expected.append([i])
        assert group_by_isomorphism(iter(graphs)) == expected

    @given(small_forests(max_n=14), st.randoms(use_true_random=False), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_forest_key_is_complete(self, g, rng, move_leaf):
        # equal forest keys exactly when an isomorphism exists
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        leaves = [v for v in range(h.n) if h.degree(v) == 1]
        if move_leaf and leaves and h.n > 2:
            leaf = leaves[0]
            (old,) = h.adj[leaf]
            new = rng.choice([v for v in range(h.n) if v not in (leaf, old)])
            rest = [e for e in h.edges() if leaf not in e]
            h = ColoredGraph.build(h.n, rest + [(leaf, new)], h.colors)
        assert iso_invariant_key(g)[0] == iso_invariant_key(h)[0] == "forest"
        same = find_isomorphism(g, h) is not None
        assert (iso_invariant_key(g) == iso_invariant_key(h)) == same
        assert are_isomorphic(g, h) == same

    @given(small_graphs(max_n=7), st.data())
    @settings(max_examples=80, deadline=None)
    def test_key_is_complete(self, g, data):
        # equal keys exactly when an isomorphism exists, on a relabelled
        # copy, as it is, with one vertex pair toggled or with one edge moved
        h = relabel(g, data.draw(st.permutations(range(g.n))))
        edges = set(h.edges())
        pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
        edit = data.draw(st.sampled_from(["none", "toggle", "move"]))
        if edit == "toggle" and pairs:
            edges ^= {data.draw(st.sampled_from(pairs))}
        elif edit == "move" and edges and len(edges) < len(pairs):
            edges.remove(data.draw(st.sampled_from(sorted(edges))))
            edges.add(data.draw(st.sampled_from([e for e in pairs if e not in edges])))
        h = ColoredGraph.build(h.n, sorted(edges), h.colors)
        same = brute_isomorphic(g, h)
        assert (iso_invariant_key(g) == iso_invariant_key(h)) == same
        m = find_isomorphism(g, h)
        assert (m is not None) == same
        if same:
            assert sorted(m) == list(range(g.n))
            assert check_partial_isomorphism(g, h, list(m.items()))

    def test_forest_key_skips_refinement(self, monkeypatch):
        # forests never enter the partition refinement or the search
        def refine(*args):
            raise AssertionError("refinement ran on a forest")

        monkeypatch.setattr(fodef.graphs, "_equitable", refine)
        monkeypatch.setattr(fodef.graphs, "_canonical", refine)
        colored = ColoredGraph.build(4, [(0, 1), (2, 3)], [[1], [], [], [0, 2]])
        for g in (path(40), star(6), colored, ColoredGraph.build(3, [])):
            assert iso_invariant_key(g)[0] == "forest"


class TestDeepForests:
    # a path this long once overflowed the recursive tree code
    N = 3000

    def copies(self):
        g = path(self.N)
        perm = list(range(self.N))
        random.Random(7).shuffle(perm)
        same = relabel(g, perm)
        recolored = ColoredGraph.build(
            self.N, list(same.edges()),
            [[1] if v == perm[self.N // 3] else [] for v in range(self.N)])
        return g, same, recolored

    def test_are_isomorphic(self):
        g, same, recolored = self.copies()
        assert are_isomorphic(g, same)
        assert not are_isomorphic(g, recolored)

    def test_group_by_isomorphism(self):
        g, same, recolored = self.copies()
        assert group_by_isomorphism([recolored, g, same]) == [[0], [1, 2]]


class TestDeepCycles:
    # a cycle this long once overflowed the recursive matching search
    N = 3000

    def copies(self):
        g = cycle(self.N)
        perm = list(range(self.N))
        random.Random(7).shuffle(perm)
        same = relabel(g, perm)
        recolored = ColoredGraph.build(
            self.N, list(same.edges()),
            [[1] if v == perm[self.N // 3] else [] for v in range(self.N)])
        return g, same, recolored

    def test_find_isomorphism(self):
        g, same, recolored = self.copies()
        m = find_isomorphism(g, same)
        assert sorted(m.values()) == list(range(self.N))
        assert all(same.has_edge(m[u], m[v]) for u, v in g.edges())
        assert find_isomorphism(g, recolored) is None

    def test_are_isomorphic_refines_jointly(self, monkeypatch):
        # the root partitions of the cycle and of its recolored copy differ,
        # so the pair is rejected after one refinement each, with no search
        g, same, recolored = self.copies()
        calls = []
        for name in ("_equitable", "_canonical"):
            def counted(*args, _name=name, _call=getattr(fodef.graphs, name)):
                calls.append(_name)
                return _call(*args)

            monkeypatch.setattr(fodef.graphs, name, counted)
        assert are_isomorphic(g, same)
        assert "_canonical" in calls
        calls.clear()
        # g's root partition is kept, so only the recolored copy is refined
        assert not are_isomorphic(g, recolored)
        assert not are_isomorphic(recolored, g)
        assert calls == ["_equitable"]


class TestFactsKept:
    def test_one_against_many_computes_each_fact_once(self, monkeypatch):
        # comparing one graph with many, both ways round and again, codes,
        # refines and searches each graph object at most once
        calls = Counter()
        for name in ("_root", "_forest_code", "_canonical"):
            def counted(g, *rest, _name=name, _call=getattr(fodef.graphs, name)):
                calls[_name, id(g)] += 1
                return _call(g, *rest)

            monkeypatch.setattr(fodef.graphs, name, counted)
        rng = random.Random(5)
        kept = []  # every graph stays alive, so that no id is reused
        for base, perturb in ((random_bounded_tree(40, 3, 1), perturb_tree),
                              (random_hop(40, 1), perturb_hop)):
            others = [relabel(base, rng.sample(range(40), 40)) for _ in range(4)]
            others += [perturb(base, rng) for _ in range(4)]
            kept += [base] + others
            for _ in range(2):
                for h in others:
                    assert are_isomorphic(base, h) == are_isomorphic(h, base)
        assert {name for name, _ in calls} == {"_root", "_forest_code", "_canonical"}
        assert max(calls.values()) == 1


class TestPartialIsomorphism:
    def test_rotation_restriction(self):
        assert check_partial_isomorphism(cycle(4), cycle(4), [(0, 1), (1, 2)])

    def test_adjacent_to_non_adjacent(self):
        assert not check_partial_isomorphism(cycle(3), cycle(4), [(0, 0), (1, 2)])

    def test_equality_condition(self):
        assert not check_partial_isomorphism(cycle(4), cycle(4), [(0, 0), (0, 1)])
        # mirrored duplicates are fine
        assert check_partial_isomorphism(cycle(4), cycle(4), [(0, 0), (0, 0)])


class TestDistance:
    def test_distances_within_rejects_out_of_range_source(self):
        for source in (9, -1):
            with pytest.raises(GraphError, match=f"vertex {source} out of range"):
                distances_within(path(4), source, frozenset({source}))

    def test_path_end_to_end(self):
        assert distances_within(path(5), 0, frozenset(range(5)))[4] == 4

    def test_distance_to_set(self):
        dist = distances_within(path(5), 0, frozenset(range(5)))
        assert min(dist[v] for v in (2, 4)) == 2

    def test_disconnected_is_infinite(self):
        g = ColoredGraph.build(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert sorted(distances_within(g, 0, frozenset(range(6)))) == [0, 1, 2]

    @given(small_graphs(max_n=6, colored=False))
    @settings(max_examples=40, deadline=None)
    def test_metric_properties(self, g):
        every = frozenset(range(g.n))
        dist = [distances_within(g, u, every) for u in range(g.n)]
        for u in range(g.n):
            assert dist[u][u] == 0
            for v in range(g.n):
                duv = dist[u].get(v, math.inf)
                assert duv == dist[v].get(u, math.inf)
                for w in range(g.n):
                    assert duv <= dist[u].get(w, math.inf) + dist[w].get(v, math.inf)


def census(g, x):
    """The X-flaps of g and their `flap_classes`."""
    flaps = flaps_of(g, x)
    return flaps, flap_classes([(g, f, x, None) for f in flaps], fresh_colors(g, x))


def brute_paired_similar(one, two):
    """Is there a bijection between the flaps of two (graph, flap, separator,
    base colors) items that keeps colors with the base colors added, edges
    inside the flap, and adjacency to the i-th separator vertex?"""
    (g, f1, x, base_g), (h, f2, y, base_h) = one, two
    if len(f1) != len(f2):
        return False

    def colors(gr, base, v):
        return gr.colors[v] | frozenset(base.get(v, ()))

    for perm in permutations(f2):
        m = dict(zip(f1, perm))
        if all(colors(g, base_g, v) == colors(h, base_h, m[v]) for v in f1) and all(
                g.has_edge(u, v) == h.has_edge(m[u], m[v]) for u in f1 for v in f1
        ) and all(g.has_edge(v, a) == h.has_edge(m[v], b)
                  for v in f1 for a, b in zip(x, y)):
            return True
    return False


class TestSimilarFlaps:
    def test_star_center(self):
        _, classes = census(star(5), [0])
        assert max(map(len, classes)) == 4
        assert len(classes) == 1

    def test_p5_mirror(self):
        _, classes = census(path(5), [2])
        assert max(map(len, classes)) == 2

    @given(small_graphs(max_n=6, colored=False))
    @settings(max_examples=40, deadline=None)
    def test_census_matches_identity_extension_oracle(self, g):
        x = [v for v in range(g.n) if v % 2 == 0][:2]
        flaps, classes = census(g, x)
        groups = {i: gi for gi, grp in enumerate(classes) for i in grp}
        for i in range(len(flaps)):
            for j in range(i + 1, len(flaps)):
                same = brute_similar(g, x, flaps[i], flaps[j])
                assert same == (groups[i] == groups[j])

    @given(small_graphs(max_n=7, colored=False), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_connected_census_bounded_by_max_degree(self, g, k):
        if not g.is_connected() or g.n < 2:
            return
        x = sorted({(v * 5 + 1) % g.n for v in range(k)})
        _, classes = census(g, x)
        assert max(map(len, classes), default=0) <= max(1, g.max_degree())

    @given(small_graphs(max_n=6), st.data())
    @settings(max_examples=80, deadline=None)
    def test_two_graph_classes_match_brute_force(self, g, data):
        # X and Y are paired in order, and both sides carry base colors 3
        # and 4 above the graphs' colors 0..2; H, Y and H's base colors are
        # drawn freely, or as G's relabelled, so that classes span both
        k = data.draw(st.integers(0, min(2, g.n)))
        x = data.draw(st.lists(st.integers(0, g.n - 1), min_size=k, max_size=k,
                               unique=True))

        def base_colors(gr):
            return data.draw(st.dictionaries(st.integers(0, gr.n - 1),
                                             st.sets(st.integers(3, 4), max_size=1)))

        base_g = base_colors(g)
        if data.draw(st.booleans()):
            perm = data.draw(st.permutations(range(g.n)))
            h, y = relabel(g, perm), [perm[v] for v in x]
            base_h = {perm[v]: cs for v, cs in base_g.items()}
        else:
            h = data.draw(small_graphs(max_n=6).filter(lambda gr: gr.n >= k))
            y = data.draw(st.lists(st.integers(0, h.n - 1), min_size=k,
                                   max_size=k, unique=True))
            base_h = base_colors(h)
        items = ([(g, f, x, base_g) for f in flaps_of(g, x)]
                 + [(h, f, y, base_h) for f in flaps_of(h, y)])
        classes = flap_classes(items, [5, 6])
        assert sorted(i for c in classes for i in c) == list(range(len(items)))
        assert [c[0] for c in classes] == sorted(c[0] for c in classes)
        assert all(c == sorted(c) for c in classes)
        group = {i: ci for ci, c in enumerate(classes) for i in c}
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                same = brute_paired_similar(items[i], items[j])
                assert same == (group[i] == group[j])
