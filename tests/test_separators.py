import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from fodef.families import (
    cycle, complete, enumerate_graphs, enumerate_hop_graphs, path,
    random_bounded_tree, random_hop, star, _random_triangulation_chords,
)
from fodef.graphs import BudgetExceeded, ColoredGraph, GraphError, are_isomorphic, flaps_of
from fodef.separators import (
    EDHOP1, EDHOP2, HOP, NOT_IN_O,
    OClassification, SeparatorError,
    brute_min_separator, chords_cross, chords_non_crossing, class_o_separator,
    classify_o, inner_faces,
    tree_centroid_separator, verify_separator,
    _chords, _cut_vertices, _edhop1_completion, _find_split_pair, _norm,
)

from helpers import (
    brute_classify_o, brute_edhop1_completion, brute_outerplanar,
    brute_two_connected, reference_tree_centroid,
)


@st.composite
def chord_sets(draw):
    """Up to ten chords (p, q), p < q, on n <= 12 cycle positions; repeated
    endpoints and repeated chords are common."""
    n = draw(st.integers(2, 12))
    ends = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    return [tuple(sorted(e)) for e in draw(st.lists(ends, max_size=10))]


@st.composite
def connected_with_subset(draw):
    """A connected graph of order <= 10, a random parent for each vertex
    plus, half of the time, extra edges; and a random vertex list X."""
    n = draw(st.integers(1, 10))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if n > 2 and draw(st.booleans()):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    x = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    return ColoredGraph.build(n, sorted(edges)), x


@st.composite
def non_crossing_chords(draw, min_n=3):
    """The chords of a random triangulation of the n-gon, min_n <= n <= 40,
    each kept with a drawn probability: from none or a few (sparse sets,
    where no chord is balanced) to all of them, in a shuffled order."""
    n = draw(st.integers(min_n, 40))
    rng = random.Random(draw(st.integers(0, 10**6)))
    keep = draw(st.sampled_from([0.0, 0.05, 0.15, 0.5, 1.0]))
    chords = [c for c in _random_triangulation_chords(n, rng) if rng.random() < keep]
    rng.shuffle(chords)
    return n, chords


def reference_find_split_pair(n, chords):
    """_find_split_pair as it was before the face walk, kept as the
    reference: its fallback tests every (gap, start) against every chord."""
    balanced_chord = None
    for p, q in chords:
        arc1, arc2 = q - p - 1, n - (q - p) - 1
        if 3 * arc1 <= 2 * n and 3 * arc2 <= 2 * n:
            score = max(arc1, arc2)
            if balanced_chord is None or score < balanced_chord[0]:
                balanced_chord = (score, (p, q))
    if balanced_chord is not None:
        return balanced_chord[1]

    def separates(i: int, gap: int, chord: tuple[int, int]) -> bool:
        def side(x: int) -> int:
            rel = (x - i) % n
            if rel == 0 or rel == gap:
                return 0
            return 1 if rel < gap else 2
        a, b = side(chord[0]), side(chord[1])
        return {a, b} == {1, 2}

    gaps = [gp for gp in range(2, n // 2 + 1)
            if 3 * (gp - 1) <= 2 * n and 3 * (n - gp - 1) <= 2 * n]
    gaps.sort(key=lambda gp: abs(gp - n / 2))
    for gap in gaps:
        for i in range(n):
            j = (i + gap) % n
            if all(not separates(i, gap, c) for c in chords):
                return _norm(i, j)
    return None


def flap_subproblem(g, res, i):
    """The i-th flap of a separator result as a graph, with its certificate."""
    return g.induced(res.flaps[i])[0], res.tags[i]


def hop_less_edges(n):
    """(g, cycle-order certificate) for every enumerate_hop_graphs(n) graph
    less 0, 1 or 2 of its edges that stays connected.  The certificate is
    the cycle 0..n-1 with the removed cycle edges missing."""
    for hop in enumerate_hop_graphs(n):
        edges = list(hop.edges())
        for k in range(3):
            for removed in combinations(edges, k):
                g = ColoredGraph.build(n, [e for e in edges if e not in removed])
                if g.is_connected():
                    missing = tuple(e for e in removed if e[1] - e[0] in (1, n - 1))
                    yield g, OClassification((HOP, EDHOP1, EDHOP2)[len(missing)],
                                             tuple(range(n)), missing)


def assert_contract(g, res):
    """|X| <= 5, at most 7 flaps of at most 2n/3 vertices, each certified."""
    assert len(res.x) <= 5 and len(res.flaps) <= 7
    assert all(3 * len(f) <= 2 * g.n for f in res.flaps)
    for i in range(len(res.flaps)):
        sub, tag = flap_subproblem(g, res, i)
        assert tag.in_class() and tag.certifies(sub)


@st.composite
def hop_less_cycle_edges(draw):
    """random_hop(n, seed), 7 <= n <= 40, less 0, 1 or 2 of the edges of its
    cycle 0..n-1, with the cycle-order certificate; connected only."""
    n = draw(st.integers(7, 40))
    hop = random_hop(n, draw(st.integers(0, 10**6)))
    steps = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    missing = tuple(sorted(draw(st.lists(st.sampled_from(steps), max_size=2,
                                         unique=True))))
    g = ColoredGraph.build(n, [e for e in hop.edges() if e not in missing])
    assume(g.is_connected())
    return g, OClassification((HOP, EDHOP1, EDHOP2)[len(missing)],
                              tuple(range(n)), missing)


def full_binary_tree7():
    return ColoredGraph.build(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])


class TestTreeCentroid:
    def test_p5(self):
        res = tree_centroid_separator(path(5))
        assert res.x == (2,)
        assert sorted(len(f) for f in res.flaps) == [2, 2]

    def test_star6(self):
        res = tree_centroid_separator(star(6))
        assert res.x == (0,)
        assert len(res.flaps) == 5
        assert all(len(f) == 1 for f in res.flaps)

    def test_full_binary(self):
        res = tree_centroid_separator(full_binary_tree7())
        assert res.x == (0,)
        assert sorted(len(f) for f in res.flaps) == [3, 3]

    def test_rejects_non_tree(self):
        with pytest.raises(SeparatorError):
            tree_centroid_separator(cycle(4))

    @given(st.integers(1, 40), st.integers(2, 4), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_in_place_matches_induced_reference(self, n, d, seed):
        # the whole tree, then every flap of the recursive centroid split
        g = random_bounded_tree(n, d, seed)
        res = tree_centroid_separator(g)
        assert (res.x, res.flaps) == reference_tree_centroid(g, range(n))
        todo = list(res.flaps)
        while todo:
            dom = frozenset(todo.pop())
            res = tree_centroid_separator(g, within=dom)
            assert (res.x, res.flaps) == reference_tree_centroid(g, dom)
            todo += res.flaps

    def test_rejects_domain_that_is_no_tree(self):
        # a 4-cycle with a pendant path: two disconnected domains, two that
        # hold the cycle and the empty one
        g = ColoredGraph.build(7, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6)])
        for within in ({0, 1, 5}, {2, 6}, {0, 1, 2, 3, 4}, {0, 1, 2, 3}, set()):
            with pytest.raises(SeparatorError, match="input is not a tree"):
                tree_centroid_separator(g, within=frozenset(within))
        res = tree_centroid_separator(g, within=frozenset({1, 2, 3, 4, 5, 6}))
        assert res.x == (3,) and res.flaps == ((1, 2), (4, 5, 6))

    def test_rejects_domain_out_of_range(self):
        for within, bad in (({-1, 0}, -1), ({3, 5}, 5)):
            with pytest.raises(GraphError, match=f"vertex {bad} out of range"):
                tree_centroid_separator(path(5), within=frozenset(within))

    def test_flap_bound_random(self):
        from fodef.families import random_bounded_tree
        for seed in range(12):
            g = random_bounded_tree(25, 4, seed)
            res = tree_centroid_separator(g)
            assert verify_separator(g, res.x, Fraction(2, 3), g.max_degree()).ok
            assert all(2 * len(f) <= g.n for f in res.flaps)


class TestClassify:
    def test_c4_hop(self):
        cls = classify_o(cycle(4))
        assert cls.tag == HOP
        assert cls.witness_cycle == (0, 1, 2, 3)
        assert cls.certifies(cycle(4))

    def test_p4_edhop1(self):
        cls = classify_o(path(4))
        assert cls.tag == EDHOP1
        assert cls.missing_edges == ((0, 3),)
        assert cls.certifies(path(4))

    def test_star4_edhop2(self):
        cls = classify_o(star(4))
        assert cls.tag == EDHOP2
        assert len(cls.missing_edges) == 2
        assert cls.certifies(star(4))

    def test_disconnected(self):
        g = ColoredGraph.build(4, [(0, 1), (2, 3)])
        assert classify_o(g).tag == NOT_IN_O

    def test_k5_not_in_class(self):
        assert classify_o(complete(5)).tag == NOT_IN_O

    def test_small_graphs_vs_structure_oracle(self):
        # HOP iff 2-connected and outerplanar, on every graph of order <= 7
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                want_hop = (n <= 2 and g.is_connected()) or (
                    brute_two_connected(g) and brute_outerplanar(g))
                assert (classify_o(g).tag == HOP) == want_hop

    def test_tags_are_minimal_completions(self):
        # EDHOP1 means: not HOP, and one addition suffices; EDHOP2 likewise
        for n in range(3, 6):
            for g in enumerate_graphs(n, connected_only=True):
                cls = classify_o(g)
                non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                             if not g.has_edge(u, v)]
                hop1 = any(classify_o(g.with_edges_added([e])).tag == HOP
                           for e in non_edges)
                if cls.tag == EDHOP1:
                    assert hop1
                    assert classify_o(g.with_edges_added(cls.missing_edges)).tag == HOP
                if cls.tag == EDHOP2:
                    assert not hop1
                    assert classify_o(g.with_edges_added(cls.missing_edges)).tag == HOP
                if cls.tag == HOP:
                    assert g.is_connected()

    def test_completion_matches_spanning_path_search(self):
        # every connected graph of order <= 7, and every input of the EDHOP2
        # loop on connected graphs of order <= 6
        for n in range(1, 8):
            for g in enumerate_graphs(n, connected_only=True):
                assert _edhop1_completion(g) == brute_edhop1_completion(g)
                if n <= 6:
                    for u, v in combinations(range(n), 2):
                        if not g.has_edge(u, v):
                            gd = g.with_edges_added([(u, v)])
                            assert _edhop1_completion(gd) == brute_edhop1_completion(gd)

    def test_classify_matches_reference(self):
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                got, want = classify_o(g), brute_classify_o(g)
                assert (got.tag, got.witness_cycle, got.missing_edges) == \
                    (want.tag, want.witness_cycle, want.missing_edges)

    def test_cut_vertices_match_definition(self):
        for n in range(1, 8):
            for g in enumerate_graphs(n, connected_only=True):
                want = {v for v in range(n)
                        if not g.induced(set(range(n)) - {v})[0].is_connected()}
                assert _cut_vertices(g) == want
        assert _cut_vertices(path(3000)) == set(range(1, 2999))
        assert _cut_vertices(cycle(3000)) == set()

    def test_long_path_edhop1(self):
        g = path(3000)
        cls = classify_o(g)
        assert cls.tag == EDHOP1
        assert cls.missing_edges == ((0, 2999),)
        assert cls.witness_cycle == tuple(range(3000))

    def test_large_tree_not_in_o(self):
        g = random_bounded_tree(3000, 3, 1)
        start = time.perf_counter()
        assert classify_o(g).tag == NOT_IN_O
        assert time.perf_counter() - start < 1.0

    def test_large_edhop2(self):
        hop = random_hop(200, 3)
        g = ColoredGraph.build(200, [e for e in hop.edges()
                                     if e not in ((0, 199), (100, 101))])
        cls = classify_o(g)
        assert cls.tag == EDHOP2
        assert cls.certifies(g)

    def test_chain_with_pendants_not_in_o(self):
        # a chain of triangles with three pendant vertices on vertex 15 has
        # five end blocks; an added edge removes at most two, HOP has none
        edges = [(i, i + 1) for i in range(29)]
        edges += [(i, i + 2) for i in range(0, 27, 2)]
        edges += [(15, 30), (15, 31), (15, 32)]
        assert classify_o(ColoredGraph.build(33, edges)).tag == NOT_IN_O


class TestChords:
    @settings(max_examples=300, deadline=None)
    @given(chord_sets())
    def test_stack_pass_matches_pairwise(self, chords):
        pairwise = any(chords_cross(a, b) for a, b in combinations(chords, 2))
        assert chords_non_crossing(chords) == (not pairwise)

    @settings(max_examples=200, deadline=None)
    @given(non_crossing_chords())
    def test_inner_faces_invariants(self, case):
        n, chords = case
        faces = inner_faces(n, chords)
        sides = Counter()
        for f in faces:
            assert len(f) >= 3 and f == sorted(f)
            sides.update(_norm(a, b) for a, b in zip(f, f[1:] + f[:1]))
        cycle_edges = {_norm(i, (i + 1) % n) for i in range(n)}
        assert set(sides) == cycle_edges | set(chords)
        assert all(sides[c] == 2 for c in chords)
        assert all(sides[e] == 1 for e in cycle_edges)
        assert sum(len(f) - 2 for f in faces) == n - 2

    @settings(max_examples=300, deadline=None)
    @given(non_crossing_chords(min_n=4))
    def test_split_pair_matches_reference(self, case):
        n, chords = case
        assert _find_split_pair(n, chords) == reference_find_split_pair(n, chords)

    def test_split_pair_is_total(self):
        # every chord set up to the cycle's symmetries, n = 4..9; at n = 3
        # no two positions are 2 steps apart, and the reference has no pair
        assert reference_find_split_pair(3, []) is None
        for n in range(4, 10):
            for g in enumerate_hop_graphs(n):
                pos = {v: v for v in range(n)}
                i, j = _find_split_pair(n, _chords(g, pos))
                assert 3 * (j - i - 1) <= 2 * n and 3 * (n - (j - i) - 1) <= 2 * n


class TestClassOSeparator:
    def test_c9(self):
        g = cycle(9)
        res = class_o_separator(g)
        assert len(res.x) == 2
        assert len(res.flaps) == 2
        assert all(3 * len(f) <= 2 * 9 for f in res.flaps)
        assert all(t.tag == EDHOP1 for t in res.tags)
        assert verify_separator(g, res.x, Fraction(2, 3), 7).ok

    def test_p9(self):
        g = path(9)
        res = class_o_separator(g)
        assert len(res.x) <= 5
        assert verify_separator(g, res.x, Fraction(2, 3), 7).ok
        for i in range(len(res.flaps)):
            sub, tag = flap_subproblem(g, res, i)
            assert tag.in_class()
            assert tag.certifies(sub)

    def test_small_coincidence_fallback(self):
        # n <= 6 goes through exhaustive search and keeps the contract
        for n in range(2, 7):
            for g in enumerate_hop_graphs(n):
                assert_contract(g, class_o_separator(g))

    def test_rejects_outside_class(self):
        with pytest.raises(SeparatorError):
            class_o_separator(complete(5))

    def test_hereditary_recursion_terminates_small(self):
        for n in range(2, 8):
            for g in enumerate_hop_graphs(n):
                stack = [(g, None)]
                steps = 0
                while stack:
                    cur, ann = stack.pop()
                    steps += 1
                    assert steps < 300
                    if cur.n < 2:
                        continue
                    res = class_o_separator(cur, classification=ann)
                    for i in range(len(res.flaps)):
                        stack.append(flap_subproblem(cur, res, i))

    def test_constructive_tags_cross_checked_small(self):
        # constructive annotations agree with exhaustive classification on
        # small inputs reached through the main (non-fallback) path
        for seed in range(6):
            g = random_hop(9, seed)
            res = class_o_separator(g)
            for i in range(len(res.flaps)):
                sub, tag = flap_subproblem(g, res, i)
                exact = classify_o(sub)
                assert exact.in_class()
                # certificate may overshoot the minimal tag, never undershoot
                order = {HOP: 0, EDHOP1: 1, EDHOP2: 2}
                assert order[tag.tag] >= order[exact.tag]

    @pytest.mark.parametrize("n, seed, missing, want_x", [
        (9, 6, ((1, 2), (3, 4)), (0, 3, 7)),
        (10, 8, ((6, 7), (8, 9)), (0, 4, 6, 7, 9)),
    ], ids=["one-vertex", "three-vertex"])
    def test_split_extension(self, monkeypatch, n, seed, missing, want_x):
        # EDHOP2 input, two cycle edges away from HOP: the split pair leaves
        # one flap holding both missing edges, so the pair is extended
        from fodef import separators
        extended = []
        real = separators._extend_split

        def spy(*args):
            extended.append(real(*args))
            return extended[-1]

        monkeypatch.setattr(separators, "_extend_split", spy)
        hop = random_hop(n, seed)
        g = ColoredGraph.build(n, [e for e in hop.edges() if e not in missing])
        cls = OClassification(EDHOP2, tuple(range(n)), missing)
        assert cls.certifies(g)
        res = class_o_separator(g, classification=cls)
        assert extended == [list(want_x)]
        assert res.x == want_x
        assert_contract(g, res)
        stack = [(g, cls)]
        steps = 0
        while stack:
            cur, ann = stack.pop()
            steps += 1
            assert steps < 100
            if cur.n >= 2:
                res = class_o_separator(cur, classification=ann)
                stack.extend(flap_subproblem(cur, res, i)
                             for i in range(len(res.flaps)))

    def test_random_hop_medium(self):
        for seed in range(8):
            g = random_hop(40, seed)
            assert_contract(g, class_o_separator(g))

    def test_total_on_orders_7_and_8(self, monkeypatch):
        # 5,932 graphs, each with classify_o's certificate and the
        # cycle-order one; no subset search past n = 6
        from fodef import separators

        def no_search(g):
            raise AssertionError(f"subset search at n={g.n}")

        monkeypatch.setattr(separators, "_exhaustive_o_separator", no_search)
        graphs = 0
        for n in (7, 8):
            for g, by_cycle in hop_less_edges(n):
                assert by_cycle.certifies(g)
                for cls in (classify_o(g), by_cycle):
                    assert_contract(g, class_o_separator(g, classification=cls))
                graphs += 1
        assert graphs == 5932

    @settings(max_examples=150, deadline=None)
    @given(hop_less_cycle_edges())
    def test_total_on_random_hop_less_cycle_edges(self, case):
        g, cls = case
        assert cls.certifies(g)
        assert_contract(g, class_o_separator(g, classification=cls))

    def test_broken_certificate_raises_one_error(self):
        # a HOP certificate for a graph that lacks the cycle edge (4, 5): the
        # flap on positions 1..6 fails, and _extend_split finds no missing
        # edge to cut it at
        g = ColoredGraph.build(15, [e for e in cycle(15).edges() if e != (4, 5)]
                               + [(3, 6)])
        cls = OClassification(HOP, tuple(range(15)))
        assert not cls.certifies(g)
        with pytest.raises(SeparatorError,
                           match=r"failed on n=15; instance [0-9a-f]{12}$"):
            class_o_separator(g, classification=cls)

    def test_cycle_not_an_order_of_the_vertices(self):
        cls = OClassification(HOP, (0, 1, 2))
        with pytest.raises(SeparatorError, match="not an order of the 9 vertices"):
            class_o_separator(path(9), classification=cls)

    def test_order_that_is_no_cycle_of_g(self):
        g = random_hop(12, 3)
        cls = OClassification(HOP, tuple(range(0, 12, 2)) + tuple(range(1, 12, 2)))
        assert not cls.certifies(g)
        with pytest.raises(SeparatorError, match=r"failed on n=12; instance"):
            class_o_separator(g, classification=cls)


class TestBruteMin:
    def test_k4(self):
        res = brute_min_separator(complete(4), Fraction(2, 3), 4)
        assert len(res.x) == 2
        assert res.x == (0, 1)

    def test_p7_centroid_size(self):
        res = brute_min_separator(path(7), Fraction(2, 3), 3)
        assert len(res.x) == 1

    def test_c5_failure(self):
        with pytest.raises(SeparatorError, match="no set of at most 2 vertices"):
            brute_min_separator(cycle(5), Fraction(1, 5), 2)

    def test_never_larger_than_constructive(self):
        for n in (7, 8, 9):
            for g in enumerate_hop_graphs(n)[:10]:
                c = class_o_separator(g)
                b = brute_min_separator(g, Fraction(2, 3), 5)
                assert len(b.x) <= len(c.x)

    def test_cap_exceeded(self):
        with pytest.raises(BudgetExceeded):
            brute_min_separator(path(30), Fraction(2, 3), 2)


class TestVerify:
    def test_c9_pass(self):
        assert verify_separator(cycle(9), [0, 4], Fraction(2, 3), 2).ok

    def test_c9_fail_size(self):
        rep = verify_separator(cycle(9), [0, 1], Fraction(2, 3), 2)
        assert not rep.ok
        assert rep.oversize_flaps

    def test_star_fail_count(self):
        rep = verify_separator(star(6), [0], Fraction(2, 3), 4)
        assert not rep.ok
        assert rep.too_many_flaps


class TestFlapsAgree:
    """Every separator reports the flaps that flaps_of finds."""

    @settings(max_examples=150, deadline=None)
    @given(connected_with_subset(), st.sampled_from([Fraction(1, 2), Fraction(2, 3)]))
    def test_separators_match_flaps_of(self, gx, eps):
        g, x = gx
        flaps = flaps_of(g, x)
        rep = verify_separator(g, x, eps, 3)
        assert rep.flap_count == len(flaps)
        assert rep.oversize_flaps == tuple(i for i, f in enumerate(flaps)
                                           if len(f) > eps * g.n)
        assert rep.too_many_flaps == (len(flaps) > 3)
        try:
            res = brute_min_separator(g, eps, 5)
        except SeparatorError:
            pass
        else:
            assert res.flaps == flaps_of(g, res.x)
        if g.is_tree():
            res = tree_centroid_separator(g)
            assert res.flaps == flaps_of(g, res.x)
        if g.n >= 2 and classify_o(g).in_class():
            res = class_o_separator(g)
            assert res.flaps == flaps_of(g, res.x)
            assert len(res.flaps) == len(res.tags)
