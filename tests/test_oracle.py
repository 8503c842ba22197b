import gc
import itertools
import math
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import fodef.graphs
from fodef import oracle
from fodef.families import complete, cycle, enumerate_graphs, path, star, triv, two_cycles
from fodef.game import (
    DUPLICATOR_SURVIVED, SIDE_H, SPOILER_WON, builtin_duplicator, run_match,
)
from fodef.graphs import BudgetExceeded, ColoredGraph, stabilizer_orbits
from fodef.oracle import (
    ExhaustiveDuplicator, OracleSpoiler, RankSearcher, defining_rank_lb,
    exact_rank, survival_vs,
)

from helpers import brute_automorphisms, brute_best_move, brute_rank


class TestExactRank:
    def test_star_identity_n3(self):
        assert exact_rank(star(2), star(3)).value == 2
        assert exact_rank(star(3), star(4)).value == 3

    def test_c3_c4(self):
        res = exact_rank(cycle(3), cycle(4))
        assert res.value == 2
        assert res.value > math.log2(3) - 1  # sanity: forced above log2(3)=1.58

    def test_p2_p3(self):
        assert exact_rank(path(2), path(3)).value == 2

    def test_isomorphic_not_within_budget(self):
        g = cycle(4)
        h = ColoredGraph.build(4, [(1, 2), (2, 3), (3, 0), (0, 1)])
        res = exact_rank(g, h, r_max=4)
        assert res.value is None

    def test_size_guard(self):
        with pytest.raises(BudgetExceeded):
            exact_rank(path(10), path(10))
        exact_rank(path(10), path(10), size_budget=20, r_max=2)

    def test_matches_reference_minimax(self):
        cases = [
            (path(2), path(3)),
            (path(3), path(4)),
            (cycle(3), cycle(4)),
            (star(3), star(4)),
            (path(3), star(3)),
            (triv(1, 0), triv(0, 2)),
            (path(4), cycle(4)),
        ]
        for g, h in cases:
            assert exact_rank(g, h, r_max=5).value == brute_rank(g, h, 5)

    def test_symmetry(self):
        for g, h in [(path(3), path(5)), (cycle(3), cycle(5)), (star(3), path(4))]:
            for k in (None, 1, 2):
                a = exact_rank(g, h, k=k).value
                b = exact_rank(h, g, k=k).value
                assert a == b

    def test_budget_monotonicity(self):
        for g, h in [(path(3), path(5)), (cycle(4), cycle(5)), (star(3), star(4))]:
            unb = exact_rank(g, h).value
            prev = None
            for k in (0, 1, 2, 3):
                cur = exact_rank(g, h, k=k, r_max=8).value
                if cur is not None and prev is not None:
                    assert cur <= prev
                if cur is not None:
                    assert cur >= unb
                prev = cur if cur is not None else prev
        # with enough alternations allowed the unbudgeted value is reached
        g, h = path(3), path(5)
        assert exact_rank(g, h, k=6).value == exact_rank(g, h).value

    def test_best_first_move_reported(self):
        res = exact_rank(cycle(3), cycle(4))
        assert res.best_first_move is not None

    def test_best_first_move_matches_reference(self):
        # the move is read from the search memo; the reference minimax
        # finds the least winning first move at the least winning round count
        small = [g for n in range(1, 4) for g in enumerate_graphs(n)]
        larger = [g for n in range(1, 5) for g in enumerate_graphs(n)]
        for k in (None, 1):
            for g in small:
                for h in larger:
                    assert (exact_rank(g, h, k=k, r_max=4).best_first_move
                            == brute_best_move(g, h, 4, k)), (g, h, k)

    def test_triv_small(self):
        # one isolated edge + two isolated vertices vs four isolated vertices
        assert exact_rank(triv(1, 2), triv(0, 4)).value == 2


class TestSurvival:
    def test_consistency_with_rank(self):
        cases = [(cycle(3), cycle(4)), (path(2), path(3)), (star(3), star(4)),
                 (path(4), star(4))]
        for g, h in cases:
            rank = exact_rank(g, h).value
            rep = survival_vs(OracleSpoiler(g, h), g, h, r_max=rank + 2)
            assert rep.always_wins
            assert rep.max_rounds + 1 == rank

    def test_two_cycles_survival(self):
        # 2C4 vs C4 with budget 2: the one-per-component opening cannot win yet
        g, h = two_cycles(4), cycle(4)
        res = exact_rank(g, h, r_max=2, size_budget=12)
        assert res.value is None  # rank exceeds floor(log2(3)) = 1 and even 2


class TestDefiningRankLB:
    def test_k1(self):
        value, witness = defining_rank_lb(ColoredGraph.build(1, []), 2)
        assert value == 2
        assert witness.n == 2

    def test_p4_below_eq3_bound(self):
        value, witness = defining_rank_lb(path(4), 5)
        assert value < math.log2(4) + 3

    def test_p5_alternation1(self):
        value, witness = defining_rank_lb(path(5), 6, k=1, size_budget=11)
        assert value < math.log2(5) + 3

    def test_cap(self):
        with pytest.raises(BudgetExceeded):
            defining_rank_lb(path(3), 9)


def orbit_reps(g, pebbled):
    """The orbit representatives the rank search prunes to."""
    return stabilizer_orbits(g, tuple(sorted(pebbled)))


def forget_search():
    """Empty the search slot.  Orbit tables stay on their graphs: a test
    that needs them cold builds fresh graph objects."""
    oracle._last_search = None


def fresh(g):
    """An equal graph object that has computed nothing yet."""
    return ColoredGraph(g.n, g.adj, g.colors)


def rank_table_pairs():
    """The pairs of scripts/rank_table.py with its r_max and size budget."""
    pairs = [(star(n), star(n + 1), n, 2 * n + 1) for n in (2, 3, 4, 5)]
    for n in range(3, 7):
        for m in range(n + 1, 8):
            pairs += [(path(n), path(m), 7, 15), (cycle(n), cycle(m), 7, 15)]
    pairs += [(triv(m, 2 * m), triv(m - 1, 2 * m + 2), 2 * m + 2, 8 * m)
              for m in (1, 2)]
    pairs += [(two_cycles(n), cycle(n), math.floor(math.log2(n - 1)), 3 * n)
              for n in (4, 5)]
    return pairs


def listed_orbit_reps(auts, pebbled):
    """The least vertex of each orbit of the automorphisms `auts`, the whole
    group, that fix `pebbled` pointwise, ascending."""
    stab = [a for a in auts if all(a[x] == x for x in pebbled)]
    return tuple(v for v in range(len(auts[0])) if all(a[v] >= v for a in stab))


@st.composite
def colored_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    g = ColoredGraph.build(n, [e for e in pairs if draw(st.booleans())])
    overlay = {v: draw(st.sets(st.integers(0, 1), max_size=1)) for v in range(n)}
    return g.with_extra_colors(overlay)


class TestOrbits:
    def test_matches_listed_group(self):
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                auts = brute_automorphisms(g)
                for size in range(3):
                    for xs in itertools.combinations(range(n), size):
                        assert orbit_reps(g, xs) == listed_orbit_reps(auts, xs), (g, xs)

    @given(colored_graphs(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_listed_group_colored(self, g, data):
        xs = data.draw(st.sets(st.integers(0, g.n - 1), max_size=2))
        assert orbit_reps(g, xs) == listed_orbit_reps(brute_automorphisms(g), xs)

    def test_triv_pair_reps_are_exact(self):
        # the H side of the triv(3) identity pair: two isolated edges and
        # eight isolated vertices, two orbits, three once vertex 4 is pebbled
        g, h = triv(3, 6), triv(2, 8)
        s = RankSearcher(g, h)
        assert tuple(s._candidates(SIDE_H, frozenset())) == (0, 4)
        assert tuple(s._candidates(SIDE_H, frozenset({(0, 4)}))) == (0, 4, 5)
        assert exact_rank(g, h, r_max=8, size_budget=24).nodes == 27

    def test_equal_graphs_get_equal_orbits(self):
        # an equal but distinct graph computes its own, equal, table
        g = path(5)
        twin = ColoredGraph.build(5, [(3, 4), (2, 3), (1, 2), (0, 1)])
        assert twin == g and twin is not g
        sets = [xs for size in range(3) for xs in itertools.combinations(range(5), size)]
        shared = [orbit_reps(g, xs) for xs in sets]
        assert [orbit_reps(twin, xs) for xs in sets] == shared
        # g's table dies with g, and its twin's lives on
        del g
        gc.collect()
        assert [orbit_reps(twin, xs) for xs in sets] == shared

    def test_memo_dies_with_its_graph(self):
        # neither the orbit table nor a finished search keeps the graphs alive
        g, h = cycle(4), path(4)
        exact_rank(g, h)
        OracleSpoiler(g, h)
        assert orbit_reps(g, ()) == (0,) and orbit_reps(h, ()) == (0, 1)
        graphs = [weakref.ref(x) for x in (g, h)]
        exact_rank(star(2), star(3))
        del g, h
        gc.collect()
        assert [x() for x in graphs] == [None, None]

    def test_one_orbit_search_per_graph_and_set(self, monkeypatch):
        # a defining_rank_lb-style sweep of the order-3 bases searches the
        # orbits of each graph and pebbled set once
        # (the graph with its pebbled vertices colored is one key per pair)
        calls = Counter()
        search = fodef.graphs._canonical

        def counted(marked, *rest):
            calls[marked] += 1
            return search(marked, *rest)

        monkeypatch.setattr(fodef.graphs, "_canonical", counted)
        forget_search()
        every = [fresh(h) for n in range(1, 6) for h in enumerate_graphs(n)]
        for g in [x for x in every if x.n == 3]:
            for h in every:
                if h is not g:
                    exact_rank(g, h, r_max=g.n + 2)
        assert len(calls) > len(every)
        assert max(calls.values()) == 1

    def test_one_duplicator_across_pairs(self):
        # one exhaustive Duplicator on star(3)/star(4) and then on
        # path(5)/path(6) plays as one started cold, on fresh graphs and an
        # empty search slot
        def play():
            d = builtin_duplicator("exhaustive")
            out = [run_match(star(3), star(4), OracleSpoiler(star(3), star(4)), d, 3)]
            g, h = path(5), path(6)
            out += [run_match(g, h, OracleSpoiler(g, h), d, r) for r in (2, 3)]
            return out

        shared = play()
        assert (shared[0].status, shared[0].rounds_used) == (SPOILER_WON, 3)
        forget_search()
        assert play() == shared

    def test_spoiler_continues_exact_rank(self):
        # on every rank_table pair, an oracle Spoiler that continues
        # exact_rank's search plays as one started cold
        for g, h, r_max, budget in rank_table_pairs():
            r = exact_rank(g, h, r_max=r_max, size_budget=budget).value or r_max
            warm = OracleSpoiler(g, h, size_budget=budget)
            assert warm.searcher is oracle._last_search
            played = run_match(g, h, warm, ExhaustiveDuplicator(budget), r)
            forget_search()
            g, h = fresh(g), fresh(h)
            cold = OracleSpoiler(g, h, size_budget=budget)
            assert run_match(g, h, cold, ExhaustiveDuplicator(budget), r) == played

    def test_game_memo_is_per_search(self):
        # a second search on the same pair finds the orbits memoized but
        # searches the game afresh
        g, h = cycle(4), path(4)
        first = exact_rank(g, h)
        again = exact_rank(g, h)
        assert (again.value, again.best_first_move, again.nodes) == \
            (first.value, first.best_first_move, first.nodes)


class TestExhaustiveDuplicator:
    @pytest.mark.parametrize("k", [None, 0, 1])
    @pytest.mark.parametrize("g,h", [(cycle(3), cycle(4)), (star(3), star(4)),
                                     (path(4), path(5)), (path(3), path(4))],
                             ids=["c3-c4", "s3-s4", "p4-p5", "p3-p4"])
    def test_survives_exactly_below_the_rank(self, g, h, k):
        # path(3)/path(4) has rank 2, but 3 with no side switch
        r = brute_rank(g, h, 6, k)
        assert r is not None and r >= 2
        below = run_match(g, h, OracleSpoiler(g, h, k), ExhaustiveDuplicator(),
                          r - 1, k)
        assert below.status == DUPLICATOR_SURVIVED
        at = run_match(g, h, OracleSpoiler(g, h, k), ExhaustiveDuplicator(), r, k)
        assert (at.status, at.rounds_used) == (SPOILER_WON, r)
        assert k is None or at.alternations <= k
