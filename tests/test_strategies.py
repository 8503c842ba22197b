import copy
import dataclasses
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fodef import cli
from fodef.families import (
    cycle, enumerate_graphs, path, random_bounded_tree, random_hop, star,
    two_cycles,
)
from fodef.formulas import analyze, evaluate, print_formula
from fodef.game import (
    RUNNING, SIDE_G, SIDE_H, SPOILER_WON, Agent, builtin_duplicator, new_game,
    run_match, step,
)
from fodef.graphs import (
    ColoredGraph, are_isomorphic, distances_within, group_by_isomorphism,
    recolored_flap,
)
from fodef.oracle import OracleSpoiler, exact_rank, survival_vs
from fodef.separators import HOP, OClassification, classify_o
from fodef.strategies import (
    BOUND_NAMES, _BOUND_PARAMS, HypothesisError, StrategyConfig, StrategyError,
    StrategyMachine, _Bisection, _Frame, bound, choose_depth, extract_formula,
    halving_agent, reply_tree, s_agent, s_star_agent, synthesize_distinguisher,
)

from helpers import brute_survival, reference_bisection_move, reference_choose_depth

EPS = Fraction(2, 3)


class TestChooseDepth:
    def test_hand_computed(self):
        assert choose_depth(96, 7, EPS) == 7
        assert choose_depth(1, 1, EPS) == 0

    def test_boundary_is_exact(self):
        # ratio exactly a power of 3/2: ceiling must not round up past it
        assert choose_depth(9, 4, Fraction(2, 3)) == 2  # (3/2)^2 = 9/4
        assert choose_depth(27, 8, Fraction(2, 3)) == 3  # (3/2)^3 = 27/8

    def test_star_variant(self):
        assert choose_depth(96, 6, EPS, "S_star") == 7

    def test_alternation_allowance(self):
        a = choose_depth(256, 1, EPS, "a")
        want = 2 * 8 / math.log2(1.5) + 1
        assert abs(a - want) <= 1e-9 * want

    def test_epsilon_guard(self):
        with pytest.raises(ValueError):
            choose_depth(4, 1, Fraction(3, 2))

    @pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)],
                             ids=["1/2", "2/3", "3/4"])
    def test_integer_loop_matches_the_fraction_loop(self, eps):
        # the depth is a step function of n that moves only where n crosses
        # m' * (1/eps)^t, so checking n at and next to every such point of
        # [1, 5000], and every n for m = 1, checks every n <= 5000
        for m in range(1, 11):
            for variant in ("S", "S_star"):
                low = m + (variant == "S_star")
                ns, t = {1, 2, 5000}, 0
                while low / eps ** t <= 5001:
                    point = low / eps ** t
                    ns.update(k for k in (math.floor(point) - 1, math.floor(point),
                                          math.ceil(point), math.ceil(point) + 1)
                              if 1 <= k <= 5000)
                    t += 1
                if m == 1:
                    ns.update(range(1, 5001))
                for n in sorted(ns):
                    assert choose_depth(n, m, eps, variant) == \
                        reference_choose_depth(n, m, eps, variant), (n, m, variant)


class TestBounds:
    def test_thm41(self):
        got = bound("thm41", n=16, d=3)
        want = (4 / math.log2(1.5) + 1) * 4 + 3 + 2
        assert abs(got - want) <= 1e-9 * want

    def test_thm43(self):
        got = bound("thm43", n=256)
        want = (12 / math.log2(1.5) + 1) * 8 + 9
        assert abs(got - want) <= 1e-9 * want

    def test_lemma36(self):
        got = bound("lemma36", n=96, m=7, epsilon=EPS, k=5)
        want = 5 * 7 + 7 * 8 + math.log2(96) + 2
        assert abs(got - want) <= 1e-9 * want

    def test_lemma36_callable_k(self):
        got = bound("lemma36", n=64, m=2, epsilon=Fraction(1, 2),
                    k=lambda x: math.sqrt(x), t=3)
        want = sum(math.sqrt(0.5 ** i * 64) for i in range(3)) \
            + 2 * 4 + 6 + 2
        assert abs(got - want) <= 1e-9 * want

    def test_thm55_all(self):
        got = bound("thm55_all", n=100, H=5, Delta=4)
        want = (2 + math.sqrt(2)) * 5 ** 1.5 * 10 + 6 * (math.log2(100) + 1) + 1
        assert abs(got - want) <= 1e-9 * want

    def test_thm55_planar_and_genus(self):
        got = bound("thm55_planar", n=49, Delta=3)
        want = (4.5 * math.sqrt(2) + 3 * math.sqrt(3)) * 7 \
            + (4 / math.log2(1.5) + 1) * math.log2(49) + 6
        assert abs(got - want) <= 1e-9 * want
        got = bound("thm55_genus", n=49, Delta=3, g=2, c=1.5)
        want = 1.5 * math.sqrt(2) * 7 \
            + (4 / math.log2(1.5) + 1) * math.log2(49) + 6
        assert abs(got - want) <= 1e-9 * want

    def test_lemma37_and_52_53(self):
        got = bound("lemma37", n=64, m=3, epsilon=EPS, k=1)
        want = (4 / math.log2(1.5) + 1) * 6 + 3 + 2
        assert abs(got - want) <= 1e-9 * want
        got = bound("lemma52", n=96, s=6, epsilon=EPS, k=5)
        want = 5 * 7 + 7 * 8 + math.log2(96) + 2
        assert abs(got - want) <= 1e-9 * want
        got = bound("lemma53", n=100, s=4, epsilon=Fraction(1, 2), c=2.0, delta=0.5)
        want = 2.0 / (1 - 0.5 ** 0.5) * 10 + (5 / 1 + 1) * math.log2(100) + 7
        assert abs(got - want) <= 1e-9 * want

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            bound("lemma99", n=4)

    def test_parameter_outside_its_domain(self):
        # each parameter of each bound, set just outside its domain while the
        # others stay inside, raises ValueError naming it
        inside = {"n": 100, "m": 3, "s": 4, "t": 2, "k": 1, "epsilon": 0.5,
                  "d": 3, "c": 2, "delta": 0.5, "H": 5, "Delta": 4, "g": 1}
        outside = {"n": 0.5, "m": 0, "s": 0.5, "t": -1, "k": -1, "epsilon": 1,
                   "d": -1, "c": 0, "delta": 1, "H": 0, "Delta": -1, "g": -0.5}
        for name in BOUND_NAMES:
            params = {key: inside[key] for key in _BOUND_PARAMS[name]}
            if name in ("lemma36", "lemma52"):
                params["t"] = inside["t"]
            assert math.isfinite(bound(name, **params))
            for key in params:
                with pytest.raises(ValueError, match=f"got {key}="):
                    bound(name, **{**params, key: outside[key]})


def p7_vs_split():
    """P7 against two disjoint paths: anchors at the P7 ends, partners split."""
    g = path(7)
    h = ColoredGraph.build(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
    return g, h, ((0, 0), (6, 4))


class TestHalvingAgent:
    def test_p7_within_three_rounds(self):
        g, h, anchors = p7_vs_split()
        agent = halving_agent(g, h, range(7), anchors, [], [])
        rep = survival_vs(agent, g, h, r_max=6, initial_pairs=anchors,
                          size_budget=g.n + h.n)
        assert rep.always_wins
        assert rep.deepest_total_rounds - 2 <= math.ceil(math.log2(7))

    def test_adjacent_anchors_already_won(self):
        # adjacent anchors with split partners: the pairing is broken before
        # the agent moves at all (zero further rounds needed)
        g, h, _ = p7_vs_split()
        with pytest.raises(ValueError, match="already decided"):
            survival_vs(halving_agent(g, h, range(7), ((0, 0), (1, 4)), [], []),
                        g, h, r_max=4, initial_pairs=((0, 0), (1, 4)),
                        size_budget=g.n + h.n)

    def test_two_cycles_position(self):
        c8, cc8 = cycle(8), two_cycles(8)
        anchors = ((0, 0), (4, 8))
        agent = halving_agent(c8, cc8, range(8), anchors, [], [])
        rep = survival_vs(agent, c8, cc8, r_max=8, initial_pairs=anchors,
                          size_budget=c8.n + cc8.n)
        assert rep.always_wins
        assert rep.deepest_total_rounds - 2 <= math.ceil(math.log2(8))

    def test_hypothesis_violation_refused(self):
        g, h, _ = p7_vs_split()
        with pytest.raises(HypothesisError):
            # partners in the same component: not a bisection position
            halving_agent(g, h, range(7), ((0, 0), (6, 2)), [], [])

    def test_exhaustive_small_positions(self):
        # every valid two-pair position on P5 vs (P2+P3) wins in the budget
        g = path(5)
        h = ColoredGraph.build(5, [(0, 1), (2, 3), (3, 4)])
        comp_of = {v: (0 if v < 2 else 1) for v in range(5)}
        for u1 in range(5):
            for u2 in range(5):
                if u1 == u2 or g.has_edge(u1, u2):
                    continue
                for v1 in range(5):
                    for v2 in range(5):
                        if comp_of[v1] == comp_of[v2] or h.has_edge(v1, v2):
                            continue
                        anchors = ((u1, v1), (u2, v2))
                        agent = halving_agent(g, h, range(5), anchors, [], [])
                        rep = survival_vs(agent, g, h, r_max=6, initial_pairs=anchors,
                                          size_budget=g.n + h.n)
                        assert rep.always_wins
                        assert rep.deepest_total_rounds - 2 <= 3


def two_copies(g: ColoredGraph) -> ColoredGraph:
    """g and a copy of it on vertices n..2n-1."""
    n = g.n
    return ColoredGraph.build(2 * n, list(g.edges()) + [(u + n, v + n) for u, v in g.edges()])


@st.composite
def bisection_lines(draw):
    """A bisection on a tree, HOP graph, path or cycle against two copies of
    it, played on either side, with up to two blocked vertices on each, and
    the data to draw its replies from."""
    kind = draw(st.sampled_from(["tree", "hop", "path", "cycle"]))
    n = draw(st.integers(min_value=4, max_value=48))
    seed = draw(st.integers(min_value=1, max_value=1000))
    play = {"tree": lambda: random_bounded_tree(n, 3, seed),
            "hop": lambda: random_hop(n, seed),
            "path": lambda: path(n), "cycle": lambda: cycle(n)}[kind]()
    other = two_copies(play)
    u1 = draw(st.sampled_from(range(n)))
    blocked = frozenset(draw(st.lists(st.sampled_from([v for v in range(n) if v != u1]),
                                      max_size=2, unique=True)))
    region = next(frozenset(c) for c in play.components(frozenset(range(n)) - blocked)
                  if u1 in c)
    if len(region) == 1:
        blocked, region = frozenset(), frozenset(range(n))
    u2 = draw(st.sampled_from(sorted(region - {u1})))
    o1 = draw(st.sampled_from(range(n)))
    o2 = draw(st.sampled_from(range(n, 2 * n)))
    blocked_other = frozenset(draw(st.lists(
        st.sampled_from([v for v in range(2 * n) if v not in (o1, o2)]),
        max_size=2, unique=True)))
    if draw(st.booleans()):
        return _Bisection(play, other, SIDE_G, region, ((u1, o1), (u2, o2)),
                          blocked, blocked_other)
    return _Bisection(other, play, SIDE_H, region, ((o1, u1), (o2, u2)),
                      blocked_other, blocked)


class TestBisectionInterval:
    """The bisection that searches its last geodesic interval against the
    one that searched its whole region, move by move."""

    @given(bisection_lines(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_moves_match_the_whole_region_search(self, b, data):
        p, n_other = b.p, 2 * b.play_graph.n
        pair = (lambda w, v: (w, v)) if p == 0 else (lambda w, v: (v, w))
        for _ in range(12):
            u1, u2 = (a[p] for a in b.anchors)
            if distances_within(b.play_graph, u1, b.region)[u2] <= 1:
                break
            want = reference_bisection_move(b)
            assert b.next_move() == want
            assert b.next_move() == want  # the same state, the same move
            assert b.interval <= b.region
            b.observe(pair(want[1], data.draw(st.integers(0, n_other - 1))))
            if data.draw(st.integers(0, 3)) == 0:
                # a second reply before the next move, from any other
                # vertex of the region: the interval goes back to the region
                u1, u2 = (a[p] for a in b.anchors)
                x = data.draw(st.sampled_from(sorted(b.region - {u1, u2})))
                b.observe(pair(x, data.draw(st.integers(0, n_other - 1))))

    def test_second_reply_puts_the_region_back(self):
        # I(1, 5) holds 3 and 6 but not 0, which lies on a shortest 3-6 path:
        # two replies before the next move leave the anchors 6 and 3, whose
        # move is 0, outside the last interval
        g = ColoredGraph.build(7, [(1, 2), (2, 3), (3, 4), (4, 5), (2, 6), (4, 6),
                                   (0, 3), (0, 6)])
        b = _Bisection(g, ColoredGraph.build(2, []), SIDE_G, frozenset(range(7)),
                       ((1, 0), (5, 1)), frozenset(), frozenset())
        assert b.next_move() == (SIDE_G, 3)
        assert b.interval == frozenset(range(1, 7))
        b.observe((3, 0))
        b.observe((6, 1))
        assert b.anchors == ((6, 1), (3, 0))
        assert b.next_move() == reference_bisection_move(b) == (SIDE_G, 0)


# The order-11 one-chord HOP pairs, by seed of random_hop(11, seed) and the
# chord toggled in it, on which some reply leaves the flap pair after an
# H-side move.
ESCAPE_PAIRS = {
    8: [(0, 2), (2, 4), (0, 4), (0, 6), (2, 6), (2, 10), (4, 10), (6, 8), (6, 9),
        (7, 9), (7, 10), (8, 10)],
    25: [(1, 5), (1, 6), (1, 7), (3, 6), (3, 7), (7, 9), (8, 10)],
    47: [(0, 5), (0, 6), (0, 7), (0, 8), (0, 9), (1, 3), (1, 5), (1, 7), (1, 8),
         (1, 9), (1, 10), (4, 7), (4, 8), (4, 9), (4, 10), (5, 8), (5, 9), (5, 10),
         (6, 10), (7, 9), (8, 10)],
    57: [(3, 5), (0, 6), (0, 7), (2, 5), (2, 7), (5, 7), (7, 9)],
    80: [(0, 2), (0, 3), (0, 4), (0, 5), (2, 4)],
}


def toggled(g, chord):
    """g less the edge `chord`, or g plus it when it is no edge."""
    if g.has_edge(*chord):
        return ColoredGraph.build(g.n, [e for e in g.edges() if e != chord])
    return g.with_edges_added([chord])


class TestSAgent:
    def test_tree_vs_perturbed_within_bound(self):
        g = random_bounded_tree(15, 3, 7)
        edges = list(g.edges())
        # move one leaf to another attachment point
        leaf = next(v for v in range(g.n) if g.degree(v) == 1)
        (a, b) = next(e for e in edges if leaf in e)
        target = next(v for v in range(g.n)
                      if v not in (a, b) and g.degree(v) < 3)
        h = ColoredGraph.build(g.n, [e for e in edges if leaf not in e]
                               + [(min(leaf, target), max(leaf, target))])
        if are_isomorphic(g, h):
            pytest.skip("perturbation landed on an isomorphic tree")
        ag = s_agent(g, h, StrategyConfig(provider="tree_centroid"))
        cap = bound("thm41", n=15, d=3)
        t = run_match(g, h, ag, builtin_duplicator("greedy"), int(cap) + 1)
        assert t.status == SPOILER_WON
        assert t.rounds_used <= cap
        assert t.alternations <= 2

    def test_c9_vs_c10_classo_all_replies(self):
        g, h = cycle(9), cycle(10)
        ag = s_agent(g, h, StrategyConfig(provider="class_o"))
        cap = bound("lemma36", n=9, m=7, epsilon=EPS, k=5)
        rep = survival_vs(ag, g, h, r_max=int(cap) + 1, size_budget=g.n + h.n)
        assert rep.always_wins
        assert rep.deepest_total_rounds <= cap

    def test_disconnected_shortcut(self):
        g = path(6)
        h = ColoredGraph.build(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        ag = s_agent(g, h, StrategyConfig(provider="tree_centroid"))
        rep = survival_vs(ag, g, h, r_max=10)
        assert rep.always_wins
        assert rep.deepest_total_rounds <= math.ceil(math.log2(6)) + 2

    def test_rejects_disconnected_structured_side(self):
        g = ColoredGraph.build(4, [(0, 1), (2, 3)])
        with pytest.raises(StrategyError):
            s_agent(g, path(4), StrategyConfig(provider="tree_centroid"))

    def test_rejects_wrong_class(self):
        from fodef.families import complete
        with pytest.raises(StrategyError):
            s_agent(complete(5), path(5), StrategyConfig(provider="class_o"))
        with pytest.raises(StrategyError):
            s_agent(cycle(4), path(4), StrategyConfig(provider="tree_centroid"))

    def test_rejects_unknown_provider(self):
        with pytest.raises(ValueError, match="'bogus'"):
            s_agent(path(8), path(9), StrategyConfig(provider="bogus"))

    def test_h_side_escapes_bisect(self):
        # a reply that leaves the flap pair after the S0 closing move, an
        # H-side move, starts the escape bisection on the H side
        cap = bound("thm43", n=11)
        for seed, chords in ESCAPE_PAIRS.items():
            g = random_hop(11, seed)
            for chord in chords:
                h = toggled(g, chord)
                ag = s_agent(g, h, StrategyConfig(provider="class_o"))
                rep = survival_vs(ag, g, h, r_max=int(cap) + 1, size_budget=22)
                assert rep.always_wins, (seed, chord)
                assert rep.deepest_total_rounds <= cap, (seed, chord)

    @staticmethod
    def count_class_o_work(monkeypatch, g):
        """Counts of classify_o's construction and of the whole-graph split
        run on g itself."""
        from fodef import separators, strategies
        calls = {"classify": 0, "split": 0}
        classify, split = separators._classify_o, separators._split_o

        def counted_classify(x):
            calls["classify"] += x is g
            return classify(x)

        def counted_split(x, dom, cls):
            calls["split"] += x is g and len(dom) == g.n
            return split(x, dom, cls)

        monkeypatch.setattr(separators, "_classify_o", counted_classify)
        monkeypatch.setattr(separators, "_split_o", counted_split)
        monkeypatch.setattr(strategies, "_split_o", counted_split)
        return calls

    def play_greedy_and_random(self, g, cls=None):
        import random
        h = cli._opponent(g, "hop", 3, 5, random.Random(5))
        for name in ("greedy", "random"):
            agent = s_agent(g, h, StrategyConfig("class_o"), classification=cls)
            t = run_match(g, h, agent, builtin_duplicator(name, seed=7),
                          int(bound("thm43", n=g.n)) + 1)
            assert t.status == SPOILER_WON

    def test_agents_on_one_graph_classify_and_split_it_once(self, monkeypatch):
        g = random_hop(64, 5)
        calls = self.count_class_o_work(monkeypatch, g)
        self.play_greedy_and_random(g)
        assert calls == {"classify": 1, "split": 1}

    def test_own_certificate_classifies_nothing(self, monkeypatch):
        # a certificate the caller made is split from, and G is neither
        # classified nor given a kept split to compare it with
        g = random_hop(64, 5)
        calls = self.count_class_o_work(monkeypatch, g)
        self.play_greedy_and_random(g, OClassification(HOP, tuple(range(64))))
        assert calls == {"classify": 0, "split": 2}
        assert "_o_class" not in vars(g) and "_o_split" not in vars(g)

    def test_small_pairs_vs_all_replies(self):
        # a slice of the full order-<=5 sweep exercised in the acceptance suite
        graphs = [g for n in range(1, 5) for g in enumerate_graphs(n)]
        targets = [g for g in graphs if g.n >= 2 and g.is_connected()]
        checked = 0
        for g in targets:
            is_tree = g.is_tree()
            cls = classify_o(g)
            if not (is_tree or cls.in_class()):
                continue
            for h in graphs:
                if g.n == h.n and are_isomorphic(g, h):
                    continue
                if is_tree:
                    cfg = StrategyConfig(provider="tree_centroid")
                    cap = bound("lemma36", n=g.n, m=max(1, g.max_degree()),
                                epsilon=EPS, k=1)
                else:
                    cfg = StrategyConfig(provider="class_o")
                    cap = bound("lemma36", n=g.n, m=7, epsilon=EPS, k=5)
                ag = s_agent(g, h, cfg, classification=None if is_tree else cls)
                rep = survival_vs(ag, g, h, r_max=int(cap) + 1, size_budget=12)
                assert rep.always_wins
                assert rep.deepest_total_rounds <= cap
                checked += 1
        assert checked > 100


class TestSStarAgent:
    def test_brute_separator_within_lemma52(self):
        g = random_bounded_tree(14, 3, 9)
        h = random_bounded_tree(14, 3, 11)
        assert not are_isomorphic(g, h)
        ag = s_star_agent(g, h, StrategyConfig(provider="brute_min"))
        s = max(1, g.max_degree())
        cap = bound("lemma52", n=14, s=s, epsilon=EPS, k=5)
        t = run_match(g, h, ag, builtin_duplicator("greedy"), int(cap) + 1)
        assert t.status == SPOILER_WON
        assert t.rounds_used <= cap

    def test_alternations_within_allowance(self):
        for seed in (0, 3, 5):
            g = random_bounded_tree(12, 3, seed)
            h = random_bounded_tree(12, 3, seed + 17)
            if are_isomorphic(g, h):
                continue
            ag = s_star_agent(g, h, StrategyConfig(provider="brute_min"))
            depth = ag.frames[0].depth
            t = run_match(g, h, ag, builtin_duplicator("greedy"), 40)
            assert t.status == SPOILER_WON
            assert t.alternations <= 2 * depth + 1

    def test_case1_only_runs_match_plain_variant(self):
        # when only the surplus case fires, both variants play identically
        g, h = path(5), star(5)
        plain = s_agent(g, h, StrategyConfig(provider="tree_centroid"))
        starred = s_star_agent(g, h, StrategyConfig(provider="tree_centroid"))
        t1 = run_match(g, h, plain, builtin_duplicator("greedy"), 20)
        t2 = run_match(g, h, starred, builtin_duplicator("greedy"), 20)
        if all(r["case"] in ("CASE1", "S0", "HALVING") for r in plain.trace.records):
            assert t1.moves == t2.moves

    def test_star_survival_all_replies(self):
        g = random_bounded_tree(8, 3, 2)
        h = random_bounded_tree(8, 3, 3)
        assert not are_isomorphic(g, h)
        ag = s_star_agent(g, h, StrategyConfig(provider="brute_min"))
        cap = bound("lemma52", n=8, s=max(1, g.max_degree()), epsilon=EPS, k=5)
        rep = survival_vs(ag, g, h, r_max=int(cap) + 1)
        assert rep.always_wins
        assert rep.deepest_total_rounds <= cap

    def test_star_small_pairs_vs_all_replies(self):
        graphs = [g for n in range(2, 5)
                  for g in enumerate_graphs(n, connected_only=True)]
        for g in graphs:
            for h in graphs:
                if g.n == h.n and are_isomorphic(g, h):
                    continue
                s = max(1, g.max_degree())
                cap = bound("lemma52", n=g.n, s=s, epsilon=EPS, k=min(5, g.n))
                ag = s_star_agent(g, h, StrategyConfig(provider="brute_min"))
                rep = survival_vs(ag, g, h, r_max=int(cap) + 1, size_budget=12)
                assert rep.always_wins
                assert rep.deepest_total_rounds <= cap


class TestExtraction:
    def test_c3_c4_oracle(self):
        g, h = cycle(4), cycle(3)
        f = synthesize_distinguisher(g, h, OracleSpoiler(g, h), r_max=4)
        prof = analyze(f)
        assert prof.quantifier_rank == exact_rank(g, h).value == 2
        assert prof.is_nnf
        assert evaluate(f, g) and not evaluate(f, h)

    def test_star_pair_rank3(self):
        g, h = star(3), star(4)
        f = synthesize_distinguisher(g, h, OracleSpoiler(g, h), r_max=5)
        prof = analyze(f)
        assert prof.quantifier_rank == 3
        assert evaluate(f, g) and not evaluate(f, h)

    def test_tree_strategy_alternation_le_2(self):
        for seed in (1, 4):
            g = random_bounded_tree(7, 3, seed)
            h = random_bounded_tree(7, 3, seed + 3)
            if are_isomorphic(g, h):
                continue
            ag = s_agent(g, h, StrategyConfig(provider="tree_centroid"))
            tree = reply_tree(g, h, ag, r_max=30)
            f = extract_formula(tree)
            prof = analyze(f, nest_cap=0)
            assert prof.is_nnf
            assert prof.alternation_number <= 2
            assert evaluate(f, g) and not evaluate(f, h)

    def test_qr_equals_deepest_branch(self):
        g, h = path(2), path(3)
        tree = reply_tree(g, h, OracleSpoiler(g, h), r_max=4)
        f = extract_formula(tree)
        assert analyze(f).quantifier_rank == tree.depth == 2

    def test_non_winning_agent_rejected(self):
        from fodef.game import Agent

        class Lazy(Agent):
            def choose(self, state):
                return (SIDE_G, 0)

        with pytest.raises(StrategyError):
            reply_tree(cycle(3), cycle(4), Lazy(), r_max=3)


class DeepcopySpoiler(StrategyMachine):
    """Reference fork: a deep copy of the whole machine, sharing nothing but
    the graphs and the configuration."""

    @classmethod
    def of(cls, m: StrategyMachine) -> "DeepcopySpoiler":
        return cls(**{f.name: getattr(m, f.name) for f in dataclasses.fields(m)})

    def fork(self):
        memo = {id(self.g): self.g, id(self.h): self.h, id(self.config): self.config}
        return copy.deepcopy(self, memo)


def criterion09_pairs(order_max):
    """Criterion-09 pairs: a connected tree or class-O G of order >= 2
    against every connected non-isomorphic H, with the agent config and the
    lemma-3.6 round cap."""
    conn = [g for n in range(1, order_max + 1)
            for g in enumerate_graphs(n, connected_only=True)]
    for g in conn:
        if g.n < 2:
            continue
        is_tree = g.is_tree()
        cls = classify_o(g)
        if not (is_tree or cls.in_class()):
            continue
        for h in conn:
            if g.n == h.n and are_isomorphic(g, h):
                continue
            if is_tree:
                cfg = StrategyConfig(provider="tree_centroid")
                cap = bound("lemma36", n=g.n, m=max(1, g.max_degree()),
                            epsilon=EPS, k=1)
            else:
                cfg = StrategyConfig(provider="class_o")
                cap = bound("lemma36", n=g.n, m=7, epsilon=EPS, k=5)
            yield g, h, cfg, int(cap) + 1, None if is_tree else cls


def machine_state(m):
    """Every field of a strategy machine, comparable by value."""
    state = {f.name: getattr(m, f.name) for f in dataclasses.fields(m)}
    if m.bisection is not None:
        state["bisection"] = vars(m.bisection)
    return state


def greedy_step(agent, state):
    move = agent.choose(state)
    return step(state, move, builtin_duplicator("greedy").respond(state, *move))


def check_sibling_forks(agent, state):
    """Along the greedy line from `state`, fork the agent twice at every
    position with two running replies.  Both forks must equal the agent;
    play one out along the first reply and check that the other, on the
    last reply, still plays, traces and ends as a deep copy taken before
    does.  Returns the positions checked."""
    checked = 0
    while state.status == RUNNING:
        move = agent.choose(state)
        other = state.h if move[0] == SIDE_G else state.g
        running = [c for c in (step(state, move, v) for v in range(other.n))
                   if c.status == RUNNING]
        if len(running) >= 2:
            a, b = agent.fork(), agent.fork()
            assert machine_state(a) == machine_state(agent)
            ref = copy.deepcopy(b)
            before = json.dumps(b.trace.to_json_dict())
            played = running[0]
            while played.status == RUNNING:
                played = greedy_step(a, played)
            assert json.dumps(b.trace.to_json_dict()) == before
            assert b.choose(running[-1]) == ref.next_move(running[-1])
            assert machine_state(b) == machine_state(ref)
            checked += 1
        state = greedy_step(agent, state)
    return checked


def check_fork_shares(agent, state):
    """Along the greedy line from `state`, fork the agent at every position:
    the fork must share every frame below the top, and copy the top frame,
    the bisection and the trace shallowly, sharing every value in them.
    Returns the positions with a frame below the top."""
    deep = 0
    while state.status == RUNNING:
        move = agent.choose(state)
        m, twin = agent, agent.fork()
        assert all(a is b for a, b in zip(twin.frames[:-1], m.frames[:-1]))
        copies = [(m.trace, twin.trace)]
        if m.frames:
            copies.append((m.frames[-1], twin.frames[-1]))
        if m.bisection is not None:
            copies.append((m.bisection, twin.bisection))
        for obj, copied in copies:
            assert copied is not obj
            assert vars(copied).keys() == vars(obj).keys()
            for name, value in vars(obj).items():
                assert getattr(copied, name) is value, name
        deep += len(m.frames) > 1
        state = greedy_step(agent, state)
    return deep


def c8_halving():
    """A halving agent for C8 against two 8-cycles, and the position with
    its two anchor pairs placed."""
    c8, cc8 = cycle(8), two_cycles(8)
    anchors = ((0, 0), (4, 8))
    state = new_game(c8, cc8, 8)
    for pair in anchors:
        state = step(state, (SIDE_G, pair[0]), pair[1])
    return halving_agent(c8, cc8, range(8), anchors, [], []), state


class TestFork:
    def test_matches_deepcopy_fork(self):
        # the copy-on-fork machine against the deep-copy fork it replaced, on
        # the criterion-09 pairs of order <= 4 and on an order-11 HOP pair
        # whose lines start the escape bisection after an H-side move
        cases = list(criterion09_pairs(4))
        assert len(cases) > 50
        g = random_hop(11, 8)
        cases.append((g, toggled(g, (0, 2)), StrategyConfig(provider="class_o"),
                      int(bound("thm43", n=11)) + 1, None))
        for g, h, cfg, r_max, cls in cases:
            fast = s_agent(g, h, cfg, classification=cls)
            slow = DeepcopySpoiler.of(s_agent(g, h, cfg, classification=cls))
            assert (survival_vs(fast, g, h, r_max, size_budget=g.n + h.n)
                    == survival_vs(slow, g, h, r_max, size_budget=g.n + h.n))
            fast_f, slow_f = (print_formula(extract_formula(reply_tree(g, h, a, r_max)))
                              for a in (fast, slow))
            assert fast_f == slow_f

    @pytest.mark.parametrize("make", [
        lambda: s_agent(random_bounded_tree(8, 3, 2), random_bounded_tree(8, 3, 3),
                        StrategyConfig(provider="tree_centroid")),
        lambda: s_star_agent(random_bounded_tree(8, 3, 2),
                             random_bounded_tree(8, 3, 3),
                             StrategyConfig(provider="brute_min")),
        lambda: s_agent(cycle(9), cycle(10), StrategyConfig(provider="class_o")),
    ], ids=["s_agent-tree", "s_star_agent-brute", "s_agent-class_o"])
    def test_sibling_forks_independent(self, make):
        agent = make()
        assert check_sibling_forks(agent, new_game(agent.g, agent.h, 40)) >= 2

    def test_fork_shares_state(self):
        # along every criterion-09 greedy line of order <= 5, and a halving
        # line for the bisection
        deep = 0
        for g, h, cfg, r_max, cls in criterion09_pairs(5):
            agent = s_agent(g, h, cfg, classification=cls)
            deep += check_fork_shares(agent, new_game(g, h, r_max))
        assert deep > 100
        check_fork_shares(*c8_halving())

    def test_fork_copies_instance_dicts(self, monkeypatch):
        # the top frame and the bisection are new objects whose instance
        # dicts hold the same values (check_fork_shares), copied without the
        # reduce protocol
        def no_reduce(self, protocol):
            raise AssertionError("copied through the reduce protocol")

        for cls in (_Frame, _Bisection):
            monkeypatch.setattr(cls, "__reduce_ex__", no_reduce)
        g, h = random_bounded_tree(8, 3, 2), random_bounded_tree(8, 3, 3)
        agent = s_agent(g, h, StrategyConfig(provider="tree_centroid"))
        assert check_fork_shares(agent, new_game(g, h, 20)) >= 1
        check_fork_shares(*c8_halving())

    def test_halving_sibling_forks_independent(self):
        assert check_sibling_forks(*c8_halving()) >= 1

    def test_mid_bisection_sibling_forks_independent(self):
        # forks taken once the interval has shrunk below the region
        g = path(33)
        h = two_copies(g)
        anchors = ((0, 0), (32, 65))
        agent = halving_agent(g, h, range(33), anchors, [], [])
        state = new_game(g, h, 12)
        for pair in anchors:
            state = step(state, (SIDE_G, pair[0]), pair[1])
        for _ in range(2):
            state = greedy_step(agent, state)
        assert state.status == RUNNING
        assert agent.bisection.interval < agent.bisection.region
        assert check_sibling_forks(agent, state) >= 2

    def test_trace_reports_max_similar(self):
        # a deficit-class probe in the starred variant meets one similar flap
        g = ColoredGraph.build(5, [(0, 2), (0, 4), (1, 3), (1, 4)])
        h = ColoredGraph.build(4, [(0, 3), (1, 3), (2, 3)])
        agent = s_star_agent(g, h, StrategyConfig(provider="tree_centroid"))
        run_match(g, h, agent, builtin_duplicator("greedy"), 40)
        assert "CASE2" in [r["case"] for r in agent.trace.records]
        assert agent.trace.to_json_dict()["max_similar"] == 1
        assert agent.fork().trace.to_json_dict()["max_similar"] == 1


class _Stubborn(Agent):
    """Never wins: pebbles vertex 0 of G every round."""

    def choose(self, state):
        return (SIDE_G, 0)


class _Switcher(Agent):
    """Pebbles vertex 0, on G in even rounds and on G' in odd ones, so it
    overspends an alternation budget of 0 in its second round."""

    def choose(self, state):
        return (SIDE_H if state.round % 2 else SIDE_G, 0)


class TestReplyWalk:
    def test_survival_matches_reference(self):
        # the shared walk against a reference that forks at every running reply
        pairs = 0
        for g, h, cfg, r_max, cls in criterion09_pairs(4):
            def agent():
                return s_agent(g, h, cfg, classification=cls)
            assert survival_vs(agent(), g, h, r_max, size_budget=12) == \
                brute_survival(agent(), g, h, r_max)
            pairs += 1
        assert pairs > 50
        for g, h in ((cycle(3), cycle(4)), (path(3), path(4)), (star(3), path(4))):
            for k in (None, 0, 1):
                rep = survival_vs(_Stubborn(), g, h, 3, k=k)
                assert rep == brute_survival(_Stubborn(), g, h, 3, k=k)
                assert not rep.always_wins and rep.max_rounds == 3
                rep = survival_vs(_Switcher(), g, h, 4, k=k)
                assert rep == brute_survival(_Switcher(), g, h, 4, k=k)
            # under k = 0 every line ends at the overspending second move
            rep = survival_vs(_Switcher(), g, h, 4, k=0)
            assert not rep.always_wins
            assert (rep.max_rounds, rep.deepest_total_rounds) == (4, 1)
        g, h, anchors = p7_vs_split()
        c8, cc8 = cycle(8), two_cycles(8)
        for g, h, anchors in ((g, h, anchors), (c8, cc8, ((0, 0), (4, 8)))):
            wins = []
            for r_max in (3, 4, 6):
                def agent():
                    return halving_agent(g, h, range(g.n), anchors, [], [])
                rep = survival_vs(agent(), g, h, r_max, initial_pairs=anchors,
                                  size_budget=g.n + h.n)
                assert rep == brute_survival(agent(), g, h, r_max,
                                             initial_pairs=anchors)
                wins.append(rep.always_wins)
            assert wins[0] is False and wins[-1] is True

    @pytest.mark.parametrize("make", [
        lambda: (s_agent(random_bounded_tree(8, 3, 2), random_bounded_tree(8, 3, 3),
                         StrategyConfig(provider="tree_centroid")), 20, ()),
        lambda: (s_agent(cycle(6), path(6), StrategyConfig(provider="class_o")),
                 20, ()),
        lambda: (halving_agent(cycle(8), two_cycles(8), range(8),
                               ((0, 0), (4, 8)), [], []), 8, ((0, 0), (4, 8))),
    ], ids=["s_agent-tree", "s_agent-class_o", "halving"])
    def test_caller_agent_not_advanced(self, make):
        agent, r_max, anchors = make()
        g, h = agent.g, agent.h
        before = copy.deepcopy(machine_state(agent))
        reports = [survival_vs(agent, g, h, r_max, initial_pairs=anchors,
                               size_budget=g.n + h.n) for _ in range(2)]
        assert machine_state(agent) == before
        assert reports[0] == reports[1] and reports[0].always_wins
        if anchors:
            return
        trees = [reply_tree(g, h, agent, r_max) for _ in range(2)]
        assert machine_state(agent) == before
        first, second = [(t.depth, t.branches, print_formula(extract_formula(t)))
                         for t in trees]
        assert first == second


class TestDecompose:
    """The size-first flap classes against one `group_by_isomorphism` over
    every recolored flap of both sides; the G flaps the separator hands over
    against `components`, and each flap certificate, in G's ids, against
    its flap."""

    @staticmethod
    def reference(m, frame):
        subs = ([recolored_flap(m.g, f, frame.x_order, frame.fresh, frame.overlay_g)
                 for f in frame.flaps_g]
                + [recolored_flap(m.h, f, frame.y_order, frame.fresh, frame.overlay_h)
                   for f in frame.flaps_h])
        class_of = [0] * len(subs)
        classes = group_by_isomorphism(subs)
        for ci, members in enumerate(classes):
            for i in members:
                class_of[i] = ci
        ng = len(frame.flaps_g)
        return class_of[:ng], class_of[ng:], len(classes)

    @pytest.fixture
    def checked(self, monkeypatch):
        """Counts of the decompositions checked, of those in which two
        flaps share an order, and of those with flap annotations."""
        counts = {"frames": 0, "shared": 0, "tagged": 0}
        decompose = StrategyMachine._decompose

        def checked_decompose(m, frame):
            decompose(m, frame)
            rest = frame.dom_g - frozenset(frame.x_order)
            assert frame.flaps_g == [frozenset(c)
                                     for c in m.g.components(within=rest)]
            if frame.provider_tags is not None:
                counts["tagged"] += 1
                assert len(frame.provider_tags) == len(frame.flaps_g)
                assert all(tag.certifies(m.g, within=f) for f, tag
                           in zip(frame.flaps_g, frame.provider_tags))
            got = (frame.class_of_g, frame.class_of_h, frame.nclasses)
            assert got == self.reference(m, frame)
            orders = [len(f) for f in frame.flaps_g + frame.flaps_h]
            counts["frames"] += 1
            counts["shared"] += len(set(orders)) < len(orders)

        monkeypatch.setattr(StrategyMachine, "_decompose", checked_decompose)
        return counts

    @staticmethod
    def play(g, h, cfg, r_max, cls=None):
        for name in ("greedy", "random"):
            agent = s_agent(g, h, cfg, classification=cls)
            run_match(g, h, agent, builtin_duplicator(name, seed=g.n * h.n), r_max)

    def test_criterion09_pairs(self, checked):
        for g, h, cfg, r_max, cls in criterion09_pairs(5):
            self.play(g, h, cfg, r_max, cls)
        assert checked["frames"] > 400 and checked["shared"] > 200

    @pytest.mark.parametrize("family", ["tree", "hop"])
    def test_seeded_trials(self, checked, family):
        import random
        for n in (64, 128):
            for seed in range(1, 13):
                if family == "tree":
                    g = random_bounded_tree(n, 3, seed)
                    cfg, cap = StrategyConfig("tree_centroid"), bound("thm41", n=n, d=3)
                else:
                    g = random_hop(n, seed)
                    cfg, cap = StrategyConfig("class_o"), bound("thm43", n=n)
                h = cli._opponent(g, family, 3, seed, random.Random(seed))
                self.play(g, h, cfg, int(cap) + 1)
        assert checked["frames"] > 30 and checked["shared"] > 8
        assert checked["tagged"] == (checked["frames"] if family == "hop" else 0)
