from dataclasses import replace
from fractions import Fraction

import hypothesis.strategies as hst
import pytest
from hypothesis import given, settings

from fodef import game
from fodef.families import cycle, enumerate_graphs, path, star
from fodef.game import (
    DUPLICATOR_SURVIVED, REPLY_NODE_CAP, RUNNING, SIDE_G, SIDE_H, SPOILER_WON,
    Agent, AgentError, IllegalMove, ReplyNode, ReplyTree,
    builtin_duplicator, explore_replies, new_game, run_match, step,
)
from fodef.graphs import (
    BudgetExceeded, ColoredGraph, are_isomorphic, check_partial_isomorphism,
    extends_partial_isomorphism, find_isomorphism,
)
from fodef.oracle import OracleSpoiler, exact_rank
from fodef.separators import classify_o
from fodef.strategies import StrategyConfig, bound, s_agent

from helpers import brute_partial_isomorphism


@hst.composite
def pairs_and_moves(draw):
    """A colored pair of order <= 6 (often one graph twice) and up to eight
    moves (side, spoiler vertex, reply); a reply of None repeats the
    spoiler's vertex id, which keeps a pair of equal graphs alive."""
    def graph():
        n = draw(hst.integers(1, 6))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if draw(hst.booleans())]
        colors = [draw(hst.sets(hst.integers(0, 1), max_size=1)) for _ in range(n)]
        return ColoredGraph.build(n, edges, colors)

    g = graph()
    h = g if draw(hst.booleans()) else graph()
    moves = draw(hst.lists(hst.tuples(hst.sampled_from([SIDE_G, SIDE_H]),
                                      hst.integers(0, 5),
                                      hst.none() | hst.integers(0, 5)),
                           min_size=1, max_size=8))
    return g, h, moves


class ScriptedSpoiler(Agent):
    def __init__(self, moves):
        self.moves = list(moves)
        self.i = 0

    def choose(self, state):
        m = self.moves[self.i]
        self.i += 1
        return m

    def fork(self):
        twin = ScriptedSpoiler(self.moves)
        twin.i = self.i
        return twin


class MirrorDuplicator(Agent):
    """Plays the image of Spoiler's vertex along a fixed isomorphism."""

    def __init__(self, mapping: dict[int, int]):
        self.fwd = dict(mapping)
        self.rev = {v: u for u, v in mapping.items()}

    def respond(self, state, side, vertex):
        return self.fwd[vertex] if side == SIDE_G else self.rev[vertex]


def mirror_duplicator(g: ColoredGraph, h: ColoredGraph) -> MirrorDuplicator:
    m = find_isomorphism(g, h)
    if m is None:
        raise AgentError("mirror duplicator needs isomorphic inputs")
    return MirrorDuplicator(m)


class TestStateMachine:
    def test_new_game(self):
        st = new_game(cycle(3), cycle(4), 3)
        assert st.status == RUNNING
        assert st.round == 0

    def test_round_guard(self):
        with pytest.raises(IllegalMove):
            new_game(cycle(3), cycle(3), 0)

    def test_isomorphic_inputs_allowed(self):
        st = new_game(cycle(4), cycle(4), 1, 0)
        st = step(st, (SIDE_G, 0), 2)
        assert st.status == DUPLICATOR_SURVIVED

    def test_repeat_pebble_mirrored(self):
        st = new_game(cycle(4), cycle(4), 3)
        st = step(st, (SIDE_G, 1), 2)
        st = step(st, (SIDE_G, 1), 2)
        assert st.status == RUNNING

    def test_equality_condition_break(self):
        st = new_game(cycle(4), cycle(4), 3)
        st = step(st, (SIDE_G, 0), 0)
        st = step(st, (SIDE_G, 0), 1)
        assert st.status == SPOILER_WON

    def test_adjacency_break(self):
        # C3 vs C4: pebble two antipodal C4 vertices; any distinct C3 pair is adjacent
        st = new_game(cycle(3), cycle(4), 3)
        st = step(st, (SIDE_H, 0), 0)
        st = step(st, (SIDE_H, 2), 1)
        assert st.status == SPOILER_WON

    def test_alternation_budget_enforced(self):
        st = new_game(cycle(4), cycle(5), 4, k=0)
        st = step(st, (SIDE_G, 0), 0)
        with pytest.raises(IllegalMove):
            step(st, (SIDE_H, 1), 1)

    def test_alternation_accounting(self):
        st = new_game(cycle(4), cycle(5), 4, k=2)
        st = step(st, (SIDE_G, 0), 0)
        st = step(st, (SIDE_H, 2), 2)
        assert st.alternations_used == 1


class TestStepRule:
    @settings(max_examples=300, deadline=None)
    @given(pairs_and_moves())
    def test_status_matches_full_check(self, case):
        # step checks only the new pair; the status must still be that of a
        # check of every pair against every earlier one
        g, h, moves = case
        state = new_game(g, h, len(moves))
        for side, a, b in moves:
            own, other = (g, h) if side == SIDE_G else (h, g)
            u = a % own.n
            v = (a if b is None else b) % other.n
            state = step(state, (side, u), v)
            whole = brute_partial_isomorphism(g, h, state.pebbles)
            assert check_partial_isomorphism(g, h, state.pebbles) == whole
            if not whole:
                assert state.status == SPOILER_WON
                break
            assert state.status == (DUPLICATOR_SURVIVED if state.round == len(moves)
                                    else RUNNING)


class TestMatches:
    def test_mirror_survives(self):
        g = cycle(5)
        relabel = ColoredGraph.build(5, [((u * 2) % 5, (v * 2) % 5) for u, v in g.edges()])
        spoiler = ScriptedSpoiler([(SIDE_G, i % 5) for i in range(6)])
        t = run_match(g, relabel, spoiler, mirror_duplicator(g, relabel), 6)
        assert t.status == DUPLICATOR_SURVIVED

    def test_budget_exceed_is_survival(self):
        spoiler = ScriptedSpoiler([(SIDE_G, 0), (SIDE_H, 0), (SIDE_G, 1), (SIDE_H, 1)])
        t = run_match(cycle(4), cycle(5), spoiler, builtin_duplicator("greedy"), 4, k=1)
        assert t.status == DUPLICATOR_SURVIVED
        assert "budget_exceeded" in t.annotations

    def test_replay_determinism(self):
        spoiler = ScriptedSpoiler([(SIDE_H, 0), (SIDE_H, 2), (SIDE_G, 1)])
        g, h = cycle(3), cycle(4)
        t = run_match(g, h, spoiler, builtin_duplicator("greedy"), 3)
        assert t.replay(g, h, 3) == t.status

    def test_alternations_match_side_switches(self):
        moves = [(SIDE_G, 0), (SIDE_H, 1), (SIDE_H, 2), (SIDE_G, 1)]
        spoiler = ScriptedSpoiler(moves)
        t = run_match(cycle(5), cycle(5), spoiler, builtin_duplicator("greedy"), 4)
        switches = sum(1 for i in range(1, len(t.moves))
                       if t.moves[i][1] != t.moves[i - 1][1])
        assert t.alternations == switches

    def test_transcript_json(self):
        spoiler = ScriptedSpoiler([(SIDE_G, 0)])
        t = run_match(cycle(3), cycle(3), spoiler, builtin_duplicator("greedy"), 1)
        assert '"moves"' in t.to_json()


class TestDuplicators:
    def test_unknown_name(self):
        with pytest.raises(AgentError):
            builtin_duplicator("nonsense")

    def test_random_needs_seed(self):
        with pytest.raises(AgentError):
            builtin_duplicator("random")

    def test_greedy_survives_two_rounds_vs_weak_spoiler(self):
        spoiler = ScriptedSpoiler([(SIDE_G, 0), (SIDE_G, 1), (SIDE_G, 2)])
        t = run_match(cycle(5), cycle(6), spoiler, builtin_duplicator("greedy"), 3)
        assert t.status == DUPLICATOR_SURVIVED or t.rounds_used > 2

    def test_exhaustive_budget_guard(self):
        # combined order 18 exceeds the oracle's default budget of 16
        d = builtin_duplicator("exhaustive")
        st = new_game(cycle(9), cycle(9), 2)
        with pytest.raises(AgentError):
            d.respond(st, SIDE_G, 0)

    def test_exhaustive_survives_optimally_c3_c4(self):
        # the pair rank is 2, so the optimal Duplicator survives exactly 1 round
        from fodef.oracle import OracleSpoiler
        g, h = cycle(3), cycle(4)
        t = run_match(g, h, OracleSpoiler(g, h), builtin_duplicator("exhaustive"), 5)
        assert t.status == SPOILER_WON
        assert t.rounds_used == 2

    def test_star_pair_won_in_exactly_three(self):
        g, h = star(3), star(4)
        from fodef.oracle import OracleSpoiler
        t = run_match(g, h, OracleSpoiler(g, h), builtin_duplicator("exhaustive"), 3)
        assert t.status == SPOILER_WON
        assert t.rounds_used == 3

    def test_no_agent_beats_exhaustive_below_rank(self):
        # with one round less than the pair rank, the optimal Duplicator
        # survives any Spoiler
        from fodef.oracle import OracleSpoiler, exact_rank
        for g, h in [(cycle(3), cycle(4)), (star(3), star(4)),
                     (path(2), path(3))]:
            rank = exact_rank(g, h).value
            if rank < 2:
                continue
            t = run_match(g, h, OracleSpoiler(g, h),
                          builtin_duplicator("exhaustive"), rank - 1)
            assert t.status == DUPLICATOR_SURVIVED

    def test_exhaustive_reused_on_another_pair(self):
        # one instance serves a second pair exactly as a fresh one does
        from fodef.oracle import OracleSpoiler
        d = builtin_duplicator("exhaustive")
        g, h = star(3), star(4)
        t = run_match(g, h, OracleSpoiler(g, h), d, 3)
        assert (t.status, t.rounds_used) == (SPOILER_WON, 3)
        g, h = path(5), path(6)
        for r in (2, 3):
            fresh = run_match(g, h, OracleSpoiler(g, h),
                              builtin_duplicator("exhaustive"), r)
            assert run_match(g, h, OracleSpoiler(g, h), d, r) == fresh
        assert fresh.status == SPOILER_WON

    def test_greedy_outlasts_random_spoiler_on_close_cycles(self):
        import random

        class RandomSpoiler(Agent):
            def __init__(self, seed):
                self.rng = random.Random(seed)

            def choose(self, state):
                side = self.rng.choice([SIDE_G, SIDE_H])
                own = state.g if side == SIDE_G else state.h
                return side, self.rng.randrange(own.n)

        for seed in range(8):
            t = run_match(cycle(5), cycle(6), RandomSpoiler(seed),
                          builtin_duplicator("greedy"), 6)
            survived = (t.rounds_used if t.status == DUPLICATOR_SURVIVED
                        else t.rounds_used - 1)
            assert survived >= 2

    def test_human_agent_prompts_and_validates(self):
        from fodef.game import HumanDuplicator
        answers = iter(["7", "x", "1"])
        lines = []
        d = HumanDuplicator(input_fn=lambda p: next(answers),
                            output_fn=lines.append)
        st = new_game(cycle(3), cycle(3), 2)
        v = d.respond(st, SIDE_G, 0)
        assert v == 1
        assert any("spoiler played 0" in ln for ln in lines)


# -- the indexed greedy reply ---------------------------------------------------------


def reference_greedy_reply(state, side, vertex):
    """The scan the indexed greedy reply replaced: the least (breaks the
    pebbles, degree gap, id) over every vertex of the answering graph."""
    own, other = (state.g, state.h) if side == SIDE_G else (state.h, state.g)

    def score(v):
        pair = (vertex, v) if side == SIDE_G else (v, vertex)
        return (not extends_partial_isomorphism(state.g, state.h, state.pebbles, pair),
                abs(own.degree(vertex) - other.degree(v)), v)

    return min(range(other.n), key=score)


def random_colored_pair(rng):
    """A colored graph of order <= 16 of random density, against itself, a
    relabelled copy with at most one edge toggled, or another such graph."""
    def graph(n):
        p = rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        colors = [rng.choice([(), (), (0,), (1,)]) for _ in range(n)]
        return ColoredGraph.build(n, edges, colors)

    g = graph(rng.randint(1, 16))
    kind = rng.randrange(3)
    if kind == 0:
        return g, g
    if kind == 2:
        return g, graph(rng.randint(1, 16))
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = {tuple(sorted((perm[u], perm[v]))) for u, v in g.edges()}
    if g.n > 1 and rng.random() < 0.5:
        edges ^= {tuple(sorted(rng.sample(range(g.n), 2)))}
    colors = [()] * g.n
    for v in range(g.n):
        colors[perm[v]] = g.colors[v]
    return g, ColoredGraph.build(g.n, sorted(edges), colors)


class TestGreedyIndex:
    def test_matches_scan_on_random_pairs(self):
        import random
        rng = random.Random(13)
        greedy = builtin_duplicator("greedy")
        replies = 0
        for _ in range(600):
            g, h = random_colored_pair(rng)
            state = new_game(g, h, 10)
            while state.status == RUNNING:
                side = rng.choice([SIDE_G, SIDE_H])
                u = rng.randrange((g if side == SIDE_G else h).n)
                v = greedy.respond(state, side, u)
                assert v == reference_greedy_reply(state, side, u)
                state = step(state, (side, u), v)
                replies += 1
        assert replies > 2000

    def test_matches_scan_in_strategy_matches(self):
        # the replies the campaigns ask for: s_agent on trees and HOP pairs
        from fodef.families import random_bounded_tree, random_hop

        class Checked(Agent):
            def __init__(self):
                self.replies = 0

            def respond(self, state, side, vertex):
                v = builtin_duplicator("greedy").respond(state, side, vertex)
                assert v == reference_greedy_reply(state, side, vertex)
                self.replies += 1
                return v

        dup = Checked()
        for seed in range(1, 7):
            for g, cfg, cap in (
                    (random_bounded_tree(48, 3, seed), "tree_centroid",
                     bound("thm41", n=48, d=3)),
                    (random_hop(48, seed), "class_o", bound("thm43", n=48))):
                h = (random_bounded_tree(48, 3, seed + 100) if cfg == "tree_centroid"
                     else random_hop(48, seed + 100))
                agent = s_agent(g, h, StrategyConfig(provider=cfg))
                assert run_match(g, h, agent, dup, int(cap) + 1).status == SPOILER_WON
        assert dup.replies > 50


# -- the reply walk ------------------------------------------------------------------


def reference_explore_replies(g, h, spoiler, r_max, k=None, initial_pairs=()):
    """The walk that steps every reply, kept as the reference for
    `explore_replies`, which makes a state only for the replies that keep
    the pebbles a partial isomorphism, without `step`'s checks."""
    state = new_game(g, h, r_max, k)
    for u, v in initial_pairs:
        state = step(state, (SIDE_G, u), v)
    if state.status != RUNNING:
        raise ValueError("initial configuration is already decided")
    unwon = []
    nodes = won = depth = 0

    def walk(state, agent):
        nonlocal nodes, won, depth
        nodes += 1
        if nodes > REPLY_NODE_CAP:
            raise BudgetExceeded(f"reply tree exceeded {REPLY_NODE_CAP} nodes")
        move = agent.choose(state)
        node = ReplyNode(move)
        if not state.switch_allowed(move[0]):
            unwon.append(replace(state, status=DUPLICATOR_SURVIVED))
            return node
        other = h if move[0] == SIDE_G else g
        children = [step(state, move, v) for v in range(other.n)]
        last = max((v for v, c in enumerate(children) if c.status == RUNNING),
                   default=None)
        for v, child in enumerate(children):
            if child.status == RUNNING:
                node.children[v] = walk(child, agent if v == last else agent.fork())
            elif child.status == SPOILER_WON:
                won += 1
                depth = max(depth, child.round)
                node.children[v] = child.pebbles
            else:
                unwon.append(child)
        return node

    root = walk(state, spoiler.fork())
    return ReplyTree(g, h, root, depth, won + len(unwon), unwon)


def same_reply_nodes(a: ReplyNode, b: ReplyNode) -> bool:
    """Equal moves and children, the children in the same insertion order."""
    if a.move != b.move or list(a.children) != list(b.children):
        return False
    for x, y in zip(a.children.values(), b.children.values()):
        if isinstance(x, ReplyNode) != isinstance(y, ReplyNode):
            return False
        if not (same_reply_nodes(x, y) if isinstance(x, ReplyNode) else x == y):
            return False
    return True


def reply_counts(node: ReplyNode) -> tuple[int, int]:
    """(running replies, won replies) below node."""
    running = won = 0
    todo = [node]
    while todo:
        for child in todo.pop().children.values():
            if isinstance(child, ReplyNode):
                running += 1
                todo.append(child)
            else:
                won += 1
    return running, won


EPS = Fraction(2, 3)


def criterion09_small_pairs():
    """The criterion-09 pairs of order <= 5: a connected tree or class-O G
    against every connected non-isomorphic H, with the strategy's config,
    classification and the lemma-3.6 bound + 1 as r_max."""
    conn = [g for n in range(1, 6)
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
            yield g, h, cfg, None if is_tree else cls, int(cap) + 1


class TestReplyWalk:
    def check_walk(self, monkeypatch, make_spoiler, g, h, r_max, k=None):
        """explore_replies and the reference give the same tree, depth,
        branches and unwon states, and the walk makes one child state per
        running or unwon reply, through its unchecked round; returns the
        tree and its number of won replies."""
        want = reference_explore_replies(g, h, make_spoiler(), r_max, k)
        calls = 0
        checked_round = game._checked_round

        def counting_round(*args):
            nonlocal calls
            calls += 1
            return checked_round(*args)

        with monkeypatch.context() as m:
            m.setattr(game, "_checked_round", counting_round)
            got = explore_replies(g, h, make_spoiler(), r_max, k)
        assert same_reply_nodes(got.root, want.root)
        assert (got.depth, got.branches) == (want.depth, want.branches)
        assert got.unwon == want.unwon
        running, won = reply_counts(want.root)
        # an unwon state that did not fill the rounds ended on the budget
        stepped_unwon = sum(1 for s in want.unwon if s.round == r_max)
        assert calls == running + stepped_unwon
        return got, won

    def test_matches_reference_on_criterion09_pairs(self, monkeypatch):
        pairs = won = 0
        for g, h, cfg, cls, r_max in criterion09_small_pairs():
            won += self.check_walk(
                monkeypatch, lambda: s_agent(g, h, cfg, classification=cls),
                g, h, r_max)[1]
            pairs += 1
        assert pairs == 630
        assert won > 0   # won lines are the replies that make no state

    def test_oracle_spoiler_matches_reference(self, monkeypatch):
        # at the pair's rank every line is won; one round less leaves
        # survivals
        for g, h, _, _, _ in criterion09_small_pairs():
            value = exact_rank(g, h).value
            for r in (value, value - 1):
                if r >= 1:
                    self.check_walk(monkeypatch, lambda: OracleSpoiler(g, h),
                                    g, h, r)

    def test_budget_end_matches_reference(self, monkeypatch):
        # the third move switches sides a second time, past k = 1
        moves = [(SIDE_G, 0), (SIDE_H, 1), (SIDE_G, 2), (SIDE_G, 3)]
        tree, won = self.check_walk(monkeypatch, lambda: ScriptedSpoiler(moves),
                                    cycle(4), cycle(5), 4, k=1)
        assert won > 0
        assert any(s.round < 4 for s in tree.unwon)

    def test_illegal_spoiler_move_raises(self):
        spoiler = ScriptedSpoiler([(SIDE_G, 7)])
        with pytest.raises(IllegalMove, match="spoiler vertex 7 out of range"):
            explore_replies(cycle(3), cycle(4), spoiler, 2)
        spoiler = ScriptedSpoiler([("X", 0)])
        with pytest.raises(IllegalMove, match="unknown side"):
            explore_replies(cycle(3), cycle(4), spoiler, 2)
