"""The round-based two-player pebble game on a pair of colored graphs.

Spoiler picks a side and a vertex each round; Duplicator answers on the other
side.  Duplicator survives round r when the paired pebbles still induce a
partial isomorphism; the first broken round ends the game.  An optional
budget limits how often Spoiler may switch sides between consecutive rounds.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from fodef.graphs import (BudgetExceeded, ColoredGraph,
                          extends_partial_isomorphism)

REPLY_NODE_CAP = 500_000    # Spoiler moves one reply walk may explore

SIDE_G = "G"
SIDE_H = "G'"

RUNNING = "running"
SPOILER_WON = "spoiler_won"
DUPLICATOR_SURVIVED = "duplicator_survived"


class IllegalMove(ValueError):
    pass


class AgentError(RuntimeError):
    pass


@dataclass(frozen=True)
class GameState:
    g: ColoredGraph
    h: ColoredGraph
    max_rounds: int
    alternation_budget: Optional[int]
    pebbles: tuple[tuple[int, int], ...] = ()
    last_side: Optional[str] = None      # the side of the last Spoiler move
    alternations_used: int = 0
    status: str = RUNNING

    @property
    def round(self) -> int:
        return len(self.pebbles)

    def switch_allowed(self, side: str) -> bool:
        return alternations_after(self.last_side, self.alternations_used, side,
                                  self.alternation_budget) is not None


def alternations_after(last_side: Optional[str], used: int, side: str,
                       budget: Optional[int]) -> Optional[int]:
    """The side switches used after a Spoiler move on `side`, following one
    on `last_side` with `used` spent; None when the budget forbids it."""
    if last_side is None or side == last_side:
        return used
    if budget is not None and used >= budget:
        return None
    return used + 1


def new_game(g: ColoredGraph, h: ColoredGraph, r: int,
             k: Optional[int] = None) -> GameState:
    if r < 1:
        raise IllegalMove(f"round count must be at least 1, got {r}")
    if k is not None and k < 0:
        raise IllegalMove("alternation budget must be non-negative")
    return GameState(g, h, r, k)


def _reply_graph(state: GameState, side: str, u: int) -> ColoredGraph:
    """The graph Duplicator answers in; IllegalMove for an unknown side or a
    Spoiler vertex out of range."""
    if side not in (SIDE_G, SIDE_H):
        raise IllegalMove(f"unknown side {side!r}")
    own = state.g if side == SIDE_G else state.h
    if not (0 <= u < own.n):
        raise IllegalMove(f"spoiler vertex {u} out of range")
    return state.h if side == SIDE_G else state.g


def step(state: GameState, spoiler_move: tuple[str, int],
         duplicator_move: int) -> GameState:
    """One full round; returns the new state with the win condition applied.

    Only `new_game` and `step` make running states, so the pebbles of a
    running state already form a partial isomorphism, and only the new pair
    is checked against them."""
    if state.status != RUNNING:
        raise IllegalMove("game is over")
    side, u = spoiler_move
    other = _reply_graph(state, side, u)
    if not (0 <= duplicator_move < other.n):
        raise IllegalMove(f"duplicator vertex {duplicator_move} out of range")
    alts = alternations_after(state.last_side, state.alternations_used, side,
                              state.alternation_budget)
    if alts is None:
        raise IllegalMove("alternation budget exceeded")
    pair = (u, duplicator_move) if side == SIDE_G else (duplicator_move, u)
    pebbles = state.pebbles + (pair,)
    status = RUNNING
    if not extends_partial_isomorphism(state.g, state.h, state.pebbles, pair):
        status = SPOILER_WON
    elif len(pebbles) >= state.max_rounds:
        status = DUPLICATOR_SURVIVED
    return GameState(state.g, state.h, state.max_rounds, state.alternation_budget,
                     pebbles=pebbles, last_side=side,
                     alternations_used=alts, status=status)


# -- agents ----------------------------------------------------------------------


class Agent:
    """Base agent; spoilers implement choose(), duplicators respond()."""

    def choose(self, state: GameState) -> tuple[str, int]:
        raise NotImplementedError

    def respond(self, state: GameState, side: str, vertex: int) -> int:
        raise NotImplementedError

    def fork(self) -> "Agent":
        return copy.deepcopy(self)


class RandomDuplicator(Agent):
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def respond(self, state, side, vertex):
        other = state.h if side == SIDE_G else state.g
        return self.rng.randrange(other.n)


def _nearest_degree(by_degree: dict, d: int, skip=()) -> Optional[int]:
    """The least vertex outside `skip` among those whose degree is nearest
    to d, or None when every listed vertex is skipped."""
    for gap in sorted({abs(e - d) for e in by_degree}):
        firsts = (next((v for v in by_degree.get(e, ()) if v not in skip), None)
                  for e in (d - gap, d + gap))
        found = [v for v in firsts if v is not None]
        if found:
            return min(found)
    return None


class GreedyDuplicator(Agent):
    """Keeps the pairing a partial isomorphism whenever some reply can,
    preferring degree-matched vertices; least id breaks ties.

    The reply is that least (keeps, degree gap, id) over every vertex,
    found from an index of the answering graph instead of a scan.  A
    pebbled vertex can only be answered by its partner, and a vertex next
    to a pebble only by a neighbour of that pebble's partner.  Any other
    vertex is answered, if at all, by a vertex of its colors outside the
    partners and their neighbourhoods."""

    def respond(self, state, side, vertex):
        own, other = (state.g, state.h) if side == SIDE_G else (state.h, state.g)
        mine, theirs = (0, 1) if side == SIDE_G else (1, 0)
        by_colors, by_degree = other._reply_index
        d = own.degree(vertex)
        partner = {p[mine]: p[theirs] for p in state.pebbles}
        near = [b for a, b in partner.items() if a in own.adj[vertex]]
        if vertex in partner:
            cands = (partner[vertex],)
        elif near:
            cands = min((other.adj[b] for b in near), key=len)
        else:
            blocked = set(partner.values())
            for b in partner.values():
                blocked |= other.adj[b]
            v = _nearest_degree(by_colors.get(own.colors[vertex], {}), d, blocked)
            if v is not None:
                return v
            cands = ()
        kept = []
        for v in cands:
            pair = (vertex, v) if side == SIDE_G else (v, vertex)
            if extends_partial_isomorphism(state.g, state.h, state.pebbles, pair):
                kept.append(v)
        if kept:
            return min(kept, key=lambda v: (abs(d - other.degree(v)), v))
        return _nearest_degree(by_degree, d)


class HumanDuplicator(Agent):
    """Line-oriented terminal player."""

    def __init__(self, input_fn: Callable[[str], str] = input,
                 output_fn: Callable[[str], None] = print):
        self.ask = input_fn
        self.say = output_fn

    def respond(self, state, side, vertex):
        other = state.h if side == SIDE_G else state.g
        other_name = SIDE_H if side == SIDE_G else SIDE_G
        self.say(f"round {state.round + 1}: spoiler played {vertex} on {side}")
        self.say(f"pebbles so far: {list(state.pebbles)}")
        while True:
            try:
                raw = self.ask(f"your vertex on {other_name} (0..{other.n - 1}): ")
            except EOFError:
                raise AgentError("input ended") from None
            try:
                v = int(raw.strip())
            except ValueError:
                self.say("please enter an integer")
                continue
            if 0 <= v < other.n:
                return v
            self.say("out of range")


def builtin_duplicator(name: str, seed: Optional[int] = None,
                       size_budget: Optional[int] = None) -> Agent:
    """Factory for the named Duplicator policies."""
    if name == "random":
        if seed is None:
            raise AgentError("random duplicator requires a seed")
        return RandomDuplicator(seed)
    if name == "greedy":
        return GreedyDuplicator()
    if name == "exhaustive":
        from fodef.oracle import ExhaustiveDuplicator
        return ExhaustiveDuplicator(size_budget)
    if name == "human":
        return HumanDuplicator()
    raise AgentError(f"unknown duplicator {name!r}")


# -- matches ----------------------------------------------------------------------


@dataclass(frozen=True)
class Transcript:
    moves: tuple[tuple[int, str, int, int], ...]  # (round, side, spoiler v, duplicator v)
    status: str
    rounds_used: int
    alternations: int
    annotations: dict = field(default_factory=dict, compare=False)

    def to_json(self) -> str:
        return json.dumps({
            "moves": [{"round": r, "side": s, "spoiler": u, "duplicator": v}
                      for r, s, u, v in self.moves],
            "status": self.status,
            "alternations": self.alternations,
        })

    def replay(self, g: ColoredGraph, h: ColoredGraph, r: int,
               k: Optional[int] = None) -> str:
        state = new_game(g, h, r, k)
        for _, side, u, v in self.moves:
            state = step(state, (side, u), v)
        return state.status


def run_match(g: ColoredGraph, h: ColoredGraph, spoiler: Agent,
              duplicator: Agent, r: int, k: Optional[int] = None) -> Transcript:
    """Drive both agents to termination.

    A Spoiler attempt to overspend the alternation budget ends the match as a
    Duplicator survival rather than an error.
    """
    state = new_game(g, h, r, k)
    moves = []
    notes = {}
    while state.status == RUNNING:
        side, u = spoiler.choose(state)
        if not state.switch_allowed(side):
            notes["budget_exceeded"] = state.round + 1
            state = replace(state, status=DUPLICATOR_SURVIVED)
            break
        v = duplicator.respond(state, side, u)
        state = step(state, (side, u), v)
        moves.append((state.round, side, u, v))
    return Transcript(tuple(moves), state.status, state.round,
                      state.alternations_used, notes)


# -- every reply against a fixed Spoiler -------------------------------------------


@dataclass
class ReplyNode:
    move: tuple[str, int]
    children: dict = field(default_factory=dict)  # reply -> ReplyNode | won pebbles


@dataclass
class ReplyTree:
    """Exhaustive transcript family: the fixed agent's move at every node and
    a branch for every Duplicator reply.  A line Spoiler does not win has no
    branch; its last state is listed apart, as a Duplicator survival."""
    g: ColoredGraph
    h: ColoredGraph
    root: ReplyNode
    depth: int                 # most rounds a won line took
    branches: int              # finished lines, won or not
    unwon: list                # the last state of every line not won


def _checked_round(state: GameState, side: str, pair: tuple[int, int],
                   alternations: int) -> GameState:
    """`step` without its checks, for `explore_replies`, which makes each of
    them itself, once per node where it can.  Each check and where the walk
    makes it:
    - the game is running: the walk only descends into running states;
    - the side and the Spoiler vertex: `_reply_graph`, once per node;
    - the reply is in range: the walk plays only the vertices of that graph;
    - the alternation budget: `alternations_after`, once per node;
    - the partial isomorphism: the walk's `keeps` test."""
    pebbles = state.pebbles + (pair,)
    status = DUPLICATOR_SURVIVED if len(pebbles) >= state.max_rounds else RUNNING
    return GameState(state.g, state.h, state.max_rounds, state.alternation_budget,
                     pebbles, side, alternations, status)


def explore_replies(g: ColoredGraph, h: ColoredGraph, spoiler: Agent,
                    r_max: int, k: Optional[int] = None,
                    initial_pairs: tuple = ()) -> ReplyTree:
    """Play a fork of a deterministic Spoiler agent against every Duplicator
    reply, after the initial pairs, each played as a G-side move.  Each
    reply is tested once against the pebbles: one that breaks the partial
    isomorphism is a won line and keeps only its pebbles, and each other
    one makes its child state through `_checked_round`, the node's move
    checked once for all of them.  Replies are handled in reply order; the
    last one that keeps the game running inherits the node's agent and the
    others get forks, since nothing consults a node's agent after its last
    line."""
    state = new_game(g, h, r_max, k)
    for u, v in initial_pairs:
        state = step(state, (SIDE_G, u), v)
    if state.status != RUNNING:
        raise ValueError("initial configuration is already decided")
    unwon = []
    nodes = won = depth = 0

    def walk(state: GameState, agent: Agent) -> ReplyNode:
        nonlocal nodes, won, depth
        nodes += 1
        if nodes > REPLY_NODE_CAP:
            raise BudgetExceeded(f"reply tree exceeded {REPLY_NODE_CAP} nodes")
        move = agent.choose(state)
        node = ReplyNode(move)
        side, u = move
        alts = alternations_after(state.last_side, state.alternations_used, side,
                                  state.alternation_budget)
        if alts is None:
            unwon.append(replace(state, status=DUPLICATOR_SURVIVED))
            return node
        other = _reply_graph(state, side, u)
        pebbles = state.pebbles
        pairs = ([(u, v) for v in range(other.n)] if side == SIDE_G
                 else [(v, u) for v in range(other.n)])
        keeps = [extends_partial_isomorphism(g, h, pebbles, p) for p in pairs]
        lost = keeps.count(False)
        if lost:
            won += lost
            depth = max(depth, len(pebbles) + 1)
        # a kept reply keeps the game running unless it fills the last round,
        # so the last kept reply is the last running one, if any runs
        last = max((v for v, kept in enumerate(keeps) if kept), default=None)
        for v, pair in enumerate(pairs):
            if not keeps[v]:
                node.children[v] = pebbles + (pair,)
                continue
            child = _checked_round(state, side, pair, alts)
            if child.status == RUNNING:
                node.children[v] = walk(child, agent if v == last else agent.fork())
            else:
                unwon.append(child)
        return node

    root = walk(state, spoiler.fork())
    return ReplyTree(g, h, root, depth, won + len(unwon), unwon)
