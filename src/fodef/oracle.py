"""Exact game values: minimum winning round counts, optimal agents, and the
bounded-enumeration lower bound for the defining round count.

The searcher runs a boolean existential/universal search over configurations
(sets of pebble pairs), memoized with monotone win/lose round bounds, and
prunes early moves through the orbits of the stabilizer of the pebbled
vertices.  The orbits are exact and no automorphism group is listed: they
are read off the automorphisms that the canonical search of the graph, with
the pebbled vertices individualized, finds (McKay & Piperno, "Practical
graph isomorphism, II", 2014), which generate the stabilizer.  Orbits are
kept on the graph object per pebbled set (`graphs.stabilizer_orbits`), for
as long as the graph lives; an equal but distinct graph keeps its own.

The game memo stays with each search.  `exact_rank` starts a fresh search and
leaves it in a one-search slot; `OracleSpoiler` and `ExhaustiveDuplicator`
continue the search in the slot when it is on their pair and alternation
budget, and otherwise start one there.  The memo holds only proven round
bounds and the least move that wins within the least round count, so a
continued search plays as a fresh one would.

The search slot takes no lock: fodef runs one thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from fodef.families import ENUM_CAP, enumerate_graphs
from fodef.game import (
    Agent, AgentError, GameState, IllegalMove, SIDE_G, SIDE_H,
    alternations_after, explore_replies,
)
from fodef.graphs import (
    BudgetExceeded, ColoredGraph, are_isomorphic, extends_partial_isomorphism,
    stabilizer_orbits,
)

DEFAULT_SIZE_BUDGET = 16    # combined order, unless size_budget (CLI --budget) is given
DEFAULT_R_MAX = 8
ORBIT_DEPTH = 2             # pebbled pairs up to which moves are orbit-pruned
ORBIT_MAX_ORDER = 24        # graphs above this order are not orbit-pruned


@dataclass(frozen=True)
class RankResult:
    value: Optional[int]  # None = not within budget
    r_max: int
    k: Optional[int]
    nodes: int
    memo_hits: int
    best_first_move: Optional[tuple[str, int]] = None

    def to_json_dict(self) -> dict:
        return {"k": self.k, "rank": self.value, "r_max": self.r_max,
                "nodes": self.nodes}


class RankSearcher:
    """Shared search state for one (g, h) pair and one alternation budget."""

    def __init__(self, g: ColoredGraph, h: ColoredGraph, k: Optional[int] = None):
        if k is not None and k < 0:
            raise IllegalMove("alternation budget must be non-negative")
        self.g = g
        self.h = h
        self.k = k
        self.win_lo: dict = {}
        self.lose_hi: dict = {}
        self.nodes = 0
        self.memo_hits = 0

    # -- helpers ----------------------------------------------------------

    def _candidates(self, side: str, pairs) -> Sequence[int]:
        """The least vertex of each orbit of the stabilizer of the pebbled
        vertices on `side`, ascending; every vertex beyond ORBIT_DEPTH pairs
        or on graphs above ORBIT_MAX_ORDER."""
        x = self.g if side == SIDE_G else self.h
        if x.n > ORBIT_MAX_ORDER or len(pairs) > ORBIT_DEPTH:
            return range(x.n)
        i = 0 if side == SIDE_G else 1
        return stabilizer_orbits(x, tuple(sorted([p[i] for p in pairs])))

    def _memo_key(self, pairs, last_side, alts):
        if self.k is None:
            return pairs
        return (pairs, last_side, alts)

    # -- core search --------------------------------------------------------

    def spoiler_wins(self, pairs: frozenset, last_side: Optional[str],
                     alts: int, r: int) -> bool:
        """Can Spoiler break the configuration within r further rounds?"""
        if r <= 0:
            return False
        key = self._memo_key(pairs, last_side, alts)
        lo = self.win_lo.get(key)
        if lo is not None and r >= lo[0]:
            self.memo_hits += 1
            return True
        hi = self.lose_hi.get(key)
        if hi is not None and r <= hi:
            self.memo_hits += 1
            return False
        self.nodes += 1
        move = None
        for side in (SIDE_G, SIDE_H):
            nalts = alternations_after(last_side, alts, side, self.k)
            if nalts is None:
                continue
            other_reps = self._candidates(SIDE_H if side == SIDE_G else SIDE_G, pairs)
            for u in self._candidates(side, pairs):
                for v in other_reps:
                    pair = (u, v) if side == SIDE_G else (v, u)
                    if extends_partial_isomorphism(self.g, self.h, pairs, pair) \
                            and not self.spoiler_wins(pairs | {pair}, side, nalts, r - 1):
                        break
                else:
                    move = (side, u)
                    break
            if move is not None:
                break
        # a memo hit returned above, so r improves on any stored bound
        if move is not None:
            self.win_lo[key] = (r, move)
        else:
            self.lose_hi[key] = r
        return move is not None

    def min_win_rounds(self, pairs: frozenset, last_side: Optional[str],
                       alts: int, r_max: int) -> Optional[int]:
        for r in range(1, r_max + 1):
            if self.spoiler_wins(pairs, last_side, alts, r):
                return r
        return None

    def survival(self, pairs: frozenset, last_side: Optional[str],
                 alts: int, budget: int) -> int:
        """Complete rounds an optimal Duplicator lasts from here, capped."""
        r = self.min_win_rounds(pairs, last_side, alts, budget)
        return budget if r is None else r - 1

    def best_move(self, pairs: frozenset, last_side: Optional[str],
                  alts: int) -> Optional[tuple[str, int]]:
        """Lexicographically least move that wins within the least winning
        round count, as stored by the search; None before `min_win_rounds`
        has found that count here."""
        entry = self.win_lo.get(self._memo_key(pairs, last_side, alts))
        return None if entry is None else entry[1]


def _guard_size(g: ColoredGraph, h: ColoredGraph, size_budget: Optional[int]):
    budget = DEFAULT_SIZE_BUDGET if size_budget is None else size_budget
    if g.n + h.n > budget:
        raise BudgetExceeded(
            f"combined order {g.n + h.n} exceeds search budget {budget}")


_last_search: Optional[RankSearcher] = None    # the search slot


def _searcher(g: ColoredGraph, h: ColoredGraph, k: Optional[int]) -> RankSearcher:
    """The search in the slot when it is on (g, h, k), else a new one, which
    takes the slot."""
    global _last_search
    s = _last_search
    if s is None or (s.g, s.h, s.k) != (g, h, k):
        s = _last_search = RankSearcher(g, h, k)
    return s


def exact_rank(g: ColoredGraph, h: ColoredGraph, k: Optional[int] = None,
               r_max: int = DEFAULT_R_MAX,
               size_budget: Optional[int] = None) -> RankResult:
    """Minimum r such that Spoiler wins the r-round game (with at most k side
    switches when k is given); None-valued result when r_max does not suffice."""
    global _last_search
    _guard_size(g, h, size_budget)
    s = _last_search = RankSearcher(g, h, k)
    value = s.min_win_rounds(frozenset(), None, 0, r_max)
    return RankResult(value, r_max, k, s.nodes, s.memo_hits,
                      s.best_move(frozenset(), None, 0))


def _position(state: GameState) -> tuple[frozenset, Optional[str], int, int]:
    """The search's view of a running game: the pebbled pairs, the side of
    the last Spoiler move, the switches used and the rounds left."""
    return (frozenset(state.pebbles), state.last_side, state.alternations_used,
            state.max_rounds - state.round)


class OracleSpoiler(Agent):
    """Plays a minimum-round winning strategy computed by full search,
    continuing the last search when it was on the same pair and budget."""

    def __init__(self, g: ColoredGraph, h: ColoredGraph,
                 k: Optional[int] = None,
                 size_budget: Optional[int] = None):
        _guard_size(g, h, size_budget)
        self.searcher = _searcher(g, h, k)

    def fork(self) -> "OracleSpoiler":
        return self  # stateless between calls; memo sharing is sound

    def choose(self, state: GameState) -> tuple[str, int]:
        pairs, last, alts, left = _position(state)
        if self.searcher.min_win_rounds(pairs, last, alts, left) is not None:
            return self.searcher.best_move(pairs, last, alts)
        # no win within the remaining budget: play the least legal move
        return (SIDE_G, 0)


class ExhaustiveDuplicator(Agent):
    """Optimal replies from full game-tree search, on pairs within the
    combined order `size_budget` (None: DEFAULT_SIZE_BUDGET).  Each reply
    continues the last search when it was on the same pair and budget."""

    def __init__(self, size_budget: Optional[int] = None):
        self.size_budget = size_budget

    def respond(self, state, side, vertex):
        budget = DEFAULT_SIZE_BUDGET if self.size_budget is None else self.size_budget
        if state.g.n + state.h.n > budget:
            raise AgentError("exhaustive duplicator refuses instances over "
                             f"{budget} vertices")
        s = _searcher(state.g, state.h, state.alternation_budget)
        pairs, last, alts, left = _position(state)
        alts = alternations_after(last, alts, side, s.k)
        if alts is None:
            raise IllegalMove("alternation budget exceeded")

        def survival(v: int) -> int:
            pair = (vertex, v) if side == SIDE_G else (v, vertex)
            if not extends_partial_isomorphism(state.g, state.h, state.pebbles, pair):
                return -1
            return s.survival(pairs | {pair}, side, alts, left - 1)

        return max(range((state.h if side == SIDE_G else state.g).n), key=survival)


@dataclass(frozen=True)
class SurvivalReport:
    max_rounds: int          # complete rounds the best reply line survives
    always_wins: bool        # Spoiler won on every branch within the budget
    branches: int
    deepest_total_rounds: int


def survival_vs(spoiler: Agent, g: ColoredGraph, h: ColoredGraph,
                r_max: int, k: Optional[int] = None,
                initial_pairs: tuple = (),
                size_budget: Optional[int] = None) -> SurvivalReport:
    """Exact worst case of a fixed deterministic Spoiler agent: explore every
    Duplicator reply and report the longest survival.  The initial pairs are
    played first, each as a G-side move."""
    _guard_size(g, h, size_budget)
    tree = explore_replies(g, h, spoiler, r_max, k, initial_pairs)
    survived = r_max if tree.unwon else tree.depth - 1
    deepest = max([tree.depth] + [s.round for s in tree.unwon])
    return SurvivalReport(survived - len(initial_pairs), not tree.unwon,
                          tree.branches, deepest)


def defining_rank_lb(g: ColoredGraph, order_max: int, k: Optional[int] = None,
                     r_max: Optional[int] = None,
                     size_budget: Optional[int] = None
                     ) -> tuple[int, ColoredGraph]:
    """Max of the pair rank over every non-isomorphic graph of order at most
    order_max, with the maximizing witness.  A lower bound on the defining
    round count, whose true max ranges over all graphs."""
    if order_max > ENUM_CAP:
        raise BudgetExceeded(f"enumeration capped at order {ENUM_CAP}")
    depth = r_max if r_max is not None else g.n + 2
    best: Optional[tuple[int, ColoredGraph]] = None
    for m in range(1, order_max + 1):
        for h in enumerate_graphs(m):
            if g.n == h.n and are_isomorphic(g, h):
                continue
            res = exact_rank(g, h, k, depth, size_budget)
            if res.value is None:
                raise BudgetExceeded(
                    f"rank search needs more than {depth} rounds for an order-{m} witness")
            if best is None or res.value > best[0]:
                best = (res.value, h)
    if best is None:
        raise ValueError("no non-isomorphic graph within the order cap")
    return best
