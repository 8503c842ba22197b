"""Exact game values: minimum winning round counts, optimal agents, and the
bounded-enumeration lower bound for the defining round count.

The searcher runs a boolean existential/universal search over configurations
(sets of pebble pairs), memoized with monotone win/lose round bounds, and
prunes first moves through automorphism orbits of either graph.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from fodef.families import enumerate_graphs
from fodef.game import (
    Agent, GameState, RUNNING, SIDE_G, SIDE_H, SPOILER_WON,
    new_game, step,
)
from fodef.graphs import (
    BudgetExceeded, ColoredGraph, automorphisms, are_isomorphic,
)

DEFAULT_SIZE_BUDGET = int(os.environ.get("FODEF_SEARCH_BUDGET", "16"))
DEFAULT_R_MAX = 8


@dataclass(frozen=True)
class RankResult:
    value: Optional[int]  # None = not within budget
    r_max: int
    k: Optional[int]
    nodes: int
    memo_hits: int
    best_first_move: Optional[tuple[str, int]] = None

    @property
    def not_within_budget(self) -> bool:
        return self.value is None

    def to_json_dict(self) -> dict:
        return {"k": self.k, "rank": self.value, "r_max": self.r_max,
                "nodes": self.nodes}


class RankSearcher:
    """Shared search state for one (g, h) pair and one alternation budget."""

    def __init__(self, g: ColoredGraph, h: ColoredGraph,
                 k: Optional[int] = None, orbit_depth: int = 2,
                 aut_limit: int = 20000):
        self.g = g
        self.h = h
        self.k = k
        self.orbit_depth = orbit_depth
        self.win_lo: dict = {}
        self.lose_hi: dict = {}
        self.nodes = 0
        self.memo_hits = 0
        self.auts_g = automorphisms(g, aut_limit) if g.n <= 24 else []
        self.auts_h = automorphisms(h, aut_limit) if h.n <= 24 else []

    # -- helpers ----------------------------------------------------------

    def _violates(self, pairs, new: tuple[int, int]) -> bool:
        u, v = new
        if self.g.colors[u] != self.h.colors[v]:
            return True
        for a, b in pairs:
            if (u == a) != (v == b):
                return True
            if self.g.has_edge(u, a) != self.h.has_edge(v, b):
                return True
        return False

    def _candidates(self, side: str, pairs) -> list[int]:
        own = self.g if side == SIDE_G else self.h
        if len(pairs) > self.orbit_depth:
            return list(range(own.n))
        auts = self.auts_g if side == SIDE_G else self.auts_h
        if len(auts) <= 1:
            return list(range(own.n))
        fixed = {p[0] if side == SIDE_G else p[1] for p in pairs}
        stab = [a for a in auts if all(a[x] == x for x in fixed)]
        if len(stab) <= 1:
            return list(range(own.n))
        reps = []
        seen: set[int] = set()
        for v in range(own.n):
            if v not in seen:
                reps.append(v)
                frontier = [v]
                seen.add(v)
                while frontier:
                    w = frontier.pop()
                    for a in stab:
                        img = a[w]
                        if img not in seen:
                            seen.add(img)
                            frontier.append(img)
        return reps

    def _key(self, pairs, last_side, alts):
        if self.k is None:
            return pairs
        return (pairs, last_side, alts)

    # -- core search --------------------------------------------------------

    def spoiler_wins(self, pairs: frozenset, last_side: Optional[str],
                     alts: int, r: int) -> bool:
        """Can Spoiler break the configuration within r further rounds?"""
        if r <= 0:
            return False
        key = self._key(pairs, last_side, alts)
        lo = self.win_lo.get(key)
        if lo is not None and r >= lo:
            self.memo_hits += 1
            return True
        hi = self.lose_hi.get(key)
        if hi is not None and r <= hi:
            self.memo_hits += 1
            return False
        self.nodes += 1
        win = False
        for side in (SIDE_G, SIDE_H):
            switching = last_side is not None and side != last_side
            if self.k is not None and switching and alts >= self.k:
                continue
            nalts = alts + (1 if switching else 0)
            nlast = side
            other_reps = self._candidates(SIDE_H if side == SIDE_G else SIDE_G, pairs)
            for u in self._candidates(side, pairs):
                good = True
                for v in other_reps:
                    pair = (u, v) if side == SIDE_G else (v, u)
                    if self._violates(pairs, pair):
                        continue
                    if not self.spoiler_wins(pairs | {pair}, nlast, nalts, r - 1):
                        good = False
                        break
                if good:
                    win = True
                    break
            if win:
                break
        if win:
            if lo is None or r < lo:
                self.win_lo[key] = r
        else:
            if hi is None or r > hi:
                self.lose_hi[key] = r
        return win

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
                  alts: int, r: int) -> Optional[tuple[str, int]]:
        """Lexicographically least move that wins within r rounds."""
        for side in (SIDE_G, SIDE_H):
            switching = last_side is not None and side != last_side
            if self.k is not None and switching and alts >= self.k:
                continue
            nalts = alts + (1 if switching else 0)
            own = self.g if side == SIDE_G else self.h
            other = self.h if side == SIDE_G else self.g
            for u in range(own.n):
                good = True
                for v in range(other.n):
                    pair = (u, v) if side == SIDE_G else (v, u)
                    if self._violates(pairs, pair):
                        continue
                    if not self.spoiler_wins(pairs | {pair}, side, nalts, r - 1):
                        good = False
                        break
                if good:
                    return (side, u)
        return None


def _guard_size(g: ColoredGraph, h: ColoredGraph, size_budget: Optional[int]):
    budget = DEFAULT_SIZE_BUDGET if size_budget is None else size_budget
    if g.n + h.n > budget:
        raise BudgetExceeded(
            f"combined order {g.n + h.n} exceeds search budget {budget}")


def exact_rank(g: ColoredGraph, h: ColoredGraph, k: Optional[int] = None,
               r_max: int = DEFAULT_R_MAX,
               size_budget: Optional[int] = None) -> RankResult:
    """Minimum r such that Spoiler wins the r-round game (with at most k side
    switches when k is given); None-valued result when r_max does not suffice."""
    _guard_size(g, h, size_budget)
    s = RankSearcher(g, h, k)
    value = s.min_win_rounds(frozenset(), None, 0, r_max)
    move = s.best_move(frozenset(), None, 0, value) if value is not None else None
    return RankResult(value, r_max, k, s.nodes, s.memo_hits, move)


class OracleSpoiler(Agent):
    """Plays a minimum-round winning strategy computed by full search."""
    role = "spoiler"
    label = "oracle"

    def __init__(self, g: ColoredGraph, h: ColoredGraph,
                 k: Optional[int] = None,
                 size_budget: Optional[int] = None):
        _guard_size(g, h, size_budget)
        self.searcher = RankSearcher(g, h, k)

    def fork(self) -> "OracleSpoiler":
        return self  # stateless between calls; memo sharing is sound

    def choose(self, state: GameState) -> tuple[str, int]:
        pairs = frozenset(state.pebbles)
        last = state.sides[-1] if state.sides else None
        alts = state.alternations_used
        left = state.max_rounds - state.round
        r = self.searcher.min_win_rounds(pairs, last, alts, left)
        if r is not None:
            move = self.searcher.best_move(pairs, last, alts, r)
            if move is not None:
                return move
        # no win within the remaining budget: play the least legal move
        return (SIDE_G, 0)


@dataclass(frozen=True)
class SurvivalReport:
    max_rounds: int          # complete rounds the best reply line survives
    always_wins: bool        # Spoiler won on every branch within the budget
    branches: int
    deepest_total_rounds: int

    def __int__(self) -> int:
        return self.max_rounds


def survival_vs(spoiler: Agent, g: ColoredGraph, h: ColoredGraph,
                r_max: int, k: Optional[int] = None,
                initial_pairs: tuple = (), initial_sides: tuple = (),
                size_budget: Optional[int] = None, allow_large: bool = False,
                node_cap: int = 2_000_000) -> SurvivalReport:
    """Exact worst case of a fixed deterministic Spoiler agent: explore every
    Duplicator reply and report the longest survival."""
    if not allow_large:
        _guard_size(g, h, size_budget)
    base = new_game(g, h, r_max, k)
    if initial_pairs:
        sides = initial_sides or tuple(SIDE_G for _ in initial_pairs)
        for pair, side in zip(initial_pairs, sides):
            u = pair[0] if side == SIDE_G else pair[1]
            v = pair[1] if side == SIDE_G else pair[0]
            base = step(base, (side, u), v)
        if base.status != RUNNING:
            raise ValueError("initial configuration is already decided")
    start_round = base.round
    counter = {"nodes": 0, "branches": 0}

    def walk(state: GameState, agent: Agent) -> tuple[int, bool, int]:
        counter["nodes"] += 1
        if counter["nodes"] > node_cap:
            raise BudgetExceeded(f"reply tree exceeded {node_cap} nodes")
        if state.status == SPOILER_WON:
            counter["branches"] += 1
            return state.round - 1 - start_round, True, state.round
        if state.status != RUNNING:
            counter["branches"] += 1
            return state.round - start_round, False, state.round
        side, u = agent.choose(state)
        if not state.switch_allowed(side):
            counter["branches"] += 1
            return state.max_rounds - start_round, False, state.round
        other = h if side == SIDE_G else g
        best = (-1, True, 0)
        for v in range(other.n):
            child = step(state, (side, u), v)
            # only a running child consults its agent; a lone child may reuse it
            fork = child.status == RUNNING and other.n > 1
            got = walk(child, agent.fork() if fork else agent)
            best = (max(best[0], got[0]), best[1] and got[1], max(best[2], got[2]))
        return best

    surv, wins, deepest = walk(base, spoiler)
    return SurvivalReport(surv, wins, counter["branches"], deepest)


def defining_rank_lb(g: ColoredGraph, order_max: int, k: Optional[int] = None,
                     r_max: Optional[int] = None,
                     size_budget: Optional[int] = None
                     ) -> tuple[int, ColoredGraph]:
    """Max of the pair rank over every non-isomorphic graph of order at most
    order_max, with the maximizing witness.  A lower bound on the defining
    round count, whose true max ranges over all graphs."""
    if order_max > 8:
        raise BudgetExceeded("enumeration capped at order 8")
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
