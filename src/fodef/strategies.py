"""Separator-driven Spoiler agents, round-bound calculators, and synthesis of
distinguishing formulas from exhaustive play.

The main agent walks a stack of restricted positions: at each level it pebbles
a separator of its current G-side region, compares the multisets of recolored
flaps on both sides, and either probes a surplus class until Duplicator is
caught (then bisects inside a flap) or spends one move on the other side to
force a doubled flap (then bisects).  The starred variant replaces the second
case by probing a deficit class, which recurses once more but keeps each
level's probing cost bounded by the similar-flap count.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from fodef.formulas import (
    Adj, Col, Eq, Exists, Forall, Formula, Not,
    conjunction, disjunction,
)
from fodef.game import (
    Agent, GameState, SIDE_G, SIDE_H, ReplyNode, ReplyTree,
    explore_replies,
)
from fodef.graphs import (
    ColoredGraph, distances_within, flap_classes, flap_overlay, flaps_within,
)
from fodef.separators import (
    EPSILON, MAX_FLAPS, MAX_SEPARATOR, OClassification, brute_min_separator,
    class_o_separator, classify_o, tree_centroid_separator,
)


class StrategyError(RuntimeError):
    """The position violates a precondition or an internal guarantee."""


class HypothesisError(StrategyError):
    """A bisection start position does not satisfy its hypothesis."""


# -- depth and round-bound calculators -------------------------------------------


def choose_depth(n: int, m_or_s: int, epsilon, variant: str = "S"):
    """Recursion depth (variants 'S' and 'S_star', exact integer ceilings) or
    the real-valued alternation allowance (variant 'a')."""
    eps = Fraction(epsilon)
    if not (0 < eps < 1):
        raise ValueError("epsilon must lie strictly between 0 and 1")
    if n < 1:
        raise ValueError("n must be positive")
    if variant == "a":
        return 2 * math.log2(n) / math.log2(1 / eps) + 1
    if m_or_s < 1:
        raise ValueError("flap parameter must be positive")
    if variant not in ("S", "S_star"):
        raise ValueError(f"unknown variant {variant!r}")
    # the least t with (1/eps)^t >= n/m', in integers: with eps = p/q, the
    # least t with q^t * m' >= n * p^t, where m' is m, or m + 1 when starred
    p, q = eps.numerator, eps.denominator
    low, high = m_or_s + (variant == "S_star"), n
    t = 0
    while low < high:
        low *= q
        high *= p
        t += 1
    return t


def _k_sum(k, n: int, epsilon: Fraction, t: int) -> float:
    """Sum of k(eps^i * n) for i < t; k constant or callable over reals."""
    if callable(k):
        eps = float(epsilon)
        return sum(k(eps ** i * n) for i in range(t))
    return k * t


# the parameters each closed-form bound reads; lemma36 and lemma52 also take t
_BOUND_PARAMS = {
    "lemma36": ("n", "m", "epsilon", "k"),
    "lemma37": ("n", "m", "epsilon", "k"),
    "thm41": ("n", "d"),
    "thm43": ("n",),
    "lemma52": ("n", "s", "epsilon", "k"),
    "lemma53": ("n", "s", "epsilon", "c", "delta"),
    "thm55_all": ("n", "H", "Delta"),
    "thm55_planar": ("n", "Delta"),
    "thm55_genus": ("n", "Delta", "g", "c"),
}
BOUND_NAMES = tuple(_BOUND_PARAMS)

# the domain of each parameter, as text and as a test; k may also be a
# function of the order (see _k_sum)
_PARAM_DOMAINS = {
    "n": ("n >= 1", lambda x: x >= 1),
    "m": ("m >= 1", lambda x: x >= 1),
    "s": ("s >= 1", lambda x: x >= 1),
    "t": ("t >= 0", lambda x: x >= 0),
    "k": ("k >= 0", lambda x: callable(x) or x >= 0),
    "epsilon": ("0 < epsilon < 1", lambda x: 0 < x < 1),
    "d": ("d >= 0", lambda x: x >= 0),
    "c": ("c > 0", lambda x: x > 0),
    "delta": ("0 < delta < 1", lambda x: 0 < x < 1),
    "H": ("H >= 1", lambda x: x >= 1),
    "Delta": ("Delta >= 0", lambda x: x >= 0),
    "g": ("g >= 0", lambda x: x >= 0),
}


def bound(name: str, **params) -> float:
    """Closed-form round bounds by name (see BOUND_NAMES).  A parameter that
    is missing, unknown or outside its domain raises ValueError."""
    if name not in _BOUND_PARAMS:
        raise ValueError(f"unknown bound {name!r}")
    needed = _BOUND_PARAMS[name]
    optional = ("t",) if name in ("lemma36", "lemma52") else ()
    for key in needed:
        if key not in params:
            raise ValueError(f"claim {name} needs the parameter {key}")
    for key, value in params.items():
        if key not in needed and key not in optional:
            raise ValueError(f"claim {name} takes no parameter {key}")
        text, within = _PARAM_DOMAINS[key]
        if not within(value):
            raise ValueError(f"claim {name} needs {text}, got {key}={value}")
    log2 = math.log2
    if name == "lemma36":
        n, m, eps = params["n"], params["m"], Fraction(params["epsilon"])
        k = params["k"]
        t = params.get("t")
        if t is None:
            t = choose_depth(n, m, eps, "S")
        return _k_sum(k, n, eps, t) + m * (t + 1) + log2(n) + 2
    if name == "lemma37":
        n, m, eps, k = params["n"], params["m"], Fraction(params["epsilon"]), params["k"]
        return ((k + m) / log2(1 / eps) + 1) * log2(n) + m + 2
    if name == "thm41":
        n, d = params["n"], params["d"]
        c_d = (d + 1) / log2(1.5) + 1
        return c_d * log2(n) + d + 2
    if name == "thm43":
        n = params["n"]
        c = 12 / log2(1.5) + 1
        return c * log2(n) + 9
    if name == "lemma52":
        n, s, eps = params["n"], params["s"], Fraction(params["epsilon"])
        k = params["k"]
        t = params.get("t")
        if t is None:
            t = choose_depth(n, s, eps, "S_star")
        return _k_sum(k, n, eps, t) + (s + 1) * (t + 1) + log2(n) + 2
    if name == "lemma53":
        n, s, eps = params["n"], params["s"], Fraction(params["epsilon"])
        c, delta = params["c"], params["delta"]
        return (c / (1 - float(eps) ** delta) * n ** delta
                + ((s + 1) / log2(1 / eps) + 1) * log2(n) + s + 3)
    if name == "thm55_all":
        n, hh, dd = params["n"], params["H"], params["Delta"]
        return ((2 + math.sqrt(2)) * hh ** 1.5 * math.sqrt(n)
                + (dd + 2) * (log2(n) + 1) + 1)
    if name == "thm55_planar":
        n, dd = params["n"], params["Delta"]
        return ((4.5 * math.sqrt(2) + 3 * math.sqrt(3)) * math.sqrt(n)
                + ((dd + 1) / log2(1.5) + 1) * log2(n) + dd + 3)
    # thm55_genus
    n, dd, gg, c = params["n"], params["Delta"], params["g"], params["c"]
    return (c * math.sqrt(gg) * math.sqrt(n)
            + ((dd + 1) / log2(1.5) + 1) * log2(n) + dd + 3)


# -- configuration and traces ------------------------------------------------------


@dataclass(frozen=True)
class StrategyConfig:
    provider: str = "tree_centroid"       # tree_centroid | class_o | brute_min

    def __post_init__(self):
        if self.provider not in ("tree_centroid", "class_o", "brute_min"):
            raise ValueError(f"unknown separator provider {self.provider!r}")

    def k_of(self, n: int) -> int:
        if self.provider == "tree_centroid":
            return 1
        if self.provider == "class_o":
            return MAX_SEPARATOR
        return min(MAX_SEPARATOR, n)

    def flap_bound(self, g: ColoredGraph, starred: bool = False) -> int:
        """The flap bound m of g (s for the starred variant): the class-O
        flap count, or the maximum degree for trees, brute_min and the
        starred variant."""
        if self.provider == "class_o" and not starred:
            return MAX_FLAPS
        return max(1, g.max_degree())


@dataclass
class StrategyTrace:
    records: tuple = ()
    events: tuple = ()
    sep_sizes: tuple = ()
    max_flaps: int = 0
    max_similar: int = 0

    def record(self, **kw):
        self.records += (kw,)

    def to_json_dict(self) -> dict:
        return {"records": list(self.records), "events": list(self.events),
                "sep_sizes": list(self.sep_sizes), "max_flaps": self.max_flaps,
                "max_similar": self.max_similar}


def _copy_dict(obj):
    """A shallow copy made from the instance dict, where `copy.copy` would
    go through the reduce protocol."""
    twin = object.__new__(type(obj))
    twin.__dict__.update(obj.__dict__)
    return twin


# -- bisection play ---------------------------------------------------------------


class _Bisection:
    """Shrinks the distance between two same-side pebbles whose partners lie
    in different components of the other graph minus its blocked set.

    anchors are two pebble pairs and blocked_g, blocked_h the blocked sets,
    all in (G, H) order whatever the play side; the play-side vertices must
    share the component `region` of the play graph minus its blocked set.

    A move is the least (max distance, id) vertex w of I(u1, u2), the
    interval of the anchors u1, u2: the vertices on some shortest u1-u2 path
    in the region.  `interval` holds the last interval computed, and each
    move searches only it, then rebinds it to the new I(u1, u2).  The next
    anchors are w and an old anchor, so their interval lies inside the last
    one, and a shortest path from an anchor to a vertex of it stays inside
    too: the search gives the region's distances there, and every other
    vertex reads farther away and still fails the shortest-path test.  So
    the move is the one a search of the whole region gives.  `ends` are
    the anchors the interval was computed for; a reply to any other anchors,
    or one whose play-side vertex is outside the interval, puts the interval
    back to the region.

    The state that changes is the anchors, the interval and its ends, each
    rebound and never changed in place, so a shallow copy is a fork.
    """

    def __init__(self, g: ColoredGraph, h: ColoredGraph, play_side: str,
                 region: frozenset[int], anchors, blocked_g: frozenset[int],
                 blocked_h: frozenset[int]):
        self.side = play_side
        self.p = p = 0 if play_side == SIDE_G else 1   # play index in a pair
        self.region = self.interval = frozenset(region)
        self.anchors = self.ends = tuple(anchors)
        self.play_graph, other = (g, h)[p], (g, h)[1 - p]
        blocked = (blocked_g, blocked_h)
        # the component of each unblocked vertex of the other graph
        allowed = frozenset(range(other.n)).difference(blocked[1 - p])
        self.component = {v: i for i, c in enumerate(other.components(allowed))
                          for v in c}
        (u1, o1), (u2, o2) = ((a[p], a[1 - p]) for a in self.anchors)
        if u1 not in self.region or u2 not in self.region:
            raise HypothesisError("anchors must lie inside the play-side flap")
        if not self.region.isdisjoint(blocked[p]):
            raise HypothesisError("flap and blocked set overlap")
        if o1 not in self.component or o2 not in self.component:
            raise HypothesisError("partner pebbles must lie inside flaps")
        if self._same_component(o1, o2):
            raise HypothesisError("partners must lie in different flaps")

    def _same_component(self, a: int, b: int) -> bool:
        c = self.component.get(a)
        return c is not None and c == self.component.get(b)

    def next_move(self) -> tuple[str, int]:
        u1, u2 = (a[self.p] for a in self.anchors)
        d1 = distances_within(self.play_graph, u1, self.interval)
        d2 = distances_within(self.play_graph, u2, self.interval)
        gap = d1.get(u2)
        if gap is None or gap == 0:
            raise StrategyError("anchors must be distinct and connected in the flap")
        # both searches reach the same vertices, those joined to u1 and u2;
        # midpoints are taken on a shortest path
        on_path = [v for v, dv1 in d1.items() if dv1 + d2[v] == gap]
        self.interval, self.ends = frozenset(on_path), self.anchors
        return (self.side, min((max(d1[v], d2[v]), v) for v in on_path)[1])

    def observe(self, pair: tuple[int, int]):
        o = 1 - self.p
        if self.ends is not self.anchors or pair[self.p] not in self.interval:
            self.interval = self.region
        for anchor in self.anchors:
            if not self._same_component(pair[o], anchor[o]):
                self.anchors = (pair, anchor)
                return
        raise StrategyError("reply reunited both partners; the pairing "
                            "should already have broken")

    __copy__ = _copy_dict


# -- the strategy machine ----------------------------------------------------------


@dataclass
class _Frame:
    dom_g: frozenset[int]
    dom_h: frozenset[int]
    depth: int
    anchor: Optional[tuple[int, int]]          # pebble pair inside (dom_g, dom_h)
    enc_x: frozenset[int]                      # union of enclosing separators, G side
    enc_y: frozenset[int]
    overlay_g: dict = field(default_factory=dict)
    overlay_h: dict = field(default_factory=dict)
    cls: Optional[OClassification] = None      # membership certificate for dom_g
    phase: str = "init"
    case: str = ""
    queue: tuple = ()
    x_order: tuple = ()
    y_order: tuple = ()
    flaps_g: list = field(default_factory=list)
    flaps_h: list = field(default_factory=list)
    class_of_g: list = field(default_factory=list)
    class_of_h: list = field(default_factory=list)
    fresh: list = field(default_factory=list)
    nclasses: int = 0
    provider_tags: Optional[tuple] = None      # annotation of each of flaps_g
    target_class: Optional[int] = None
    probe_flaps: list = field(default_factory=list)
    probe_idx: int = 0
    local_pairs: tuple = ()                    # (u, v, gflap, hflap)
    visited_h: frozenset = frozenset()
    final_hflap: Optional[int] = None
    s0_dup_picks: tuple = ()

    def inner_blocked(self) -> tuple[frozenset[int], frozenset[int]]:
        """The blocked sets inside a flap of this frame: the enclosing
        separators and this frame's own, G side first."""
        return self.enc_x | frozenset(self.x_order), self.enc_y | frozenset(self.y_order)

    __copy__ = _copy_dict


def _auto_depth(g: ColoredGraph, cfg: StrategyConfig, starred: bool) -> int:
    """Recursion depth from n and the config's flap bound."""
    return choose_depth(max(1, g.n), cfg.flap_bound(g, starred), EPSILON,
                        "S_star" if starred else "S")


@dataclass(eq=False, repr=False)
class StrategyMachine(Agent):
    """The separator-driven Spoiler: a deterministic move generator advanced
    by observing each played pair.

    The escape rule.  Below the root, a frame plays inside one flap pair
    (dom_g, dom_h): a component of G minus the enclosing separators enc_x
    and one of H minus their images enc_y, and its anchor pebble lies in
    both.  Spoiler's moves lie in the domain of the side it plays.  A running
    reply outside the domain on the answering side lies in another component
    there (on enc_x or enc_y it would repeat a pebble), so Spoiler's move
    and the anchor are two pebbles of Spoiler's domain whose partners lie in
    different components.  Whatever the phase, on either side, Spoiler then
    bisects between them inside its domain, and the game ends.

    Why this stays within thm43.  The bisection halves the distance between
    its two pebbles each round and wins once they are adjacent, so it takes
    at most ceil(log2 n) rounds.  It starts only in place of the rest of a
    frame's play, and every line starts at most one bisection.  The rounds
    before it are separator, probing and S0 moves that Lemma 3.6 charges to
    its k and m terms, and the bisection fits its log2 n + 2 end-game term.
    With k = 5, m = 7 and epsilon = 2/3 that bound is at most Lemma 3.7's
    closed form, which is thm43.

    The fields are its whole state, and fork() passes each one on.  The one
    rule of forking: a container that changes after a fork point (the frame
    stack, a frame's queue, orders, pairs and visited set, the bisection's
    anchors, interval and ends, the trace's lists) is immutable and is
    rebound, never changed in place.  Beyond the fields,
    planning and observing rebind only attributes of the top frame, the
    bisection and the trace, so fork() shallow-copies those three and shares
    everything else, the frames below the top included.  A frame and the
    bisection copy their instance dicts (`__copy__`), the trace its fields.
    """
    g: ColoredGraph
    h: ColoredGraph
    config: StrategyConfig
    frames: tuple[_Frame, ...]                 # the stack, top last
    bisection: Optional[_Bisection] = None
    seen_rounds: int = 0                       # -1: adopt a pre-placed position
    pending_move: Optional[tuple[str, int]] = None
    color_counter: int = 0                     # next fresh separator color
    trace: StrategyTrace = field(default_factory=StrategyTrace)
    starred: bool = False                      # CASE 2 probes a deficit class

    @classmethod
    def start(cls, g: ColoredGraph, h: ColoredGraph, config: StrategyConfig,
              classification: Optional[OClassification] = None,
              starred: bool = False) -> "StrategyMachine":
        """Separator recursion from the empty position."""
        if not g.is_connected():
            raise StrategyError("the structured side must be connected")
        if config.provider == "tree_centroid" and g.edge_count() != g.n - 1:
            raise StrategyError("tree separator requires a tree")
        if config.provider == "class_o":
            if classification is None:
                classification = classify_o(g)
            if not classification.in_class():
                raise StrategyError("graph is outside the supported class")
        top = _Frame(frozenset(range(g.n)), frozenset(range(h.n)),
                     _auto_depth(g, config, starred), None, frozenset(),
                     frozenset(), {}, {}, classification)
        return cls(g, h, config, (top,),
                   color_counter=max(g.max_color(), h.max_color()) + 1,
                   starred=starred)

    # -- separator providers -------------------------------------------------

    def _separate(self, frame: _Frame) -> tuple[tuple[int, ...], list, Optional[tuple]]:
        """Separator of the current G-side region and its flaps in original
        ids, plus per-flap membership annotations when the provider computes
        them.  The tree centroid is found in G itself, on the region.  The
        other providers run on the region's induced() copy, which reindexes
        monotonically, so their flaps map back in the order components()
        lists them and each annotation stays valid for its flap's
        standalone induced graph."""
        provider = self.config.provider
        if provider == "tree_centroid":
            res = tree_centroid_separator(self.g, within=frame.dom_g)
            return res.x, [frozenset(f) for f in res.flaps], res.tags
        sub, idx = self.g.induced(frame.dom_g)
        back = sorted(idx)
        if provider == "class_o":
            res = class_o_separator(sub, classification=frame.cls)
        else:
            res = brute_min_separator(sub, EPSILON, MAX_SEPARATOR)
        flaps = [frozenset(back[i] for i in f) for f in res.flaps]
        return tuple(sorted(back[i] for i in res.x)), flaps, res.tags

    # -- recoloring and flap classification -----------------------------------

    def _decompose(self, frame: _Frame):
        """Split both domains along the separator pairing and bucket the
        recolored flaps of both sides into `flap_classes`, G flaps first.
        The H domain is connected (the root's passed `_enter`, a child's is
        one flap), so `flaps_within` splits it at the cost of its small
        flaps."""
        k = len(frame.x_order)
        fresh = [self.color_counter + i for i in range(k)]
        self.color_counter += k
        frame.fresh = fresh
        frame.flaps_h = flaps_within(self.h, frame.dom_h, frame.y_order)

        flaps = ([(self.g, f, frame.x_order, frame.overlay_g) for f in frame.flaps_g]
                 + [(self.h, f, frame.y_order, frame.overlay_h) for f in frame.flaps_h])
        classes = flap_classes(flaps, fresh)
        class_of = [0] * len(flaps)
        for ci, members in enumerate(classes):
            for i in members:
                class_of[i] = ci
        ng = len(frame.flaps_g)
        frame.class_of_g = class_of[:ng]
        frame.class_of_h = class_of[ng:]
        frame.nclasses = len(classes)

    # -- public interface -------------------------------------------------------

    def fork(self) -> "StrategyMachine":
        frames = self.frames[:-1] + (copy.copy(self.frames[-1]),) if self.frames else ()
        t = self.trace
        return StrategyMachine(self.g, self.h, self.config, frames,
                               copy.copy(self.bisection),
                               seen_rounds=self.seen_rounds,
                               pending_move=self.pending_move,
                               color_counter=self.color_counter,
                               trace=StrategyTrace(t.records, t.events, t.sep_sizes,
                                                   t.max_flaps, t.max_similar),
                               starred=self.starred)

    def choose(self, state: GameState) -> tuple[str, int]:
        return self.next_move(state)

    def next_move(self, state: GameState) -> tuple[str, int]:
        """The move for a running state; the pairs played since the last
        call are observed first."""
        self._sync(state)
        if self.bisection is not None:
            move = self.bisection.next_move()
        else:
            move = self._plan(state)
        self.pending_move = move
        return move

    # -- observation of replies ---------------------------------------------------

    def _sync(self, state: GameState):
        if self.seen_rounds < 0:  # pre-placed position: adopt it silently
            self.seen_rounds = len(state.pebbles)
            return
        for pair in state.pebbles[self.seen_rounds:]:
            self._observe(pair)
            self.seen_rounds += 1

    def _observe(self, pair: tuple[int, int]):
        """Take in one running round: the escape rule first, else the reply
        advances the top frame's phase."""
        if self.bisection is not None:
            self.bisection.observe(pair)
            return
        if self.pending_move is None:
            raise StrategyError("observed a round this agent did not plan")
        side = self.pending_move[0]
        self.pending_move = None
        frame = self.frames[-1]
        p = 0 if side == SIDE_G else 1   # Spoiler's index in a pair
        doms = (frame.dom_g, frame.dom_h)
        if frame.anchor is not None and pair[1 - p] not in doms[1 - p]:
            self.trace.events += (("ESCAPE", self.seen_rounds + 1),)
            self.bisection = _Bisection(self.g, self.h, side, doms[p],
                                        (pair, frame.anchor), frame.enc_x, frame.enc_y)
            return
        self._advance(frame, pair)

    # -- planning -----------------------------------------------------------------

    def _plan(self, state: GameState) -> tuple[str, int]:
        frame = self.frames[-1]
        while True:
            if frame.phase == "init":
                self._enter(frame, state)
                continue
            if frame.phase in ("s0", "sep"):
                if frame.queue:
                    return (SIDE_G, frame.queue[0])
                if frame.phase == "s0":
                    frame.phase = "s0_final"
                    continue
                self._after_separator(frame)
                continue
            if frame.phase == "s0_final":
                return (SIDE_H, self._s0_final_vertex(frame, state))
            if frame.phase == "probe":
                if frame.probe_idx >= len(frame.probe_flaps):
                    if frame.case == "CASE1":
                        raise StrategyError(
                            "surplus-class probing exhausted without a deviation")
                    frame.phase = "case2_final"
                    continue
                return (SIDE_G, self._probe_vertex(frame, state))
            if frame.phase == "case2_final":
                return (SIDE_H, self._case2_final_vertex(frame))
            if frame.phase == "shortcut":
                return (SIDE_H, frame.queue[0])
            raise StrategyError(f"no move available in phase {frame.phase!r}")

    def _enter(self, frame: _Frame, state: GameState):
        n_dom = len(frame.dom_g)
        # a child frame's H domain is one flap, so only the root's can split
        if frame.anchor is None and not self.h.is_connected():
            first, second = self.h.components()[:2]
            frame.phase = "shortcut"
            frame.queue = (first[0], second[0])
            self.trace.record(depth=frame.depth, case="HALVING", x=[],
                              note="disconnected_other_side")
            return
        if frame.depth <= 0 or self.config.k_of(n_dom) >= n_dom:
            frame.phase = "s0"
            pebbled = {u for u, _ in state.pebbles}
            frame.queue = tuple(v for v in sorted(frame.dom_g) if v not in pebbled)
            if frame.anchor is not None:
                frame.s0_dup_picks = (frame.anchor[1],)
            self.trace.record(depth=frame.depth, case="S0", x=[], n=n_dom)
            return
        x, frame.flaps_g, frame.provider_tags = self._separate(frame)
        frame.phase = "sep"
        frame.queue = x
        self.trace.sep_sizes += (len(x),)

    # -- reply handling ---------------------------------------------------------------

    def _advance(self, frame: _Frame, pair):
        """Advance the phase that planned the move past a reply inside the
        flap pair; the phase fixes the side Spoiler played."""
        u, v = pair
        phase = frame.phase
        if phase in ("sep", "s0"):
            assert frame.queue and frame.queue[0] == u
            frame.queue = frame.queue[1:]
            if phase == "sep":
                frame.x_order += (u,)
                frame.y_order += (v,)
            else:
                frame.s0_dup_picks += (v,)
        elif phase == "probe":
            self._classify_probe_reply(frame, pair)
        elif phase == "case2_final":
            self._after_case2_reply(frame, pair)
        elif phase == "shortcut":
            frame.queue = frame.queue[1:]
            frame.local_pairs += ((u, v, None, None),)
            if not frame.queue:
                (u1, v1, _, _), (u2, v2, _, _) = frame.local_pairs[-2:]
                self.bisection = _Bisection(self.g, self.h, SIDE_G, frame.dom_g,
                                            ((u1, v1), (u2, v2)),
                                            frame.enc_x, frame.enc_y)
        else:
            # s0_final: every vertex of dom_g is pebbled, so the reply
            # repeats a pebble, which cannot keep the game running
            raise StrategyError("a reply to the closing move repeated a pebble "
                                "while running")

    # -- S0 ----------------------------------------------------------------------

    def _s0_final_vertex(self, frame: _Frame, state: GameState) -> int:
        """The least free vertex of the H domain next to a Duplicator pick,
        else the least free one of the domain, else of H, else 0."""
        pebbled_h = {v for _, v in state.pebbles}
        free = [w for w in sorted(frame.dom_h) if w not in pebbled_h]
        adjacent = [w for w in free
                    if any(self.h.has_edge(w, y) for y in frame.s0_dup_picks)]
        return (adjacent or free or [w for w in range(self.h.n) if w not in pebbled_h]
                or [0])[0]

    # -- separator placed: pick the case --------------------------------------------

    def _after_separator(self, frame: _Frame):
        self._decompose(frame)
        m = [frame.class_of_g.count(ci) for ci in range(frame.nclasses)]
        mp = [frame.class_of_h.count(ci) for ci in range(frame.nclasses)]
        table = [{"class": ci, "m": m[ci], "m_prime": mp[ci]}
                 for ci in range(len(m)) if m[ci] or mp[ci]]
        self.trace.max_flaps = max(self.trace.max_flaps, len(frame.flaps_g),
                                   len(frame.flaps_h))
        if frame.anchor is not None:
            ga = next((i for i, f in enumerate(frame.flaps_g)
                       if frame.anchor[0] in f), None)
            ha = next((i for i, f in enumerate(frame.flaps_h)
                       if frame.anchor[1] in f), None)
            frame.local_pairs += ((frame.anchor[0], frame.anchor[1], ga, ha),)
        surplus = [ci for ci in range(len(m)) if m[ci] > mp[ci]]
        if surplus:
            # classes are numbered by least flap, and a surplus class holds
            # a G flap, so the least number is the one met first in G
            target = min(surplus)
            frame.case = "CASE1"
            frame.target_class = target
            frame.probe_flaps = [i for i, c in enumerate(frame.class_of_g)
                                 if c == target]
            frame.phase = "probe"
            self.trace.record(depth=frame.depth, case="CASE1",
                              x=list(frame.x_order), m_table=table,
                              f=len(frame.flaps_g))
            return
        deficit = [ci for ci in range(len(m)) if m[ci] < mp[ci]]
        if not deficit:
            raise StrategyError(
                "flap multisets agree on both sides; the position extends to "
                "an isomorphism")
        frame.case = "CASE2"
        if self.starred:
            target = min(deficit, key=lambda ci: (m[ci], frame.class_of_h.index(ci)))
            frame.target_class = target
            frame.probe_flaps = [i for i, c in enumerate(frame.class_of_g)
                                 if c == target]
            self.trace.max_similar = max(self.trace.max_similar, m[target])
        else:
            frame.target_class = None
            frame.probe_flaps = list(range(len(frame.flaps_g)))
        frame.phase = "probe"
        self.trace.record(depth=frame.depth, case="CASE2",
                          x=list(frame.x_order), m_table=table,
                          f=len(frame.flaps_g),
                          starred=self.starred)

    # -- probing ---------------------------------------------------------------------

    def _probe_vertex(self, frame: _Frame, state: GameState) -> int:
        flap = frame.flaps_g[frame.probe_flaps[frame.probe_idx]]
        pebbled = {u for u, _ in state.pebbles}
        # the least free vertex; in a fully pebbled flap (the anchor alone)
        # re-pebbling is legal and the only consistent reply is the mirror
        return min((v for v in flap if v not in pebbled), default=min(flap))

    def _classify_probe_reply(self, frame: _Frame, pair):
        u, v = pair
        gflap = frame.probe_flaps[frame.probe_idx]
        frame.probe_idx += 1
        hflap = next((i for i, f in enumerate(frame.flaps_h) if v in f), None)
        if hflap is None:
            raise StrategyError("probe reply in no flap while the game is running")
        collide = next(((pu, pv, pg, ph) for (pu, pv, pg, ph) in frame.local_pairs
                        if ph == hflap and pg is not None and pg != gflap), None)
        frame.local_pairs += ((u, v, gflap, hflap),)
        if collide is not None:
            pu, pv, pg, ph = collide
            self.trace.events += (("COLLIDE", self.seen_rounds + 1),)
            self.bisection = _Bisection(self.g, self.h, SIDE_H, frame.flaps_h[hflap],
                                        ((pu, pv), pair), *frame.inner_blocked())
            return
        frame.visited_h |= {hflap}
        if frame.case == "CASE1" and frame.class_of_h[hflap] != frame.target_class:
            self._recurse(frame, gflap, hflap, (u, v))

    def _case2_final_vertex(self, frame: _Frame) -> int:
        pool = [i for i in range(len(frame.flaps_h)) if i not in frame.visited_h]
        if frame.target_class is not None:
            pool = [i for i in pool if frame.class_of_h[i] == frame.target_class]
        if not pool:
            raise StrategyError("no unvisited flap available on the other side")
        pool.sort(key=lambda i: min(frame.flaps_h[i]))
        flap = frame.flaps_h[pool[0]]
        cands = sorted({w for y in frame.y_order for w in self.h.adj[y] if w in flap})
        if not cands:
            raise StrategyError("chosen flap sends no edge to the separator image")
        frame.final_hflap = pool[0]
        return cands[0]

    def _after_case2_reply(self, frame: _Frame, pair):
        u, v = pair  # u: Duplicator's G-side pick
        gflap = next((i for i, f in enumerate(frame.flaps_g) if u in f), None)
        if gflap is None:
            raise StrategyError("reply on the pebbled separator while running")
        mate = next(((pu, pv, pg, ph) for (pu, pv, pg, ph) in frame.local_pairs
                     if pg == gflap and ph != frame.final_hflap), None)
        if mate is not None:
            pu, pv, _, _ = mate
            self.bisection = _Bisection(self.g, self.h, SIDE_G, frame.flaps_g[gflap],
                                        ((pu, pv), pair), *frame.inner_blocked())
            return
        if frame.target_class is None:
            raise StrategyError("an unprobed reply flap cannot exist after "
                                "probing every flap")
        self._recurse(frame, gflap, frame.final_hflap, (u, v))

    # -- recursion ---------------------------------------------------------------------

    def _recurse(self, frame: _Frame, gflap: int, hflap: int, anchor):
        flap_g = frame.flaps_g[gflap]
        flap_h = frame.flaps_h[hflap]
        over_g = flap_overlay(self.g, flap_g, frame.x_order, frame.fresh, frame.overlay_g)
        over_h = flap_overlay(self.h, flap_h, frame.y_order, frame.fresh, frame.overlay_h)
        cls = frame.provider_tags[gflap] if frame.provider_tags else None
        sub = _Frame(flap_g, flap_h, frame.depth - 1, tuple(anchor),
                     *frame.inner_blocked(), over_g, over_h, cls)
        self.frames += (sub,)


def s_agent(g: ColoredGraph, h: ColoredGraph, config: StrategyConfig,
            classification: Optional[OClassification] = None) -> StrategyMachine:
    """Separator-recursion Spoiler for a connected structured g versus an
    arbitrary non-isomorphic h; switches sides at most twice."""
    return StrategyMachine.start(g, h, config, classification)


def s_star_agent(g: ColoredGraph, h: ColoredGraph, config: StrategyConfig,
                 classification: Optional[OClassification] = None) -> StrategyMachine:
    """Variant that probes a deficit class: each level spends at most
    similar-flap-count + 1 probing moves, at the price of one extra
    alternation per recursion level."""
    return StrategyMachine.start(g, h, config, classification, starred=True)


def halving_agent(g: ColoredGraph, h: ColoredGraph, flap: Sequence[int],
                  anchors: tuple[tuple[int, int], tuple[int, int]],
                  x_set: Sequence[int], y_set: Sequence[int]) -> StrategyMachine:
    """Bisection Spoiler for a position where two paired pebbles share the
    X-flap `flap` of g while their partners lie in different Y-flaps of h;
    wins within ceil(log2(|flap|)) further rounds, playing only in g.

    The position's pre-placed pebbles are adopted on the first move request.
    """
    bisection = _Bisection(g, h, SIDE_G, frozenset(flap), anchors,
                           frozenset(x_set), frozenset(y_set))
    return StrategyMachine(g, h, StrategyConfig(), (), bisection, seen_rounds=-1)


# -- formula synthesis ---------------------------------------------------------------


def reply_tree(g: ColoredGraph, h: ColoredGraph, spoiler: Agent, r_max: int,
               k: Optional[int] = None) -> ReplyTree:
    """Exhaust every Duplicator reply against a deterministic Spoiler agent.
    Every branch must end in a Spoiler win within r_max rounds."""
    tree = explore_replies(g, h, spoiler, r_max, k)
    if tree.unwon:
        raise StrategyError(
            f"the agent did not win within {r_max} rounds; "
            "the transcript family is not exhaustive")
    return tree


def _violation_literal(g: ColoredGraph, h: ColoredGraph,
                       pairs: tuple[tuple[int, int], ...]) -> Formula:
    """A literal true on the G side and false on the H side of a broken
    configuration; the last pair must participate in the break."""
    j = len(pairs) - 1
    uj, vj = pairs[j]
    vj_name = f"v{j + 1}"
    for i in range(j):
        ui, vi = pairs[i]
        vi_name = f"v{i + 1}"
        if (ui == uj) != (vi == vj):
            return Eq(vi_name, vj_name) if ui == uj else Not(Eq(vi_name, vj_name))
        if g.has_edge(ui, uj) != h.has_edge(vi, vj):
            return Adj(vi_name, vj_name) if g.has_edge(ui, uj) \
                else Not(Adj(vi_name, vj_name))
    for c in sorted(g.colors[uj] - h.colors[vj]):
        return Col(c, vj_name)
    for c in sorted(h.colors[vj] - g.colors[uj]):
        return Not(Col(c, vj_name))
    raise StrategyError("configuration is not actually broken")


def extract_formula(tree: ReplyTree) -> Formula:
    """Closed formula in negation normal form, true on the tree's G side and
    false on its H side; rank equals the deepest branch length.

    A move on the G side binds an existential over the conjunction of all
    reply branches; a move on the H side binds a universal over their
    disjunction.
    """
    g, h = tree.g, tree.h

    def build(node: ReplyNode, depth: int) -> Formula:
        side, u = node.move
        var = f"v{depth + 1}"
        parts: list[Formula] = []
        for v in sorted(node.children):
            child = node.children[v]
            if isinstance(child, ReplyNode):
                parts.append(build(child, depth + 1))
            else:
                parts.append(_violation_literal(g, h, child))
        parts = list(dict.fromkeys(parts))
        if side == SIDE_G:
            return Exists(var, conjunction(parts))
        return Forall(var, disjunction(parts))

    return build(tree.root, 0)


def synthesize_distinguisher(g: ColoredGraph, h: ColoredGraph, spoiler: Agent,
                             r_max: int, k: Optional[int] = None) -> Formula:
    """One-call pipeline: exhaust replies, then translate the play tree."""
    return extract_formula(reply_tree(g, h, spoiler, r_max, k))
