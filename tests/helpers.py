"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive: permutation search, exhaustive
subdivision hunts, direct inductive definitions.  Slow but obviously right
at the sizes the tests use.
"""

from itertools import combinations, permutations

from fodef.game import SIDE_G, SIDE_H
from fodef.graphs import ColoredGraph


def brute_isomorphic(g: ColoredGraph, h: ColoredGraph) -> bool:
    if g.n != h.n:
        return False
    for perm in permutations(range(h.n)):
        if all(g.colors[v] == h.colors[perm[v]] for v in range(g.n)) and all(
            g.has_edge(u, v) == h.has_edge(perm[u], perm[v])
            for u in range(g.n) for v in range(u + 1, g.n)
        ):
            return True
    return False


def brute_automorphisms(g: ColoredGraph) -> list[tuple[int, ...]]:
    """Every automorphism of g as the tuple of images, by a scan over all
    permutations (order <= 7)."""
    assert g.n <= 7, "a scan over more than 7! permutations"
    return [perm for perm in permutations(range(g.n))
            if all(g.colors[v] == g.colors[perm[v]] for v in range(g.n))
            and all(g.has_edge(perm[u], perm[v]) for u, v in g.edges())]


def brute_all_graphs(n: int) -> list[ColoredGraph]:
    """One representative per isomorphism class, by raw 2^C(n,2) scan."""
    slots = list(combinations(range(n), 2))
    reps: list[ColoredGraph] = []
    for mask in range(1 << len(slots)):
        edges = [slots[i] for i in range(len(slots)) if mask >> i & 1]
        g = ColoredGraph.build(n, edges)
        if not any(brute_isomorphic(g, r) for r in reps):
            reps.append(g)
    return reps


def brute_similar(g: ColoredGraph, x: list[int], f1: tuple[int, ...], f2: tuple[int, ...]) -> bool:
    """Does the identity on X extend to an isomorphism G[X+F1] -> G[X+F2]?"""
    if len(f1) != len(f2):
        return False
    dom = list(x) + list(f1)
    for perm in permutations(f2):
        m = {v: v for v in x}
        m.update(dict(zip(f1, perm)))
        if all(g.colors[v] == g.colors[m[v]] for v in dom) and all(
            g.has_edge(u, v) == g.has_edge(m[u], m[v])
            for u in dom for v in dom if u < v
        ):
            return True
    return False


def _has_subdivision(g: ColoredGraph, pattern_edges: list[tuple[int, int]], k: int) -> bool:
    """Exhaustive search for a subdivision of a k-vertex pattern inside g."""
    def paths_between(a: int, b: int, banned: set[int]) -> list[frozenset[int]]:
        out = []

        def walk(v: int, seen: set[int]):
            if v == b:
                out.append(frozenset(seen - {a, b}))
                return
            for u in g.adj[v]:
                if u == b or (u not in seen and u not in banned):
                    if u == b:
                        out.append(frozenset(seen - {a}))
                    else:
                        seen.add(u)
                        walk(u, seen)
                        seen.discard(u)

        walk(a, {a})
        return out

    for branch in permutations(range(g.n), k):
        def embed(i: int, used: set[int]) -> bool:
            if i == len(pattern_edges):
                return True
            a, b = pattern_edges[i]
            va, vb = branch[a], branch[b]
            for inner in paths_between(va, vb, used | set(branch) - {va, vb}):
                if inner.isdisjoint(used):
                    if embed(i + 1, used | inner):
                        return True
            return False

        if embed(0, set()):
            return True
    return False


def brute_outerplanar(g: ColoredGraph) -> bool:
    """Outerplanar iff no K4 subdivision and no K_{2,3} subdivision."""
    if g.edge_count() > max(0, 2 * g.n - 3):
        return False
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    if g.n >= 4 and _has_subdivision(g, k4, 4):
        return False
    k23 = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
    if g.n >= 5 and _has_subdivision(g, k23, 5):
        return False
    return True


def brute_two_connected(g: ColoredGraph) -> bool:
    if g.n < 3 or not g.is_connected():
        return False
    for v in range(g.n):
        rest = [u for u in range(g.n) if u != v]
        sub, _ = g.induced(rest)
        if not sub.is_connected():
            return False
    return True


def brute_nest(f) -> set[str]:
    """Direct inductive computation of the nested-quantifier sequence set."""
    from fodef import formulas as F

    if isinstance(f, (F.Adj, F.Eq, F.Col)):
        return {""}
    if isinstance(f, F.Not):
        flip = str.maketrans("EA", "AE")
        return {s.translate(flip) for s in brute_nest(f.body)}
    if isinstance(f, (F.And, F.Or)):
        return brute_nest(f.left) | brute_nest(f.right)
    if isinstance(f, F.Exists):
        return {"E" + s for s in brute_nest(f.body)}
    if isinstance(f, F.Forall):
        return {"A" + s for s in brute_nest(f.body)}
    raise TypeError(f)


def brute_partial_isomorphism(g: ColoredGraph, h: ColoredGraph, pairs) -> bool:
    """Reference check of a whole pebble tuple, pair against pair."""
    for i, (ui, vi) in enumerate(pairs):
        if g.colors[ui] != h.colors[vi]:
            return False
        for uj, vj in pairs[:i]:
            if (ui == uj) != (vi == vj):
                return False
            if g.has_edge(ui, uj) != h.has_edge(vi, vj):
                return False
    return True


def _winning_moves(g: ColoredGraph, h: ColoredGraph, pairs: tuple, r: int,
                   last, alts: int, k):
    """Every Spoiler move that breaks the configuration within r rounds
    whatever the replies, side G first and least vertex first."""
    if r == 0:
        return
    for side in (SIDE_G, SIDE_H):
        switching = last is not None and side != last
        if k is not None and switching and alts >= k:
            continue
        size_own = g.n if side == SIDE_G else h.n
        size_other = h.n if side == SIDE_G else g.n
        for u in range(size_own):
            if all(
                not brute_partial_isomorphism(g, h, child)
                or any(_winning_moves(g, h, child, r - 1, side, alts + switching, k))
                for child in (pairs + (((u, v) if side == SIDE_G else (v, u)),)
                              for v in range(size_other))
            ):
                yield side, u


def brute_rank(g: ColoredGraph, h: ColoredGraph, r_max: int,
               k=None) -> int | None:
    """Reference minimax for the round game, with at most k side switches
    when k is given: no memo, no pruning."""
    for r in range(1, r_max + 1):
        if any(_winning_moves(g, h, (), r, None, 0, k)):
            return r
    return None


def brute_best_move(g: ColoredGraph, h: ColoredGraph, r_max: int, k=None):
    """The first of the winning first moves at the least winning round
    count, or None when r_max rounds do not suffice."""
    r = brute_rank(g, h, r_max, k)
    return None if r is None else next(_winning_moves(g, h, (), r, None, 0, k))


def brute_survival(spoiler, g: ColoredGraph, h: ColoredGraph, r_max: int,
                   k=None, initial_pairs=()):
    """Reference worst case of a fixed Spoiler agent: a recursive walk over
    every Duplicator reply that gives every running reply a fork of its own.
    A won line survives one round less than it took; a Duplicator survival
    and an overspending Spoiler move both survive the whole game."""
    from fodef.game import RUNNING, SPOILER_WON, new_game, step
    from fodef.oracle import SurvivalReport

    base = new_game(g, h, r_max, k)
    for u, v in initial_pairs:
        base = step(base, (SIDE_G, u), v)
    start = base.round
    branches = 0

    def walk(state, agent):
        nonlocal branches
        if state.status == SPOILER_WON:
            branches += 1
            return state.round - 1 - start, True, state.round
        if state.status != RUNNING:
            branches += 1
            return state.round - start, False, state.round
        side, u = agent.choose(state)
        if not state.switch_allowed(side):
            branches += 1
            return state.max_rounds - start, False, state.round
        other = h if side == SIDE_G else g
        best = (-1, True, 0)
        for v in range(other.n):
            child = step(state, (side, u), v)
            got = walk(child, agent.fork() if child.status == RUNNING else agent)
            best = (max(best[0], got[0]), best[1] and got[1], max(best[2], got[2]))
        return best

    surv, wins, deepest = walk(base, spoiler)
    return SurvivalReport(surv, wins, branches, deepest)


SEARCH_NODE_BUDGET = 2_000_000   # spanning-path search nodes per completion test


def brute_edhop1_completion(g: ColoredGraph):
    """Search for a spanning path whose endpoint closure is outerplanar;
    returns (completion cycle, missing edge) of a 1-edge completion to HOP."""
    from fodef.graphs import BudgetExceeded
    from fodef.separators import EDHOP1, OClassification, _norm

    n = g.n
    if n < 3 or not g.is_connected() or g.edge_count() > 2 * n - 4:
        return None
    nodes = 0
    in_path = [False] * n
    path: list[int] = []

    def validate():
        u, v = path[0], path[-1]
        if g.has_edge(u, v):
            return None
        cand = OClassification(EDHOP1, tuple(path), (_norm(u, v),))
        if cand.certifies(g):
            return tuple(path), _norm(u, v)
        return None

    def extend():
        nonlocal nodes
        nodes += 1
        if nodes > SEARCH_NODE_BUDGET:
            raise BudgetExceeded(
                f"spanning-path search exceeded {SEARCH_NODE_BUDGET} nodes")
        if len(path) == n:
            if path[0] < path[-1]:
                return validate()
            return None
        for u in sorted(g.adj[path[-1]]):
            if not in_path[u]:
                path.append(u)
                in_path[u] = True
                got = extend()
                in_path[u] = False
                path.pop()
                if got:
                    return got
        return None

    for s in range(n):
        path = [s]
        in_path = [False] * n
        in_path[s] = True
        got = extend()
        if got:
            return got
    return None


def brute_classify_o(g: ColoredGraph):
    """Reference class-O classification on the spanning-path search: HOP,
    then one addition, then two, trying every non-edge in order."""
    from fodef.separators import (
        EDHOP1, EDHOP2, HOP, NOT_IN_O, OClassification, _hop_cycle,
    )

    if not g.is_connected():
        return OClassification(NOT_IN_O, None)
    cyc = _hop_cycle(g)
    if cyc is not None:
        return OClassification(HOP, cyc)
    one = brute_edhop1_completion(g)
    if one is not None:
        return OClassification(EDHOP1, one[0], (one[1],))
    if g.edge_count() <= 2 * g.n - 5:
        non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                     if not g.has_edge(u, v)]
        for d in non_edges:
            two = brute_edhop1_completion(g.with_edges_added([d]))
            if two is not None:
                cyc2, c = two
                return OClassification(EDHOP2, cyc2, tuple(sorted((c, d))))
    return OClassification(NOT_IN_O, None)


def reference_tree_centroid(g: ColoredGraph, within):
    """(x, flaps) of a centroid of the subtree on `within`, in g's ids, the
    way the separator worked before it searched g in place: copy the
    subtree with induced(), root a search at its vertex 0, take the least
    (load, v) with load the largest flap of v, split with flaps_of and map
    the ids back."""
    from fodef.graphs import flaps_of
    from fodef.separators import SeparatorError

    sub, idx = g.induced(within)
    if not sub.is_tree():
        raise SeparatorError("input is not a tree")
    back = sorted(idx)
    n = sub.n
    parent = {0: None}
    order, stack = [], [0]
    while stack:
        v = stack.pop()
        order.append(v)
        for u in sub.adj[v]:
            if u not in parent:
                parent[u] = v
                stack.append(u)
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    best = min((max([n - size[v]] + [size[u] for u in sub.adj[v] if parent[u] == v]), v)
               for v in range(n))[1]
    flaps = flaps_of(sub, [best])
    return (back[best],), tuple(tuple(back[i] for i in f) for f in flaps)


def reference_flaps_within(g: ColoredGraph, dom, cut) -> list:
    """The components of dom - cut the way the strategy split its H domain
    before it searched from the cut: `components` over the whole rest."""
    return [frozenset(c) for c in g.components(within=dom - frozenset(cut))]


def reference_flap_overlay(g: ColoredGraph, flap, sep, fresh, base=None) -> dict:
    """The overlay of a recolored flap the way it was built before it read
    the separator's neighbors: a walk over every flap vertex and every
    separator vertex."""
    out = {}
    for v in flap:
        cs = set(base.get(v, ())) if base else set()
        nbrs = g.adj[v]
        for i, s in enumerate(sep):
            if s in nbrs:
                cs.add(fresh[i])
        if cs:
            out[v] = frozenset(cs)
    return out


def reference_bisection_move(bisection):
    """The move of a `_Bisection` the way it was chosen before it kept its
    geodesic interval: two searches of the whole region, then a scan of the
    region for the least (max distance, id) vertex on a shortest path
    between the anchors."""
    from fodef.graphs import distances_within

    b = bisection
    u1, u2 = (a[b.p] for a in b.anchors)
    d1 = distances_within(b.play_graph, u1, b.region)
    d2 = distances_within(b.play_graph, u2, b.region)
    gap = d1[u2]
    best = None
    for v in b.region:
        dv1, dv2 = d1.get(v), d2.get(v)
        if dv1 is None or dv2 is None or dv1 + dv2 != gap:
            continue
        score = (max(dv1, dv2), v)
        if best is None or score < best:
            best = score
    return (b.side, best[1])


def reference_choose_depth(n: int, m_or_s: int, epsilon, variant: str = "S") -> int:
    """The recursion depth of `choose_depth` in its old Fraction loop: the
    least t with (1/epsilon)^t >= n/m, with m + 1 for 'S_star'."""
    from fractions import Fraction

    eps = Fraction(epsilon)
    ratio = Fraction(n, m_or_s + (variant == "S_star"))
    t = 0
    power = Fraction(1)
    inv = 1 / eps
    while power < ratio:
        power *= inv
        t += 1
    return t
