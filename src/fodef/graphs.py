"""Colored graphs and the structural primitives built on them.

A colored graph is a finite simple graph (irreflexive, symmetric adjacency)
whose vertices carry finite sets of integer color ids.  Everything here is
immutable; operations return fresh objects.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence


class GraphError(ValueError):
    """Malformed graph input or out-of-range vertex id."""


class BudgetExceeded(RuntimeError):
    """An exhaustive search refused to run past its configured budget."""


INF = math.inf


@dataclass(frozen=True)
class ColoredGraph:
    n: int
    adj: tuple[frozenset[int], ...]
    colors: tuple[frozenset[int], ...]

    @staticmethod
    def build(n: int,
              edges: Iterable[tuple[int, int]],
              colors: Optional[Sequence[Iterable[int]]] = None) -> "ColoredGraph":
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u} rejected")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphError(f"duplicate edge ({u},{v}) rejected")
            seen.add(key)
            nbrs[u].add(v)
            nbrs[v].add(u)
        if colors is None:
            cols = (frozenset(),) * n
        else:
            if len(colors) != n:
                raise GraphError(f"colors list has length {len(colors)}, expected {n}")
            cols = tuple(frozenset(int(c) for c in cs) for cs in colors)
            for cs in cols:
                if any(c < 0 for c in cs):
                    raise GraphError("color ids must be non-negative")
        return ColoredGraph(n, tuple(frozenset(s) for s in nbrs), cols)

    # -- basic queries ----------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def max_color(self) -> int:
        """Largest color id in use, or -1 when the graph is uncolored."""
        best = -1
        for cs in self.colors:
            for c in cs:
                if c > best:
                    best = c
        return best

    # -- connectivity -----------------------------------------------------

    def components(self, within: Optional[frozenset[int]] = None) -> list[tuple[int, ...]]:
        """Connected components, each sorted, ordered by least vertex id."""
        pool = set(within) if within is not None else set(range(self.n))
        comps: list[tuple[int, ...]] = []
        for start in sorted(pool):
            if start not in pool:
                continue
            stack = [start]
            pool.discard(start)
            comp = [start]
            while stack:
                v = stack.pop()
                for u in self.adj[v]:
                    if u in pool:
                        pool.discard(u)
                        comp.append(u)
                        stack.append(u)
            comps.append(tuple(sorted(comp)))
        return comps

    def is_connected(self) -> bool:
        """One search from vertex 0 reaches every vertex."""
        if self.n <= 1:
            return True
        seen = {0}
        stack = [0]
        while stack:
            for u in self.adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == self.n

    def is_tree(self) -> bool:
        return self.is_connected() and self.edge_count() == self.n - 1

    # -- derivation -------------------------------------------------------

    def induced(self, vertices: Iterable[int]) -> tuple["ColoredGraph", dict[int, int]]:
        """Induced subgraph on `vertices` (sorted); returns (graph, old->new map)."""
        vs = sorted(set(vertices))
        if vs and (vs[0] < 0 or vs[-1] >= self.n):
            bad = next(v for v in vs if not 0 <= v < self.n)
            raise GraphError(f"vertex {bad} out of range")
        idx = {v: i for i, v in enumerate(vs)}
        adj = tuple(frozenset(idx[u] for u in self.adj[v] if u in idx) for v in vs)
        return ColoredGraph(len(vs), adj, tuple(self.colors[v] for v in vs)), idx

    def with_extra_colors(self, overlay: Mapping[int, Iterable[int]]) -> "ColoredGraph":
        cols = list(self.colors)
        for v, extra in overlay.items():
            cols[v] = cols[v] | frozenset(int(c) for c in extra)
        return ColoredGraph(self.n, self.adj, tuple(cols))

    def with_edges_added(self, new_edges: Iterable[tuple[int, int]]) -> "ColoredGraph":
        return ColoredGraph.build(self.n, list(self.edges()) + list(new_edges), self.colors)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        payload: dict = {"n": self.n, "edges": [list(e) for e in self.edges()]}
        if any(self.colors):
            payload["colors"] = [sorted(cs) for cs in self.colors]
        return json.dumps(payload)

    @staticmethod
    def from_json(text: str) -> "ColoredGraph":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphError(f"invalid graph JSON: {exc}") from exc
        if not isinstance(payload, dict) or "n" not in payload:
            raise GraphError("graph JSON must be an object with an 'n' field")
        n, edges = payload["n"], payload.get("edges", [])
        if type(n) is not int:
            raise GraphError(f"graph JSON 'n' must be an integer, got {n!r}")
        if not isinstance(edges, list):
            raise GraphError("graph JSON 'edges' must be a list")
        for e in edges:
            if not (isinstance(e, list) and len(e) == 2
                    and all(type(v) is int for v in e)):
                raise GraphError(f"graph JSON edge {e!r} is not a pair of integers")
        colors = payload.get("colors")
        if colors is not None and not (isinstance(colors, list) and all(
                isinstance(cs, list) and all(type(c) is int for c in cs) for cs in colors)):
            raise GraphError("graph JSON 'colors' must be a list of lists of integers")
        return ColoredGraph.build(n, [tuple(e) for e in edges], colors)

    @staticmethod
    def from_edge_list(text: str) -> "ColoredGraph":
        """Plain text: first line `n m`, then m lines `u v`."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise GraphError("empty edge-list input")
        head = lines[0].split()
        if len(head) != 2:
            raise GraphError("edge-list header must be 'n m'")
        n, m = int(head[0]), int(head[1])
        if len(lines) - 1 != m:
            raise GraphError(f"expected {m} edge lines, found {len(lines) - 1}")
        edges = []
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 2:
                raise GraphError(f"bad edge line: {ln!r}")
            edges.append((int(parts[0]), int(parts[1])))
        return ColoredGraph.build(n, edges)

    def to_dot(self, highlight: Iterable[int] = (), name: str = "g") -> str:
        marked = set(highlight)
        out = [f"graph {name} {{"]
        for v in range(self.n):
            attrs = []
            if self.colors[v]:
                attrs.append(f'label="{v}:{",".join(map(str, sorted(self.colors[v])))}"')
            if v in marked:
                attrs.append("style=filled fillcolor=tomato")
            out.append(f"  {v}" + (f" [{' '.join(attrs)}]" if attrs else "") + ";")
        for u, v in self.edges():
            out.append(f"  {u} -- {v};")
        out.append("}")
        return "\n".join(out)


def load_graph(path: str) -> ColoredGraph:
    """Load a graph file, sniffing JSON vs edge-list format."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return ColoredGraph.from_json(text)
    return ColoredGraph.from_edge_list(text)


# -- distances -------------------------------------------------------------


def distance(g: ColoredGraph, u: int, target) -> float:
    """BFS distance from u to a vertex or to the nearest vertex of a set.

    Returns math.inf when unreachable, per d(u,X) = min over the set.
    """
    if not (0 <= u < g.n):
        raise GraphError(f"vertex {u} out of range")
    goal = {target} if isinstance(target, int) else set(target)
    for t in goal:
        if not (0 <= t < g.n):
            raise GraphError(f"vertex {t} out of range")
    if not goal:
        return INF
    if u in goal:
        return 0
    dist = {u: 0}
    frontier = [u]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for w in frontier:
            for x in g.adj[w]:
                if x not in dist:
                    if x in goal:
                        return d
                    dist[x] = d
                    nxt.append(x)
        frontier = nxt
    return INF


def distances_within(g: ColoredGraph, source: int, allowed: frozenset[int]) -> dict[int, int]:
    """BFS distances from source using only vertices in `allowed`."""
    if source not in allowed:
        raise GraphError("source must lie in the allowed set")
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for w in frontier:
            for x in g.adj[w]:
                if x in allowed and x not in dist:
                    dist[x] = dist[w] + 1
                    nxt.append(x)
        frontier = nxt
    return dist


# -- flap decomposition ------------------------------------------------------


def flaps_of(g: ColoredGraph, x: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The X-flaps of g, the connected components of g - X, each sorted, in
    order of least vertex id."""
    xs = set(x)
    if len(xs) != len(x):
        raise GraphError("separator vertices must be distinct")
    for v in x:
        if not (0 <= v < g.n):
            raise GraphError(f"vertex {v} out of range")
    return tuple(g.components(within=frozenset(range(g.n)) - xs))


def recolored_flap(g: ColoredGraph, flap: Iterable[int], sep: Sequence[int],
                   fresh: Sequence[int],
                   base: Optional[Mapping[int, Iterable[int]]] = None
                   ) -> ColoredGraph:
    """The subgraph induced on a flap, its vertex j being the flap's j-th
    least vertex, with the colors `flap_overlay` adds."""
    sub, idx = g.induced(flap)
    extra = flap_overlay(g, idx, sep, fresh, base)
    return sub.with_extra_colors({idx[v]: cs for v, cs in extra.items()})


def flap_overlay(g: ColoredGraph, flap: Iterable[int], sep: Sequence[int],
                 fresh: Sequence[int],
                 base: Optional[Mapping[int, Iterable[int]]] = None
                 ) -> dict[int, frozenset[int]]:
    """Per-vertex colors of a flap recolored against a separator.

    Vertex v of the flap gets base[v] plus fresh[i] for every separator
    vertex sep[i] adjacent to v; vertices left with no color are omitted.
    """
    out: dict[int, frozenset[int]] = {}
    for v in flap:
        cs = set(base.get(v, ())) if base else set()
        nbrs = g.adj[v]
        for i, s in enumerate(sep):
            if s in nbrs:
                cs.add(fresh[i])
        if cs:
            out[v] = frozenset(cs)
    return out


# -- partial isomorphism -----------------------------------------------------


def extends_partial_isomorphism(g: ColoredGraph, h: ColoredGraph,
                                pairs: Iterable[tuple[int, int]],
                                new: tuple[int, int]) -> bool:
    """True iff adding `new` to `pairs`, itself a partial isomorphism, keeps
    it one: the new pair's vertices have equal colors, and against every
    earlier pair they satisfy the equality condition and preserve adjacency
    and non-adjacency in both directions."""
    u, v = new
    if g.colors[u] != h.colors[v]:
        return False
    nu, nv = g.adj[u], h.adj[v]
    for a, b in pairs:
        if (u == a) != (v == b) or (a in nu) != (b in nv):
            return False
    return True


def check_partial_isomorphism(g: ColoredGraph, h: ColoredGraph,
                              pairs: Sequence[tuple[int, int]]) -> bool:
    """True iff the pairing satisfies the equality condition and preserves
    adjacency, non-adjacency and colors in both directions."""
    for u, v in pairs:
        if not (0 <= u < g.n and 0 <= v < h.n):
            raise GraphError("pair references an out-of-range vertex")
    return all(extends_partial_isomorphism(g, h, pairs[:i], pairs[i])
               for i in range(len(pairs)))


# -- isomorphism -------------------------------------------------------------


def _refine(g: ColoredGraph, h: Optional[ColoredGraph] = None
            ) -> Optional[tuple[list[int], list[int]]]:
    """Color refinement of g, jointly with h when given: the stable labels of
    g and of h (of g twice when h is None), or None when the refined
    histograms differ."""
    pair = (g,) if h is None else (g, h)

    def differ(labels):
        return len(labels) == 2 and sorted(labels[0]) != sorted(labels[1])

    table: dict = {}
    labels = [[table.setdefault((tuple(sorted(gr.colors[v])), len(gr.adj[v])), len(table))
               for v in range(gr.n)] for gr in pair]
    while True:
        if differ(labels):
            return None
        table = {}
        new = [[table.setdefault((la[v], tuple(sorted(la[u] for u in gr.adj[v]))), len(table))
                for v in range(gr.n)] for gr, la in zip(pair, labels)]
        if len(set(new[0])) == len(set(labels[0])):
            if differ(new):
                return None
            return new[0], new[-1]
        labels = new


def _forest_code(g: ColoredGraph) -> Optional[tuple]:
    """Canonical AHU code of a colored forest; None if g has a cycle.

    Leaves are peeled off layer by layer, which roots every tree at its
    center: each vertex has at most one neighbor in its own or a later
    layer, its parent or, for the two centers of a bicentral tree, its
    partner.  Layer by layer, a vertex's signature is its colors and the
    sorted ranks of its children, and the distinct signatures of a layer,
    sorted, are ranked above those of the layers below.  The code lists each
    layer's sorted signatures and the sorted ranks of the roots.  The forest
    can be rebuilt from it, so equal codes mean isomorphic forests.  The
    code nests to a fixed depth and is built without recursion, so deep
    trees are safe to code, compare and sort.
    """
    n = g.n
    if g.edge_count() >= n > 0:
        return None
    adj = g.adj
    deg = [len(a) for a in adj]
    layer_of = [-1] * n
    layers: list[list[int]] = []
    layer = [v for v in range(n) if deg[v] <= 1]
    while layer:
        for v in layer:
            layer_of[v] = len(layers)
        nxt = []
        for v in layer:
            for u in adj[v]:
                if layer_of[u] < 0:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        layers.append(layer)
        layer = nxt
    if sum(map(len, layers)) < n:
        return None  # the unpeeled rest holds a cycle
    rank = [0] * n
    base = 0
    levels = []
    roots = []
    for h, layer in enumerate(layers):
        sigs = {}
        tops = []
        for v in layer:
            kids = []
            up = None
            for u in adj[v]:
                if layer_of[u] < h:
                    kids.append(rank[u])
                else:
                    up = u
            sigs[v] = (tuple(sorted(g.colors[v])), tuple(sorted(kids)))
            if up is None or layer_of[up] == h and v < up:
                tops.append((v, up))
        distinct = sorted(set(sigs.values()))
        index = {sig: base + i for i, sig in enumerate(distinct)}
        base += len(distinct)
        for v in layer:
            rank[v] = index[sigs[v]]
        for v, up in tops:
            roots.append((rank[v],) if up is None else tuple(sorted((rank[v], rank[up]))))
        levels.append(tuple(distinct))
    return tuple(levels), tuple(sorted(roots))


def _match_backtrack(g: ColoredGraph, h: ColoredGraph,
                     la: list[int], lb: list[int],
                     collect_all: bool = False,
                     limit: int = 1 << 30) -> list[dict[int, int]]:
    """Label-guided backtracking search for isomorphisms g -> h."""
    n = g.n
    if not n:
        return [{}]
    by_label: dict[int, list[int]] = {}
    for v in range(h.n):
        by_label.setdefault(lb[v], []).append(v)
    # order vertices to keep the frontier connected where possible: next is
    # the least (label class size, id) among unplaced vertices with a placed
    # neighbor, else among all unplaced ones
    label_size = {lab: len(vs) for lab, vs in by_label.items()}
    heap = sorted((1, label_size[la[v]], v) for v in range(n))  # a sorted list is a heap
    order: list[int] = []
    placed = [False] * n
    while heap:
        _, _, v = heapq.heappop(heap)
        if not placed[v]:
            order.append(v)
            placed[v] = True
            for u in g.adj[v]:
                if not placed[u]:
                    heapq.heappush(heap, (0, label_size[la[u]], u))

    results: list[dict[int, int]] = []
    mapping: dict[int, int] = {}
    used: set[int] = set()
    # one frame per vertex being mapped: the vertex, its untried candidates
    # and the images of its mapped neighbors, which must be exactly the
    # mapped neighbors of its image
    stack: list[tuple[int, Iterator[int], set[int]]] = []
    while True:
        if len(stack) == len(mapping):
            v = order[len(mapping)]
            stack.append((v, iter(by_label[la[v]]),
                          {mapping[u] for u in g.adj[v] if u in mapping}))
        v, cands, images = stack[-1]
        for w in cands:
            if w not in used and h.adj[w] & used == images:
                break
        else:
            stack.pop()
            if not stack:
                return results
            used.discard(mapping.pop(stack[-1][0]))
            continue
        mapping[v] = w
        used.add(w)
        if len(mapping) == n:
            results.append(dict(mapping))
            if not collect_all or len(results) >= limit:
                return results
            del mapping[v]
            used.discard(w)


def find_isomorphism(g: ColoredGraph, h: ColoredGraph) -> Optional[dict[int, int]]:
    """A color- and adjacency-preserving bijection g -> h, or None."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return None
    if sorted(map(len, g.adj)) != sorted(map(len, h.adj)):
        return None
    refined = _refine(g, h)
    if refined is None:
        return None
    res = _match_backtrack(g, h, refined[0], refined[1])
    return res[0] if res else None


def are_isomorphic(g: ColoredGraph, h: ColoredGraph) -> bool:
    """Forests by their AHU codes, other graphs by `find_isomorphism`, whose
    joint refinement stops at the first histogram that differs."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    code = _forest_code(g)
    if code is not None:
        return code == _forest_code(h)
    return find_isomorphism(g, h) is not None


def automorphisms(g: ColoredGraph, limit: int = 50000) -> list[dict[int, int]]:
    """All automorphisms of g, up to `limit` of them."""
    la, _ = _refine(g)
    return _match_backtrack(g, g, la, la, collect_all=True, limit=limit)


def iso_invariant_key(g: ColoredGraph) -> tuple:
    """Isomorphism-invariant key: isomorphic graphs get equal keys.

    For a forest it is the tagged AHU code, which is complete: equal keys
    mean isomorphic forests.  For any other graph it is a color-refinement
    summary, which is not complete.
    """
    code = _forest_code(g)
    if code is not None:
        return ("forest", code)
    la, _ = _refine(g)
    hist = tuple(sorted(Counter(la).values()))
    degs = tuple(sorted(len(a) for a in g.adj))
    cols = tuple(sorted(tuple(sorted(c)) for c in g.colors))
    return ("refined", g.n, g.edge_count(), degs, cols, hist)


def group_by_isomorphism(graphs: Iterable[ColoredGraph]) -> list[list[int]]:
    """Partition the indices of `graphs` into isomorphism classes.

    Classes come in order of least index, each listing its members in
    ascending order.  Graphs are bucketed by `iso_invariant_key`, and only
    a bucket of non-forests is split further by `find_isomorphism`.  Any
    iterable will do: one graph per class is kept.
    """
    buckets: dict[tuple, list[tuple[ColoredGraph, list[int]]]] = {}
    classes: list[list[int]] = []
    for i, gr in enumerate(graphs):
        key = iso_invariant_key(gr)
        bucket = buckets.setdefault(key, [])
        for rep, members in bucket:
            if key[0] == "forest" or find_isomorphism(gr, rep) is not None:
                members.append(i)
                break
        else:
            members = [i]
            bucket.append((gr, members))
            classes.append(members)
    return classes


# -- flap similarity ---------------------------------------------------------


def flap_classes(flaps: Sequence[tuple[ColoredGraph, Sequence[int], Sequence[int],
                                       Optional[Mapping[int, Iterable[int]]]]],
                 fresh: Sequence[int]) -> list[list[int]]:
    """Partition the indices of `flaps` into similarity classes.

    Item i is (graph, flap, separator, base colors), separators paired in
    order across graphs.  Two flaps are similar when some bijection between
    them keeps colors plus base colors, edges inside the flap and adjacency
    to the i-th separator vertex: when their `recolored_flap`s with the
    `fresh` colors, used by no graph or base, are isomorphic.  Only flaps
    that share an order are recolored and grouped by `group_by_isomorphism`.
    Classes come in order of least index, each in ascending order, as one
    grouping of every recolored flap would list them.
    """
    by_order: dict[int, list[int]] = {}
    for i, (_, f, _, _) in enumerate(flaps):
        by_order.setdefault(len(f), []).append(i)
    classes = []
    for members in by_order.values():
        if len(members) == 1:
            classes.append(members)
            continue
        subs = (recolored_flap(gr, f, sep, fresh, base)
                for gr, f, sep, base in (flaps[i] for i in members))
        classes += [[members[j] for j in local]
                    for local in group_by_isomorphism(subs)]
    classes.sort(key=lambda c: c[0])
    return classes
