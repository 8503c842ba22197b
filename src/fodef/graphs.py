"""Colored graphs and the structural primitives built on them.

A colored graph is a finite simple graph (irreflexive, symmetric adjacency)
whose vertices carry finite sets of integer color ids.  Everything here is
immutable; operations return fresh objects.

Isomorphism is decided one way: forests by their AHU codes, every other
graph by one individualization-refinement search, which gives a complete
canonical code, its labelling and generators of the automorphism group.

A fact of a graph (its connectivity, degree sequence, forest code, root
partition, canonical search, greedy reply index and stabilizer orbits) is a
`cached_property` of the graph: computed at most once per graph object, at
its first use, and freed with the object.  Equal but distinct objects keep
their own facts.  The memo adds no lock, because fodef runs one thread.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Container, Iterable, Iterator, Mapping, Optional, Sequence


class GraphError(ValueError):
    """Malformed graph input or out-of-range vertex id."""


class BudgetExceeded(RuntimeError):
    """An exhaustive search refused to run past its configured budget."""


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
        """Connected components, each sorted, ordered by least vertex id.
        Each search starts from a vertex popped off the pool and grows its
        component list in place; the components are sorted once at the end."""
        pool = set(within) if within is not None else set(range(self.n))
        if pool:
            lo, hi = min(pool), max(pool)
            if lo < 0 or hi >= self.n:
                raise GraphError(f"vertex {lo if lo < 0 else hi} out of range")
        adj = self.adj
        comps: list[tuple[int, ...]] = []
        while pool:
            comp = [pool.pop()]
            for v in comp:
                for u in adj[v]:
                    if u in pool:
                        pool.discard(u)
                        comp.append(u)
            comp.sort()
            comps.append(tuple(comp))
        comps.sort()
        return comps

    def is_connected(self) -> bool:
        """One search from vertex 0 reaches every vertex; it runs once per
        graph object."""
        return self._connected

    @cached_property
    def _connected(self) -> bool:
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

    # -- facts, each computed once per graph object -----------------------

    @cached_property
    def _degrees(self) -> list[int]:
        return sorted(map(len, self.adj))

    @cached_property
    def _forest(self) -> Optional[tuple]:
        return _forest_code(self)

    @cached_property
    def _partition(self) -> tuple[tuple[list[int], ...], tuple[tuple, tuple]]:
        """The root partition and its signature, the colors and the cell of
        each vertex in cell order, which isomorphic graphs share."""
        part = _root(self)
        elems, cell = part[0], part[2]
        return part, (tuple(map(self.colors.__getitem__, elems)),
                      tuple(map(cell.__getitem__, elems)))

    @cached_property
    def _search(self) -> tuple[tuple, list[int], list[tuple[int, ...]]]:
        """The canonical code, labelling and automorphism generators."""
        return _canonical(self, self._partition[0])

    @cached_property
    def _reply_index(self) -> tuple[dict, dict]:
        """The vertices by colors and then degree, and by degree alone,
        each list ascending: the greedy Duplicator's index."""
        by_colors: dict = {}
        by_degree: dict = {}
        for v in range(self.n):
            d = len(self.adj[v])
            by_colors.setdefault(self.colors[v], {}).setdefault(d, []).append(v)
            by_degree.setdefault(d, []).append(v)
        return by_colors, by_degree

    @cached_property
    def _orbits(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Pebbled set -> its `stabilizer_orbits`, filled as they are read."""
        return {}

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
        for v in sorted(marked):
            if not 0 <= v < self.n:
                raise GraphError(f"highlighted vertex {v} out of range")
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


def distances_within(g: ColoredGraph, source: int, allowed: frozenset[int]) -> dict[int, int]:
    """BFS distances from source using only vertices in `allowed`."""
    if not 0 <= source < g.n:
        raise GraphError(f"vertex {source} out of range")
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


def flaps_within(g: ColoredGraph, dom: frozenset[int],
                 cut: Sequence[int]) -> list[frozenset[int]]:
    """The components of dom - cut, in order of least vertex id, found in
    time proportional to all but the largest of them.

    Precondition: dom induces a connected subgraph of g.  Then every
    component of dom - cut holds a neighbor of a cut vertex of dom, so one
    search starts from each such neighbor.  The searches take one vertex
    each in turn, and two that meet merge, the smaller into the larger.  A
    search with nothing left to take is a whole component.  Once at most
    one search is still running, the last component is the rest of dom, by
    one set difference (the smaller-half trick of Even & Shiloach, "An
    on-line edge-deletion problem", JACM 1981).
    """
    adj = g.adj
    owner = dict.fromkeys(cut, -1)   # vertex -> search; -1 on the cut
    found: list = []                 # per search: [its vertices, its stack]
    for c in cut:
        for u in adj[c]:
            if u in dom and u not in owner:
                owner[u] = len(found)
                found.append([[u], [u]])
    live = list(range(len(found)))
    done: list[frozenset[int]] = []
    while len(live) > 1:
        running = []
        for i in live:
            if found[i] is None:
                continue  # merged into another search this turn
            mine, stack = found[i]
            if not stack:
                done.append(frozenset(mine))
                continue
            for u in adj[stack.pop()]:
                j = owner.get(u)
                if j is None:
                    if u in dom:
                        owner[u] = i
                        mine.append(u)
                        stack.append(u)
                elif j != i and j >= 0:
                    small, i = (i, j) if len(mine) < len(found[j][0]) else (j, i)
                    for w in found[small][0]:
                        owner[w] = i
                    found[i][0].extend(found[small][0])
                    found[i][1].extend(found[small][1])
                    found[small] = None
                    mine, stack = found[i]
            running.append(i)
        live = [i for i in dict.fromkeys(running) if found[i] is not None]
    rest = dom.difference(cut, *done)
    return sorted(done + [rest] if rest else done, key=min)


def recolored_flap(g: ColoredGraph, flap: Iterable[int], sep: Sequence[int],
                   fresh: Sequence[int],
                   base: Optional[Mapping[int, Iterable[int]]] = None
                   ) -> ColoredGraph:
    """The subgraph induced on a flap, its vertex j being the flap's j-th
    least vertex, with the colors `flap_overlay` adds."""
    sub, idx = g.induced(flap)
    extra = flap_overlay(g, idx, sep, fresh, base)
    return sub.with_extra_colors({idx[v]: cs for v, cs in extra.items()})


def flap_overlay(g: ColoredGraph, flap: Container[int], sep: Sequence[int],
                 fresh: Sequence[int],
                 base: Optional[Mapping[int, Iterable[int]]] = None
                 ) -> dict[int, frozenset[int]]:
    """Per-vertex colors of a flap recolored against a separator.

    Vertex v of the flap gets base[v] plus fresh[i] for every separator
    vertex sep[i] adjacent to v; vertices left with no color are omitted.
    Only the base entries and the separator's neighbors are read, so the
    flap needs only to answer `in`.
    """
    out = {v: frozenset(cs) for v, cs in base.items() if v in flap} if base else {}
    for i, s in enumerate(sep):
        for v in g.adj[s]:
            if v in flap:
                out[v] = out.get(v, frozenset()) | {fresh[i]}
    return {v: cs for v, cs in out.items() if cs}


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


def _equitable(adj: tuple[frozenset[int], ...], part: tuple[list[int], ...],
               work: list[int]) -> None:
    """Refine the ordered partition `part` in place until it is equitable:
    every vertex of a cell has as many neighbors in each cell as any other.
    `part` is four lists: the vertices in cell order, the position of each
    vertex, the cell of each vertex (the position where it starts) and, at
    each cell start, the position where the cell ends.

    `work` is a stack of the starts of the cells to split by.  A cell
    splits by its vertices' neighbor counts in the splitter, fragments in
    ascending count, so the cell order is isomorphism-invariant.  Every
    fragment but the first largest is pushed, unless the cell was on the
    stack (the smaller-half rule), and a split moves only the vertices it
    touches, so each vertex is in O(log n) splitters.  Refinement stops
    once every cell is a single vertex.
    """
    elems, pos, cell, end = part
    queued, cells = set(work), len(set(cell))
    while work and cells < len(elems):
        s = work.pop()
        queued.discard(s)
        count: dict[int, int] = {}
        hit: dict[int, list[int]] = {}
        for u in elems[s:end[s]]:
            for w in adj[u]:
                if w in count:
                    count[w] += 1
                elif end[cell[w]] - cell[w] > 1:  # a cell of one vertex stays
                    count[w] = 1
                    hit.setdefault(cell[w], []).append(w)
        for c in sorted(hit):
            ws, e = sorted(hit[c], key=count.__getitem__), end[c]
            if len(ws) == e - c and count[ws[0]] == count[ws[-1]]:
                continue
            tail = e - len(ws)
            starts = [c] if tail > c else []
            for i, w in enumerate(ws, tail):  # the touched vertices go last
                x = elems[i]
                elems[pos[w]], pos[x] = x, pos[w]
                elems[i], pos[w] = w, i
                if i == tail or count[w] != count[elems[i - 1]]:
                    starts.append(i)
                cell[w] = starts[-1]
            sizes = [b - a for a, b in zip(starts, starts[1:] + [e])]
            for a, size in zip(starts, sizes):
                end[a] = a + size
            cells += len(starts) - 1
            starts.pop(0 if c in queued else sizes.index(max(sizes)))
            queued.update(starts)
            work += starts


def _root(g: ColoredGraph) -> tuple[list[int], ...]:
    """The equitable refinement of g's partition by color set, color sets in
    ascending order."""
    keys = [tuple(sorted(cs)) for cs in g.colors]
    elems = sorted(range(g.n), key=keys.__getitem__)
    pos, cell, end = [0] * g.n, [0] * g.n, [0] * g.n
    for i, v in enumerate(elems):
        pos[v] = i
        cell[v] = i if not i or keys[v] != keys[elems[i - 1]] else cell[elems[i - 1]]
        end[cell[v]] = i + 1
    part = (elems, pos, cell, end)
    _equitable(g.adj, part, sorted(set(cell)))
    return part


def _orbit_roots(n: int, gens: Sequence[Sequence[int]]) -> list[int]:
    """Per point the least point of its orbit under the permutations `gens`
    of range(n), each given as the tuple of images."""
    root = [-1] * n
    for v in range(n):
        if root[v] < 0:
            root[v] = v
            stack = [v]
            while stack:
                u = stack.pop()
                for a in gens:
                    if root[a[u]] < 0:
                        root[a[u]] = v
                        stack.append(a[u])
    return root


def _canonical(g: ColoredGraph, part: Optional[tuple[list[int], ...]] = None
               ) -> tuple[tuple, list[int], list[tuple[int, ...]]]:
    """Individualization-refinement search (McKay & Piperno, "Practical
    graph isomorphism, II", 2014) of g from its root partition `part`
    (computed when None): the canonical code, the labelling that
    reaches it (the vertices in label order) and the automorphisms found,
    as tuples of images, which generate the automorphism group of g.

    A tree node individualizes each vertex of its first cell of more than
    one vertex in turn, least first, and refines; a child in the orbit of an
    explored one under the found automorphisms that fix the node's
    individualized vertices is pruned.  A leaf's code is its labelled edge
    set, and the canonical code the least one with the color sets in label
    order.  Every leaf is compared with the first leaf and the best: an
    equal code gives an automorphism, and the search goes back to where the
    two paths part, the rest of that subtree being an image of one searched.
    """
    adj, n = g.adj, g.n
    gens: list[tuple[int, ...]] = []
    leaves: list[tuple] = []  # the first leaf and the best: code, labelling, path
    # per tree node on the current path: partition, individualized vertices,
    # children left (descending) and explored, orbit roots and from how many
    # automorphisms they were taken
    frames: list[list] = []
    node: Optional[tuple] = (part or _root(g), ())
    while node:
        part, path = node
        elems, pos, _, end = part
        c = next((p for p in range(n) if end[p] - p > 1), None)
        if c is not None:
            frames.append([part, path, sorted(elems[c:end[c]], reverse=True), [],
                           range(n), 0])
        else:
            code = tuple(sorted([pos[u] * n + pos[w] for u in range(n)
                                 for w in adj[u] if pos[w] < pos[u]]))
            back = len(path) - 1
            for known, lab, other in leaves:
                if code == known:
                    gens.append(tuple(y for _, y in sorted(zip(lab, elems))))
                    back = next(i for i, (x, y) in enumerate(zip(path, other)) if x != y)
                    break
            else:
                leaves = leaves or [(code, elems, path)] * 2
                if code < leaves[1][0]:
                    leaves[1] = (code, elems, path)
            del frames[back + 1:]
        node = None
        while frames and not node:
            frame = frames[-1]
            part, path, todo, explored, roots, known = frame
            if not todo:
                frames.pop()
                continue
            w = todo.pop()
            if explored and len(gens) > known:
                roots = _orbit_roots(n, [a for a in gens if all(a[x] == x for x in path)])
                frame[4:] = roots, len(gens)
            if all(roots[w] != roots[x] for x in explored):
                explored.append(w)
                elems, pos, cell, end = (list(x) for x in part)
                c = cell[w]
                last = end[c] - 1
                x = elems[last]
                elems[pos[w]], pos[x] = x, pos[w]  # w is split off its cell, last
                elems[last], pos[w] = w, last
                end[last], end[c], cell[w] = end[c], last, last
                node = ((elems, pos, cell, end), path + (w,))
                _equitable(adj, node[0], [last])
    code, lab, _ = leaves[1]
    return (tuple(g.colors[v] for v in lab), code), lab, gens


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


def find_isomorphism(g: ColoredGraph, h: ColoredGraph) -> Optional[dict[int, int]]:
    """A color- and adjacency-preserving bijection g -> h, or None.  Graphs
    whose degree sequences or root partitions differ are rejected before
    any search; otherwise the two canonical labellings, composed, give the
    map."""
    if g.n != h.n or g._degrees != h._degrees or g._partition[1] != h._partition[1]:
        return None
    (code_g, lab_g, _), (code_h, lab_h, _) = g._search, h._search
    return dict(zip(lab_g, lab_h)) if code_g == code_h else None


def are_isomorphic(g: ColoredGraph, h: ColoredGraph) -> bool:
    """Graphs of different degree sequences are rejected at once; otherwise
    forests are compared by their AHU codes, other graphs by
    `find_isomorphism`."""
    if g.n != h.n or g._degrees != h._degrees:
        return False
    if g._forest is not None:
        return g._forest == h._forest
    return find_isomorphism(g, h) is not None


def automorphisms(g: ColoredGraph, limit: int = 50000) -> list[dict[int, int]]:
    """All automorphisms of g, up to `limit` of them: the closure of the
    automorphisms that the canonical search finds."""
    gens, group = g._search[2], [tuple(range(g.n))]
    seen = set(group)
    for a in group:
        for ab in (tuple(b[x] for x in a) for b in gens):
            if ab not in seen and len(group) < limit:
                seen.add(ab)
                group.append(ab)
    return [dict(enumerate(a)) for a in group]


def iso_invariant_key(g: ColoredGraph) -> tuple:
    """A complete isomorphism invariant: equal keys exactly for isomorphic
    graphs.  For a forest it is the tagged AHU code, for any other graph
    the tagged canonical code."""
    code = g._forest
    return ("forest", code) if code is not None else ("graph", g._search[0])


def stabilizer_orbits(g: ColoredGraph, pebbled: tuple[int, ...]) -> tuple[int, ...]:
    """The least vertex of each orbit of the stabilizer of the vertices
    `pebbled` (ascending) in g, ascending, kept on g per pebbled set.  The
    automorphisms that the canonical search of g, with each pebbled vertex
    given a color of its own, finds generate the stabilizer."""
    found = g._orbits.get(pebbled)
    if found is None:
        fresh = g.max_color() + 1
        marked = g.with_extra_colors({x: (fresh + i,) for i, x in enumerate(pebbled)})
        roots = _orbit_roots(g.n, _canonical(marked)[2])
        found = g._orbits[pebbled] = tuple(v for v in range(g.n) if roots[v] == v)
    return found


def group_by_isomorphism(graphs: Iterable[ColoredGraph]) -> list[list[int]]:
    """Partition the indices of `graphs` into isomorphism classes by
    `iso_invariant_key`, in order of least index, each in ascending order.
    Any iterable will do: only the keys are kept."""
    classes: dict[tuple, list[int]] = {}
    for i, gr in enumerate(graphs):
        classes.setdefault(iso_invariant_key(gr), []).append(i)
    return list(classes.values())


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
    that share an order are recolored and keyed by `iso_invariant_key`.
    Classes come in order of least index, each in ascending order.
    """
    orders = Counter(len(f) for _, f, _, _ in flaps)
    classes: dict[tuple, list[int]] = {}
    for i, (gr, f, sep, base) in enumerate(flaps):
        alone = orders[len(f)] == 1
        key = (len(f),) if alone else iso_invariant_key(recolored_flap(gr, f, sep, fresh, base))
        classes.setdefault(key, []).append(i)
    return list(classes.values())
