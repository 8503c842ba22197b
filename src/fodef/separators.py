"""Constructive separators and a constructive membership test for the near-
Hamiltonian-outerplanar class.

The class O consists of HOP graphs (2-connected outerplanar, equivalently a
spanning cycle plus pairwise non-crossing chords), graphs one edge-addition
away from HOP (EDHOP1) and connected graphs two additions away (EDHOP2).
Single vertices and single edges count as degenerate HOP graphs so that the
class is closed under the flap recursion all the way down.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

from fodef.graphs import BudgetExceeded, ColoredGraph, GraphError, flaps_of

BRUTE_N_CAP = 24                 # largest order brute_min_separator takes
EPSILON = Fraction(2, 3)         # class-O contract: flaps of at most EPSILON * n,
MAX_SEPARATOR = 5                # separators of at most MAX_SEPARATOR vertices
MAX_FLAPS = 7                    # that leave at most MAX_FLAPS flaps

HOP = "HOP"
EDHOP1 = "EDHOP1"
EDHOP2 = "EDHOP2"
NOT_IN_O = "NOT_IN_O"


class SeparatorError(ValueError):
    """Precondition violated or no separator within the contract."""


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class OClassification:
    """Membership certificate: a completion cycle plus the edges it adds.

    witness_cycle orders all vertices so that consecutive pairs (cyclically)
    are edges of the graph or listed in missing_edges; chords are pairwise
    non-crossing in that order.  classify_o's tags are minimal; the
    separator's flap annotations may list more additions than needed.
    """
    tag: str
    witness_cycle: Optional[tuple[int, ...]]
    missing_edges: tuple[tuple[int, int], ...] = ()

    def in_class(self) -> bool:
        return self.tag != NOT_IN_O

    def certifies(self, g: ColoredGraph, within: Optional[Iterable[int]] = None
                  ) -> bool:
        """Validate the certificate against g, or, in g's ids, against the
        subgraph g induces on `within`: O(|within| + the edges at its
        vertices), with no copy (soundness of membership)."""
        if self.tag == NOT_IN_O:
            return True
        if len(self.missing_edges) != {HOP: 0, EDHOP1: 1, EDHOP2: 2}[self.tag]:
            return False
        cyc = self.witness_cycle
        if cyc is None or sorted(cyc) != sorted(range(g.n) if within is None else within):
            return False
        n = len(cyc)
        missing = {_norm(*e) for e in self.missing_edges}
        if any(g.has_edge(u, v) for u, v in missing):
            return False
        gaps: list[int] = []
        if n >= 2:
            steps = [(cyc[i], cyc[(i + 1) % n]) for i in range(n)]
            gaps = [i for i, (u, v) in enumerate(steps) if not g.has_edge(u, v)]
            if {_norm(*steps[i]) for i in gaps} != missing:
                return False
        chords = _chords(g, {v: i for i, v in enumerate(cyc)})
        # the steps that are edges join the cycle into one path, or into the
        # two arcs between two gaps, which a chord must then join
        i, j = gaps if len(gaps) == 2 else (0, n)
        return chords_non_crossing(chords) and (
            j == n or any((i < p <= j) != (i < q <= j) for p, q in chords))


def _chords(g: ColoredGraph, pos: dict[int, int]) -> list[tuple[int, int]]:
    """The edges of g among the vertices that `pos` numbers along a cycle
    that do not join neighbors on it, as normalized pairs of cycle
    positions, in `g.edges()` order."""
    n = len(pos)
    return [_norm(pos[u], pos[v]) for u in sorted(pos) for v in g.adj[u]
            if u < v and v in pos and abs(pos[u] - pos[v]) not in (1, n - 1)]


def chords_cross(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Do two chords of a cycle cross?  Each is a pair (p, q) with p < q."""
    (p, q), (r, s) = a, b
    return p < r < q < s or r < p < s < q


def chords_non_crossing(chords: Sequence[tuple[int, int]]) -> bool:
    """True iff no two of the chords (p, q), p < q, cross.  One pass along
    the cycle: the chords open at a position are nested, so a new chord is
    checked against the innermost only; a shared endpoint is no crossing."""
    open_ends: list[int] = []
    for p, q in sorted(chords, key=lambda c: (c[0], -c[1])):
        while open_ends and open_ends[-1] <= p:
            open_ends.pop()
        if open_ends and open_ends[-1] < q:
            return False
        open_ends.append(q)
    return True


def inner_faces(n: int, chords: Sequence[tuple[int, int]]) -> list[list[int]]:
    """The inner faces of the polygon on cycle positions 0..n-1 cut by the
    pairwise non-crossing chords (p, q), p < q (no cycle edges among them),
    each as its positions in increasing order.  Two positions are crossed by
    no chord exactly when they lie on a common face.

    One stack pass along the cycle: at v, each chord (a, v), the largest a
    first, pops the positions above a off the stack and closes the face
    a..v; the stack left at the end is the face holding the edge (0, n-1)."""
    ends: list[list[int]] = [[] for _ in range(n)]
    for p, q in sorted(chords, reverse=True):
        ends[q].append(p)
    faces: list[list[int]] = []
    stack: list[int] = []
    at = [0] * n
    for v in range(n):
        for a in ends[v]:
            faces.append(stack[at[a]:] + [v])
            del stack[at[a] + 1:]
        at[v] = len(stack)
        stack.append(v)
    faces.append(stack)
    return faces


@dataclass(frozen=True)
class SeparatorReport:
    ok: bool
    flap_count: int
    oversize_flaps: tuple[int, ...]
    too_many_flaps: bool

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class SeparatorResult:
    x: tuple[int, ...]
    epsilon: Fraction
    flaps: tuple[tuple[int, ...], ...]
    tags: Optional[tuple[OClassification, ...]] = None  # in flap-local ids

    def to_json_dict(self) -> dict:
        out = {"X": list(self.x), "flaps": [list(f) for f in self.flaps]}
        if self.tags is not None:
            out["tags"] = [t.tag for t in self.tags]
        return out


def _fits(flap: Sequence[int], n: int, epsilon: Fraction) -> bool:
    """Does the flap have at most epsilon * n vertices?"""
    return len(flap) * epsilon.denominator <= epsilon.numerator * n


def _separators(g: ColoredGraph, epsilon: Fraction, size_cap: int
                ) -> Iterator[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]]:
    """(X, flaps) for every set X of at most size_cap vertices whose flaps
    all have at most epsilon * n vertices, by size and then in lexicographic
    order."""
    for k in range(min(size_cap, g.n) + 1):
        for xs in combinations(range(g.n), k):
            flaps = flaps_of(g, xs)
            if all(_fits(f, g.n, epsilon) for f in flaps):
                yield xs, flaps


def verify_separator(g: ColoredGraph, x: Sequence[int], epsilon: Fraction,
                     m_cap: int) -> SeparatorReport:
    """Check every flap has at most epsilon*n vertices and there are at most
    m_cap flaps; reports the violators."""
    eps = Fraction(epsilon)
    flaps = flaps_of(g, x)
    oversize = tuple(i for i, f in enumerate(flaps) if not _fits(f, g.n, eps))
    too_many = len(flaps) > m_cap
    return SeparatorReport(not oversize and not too_many, len(flaps),
                           oversize, too_many)


# -- trees ---------------------------------------------------------------------


def tree_centroid_separator(g: ColoredGraph, within: Optional[frozenset[int]] = None
                            ) -> SeparatorResult:
    """Single-vertex separator of the subtree that g induces on `within` (all
    of g when None), in g's own ids: a centroid, whose flaps have at most
    half of the domain's vertices each, least vertex id first among the
    vertices whose largest flap is smallest.

    One depth-first search from the least vertex of the domain gives the
    subtree sizes and proves that the domain is a tree: it reaches every
    vertex and sees exactly 2(|domain| - 1) adjacency entries inside the
    domain.  The centroid is the deepest vertex whose subtree holds more
    than half of the domain, or its child whose subtree holds exactly half,
    if that child's id is less.  The search visits vertices in preorder, so
    every flap is a slice of the visit order.
    """
    dom = range(g.n) if within is None else within
    if not dom:
        raise SeparatorError("input is not a tree")
    root, top = min(dom), max(dom)
    if root < 0 or top >= g.n:
        raise GraphError(f"vertex {root if root < 0 else top} out of range")
    m, adj = len(dom), g.adj
    parent = {root: root}
    order: list[int] = []
    stack = [root]
    entries = 0
    while stack:
        v = stack.pop()
        order.append(v)
        for u in adj[v]:
            if u in dom:
                entries += 1
                if u not in parent:
                    parent[u] = v
                    stack.append(u)
    if len(order) != m or entries != 2 * (m - 1):
        raise SeparatorError("input is not a tree")
    size = dict.fromkeys(order, 1)
    for v in order[:0:-1]:  # children before parents, the root left out
        size[parent[v]] += size[v]
    x = root
    while True:
        heavy = next((u for u in adj[x] if parent.get(u) == x and 2 * size[u] >= m), None)
        if heavy is None or 2 * size[heavy] == m:
            break
        x = heavy
    if heavy is not None:  # two centroids, each with a flap of exactly half
        x = min(x, heavy)
    i = order.index(x)
    end = i + size[x]
    flaps = [order[:i] + order[end:]] if i else []
    j = i + 1
    while j < end:  # the subtree of each child of x
        flaps.append(order[j:j + size[order[j]]])
        j += size[order[j]]
    return SeparatorResult((x,), EPSILON, tuple(sorted(tuple(sorted(f)) for f in flaps)))


# -- HOP recognition -----------------------------------------------------------


def _hop_cycle(g: ColoredGraph) -> Optional[tuple[int, ...]]:
    """The spanning cycle of a 2-connected outerplanar graph, or None.

    Peels degree-2 vertices (every one of them is an ear of the unique
    spanning cycle), then reinserts them; the final candidate is validated
    outright, so a non-None answer is always a true certificate.
    """
    n = g.n
    if n == 1:
        return (0,)
    if n == 2:
        return (0, 1) if g.has_edge(0, 1) else None
    if not g.is_connected() or g.edge_count() > 2 * n - 3:
        return None
    if any(len(a) < 2 for a in g.adj):
        return None
    adj = [set(a) for a in g.adj]
    alive = set(range(n))
    stack = []
    queue = [v for v in range(n) if len(adj[v]) == 2]
    while len(alive) > 3:
        v = None
        while queue:
            c = queue.pop()
            if c in alive and len(adj[c]) == 2:
                v = c
                break
        if v is None:
            return None
        a, b = sorted(adj[v])
        adj[a].discard(v)
        adj[b].discard(v)
        alive.discard(v)
        stack.append((v, a, b))
        if b not in adj[a]:
            adj[a].add(b)
            adj[b].add(a)
        if len(adj[a]) < 2 or len(adj[b]) < 2:
            return None
        for w in (a, b):
            if len(adj[w]) == 2:
                queue.append(w)
    x, y, z = sorted(alive)
    if not (y in adj[x] and z in adj[x] and z in adj[y]):
        return None
    succ = {x: y, y: z, z: x}
    for v, a, b in reversed(stack):
        if succ.get(a) == b:
            succ[a], succ[v] = v, b
        elif succ.get(b) == a:
            succ[b], succ[v] = v, a
        else:
            return None
    order = [0]
    cur = succ[0]
    while cur != 0 and len(order) <= n:
        order.append(cur)
        cur = succ[cur]
    if len(order) != n:
        return None
    cand = OClassification(HOP, tuple(order))
    return tuple(order) if cand.certifies(g) else None


def _cut_vertices(g: ColoredGraph) -> set[int]:
    """The cut vertices of a connected g: Hopcroft-Tarjan low points over a
    depth-first search from vertex 0 that runs on an explicit stack."""
    disc: dict[int, int] = {}
    parent: dict[int, int] = {}
    stack = [(0, -1)]
    while stack:
        v, p = stack.pop()
        if v not in disc:
            disc[v], parent[v] = len(disc), p
            stack.extend((u, v) for u in g.adj[v] if u not in disc)
    low = dict(disc)
    cuts = set()
    for v in reversed(disc):  # children first; ancestors still hold disc
        low[v] = min([low[v]] + [low[u] for u in g.adj[v] if u != parent[v]])
        if v and low[v] >= disc[parent[v]]:
            cuts.add(parent[v])
    if sum(p == 0 for p in parent.values()) < 2:
        cuts.discard(0)
    return cuts


def _end_blocks(g: ColoredGraph) -> list[tuple[tuple[int, ...], int]]:
    """The leaf blocks of a connected g, sorted, each with its cut vertex:
    the components of g minus its cut vertices that touch exactly one."""
    cuts = _cut_vertices(g)
    ends = []
    for comp in g.components(frozenset(range(g.n)) - cuts):
        touched = {u for v in comp for u in g.adj[v] if u in cuts}
        if len(touched) == 1:
            ends.append((tuple(sorted(set(comp) | touched)), min(touched)))
    return ends


def _edhop1_completion(g: ColoredGraph) -> Optional[tuple[tuple[int, ...], tuple[int, int]]]:
    """(completion cycle, missing edge) of a 1-edge completion of g to HOP;
    the cycle is the lexicographically least spanning path the edge closes.

    If g + e is HOP and g has a cut vertex, the cycle holds e, so g's blocks
    form a chain and e joins, in each end block, a cycle neighbor of its
    cut vertex: at most four candidates, each certified by _hop_cycle.
    """
    n = g.n
    if n < 3 or not g.is_connected() or g.edge_count() > 2 * n - 4:
        return None
    ends = _end_blocks(g)
    if len(ends) != 2:
        return None
    sides = []
    for block, c in ends:
        cyc = _hop_cycle(g.induced(block)[0])
        if cyc is None:
            return None
        i = cyc.index(block.index(c))
        sides.append({block[cyc[i - 1]], block[cyc[(i + 1) % len(cyc)]]})
    found = []
    for e in {_norm(a, b) for a in sides[0] for b in sides[1]}:
        cyc = _hop_cycle(g.with_edges_added([e]))
        if cyc is not None:
            i = cyc.index(e[0])
            path = cyc[i:] + cyc[:i]
            found.append((path if path[-1] == e[1] else path[:1] + path[:0:-1], e))
    return min(found, default=None)


def classify_o(g: ColoredGraph) -> OClassification:
    """Constructive membership test for the class O, with a certificate of
    the least number of edge additions; EDHOP2 tries each non-edge.  It
    runs once per graph object, which keeps the certificate."""
    return g._o_class


def _classify_o(g: ColoredGraph) -> OClassification:
    if g.n == 0:
        raise GraphError("empty graph")
    if not g.is_connected():
        return OClassification(NOT_IN_O, None)
    cyc = _hop_cycle(g)
    if cyc is not None:
        return OClassification(HOP, cyc)
    one = _edhop1_completion(g)
    if one is not None:
        return OClassification(EDHOP1, one[0], (one[1],))
    # one added edge removes at most two end blocks; EDHOP1 graphs have two
    if g.edge_count() <= 2 * g.n - 5 and len(_end_blocks(g)) <= 4:
        non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                     if not g.has_edge(u, v)]
        for d in non_edges:
            two = _edhop1_completion(g.with_edges_added([d]))
            if two is not None:
                cyc2, c = two
                pairs = tuple(sorted((c, d)))
                return OClassification(EDHOP2, cyc2, pairs)
    return OClassification(NOT_IN_O, None)


# -- the constructive class-O separator ----------------------------------------


def _runs_of(flap: Sequence[int], pos: dict[int, int], n: int) -> list[list[int]]:
    """Maximal blocks of cycle-consecutive vertices of the flap, each listed in
    cycle order, blocks ordered cyclically."""
    ps = sorted(pos[v] for v in flap)
    runs: list[list[int]] = []
    cur = [ps[0]]
    for p in ps[1:]:
        if p == cur[-1] + 1:
            cur.append(p)
        else:
            runs.append(cur)
            cur = [p]
    runs.append(cur)
    if len(runs) > 1 and runs[0][0] == 0 and runs[-1][-1] == n - 1:
        runs[0] = runs.pop() + runs[0]
    return runs


def _run_certificate(g: ColoredGraph, flap: Sequence[int], cycle: Sequence[int],
                     pos: dict[int, int],
                     missing: set[tuple[int, int]]) -> Optional[OClassification]:
    """Try to certify membership of the flap by traversing its cycle blocks in
    order; None when more than two edge additions would be needed.  The
    certificate is in g's ids and is checked in place."""
    n = len(cycle)
    runs = _runs_of(flap, pos, n)
    order: list[int] = []
    additions: set[tuple[int, int]] = set()
    for run in runs:
        verts = [cycle[p % n] for p in run]
        for a, b in zip(verts, verts[1:]):
            if not g.has_edge(a, b):
                pair = _norm(a, b)
                if pair not in missing:
                    return None
                additions.add(pair)
        order.extend(verts)
    if len(order) >= 3:
        junctions = [(runs[i][-1], runs[(i + 1) % len(runs)][0])
                     for i in range(len(runs))]
        if len(runs) == 1:
            junctions = [(runs[0][-1], runs[0][0])]
        for pe, ps_ in junctions:
            a, b = cycle[pe % n], cycle[ps_ % n]
            if not g.has_edge(a, b):
                additions.add(_norm(a, b))
    if len(additions) > 2:
        return None
    cert = OClassification((HOP, EDHOP1, EDHOP2)[len(additions)], tuple(order),
                           tuple(sorted(additions)))
    return cert if cert.certifies(g, within=flap) else None


def _find_split_pair(n: int, chords: list[tuple[int, int]]) -> tuple[int, int]:
    """Positions (i,j) on the cycle such that both open arcs have at most 2n/3
    vertices and no chord joins the two arcs, normalized; n >= 4, and the
    chords (p, q), p < q, do not cross.

    A balanced chord comes first, the one with the smallest larger arc, and
    of two with the same, the one listed first (_split_o lists chords in
    `g.edges()` order, so the tie follows the adjacency sets of g).
    Otherwise the pair lies on a common inner face: the one with the largest
    gap (j - i) mod n <= n/2, then the least start i.  Such a pair exists:
    an unbalanced chord cuts off fewer than L = max(2, (n-3)/3) steps, and
    short sides nest or are disjoint, so on the face on the long side of
    every chord consecutive vertices are fewer than L apart.  From each, the
    first one at least L ahead is fewer than 2L <= n - L ahead (n >= 6; the
    tests check every chord set at n = 4 and 5)."""
    def balanced(gap: int) -> bool:
        return 3 * (gap - 1) <= 2 * n and 3 * (n - gap - 1) <= 2 * n

    balanced_chord = None
    for p, q in chords:
        if balanced(q - p):
            score = max(q - p, n - (q - p)) - 1
            if balanced_chord is None or score < balanced_chord[0]:
                balanced_chord = (score, (p, q))
    if balanced_chord is not None:
        return balanced_chord[1]

    # from each face vertex i, the farthest face vertex at most n/2 ahead
    pairs = []
    for face in inner_faces(n, chords):
        twice = face + [p + n for p in face]
        for i in face:
            gap = twice[bisect_right(twice, i + n // 2) - 1] - i
            if gap >= 2 and balanced(gap):
                pairs.append((gap, -i))
    gap, i = max(pairs)
    return _norm(-i, (gap - i) % n)


def _exhaustive_o_separator(g: ColoredGraph) -> SeparatorResult:
    """The first separator of the subset search with at most MAX_FLAPS flaps,
    each in the class; class_o_separator calls it for n <= 6 only."""
    for xs, flaps in _separators(g, EPSILON, MAX_SEPARATOR):
        if len(flaps) > MAX_FLAPS:
            continue
        tags = []
        for f in flaps:
            cls = classify_o(g.induced(f)[0])
            if not cls.in_class():
                break
            tags.append(cls)
        else:
            return SeparatorResult(xs, EPSILON, flaps, tuple(tags))
    raise SeparatorError(f"no separator of at most {MAX_SEPARATOR} vertices "
                         "with flaps in the class exists")


def class_o_separator(g: ColoredGraph,
                      classification: Optional[OClassification] = None
                      ) -> SeparatorResult:
    """Separator of size at most 5 with at most 7 flaps, each flap of at most
    2n/3 vertices and again in the class O (annotated with certificates in
    flap-local ids: vertex j of a flap is its j-th least vertex).

    The split of all of g under classify_o's certificate or
    `classification` (see _split_o).  What is checked of the certificate is
    that its cycle is an order of g's vertices (else SeparatorError at once)
    and that each flap's certificate certifies its flap (else the one
    contract error, naming the instance); one that does not certify g may
    still give a valid split.
    """
    n = g.n
    if n < 2:
        raise SeparatorError("separator construction requires n >= 2")
    cls = classification if classification is not None else classify_o(g)
    if not cls.in_class():
        raise SeparatorError("input graph is not in the supported class")
    x, flaps, tags = _split_o(g, frozenset(range(n)), cls)
    return SeparatorResult(x, EPSILON, flaps, tuple(
        _relabel(t, {v: i for i, v in enumerate(f)}) for t, f in zip(tags, flaps)))


def _split_o(g: ColoredGraph, dom: frozenset[int], cls: OClassification) -> tuple:
    """(separator, flaps, flap certificates) of the region `dom` of g, of at
    least two vertices, under its certificate `cls`, all in g's ids.  n <= 6
    takes the first set of the subset search on an induced copy, mapped
    back; a larger region one construction on the certificate's cycle, with
    no fallback: the split pair (both arcs at most 2n/3, at most four
    flaps), each flap certified in place by its cycle blocks, and one
    _extend_split if a flap needs three additions."""
    n = len(dom)
    if n <= 6:
        sub, idx = g.induced(dom)
        back = sorted(idx)
        res = _exhaustive_o_separator(sub)
        flaps = tuple(tuple(back[i] for i in f) for f in res.flaps)
        return (tuple(back[i] for i in res.x), flaps,
                tuple(_relabel(t, f) for t, f in zip(res.tags, flaps)))
    cycle = cls.witness_cycle
    if sorted(cycle or ()) != sorted(dom):
        raise SeparatorError("the certificate's cycle is not an order of the "
                             f"{n} vertices")
    missing = {_norm(*e) for e in cls.missing_edges}
    pos = {v: i for i, v in enumerate(cycle)}
    i, j = _find_split_pair(n, _chords(g, pos))
    x = sorted((cycle[i], cycle[j]))
    flaps = g.components(dom.difference(x))
    tags = [_run_certificate(g, f, cycle, pos, missing) for f in flaps]
    if None in tags:
        x = _extend_split(g, dom, flaps[tags.index(None)], cycle, pos, missing, x)
        flaps = g.components(dom.difference(x))
        tags = [_run_certificate(g, f, cycle, pos, missing) for f in flaps]
    if len(x) > MAX_SEPARATOR or len(flaps) > MAX_FLAPS or None in tags \
            or not all(_fits(f, n, EPSILON) for f in flaps):
        raise _construction_error(g, dom)
    return tuple(x), tuple(flaps), tuple(tags)


def _relabel(cls: OClassification, ids) -> OClassification:
    """The certificate with each vertex v renamed ids[v]; ids keeps the order
    of the ids, so the missing edges stay normalized and sorted."""
    return OClassification(cls.tag, tuple(ids[v] for v in cls.witness_cycle),
                           tuple((ids[a], ids[b]) for a, b in cls.missing_edges))


def _instance_id(g: ColoredGraph) -> str:
    """Short sha256 prefix of the graph's JSON, to name it in errors."""
    import hashlib  # only on failure: its OpenSSL backend adds 3.5 MB resident
    return hashlib.sha256(g.to_json().encode()).hexdigest()[:12]


def _construction_error(g: ColoredGraph, dom: frozenset[int]) -> SeparatorError:
    """The contract error, naming the subgraph that g induces on `dom`."""
    sub = g if len(dom) == g.n else g.induced(dom)[0]
    return SeparatorError(f"constructive separator failed on n={sub.n}; "
                          f"instance {_instance_id(sub)}")


def _extend_split(g: ColoredGraph, dom: frozenset[int], flap: Sequence[int],
                  cycle: Sequence[int], pos: dict[int, int],
                  missing: set[tuple[int, int]], x: list[int]) -> list[int]:
    """Grow the split pair when one flap needs three edge additions: add the
    two facing endpoints of the innermost connecting edge, and a third when
    the outer segments are also joined.

    Along an arc the flap changes only across a missing edge, so a flap is
    one run of the cycle, or two runs bounded by both missing edges that
    need only their junctions.  The flap needing three is thus one run, cut
    by both missing edges into P, Q, R, and Q is joined to P or R by a chord
    as the flap is connected.  Turned so that Q and R are joined, chords
    that do not cross make e2 (first in Q with a neighbour in R) and e1
    (last in R with one in Q) adjacent, pass over none of e1, e2 and f (last
    in P with a neighbour in R), and keep P-Q chords at or before e2 and
    P-R chords at or after e1.  Removing e2, or e1, e2 and f when P and R
    are joined, leaves at most 4 or 6 flaps in the run, each one run with
    at most one missing edge or two runs with none: all certified.

    The two checks below hold for every certificate of the region `dom`;
    they raise the construction's one error where a broken one would raise
    IndexError or StopIteration.
    """
    n = len(cycle)
    seq = [cycle[p] for p in _runs_of(flap, pos, n)[0]]
    cuts = [i + 1 for i in range(len(seq) - 1)
            if _norm(seq[i], seq[i + 1]) in missing]
    if len(cuts) != 2:
        raise _construction_error(g, dom)
    p_seg, q_seg, r_seg = seq[:cuts[0]], seq[cuts[0]:cuts[1]], seq[cuts[1]:]

    def connected(a: list[int], b: list[int]) -> bool:
        bs = set(b)
        return any(w in bs for v in a for w in g.adj[v])

    if not connected(r_seg, q_seg):
        if not connected(p_seg, q_seg):
            raise _construction_error(g, dom)
        p_seg, q_seg, r_seg = r_seg[::-1], q_seg[::-1], p_seg[::-1]

    q_set, r_set = set(q_seg), set(r_seg)
    e2 = next(v for v in q_seg if any(w in r_set for w in g.adj[v]))
    if connected(p_seg, r_seg):
        e1 = next(v for v in reversed(r_seg) if any(w in q_set for w in g.adj[v]))
        f = next(v for v in reversed(p_seg) if any(w in r_set for w in g.adj[v]))
        return sorted(set(x) | {e1, e2, f})
    return sorted(set(x) | {e2})


# -- brute-force minimum separator ----------------------------------------------


def brute_min_separator(g: ColoredGraph, epsilon: Fraction,
                        size_cap: int) -> SeparatorResult:
    """Minimum-cardinality vertex set whose flaps all have at most epsilon*n
    vertices; ties go to the lexicographically least set.  SeparatorError
    when no set of at most size_cap vertices has them."""
    eps = Fraction(epsilon)
    if not (0 < eps < 1):
        raise SeparatorError("epsilon must lie strictly between 0 and 1")
    if g.n > BRUTE_N_CAP:
        raise BudgetExceeded(f"brute_min_separator capped at n <= {BRUTE_N_CAP}")
    for xs, flaps in _separators(g, eps, size_cap):
        return SeparatorResult(xs, eps, flaps)
    raise SeparatorError(f"no set of at most {size_cap} vertices leaves flaps "
                         f"of at most {eps} * {g.n} vertices")
