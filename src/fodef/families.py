"""Named graph families, seeded random generators, and small-order enumeration."""

from __future__ import annotations

import functools
import heapq
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, Optional

from fodef.graphs import (
    ColoredGraph, GraphError, _canonical, _orbit_roots, group_by_isomorphism,
)
from fodef.separators import chords_cross

ENUM_CAP = 8


@dataclass(frozen=True)
class FamilySpec:
    family: str
    n: int = 0
    a: int = 0
    b: int = 0
    d: int = 3
    seed: Optional[int] = None


def path(n: int) -> ColoredGraph:
    if n < 1:
        raise GraphError("path(n) requires n >= 1")
    return ColoredGraph.build(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> ColoredGraph:
    if n < 3:
        raise GraphError("cycle(n) requires n >= 3")
    return ColoredGraph.build(n, [(i, (i + 1) % n) for i in range(n)])


def two_cycles(n: int) -> ColoredGraph:
    """Disjoint union of two n-cycles on 2n vertices."""
    if n < 3:
        raise GraphError("two_cycles(n) requires n >= 3")
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    return ColoredGraph.build(2 * n, edges)


def star(n: int) -> ColoredGraph:
    """K_{1,n-1}: vertex 0 is the center."""
    if n < 2:
        raise GraphError("star(n) requires n >= 2")
    return ColoredGraph.build(n, [(0, i) for i in range(1, n)])


def complete(n: int) -> ColoredGraph:
    if n < 1:
        raise GraphError("complete(n) requires n >= 1")
    return ColoredGraph.build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def triv(a: int, b: int) -> ColoredGraph:
    """a isolated edges plus b isolated vertices."""
    if a < 0 or b < 0 or a + b == 0:
        raise GraphError("triv(a,b) requires a,b >= 0 and a+b > 0")
    return ColoredGraph.build(2 * a + b, [(2 * i, 2 * i + 1) for i in range(a)])


def random_bounded_tree(n: int, d: int, seed: int) -> ColoredGraph:
    """Random tree with maximum degree at most d, seed-reproducible.

    Samples a degree-constrained sequence and decodes it, so every vertex
    ends with degree occurrences+1 <= d.
    """
    if n < 1:
        raise GraphError("tree size must be positive")
    if d < 2:
        raise GraphError("degree bound must be at least 2")
    if n == 1:
        return ColoredGraph.build(1, [])
    if n == 2:
        return ColoredGraph.build(2, [(0, 1)])
    rng = random.Random(seed)
    count = [0] * n
    eligible = list(range(n))  # sorted: the vertices with count < d - 1
    seq = []
    for _ in range(n - 2):
        v = rng.choice(eligible)
        count[v] += 1
        if count[v] == d - 1:
            del eligible[bisect_left(eligible, v)]
        seq.append(v)
    # standard sequence decode
    degree = [c + 1 for c in count]
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((u, w))
    return ColoredGraph.build(n, edges)


def _random_triangulation_chords(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Chords of a random triangulation of the polygon 0..n-1: each arc i..j
    (i < j) splits at a random k, arcs visited in pre-order, i..k first."""
    chords: list[tuple[int, int]] = []
    arcs = [(0, n - 1)] if n >= 4 else []
    while arcs:
        i, j = arcs.pop()
        if j - i < 2:
            continue
        k = rng.randint(i + 1, j - 1)
        if k - i >= 2:
            chords.append((i, k))
        if j - k >= 2:
            chords.append((k, j))
        arcs += [(k, j), (i, k)]
    return chords


def random_hop(n: int, seed: int) -> ColoredGraph:
    """Random Hamiltonian outerplanar graph on vertices 0..n-1 in cycle order.

    Triangulates the polygon at random, then deletes each chord with
    probability 1/2; the spanning cycle keeps the result 2-connected.
    """
    if n < 3:
        raise GraphError("random_hop requires n >= 3")
    rng = random.Random(seed)
    chords = _random_triangulation_chords(n, rng)
    kept = [c for c in chords if rng.random() < 0.5]
    # the outer (0, n-1) step closes the cycle
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)] + kept
    return ColoredGraph.build(n, edges)


def generate(spec: FamilySpec) -> ColoredGraph:
    fam = spec.family
    if fam == "path":
        return path(spec.n)
    if fam == "cycle":
        return cycle(spec.n)
    if fam == "two_cycles":
        return two_cycles(spec.n)
    if fam == "star":
        return star(spec.n)
    if fam == "complete":
        return complete(spec.n)
    if fam == "triv":
        return triv(spec.a, spec.b)
    if fam == "random_bounded_tree":
        if spec.seed is None:
            raise GraphError("random_bounded_tree requires a seed")
        return random_bounded_tree(spec.n, spec.d, spec.seed)
    if fam == "random_hop":
        if spec.seed is None:
            raise GraphError("random_hop requires a seed")
        return random_hop(spec.n, spec.seed)
    raise GraphError(f"unknown family {fam!r}")


# -- enumeration ---------------------------------------------------------------


def _least_masks(p: ColoredGraph) -> list[int]:
    """The least of each orbit of p's automorphisms on the vertex subsets of
    p, as bit masks, ascending.  A parent is searched once, when the level
    above it is built, so the search is not kept on the graph."""
    size = 1 << p.n
    images = [[sum(1 << a[j] for j in range(p.n) if m >> j & 1) for m in range(size)]
              for a in _canonical(p)[2]]
    roots = _orbit_roots(size, images)
    return [m for m in range(size) if roots[m] == m]


@functools.cache
def _enumerate_level(n: int) -> list[ColoredGraph]:
    """One graph per isomorphism class of order n: the first of its class
    among the order-(n-1) representatives extended by every neighborhood of
    a new vertex n-1, sorted by edge count and edge list.  Neighborhoods in
    one orbit of the parent's automorphisms give isomorphic graphs, so only
    the least of each orbit, which holds the first of its class, is tried."""
    if n == 1:
        return [ColoredGraph.build(1, [])]
    parents = _enumerate_level(n - 1)

    def candidate(i: int) -> ColoredGraph:
        p, mask = parents[i >> (n - 1)], i & ((1 << (n - 1)) - 1)
        extra = [(j, n - 1) for j in range(n - 1) if mask >> j & 1]
        return ColoredGraph.build(n, list(p.edges()) + extra)

    tried = [i << (n - 1) | m for i, p in enumerate(parents) for m in _least_masks(p)]
    classes = group_by_isomorphism(candidate(i) for i in tried)
    reps = [candidate(tried[members[0]]) for members in classes]
    reps.sort(key=lambda g: (g.edge_count(), sorted(g.edges())))
    return reps


def enumerate_graphs(n: int, connected_only: bool = False) -> Iterator[ColoredGraph]:
    """One representative per isomorphism class of order n (n <= 8)."""
    if not (1 <= n <= ENUM_CAP):
        raise GraphError(f"enumeration supports 1 <= n <= {ENUM_CAP}")
    for g in _enumerate_level(n):
        if connected_only and not g.is_connected():
            continue
        yield g


@functools.cache
def enumerate_hop_graphs(n: int) -> list[ColoredGraph]:
    """All Hamiltonian outerplanar graphs of order n, one per isomorphism class.

    Every such graph is the n-cycle plus a set of pairwise non-crossing
    chords; the graph of the first chord set of each isomorphism class is
    kept.
    """
    if n == 1:
        return [ColoredGraph.build(1, [])]
    if n == 2:
        return [ColoredGraph.build(2, [(0, 1)])]
    all_chords = [(i, j) for i in range(n) for j in range(i + 2, n)
                  if not (i == 0 and j == n - 1)]
    chord_sets: list[tuple[tuple[int, int], ...]] = []

    def extend(chosen: list, pool: list):
        chord_sets.append(tuple(chosen))
        for i, c in enumerate(pool):
            ok = all(not chords_cross(c, x) for x in chosen)
            if ok:
                chosen.append(c)
                extend(chosen, [d for d in pool[i + 1:] if d > c])
                chosen.pop()

    extend([], all_chords)

    cycle_edges = [(i, (i + 1) % n) for i in range(n)]
    graphs = [ColoredGraph.build(n, cycle_edges + list(cs)) for cs in chord_sets]
    return [graphs[members[0]] for members in group_by_isomorphism(graphs)]

