"""Output checks computed apart from the library.

Everything here reads graphs only through their ``n``, ``adj`` and ``colors``
fields and formulas only through their dataclass fields, so a fault in the
library's own isomorphism, game or formula code cannot hide itself.  All
traversals are iterative: the inputs reach thousands of vertices.
"""

from __future__ import annotations

from math import log2


def partial_iso(g, h, pairs) -> bool:
    """The pairing keeps equality, adjacency and colors in both directions."""
    for i, (u, v) in enumerate(pairs):
        if g.colors[u] != h.colors[v]:
            return False
        for a, b in pairs[:i]:
            if (u == a) != (v == b) or (a in g.adj[u]) != (b in h.adj[v]):
                return False
    return True


def check_transcript(g, h, moves) -> str | None:
    """Every proper prefix of the pebbles is a partial isomorphism and the
    full sequence is not; None when that holds, else the reason."""
    pairs = [(u, v) if side == "G" else (v, u) for _, side, u, v in moves]
    if not pairs:
        return "no moves"
    for k in range(1, len(pairs)):
        if not partial_iso(g, h, pairs[:k]):
            return f"prefix of {k} pebbles already broken"
    if partial_iso(g, h, pairs):
        return "final pebbles still a partial isomorphism"
    return None


# -- trees: AHU codes ------------------------------------------------------------


def _is_tree(g) -> bool:
    if g.n == 0 or sum(len(a) for a in g.adj) != 2 * (g.n - 1):
        return False
    seen = {0}
    stack = [0]
    while stack:
        for u in g.adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.n


def _centers(g) -> list[int]:
    deg = [len(a) for a in g.adj]
    layer = [v for v in range(g.n) if deg[v] <= 1]
    left = g.n
    while left > 2:
        nxt = []
        for v in layer:
            left -= 1
            for u in g.adj[v]:
                deg[u] -= 1
                if deg[u] == 1:
                    nxt.append(u)
        layer = nxt
    return layer


def _rooted_code(g, root: int, avoid: int, table: dict) -> int:
    """AHU code of the subtree at root (not entering avoid), interned."""
    order = []
    parent = {root: avoid}
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for u in g.adj[v]:
            if u != parent[v]:
                parent[u] = v
                stack.append(u)
    code: dict[int, int] = {}
    kids: dict[int, list[int]] = {v: [] for v in order}
    for v in reversed(order):
        key = (tuple(sorted(g.colors[v])), tuple(sorted(kids[v])))
        code[v] = table.setdefault(key, len(table))
        if v != root:
            kids[parent[v]].append(code[v])
    return code[root]


def tree_code(g, table: dict) -> tuple:
    """Canonical code of a colored tree (centre-rooted AHU)."""
    cs = _centers(g)
    if len(cs) == 1:
        return (_rooted_code(g, cs[0], -1, table),)
    a, b = cs
    return tuple(sorted((_rooted_code(g, a, b, table),
                         _rooted_code(g, b, a, table))))


def trees_differ(g, h) -> str | None:
    """None when g and h are trees of equal order with different codes."""
    if not (_is_tree(g) and _is_tree(h)) or g.n != h.n:
        return "opponent pair is not two trees of one order"
    table: dict = {}
    if tree_code(g, table) == tree_code(h, table):
        return "opponent tree is isomorphic to G"
    return None


# -- HOP graphs: dihedral images of the chord set -----------------------------


def _chords(g) -> list[tuple[int, int]] | None:
    """Chords of the spanning cycle 0..n-1, or None if the cycle is missing."""
    n = g.n
    if any((i + 1) % n not in g.adj[i] for i in range(n)):
        return None
    return [(u, v) for u in range(n) for v in g.adj[u]
            if u < v and v - u not in (1, n - 1)]


def hops_differ(g, h) -> str | None:
    """None when g and h, both on the cycle 0..n-1, are non-isomorphic.

    A 2-connected outerplanar graph has exactly one Hamiltonian cycle, so
    every isomorphism between them is one of the 2n dihedral maps of the
    cycle; the graphs differ iff no such map carries one chord set onto the
    other."""
    n = g.n
    cg, ch = _chords(g), _chords(h)
    if cg is None or ch is None or h.n != n:
        return "opponent pair does not share the spanning cycle 0..n-1"
    if len(cg) != len(ch):
        return None
    target = set(ch)
    for refl in (False, True):
        for rot in range(n):
            img = set()
            for a, b in cg:
                if refl:
                    a, b = (n - a) % n, (n - b) % n
                a, b = (a + rot) % n, (b + rot) % n
                img.add((min(a, b), max(a, b)))
            if img == target:
                return "opponent HOP graph is isomorphic to G"
    return None


# -- formulas ----------------------------------------------------------------------


def _children(f):
    kind = type(f).__name__
    if kind in ("Adj", "Eq", "Col"):
        return ()
    if kind in ("Not", "Exists", "Forall"):
        return (f.body,)
    return (f.left, f.right)


def formula_facts(f) -> dict:
    """Closedness, NNF, quantifier rank and alternation number of f, by one
    iterative walk.  The alternation number of an NNF formula is the most
    quantifier switches along any root-to-leaf path."""
    closed = nnf = True
    rank = alts = 0
    # (node, bound variables, quantifiers above, last quantifier, switches)
    stack = [(f, frozenset(), 0, "", 0)]
    while stack:
        node, bound, depth, last, sw = stack.pop()
        kind = type(node).__name__
        if kind in ("Adj", "Eq"):
            closed &= node.x in bound and node.y in bound
        elif kind == "Col":
            closed &= node.x in bound
        elif kind == "Not":
            nnf &= type(node.body).__name__ in ("Adj", "Eq", "Col")
        if kind in ("Exists", "Forall"):
            q = kind[0]
            sw += 1 if last and q != last else 0
            bound, depth, last = bound | {node.var}, depth + 1, q
        rank = max(rank, depth)
        alts = max(alts, sw)
        for c in _children(node):
            stack.append((c, bound, depth, last, sw))
    return {"closed": closed, "nnf": nnf, "rank": rank, "alternations": alts}


def path_cycle_ok(kind: str, n: int, value) -> bool:
    """Criterion-02 bounds for P_n vs P_m and C_n vs C_m (n < m)."""
    if value is None:
        return False
    if kind == "path":
        return log2(n - 1) - 2 < value < log2(n) + 3
    return value > log2(n)
