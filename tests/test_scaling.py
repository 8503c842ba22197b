"""Complexity gates on bytecode counts.

`opcodes` counts the bytecode instructions that a call executes, traced with
`sys.settrace` and `frame.f_trace_opcodes`.  The count is the same on every
run for fixed inputs, so a gate can double the input and bound the ratio of
the two counts, where wall-clock time on a shared machine is too noisy to
tell linear from quadratic.  A linear call gives a ratio near 2; each gate
allows 2.3, and the trace of the larger input stops as soon as its count
passes that allowance, so a regression fails fast.

Work done inside a C builtin counts as one opcode whatever the size of its
operands: string concatenation, set union, `sorted`, `in` on a list, `del`
on a list slice.  A gate therefore cannot see a cost hidden in such a call;
the formula inputs below keep those operands small, and the separator gate
sees the Python-level work around its `sorted` and set calls only.
"""

import random
import sys

import pytest

from fodef.cli import perturb_hop
from fodef.families import cycle, path, random_bounded_tree, random_hop
from fodef.formulas import (
    Adj, And, Eq, Exists, Forall, Not, Or, analyze, conjunction, evaluate,
    free_variables, parse_formula, print_formula,
)
from fodef.game import SIDE_G
from fodef.graphs import (
    ColoredGraph, are_isomorphic, find_isomorphism, flaps_of, flaps_within,
    iso_invariant_key, recolored_flap,
)
from fodef.separators import (
    EDHOP2, HOP, OClassification, class_o_separator, tree_centroid_separator,
)
from fodef.strategies import _Bisection

RATIO = 2.3
# four doublings at once, 16 times the input, with 15 % over linear: a gate
# of one doubling cannot tell n log n from n, whose ratios differ by ~1.1
SIXTEENFOLD = 16 * 1.15


class _OverLimit(Exception):
    pass


def opcodes(call, limit=None) -> int:
    """Bytecode instructions that call() executes, or limit + 1 once the
    count passes limit."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
            if limit is not None and count > limit:
                raise _OverLimit
        return local

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        call()
    except _OverLimit:
        pass
    finally:
        sys.settrace(previous)
    return count


def formula(n: int):
    """An n-part conjunction under one quantifier, over three variables, so
    the sets the walks build stay small."""
    return Exists("x", conjunction([Adj("x", "y") if i % 2 else Not(Eq("x", "z"))
                                    for i in range(n)]))


@pytest.mark.parametrize("walk", [analyze, free_variables],
                         ids=["analyze", "free_variables"])
def test_formula_walks_are_linear(walk):
    small, large = formula(1000), formula(2000)
    base = opcodes(lambda: walk(small))
    allowance = int(RATIO * base)
    assert opcodes(lambda: walk(large), limit=allowance) <= allowance


def test_formula_equality_and_hash_do_not_walk():
    # equal formulas are one object, so == and hash cost the same at any size
    counts = []
    for n in (1000, 2000):
        f = formula(n)
        g = parse_formula(print_formula(f))
        counts.append((opcodes(lambda: hash(f)), opcodes(lambda: f == g)))
    (hash_small, eq_small), (hash_large, eq_large) = counts
    assert hash_large <= hash_small and eq_large <= eq_small


def test_evaluate_reads_literals_first():
    # the literal ~eq(x,x) settles the conjunction for the first x, so the
    # quantified part before it, which reads n atoms when read first, is
    # never read
    f = Forall("x", And(Exists("y", Forall("z", Or(Adj("y", "z"), Not(Adj("y", "z"))))),
                        Not(Eq("x", "x"))))
    free_variables(f)  # kept on the node, so neither count walks it
    small, large = cycle(64), cycle(1024)
    base = opcodes(lambda: evaluate(f, small))
    allowance = int(1.15 * base)
    assert opcodes(lambda: evaluate(f, large), limit=allowance) <= allowance


def hop_case(n: int, seed: int, edhop2: bool):
    """random_hop(n, seed) with its cycle-order certificate, or its EDHOP2
    variant less the cycle edges (0, n-1) and (n/2, n/2+1)."""
    g = random_hop(n, seed)
    if not edhop2:
        return g, OClassification(HOP, tuple(range(n)))
    missing = ((0, n - 1), (n // 2, n // 2 + 1))
    g = ColoredGraph.build(n, [e for e in g.edges() if e not in missing])
    return g, OClassification(EDHOP2, tuple(range(n)), missing)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("edhop2", [False, True], ids=["HOP", "EDHOP2"])
def test_class_o_separator_is_linear(edhop2, seed):
    (small, small_cls), (large, large_cls) = (hop_case(n, seed, edhop2)
                                              for n in (512, 1024))
    base = opcodes(lambda: class_o_separator(small, small_cls))
    allowance = int(RATIO * base)
    assert opcodes(lambda: class_o_separator(large, large_cls),
                   limit=allowance) <= allowance


def tree_sample(n: int):
    return lambda: random_bounded_tree(n, 3, 1)


def hop_perturbation(n: int):
    g = random_hop(n, 1)
    return lambda: perturb_hop(g, random.Random(5))


@pytest.mark.parametrize("call_at", [tree_sample, hop_perturbation],
                         ids=["random_bounded_tree", "perturb_hop"])
def test_random_graphs_are_linear(call_at):
    small, large = call_at(512), call_at(1024)
    base = opcodes(small)
    allowance = int(RATIO * base)
    assert opcodes(large, limit=allowance) <= allowance


def recolored_cycle(n: int) -> ColoredGraph:
    """The n-cycle with vertex 0 colored: its reflection is the one
    automorphism, and refinement splits the rest two vertices at a time."""
    return ColoredGraph.build(n, [(i, (i + 1) % n) for i in range(n)],
                              [[1]] + [[]] * (n - 1))


def key_of_recolored_cycle(n: int):
    g = recolored_cycle(n)
    return lambda: iso_invariant_key(g)


def isomorphism_of_recolored_cycle(n: int):
    g = recolored_cycle(n)
    perm = list(range(n))
    random.Random(7).shuffle(perm)
    h = ColoredGraph.build(n, [(perm[u], perm[v]) for u, v in g.edges()],
                           [g.colors[perm.index(v)] for v in range(n)])
    return lambda: find_isomorphism(g, h)


def key_of_hop_flap(n: int):
    # random_hop(n + 1, 1) is 2-connected, so deleting vertex 0 leaves one
    # flap of order n, its neighbors of 0 recolored
    g = random_hop(n + 1, 1)
    (flap,) = flaps_of(g, (0,))
    sub = recolored_flap(g, flap, (0,), (1,))
    return lambda: iso_invariant_key(sub)


@pytest.mark.parametrize("call_at", [key_of_recolored_cycle,
                                     isomorphism_of_recolored_cycle, key_of_hop_flap],
                         ids=["key_cycle", "find_isomorphism_cycle", "key_hop_flap"])
def test_isomorphism_is_quasi_linear(call_at):
    small, large = call_at(128), call_at(256)
    base = opcodes(small)
    allowance = int(RATIO * base)
    assert opcodes(large, limit=allowance) <= allowance


def centroid_of_tree(n: int):
    g = random_bounded_tree(n, 3, 1)
    return lambda: tree_centroid_separator(g)


def centroid_of_flap(n: int):
    # the largest flap of the whole tree's centroid, searched in place
    g = random_bounded_tree(n, 3, 1)
    dom = frozenset(max(tree_centroid_separator(g).flaps, key=len))
    return lambda: tree_centroid_separator(g, within=dom)


def components_of_path(n: int):
    g = path(n)
    dom = frozenset(range(n)) - {n // 3, 2 * n // 3}
    return lambda: g.components(within=dom)


def isomorphism_of_trees(n: int):
    # a relabelled copy shares the degree sequence, so both trees are coded
    g = random_bounded_tree(n, 3, 1)
    perm = list(range(n))
    random.Random(7).shuffle(perm)
    h = ColoredGraph.build(n, [(perm[u], perm[v]) for u, v in g.edges()])
    return lambda: are_isomorphic(g, h)


@pytest.mark.parametrize("call_at", [centroid_of_tree, centroid_of_flap,
                                     components_of_path, isomorphism_of_trees],
                         ids=["tree_centroid", "tree_centroid_within", "components_within",
                              "are_isomorphic_trees"])
def test_tree_primitives_are_linear(call_at):
    small, large = call_at(512), call_at(1024)
    base = opcodes(small)
    allowance = int(RATIO * base)
    assert opcodes(large, limit=allowance) <= allowance


def test_warm_isomorphism_reads_kept_facts():
    # once both trees are coded, a call compares their kept degree
    # sequences and codes, one C-level comparison each at any size
    small, large = isomorphism_of_trees(256), isomorphism_of_trees(4096)
    assert small() and large()
    allowance = int(1.15 * opcodes(small))
    assert opcodes(large, limit=allowance) <= allowance


def bisection_on_path(n: int):
    """One whole bisection between the ends of path(n), its partners in two
    copies of the path, each reply the move's twin in the first copy, so
    that the last anchor stays and the gap halves to 1."""
    g = path(n)
    h = ColoredGraph.build(2 * n, list(g.edges()) + [(u + n, v + n) for u, v in g.edges()])

    def play():
        b = _Bisection(g, h, SIDE_G, frozenset(range(n)), ((0, 0), (n - 1, 2 * n - 1)),
                       frozenset(), frozenset())
        while abs(b.anchors[0][0] - b.anchors[1][0]) > 1:
            _, w = b.next_move()
            b.observe((w, w))
    return play


def test_bisection_is_linear():
    # the moves search intervals of n, n/2, n/4, ... vertices
    base = opcodes(bisection_on_path(256))
    allowance = int(SIXTEENFOLD * base)
    assert opcodes(bisection_on_path(4096), limit=allowance) <= allowance


def split_of_path(n: int):
    # the flaps of path(n) less vertex 1: {0}, then the rest by a difference
    g = path(n)
    dom = frozenset(range(n))
    return lambda: flaps_within(g, dom, (1,))


def test_split_costs_its_small_flaps():
    assert opcodes(split_of_path(4096)) <= opcodes(split_of_path(256))
