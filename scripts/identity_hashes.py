#!/usr/bin/env python3
"""Print the behaviour hashes that a refactor must leave unchanged.

Run it from the root of a checkout, at the parent commit and at the change,
and compare the output line by line:

    python3 scripts/identity_hashes.py

It imports fodef from the checkout's src/ and needs nothing else.  Each line
is a name and a sha256 hex digest:

- criterion09: the criterion-09 corpus, that is, the 630 pairs of order <= 5
  and then every 7th pair with an order-6 graph (1,879 pairs).  Each pair
  gets a fresh s_agent for survival_vs and another for reply_tree, r_max is
  the lemma-3.6 bound + 1, and the hash runs over
  repr((SurvivalReport, depth, branches, printed formula)).
  criterion09.enumeration_order hashes the same pairs in enumeration order,
  with the order-6 pairs interleaved.
- formulas: for the formula synthesized on each criterion-09 pair, in
  enumeration order, whether parse_formula(print_formula(f)) == f, the truth
  of f on G and on H, and analyze(f, nest_cap=0).
- formulas.nest: analyze(f) at the default nest_cap for the same formulas,
  with the nest set sorted (a frozenset's order varies between processes).
- oracle.k=None, oracle.k=1: (value, best_first_move) of every exact_rank
  query of the benchmark's oracle workload (the named pairs, then every graph
  of order 3 and 4 against every graph of order <= 6; 3,136 queries).
- oracle_formulas.k=None, oracle_formulas.k=1: the printed formula that
  OracleSpoiler synthesizes for every query with a value.
- csv.trees, csv.hop: the CSVs of the README's two `fodef verify` commands.
- classify: (tag, witness_cycle, missing_edges) of classify_o on every graph
  of order <= 7 (1,252 graphs), in enumeration order.
- class_o: x, flaps and each flap's (tag, witness_cycle, missing_edges) of
  class_o_separator on every graph of order 7, 8 and 9 that is an
  enumerate_hop_graphs graph less 0, 1 or 2 of its edges and stays connected
  (29,158 graphs), once with classify_o's certificate and once with the
  cycle-order one: the cycle 0..n-1 with the removed cycle edges missing.
- orbits: the orbit representatives that the rank search prunes moves to,
  for every graph of order <= 6 and every set X of at most two of its
  vertices pebbled (RankSearcher._candidates with the pairs (x, x)), in
  enumeration order and then by X in lexicographic order.
- opponents: the edge lists of G and of the opponent H that cli._opponent
  draws for it, over the sizes of the benchmark's campaign round (trees of
  degree <= 3 up to n = 2048, HOP graphs up to n = 512), three seeds each;
  for HOP pairs also class_o_separator's x and flaps on G and on H.
- transcripts: the moves and status of s_agent (provider tree_centroid or
  class_o, r_max the thm41 or thm43 bound + 1) against the greedy and the
  random Duplicator (seed ^ 0x5f5f) on each opponents pair, 60 matches; a
  match that raises StrategyError is hashed by its message.
- traces: the strategy trace of each transcripts match, as
  json.dumps(trace.to_json_dict(), sort_keys=True) (the trace that `fodef
  play` writes); a match that raises is hashed by its message.
- exhaustive_duplicator: the moves and status of OracleSpoiler against the
  exhaustive Duplicator, one Duplicator for every match, on every ordered
  pair of non-isomorphic graphs of order 2 to 4 and on the named pairs of
  EXHAUSTIVE_PAIRS, for 2 rounds and for the larger order + 1 rounds; with
  k = None, 0 and 1 (k = 1 alone plays as k = None on this corpus).
- csv.lemma: the CSVs and exit codes of `fodef verify --claim lemma36` and
  `--claim lemma52` on trees and on HOP graphs (LEMMA_CSVS).
- separators.brute: x and flaps of brute_min_separator, size cap 5, on every
  connected graph of order <= 7 (996 graphs) with epsilon 1/2 and 2/3, in
  enumeration order; a graph with no such set is hashed as none.
- separators.tree: x and flaps of tree_centroid_separator on the induced
  subtree of every flap of the recursive centroid split of
  random_bounded_tree(n, 3, s), for n = 8, 16, ..., 512 and s = 1..10, the
  whole tree first and then the flaps depth first, in flap order.
- escapes: (always_wins, deepest_total_rounds) of survival_vs for s_agent
  (provider class_o, r_max the thm43 bound + 1) on random_hop(11, seed), for
  the seeds of ESCAPE_SEEDS, against each non-isomorphic graph that toggles
  one chord (drops one, or adds one that crosses none): 111 pairs on which
  Duplicator can leave the flap pair after an H-side move.  A pair that
  raises StrategyError is hashed by its message.
- enumeration: the edge lists of every enumerate_graphs(n) representative
  for n <= 7 and of every enumerate_hop_graphs(n) graph for n <= 9, in
  order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from fodef import cli  # noqa: E402
from fodef.families import (  # noqa: E402
    cycle, enumerate_graphs, enumerate_hop_graphs, path, random_bounded_tree, random_hop, star, triv,
    two_cycles,
)
from fodef.formulas import (  # noqa: E402
    analyze, evaluate, parse_formula, print_formula,
)
from fodef.graphs import ColoredGraph, are_isomorphic  # noqa: E402
from fodef.game import SIDE_G, builtin_duplicator, run_match  # noqa: E402
from fodef.oracle import (  # noqa: E402
    OracleSpoiler, RankSearcher, exact_rank, survival_vs,
)
from fodef.separators import (  # noqa: E402
    EDHOP1, EDHOP2, HOP, OClassification, SeparatorError, brute_min_separator,
    class_o_separator, classify_o, tree_centroid_separator,
)
from fodef.strategies import (  # noqa: E402
    StrategyConfig, StrategyError, bound, extract_formula, reply_tree, s_agent,
)

EPS = Fraction(2, 3)
ORDER6_STRIDE = 7


def criterion09_pairs():
    """Connected tree or class-O G of order >= 2 against every connected
    non-isomorphic H of order <= 6, in enumeration order; of the pairs with
    an order-6 graph only every 7th."""
    conn = [g for n in range(1, 7)
            for g in enumerate_graphs(n, connected_only=True)]
    order6 = 0
    for g in conn:
        if g.n < 2:
            continue
        is_tree = g.is_tree()
        cls = classify_o(g)
        if not (is_tree or cls.in_class()):
            continue
        for h in conn:
            if g.n == h.n and are_isomorphic(g, h):
                continue
            if max(g.n, h.n) == 6:
                order6 += 1
                if (order6 - 1) % ORDER6_STRIDE:
                    continue
            if is_tree:
                cfg = StrategyConfig(provider="tree_centroid")
                cap = bound("lemma36", n=g.n, m=max(1, g.max_degree()),
                            epsilon=EPS, k=1)
            else:
                cfg = StrategyConfig(provider="class_o")
                cap = bound("lemma36", n=g.n, m=7, epsilon=EPS, k=5)
            yield g, h, cfg, int(cap) + 1, None if is_tree else cls


def criterion09_hashes() -> tuple[str, str, str, str, int]:
    """Digests with the order <= 5 pairs first, in enumeration order, and of
    the formula layer on each pair's formula."""
    grouped, enumeration = hashlib.sha256(), hashlib.sha256()
    formulas, nest = hashlib.sha256(), hashlib.sha256()
    order6 = []
    pairs = 0
    for g, h, cfg, r_max, cls in criterion09_pairs():
        report = survival_vs(s_agent(g, h, cfg, classification=cls), g, h,
                             r_max=r_max, size_budget=12)
        tree = reply_tree(g, h, s_agent(g, h, cfg, classification=cls), r_max)
        f = extract_formula(tree)
        text = print_formula(f)
        line = repr((report, tree.depth, tree.branches, text)).encode()
        enumeration.update(line)
        formulas.update(repr((parse_formula(text) == f, evaluate(f, g),
                              evaluate(f, h), analyze(f, nest_cap=0))).encode())
        prof = analyze(f)
        summary = prof.nest_summary
        nest.update(repr((prof.quantifier_rank, prof.alternation_number,
                          prof.is_nnf,
                          None if summary is None else sorted(summary))).encode())
        if max(g.n, h.n) == 6:
            order6.append(line)
        else:
            grouped.update(line)
        pairs += 1
    for line in order6:
        grouped.update(line)
    return (grouped.hexdigest(), enumeration.hexdigest(), formulas.hexdigest(),
            nest.hexdigest(), pairs)


def oracle_queries():
    """(g, h, r_max, size_budget) in the order of the benchmark's oracle
    workload: the named pairs, then the order-3/4 sweep."""
    for n in (2, 3, 4, 5):
        yield star(n), star(n + 1), n, 2 * n + 1
    for n in range(3, 7):
        for m in range(n + 1, 8):
            yield path(n), path(m), 7, 15
            yield cycle(n), cycle(m), 7, 15
    for m in (1, 2, 3):
        yield triv(m, 2 * m), triv(m - 1, 2 * m + 2), 2 * m + 2, 8 * m
    for n in (4, 5, 6):
        yield two_cycles(n), cycle(n), math.floor(math.log2(n - 1)), 3 * n
    yield two_cycles(4), cycle(4), 7, 12
    every = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    for base in every:
        if base.n not in (3, 4):
            continue
        for h in every:
            if h.n == base.n and are_isomorphic(base, h):
                continue
            yield base, h, base.n + 2, None


def oracle_hashes(k) -> tuple[str, str, int]:
    values = hashlib.sha256()
    formulas = hashlib.sha256()
    queries = 0
    for g, h, r_max, budget in oracle_queries():
        res = exact_rank(g, h, k=k, r_max=r_max, size_budget=budget)
        values.update(repr((res.value, res.best_first_move)).encode())
        if res.value is not None:
            spoiler = OracleSpoiler(g, h, k=k, size_budget=budget)
            tree = reply_tree(g, h, spoiler, res.value, k)
            formulas.update(print_formula(extract_formula(tree)).encode())
        queries += 1
    return values.hexdigest(), formulas.hexdigest(), queries


README_CSVS = (
    ("trees", ["verify", "--claim", "thm41", "--family", "tree", "--d", "3",
               "--n", "16..512", "--trials", "20", "--seed", "1003"]),
    ("hop", ["verify", "--claim", "thm43", "--n", "16..256", "--trials", "20",
             "--seed", "4000"]),
)


def csv_hash(argv) -> tuple[str, int]:
    """Hash of the CSV that `fodef <argv> --out FILE` writes, and the exit
    code; without --out the command writes the same text to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), code


def classify_hash() -> tuple[str, int]:
    digest = hashlib.sha256()
    graphs = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            cls = classify_o(g)
            digest.update(repr((cls.tag, cls.witness_cycle,
                                cls.missing_edges)).encode())
            graphs += 1
    return digest.hexdigest(), graphs


def class_o_hash() -> tuple[str, int]:
    digest = hashlib.sha256()
    graphs = 0
    for n in (7, 8, 9):
        for hop in enumerate_hop_graphs(n):
            edges = list(hop.edges())
            for k in range(3):
                for removed in itertools.combinations(edges, k):
                    g = ColoredGraph.build(n, [e for e in edges if e not in removed])
                    if not g.is_connected():
                        continue
                    missing = tuple(e for e in removed if e[1] - e[0] in (1, n - 1))
                    by_cycle = OClassification((HOP, EDHOP1, EDHOP2)[len(missing)],
                                               tuple(range(n)), missing)
                    for cls in (classify_o(g), by_cycle):
                        sep = class_o_separator(g, classification=cls)
                        digest.update(repr((sep.x, sep.flaps, [
                            (t.tag, t.witness_cycle, t.missing_edges)
                            for t in sep.tags])).encode())
                    graphs += 1
    return digest.hexdigest(), graphs


def brute_hash() -> tuple[str, int]:
    digest = hashlib.sha256()
    runs = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n, connected_only=True):
            for eps in (Fraction(1, 2), Fraction(2, 3)):
                try:
                    res = brute_min_separator(g, eps, 5)
                except SeparatorError:
                    res = None
                digest.update(repr("none" if res is None
                                   else (res.x, res.flaps)).encode())
                runs += 1
    return digest.hexdigest(), runs


def tree_separators_hash() -> tuple[str, int]:
    digest = hashlib.sha256()
    runs = 0
    for n in (8, 16, 32, 64, 128, 256, 512):
        for seed in range(1, 11):
            g = random_bounded_tree(n, 3, seed)
            todo = [tuple(range(n))]
            while todo:
                sub, idx = g.induced(todo.pop())
                res = tree_centroid_separator(sub)
                digest.update(repr((res.x, res.flaps)).encode())
                runs += 1
                back = sorted(idx)
                todo += [tuple(back[i] for i in f) for f in reversed(res.flaps)]
    return digest.hexdigest(), runs


def enumeration_hash() -> tuple[str, int]:
    digest = hashlib.sha256()
    graphs = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    graphs += [g for n in range(1, 10) for g in enumerate_hop_graphs(n)]
    for g in graphs:
        digest.update(repr(list(g.edges())).encode())
    return digest.hexdigest(), len(graphs)


def orbits_hash() -> tuple[str, int]:
    digest = hashlib.sha256()
    sets = 0
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            searcher = RankSearcher(g, g)
            for size in range(3):
                for xs in itertools.combinations(range(n), size):
                    pairs = frozenset((x, x) for x in xs)
                    reps = list(searcher._candidates(SIDE_G, pairs))
                    digest.update(repr((xs, reps)).encode())
                    sets += 1
    return digest.hexdigest(), sets


OPPONENT_SIZES = (("tree", (64, 128, 256, 512, 1024, 2048)),
                  ("hop", (64, 128, 256, 512)))
OPPONENT_SEEDS = (1, 2, 3)


def opponent_pairs():
    """(family, n, seed, G, H) with H drawn by cli._opponent, as the
    benchmark's campaign draws them."""
    for family, sizes in OPPONENT_SIZES:
        for n in sizes:
            for seed in OPPONENT_SEEDS:
                g = (random_bounded_tree(n, 3, seed) if family == "tree"
                     else random_hop(n, seed))
                yield (family, n, seed, g,
                       cli._opponent(g, family, 3, seed, random.Random(seed)))


def opponents_hash() -> tuple[str, int]:
    digest = hashlib.sha256()
    pairs = 0
    for family, n, seed, g, h in opponent_pairs():
        parts = [family, n, seed, list(g.edges()), list(h.edges())]
        if family == "hop":
            for x in (g, h):
                sep = class_o_separator(x)
                parts += [sep.x, sep.flaps]
        digest.update(repr(parts).encode())
        pairs += 1
    return digest.hexdigest(), pairs


def transcripts_hash() -> tuple[str, str, int]:
    """s_agent against the greedy and the random Duplicator on every
    opponents pair, as the campaign plays them: the transcripts' digest and
    the strategy traces' digest."""
    digest, traces = hashlib.sha256(), hashlib.sha256()
    matches = 0
    for family, n, seed, g, h in opponent_pairs():
        if family == "tree":
            cfg, cap = StrategyConfig("tree_centroid"), bound("thm41", n=n, d=3)
        else:
            cfg, cap = StrategyConfig("class_o"), bound("thm43", n=n)
        for name in ("greedy", "random"):
            dup = builtin_duplicator(name, seed=seed ^ 0x5f5f)
            agent = s_agent(g, h, cfg)
            try:
                t = run_match(g, h, agent, dup, int(cap) + 1)
                outcome = (t.moves, t.status)
                trace = json.dumps(agent.trace.to_json_dict(), sort_keys=True)
            except StrategyError as exc:
                outcome = ("StrategyError", str(exc))
                trace = str(exc)
            digest.update(repr((family, n, seed, name, outcome)).encode())
            traces.update(trace.encode())
            matches += 1
    return digest.hexdigest(), traces.hexdigest(), matches


EXHAUSTIVE_PAIRS = ((path(5), path(6)), (cycle(5), cycle(6)), (star(4), star(5)),
                    (cycle(6), two_cycles(3)))


def exhaustive_duplicator_hash() -> tuple[str, int]:
    digest = hashlib.sha256()
    graphs = [g for n in range(2, 5) for g in enumerate_graphs(n)]
    pairs = [(g, h) for g in graphs for h in graphs
             if not (g.n == h.n and are_isomorphic(g, h))]
    dup = builtin_duplicator("exhaustive")
    matches = 0
    for k in (None, 0, 1):
        for g, h in pairs + list(EXHAUSTIVE_PAIRS):
            for r in (2, max(g.n, h.n) + 1):
                t = run_match(g, h, OracleSpoiler(g, h, k), dup, r, k)
                digest.update(repr((k, t.moves, t.status)).encode())
                matches += 1
    return digest.hexdigest(), matches


ESCAPE_SEEDS = (8, 25, 47, 57, 80)


def escapes_hash() -> tuple[str, int]:
    digest = hashlib.sha256()
    pairs = 0
    n = 11
    cap = bound("thm43", n=n)
    for seed in ESCAPE_SEEDS:
        g = random_hop(n, seed)
        chords = [(a, b) for a, b in g.edges() if b - a not in (1, n - 1)]
        for chord in chords + cli._addable_chords(n, chords):
            h = (ColoredGraph.build(n, [e for e in g.edges() if e != chord])
                 if chord in chords else g.with_edges_added([chord]))
            if are_isomorphic(g, h):
                continue
            try:
                rep = survival_vs(s_agent(g, h, StrategyConfig("class_o")), g, h,
                                  int(cap) + 1, size_budget=2 * n)
                outcome = (rep.always_wins, rep.deepest_total_rounds)
            except StrategyError as exc:
                outcome = str(exc)
            digest.update(repr((seed, chord, outcome)).encode())
            pairs += 1
    return digest.hexdigest(), pairs


LEMMA_CSVS = tuple(
    ["verify", "--claim", claim, "--family", family, "--n", sizes,
     "--trials", "3", "--seed", "11"]
    for claim in ("lemma36", "lemma52")
    for family, sizes in (("tree", "16..64"), ("hop", "16..32")))


def main() -> int:
    grouped, enumeration, formulas, nest, pairs = criterion09_hashes()
    print(f"criterion09 {grouped}  ({pairs} pairs)", flush=True)
    print(f"criterion09.enumeration_order {enumeration}", flush=True)
    print(f"formulas {formulas}  ({pairs} formulas)", flush=True)
    print(f"formulas.nest {nest}", flush=True)
    for k in (None, 1):
        values, formulas, queries = oracle_hashes(k)
        print(f"oracle.k={k} {values}  ({queries} queries)", flush=True)
        print(f"oracle_formulas.k={k} {formulas}", flush=True)
    for name, argv in README_CSVS:
        digest, code = csv_hash(argv)
        print(f"csv.{name} {digest}  (exit {code})", flush=True)
    digest, graphs = classify_hash()
    print(f"classify {digest}  ({graphs} graphs)", flush=True)
    digest, graphs = class_o_hash()
    print(f"class_o {digest}  ({graphs} graphs)", flush=True)
    digest, sets = orbits_hash()
    print(f"orbits {digest}  ({sets} sets)", flush=True)
    digest, pairs = opponents_hash()
    print(f"opponents {digest}  ({pairs} pairs)", flush=True)
    digest, traces, matches = transcripts_hash()
    print(f"transcripts {digest}  ({matches} matches)", flush=True)
    print(f"traces {traces}", flush=True)
    digest, matches = exhaustive_duplicator_hash()
    print(f"exhaustive_duplicator {digest}  ({matches} matches)", flush=True)
    digest, codes = hashlib.sha256(), []
    for argv in LEMMA_CSVS:
        csv_digest, code = csv_hash(argv)
        digest.update(csv_digest.encode())
        codes.append(code)
    print(f"csv.lemma {digest.hexdigest()}  (exits {codes})", flush=True)
    digest, runs = brute_hash()
    print(f"separators.brute {digest}  ({runs} runs)", flush=True)
    digest, runs = tree_separators_hash()
    print(f"separators.tree {digest}  ({runs} runs)", flush=True)
    digest, pairs = escapes_hash()
    print(f"escapes {digest}  ({pairs} pairs)", flush=True)
    digest, graphs = enumeration_hash()
    print(f"enumeration {digest}  ({graphs} graphs)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
