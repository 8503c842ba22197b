"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Sweep sizes that are combinatorially unbounded in the criterion text run at
the documented desk-scale caps; set FODEF_ACCEPT_FULL=1 to widen the
configuration sweeps.
"""

import math
import os
import time
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from fodef.cli import campaign_rows
from fodef.families import (
    cycle, enumerate_graphs, enumerate_hop_graphs, path, random_hop, star,
    triv, two_cycles,
)
from fodef.formulas import analyze, evaluate, parse_formula
from fodef.game import builtin_duplicator, run_match
from fodef.graphs import are_isomorphic, check_partial_isomorphism, flaps_of
from fodef.oracle import OracleSpoiler, exact_rank, survival_vs
from fodef.separators import class_o_separator, classify_o
from fodef.strategies import (
    StrategyConfig, bound, choose_depth, extract_formula, halving_agent,
    reply_tree, s_agent,
)

from helpers import brute_rank

FULL = os.environ.get("FODEF_ACCEPT_FULL", "") == "1"
EPS = Fraction(2, 3)


def _m_edges_formula(m: int) -> str:
    """There are m distinct, pairwise non-adjacent vertices, each with a neighbor."""
    xs = [f"x{i}" for i in range(1, m + 1)]
    parts = [f"ex y. adj({x},y)" for x in xs]
    parts += [f"~{atom}({a},{b})" for a, b in combinations(xs, 2)
              for atom in ("eq", "adj")]
    body = parts[0]
    for part in parts[1:]:
        body = f"({body} & {part})"
    return "".join(f"ex {x}. " for x in xs) + body


def report(num: int, name: str, ok: bool, detail: str = ""):
    word = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {name}: {word}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} {name}: {detail}"


class TestAcceptance:

    def test_criterion_01_star_identity(self):
        t0 = time.time()
        bad = []
        for n in (2, 3, 4, 5):
            res = exact_rank(star(n), star(n + 1), r_max=n, size_budget=2 * n + 1)
            if res.value != n:
                bad.append((n, res.value))
        elapsed = time.time() - t0
        report(1, "star-identity", not bad and elapsed < 300,
               f"values for n=2..5, {elapsed:.1f}s" if not bad else str(bad))

    def test_criterion_02_path_cycle_bounds(self):
        bad = []
        for n in range(3, 7):
            for m in range(n + 1, 8):
                dp = exact_rank(path(n), path(m), r_max=7, size_budget=15).value
                dc = exact_rank(cycle(n), cycle(m), r_max=7, size_budget=15).value
                if dp is None or not (math.log2(n - 1) - 2 < dp < math.log2(n) + 3):
                    bad.append(("P", n, m, dp))
                if dc is None or not (dc > math.log2(n)):
                    bad.append(("C", n, m, dc))
        report(2, "path-cycle-bounds", not bad, str(bad) if bad else "20 pairs")

    def test_criterion_03_triv_identity(self):
        # triv(m, 2m) vs triv(m-1, 2m+2) has rank exactly m+1.  Upper bound:
        # "m distinct, pairwise non-adjacent vertices, each with a neighbor"
        # has rank m+1, holds on G and fails on H (only m-1 edges).  Lower
        # bound: the reference minimax finds no win in m rounds.
        bad = []
        for m in (1, 2):
            g, h = triv(m, 2 * m), triv(m - 1, 2 * m + 2)
            res = exact_rank(g, h, r_max=2 * m + 1, size_budget=8 * m)
            if res.value != m + 1:
                bad.append((m, f"rank {res.value} != {m + 1}"))
            f = parse_formula(_m_edges_formula(m), strict=True)
            rank = analyze(f, nest_cap=0).quantifier_rank
            if rank != m + 1 or not evaluate(f, g) or evaluate(f, h):
                bad.append((m, f"formula of rank {rank} does not separate"))
            if brute_rank(g, h, m) is not None or brute_rank(g, h, m + 1) != m + 1:
                bad.append((m, "reference minimax disagrees"))
        report(3, "triv-identity", not bad,
               "; ".join(f"m={m}: {why}" for m, why in bad)
               if bad else "rank m+1 for m=1,2")

    def test_criterion_04_two_cycles(self):
        bad = []
        for n in (4, 5, 6):
            cap = math.floor(math.log2(n - 1))
            res = exact_rank(two_cycles(n), cycle(n), r_max=cap, size_budget=3 * n)
            if res.value is not None:
                bad.append((n, res.value, cap))
        report(4, "two-cycles-lower-bound", not bad,
               str(bad) if bad else "rank exceeds floor(log2(n-1)) for n=4,5,6")

    def test_criterion_05_halving_suite(self):
        t0 = time.time()
        checked = 0
        bad = []

        def positions(g, h, max_index):
            for j in range(0, max_index + 1):
                for xs in permutations(range(g.n), j):
                    flaps_g = flaps_of(g, xs)
                    for ys in permutations(range(h.n), j):
                        flap_of_h = {v: i for i, f in enumerate(flaps_of(h, ys))
                                     for v in f}
                        base = tuple(zip(xs, ys))
                        if base and not check_partial_isomorphism(g, h, base):
                            continue
                        for flap in flaps_g:
                            if len(flap) < 2:
                                continue
                            for u1, u2 in combinations(flap, 2):
                                for v1 in range(h.n):
                                    f1 = flap_of_h.get(v1)
                                    if f1 is None:
                                        continue
                                    for v2 in range(h.n):
                                        f2 = flap_of_h.get(v2)
                                        if f2 is None or f1 == f2:
                                            continue
                                        pairs = base + ((u1, v1), (u2, v2))
                                        if check_partial_isomorphism(g, h, pairs):
                                            yield xs, ys, flap, pairs

        def check(g, h, xs, ys, flap, pairs):
            nonlocal checked
            cap = math.ceil(math.log2(max(2, len(flap))))
            agent = halving_agent(g, h, flap, pairs[-2:], xs, ys)
            rep = survival_vs(agent, g, h, r_max=len(pairs) + cap,
                              initial_pairs=pairs, size_budget=g.n + h.n)
            checked += 1
            if not (rep.always_wins
                    and rep.deepest_total_rounds - len(pairs) <= cap):
                bad.append((g.to_json(), h.to_json(), pairs))

        small = [g for n in range(1, 5) for g in enumerate_graphs(n)]
        for g in small:
            for h in small:
                for xs, ys, flap, pairs in positions(g, h, 2):
                    check(g, h, xs, ys, flap, pairs)
        medium = [g for g in enumerate_graphs(5)]
        stride = 1 if FULL else 5
        i = 0
        for g in medium:
            for h in medium:
                for xs, ys, flap, pairs in positions(g, h, 1):
                    i += 1
                    if i % stride == 0:
                        check(g, h, xs, ys, flap, pairs)
        # named families at the criterion's size cap, empty index set
        fams = [path(6), path(7), cycle(6), cycle(7)]
        for g in fams:
            for h in fams:
                for xs, ys, flap, pairs in positions(g, h, 0):
                    check(g, h, xs, ys, flap, pairs)
        # the two-cycles position: one pebble per component, images together
        c8, cc8 = cycle(8), two_cycles(8)
        agent = halving_agent(c8, cc8, range(8), ((0, 0), (4, 8)), [], [])
        rep = survival_vs(agent, c8, cc8, r_max=5,
                          initial_pairs=((0, 0), (4, 8)), size_budget=c8.n + cc8.n)
        checked += 1
        if not (rep.always_wins and rep.deepest_total_rounds - 2 <= 3):
            bad.append(("2C8-vs-C8", rep))
        report(5, "halving-suite", not bad,
               f"{checked} positions, {time.time() - t0:.0f}s"
               if not bad else str(bad[:3]))

    def test_criterion_06_separator_suite(self):
        def recurse(g, ann, bad, tag_check):
            stack = [(g, ann)]
            steps = 0
            while stack:
                cur, cls = stack.pop()
                steps += 1
                if steps > 50 * max(1, g.n) or cur.n < 2:
                    if steps > 50 * max(1, g.n):
                        bad.append(("nontermination", g.to_json()))
                    continue
                res = class_o_separator(cur, classification=cls)
                ok = (len(res.x) <= 5 and len(res.flaps) <= 7
                      and all(3 * len(f) <= 2 * cur.n for f in res.flaps))
                if not ok:
                    bad.append(("contract", cur.to_json(), res.to_json_dict()))
                    return
                for i in range(len(res.flaps)):
                    sub, tag = cur.induced(res.flaps[i])[0], res.tags[i]
                    if tag is None or not tag.in_class() or not tag.certifies(sub):
                        bad.append(("flap-classification", cur.to_json(), i))
                        return
                    if tag_check and sub.n >= 2:
                        exact = classify_o(sub)
                        if not exact.in_class():
                            bad.append(("flap-not-in-class", sub.to_json()))
                            return
                    stack.append((sub, tag))

        bad = []
        total = 0
        for n in range(2, 10):
            for g in enumerate_hop_graphs(n):
                total += 1
                recurse(g, None, bad, tag_check=True)
        exhaustive_ok = not bad
        t0 = time.time()
        for seed in range(200):
            n = 10 + (seed * 9973) % 191
            g = random_hop(n, seed)
            total += 1
            recurse(g, None, bad, tag_check=False)
        elapsed = time.time() - t0
        report(6, "hereditary-separator-suite",
               exhaustive_ok and not bad and elapsed < 600,
               f"{total} graphs, random batch {elapsed:.0f}s"
               if not bad else str(bad[:3]))

    def test_criterion_07_tree_campaign(self):
        t0 = time.time()
        sizes = (16, 32, 64, 128, 256, 512)
        bad = []
        rows_total = 0
        for d in (3, 4):
            rows = campaign_rows("thm41", "tree", sizes, d, trials=20,
                                 base_seed=1000 + d, duplicators=("greedy", "random"))
            rows_total += len(rows)
            bad.extend(r for r in rows if not r.ok)
        report(7, "tree-campaign", not bad,
               f"{rows_total} matches, {time.time() - t0:.0f}s"
               if not bad else f"{len(bad)} failing rows; first: "
               f"{bad[0].family} n={bad[0].n} seed={bad[0].seed} "
               f"rounds={bad[0].rounds} bound={bad[0].bound:.1f}")

    def test_criterion_08_hop_campaign(self):
        t0 = time.time()
        sizes = (16, 32, 64, 128, 256)
        rows = campaign_rows("thm43", "hop", sizes, 3, trials=20,
                             base_seed=4000, duplicators=("greedy", "random"))
        bad = [r for r in rows if not r.ok]
        report(8, "hop-campaign", not bad,
               f"{len(rows)} matches, {time.time() - t0:.0f}s"
               if not bad else f"{len(bad)} failing rows; first: "
               f"{bad[0].family} n={bad[0].n} seed={bad[0].seed}")

    def test_criterion_09_strategy_vs_optimal(self):
        t0 = time.time()
        conn = [g for n in range(1, 7)
                for g in enumerate_graphs(n, connected_only=True)]
        checked = 0
        bad = []
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
                if is_tree:
                    cfg = StrategyConfig(provider="tree_centroid")
                    cap = bound("lemma36", n=g.n, m=max(1, g.max_degree()),
                                epsilon=EPS, k=1)
                else:
                    cfg = StrategyConfig(provider="class_o")
                    cap = bound("lemma36", n=g.n, m=7, epsilon=EPS, k=5)
                ag = s_agent(g, h, cfg, classification=None if is_tree else cls)
                rep = survival_vs(ag, g, h, r_max=int(cap) + 1, size_budget=12)
                checked += 1
                if not rep.always_wins or rep.deepest_total_rounds > cap:
                    bad.append((g.to_json(), h.to_json(),
                                rep.deepest_total_rounds, cap))
        report(9, "strategy-vs-optimal", not bad,
               f"{checked} pairs, {time.time() - t0:.0f}s"
               if not bad else str(bad[:2]))

    def test_criterion_10_formula_synthesis(self):
        bad = []
        synth_pairs = []
        for n in (2, 3, 4, 5):
            synth_pairs.append((star(n + 1), star(n), 2 * n + 1))
        for n in range(3, 6):
            for m in range(n + 1, 7):
                synth_pairs.append((path(m), path(n), 13))
                synth_pairs.append((cycle(m), cycle(n), 13))
        synth_pairs.append((triv(1, 2), triv(0, 4), 8))
        synth_pairs.append((triv(2, 4), triv(1, 6), 16))
        synth_pairs.append((two_cycles(4), cycle(4), 12))
        for g, h, budget in synth_pairs:
            rank = exact_rank(g, h, r_max=7, size_budget=budget).value
            tree = reply_tree(g, h, OracleSpoiler(g, h, size_budget=budget),
                              r_max=rank)
            f = extract_formula(tree)
            prof = analyze(f, nest_cap=0)
            ok = (prof.is_nnf and prof.quantifier_rank == rank
                  and evaluate(f, g) and not evaluate(f, h))
            if not ok:
                bad.append(("oracle", g.to_json(), h.to_json(),
                            prof.quantifier_rank, rank))
        # strategy runs in the campaign families, at reply-tree scale
        from fodef.families import random_bounded_tree
        strat_runs = [
            (random_bounded_tree(7, 3, 1), random_bounded_tree(7, 3, 4), "tree_centroid"),
            (random_bounded_tree(8, 3, 2), random_bounded_tree(8, 3, 3), "tree_centroid"),
            (random_hop(7, 0), random_hop(7, 5), "class_o"),
            (cycle(8), random_hop(8, 2), "class_o"),
        ]
        for g, h, provider in strat_runs:
            if are_isomorphic(g, h):
                continue
            ag = s_agent(g, h, StrategyConfig(provider=provider))
            f = extract_formula(reply_tree(g, h, ag, r_max=40))
            prof = analyze(f, nest_cap=0)
            ok = (prof.is_nnf and prof.alternation_number <= 2
                  and evaluate(f, g) and not evaluate(f, h))
            if not ok:
                bad.append(("strategy", g.to_json(), h.to_json(),
                            prof.alternation_number))
        report(10, "formula-synthesis", not bad,
               f"{len(synth_pairs)} oracle pairs + {len(strat_runs)} strategy runs"
               if not bad else str(bad[:2]))

    def test_criterion_11_bound_calculators(self):
        checks = []
        got = choose_depth(96, 7, EPS)
        checks.append(("depth-lemma36", got, 7, got == 7))
        got = choose_depth(1, 1, EPS)
        checks.append(("depth-trivial", got, 0, got == 0))
        got = choose_depth(256, 1, EPS, "a")
        want = 2 * 8 / math.log2(1.5) + 1
        checks.append(("allowance", got, want, abs(got - want) <= 1e-9 * want))
        got = bound("lemma36", n=96, m=7, epsilon=EPS, k=5)
        want = 5 * 7 + 7 * 8 + math.log2(96) + 2
        checks.append(("lemma36", got, want, abs(got - want) <= 1e-9 * want))
        got = bound("thm41", n=16, d=3)
        want = (4 / math.log2(1.5) + 1) * 4 + 5
        checks.append(("thm41", got, want, abs(got - want) <= 1e-9 * want))
        got = bound("thm43", n=256)
        want = (12 / math.log2(1.5) + 1) * 8 + 9
        checks.append(("thm43", got, want, abs(got - want) <= 1e-9 * want))
        got = bound("thm55_all", n=100, H=5, Delta=4)
        want = (2 + math.sqrt(2)) * 5 ** 1.5 * 10 + 6 * (math.log2(100) + 1) + 1
        checks.append(("sqrt-bound", got, want, abs(got - want) <= 1e-9 * want))
        bad = [c for c in checks if not c[3]]
        report(11, "bound-calculators", not bad,
               f"{len(checks)} values" if not bad else str(bad))
