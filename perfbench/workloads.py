"""The three workloads.  Each is a closed loop from one thread: operations
run one after another, in whole rounds of the same make-up, and every input
comes from the seed.

A workload object is built in set-up (graph enumeration and populations),
``round(r)`` lists the r-th round's operations, ``op(spec)`` runs one
operation through fodef's public calls and returns what the checks need,
and ``check(spec, rec)`` returns None or the reason the output is wrong.
Checks run outside the timed section.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import checks

EPS = Fraction(2, 3)

# s_agent raises this on some random HOP pairs against the greedy Duplicator
# (CHANGES.md, FOUND), about once in 1500 HOP n = 64 trials.  It strikes only
# some seeds, so such a HOP trial is left out of the run rather than counted
# as failed; the same fault on a tree trial counts as failed.
CLOSING_MOVE_FAULT = "the closing move did not end the game"
# A run stays correct with at most 1 + this share of its operations left out:
# about fifty times the rate measured on campaign's round, so that only a
# fault that has grown exceeds it.
MAX_LEFT_OUT_SHARE = 0.01


class LeftOut(Exception):
    """The operation hit a fault that only some seeds reach; it is counted
    apart from attempted, and its time is kept out of the timings."""


def synthesize(M, g, h, spoiler, r_max: int) -> dict:
    """Play tree -> formula -> printed text -> parsed back -> profile ->
    truth on both graphs: the formula layer as a user drives it."""
    tree = M.strategies.reply_tree(g, h, spoiler, r_max=r_max)
    f = M.strategies.extract_formula(tree)
    text = M.formulas.print_formula(f)
    return {
        "formula": f,
        "parsed": M.formulas.parse_formula(text),
        "chars": len(text),
        "profile": M.formulas.analyze(f, nest_cap=0),
        "on_g": M.formulas.evaluate(f, g),
        "on_h": M.formulas.evaluate(f, h),
    }


def check_formula(syn: dict, rank=None) -> str | None:
    """Closed, NNF, true on G, false on H, survives print/parse; with rank,
    of exactly that quantifier rank, else of alternation number <= 2."""
    f = syn["formula"]
    facts = checks.formula_facts(f)
    if not facts["closed"]:
        return "formula has free variables"
    if not facts["nnf"]:
        return "formula is not in negation normal form"
    if not syn["on_g"] or syn["on_h"]:
        return "formula does not separate G from H"
    if syn["parsed"] != f:
        return "parse_formula(print_formula(f)) != f"
    if rank is not None and facts["rank"] != rank:
        return f"formula rank {facts['rank']} != value {rank}"
    if rank is None and facts["alternations"] > 2:
        return f"formula alternation number {facts['alternations']} > 2"
    if syn["profile"].alternation_number != facts["alternations"] or \
            syn["profile"].quantifier_rank != facts["rank"]:
        return "analyze() disagrees with the formula's own rank/alternations"
    return None


# -- campaign ----------------------------------------------------------------------

# (family, n, trials per round).  Small sizes make up the count and the large
# ones most of the time, so both families carry a real share of every round.
# The make-up keeps each reported percentile inside one large group of
# similar trials: p50 among the n = 64 trials, p90 among the tree n = 256
# trials; a percentile on the edge between two groups jumps from run to run.
CAMPAIGN_ROUND = (
    ("tree", 2048, 1), ("tree", 1024, 1), ("tree", 512, 1), ("tree", 256, 14),
    ("tree", 128, 6), ("tree", 64, 24),
    ("hop", 512, 1), ("hop", 256, 1), ("hop", 128, 6), ("hop", 64, 24),
)
DUPLICATORS = ("greedy", "random")


class Campaign:
    """Theorem 4.1 (random trees of degree <= 3) and Theorem 4.3 (random HOP
    graphs) trials, as ``fodef verify --claim thm41|thm43`` plays them."""

    def __init__(self, M, seed: int):
        self.M = M
        self.seed = seed

    def round(self, r: int) -> list:
        rng = random.Random(f"campaign-{self.seed}-{r}")
        return [(fam, n, rng.randrange(1 << 30))
                for fam, n, k in CAMPAIGN_ROUND for _ in range(k)]

    def op(self, spec) -> dict:
        fam, n, seed = spec
        M = self.M
        rng = random.Random(seed)
        if fam == "tree":
            g = M.families.random_bounded_tree(n, 3, seed)
            cap = M.strategies.bound("thm41", n=n, d=3)
            cfg = M.strategies.StrategyConfig(provider="tree_centroid")
        else:
            g = M.families.random_hop(n, seed)
            cap = M.strategies.bound("thm43", n=n)
            cfg = M.strategies.StrategyConfig(provider="class_o")
        h = M.cli._opponent(g, fam, 3, seed, rng)
        matches = []
        for name in DUPLICATORS:
            dup = M.game.builtin_duplicator(name, seed=seed ^ 0x5f5f)
            agent = M.strategies.s_agent(g, h, cfg)
            try:
                matches.append(M.game.run_match(g, h, agent, dup, int(cap) + 1))
            except M.strategies.StrategyError as exc:
                if fam == "hop" and str(exc) == CLOSING_MOVE_FAULT:
                    raise LeftOut(f"{fam} n={n} seed={seed} vs {name}: {exc}")
                raise
        return {"g": g, "h": h, "cap": cap, "matches": matches,
                "ratios": [t.rounds_used / math.log2(n) for t in matches]}

    def check(self, spec, rec) -> str | None:
        fam = spec[0]
        g, h = rec["g"], rec["h"]
        why = (checks.trees_differ(g, h) if fam == "tree"
               else checks.hops_differ(g, h))
        if why:
            return why
        for t in rec["matches"]:
            if t.status != "spoiler_won":
                return f"status {t.status}"
            if t.rounds_used > rec["cap"] or t.alternations > 2:
                return (f"{t.rounds_used} rounds / {t.alternations} "
                        f"alternations against bound {rec['cap']:.1f} / 2")
            why = checks.check_transcript(g, h, t.moves)
            if why:
                return why
        return None


# -- exhaustive --------------------------------------------------------------------

SMALL_PER_ROUND = 63  # 630 order <= 5 pairs: ten rounds cover them all
ORDER6_PER_ROUND = 7


class Exhaustive:
    """Criterion-09 population: every tree or class-O connected G of order
    <= 5 against every connected H of order <= 5, plus a seeded sample of the
    pairs with an order-6 graph.  Each pair: the strategy's worst case over
    all replies, then a synthesized formula."""

    def __init__(self, M, seed: int):
        self.M = M
        self.seed = seed
        conn = [g for n in range(1, 7)
                for g in M.families.enumerate_graphs(n, connected_only=True)]
        heads = []
        for i, g in enumerate(conn):
            if g.n < 2:
                continue
            cls = M.separators.classify_o(g)
            if g.is_tree() or cls.in_class():
                heads.append((i, g.is_tree(), cls))
        small, big = [], []
        for gi, tree, cls in heads:
            g = conn[gi]
            for hi, h in enumerate(conn):
                if g.n == h.n and M.graphs.are_isomorphic(g, h):
                    continue
                (big if max(g.n, h.n) == 6 else small).append((gi, hi, tree, cls))
        self.conn = conn
        self.small = small
        self.big = big
        self.order = list(range(len(small)))
        random.Random(f"exhaustive-{seed}").shuffle(self.order)
        self.ranks: dict = {}

    def round(self, r: int) -> list:
        rng = random.Random(f"exhaustive-{self.seed}-{r}")
        lo = r * SMALL_PER_ROUND % len(self.small)
        idx = [self.order[(lo + k) % len(self.small)]
               for k in range(SMALL_PER_ROUND)]
        return ([self.small[i] for i in idx]
                + [rng.choice(self.big) for _ in range(ORDER6_PER_ROUND)])

    def _plan(self, spec):
        gi, hi, tree, cls = spec
        g, h = self.conn[gi], self.conn[hi]
        S = self.M.strategies
        if tree:
            cfg = S.StrategyConfig(provider="tree_centroid")
            cap = S.bound("lemma36", n=g.n, m=max(1, g.max_degree()),
                          epsilon=EPS, k=1)
        else:
            cfg = S.StrategyConfig(provider="class_o")
            cap = S.bound("lemma36", n=g.n, m=7, epsilon=EPS, k=5)
        return g, h, cfg, cap, None if tree else cls

    def op(self, spec) -> dict:
        M = self.M
        g, h, cfg, cap, cls = self._plan(spec)
        agent = M.strategies.s_agent(g, h, cfg, classification=cls)
        rep = M.oracle.survival_vs(agent, g, h, r_max=int(cap) + 1,
                                   size_budget=12)
        agent = M.strategies.s_agent(g, h, cfg, classification=cls)
        syn = synthesize(M, g, h, agent, int(cap) + 1)
        return {"report": rep, "cap": cap, "syn": syn, "chars": syn["chars"],
                "ratios": [rep.deepest_total_rounds / math.log2(g.n)]}

    def check(self, spec, rec) -> str | None:
        g, h, _, cap, _ = self._plan(spec)
        rep = rec["report"]
        key = spec[:2]
        if key not in self.ranks:
            self.ranks[key] = self.M.oracle.exact_rank(
                g, h, r_max=int(cap) + 1, size_budget=12).value
        rank = self.ranks[key]
        if not rep.always_wins:
            return "the strategy does not win against every reply"
        if rank is None or not rank <= rep.deepest_total_rounds <= cap:
            return (f"exact rank {rank} <= deepest {rep.deepest_total_rounds}"
                    f" <= bound {cap:.1f} fails")
        return check_formula(rec["syn"])


# -- oracle ------------------------------------------------------------------------

SWEEP_BASE_ORDERS = (3, 4)
BRUTE_PER_ROUND = 4
BRUTE_ROUNDS = 3  # brute_rank's cost grows as (2n)^(2r): keep r <= 3


class Oracle:
    """Exact-rank queries, each certified by an oracle-synthesized formula:
    the named pairs of ``scripts/rank_table.py`` (plus the criterion-10
    two-cycle pair) and a defining_rank_lb-style sweep of every graph of
    order 3 and 4 against every graph of order <= 6.  The seed picks the
    sweep pairs that are also checked against the reference minimax.

    The sweep takes every base rather than a seeded few: one order-5 base
    costs from 0.5 s to 2.1 s and moves p90 with it, so a seeded choice of
    bases spread op_p90_ms by 0.13 between seeds before any machine noise."""

    def __init__(self, M, seed: int):
        self.M = M
        self.seed = seed
        F = M.families
        self.every = [g for n in range(1, 7) for g in F.enumerate_graphs(n)]
        named = [("star", n, F.star(n), F.star(n + 1), n, 2 * n + 1)
                 for n in (2, 3, 4, 5)]
        for n in range(3, 7):
            for m in range(n + 1, 8):
                named.append(("path", n, F.path(n), F.path(m), 7, 15))
                named.append(("cycle", n, F.cycle(n), F.cycle(m), 7, 15))
        for m in (1, 2, 3):
            named.append(("triv", m, F.triv(m, 2 * m), F.triv(m - 1, 2 * m + 2),
                          2 * m + 2, 8 * m))
        for n in (4, 5, 6):
            cap = math.floor(math.log2(n - 1))
            named.append(("two_cycles", n, F.two_cycles(n), F.cycle(n),
                          cap, 3 * n))
        named.append(("two_cycles_rank", 4, F.two_cycles(4), F.cycle(4), 7, 12))
        self.named = [list(s) + [False] for s in named]
        self.sweep = []
        for base in self.every:
            if base.n not in SWEEP_BASE_ORDERS:
                continue
            for h in self.every:
                if h.n == base.n and M.graphs.are_isomorphic(base, h):
                    continue
                # defining_rank_lb's depth: the rank never exceeds the
                # smaller order + 1, so no query runs out of rounds
                self.sweep.append(["sweep", base.n, base, h, base.n + 2, None])
        self.small = [i for i, s in enumerate(self.sweep)
                      if s[2].n + s[3].n <= 8]
        from helpers import brute_rank  # tests/helpers.py: the reference minimax
        self.brute_rank = brute_rank

    def round(self, r: int) -> list:
        rng = random.Random(f"oracle-{self.seed}-{r}")
        brute = set(rng.sample(self.small, BRUTE_PER_ROUND))
        return self.named + [s + [i in brute] for i, s in enumerate(self.sweep)]

    def op(self, spec) -> dict:
        M = self.M
        _, _, g, h, r_max, budget, _ = spec
        res = M.oracle.exact_rank(g, h, r_max=r_max, size_budget=budget)
        rec = {"value": res.value, "nodes": res.nodes, "memo": res.memo_hits,
               "chars": 0, "ratios": []}
        if res.value is not None:
            spoiler = M.oracle.OracleSpoiler(g, h, size_budget=budget)
            rec["syn"] = synthesize(M, g, h, spoiler, res.value)
            rec["chars"] = rec["syn"]["chars"]
            rec["ratios"] = [res.value / math.log2(max(g.n, h.n))]
        return rec

    def check(self, spec, rec) -> str | None:
        kind, n, g, h, r_max, _, brute = spec
        value = rec["value"]
        if kind == "star" and value != n:
            return f"star({n}) vs star({n + 1}) has rank {value}, not {n}"
        if kind == "triv" and value != n + 1:
            return f"triv({n}) identity: rank {value}, not {n + 1}"
        if kind == "two_cycles":
            if value is not None:
                return f"two_cycles({n}) won within {value} <= {r_max} rounds"
            return None
        if kind == "two_cycles_rank" and (value is None
                                          or value <= math.log2(n - 1)):
            return f"two_cycles({n}) rank {value} too small"
        if kind in ("path", "cycle") and not checks.path_cycle_ok(kind, n, value):
            return f"{kind} {n} vs {h.n}: rank {value} outside criterion-02 bounds"
        if value is None:
            return f"no rank within {r_max} rounds"
        if brute:
            want = value if value <= BRUTE_ROUNDS else None
            got = self.brute_rank(g, h, min(value, BRUTE_ROUNDS))
            if got != want:
                return f"brute_rank gives {got}, exact_rank {value}"
        return check_formula(rec["syn"], rank=value)


WORKLOADS = {"campaign": Campaign, "exhaustive": Exhaustive, "oracle": Oracle}
