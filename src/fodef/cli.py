"""Command-line front end: graph I/O, generation, separators, games, the
rank oracle, bound-verification campaigns, and formula synthesis."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from fodef.families import FamilySpec, generate, random_bounded_tree, random_hop
from fodef.game import (
    AgentError, SPOILER_WON, builtin_duplicator, run_match,
)
from fodef.graphs import (
    BudgetExceeded, ColoredGraph, GraphError, load_graph,
    are_isomorphic,
)
from fodef.oracle import DEFAULT_R_MAX, OracleSpoiler, defining_rank_lb, exact_rank
from fodef.separators import (
    EPSILON, MAX_FLAPS, MAX_SEPARATOR, SeparatorError, brute_min_separator,
    class_o_separator, classify_o, inner_faces, tree_centroid_separator,
    verify_separator,
)
from fodef.strategies import (
    BOUND_NAMES, StrategyConfig, StrategyError, bound, s_agent, s_star_agent,
    synthesize_distinguisher,
)
from fodef.formulas import print_formula

CSV_HEADER = ["family", "n", "seed", "rounds", "alternations", "bound", "pass"]


# -- campaign machinery -------------------------------------------------------------


def perturb_tree(g: ColoredGraph, rng: random.Random) -> ColoredGraph:
    """Leaf move or subtree swap: cut one edge, reconnect the two pieces."""
    edges = list(g.edges())
    if not edges:
        raise GraphError("a tree with no edge has no perturbation")
    if rng.random() < 0.5:
        leaves = [v for v in range(g.n) if g.degree(v) == 1]
        leaf = rng.choice(leaves)
        keep = [e for e in edges if leaf not in e]
        target = rng.choice([v for v in range(g.n) if v != leaf])
        return ColoredGraph.build(g.n, keep + [(min(leaf, target), max(leaf, target))])
    cut = rng.choice(edges)
    keep = [e for e in edges if e != cut]
    half = ColoredGraph.build(g.n, keep)
    comp_a = half.components()[0]
    side_a = set(comp_a)
    a = rng.choice(sorted(side_a))
    b = rng.choice([v for v in range(g.n) if v not in side_a])
    return ColoredGraph.build(g.n, keep + [(min(a, b), max(a, b))])


def _addable_chords(n: int, chords: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The pairs (i, j), i < j, of cycle positions 0..n-1 that are no cycle
    edge and no chord and cross none of the non-crossing `chords`, sorted:
    the non-consecutive pairs of each inner face."""
    return sorted((f[s], f[t]) for f in inner_faces(n, chords)
                  for s in range(len(f)) for t in range(s + 2, len(f))
                  if (s, t) != (0, len(f) - 1))


def perturb_hop(g: ColoredGraph, rng: random.Random) -> ColoredGraph:
    """Toggle one chord of the spanning cycle, keeping the class membership.

    g must be HOP with its vertices numbered in cycle order 0..n-1, as
    random_hop and its perturbations are."""
    n = g.n
    chords = [(a, b) for a, b in g.edges() if b - a not in (1, n - 1)]
    candidates = _addable_chords(n, chords)
    if chords and (not candidates or rng.random() < 0.5):
        drop = rng.choice(chords)
        return ColoredGraph.build(n, [e for e in g.edges() if e != drop])
    if candidates:
        return g.with_edges_added([rng.choice(candidates)])
    return random_hop(n, rng.randrange(1 << 30))


@dataclass
class CampaignRow:
    family: str
    n: int
    seed: int
    rounds: int
    alternations: int
    bound: float
    ok: bool
    transcript_json: str = ""

    def as_csv(self) -> list:
        return [self.family, self.n, self.seed, self.rounds, self.alternations,
                f"{self.bound:.6f}", "true" if self.ok else "false"]


def _opponent(g: ColoredGraph, family: str, d: int, seed: int,
              rng: random.Random) -> ColoredGraph:
    for _ in range(64):
        mode = rng.randrange(3)
        if family == "tree":
            h = (perturb_tree(g, rng) if mode < 2
                 else random_bounded_tree(g.n, d, rng.randrange(1 << 30)))
        else:
            h = (perturb_hop(g, rng) if mode < 2
                 else random_hop(g.n, rng.randrange(1 << 30)))
        if not are_isomorphic(g, h):
            return h
    raise StrategyError("could not draw a non-isomorphic opponent")


def campaign_rows(claim: str, family: str, sizes: Sequence[int], d: int,
                  trials: int, base_seed: int,
                  duplicators: Sequence[str]) -> list[CampaignRow]:
    """One strategy match per (size, trial, duplicator); rows sorted.
    thm41 bounds trees and thm43 HOP graphs; the lemmas take both."""
    if family not in ("tree", "hop") \
            or family != {"thm41": "tree", "thm43": "hop"}.get(claim, family):
        raise StrategyError(f"claim {claim} is not checked on the family {family!r}")
    if trials < 1 or not duplicators:
        raise StrategyError("a campaign needs at least one trial and one Duplicator")
    cfg = StrategyConfig(provider="tree_centroid" if family == "tree" else "class_o")
    starred = claim == "lemma52"
    rows = []
    for n in sizes:
        for trial in range(trials):
            seed = base_seed + 7919 * trial + n
            rng = random.Random(seed)
            g = random_bounded_tree(n, d, seed) if family == "tree" else random_hop(n, seed)
            if claim == "thm41":
                cap = bound(claim, n=n, d=d)
            elif claim == "thm43":
                cap = bound(claim, n=n)
            else:
                cap = bound(claim, n=n, epsilon=EPSILON, k=cfg.k_of(n),
                            **{"s" if starred else "m": cfg.flap_bound(g, starred)})
            h = _opponent(g, family, d, seed, rng)
            for dup_name in duplicators:
                dup = builtin_duplicator(dup_name, seed=seed ^ 0x5f5f)
                agent = (s_star_agent if starred else s_agent)(g, h, cfg)
                t = run_match(g, h, agent, dup, int(cap) + 1)
                alt_cap = 2 * agent.frames[0].depth + 1 if starred else 2
                ok = (t.status == SPOILER_WON and t.rounds_used <= cap
                      and t.alternations <= alt_cap)
                rows.append(CampaignRow(f"{family}-{dup_name}", n, seed,
                                        t.rounds_used, t.alternations,
                                        cap, ok, t.to_json()))
    rows.sort(key=lambda r: (r.family, r.n, r.seed))
    return rows


def oracle_check_rows(claim: str, sizes: Sequence[int]) -> list[CampaignRow]:
    """Fixed oracle identities and lower-bound checks as campaign rows."""
    from fodef.families import cycle, path, star, triv, two_cycles
    rows: list[CampaignRow] = []
    if claim == "eq4":
        for n in sizes or (2, 3, 4, 5):
            res = exact_rank(star(n), star(n + 1), r_max=n,
                             size_budget=2 * n + 1)
            rows.append(CampaignRow("star", n, 0, res.value or -1, 0, n,
                                    res.value == n))
        return rows
    if claim in ("eq1", "eq2"):
        make = path if claim == "eq1" else cycle
        lo = 3
        for n in range(lo, 7):
            for m in range(n + 1, 8):
                res = exact_rank(make(n), make(m), r_max=7, size_budget=15)
                if claim == "eq1":
                    floor_bound = math.log2(n - 1) - 2
                else:
                    floor_bound = math.log2(n)
                ok = res.value is not None and res.value > floor_bound
                rows.append(CampaignRow(claim, n, m, res.value or -1, 0,
                                        floor_bound, ok))
        return rows
    if claim == "triv":
        for m in sizes or (1, 2):
            g, h = triv(m, 2 * m), triv(m - 1, 2 * m + 2)
            res = exact_rank(g, h, r_max=2 * m + 1, size_budget=8 * m)
            rows.append(CampaignRow("triv", m, 0, res.value or -1, 0, m + 1,
                                    res.value == m + 1))
        return rows
    if claim == "two_cycles":
        for n in sizes or (4, 5, 6):
            cap = math.floor(math.log2(n - 1))
            res = exact_rank(two_cycles(n), cycle(n), r_max=cap,
                             size_budget=3 * n)
            rows.append(CampaignRow("two_cycles", n, 0,
                                    res.value if res.value is not None else cap + 1,
                                    0, cap, res.value is None))
        return rows
    raise StrategyError(f"unknown oracle check {claim!r}")


def write_rows(rows: list[CampaignRow], out) -> None:
    w = csv.writer(out)
    w.writerow(CSV_HEADER)
    for r in rows:
        w.writerow(r.as_csv())


# -- argument plumbing ---------------------------------------------------------------


def _parse_sizes(text: str) -> list[int]:
    """'16..128' doubles from 16 to 128; '4,5,6' is a plain list."""
    if ".." in text:
        lo, hi = (int(x) for x in text.split(".."))
        if not 1 <= lo <= hi:
            raise ValueError(f"--n range {text!r} needs 1 <= a <= b in a..b")
        out = []
        while lo <= hi:
            out.append(lo)
            lo *= 2
        return out
    return [int(x) for x in text.split(",") if x]


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="fodef",
                                  description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a named family member")
    p.add_argument("--family", required=True,
                   choices=["path", "cycle", "two-cycles", "star", "complete",
                            "triv", "random-bounded-tree", "random-hop"])
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--b", type=int, default=0)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)

    p = sub.add_parser("separate", help="compute a separator")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--method", required=True,
                   choices=["centroid", "class-o", "brute"])
    p.add_argument("--epsilon", type=Fraction, default=EPSILON)
    p.add_argument("--size-cap", type=int, default=MAX_SEPARATOR)
    p.add_argument("--verify-m", type=int, default=MAX_FLAPS)

    p = sub.add_parser("classify", help="class membership with certificate")
    p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("rank", help="exact distinguishing round count")
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--rmax", type=int, default=DEFAULT_R_MAX)
    p.add_argument("--budget", type=int)

    p = sub.add_parser("define-lb", help="lower bound on the defining count")
    p.add_argument("--g", required=True)
    p.add_argument("--order-max", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--budget", type=int)

    p = sub.add_parser("play", help="run one match")
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--spoiler", default="oracle",
                   choices=["oracle", "s", "s-star"])
    p.add_argument("--provider", default="tree_centroid",
                   choices=["tree_centroid", "class_o", "brute_min"])
    p.add_argument("--duplicator", default="greedy",
                   choices=["human", "greedy", "random", "exhaustive"])
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=int)

    p = sub.add_parser("verify", help="bound-verification campaign")
    p.add_argument("--claim", required=True,
                   choices=list(BOUND_NAMES) + ["eq1", "eq2", "eq4", "triv",
                                                "two_cycles"])
    p.add_argument("--family", choices=["tree", "hop"])
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--n", default="")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int)
    p.add_argument("--duplicators", default="greedy,random")
    p.add_argument("--out")
    p.add_argument("--params", nargs="*", default=[],
                   help="key=value pairs for closed-form claims")

    p = sub.add_parser("synth", help="synthesize a distinguishing formula")
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--rmax", type=int, default=DEFAULT_R_MAX)
    p.add_argument("--spoiler", default="oracle", choices=["oracle", "s"])
    p.add_argument("--provider", default="tree_centroid",
                   choices=["tree_centroid", "class_o", "brute_min"])
    p.add_argument("--budget", type=int)
    p.add_argument("--out", required=True)

    p = sub.add_parser("export-dot", help="write DOT, optionally highlighting")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--highlight", default="")
    p.add_argument("--out", required=True)
    return top


def _cmd_gen(args) -> int:
    fam = args.family.replace("-", "_")
    spec = FamilySpec(fam, n=args.n, a=args.a, b=args.b, d=args.d,
                      seed=args.seed)
    g = generate(spec)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(g.to_json() + "\n")
    print(f"wrote {args.out}: n={g.n} m={g.edge_count()}")
    return 0


def _cmd_separate(args) -> int:
    g = load_graph(args.infile)
    if args.method == "centroid":
        res = tree_centroid_separator(g)
    elif args.method == "class-o":
        res = class_o_separator(g)
    else:
        res = brute_min_separator(g, args.epsilon, args.size_cap)
    rep = verify_separator(g, res.x, res.epsilon, args.verify_m)
    out = res.to_json_dict()
    out["verified"] = bool(rep)
    print(json.dumps(out))
    return 0


def _cmd_classify(args) -> int:
    g = load_graph(args.infile)
    cls = classify_o(g)
    print(json.dumps({
        "tag": cls.tag,
        "witness": list(cls.witness_cycle) if cls.witness_cycle else None,
        "missing_edges": [list(e) for e in cls.missing_edges],
    }))
    return 0


def _cmd_rank(args) -> int:
    g, h = load_graph(args.g), load_graph(args.h)
    res = exact_rank(g, h, k=args.k, r_max=args.rmax, size_budget=args.budget)
    row = {"G": args.g, "G2": args.h, **res.to_json_dict()}
    print(json.dumps(row))
    return 0


def _cmd_define_lb(args) -> int:
    g = load_graph(args.g)
    value, witness = defining_rank_lb(g, args.order_max, k=args.k,
                                      size_budget=args.budget)
    print(json.dumps({"lower_bound": value, "witness": json.loads(witness.to_json()),
                      "note": "max over graphs of order <= "
                              f"{args.order_max}; a lower bound only"}))
    return 0


def _cmd_play(args) -> int:
    g, h = load_graph(args.g), load_graph(args.h)
    if args.spoiler == "oracle":
        spoiler = OracleSpoiler(g, h, k=args.k, size_budget=args.budget)
    else:
        cfg = StrategyConfig(provider=args.provider)
        spoiler = (s_agent if args.spoiler == "s" else s_star_agent)(g, h, cfg)
    dup = builtin_duplicator(args.duplicator, seed=args.seed,
                             size_budget=args.budget)
    t = run_match(g, h, spoiler, dup, args.rounds, k=args.k)
    print(t.to_json())
    if hasattr(spoiler, "trace"):
        print(json.dumps({"trace": spoiler.trace.to_json_dict()}))
    print(f"status: {t.status} after {t.rounds_used} rounds, "
          f"{t.alternations} alternations")
    return 0


def _cmd_verify(args) -> int:
    sizes = _parse_sizes(args.n) if args.n else []
    if args.claim in ("eq1", "eq2", "eq4", "triv", "two_cycles"):
        rows = oracle_check_rows(args.claim, sizes)
    elif args.claim in ("thm41", "thm43", "lemma36", "lemma52"):
        if args.seed is None:
            print("randomized campaigns require --seed", file=sys.stderr)
            return 2
        family = args.family or ("tree" if args.claim == "thm41" else "hop")
        if not sizes:
            sizes = [16, 32, 64, 128]
        dups = [d for d in args.duplicators.split(",") if d]
        rows = campaign_rows(args.claim, family, sizes, args.d, args.trials,
                             args.seed, dups)
    else:
        params = {}
        for kv in args.params:
            key, _, val = kv.partition("=")
            try:
                params[key] = float(val)
                if not key or not math.isfinite(params[key]):
                    raise ValueError
            except ValueError:
                raise ValueError(f"--params entry {kv!r} is not KEY=VALUE with "
                                 "a finite number VALUE") from None
        val = bound(args.claim, **params)
        rows = [CampaignRow(args.claim, int(params.get("n", 0)), 0, 0, 0, val, True)]
    buf = io.StringIO()
    write_rows(rows, buf)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    bad = [r for r in rows if not r.ok]
    if bad:
        print(f"{len(bad)} failing rows", file=sys.stderr)
        for r in bad[:5]:
            print(r.transcript_json or json.dumps(r.as_csv()), file=sys.stderr)
        return 1
    return 0


def _cmd_synth(args) -> int:
    g, h = load_graph(args.g), load_graph(args.h)
    if args.spoiler == "oracle":
        spoiler = OracleSpoiler(g, h, size_budget=args.budget)
    else:
        spoiler = s_agent(g, h, StrategyConfig(provider=args.provider))
    f = synthesize_distinguisher(g, h, spoiler, args.rmax)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(print_formula(f) + "\n")
    print(f"wrote {args.out}")
    return 0


def _cmd_export_dot(args) -> int:
    g = load_graph(args.infile)
    dot = g.to_dot(highlight=[int(x) for x in args.highlight.split(",") if x])
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(dot + "\n")
    print(f"wrote {args.out}")
    return 0


_DISPATCH = {
    "gen": _cmd_gen,
    "separate": _cmd_separate,
    "classify": _cmd_classify,
    "rank": _cmd_rank,
    "define-lb": _cmd_define_lb,
    "play": _cmd_play,
    "verify": _cmd_verify,
    "synth": _cmd_synth,
    "export-dot": _cmd_export_dot,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (GraphError, SeparatorError, StrategyError, AgentError,
            BudgetExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
