#!/usr/bin/env python3
"""fodef benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload campaign|exhaustive|oracle \
        --seed N --seconds S --trace 0|1

Run it from the root of a fodef checkout; it imports the library from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, and the spans and derived figures go to
``perfbench/results/trace-<workload>-seed<N>.{json,spans}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from types import SimpleNamespace

from tracing import LAYER_OF, Tracer
from workloads import WORKLOADS, LeftOut, MAX_LEFT_OUT_SHARE

SETUP_REPEATS = 9
FODEF_MODULES = ("graphs", "formulas", "families", "separators", "game",
                 "strategies", "oracle", "cli")
MAX_REPORTED_FAILURES = 5


def load_fodef() -> SimpleNamespace:
    """Import fodef afresh (module bodies run again) and return its modules."""
    for key in [k for k in sys.modules if k == "fodef" or k.startswith("fodef.")]:
        del sys.modules[key]
    importlib.import_module("fodef")
    return SimpleNamespace(**{m: importlib.import_module(f"fodef.{m}")
                              for m in FODEF_MODULES})


def metric_units() -> tuple[dict, dict]:
    """Name -> unit of every end-to-end and every per-layer metric, as
    ``BENCHMARK.json`` at the checkout root lists them."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def report(values: dict, units: dict) -> dict:
    """The listed metrics, filled by name from the measured values."""
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


class Tally:
    """Operation outcomes: times, failures and the figures checks pass on."""

    def __init__(self, name: str):
        self.name = name
        self.times: list[float] = []
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.ratios: list[float] = []
        self.nodes = self.memo = self.chars = 0
        self.left_out = 0
        self.spent = 0.0  # busy time plus that of left-out operations

    def run_round(self, wl, specs, tracer=None) -> None:
        """Run the operations one after another, each timed alone, and check
        each output as soon as its time is taken."""
        for spec in specs:
            if tracer is not None:
                tracer.install()
            left_out = False
            t0 = time.perf_counter()
            try:
                rec = (wl.op(spec) if tracer is None
                       else tracer.run_op(self.attempted, wl.op, spec))
                err = None
            except LeftOut as exc:
                rec, err, left_out = None, str(exc), True
            except Exception as exc:  # an operation that raises has failed
                rec, err = None, f"{type(exc).__name__}: {exc}"
            finally:
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.uninstall()
            self.spent += dt
            if left_out:
                self.left_out += 1
                print(f"{self.name}: left out {err}", file=sys.stderr)
                continue
            self.busy += dt
            self.times.append(dt)
            self.attempted += 1
            if err is None:
                try:
                    err = wl.check(spec, rec)
                except Exception as exc:  # output too malformed to check
                    err = f"check raised {type(exc).__name__}: {exc}"
            if err:
                self.failed += 1
                if self.failed <= MAX_REPORTED_FAILURES:
                    print(f"{self.name}: failed {spec[:2]}: {err}",
                          file=sys.stderr)
                continue
            self.ratios += rec.get("ratios", [])
            self.nodes += rec.get("nodes", 0)
            self.memo += rec.get("memo", 0)
            self.chars += rec.get("chars", 0)


def end_to_end(t: Tally, setup_s: float) -> dict:
    q = statistics.quantiles(t.times, n=10)
    return {
        "setup_s": setup_s,
        "ops_per_s": t.attempted / t.busy,
        "op_p50_ms": statistics.median(t.times) * 1e3,
        "op_p90_ms": q[8] * 1e3,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # 0 only when no operation passed its checks (correct is false then)
        "rounds_per_log2n": statistics.fmean(t.ratios) if t.ratios else 0.0,
    }


def per_layer(d: dict, traced: Tally, untraced: Tally) -> dict:
    ops = traced.attempted
    calls, self_s = d["calls"], d["self_s"]

    def ratio(a, b):
        return a / b if b else 0.0

    values = {}
    for name in calls:
        values[f"{name}.calls"] = calls[name] / ops
        values[f"{name}.self_s"] = self_s[name] / ops
    values.update({
        "iso.automorphisms.maps": d["automorphism_maps"] / ops,
        "iso.find_per_group": ratio(d["find_in_group"],
                                    calls["iso.group_by_isomorphism"]),
        "strategies.forks_per_move": ratio(calls["strategies.fork"],
                                           calls["strategies.next_move"]),
        "opponent.draws_per_accept": ratio(d["opponent_draws"],
                                           calls["cli.opponent"]),
        "oracle.search_nodes": traced.nodes / ops,
        "oracle.memo_hits": traced.memo / ops,
        "oracle.memo_hit_ratio": ratio(traced.memo, traced.memo + traced.nodes),
        "formulas.chars": traced.chars / ops,
        "trace.overhead": (traced.busy / untraced.busy - 1) * 100,
    })
    return values


def layer_shares(d: dict) -> dict:
    by_layer: dict[str, float] = {}
    for name, s in d["self_s"].items():
        by_layer[LAYER_OF[name]] = by_layer.get(LAYER_OF[name], 0.0) + s
    total = sum(by_layer.values()) or 1.0
    return {k: {"self_s": v, "share": v / total}
            for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1])}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["campaign", "exhaustive", "oracle"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "fodef", "__init__.py")):
        print("error: src/fodef not found; run from the root of a fodef checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.abspath("src"), os.path.abspath("tests")]
    e2e_units, layer_units = metric_units()
    # Every set-up compiles the library from source, whatever bytecode the
    # checkout holds: no bytecode is written, and cached bytecode is looked
    # for only in a fresh empty directory.
    sys.dont_write_bytecode = True
    os.makedirs(os.path.join("perfbench", "results"), exist_ok=True)
    no_cache = tempfile.mkdtemp(prefix="no-pycache-",
                                dir=os.path.join("perfbench", "results"))
    sys.pycache_prefix = os.path.abspath(no_cache)
    try:
        # An untimed first load imports the standard modules that fodef and
        # the checks need, so the timed loads differ only in fodef itself.
        load_fodef()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            M = load_fodef()
            wl = WORKLOADS[args.workload](M, args.seed)
            setup_times.append(time.perf_counter() - t0)
    finally:
        os.rmdir(no_cache)
    setup_s = statistics.median(setup_times)

    plain = Tally(args.workload)
    r = 0
    if not args.trace:
        while r == 0 or plain.spent < args.seconds:
            plain.run_round(wl, wl.round(r))
            r += 1
        metrics = report(end_to_end(plain, setup_s), e2e_units)
        tally = plain
    else:
        tracer = Tracer()
        traced = Tally(args.workload)
        while r == 0 or plain.spent + traced.spent < args.seconds:
            specs = wl.round(r)
            plain.run_round(wl, specs)
            traced.run_round(wl, specs, tracer)
            r += 1
        derived = tracer.derive()
        metrics = report(per_layer(derived, traced, plain), layer_units)
        stem = os.path.join("perfbench", "results",
                            f"trace-{args.workload}-seed{args.seed}")
        path = tracer.write(stem, {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "rounds": r,
            "traced_ops": traced.attempted, "untraced_ops": plain.attempted,
            "left_out_ops": traced.left_out + plain.left_out,
            "traced_busy_s": traced.busy, "untraced_busy_s": plain.busy,
            "per_layer": {k: v["value"] for k, v in metrics.items()},
            "calls": derived["calls"], "self_s": derived["self_s"],
            "layer_self_time": layer_shares(derived),
        })
        print(f"trace written to {path}")
        tally = SimpleNamespace(attempted=plain.attempted + traced.attempted,
                                failed=plain.failed + traced.failed,
                                left_out=plain.left_out + traced.left_out)

    # Left-out operations hit a seed-dependent fault (workloads.LeftOut).
    # A few are expected; more than the allowance means the fault has grown.
    allowance = 1 + MAX_LEFT_OUT_SHARE * (tally.attempted + tally.left_out)
    if tally.left_out:
        print(f"{args.workload}: {tally.left_out} operations left out "
              f"(allowance {allowance:.1f})", file=sys.stderr)
    correct = tally.failed == 0 and tally.left_out <= allowance
    print(json.dumps({"correct": correct,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
