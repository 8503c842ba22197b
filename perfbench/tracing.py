"""Outside-in tracing of the fodef layers.

The tracer wraps public functions of each layer, from outside the library,
and records one span per call in memory: name, start, end, parent span and
the benchmark operation it belongs to.  A name bound with ``from ... import``
is wrapped in every fodef module that holds it, so a call is traced where its
caller looks it up.  Direct self-recursion (``print_formula`` calling itself)
is folded into the outer span.  Spans are written out when the run ends and
the per-layer figures are derived from them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (span name, defining module, attribute path).  The span name's prefix is
# the layer the README's table uses; ``cli.opponent`` is the campaign's
# opponent-drawing loop, kept so draws per accepted opponent can be counted.
TARGETS = [
    ("graphs.build", "fodef.graphs", "ColoredGraph.build"),
    ("graphs.induced", "fodef.graphs", "ColoredGraph.induced"),
    ("graphs.components", "fodef.graphs", "ColoredGraph.components"),
    ("graphs.with_extra_colors", "fodef.graphs", "ColoredGraph.with_extra_colors"),
    ("iso.are_isomorphic", "fodef.graphs", "are_isomorphic"),
    ("iso.find_isomorphism", "fodef.graphs", "find_isomorphism"),
    ("iso.group_by_isomorphism", "fodef.graphs", "group_by_isomorphism"),
    ("iso.iso_invariant_key", "fodef.graphs", "iso_invariant_key"),
    ("iso.automorphisms", "fodef.graphs", "automorphisms"),
    ("separators.tree_centroid_separator", "fodef.separators", "tree_centroid_separator"),
    ("separators.class_o_separator", "fodef.separators", "class_o_separator"),
    ("separators.classify_o", "fodef.separators", "classify_o"),
    ("strategies.next_move", "fodef.strategies", "StrategyMachine.next_move"),
    ("strategies.fork", "fodef.strategies", "StrategyMachine.fork"),
    ("strategies.reply_tree", "fodef.strategies", "reply_tree"),
    ("strategies.extract_formula", "fodef.strategies", "extract_formula"),
    ("game.run_match", "fodef.game", "run_match"),
    ("game.step", "fodef.game", "step"),
    ("game.check_partial_isomorphism", "fodef.graphs", "check_partial_isomorphism"),
    ("game.greedy_respond", "fodef.game", "GreedyDuplicator.respond"),
    ("game.random_respond", "fodef.game", "RandomDuplicator.respond"),
    ("families.random_bounded_tree", "fodef.families", "random_bounded_tree"),
    ("families.random_hop", "fodef.families", "random_hop"),
    ("cli.perturb_tree", "fodef.cli", "perturb_tree"),
    ("cli.perturb_hop", "fodef.cli", "perturb_hop"),
    ("cli.opponent", "fodef.cli", "_opponent"),
    ("oracle.exact_rank", "fodef.oracle", "exact_rank"),
    ("oracle.survival_vs", "fodef.oracle", "survival_vs"),
    ("oracle.spoiler_choose", "fodef.oracle", "OracleSpoiler.choose"),
    ("formulas.print_formula", "fodef.formulas", "print_formula"),
    ("formulas.parse_formula", "fodef.formulas", "parse_formula"),
    ("formulas.analyze", "fodef.formulas", "analyze"),
    ("formulas.evaluate", "fodef.formulas", "evaluate"),
]

OP_SPAN = "bench.op"

# span name -> layer; the ROADMAP's nine layers plus the benchmark's own code
LAYER_OF = {name: name.split(".")[0] for name, _, _ in TARGETS}
LAYER_OF.update({
    "game.greedy_respond": "duplicators",
    "game.random_respond": "duplicators",
    "families.random_bounded_tree": "opponent",
    "families.random_hop": "opponent",
    "cli.perturb_tree": "opponent",
    "cli.perturb_hop": "opponent",
    "cli.opponent": "opponent",
    OP_SPAN: "bench",
})

# column name, array typecode: the layout of the binary spans file
SPAN_COLUMNS = (("name", "H"), ("parent", "i"), ("op", "i"),
                ("start", "d"), ("end", "d"))


class Tracer:
    """Span recorder; ``install`` patches the fodef modules imported when
    the tracer was made, ``uninstall`` restores them."""

    def __init__(self):
        self.names = [name for name, _, _ in TARGETS] + [OP_SPAN]
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.cols = {c: array(t) for c, t in SPAN_COLUMNS}
        self.stack: list[int] = []
        self.op = -1
        self.maps = 0  # automorphism maps returned
        self.origin = time.perf_counter()
        self._op_wrapper = self._wrap(OP_SPAN, lambda fn, *a: fn(*a))
        self._patches = self._plan()

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding of every
        target in every fodef module."""
        mods = [m for k, m in sys.modules.items()
                if m is not None and (k == "fodef" or k.startswith("fodef."))]
        patches = []
        for name, modname, attr in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                patches.append((cls, meth, raw, wrapped))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(name, fn)
            for mod in mods:
                for key, val in vars(mod).items():
                    if val is fn:
                        patches.append((mod, key, fn, wrapped))
        return patches

    def install(self) -> None:
        for obj, key, _, wrapped in self._patches:
            setattr(obj, key, wrapped)

    def uninstall(self) -> None:
        for obj, key, orig, _ in self._patches:
            setattr(obj, key, orig)

    def _wrap(self, name: str, fn):
        nid = self.name_id[name]
        c = self.cols
        names, parents, ops, starts, ends = (c["name"], c["parent"], c["op"],
                                             c["start"], c["end"])
        stack = self.stack
        perf = time.perf_counter
        count_maps = name == "iso.automorphisms"
        tracer = self

        def traced(*args, **kwargs):
            if stack and names[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if count_maps:
                tracer.maps += len(out)
            return out

        return functools.wraps(fn)(traced)

    def run_op(self, op_index: int, fn, *args):
        """Run one benchmark operation under a root span."""
        self.op = op_index
        return self._op_wrapper(fn, *args)

    # -- derivation ---------------------------------------------------------

    def derive(self) -> dict:
        """Calls and self time per span name, and the tree-shaped counts
        (pairwise tests per grouping call, draws per accepted opponent)."""
        c = self.cols
        names, parents, starts, ends = c["name"], c["parent"], c["start"], c["end"]
        n = len(names)
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = names[i]
            calls[k] += 1
            self_s[k] += ends[i] - starts[i] - child[i]
        nid = self.name_id
        find_in_group = draws = 0
        for i in range(n):
            p = parents[i]
            if p < 0:
                continue
            if names[i] == nid["iso.find_isomorphism"] and \
                    names[p] == nid["iso.group_by_isomorphism"]:
                find_in_group += 1
            elif names[i] == nid["iso.are_isomorphic"] and \
                    names[p] == nid["cli.opponent"]:
                draws += 1
        return {
            "calls": dict(zip(self.names, calls)),
            "self_s": dict(zip(self.names, self_s)),
            "find_in_group": find_in_group,
            "opponent_draws": draws,
            "automorphism_maps": self.maps,
        }

    # -- output -------------------------------------------------------------

    def write(self, stem: str, summary: dict) -> str:
        """Write the spans (binary columns, one after another, with their
        layout in the JSON) and the summary (JSON); return the JSON path."""
        spans_path = stem + ".spans"
        with open(spans_path, "wb") as fh:
            for col, _ in SPAN_COLUMNS:
                self.cols[col].tofile(fh)
        doc = dict(summary)
        doc["spans"] = {
            "file": spans_path.rsplit("/", 1)[-1],
            "count": len(self.cols["name"]),
            "columns": [list(c) for c in SPAN_COLUMNS],
            "names": self.names,
            "clock_origin": self.origin,
        }
        json_path = stem + ".json"
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        return json_path

