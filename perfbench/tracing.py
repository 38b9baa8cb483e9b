"""Traced mode: spans and counters around the calls into each module.

The program is not edited.  `install()` replaces each listed function or
method by a wrapper, and rebinds every name under which another symvertex
module imported it (including the values of module-level dicts such as the
CLI's route table), so that calls between modules are counted too.

A wrapper records one span per call: name, start, end, parent span and the
current query id.  A recursive call of a function already on the stack is
not a new span; it is part of the outer one.  Counts and times are
aggregated for every call; span records are kept up to SPAN_CAP per process
and only counted beyond it.  Memo hit ratios are read from memo growth:
a call that adds no entry to its memo is a hit.
"""

import importlib
import time

SPAN_CAP = 20000

# (module, attribute, metric name, memo dict whose growth marks a miss)
TARGETS = [
    ("partitions", "partitions_of", "partitions.partitions_of", None),
    ("schurring", "product_schur_pair", "schurring.product", "_product_memo"),
    ("schurring", "skew_schur_pair", "schurring.skew", "_skew_memo"),
    ("schurring", "SymFunc.__mul__", "schurring.symfunc_mul", None),
    ("schurring", "SymFunc.skew_by", "schurring.symfunc_skew", None),
    ("schurring", "PowerExpr.__mul__", "schurring.powerexpr_mul", None),
    ("schurring", "to_power", "schurring.to_power", None),
    ("schurring", "from_power", "schurring.from_power", None),
    ("plethysm", "plethysm", "plethysm.plethysm", None),
    ("plethysm", "series_term", "plethysm.series_term", "_series_memo"),
    ("plethysm", "pi_schur", "plethysm.pi_schur", None),
    ("plethysm", "cauchy_pi_schur", "plethysm.cauchy_pi_schur", None),
    ("plethysm", "cauchy_dual_pi_schur", "plethysm.cauchy_dual_pi_schur",
     None),
    ("plethysm", "pi_branch", "plethysm.pi_branch", None),
    ("plethysm", "pi_unbranch", "plethysm.pi_unbranch", None),
    ("vertexops", "apply_chain", "vertexops.apply_chain", None),
    ("vertexops", "mode", "vertexops.mode", None),
    ("vertexops", "_vertex_coefficient", "vertexops.vertex_coefficient",
     "_mode_memo"),
    ("vertexops", "NormalProduct.apply", "vertexops.normal_product_apply",
     None),
    ("oracle", "schur_poly", "oracle.schur_poly", None),
    ("oracle", "poly_mul", "oracle.poly_mul", None),
    ("oracle", "_poly_mul_big", "oracle.poly_mul_big", None),
    ("oracle", "decompose", "oracle.decompose", None),
    ("oracle", "oracle_product", "oracle.product", None),
    ("oracle", "oracle_plethysm", "oracle.plethysm", None),
    ("oracle", "oracle_pi_schur", "oracle.pi_schur", None),
    ("oracle", "oracle_dual_pi_schur", "oracle.dual_pi_schur", None),
    ("verifier", "verify_reordering", "verifier.reordering", None),
    ("verifier", "verify_zero_modes", "verifier.zero-modes", None),
    ("verifier", "verify_clifford", "verifier.clifford", None),
    ("verifier", "verify_multivertex", "verifier.multivertex", None),
    ("verifier", "verify_route_agreement", "verifier.theorem2", None),
    ("verifier", "verify_inverse_series", "verifier.inverse-series", None),
    ("jsonform", "dumps", "jsonform.dumps", None),
    ("config", "load_config", "config.load_config", None),
    ("cli", "main", "cli.main", None),
]

MODULES = ("partitions", "schurring", "plethysm", "vertexops", "oracle",
           "verifier", "jsonform", "config", "cli")


class Tracer:
    """Spans and per-name aggregates of one process."""

    def __init__(self):
        self.mods = {m: importlib.import_module("symvertex." + m)
                     for m in MODULES}
        # name -> [calls, inclusive s, self s, memo entries added]; the
        # wrappers hold these lists, so reset() clears them in place
        self.stats = {t[2]: [0, 0.0, 0.0, 0] for t in TARGETS}
        self.stack = []
        self.reset()

    def reset(self):
        """Forget everything recorded so far (a forked child starts here)."""
        for vals in self.stats.values():
            vals[:] = [0, 0.0, 0.0, 0]
        self.stack.clear()
        self.spans = []
        self.dropped = 0
        self.next_id = 0
        self.query = None
        self.memo_start = self.memo_sizes()

    def memo_sizes(self):
        """{module.memo name: entries} for every module-level memo dict."""
        out = {}
        for m, mod in self.mods.items():
            for name, val in vars(mod).items():
                if name.endswith("_memo") and isinstance(val, dict):
                    out["%s.%s" % (m, name)] = len(val)
        return out

    def wrap(self, name, fn, memo):
        stats, stack = self.stats[name], self.stack
        on_stack = [False]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if on_stack[0]:
                return fn(*args, **kwargs)
            on_stack[0] = True
            span_id = self.next_id
            self.next_id += 1
            parent = stack[-1][0] if stack else None
            before = len(memo) if memo is not None else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                on_stack[0] = False
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if memo is not None:
                    stats[3] += len(memo) - before
                if stack:
                    stack[-1][1] += dur
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, name, start, end, parent,
                                       self.query))
                else:
                    self.dropped += 1

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target and rebind every reference to it."""
        for modname, attr, name, memo_name in TARGETS:
            mod = self.mods[modname]
            memo = getattr(mod, memo_name) if memo_name else None
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = vars(cls)[meth]
                setattr(cls, meth, self.wrap(name, orig, memo))
                continue
            orig = getattr(mod, attr)
            self._rebind(orig, self.wrap(name, orig, memo))

    def _rebind(self, orig, new):
        for mod in self.mods.values():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)
                elif isinstance(val, dict) and not key.endswith("_memo"):
                    for k, v in list(val.items()):
                        if v is orig:
                            val[k] = new
                        elif isinstance(v, tuple) and orig in v:
                            val[k] = tuple(new if x is orig else x
                                           for x in v)

    def export(self):
        """JSON-ready aggregates, memo growth and span records."""
        end = self.memo_sizes()
        return {"stats": self.stats,
                "memo_added": {k: end[k] - self.memo_start.get(k, 0)
                               for k in end},
                "memo_entries": end,
                "spans": self.spans, "dropped": self.dropped}


class Collector:
    """Merges the exports of every traced child of a run."""

    def __init__(self):
        self.stats = {t[2]: [0, 0.0, 0.0, 0] for t in TARGETS}
        self.memo_added = {}
        self.max_memo_entries = {}
        self.spans = []
        self.dropped = 0
        self.children = 0

    def add(self, exported):
        """Merge one child's export; its spans are tagged with the child's
        number in the run."""
        pid = self.children
        self.children += 1
        for name, vals in exported["stats"].items():
            acc = self.stats[name]
            for i, v in enumerate(vals):
                acc[i] += v
        for k, v in exported["memo_added"].items():
            self.memo_added[k] = self.memo_added.get(k, 0) + v
        total = sum(exported["memo_entries"].values())
        in_oracle = sum(v for k, v in exported["memo_entries"].items()
                        if k.startswith("oracle."))
        for k, v in (("all", total), ("oracle", in_oracle)):
            self.max_memo_entries[k] = max(self.max_memo_entries.get(k, 0), v)
        self.spans.extend([pid] + list(s) for s in exported["spans"])
        self.dropped += exported["dropped"]

    def metrics(self, rounds, cases):
        """Per-layer metrics, counts and times per round."""
        out = {}
        for _, _, name, _ in TARGETS:
            calls, incl = self.stats[name][:2]
            out[name + "_calls"] = (calls / rounds, "count")
            out[name + "_s"] = (incl / rounds, "s")
        out["cli.main_self_s"] = (self.stats["cli.main"][2] / rounds, "s")

        def ratio(name):
            calls, added = self.stats[name][0], self.stats[name][3]
            return (calls - added) / calls if calls else 0.0

        out["schurring.char_values"] = (
            self.memo_added.get("schurring._char_memo", 0) / rounds, "count")
        out["schurring.product_memo_hit_ratio"] = (
            ratio("schurring.product"), "ratio")
        out["schurring.skew_memo_hit_ratio"] = (
            ratio("schurring.skew"), "ratio")
        out["plethysm.series_memo_hit_ratio"] = (
            ratio("plethysm.series_term"), "ratio")
        out["vertexops.vertex_coefficient_hit_ratio"] = (
            ratio("vertexops.vertex_coefficient"), "ratio")
        out["oracle.memo_entries"] = (
            self.max_memo_entries.get("oracle", 0), "count")
        out["memo.entries"] = (self.max_memo_entries.get("all", 0), "count")
        out["verifier.cases"] = (cases / rounds, "count")
        out["trace.spans"] = (len(self.spans), "count")
        out["trace.spans_dropped"] = (self.dropped, "count")
        return out
