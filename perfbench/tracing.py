"""Spans and counters around nodeflow's public functions, for the traced run.

Each wrapped function is replaced at every module attribute that holds it
(``solve_te_mf`` and ``max_set_flow`` are imported by name into ``wflow``
and ``centrality``; ``lp.solve`` and ``network.enumerate_st_paths`` are
looked up through their module), so callers reach the wrapper however they
name the function.  Spans are kept in memory as [name, start, end, parent,
op] lists and written out once the run ends.  ``rat`` is only counted: a
span per call would cost more than the call.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name)
TARGETS = [
    ("lp", "solve", "lp.solve"),
    ("network", "enumerate_st_paths", "network.enumerate"),
    ("te", "solve_te_mf", "te.solve_te_mf"),
    ("wflow", "max_w_flow_exact", "wflow.max_w_flow_exact"),
    ("wflow", "max_set_flow", "wflow.max_set_flow"),
    ("wflow", "build_transform", "wflow.build_transform"),
    ("wflow", "solve_transform", "wflow.solve_transform"),
    ("centrality", "flow_centrality", "centrality.flow_centrality"),
    ("centrality", "pair_max_flow", "centrality.pair_max_flow"),
    ("centrality", "pair_w_flow", "centrality.pair_w_flow"),
    ("srte", "shortest_path_data", "srte.spd"),
    ("srte", "ecmp_fractions", "srte.ecmp"),
    ("srte", "solve_sr_lu", "srte.solve_sr_lu"),
    ("srte", "solve_sr_mf", "srte.solve_sr_mf"),
    ("srte", "_sr_lp", "srte.sr_lp"),
    ("fileio", "load_instance", "fileio.load"),
    ("fileio", "instance_hash", "fileio.hash"),
    ("cli", "main", "cli.main"),
]

# The per-layer metrics, in the order they are printed.
LAYER_METRICS = [
    ("lp.calls", "count"), ("lp.self_s", "s"), ("lp.share", "ratio"),
    ("lp.pivots", "count"), ("lp.ms_per_pivot", "ms"), ("lp.cols_max", "count"),
    ("lp.rows_max", "count"), ("lp.nnz_max", "count"),
    ("rational.rat_calls", "count"),
    ("network.enum_calls", "count"), ("network.enum_s", "s"),
    ("network.walks", "count"), ("network.walks_max", "count"),
    ("te.calls", "count"), ("te.self_s", "s"), ("te.cols", "count"),
    ("te.cols_used_ratio", "ratio"),
    ("wflow.transform_calls", "count"), ("wflow.transform_self_s", "s"),
    ("centrality.reports", "count"), ("centrality.pair_max_flow_calls", "count"),
    ("centrality.pair_max_flow_s", "s"), ("centrality.pair_w_flow_calls", "count"),
    ("centrality.pair_w_flow_s", "s"), ("centrality.lp_per_report", "count"),
    ("srte.spd_calls", "count"), ("srte.spd_s", "s"), ("srte.ecmp_calls", "count"),
    ("srte.ecmp_s", "s"), ("srte.tunnels", "count"), ("srte.self_s", "s"),
    ("fileio.load_s", "s"), ("fileio.hash_s", "s"),
    ("cli.self_s", "s"),
    ("trace.spans", "count"), ("trace.solves_per_s", "1/s"),
    ("trace.untraced_solves_per_s", "1/s"), ("trace.overhead_solves_per_s", "1/s"),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.rat_calls = 0
        self.stats = defaultdict(list)   # span name -> per-call records
        self._restore = []

    # -- recording ------------------------------------------------------------

    def _open(self, name):
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self.stack.pop()

    def run_op(self, op_id, fn, *args):
        """Run one benchmark op inside a root span."""
        self.op = op_id
        rec = self._open("op")
        try:
            return fn(*args)
        finally:
            self._close(rec)

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            record = _RECORDERS.get(name)
            if record is not None:
                tracer.stats[name].append(record(args, kwargs, result))
            return result

        return traced

    def _count_rat(self, rat):
        tracer = self

        def counted(*args):
            tracer.rat_calls += 1
            return rat(*args)

        return counted

    # -- installing ---------------------------------------------------------------

    def install(self, nf):
        """Replace each target at every nodeflow module attribute holding it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "nodeflow" or name.startswith("nodeflow."))]
        swaps = [(getattr(getattr(nf, mod), attr), self._wrap(span, getattr(getattr(nf, mod), attr)))
                 for mod, attr, span in TARGETS]
        swaps.append((nf.rational.rat, self._count_rat(nf.rational.rat)))
        for original, replacement in swaps:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, replacement)

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore = []

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)

    # -- metrics ------------------------------------------------------------------

    def metrics(self, wall):
        """Per-layer metrics from the recorded spans.  ``*_self_s`` is span
        time minus the time of its child spans; other ``*_s`` are whole span
        times.  ``wall`` is the traced phase's duration."""
        n = len(self.spans)
        child = [0.0] * n
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
        lp = self.stats["lp.solve"]
        pivots = sum(r["pivots"] for r in lp)
        te = self.stats["te.solve_te_mf"]
        te_cols = sum(r["cols"] for r in te)
        walks = [r["walks"] for r in self.stats["network.enumerate"]]
        reports = calls["centrality.flow_centrality"]

        def ratio(a, b):
            return a / b if b else 0.0

        values = {
            "lp.calls": calls["lp.solve"], "lp.self_s": own["lp.solve"],
            "lp.share": ratio(own["lp.solve"], wall), "lp.pivots": pivots,
            "lp.ms_per_pivot": ratio(1000 * own["lp.solve"], pivots),
            "lp.cols_max": max((r["cols"] for r in lp), default=0),
            "lp.rows_max": max((r["rows"] for r in lp), default=0),
            "lp.nnz_max": max((r["nnz"] for r in lp), default=0),
            "rational.rat_calls": self.rat_calls,
            "network.enum_calls": calls["network.enumerate"],
            "network.enum_s": total["network.enumerate"],
            "network.walks": sum(walks), "network.walks_max": max(walks, default=0),
            "te.calls": calls["te.solve_te_mf"], "te.self_s": own["te.solve_te_mf"],
            "te.cols": te_cols,
            "te.cols_used_ratio": ratio(sum(r["used"] for r in te), te_cols),
            "wflow.transform_calls": calls["wflow.solve_transform"],
            "wflow.transform_self_s": (own["wflow.build_transform"]
                                       + own["wflow.solve_transform"]
                                       + own["wflow.max_set_flow"]),
            "centrality.reports": reports,
            "centrality.pair_max_flow_calls": calls["centrality.pair_max_flow"],
            "centrality.pair_max_flow_s": total["centrality.pair_max_flow"],
            "centrality.pair_w_flow_calls": calls["centrality.pair_w_flow"],
            "centrality.pair_w_flow_s": total["centrality.pair_w_flow"],
            "centrality.lp_per_report": ratio(calls["lp.solve"], reports),
            "srte.spd_calls": calls["srte.spd"], "srte.spd_s": total["srte.spd"],
            "srte.ecmp_calls": calls["srte.ecmp"], "srte.ecmp_s": own["srte.ecmp"],
            "srte.tunnels": sum(r["tunnels"] for r in self.stats["srte.sr_lp"]),
            "srte.self_s": own["srte.sr_lp"],
            "fileio.load_s": total["fileio.load"], "fileio.hash_s": total["fileio.hash"],
            "cli.self_s": own["cli.main"],
            "trace.spans": n,
        }
        return values


def _lp_record(args, kwargs, sol):
    prog = args[0] if args else kwargs["lp"]
    return {"pivots": sol.pivots, "cols": len(prog.variables),
            "rows": len(prog.constraints) + len(prog.upper_bounds),
            "nnz": sum(len(c.coeffs) for c in prog.constraints) + len(prog.upper_bounds)}


def _te_record(args, kwargs, sol):
    families = args[1] if len(args) > 1 else kwargs.get("families")
    cols = sum(len(f.paths) for f in families) if families is not None else 0
    return {"cols": cols, "used": sum(len(v) for v in sol.flows.values())}


_RECORDERS = {
    "lp.solve": _lp_record,
    "network.enumerate": lambda args, kwargs, fam: {"walks": len(fam.paths)},
    "te.solve_te_mf": _te_record,
    "srte.sr_lp": lambda args, kwargs, res: {
        "tunnels": sum(len(t) for t in res[0].tunnels_per_commodity)},
}
