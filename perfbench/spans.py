"""Spans recorded from outside the library, and the per-layer numbers they give.

``Tracer.install`` rebinds every public function of the ``possinfo``
modules wherever the package binds it (``possinfo.info``,
``possinfo.continuous.level_measure``, ``possinfo.cli.info``,
``possinfo.inference.solve_lp`` ...) to a wrapper that records a span, so
a call made inside another wrapped call becomes its child.  Spans stay in
memory as lists ``[name, start, end, parent, call_id, warn_start,
warn_end, payload]`` and are written out once, at the end.

A span's self time is its duration minus the durations of its children;
children of one span never overlap because everything runs in one thread.
"""

import functools
import json
import os
import sys
import types
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, CALL, W0, W1, PAYLOAD = range(8)

# spans whose arguments or results the size counters read after the run
_PAYLOAD_SPANS = {
    "continuous.level_measure",
    "continuous.rearrange",
    "continuous.info_from_level",
    "approximation.discretize",
    "inference.solve_max_u",
    "inference.solve_min_distance",
    "documents.parse_distribution",
    "documents.parse_tau",
    "documents.parse_problem",
    "documents.serialize_distribution",
    "documents.serialize_tau",
    "documents.emit_csv",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.call_id = -1
        self.warnings = []  # the current call's recorded warnings; spans read its length
        self._bindings = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        keep = name in _PAYLOAD_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.call_id,
                   len(self.warnings), 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                rec[W1] = len(self.warnings)
                stack.pop()
            if keep:
                rec[PAYLOAD] = (args, kwargs, result)
            return result

        return traced

    def install(self):
        """Rebind possinfo's public functions in every possinfo module that binds them."""
        wrappers = {}
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or (mod_name != "possinfo" and not mod_name.startswith("possinfo.")):
                continue
            for attr, obj in list(vars(module).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__.startswith("possinfo.")
                ):
                    if obj not in wrappers:
                        span = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                        wrappers[obj] = self.wrap(span, obj)
                    self._bindings.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        return len(wrappers)

    def uninstall(self):
        for module, attr, obj in reversed(self._bindings):
            setattr(module, attr, obj)
        self._bindings.clear()

    def root(self, kind, call_id):
        """Span for one harness call; library spans made during it are its descendants."""
        self.call_id = call_id
        rec = [f"call.{kind}", 0.0, 0.0, -1, call_id, len(self.warnings), 0, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec):
        rec[W1] = len(self.warnings)
        self.stack.pop()

    def write(self, path):
        """One JSON line per span: name, start, end (seconds), parent index, call id."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[NAME], s[START], s[END], s[PARENT], s[CALL]]) + "\n")


def self_times(spans):
    """Per-span self time (seconds) and self warning count."""
    n = len(spans)
    child_time = [0.0] * n
    child_warn = [0] * n
    for s in spans:
        p = s[PARENT]
        if p >= 0:
            child_time[p] += s[END] - s[START]
            child_warn[p] += s[W1] - s[W0]
    return (
        [s[END] - s[START] - child_time[i] for i, s in enumerate(spans)],
        [s[W1] - s[W0] - child_warn[i] for i, s in enumerate(spans)],
    )


# ---------------------------------------------------------------------------
# per-layer metrics

# metric -> span names whose self times it sums
SELF_MS = {
    "continuous.level_measure.self_ms": ("continuous.level_measure",),
    "continuous.info.self_ms": ("continuous.info",),
    "continuous.rearrange.self_ms": ("continuous.rearrange",),
    "continuous.info_from_level.self_ms": ("continuous.info_from_level",),
    "continuous.product_level.self_ms": ("continuous.product_level",),
    "continuous.meet_join.self_ms": ("continuous.meet_pw", "continuous.join_pw"),
    "approximation.discretize.self_ms": ("approximation.discretize",),
    "measures.u_uncertainty.self_ms": ("measures.u_uncertainty",),
    "measures.distances.self_ms": (
        "measures.g_distance", "measures.big_g", "measures.big_h", "measures.big_k", "measures.info_tau",
    ),
    "discrete.lattice.self_ms": ("discrete.meet", "discrete.join", "discrete.min_product", "discrete.marginals"),
    "inference.solve_max_u.self_ms": ("inference.solve_max_u",),
    "inference.solve_min_distance.self_ms": ("inference.solve_min_distance",),
    "simplex.solve_lp.self_ms": ("simplex.solve_lp",),
    "documents.parse.self_ms": ("documents.parse_distribution", "documents.parse_tau", "documents.parse_problem"),
    "documents.serialize.self_ms": ("documents.serialize_distribution", "documents.serialize_tau", "documents.emit_csv"),
    "cli.run_command.self_ms": ("cli.run_command",),
}

# modules whose total self time is reported as <module>.self_ms
MODULES = ("continuous", "approximation", "measures", "discrete", "inference", "simplex", "documents", "cli")

COUNTS = {
    "continuous.breakpoints_in": "breakpoints of level_measure inputs",
    "continuous.level_pieces": "level pieces, from the input breakpoint values",
    "continuous.incidences": "(piece, spanning segment) incidences, from the input breakpoint values",
    "continuous.quad_pieces": "quadratic pieces of rearrange and info_from_level inputs",
    "continuous.rearranged_points": "breakpoints of rearrange outputs",
    "continuous.warnings": "warnings raised inside continuous spans",
    "approximation.samples": "grid samples drawn by discretize",
    "measures.u_uncertainty.calls": "u_uncertainty calls",
    "inference.orderings": "orderings enumerated, from solve_max_u certificates",
    "inference.descent_starts": "descent starts, from solve_min_distance certificates",
    "simplex.solve_lp.calls": "solve_lp calls",
    "simplex.feasible_point.calls": "feasible_point calls",
    "documents.bytes_in": "bytes of documents parsed",
    "documents.bytes_out": "bytes of documents and CSV files written",
}


def level_sizes(vs):
    """(level pieces, incidences) of level_measure on breakpoint values ``vs``.

    Pieces are the gaps between the distinct values together with 0 and 1;
    a non-constant segment spanning [lo, hi] is incident to every piece
    inside that range.
    """
    b = np.unique(np.concatenate(([0.0, 1.0], vs)))
    lo = np.minimum(vs[:-1], vs[1:])
    hi = np.maximum(vs[:-1], vs[1:])
    moving = lo != hi
    spans = np.searchsorted(b, hi[moving]) - np.searchsorted(b, lo[moving])
    return len(b) - 1, int(spans.sum())


def _quad_pieces(level):
    return sum(1 for c in level.coeffs if c[2] != 0.0)


def layer_metrics(spans):
    """Per-layer metrics of a traced run, as {name: (value, unit)}."""
    self_s, self_w = self_times(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    out = {}
    for metric, names in SELF_MS.items():
        out[metric] = (1e3 * sum(self_s[i] for n in names for i in by_name.get(n, ())), "ms")
    for module in MODULES:
        total = sum(self_s[i] for i, s in enumerate(spans) if s[NAME].split(".", 1)[0] == module)
        out[f"{module}.self_ms"] = (1e3 * total, "ms")

    def payloads(name):
        return [spans[i][PAYLOAD] for i in by_name.get(name, ()) if spans[i][PAYLOAD] is not None]

    counts = dict.fromkeys(COUNTS, 0)
    for args, kwargs, _ in payloads("continuous.level_measure"):
        vs = np.asarray((args[0] if args else kwargs["f"]).vs)
        pieces, incidences = level_sizes(vs)
        counts["continuous.breakpoints_in"] += len(vs)
        counts["continuous.level_pieces"] += pieces
        counts["continuous.incidences"] += incidences
    for name in ("continuous.rearrange", "continuous.info_from_level"):
        for args, kwargs, _ in payloads(name):
            counts["continuous.quad_pieces"] += _quad_pieces(args[0] if args else kwargs["level"])
    for _, _, result in payloads("continuous.rearrange"):
        counts["continuous.rearranged_points"] += len(result.points)
    counts["continuous.warnings"] = sum(
        self_w[i] for i, s in enumerate(spans) if s[NAME].startswith("continuous.")
    )
    for args, kwargs, _ in payloads("approximation.discretize"):
        counts["approximation.samples"] += int(args[1] if len(args) > 1 else kwargs["n"])
    counts["measures.u_uncertainty.calls"] = len(by_name.get("measures.u_uncertainty", ()))
    enumerated = optimal = 0
    for _, _, sol in payloads("inference.solve_max_u"):
        enumerated += len(sol.certificate.get("orderings", ()))
        optimal += len(sol.certificate.get("optimal_orderings", ()))
    counts["inference.orderings"] = enumerated
    for _, _, sol in payloads("inference.solve_min_distance"):
        counts["inference.descent_starts"] += int(sol.certificate.get("starts", 0))
    counts["simplex.solve_lp.calls"] = len(by_name.get("simplex.solve_lp", ()))
    counts["simplex.feasible_point.calls"] = len(by_name.get("simplex.feasible_point", ()))
    for name in ("documents.parse_distribution", "documents.parse_tau", "documents.parse_problem"):
        for i in by_name.get(name, ()):
            s = spans[i]
            nested = s[PARENT] >= 0 and spans[s[PARENT]][NAME].startswith("documents.parse")
            if s[PAYLOAD] is not None and not nested:
                args, kwargs, _ = s[PAYLOAD]
                counts["documents.bytes_in"] += len((args[0] if args else kwargs["text"]).encode("utf-8"))
    for name in ("documents.serialize_distribution", "documents.serialize_tau"):
        for _, _, text in payloads(name):
            counts["documents.bytes_out"] += len(text.encode("utf-8"))
    for args, kwargs, _ in payloads("documents.emit_csv"):
        path = args[1] if len(args) > 1 else kwargs["path"]
        counts["documents.bytes_out"] += os.path.getsize(path)

    for metric, value in counts.items():
        out[metric] = (value, "bytes" if metric.startswith("documents.bytes") else "count")
    out["inference.optimal_ordering_ratio"] = (optimal / enumerated if enumerated else 0.0, "ratio")
    return out
