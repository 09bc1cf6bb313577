"""Spans around the public functions of lpgraph's eight layers.

Modules bind some names at import (`from .simplex import solve_lp`), so a
function is wrapped under every name in lpgraph that refers to it, which is
where its callers look it up.  Spans (name, start, end, parent, op id and a
few attributes) stay in memory; `layer_metrics` reduces them when the run
ends.  A span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("graphs", "simplex", "exponents", "certificates", "rigidity",
          "grids", "estimator", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


def _lp_cells(args, kwargs, out) -> dict:
    """Tableau rows x columns of the exact simplex, from its arguments."""
    objective, rows = _arg(args, kwargs, 0, "objective"), _arg(args, kwargs, 1, "rows")
    slack = art = 0
    for _, rel, rhs in rows:
        if rhs < 0:  # the solver negates such rows, swapping <= and >=
            rel = {"<=": ">=", ">=": "<="}.get(rel, rel)
        slack += rel != "=="
        art += rel != "<="
    return {"cells": len(rows) * (len(objective) + slack + art + 1)}


def _arg(args, kwargs, pos: int, name: str, default=None):
    """An argument of a traced call, passed by position or by keyword."""
    return kwargs[name] if name in kwargs else (args[pos] if len(args) > pos else default)


# (module, name as bound there, span name, attributes from (args, kwargs, result))
FUNCTIONS = (
    ("cli", "main", "cli.main", None),
    ("cli", "emit_json", "cli.emit_json", None),
    ("graphs", "parse_graph", "graphs.parse", None),
    ("graphs", "contract_pendant_trees", "graphs.decompose", None),
    ("graphs", "block_decomposition", "graphs.decompose", None),
    ("simplex", "solve_lp", "simplex.solve_lp", _lp_cells),
    ("exponents", "hull_membership", "exponents.hull_membership", None),
    ("exponents", "sufficient_vertices", "exponents.sufficient_vertices", None),
    ("certificates", "certify", "certificates.certify",
     lambda a, k, out: {"status": out.status}),
    ("certificates", "replay", "certificates.replay",
     lambda a, k, out: {"ok": bool(out.ok)}),
    ("certificates", "tree_budget_lp", "certificates.tree_lp",
     lambda a, k, out: {"lex": bool(_arg(a, k, 4, "lex", True))}),
    ("rigidity", "regularity_probe", "rigidity.probe", None),
    ("rigidity", "solve_realization", "rigidity.solve_realization", None),
    ("rigidity", "leray_mc_form", "rigidity.mc",
     lambda a, k, out: {"samples": out.samples, "hits": out.shell_hits}),
    ("grids", "shift_cubic", "grids.shift_cubic",
     lambda a, k, out: {"cells": _arg(a, k, 0, "prefiltered").size}),
    ("grids", "cubic_prefilter", "grids.cubic_prefilter", None),
    ("grids", "lp_norm", "grids.lp_norm", None),
    ("estimator", "fftconvolve", "estimator.fftconvolve",
     lambda a, k, out: {"cells": _full_cells(_arg(a, k, 0, "in1").shape,
                                             _arg(a, k, 1, "in2").shape)}),
    ("estimator", "test_family", "estimator.test_family", None),
    ("estimator", "bilinear_radon", "estimator.bilinear_radon", None),
    ("estimator", "form_evaluate", "estimator.form_evaluate",
     lambda a, k, out: {"method": _arg(a, k, 3, "method", "auto")}),
    ("estimator", "circular_average", "estimator.circular_average", None),
    ("estimator", "scaling_experiment", "estimator.scaling_experiment", None),
    ("estimator", "ratio_experiment", "estimator.ratio_experiment", None),
    ("estimator", "kernel_decay_check", "estimator.kernel_decay_check", None),
)
# (module, class, method, span name)
METHODS = (
    ("grids", "GridField", "sample_bilinear", "grids.sample_bilinear"),
    ("estimator", "MollifiedCircleKernel", "raster", "estimator.raster"),
)
# spans whose self time is the layer's own work; leaves such as fftconvolve
# and raster are reported on their own
SELF_SPANS = {
    "certificates": ("certificates.certify", "certificates.replay", "certificates.tree_lp"),
    "estimator": ("estimator.form_evaluate", "estimator.bilinear_radon",
                  "estimator.circular_average", "estimator.scaling_experiment",
                  "estimator.ratio_experiment", "estimator.kernel_decay_check"),
}


def _full_cells(s1, s2) -> int:
    """Cells of the full linear convolution of two arrays."""
    out = 1
    for a, b in zip(s1, s2):
        out *= a + b - 1
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op: int | None = None

    def wrap(self, name: str, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0,
                        stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["raised"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, out))
            return out
        return traced

    def install(self) -> None:
        """Wrap every traced function under each name that binds it."""
        modules = [importlib.import_module("lpgraph")] + [
            importlib.import_module(f"lpgraph.{m}") for m in LAYERS]
        for mod_name, fname, span_name, attrs in FUNCTIONS:
            orig = getattr(importlib.import_module(f"lpgraph.{mod_name}"), fname)
            wrapped = self.wrap(span_name, orig, attrs)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
        for mod_name, cls_name, meth, span_name in METHODS:
            cls = getattr(importlib.import_module(f"lpgraph.{mod_name}"), cls_name)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(span_name, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def write(self, path, t0: float) -> None:
        """One JSON line per span; times in seconds from t0."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start - t0, "end": s.end - t0,
                                     "parent": s.parent, "op": s.op, **s.attrs}) + "\n")


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[_rank(p, len(xs)) - 1]


def tail_percentile(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile of (50, 75, 90, 95, 99, 99.9) that
    still has at least 10 values beyond it (nearest rank), with that
    percentile and the count beyond.  Below 20 values no percentile has 10
    beyond; the median is reported then, with its smaller count."""
    xs = sorted(values)
    n = len(xs)
    best = 50.0
    for p in (75.0, 90.0, 95.0, 99.0, 99.9):
        if n - _rank(p, n) >= 10:
            best = p
    rank = _rank(best, n)
    return xs[rank - 1], best, n - rank


def _rank(p: float, n: int) -> int:
    # nearest rank, computed in integers so 90% of 100 is exactly rank 90
    return max(1, -(-round(p * 10) * n // 1000))


def import_times(src: str, env: dict) -> dict[str, float]:
    """Cumulative import seconds from `python -X importtime`.

    cli.import_s is the whole of `import lpgraph.cli`: the package plus the
    cli module, both top level in the import tree.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lpgraph.cli"],
                          env={**env, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120, check=True)
    cum: dict[str, float] = {}
    top = 0.0
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        us, indent, name = int(m.group(1)), m.group(2), m.group(3)
        cum[name] = us / 1e6
        if name.split(".")[0] == "lpgraph" and len(indent) == 1:
            top += us / 1e6
    return {"cli.import_s": top,
            **{f"{m}.import_s": cum.get(f"lpgraph.{m}", 0.0)
               for m in ("graphs", "rigidity", "estimator")}}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in (("_per_s", "Mcells/s"), ("_us", "us"), ("_s", "s"),
                         ("_frac", "fraction")):
        if name.endswith(suffix):
            return unit
    return "cells" if "cells" in name else "count"


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-pass layer figures from the spans of `passes` traced passes."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.dur
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def pick(name, pred=None):
        return [spans[i] for i in by_name.get(name, ()) if pred is None or pred(spans[i])]

    def total(name, pred=None):
        return sum(s.dur for s in pick(name, pred)) / passes

    def calls(name, pred=None):
        return len(pick(name, pred)) / passes

    def self_time(names):
        return sum(spans[i].dur - child_time[i] for n in names
                   for i in by_name.get(n, ())) / passes

    lp_us = [s.dur * 1e6 for s in pick("simplex.solve_lp")]
    lp_cells = [s.attrs["cells"] for s in pick("simplex.solve_lp")]
    mc = pick("rigidity.mc", lambda s: "samples" in s.attrs)
    mc_samples = sum(s.attrs["samples"] for s in mc)
    shifts = pick("grids.shift_cubic")
    shift_s = sum(s.dur for s in shifts)
    return {
        "cli.emit_json_s": total("cli.emit_json"),
        "graphs.parse_s": total("graphs.parse"),
        "graphs.decompose_calls": calls("graphs.decompose"),
        "graphs.decompose_s": total("graphs.decompose"),
        "simplex.solve_lp_calls": calls("simplex.solve_lp"),
        "simplex.solve_lp_s": total("simplex.solve_lp"),
        "simplex.solve_lp_p50_us": percentile(lp_us, 50.0) if lp_us else 0.0,
        "simplex.solve_lp_tail_us": tail_percentile(lp_us)[0] if lp_us else 0.0,
        "simplex.tableau_cells_max": max(lp_cells, default=0),
        "simplex.tableau_cells_sum": sum(lp_cells) / passes,
        "exponents.hull_membership_s": total("exponents.hull_membership"),
        "exponents.sufficient_vertices_s": total("exponents.sufficient_vertices"),
        "certificates.self_s": self_time(SELF_SPANS["certificates"]),
        "certificates.tree_lp_calls": calls("certificates.tree_lp"),
        "certificates.tree_lp_plain_s": total("certificates.tree_lp", lambda s: not s.attrs.get("lex")),
        "certificates.tree_lp_lex_s": total("certificates.tree_lp", lambda s: s.attrs.get("lex")),
        "certificates.replay_s": total("certificates.replay"),
        "certificates.replay_failed": calls("certificates.replay", lambda s: s.attrs.get("ok") is False),
        **{f"certificates.{v}": calls("certificates.certify", lambda s, v=v: s.attrs.get("status") == v)
           for v in ("proven", "conditional", "unknown")},
        "rigidity.probe_calls": calls("rigidity.probe"),
        "rigidity.probe_s": total("rigidity.probe"),
        "rigidity.solve_realization_calls": calls("rigidity.solve_realization"),
        "rigidity.solve_realization_s": total("rigidity.solve_realization"),
        "rigidity.realization_not_found": calls(
            "rigidity.solve_realization", lambda s: s.attrs.get("raised") == "RealizationNotFound"),
        "rigidity.mc_s": total("rigidity.mc"),
        "rigidity.mc_samples": mc_samples / passes,
        "rigidity.mc_accept_frac": sum(s.attrs["hits"] for s in mc) / mc_samples if mc_samples else 0.0,
        "grids.shift_cubic_calls": calls("grids.shift_cubic"),
        "grids.shift_cubic_s": shift_s / passes,
        "grids.shift_cubic_mcells_per_s":
            sum(s.attrs["cells"] for s in shifts) / shift_s / 1e6 if shift_s else 0.0,
        "grids.cubic_prefilter_s": total("grids.cubic_prefilter"),
        "grids.sample_bilinear_s": total("grids.sample_bilinear"),
        "grids.lp_norm_s": total("grids.lp_norm"),
        "estimator.fftconvolve_calls": calls("estimator.fftconvolve"),
        "estimator.fftconvolve_s": total("estimator.fftconvolve"),
        "estimator.fft_cells_sum": sum(s.attrs.get("cells", 0) for s in pick("estimator.fftconvolve")) / passes,
        "estimator.raster_calls": calls("estimator.raster"),
        "estimator.raster_s": total("estimator.raster"),
        "estimator.test_family_s": total("estimator.test_family"),
        "estimator.bilinear_radon_calls": calls("estimator.bilinear_radon"),
        "estimator.bilinear_radon_s": total("estimator.bilinear_radon"),
        "estimator.direct_s": total("estimator.form_evaluate", lambda s: s.attrs.get("method") == "direct"),
        "estimator.self_s": self_time(SELF_SPANS["estimator"]),
    }
