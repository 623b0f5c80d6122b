"""Layer tracing from outside vicert.

Layers are vicert's modules.  The tracer wraps every public function of
each layer module at every module attribute that holds it (so
``vicert.cli.run`` and ``vicert.harness.run`` are wrapped along with
``vicert.solvers.run``) and records one span per call with its parent and
request id.  The hot calls are counted without spans: ``Operator.__call__``
and ``jacobian`` on every subclass, and ``numerics.as_vector``.  Spans stay
in memory until ``dump``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("numerics", "operators", "solvers", "harness", "certify", "pep", "cli")

COMPOSE = ("eg_operator", "pp_operator", "og_operator", "eftp_operator")
CERTIFY_CHECKS = {
    "affine_cocoercivity_exact": "cocoercive-exact",
    "spectral_disk_check": "spectral-disk",
    "eg_affine_cocoercivity_check": "eg-affine",
    "og_noncocoercivity_witness": "og-witness",
    "linear_star_equiv_check": "star-equiv",
    "min_cocoercivity_ell": "min-ell",
}
KERNEL_SIZES = (5, 20, 50)
METHODS = ("gd", "pp", "eg", "eg2", "og", "eftp", "hgm")
BUILD_K = (5, 10, 15)


def _dim(args, kwargs, out):
    return int(np.shape(args[0])[0])


def _run_info(args, kwargs, out):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return {"method": cfg.method, "iters": len(out) - 1}


def _lower_bound_steps(fn):
    sig = inspect.signature(fn)

    def info(args, kwargs, out):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["rounds"] * bound.arguments["ascent_steps"]

    return info


def _problem_size(args, kwargs, out):
    return {"K": out.metadata.get("K"), "n": out.n,
            "m": len(out.inequalities) + len(out.equalities)}


INFO = {
    "lu_solve": _dim, "eigenvalues": _dim, "sym_eig": _dim,
    "run": _run_info,
    "to_csv": lambda a, k, out: len(out),
    "run_report": lambda a, k, out: len(out["checks"]),
    "build_norm_pep": _problem_size,
    "export_sdpa": lambda a, k, out: os.path.getsize(a[1]),
}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "request", "hidden",
                 "f0", "f1", "j0", "j1", "info")

    def __init__(self, name, layer, parent, request, f0, j0):
        self.name, self.layer, self.parent, self.request = name, layer, parent, request
        self.f0, self.j0 = f0, j0
        self.start = self.end = self.hidden = 0.0
        self.f1 = self.j1 = 0
        self.info = None

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Owns the spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.request: int | None = None
        self.f_evals = 0
        self.f_outer = 0
        self.f_time = 0.0
        self.jac_evals = 0
        self.as_vector_calls = 0
        self._in_f = False
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, layer: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, layer, parent, self.request, self.f_evals, self.jac_evals)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        span.f1, span.j1 = self.f_evals, self.jac_evals
        self.stack.pop()

    def _span_wrapper(self, fn, name, layer):
        info = _lower_bound_steps(fn) if name == "lower_bound_search" else INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(span)
            if info is not None:
                span.info = info(args, kwargs, out)
            return out

        return wrapper

    def _call_wrapper(self, fn):
        @functools.wraps(fn)
        def __call__(op, x):
            self.f_evals += 1
            if self._in_f:
                return fn(op, x)
            self._in_f = True
            t = perf_counter()
            try:
                return fn(op, x)
            finally:
                dt = perf_counter() - t
                self._in_f = False
                self.f_outer += 1
                self.f_time += dt
                if self.stack:
                    self.spans[self.stack[-1]].hidden += dt

        return __call__

    def _jac_wrapper(self, fn):
        @functools.wraps(fn)
        def jacobian(op, *args, **kwargs):
            self.jac_evals += 1
            return fn(op, *args, **kwargs)

        return jacobian

    def _count_as_vector(self, fn):
        @functools.wraps(fn)
        def as_vector(x):
            self.as_vector_calls += 1
            return fn(x)

        return as_vector

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, orig, wrapper, modules) -> None:
        """Point every module attribute that holds ``orig`` at ``wrapper``."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        import vicert
        # importing every layer module makes vars(vicert) list all of them
        from vicert import (certify, cli, harness, numerics, operators, pep,  # noqa: F401
                            solvers)

        modules = [m for name, m in sorted(vars(vicert).items())
                   if getattr(m, "__name__", "").startswith("vicert.")]
        # as_vector runs inside every F evaluation: counted, without a span
        self._replace_everywhere(numerics.as_vector,
                                 self._count_as_vector(numerics.as_vector), modules)
        for mod in modules:
            layer = mod.__name__.split(".")[1]
            if layer not in LAYERS:
                continue
            for name, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_") and name != "as_vector"):
                    self._replace_everywhere(fn, self._span_wrapper(fn, name, layer), modules)
        trace_cls = solvers.Trace
        self._undo.append((trace_cls, "to_csv", trace_cls.to_csv))
        trace_cls.to_csv = self._span_wrapper(trace_cls.to_csv, "to_csv", "solvers")
        for cls in vars(operators).values():
            if isinstance(cls, type) and issubclass(cls, operators.Operator):
                for attr, make in (("__call__", self._call_wrapper),
                                   ("jacobian", self._jac_wrapper)):
                    if attr in vars(cls):
                        orig = vars(cls)[attr]
                        self._undo.append((cls, attr, orig))
                        setattr(cls, attr, make(orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "layer": s.layer, "parent": s.parent,
                    "request": s.request, "start": s.start, "end": s.end,
                    "f_evals": s.f1 - s.f0, "info": s.info}) + "\n")

    def self_times(self) -> list[float]:
        """Span duration minus child spans and the (span-less) F calls in it."""
        covered = [s.hidden for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.dur
        return [s.dur - c for s, c in zip(self.spans, covered)]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and times of the traced pass (one request cycle)."""
        spans = self.spans
        own = self.self_times()
        by_name = defaultdict(list)
        for i, s in enumerate(spans):
            by_name[s.name].append(i)
        out: dict[str, float] = {}

        def total(name):
            return sum(spans[i].dur for i in by_name[name])

        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(t for s, t in zip(spans, own) if s.layer == layer)
        out["operators.self_s"] += self.f_time

        for kernel in ("sym_eig", "eigenvalues"):
            for n in KERNEL_SIZES:
                durs = [spans[i].dur for i in by_name[kernel] if spans[i].info == n]
                out[f"numerics.{kernel}.ms.n{n}"] = 1e3 * statistics.fmean(durs) if durs else 0.0
        for kernel in ("sym_eig", "eigenvalues", "lu_solve"):
            out[f"numerics.{kernel}.calls"] = len(by_name[kernel])
        out["numerics.as_vector.calls"] = self.as_vector_calls

        out["operators.f_evals"] = self.f_evals
        out["operators.call_us"] = 1e6 * self.f_time / self.f_outer if self.f_outer else 0.0
        out["operators.compose_s"] = sum(total(name) for name in COMPOSE)

        runs = [spans[i] for i in by_name["run"]]
        out["solvers.run.calls"] = len(runs)
        out["solvers.run.self_s"] = sum(own[i] for i in by_name["run"])
        for method in METHODS:
            mine = [s for s in runs if s.info["method"] == method]
            iters = sum(s.info["iters"] for s in mine)
            out[f"solvers.iter_us.{method}"] = (
                1e6 * sum(s.dur for s in mine) / iters if iters else 0.0)
            out[f"solvers.f_evals_per_iter.{method}"] = (
                sum(s.f1 - s.f0 for s in mine) / iters if iters else 0.0)
            if method == "hgm":
                out["solvers.jac_evals_per_iter.hgm"] = (
                    sum(s.j1 - s.j0 for s in mine) / iters if iters else 0.0)
        out["solvers.to_csv_s"] = total("to_csv")
        out["solvers.csv_bytes"] = sum(spans[i].info for i in by_name["to_csv"])

        out["harness.checks"] = sum(spans[i].info for i in by_name["run_report"])
        out["harness.standard_suite_s"] = total("standard_suite")
        out["harness.violation_search_s"] = total("check_eg_norm_violation_regimes")

        for fn, check in CERTIFY_CHECKS.items():
            top = [spans[i].dur for i in by_name[fn]
                   if spans[i].parent is not None and spans[spans[i].parent].name == "main"]
            out[f"certify.{check}.ms"] = 1e3 * statistics.fmean(top) if top else 0.0
        min_ell = set(by_name["min_cocoercivity_ell"])
        tests = sum(1 for i in by_name["affine_cocoercivity_exact"] if spans[i].parent in min_ell)
        out["certify.min_ell.pencil_tests"] = tests / len(min_ell) if min_ell else 0.0

        builds = [spans[i] for i in by_name["build_norm_pep"]]
        for K in BUILD_K:
            durs = [s.dur for s in builds if s.info["K"] == K]
            out[f"pep.build_s.K{K}"] = statistics.fmean(durs) if durs else 0.0
        k15 = [s.info for s in builds if s.info["K"] == 15]
        out["pep.constraints.K15"] = k15[0]["m"] if k15 else 0
        # dense constraint storage, computed from the sizes (not measured)
        out["pep.dense_mb.K15"] = k15[0]["m"] * k15[0]["n"] ** 2 * 8 / 1e6 if k15 else 0.0
        out["pep.export_sdpa_s"] = total("export_sdpa")
        out["pep.export_bytes"] = sum(spans[i].info for i in by_name["export_sdpa"])
        out["pep.parse_sdpa_s"] = total("parse_sdpa")
        out["pep.lower_bound_search_s"] = total("lower_bound_search")
        out["pep.ascent_steps"] = sum(spans[i].info for i in by_name["lower_bound_search"])
        out["pep.verify_point.calls"] = len(by_name["verify_point"])
        return out
