"""Constant-stepsize iterative methods and the run loop that traces them.

:func:`run` is the one implementation of every update rule: it steps the
configured method and records per-iteration residual norms, distances to a
known solution, and method-specific extras.  The update operators of
:mod:`vicert.operators` give the same rules in closed form, for analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import BadParameters, NonFinite
from .operators import Operator, pp_operator

METHODS = ("gd", "pp", "eg", "eg2", "og", "eftp", "hgm")
_DIVERGENCE_LIMIT = 1e150
# rows a trace allocates up front; a longer run doubles its arrays as it goes,
# so a huge iteration count that diverges early allocates little
_FIRST_ROWS = 4096
# the extra trace columns of each method; the "x_*" columns hold vectors
_EXTRAS = {"eg": ("mid_sq", "x_mid"), "eg2": ("mid_sq", "x_mid"),
           "eftp": ("tilde_sq", "x_tilde"), "hgm": ("grad_h_sq", "energy")}


@dataclass(frozen=True)
class SolverConfig:
    """A method, its stepsizes and a start point.  eg2 takes the extrapolation
    stepsize ``gamma1`` and the update stepsize ``gamma2``; every other method
    takes ``gamma`` alone (eg is eg2 with gamma1 = gamma2 = gamma)."""

    method: str
    gamma: float | None = None
    iters: int = 0
    x0: np.ndarray = field(default_factory=lambda: np.zeros(0))
    gamma1: float | None = None
    gamma2: float | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise BadParameters(f"unknown method {self.method!r}")
        if self.iters < 0:
            raise BadParameters("iters must be nonnegative")
        takes = ("gamma1", "gamma2") if self.method == "eg2" else ("gamma",)
        for name in ("gamma", "gamma1", "gamma2"):
            value = getattr(self, name)
            if name not in takes:
                if value is not None:
                    raise BadParameters(f"{self.method} takes no {name}")
            elif value is None or not value > 0.0:
                raise BadParameters(f"{self.method} needs a positive {name}")
        object.__setattr__(self, "x0", numerics.as_vector(self.x0).copy())


@dataclass
class Trace:
    """Per-iteration record of a solver run.

    ``xs[k]`` is the state at iteration k, ``fx_sq[k] = ||F(x^k)||^2``,
    ``dist_sq[k] = ||x^k - x*||^2`` when a solution was supplied.  Extras
    hold method-specific columns (and the auxiliary-iterate rows for the
    two-sequence methods).  ``f_evals`` counts the evaluations of F the run
    made; the pp resolvent and the hgm Jacobian are separate oracles and do
    not count.
    """

    method: str
    xs: np.ndarray
    fx_sq: np.ndarray
    dist_sq: np.ndarray | None
    extras: dict[str, np.ndarray]
    diverged: bool = False
    f_evals: int = 0

    def __len__(self) -> int:
        return self.fx_sq.shape[0]

    def scalar_extras(self) -> dict[str, np.ndarray]:
        return {k: v for k, v in sorted(self.extras.items()) if v.ndim == 1}

    def to_csv(self) -> str:
        cols = self.scalar_extras()
        n = len(self)
        dist = self.dist_sq if self.dist_sq is not None else np.full(n, np.nan)
        header = "k,fx_sq,dist_sq" + "".join("," + name for name in cols) + "\n"
        # "%.17g" writes what serial.fmt17 writes, nan, inf and -0 included
        row = "%d" + ",%.17g" * (2 + len(cols)) + "\n"
        columns = [self.fx_sq.tolist(), dist.tolist(), *(c.tolist() for c in cols.values())]
        return header + "".join(row % values for values in zip(range(n), *columns))

    def save_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv())


# ---------------------------------------------------------------------------
# Run loop
# ---------------------------------------------------------------------------

def _check_finite(v: np.ndarray, zeros: np.ndarray) -> None:
    """Raise :class:`NonFinite` unless ``v`` is finite, at the cost of one dot
    product that cannot overflow: ``0 * v_i`` is 0 for a finite entry and NaN
    for an inf or a NaN."""
    if v @ zeros != 0.0:
        numerics.as_vector(v)


def _grown(a: np.ndarray, rows: int, size: int) -> np.ndarray:
    """``a`` with room for ``size`` rows, its first ``rows`` rows kept."""
    out = np.empty((size,) + a.shape[1:])
    out[:rows] = a[:rows]
    return out


def run(op: Operator, cfg: SolverConfig, x_star=None) -> Trace:
    """Run ``cfg.iters`` steps of the configured method and record a trace.

    Overflow never raises: the offending row is recorded (possibly infinite)
    and the trace stops with ``diverged=True``.  When F meets an overflowed
    point, the state it leads to is undefined and the trace ends on a row of
    NaNs.

    Inputs are checked here, once; the loop calls the unchecked
    ``op._apply`` and ``op._jacobian`` and checks only the points it creates
    and feeds to F (an iterate, the eg mid point, the eftp tilde point).
    Each F value is computed once: og reuses F(x_prev), eftp reuses
    F(x_tilde), hgm reuses J(x)^T F(x).
    """
    x = cfg.x0.copy()
    if x.size != op.dim:
        raise BadParameters(f"x0 has dim {x.size}, operator has dim {op.dim}")
    star = None if x_star is None else numerics.as_vector(x_star)

    method = cfg.method
    g = cfg.gamma
    # eg runs as eg2 with both stepsizes gamma
    g1, g2 = (cfg.gamma1, cfg.gamma2) if method == "eg2" else (g, g)
    F = op._apply
    zeros = np.zeros(x.size)

    n = cfg.iters + 1
    # always one row more than the iterations fill, for the NaN row of an overflow
    size = min(n, _FIRST_ROWS) + 1
    xs = np.empty((size, x.size))
    fx_sq = np.empty(size)
    dist_sq = None if star is None else np.empty(size)
    extras = {name: np.empty((size, x.size) if name.startswith("x") else size)
              for name in _EXTRAS.get(method, ())}

    pp_comp = None   # pp resolvent, built at the first step
    f_prev = None    # og: F(x_prev)
    x_tilde = x      # eftp state and its F value
    f_tilde = None
    f_evals = 0
    rows = 0         # rows whose x, fx_sq and dist_sq are written
    full = 0         # rows whose extras are written too
    diverged = False
    for k in range(n):
        if k + 1 == size:
            size = min(2 * size, n + 1)
            xs, fx_sq = _grown(xs, k, size), _grown(fx_sq, k, size)
            dist_sq = None if star is None else _grown(dist_sq, k, size)
            extras = {name: _grown(col, k, size) for name, col in extras.items()}
        try:
            # max|x| is NaN or inf exactly when x is not finite
            x_max = float(np.abs(x).max(initial=0.0))
            if not math.isfinite(x_max):
                raise NonFinite("iterate overflowed")
            fx = F(x)
            f_evals += 1
            xs[k] = x
            fx_sq[k] = fsq = fx @ fx
            if star is not None:
                d = x - star
                dist_sq[k] = d @ d
            rows = k + 1
            if method in ("eg", "eg2"):
                mid = x - g1 * fx
                _check_finite(mid, zeros)
                fmid = F(mid)
                f_evals += 1
                extras["mid_sq"][k] = fmid @ fmid
                extras["x_mid"][k] = mid
            elif method == "eftp":
                if k == 0:
                    f_tilde = fx  # x_tilde starts at x0
                extras["tilde_sq"][k] = f_tilde @ f_tilde
                extras["x_tilde"][k] = x_tilde
            elif method == "hgm":
                gh = op._jacobian(x).T @ fx
                extras["grad_h_sq"][k] = gh @ gh
                extras["energy"][k] = 0.5 * fsq
            full = k + 1
            if not math.isfinite(fsq) or x_max > _DIVERGENCE_LIMIT:
                diverged = True
                break
            if k == cfg.iters:
                break

            if method == "gd":
                x = x - g * fx
            elif method == "pp":
                if pp_comp is None:
                    pp_comp = pp_operator(op, g)
                x = x - g * pp_comp._apply(x)
            elif method in ("eg", "eg2"):
                x = x - g2 * fmid
            elif method == "og":
                if k == 0:
                    f_prev = fx  # x_prev starts at x0
                x, f_prev = x - 2.0 * g * fx + g * f_prev, fx
            elif method == "eftp":
                x_tilde = x - g * f_tilde
                _check_finite(x_tilde, zeros)
                f_tilde = F(x_tilde)
                f_evals += 1
                x = x - g * f_tilde
            elif method == "hgm":
                x = x - g * gh
        except NonFinite:
            # F met an overflowed point, so the state it leads to is undefined:
            # finish the current row, if any, and add one more, all NaN
            for col in (xs, fx_sq, dist_sq):
                if col is not None:
                    col[rows] = np.nan
            for col in extras.values():
                col[full:rows + 1] = np.nan
            rows += 1
            diverged = True
            break

    def trim(a):
        if a is None:
            return None
        # a trace cut short lets go of the rows it did not use
        return a[:rows] if rows >= n else a[:rows].copy()

    return Trace(
        method=method,
        xs=trim(xs),
        fx_sq=trim(fx_sq),
        dist_sq=trim(dist_sq),
        extras={name: trim(col) for name, col in extras.items()},
        diverged=diverged,
        f_evals=f_evals,
    )


def average_sq_norm(trace: Trace) -> float:
    """(1/(K+1)) * sum_k ||F(x^k)||^2; the two-sequence method averages its
    auxiliary iterates instead."""
    if len(trace) == 0:
        raise BadParameters("empty trace")
    if trace.method == "eftp":
        vals = trace.extras["tilde_sq"]
    else:
        vals = trace.fx_sq
    return float(vals.sum() / vals.shape[0])
