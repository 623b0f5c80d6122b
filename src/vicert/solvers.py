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
_PROVEN = 1e149  # a bound ||x||_2 <= _PROVEN proves x finite and inside the limit
# rows a trace allocates up front; a longer run doubles its arrays as it goes,
# so a huge iteration count that diverges early allocates little
_FIRST_ROWS = 4096
# the extra trace columns of each method
_EXTRAS = {"eg": ("mid_sq",), "eg2": ("mid_sq",), "eftp": ("tilde_sq",),
           "hgm": ("grad_h_sq", "energy")}


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
            if name in takes:
                # a missing stepsize is NaN here, which fails the check
                numerics.require_positive(f"{self.method} {name}",
                                          math.nan if value is None else value)
            elif value is not None:
                raise BadParameters(f"{self.method} takes no {name}")
        object.__setattr__(self, "x0", numerics.as_vector(self.x0).copy())


@dataclass
class Trace:
    """Per-iteration record of a solver run, one scalar column entry per row.

    ``fx_sq[k] = ||F(x^k)||^2`` and ``dist_sq[k] = ||x^k - x*||^2`` when a
    solution was supplied.  Extras hold the method-specific columns.  No
    point is kept: run evaluates F at each one, so an operator that records
    its arguments sees them all.  ``f_evals`` counts the evaluations of F
    the run made; the pp resolvent and the hgm Jacobian are separate oracles
    and do not count.
    """

    method: str
    fx_sq: np.ndarray
    dist_sq: np.ndarray | None
    extras: dict[str, np.ndarray]
    diverged: bool = False
    f_evals: int = 0

    def __len__(self) -> int:
        return self.fx_sq.shape[0]

    def to_csv(self) -> str:
        cols = dict(sorted(self.extras.items()))
        header = "k,fx_sq,dist_sq" + "".join("," + name for name in cols) + "\n"
        # "%.17g" writes what serial.fmt17 writes, nan, inf and -0 included; a
        # trace without distances writes the nan of its dist_sq column literally
        dist = ",nan" if self.dist_sq is None else ",%.17g"
        row = "%d,%.17g" + dist + ",%.17g" * len(cols) + "\n"
        columns = [c.tolist() for c in (self.fx_sq, self.dist_sq, *cols.values()) if c is not None]
        return header + "".join(row % values for values in zip(range(len(self)), *columns))

    def save_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv())


# ---------------------------------------------------------------------------
# Run loop
# ---------------------------------------------------------------------------

def run(op: Operator, cfg: SolverConfig, x_star=None) -> Trace:
    """Run ``cfg.iters`` steps of the configured method and record a trace.

    Overflow never raises: the offending row is recorded (possibly infinite)
    and the trace stops with ``diverged=True``.  When F meets an overflowed
    point, the state it leads to is undefined and the trace ends on a row of
    NaNs.

    Inputs are checked here, once; the loop calls the unchecked
    ``op._apply`` and ``op._jacobian``.  A running upper bound on ||x||_2,
    built from the squared norms of the steps, proves the iterate finite and
    inside the divergence limit, and the eg mid point and the eftp tilde
    point finite, while it is at most 1e149; rows whose bound passes it
    check the point exactly instead.  Rows and F evaluations are those of a
    check of every point.  Each F value is computed once: og reuses F(x_prev), eftp reuses
    F at its tilde point, hgm reuses J(x)^T F(x).  F is ``op._apply``, called
    on x^k for every row, on the eg mid point for every row and on the eftp
    tilde point for every step, in that order.
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
    # bound >= ||x||_2.  A step x - c*g*v moves x by at most c*g*||v||, and ||v||
    # <= (1 - u)^-(d/2 + 2) * (sqrt(v @ v) + tiny), u = 2^-53: the dot rounds at most
    # d times, the root and the sum once each, tiny covers squares lost to underflow.
    # The step and the update round at most 7 times more: slack = 1 + (2d + 32)u
    # covers all; the tenfold margin of _PROVEN covers absolute errors near 2^-1074
    bound, x_max = math.inf, 0.0
    slack = 1.0 + (x.size + 16) * 2.0**-52
    tiny = math.sqrt(x.size) * 2.0**-537

    n = cfg.iters + 1
    # always one row more than the iterations fill, for the NaN row of an overflow
    size = min(n, _FIRST_ROWS) + 1
    fx_sq = np.empty(size)
    dist_sq = None if star is None else np.empty(size)
    extras = {name: np.empty(size) for name in _EXTRAS.get(method, ())}

    pp_comp = None   # pp resolvent, built at the first step
    f_prev = None    # og: F(x_prev)
    f_tilde = None   # eftp: F at the tilde point
    f_evals = 0
    rows = 0         # rows whose fx_sq and dist_sq are written
    full = 0         # rows whose extras are written too
    diverged = False
    for k in range(n):
        if k + 1 == size:
            size = min(2 * size, n + 1)
            # np.resize fills the new rows with repeats of the old ones; every
            # row is written before the trace reads it
            fx_sq = np.resize(fx_sq, size)
            dist_sq = None if star is None else np.resize(dist_sq, size)
            extras = {name: np.resize(col, size) for name, col in extras.items()}
        try:
            if not bound <= _PROVEN:
                # max|x| is NaN or inf exactly when x is not finite; an x_max
                # left from an earlier row is within the limit, or it stopped the run
                x_max = float(np.abs(x).max(initial=0.0))
                if not math.isfinite(x_max):
                    raise NonFinite("iterate overflowed")
                bound = math.sqrt(x.size) * x_max * slack
            fx = F(x)
            f_evals += 1
            fx_sq[k] = fsq = fx.dot(fx)
            root = math.sqrt(fsq) + tiny
            if star is not None:
                d = x - star
                dist_sq[k] = d.dot(d)
            rows = k + 1
            if method in ("eg", "eg2"):
                mid = x - g1 * fx
                if not bound + g1 * root <= _PROVEN:
                    numerics.as_vector(mid)
                fmid = F(mid)
                f_evals += 1
                extras["mid_sq"][k] = step_sq = fmid.dot(fmid)
            elif method == "eftp":
                if k == 0:
                    f_tilde, step_sq, t_root = fx, fsq, root  # the tilde point starts at x0
                extras["tilde_sq"][k] = step_sq
            elif method == "hgm":
                # @, not .dot: at d = 1, .dot is the bare product j*f, which is
                # -0.0 where the dot 0 + j*f of @ gives +0.0, and x - g*gh keeps the sign
                gh = op._jacobian(x).T @ fx
                extras["grad_h_sq"][k] = step_sq = gh.dot(gh)
            full = k + 1
            if not math.isfinite(fsq) or x_max > _DIVERGENCE_LIMIT:
                diverged = True
                break
            if k == cfg.iters:
                break

            if method == "gd":
                x = x - g * fx
                bound = (bound + g * root) * slack
            elif method == "pp":
                if pp_comp is None:
                    pp_comp = pp_operator(op, g)
                step = pp_comp._apply(x)
                x = x - g * step
                bound = (bound + g * (math.sqrt(step.dot(step)) + tiny)) * slack
            elif method in ("eg", "eg2"):
                x = x - g2 * fmid
                bound = (bound + g2 * (math.sqrt(step_sq) + tiny)) * slack
            elif method == "og":
                if k == 0:
                    f_prev, p_root = fx, root  # x_prev starts at x0
                x, f_prev = x - 2.0 * g * fx + g * f_prev, fx
                # the step's own 2*g, which is inf for g >= 2^1023 and then makes the bound inf
                bound, p_root = (bound + 2.0 * g * (root + 0.5 * p_root)) * slack, root
            elif method == "eftp":
                tilde = x - g * f_tilde
                if not bound + g * t_root <= _PROVEN:
                    numerics.as_vector(tilde)
                f_tilde = F(tilde)
                f_evals += 1
                step_sq = f_tilde.dot(f_tilde)
                t_root = math.sqrt(step_sq) + tiny
                x = x - g * f_tilde
                bound = (bound + g * t_root) * slack
            elif method == "hgm":
                x = x - g * gh
                bound = (bound + g * (math.sqrt(step_sq) + tiny)) * slack
        except NonFinite:
            # F met an overflowed point, so the state it leads to is undefined:
            # finish the current row, if any, and add one more, all NaN
            fx_sq[rows] = np.nan
            if dist_sq is not None:
                dist_sq[rows] = np.nan
            for col in extras.values():
                col[full:rows + 1] = np.nan
            rows += 1
            diverged = True
            break
    if method == "hgm":
        # 0.5 * ||F(x^k)||^2 for every full row at once, the same product as
        # row by row; the rows past full keep the NaN of an overflow
        extras["energy"][:full] = 0.5 * fx_sq[:full]

    def trim(a):
        if a is None:
            return None
        # a trace cut short lets go of the rows it did not use
        return a[:rows] if rows >= n else a[:rows].copy()

    return Trace(
        method=method,
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
