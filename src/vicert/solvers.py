"""Constant-stepsize iterative methods and a uniform trace-producing run loop.

Every method is available both as a pure step function and through
:func:`run`, which records per-iteration residual norms, distances to a
known solution, and method-specific extras.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import BadParameters, NonFinite
from .operators import Operator, pp_operator
from .serial import fmt17

_METHODS = ("gd", "pp", "eg", "eg2", "og", "eftp", "hgm")
_DIVERGENCE_LIMIT = 1e150
# the extra trace columns of each method; the "x_*" columns hold vectors
_EXTRAS = {"eg": ("mid_sq", "x_mid"), "eg2": ("mid_sq", "x_mid"),
           "eftp": ("tilde_sq", "x_tilde"), "hgm": ("grad_h_sq", "energy")}


@dataclass(frozen=True)
class SolverConfig:
    method: str
    gamma: float = 0.0
    iters: int = 0
    x0: np.ndarray = field(default_factory=lambda: np.zeros(0))
    gamma1: float | None = None
    gamma2: float | None = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise BadParameters(f"unknown method {self.method!r}")
        if self.iters < 0:
            raise BadParameters("iters must be nonnegative")
        if self.method == "eg2":
            if not (self.gamma1 and self.gamma2 and self.gamma1 > 0 and self.gamma2 > 0):
                raise BadParameters("eg2 needs positive gamma1 and gamma2")
        elif self.gamma <= 0.0:
            raise BadParameters("gamma must be positive")
        object.__setattr__(self, "x0", numerics.as_vector(self.x0).copy())


@dataclass
class Trace:
    """Per-iteration record of a solver run.

    ``xs[k]`` is the state at iteration k, ``fx_sq[k] = ||F(x^k)||^2``,
    ``dist_sq[k] = ||x^k - x*||^2`` when a solution was supplied.  Extras
    hold method-specific columns (and the auxiliary-iterate rows for the
    two-sequence methods).
    """

    method: str
    xs: np.ndarray
    fx_sq: np.ndarray
    dist_sq: np.ndarray | None
    extras: dict[str, np.ndarray]
    diverged: bool = False

    def __len__(self) -> int:
        return self.fx_sq.shape[0]

    def scalar_extras(self) -> dict[str, np.ndarray]:
        return {k: v for k, v in sorted(self.extras.items()) if v.ndim == 1}

    def to_csv(self) -> str:
        cols = self.scalar_extras()
        out = io.StringIO()
        out.write("k,fx_sq,dist_sq" + "".join("," + name for name in cols) + "\n")
        for k in range(len(self)):
            dist = self.dist_sq[k] if self.dist_sq is not None else float("nan")
            row = [str(k), fmt17(self.fx_sq[k]), fmt17(dist)]
            row += [fmt17(cols[name][k]) for name in cols]
            out.write(",".join(row) + "\n")
        return out.getvalue()

    def save_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv())


# ---------------------------------------------------------------------------
# Step rules
# ---------------------------------------------------------------------------

def gd_step(op: Operator, x, gamma: float) -> np.ndarray:
    return x - gamma * op(x)


def eg_step(op: Operator, x, gamma: float) -> np.ndarray:
    return x - gamma * op(x - gamma * op(x))


def eg2_step(op: Operator, x, gamma1: float, gamma2: float) -> np.ndarray:
    return x - gamma2 * op(x - gamma1 * op(x))


def og_step(op: Operator, x_cur, x_prev, gamma: float) -> np.ndarray:
    return x_cur - 2.0 * gamma * op(x_cur) + gamma * op(x_prev)


def eftp_step(op: Operator, x, x_tilde, gamma: float):
    xt_new = x - gamma * op(x_tilde)
    x_new = x - gamma * op(xt_new)
    return x_new, xt_new


def pp_step(op: Operator, x, gamma: float) -> np.ndarray:
    """The implicit update: returns x_plus solving x_plus = x - gamma*F(x_plus)."""
    return x - gamma * pp_operator(op, gamma)(x)


def pp_ell_step(op: Operator, x, gamma: float, ell: float) -> np.ndarray:
    """Explicit step x - gamma * F_pp(x) where F_pp resolves with stepsize 2/ell."""
    if ell <= 0.0:
        raise BadParameters("ell must be positive")
    return x - gamma * pp_operator(op, 2.0 / ell)(x)


def hgm_step(op: Operator, x, gamma: float) -> np.ndarray:
    return x - gamma * (op.jacobian(x).T @ op(x))


# ---------------------------------------------------------------------------
# Run loop
# ---------------------------------------------------------------------------

def run(op: Operator, cfg: SolverConfig, x_star=None) -> Trace:
    """Run ``cfg.iters`` steps of the configured method and record a trace.

    Overflow never raises: the offending row is recorded (possibly infinite)
    and the trace stops with ``diverged=True``.  When F meets an overflowed
    point, the state it leads to is undefined and the trace ends on a row of
    NaNs.
    """
    x = cfg.x0.copy()
    if x.size != op.dim:
        raise BadParameters(f"x0 has dim {x.size}, operator has dim {op.dim}")
    star = None if x_star is None else numerics.as_vector(x_star)

    method = cfg.method
    g = cfg.gamma
    g1 = cfg.gamma1 if cfg.gamma1 is not None else g
    g2 = cfg.gamma2 if cfg.gamma2 is not None else g

    pp_comp = pp_operator(op, g) if method == "pp" else None
    x_prev = x.copy()   # og state
    x_tilde = x.copy()  # eftp state

    xs, fx_sq, dist_sq = [], [], []
    extras: dict[str, list] = {name: [] for name in _EXTRAS.get(method, ())}

    diverged = False
    for k in range(cfg.iters + 1):
        try:
            fx = op(x)
            xs.append(x.copy())
            fx_sq.append(float(fx @ fx))
            if star is not None:
                d = x - star
                dist_sq.append(float(d @ d))
            if method in ("eg", "eg2"):
                mid = x - g1 * fx
                fmid = op(mid)
                extras["mid_sq"].append(float(fmid @ fmid))
                extras["x_mid"].append(mid)
            elif method == "eftp":
                ft = op(x_tilde)
                extras["tilde_sq"].append(float(ft @ ft))
                extras["x_tilde"].append(x_tilde.copy())
            elif method == "hgm":
                gh = op.jacobian(x).T @ fx
                extras["grad_h_sq"].append(float(gh @ gh))
                extras["energy"].append(0.5 * float(fx @ fx))
            if not np.isfinite(fx_sq[-1]) or float(np.abs(x).max(initial=0.0)) > _DIVERGENCE_LIMIT:
                diverged = True
                break
            if k == cfg.iters:
                break

            if method == "gd":
                x = x - g * fx
            elif method == "pp":
                x = x - g * pp_comp(x)
            elif method == "eg":
                x = x - g * fmid
            elif method == "eg2":
                x = x - g2 * fmid
            elif method == "og":
                x_new = x - 2.0 * g * fx + g * op(x_prev)
                x_prev, x = x, x_new
            elif method == "eftp":
                x_tilde = x - g * op(x_tilde)
                x = x - g * op(x_tilde)
            elif method == "hgm":
                x = x - g * (op.jacobian(x).T @ fx)
        except NonFinite:
            # F met an overflowed point, so the state it leads to is undefined:
            # finish the current row, if any, and add one more, all NaN
            length = len(xs) + 1
            for name, col in {"xs": xs, "fx_sq": fx_sq, "dist_sq": dist_sq, **extras}.items():
                fill = np.full(x.shape, np.nan) if name.startswith("x") else np.nan
                col.extend([fill] * (length - len(col)))
            diverged = True
            break

    packed_extras = {
        name: np.array(rows) for name, rows in extras.items() if rows
    }
    return Trace(
        method=method,
        xs=np.array(xs),
        fx_sq=np.array(fx_sq),
        dist_sq=np.array(dist_sq) if star is not None else None,
        extras=packed_extras,
        diverged=diverged,
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
