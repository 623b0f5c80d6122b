"""Constant-stepsize iterative methods and the run loop that traces them.

:func:`run` is the one implementation of every update rule: it steps the
configured method and records per-iteration residual norms, distances to a
known solution, and method-specific extras.  The update operators of
:mod:`vicert.operators` give the same rules in closed form, for analysis.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import BadParameters, NonFinite, VicertError
from .operators import Affine, Operator, pp_operator

METHODS = ("gd", "pp", "eg", "eg2", "og", "eftp", "hgm")
_DIVERGENCE_LIMIT = 1e150
_PROVEN = 1e149  # a bound ||x||_2 <= _PROVEN proves x finite and inside the limit
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
        """A header and one line per row.  The body is one ``%``: the row
        template repeated once per row, applied to all values interleaved."""
        cols = dict(sorted(self.extras.items()))
        header = "k,fx_sq,dist_sq" + "".join("," + name for name in cols) + "\n"
        # "%.17g" writes what serial.fmt17 writes, nan, inf and -0 included; a
        # trace without distances writes the nan of its dist_sq column literally
        dist = ",nan" if self.dist_sq is None else ",%.17g"
        row = "%d,%.17g" + dist + ",%.17g" * len(cols) + "\n"
        columns = [range(len(self))]
        columns += [c.tolist() for c in (self.fx_sq, self.dist_sq, *cols.values()) if c is not None]
        values = [None] * (len(self) * len(columns))
        for i, column in enumerate(columns):
            values[i::len(columns)] = column
        return header + row * len(self) % tuple(values)


# ---------------------------------------------------------------------------
# Run loop
# ---------------------------------------------------------------------------

def _max_abs(x: np.ndarray) -> float:
    return float(np.abs(x).max(initial=0.0))


def _jt_f_array(J: np.ndarray, f: np.ndarray) -> np.ndarray:
    # @, not .dot: at d = 1, .dot is the bare product j*f, which is -0.0
    # where the dot 0 + j*f of @ gives +0.0, and x - g*gh keeps the sign
    return J.T @ f


def _jt_f_float(j: float, f: float) -> float:
    return 0.0 + j * f


def _gemv_matrix(f):
    """For an Affine's own ``_apply`` without a shift, its matrix, whose gemv
    ``matrix.dot`` gives the same bits with no Python frame per call; None
    for any other F."""
    if getattr(f, "__func__", None) is Affine._apply and f.__self__._shift is None:
        return f.__self__.matrix
    return None


def _resolved(f):
    """``f``, or the gemv ``matrix.dot`` of an Affine's own ``_apply``
    without a shift."""
    A = _gemv_matrix(f)
    return f if A is None else A.dot


def _checked(op: Operator, cfg: SolverConfig, x_star):
    """``run``'s input checks: the start and the solution point, which is
    returned checked, must be of the operator's dimension."""
    if cfg.x0.size != op.dim:
        raise BadParameters(f"x0 has dim {cfg.x0.size}, operator has dim {op.dim}")
    return None if x_star is None else op._checked(x_star, "x_star")


def run(op: Operator, cfg: SolverConfig, x_star=None) -> Trace:
    """Run ``cfg.iters`` steps of the configured method and record a trace.

    Overflow never raises: the offending row is recorded (possibly infinite)
    and the trace stops with ``diverged=True``.  When F meets an overflowed
    point, the state it leads to is undefined and the trace ends on a row of
    NaNs.

    Inputs are checked here, once: an ``x_star`` not of the operator's
    dimension raises :class:`DimensionMismatch`.  Each F value is computed
    once: og reuses F(x_prev), eftp reuses g*F at its tilde point, hgm reuses
    J(x)^T F(x).  F is ``op._apply``, called on x^k for every row, on the eg
    mid point for every row and on the eftp tilde point for every step, in
    that order.

    Where F is an Affine's own ``_apply`` without a shift (and, for hgm, the
    Jacobian its own matrix), the run is stepped in blocks of 256 rows: each
    row makes only the update's gemv and vector products, and each block
    computes its squared norms in one stacked call and checks, on the whole
    block at once, that no row overflowed or passed the divergence limit.  A
    run that fails the check is made again, from its first row, by the
    per-row loop, which checks each row as it makes it and alone stops a
    run, writes its NaN rows and emits its overflow warnings; the trace is
    the same, bit for bit, either way.
    """
    return _run_checked([(op, cfg, _checked(op, cfg, x_star))])[0]


def run_many(runs) -> list[Trace]:
    """``[run(op, cfg, x_star) for op, cfg, x_star in runs]``, bit for bit,
    diverged flags and F counts included, with every input checked before
    any run.  Block-stepped runs that share method, dimension and length
    are stepped in lockstep, one stacked gemv per row for all of them; a run
    that fails the block check is made again alone by the per-row loop."""
    return _run_checked([(op, cfg, _checked(op, cfg, x_star)) for op, cfg, x_star in runs])


def _block_matrix(op: Operator, method: str):
    """The matrix the block kernel steps ``op`` with, or None where the run
    needs the per-row loop.  The matrix must be C-contiguous (an F-ordered one
    sends ``dot`` to the other gemv kernel), and hgm needs the Affine's own
    Jacobian."""
    A = _gemv_matrix(op._apply)
    if A is None or not A.flags.c_contiguous:
        return None
    if method == "hgm" and getattr(op._jacobian, "__func__", None) is not Affine._jacobian:
        return None
    return A


def _run_checked(runs) -> list[Trace]:
    """The traces of checked (op, cfg, x_star) runs, in order."""
    traces: list[Trace | None] = [None] * len(runs)
    groups: dict[tuple, list[int]] = {}
    for i, (op, cfg, star) in enumerate(runs):
        if _block_matrix(op, cfg.method) is None:
            traces[i] = _run_rows(op, cfg, star)
        else:
            groups.setdefault((cfg.method, op.dim, cfg.iters), []).append(i)
    for members in groups.values():
        with np.errstate(all="ignore"):
            fast = _run_blocks([runs[i] for i in members])
        for i, trace in zip(members, fast):
            traces[i] = trace if trace is not None else _run_rows(*runs[i])
    return traces


# rows per block: a block's buffers hold at most four vectors a row, about
# 0.4 MB a run at d = 50
_BLOCK = 256


def _stacked_gemv(M: np.ndarray, transposed: bool):
    """x, out -> out[r] = M[r] @ x[r] (M[r].T @ x[r]) for a stack of runs."""
    return lambda x, out: numerics.matvecs(M, x, out=out, transposed=transposed)


def _run_blocks(runs) -> list[Trace | None]:
    """The traces of checked runs that share method, dimension and length
    and have a ``_block_matrix``, stepped in lockstep; None for each run
    that fails the block check.  Called with every floating-point warning
    off: a run that would warn overflows, and is left to the per-row loop.

    Row by row, the runs make the per-row loop's vectors with its
    operations, so with its bits: one gemv per F value, through
    :func:`numerics.matvecs` on the stacked matrices (``ndarray.dot`` for a
    single run), and the products of the update.  After each block, one
    :func:`numerics.row_dots` call gives every squared norm, and the block
    is accepted for a run when they are all finite and no iterate passes the
    divergence limit.  Then the per-row loop would stop nowhere and make no
    overflow: its rows, F count and flags are those the block gives.
    """
    op0, cfg0, _ = runs[0]
    method, dim, iters = cfg0.method, op0.dim, cfg0.iters
    R = len(runs)
    A = np.stack([_block_matrix(op, method) for op, _, _ in runs])
    ok = np.ones(R, dtype=bool)
    if method == "eg2":
        g1 = np.array([cfg.gamma1 for _, cfg, _ in runs])
        g = np.array([cfg.gamma2 for _, cfg, _ in runs])
    else:
        g = g1 = np.array([cfg.gamma for _, cfg, _ in runs])
    P = None
    if method == "pp" and iters > 0:
        P = np.zeros_like(A)
        for r, (op, cfg, _) in enumerate(runs):
            try:
                M = _block_matrix(pp_operator(op, cfg.gamma), "pp")
            except VicertError:
                M = None  # the per-row loop meets the failure at its first step
            if M is None:
                ok[r] = False
            else:
                P[r] = M
    stars = [star for _, _, star in runs]
    has_star = any(star is not None for star in stars)
    if has_star:
        # a run without a solution point gets the norms of its x, which no trace reads
        star = np.stack([np.zeros(dim) if s is None else s for s in stars])

    # buffers: X[i] holds x of row i of the block and X[n] the next block's
    # first; V[i] holds row i's vectors to square: F(x), the second product
    # (eg F(mid), pp's resolvent step, eftp F(tilde), hgm J^T F), x - x*
    second = method in ("pp", "eg", "eg2", "eftp", "hgm")
    slots = 1 + second + has_star
    rows = min(_BLOCK, iters + 1)
    X = np.empty((rows + 1, R, dim))
    X[0] = [cfg.x0 for _, cfg, _ in runs]
    V = np.zeros((rows, slots, R, dim))
    # each stepsize fills the rows of its run: a product with it is the
    # per-row loop's product with the scalar, without broadcasting
    G, G1 = (np.repeat(v[:, None], dim, axis=1) for v in (g, g1))
    G2 = 2.0 * G  # og's 2.0*g, the bits of the Python float product
    if R == 1:
        # one run steps 1-D rows with the gemv ndarray.dot of its per-row
        # loop, without stacked matmul's dispatch
        Xs, Vs, G, G1, G2 = X[:, 0], V[:, :, 0], G[0], G1[0], G2[0]
        F, JT = A[0].dot, A[0].T.dot
        FP = None if P is None else P[0].dot
    else:
        Xs, Vs = X, V
        F, JT = _stacked_gemv(A, False), _stacked_gemv(A, True)
        FP = None if P is None else _stacked_gemv(P, False)
    tmp, tmp2, gf = (np.empty(Xs.shape[1:]) for _ in range(3))
    # each row's x, F(x) and second product as views made once: a list
    # index costs less than an array index, row after row
    xs, fxs, seconds = list(Xs), list(Vs[:, 0]), list(Vs[:, 1 if second else 0])
    mul, sub, add = np.multiply, np.subtract, np.add
    eg = method in ("eg", "eg2")
    gd, pp, og, eftp, hgm = (method == m for m in ("gd", "pp", "og", "eftp", "hgm"))

    blocks = []
    k = 0
    while k <= iters and ok.any():
        n = min(rows, iters + 1 - k)
        steps = min(n, iters - k)   # the block's rows that step; the run's last row does not
        for i in range(n):
            x, fx, v = xs[i], fxs[i], seconds[i]
            F(x, out=fx)
            if eg:
                mul(G1, fx, out=tmp)
                sub(x, tmp, out=tmp)
                F(tmp, out=v)
            elif hgm:
                JT(fx, out=v)
            if i == steps:
                break
            x_next = xs[i + 1]
            if gd:
                mul(G, fx, out=tmp)
            elif og:
                # x - 2.0*g*fx + g*f_prev, f_prev = F(x_prev) and x_prev = x0 at k = 0
                mul(G2, fx, out=tmp)
                sub(x, tmp, out=tmp)
                mul(G, fx if k + i == 0 else fxs[i - 1], out=tmp2)
                add(tmp, tmp2, out=x_next)
                continue
            elif eftp:
                # one product g*F(tilde) moves x and makes the next tilde point
                if k + i == 0:
                    mul(G, fx, out=gf)
                sub(x, gf, out=tmp)
                F(tmp, out=v)
                mul(G, v, out=gf)
                sub(x, gf, out=x_next)
                continue
            else:
                if pp:
                    FP(x, out=v)
                mul(G, v, out=tmp)
            sub(x, tmp, out=x_next)
        if has_star:
            sub(X[:n], star, out=V[:n, -1])
        sq = numerics.row_dots(V[:n], V[:n])   # (n, slots, R)
        # the per-row loop's own stopping rule, on the whole block: a squared
        # norm that is not finite, or max|x| past the divergence limit.  An
        # iterate, mid point, tilde point or resolvent step that is not finite
        # makes the gemv's product, and so its squared norm, not finite
        ok &= (np.isfinite(sq).all(axis=(0, 1))
               & (np.abs(X[:n]).max(axis=(0, 2)) <= _DIVERGENCE_LIMIT))
        blocks.append(sq)
        X[0] = X[n]
        k += n

    if not ok.any():
        return [None] * R
    sq = np.concatenate(blocks)
    f_evals = {"eg": 2 * (iters + 1), "eg2": 2 * (iters + 1), "eftp": 2 * iters + 1}
    traces = []
    for r in range(R):
        if not ok[r]:
            traces.append(None)
            continue
        fx_sq = sq[:, 0, r].copy()
        dist_sq = None if stars[r] is None else sq[:, -1, r].copy()
        extras = {}
        if eg or hgm:
            extras[_EXTRAS[method][0]] = sq[:, 1, r].copy()
        elif eftp:
            # the tilde point starts at x0; row k + 1 holds step k's tilde point
            extras["tilde_sq"] = np.concatenate([sq[:1, 0, r], sq[:iters, 1, r]])
        if hgm:
            extras["energy"] = 0.5 * fx_sq
        traces.append(Trace(method, fx_sq, dist_sq, extras, False,
                            f_evals.get(method, iters + 1)))
    return traces


def _run_rows(op: Operator, cfg: SolverConfig, star) -> Trace:
    """``run`` row by row, on checked inputs.

    A running upper bound on ||x||_2, built from the squared norms of the
    steps, proves the iterate finite and inside the divergence limit, and
    the eg mid point and the eftp tilde point finite, while it is at most
    1e149; rows whose bound passes it check the point exactly instead.  Rows
    and F evaluations are those of a check of every point.

    A 1-D operator with ``float_form`` is stepped on Python floats instead:
    F is ``op._apply_float``, called at the same points, and every product,
    squared norm and check gives the bits of its array spelling.  F is
    resolved once, before the loop; for an Affine's own ``_apply`` without a
    shift it is the gemv ``matrix.dot``.  Each column is collected in a list
    and made an array once, after the loop, so a run that stops early holds
    only the rows it made.
    """
    x = cfg.x0.copy()
    dim = op.dim
    if dim == 1 and op.float_form:
        # float arithmetic rounds as float64 arithmetic on a 1-element array
        # does, without numpy's dispatch on every operation: .dot at d = 1 is
        # the bare product, and the dot of @ adds it to +0.0
        x, star = x.item(), None if star is None else star.item()
        apply, check, max_abs, dot = "_apply_float", numerics.as_finite, abs, operator.mul
        jac, jt_f = op._jacobian_float, _jt_f_float
    else:
        apply, check, max_abs, dot = "_apply", numerics.as_vector, _max_abs, np.ndarray.dot
        jac, jt_f = op._jacobian, _jt_f_array
    F = _resolved(getattr(op, apply))

    method = cfg.method
    g = cfg.gamma
    # eg runs as eg2 with both stepsizes gamma
    g1, g2 = (cfg.gamma1, cfg.gamma2) if method == "eg2" else (g, g)
    # bound >= ||x||_2.  A step x - c*g*v moves x by at most c*g*||v||, and ||v||
    # <= (1 - u)^-(d/2 + 2) * (sqrt(v @ v) + tiny), u = 2^-53: the dot rounds at most
    # d times, the root and the sum once each, tiny covers squares lost to underflow.
    # The step and the update round at most 7 times more: slack = 1 + (2d + 32)u
    # covers all; the tenfold margin of _PROVEN covers absolute errors near 2^-1074
    bound, x_max = math.inf, 0.0
    root_dim = math.sqrt(dim)
    slack = 1.0 + (dim + 16) * 2.0**-52
    tiny = root_dim * 2.0**-537

    iters, proven, limit = cfg.iters, _PROVEN, _DIVERGENCE_LIMIT
    sqrt, isfinite = math.sqrt, math.isfinite
    eg = method in ("eg", "eg2")
    # each column is a list until the loop ends; a method has at most one extra
    # column filled row by row (hgm's energy is filled after the loop)
    fx_col, dist_col, extra = [], [], []
    add_fx, add_dist, add_extra = fx_col.append, dist_col.append, extra.append

    pp_step = None   # pp: F of the resolvent, built at the first step
    f_prev = None    # og: F(x_prev)
    gf = None        # eftp: g times F at the tilde point
    f_evals = 0
    diverged = False
    for k in range(iters + 1):
        try:
            if not bound <= proven:
                # max|x| is NaN or inf exactly when x is not finite; an x_max
                # left from an earlier row is within the limit, or it stopped the run
                x_max = max_abs(x)
                if not isfinite(x_max):
                    raise NonFinite("iterate overflowed")
                bound = root_dim * x_max * slack
            fx = F(x)
            f_evals += 1
            fsq = dot(fx, fx)
            add_fx(fsq)
            root = sqrt(fsq) + tiny
            if star is not None:
                d = x - star
                add_dist(dot(d, d))
            if eg:
                mid = x - g1 * fx
                if not bound + g1 * root <= proven:
                    check(mid)
                fmid = F(mid)
                f_evals += 1
                step_sq = dot(fmid, fmid)
                add_extra(step_sq)
            elif method == "eftp":
                if k == 0:
                    step_sq, t_root = fsq, root  # the tilde point starts at x0
                add_extra(step_sq)
            elif method == "hgm":
                gh = jt_f(jac(x), fx)
                step_sq = dot(gh, gh)
                add_extra(step_sq)
            if not isfinite(fsq) or x_max > limit:
                diverged = True
                break
            if k == iters:
                break

            if method == "gd":
                x = x - g * fx
                bound = (bound + g * root) * slack
            elif method == "pp":
                if pp_step is None:
                    pp_step = _resolved(getattr(pp_operator(op, g), apply))
                step = pp_step(x)
                x = x - g * step
                bound = (bound + g * (sqrt(dot(step, step)) + tiny)) * slack
            elif eg:
                x = x - g2 * fmid
                bound = (bound + g2 * (sqrt(step_sq) + tiny)) * slack
            elif method == "og":
                if k == 0:
                    f_prev, p_root = fx, root  # x_prev starts at x0
                x, f_prev = x - 2.0 * g * fx + g * f_prev, fx
                # the step's own 2*g, which is inf for g >= 2^1023 and then makes the bound inf
                bound, p_root = (bound + 2.0 * g * (root + 0.5 * p_root)) * slack, root
            elif method == "eftp":
                # one product g*F(tilde) moves x and makes the next tilde point
                tilde = x - (g * fx if k == 0 else gf)
                if not bound + g * t_root <= proven:
                    check(tilde)
                f_tilde = F(tilde)
                f_evals += 1
                step_sq = dot(f_tilde, f_tilde)
                t_root = sqrt(step_sq) + tiny
                gf = g * f_tilde
                x = x - gf
                bound = (bound + g * t_root) * slack
            elif method == "hgm":
                x = x - g * gh
                bound = (bound + g * (sqrt(step_sq) + tiny)) * slack
        except NonFinite:
            # F met an overflowed point, so the state it leads to is undefined:
            # finish the current row, if any, and add one more, all NaN
            add_fx(math.nan)
            add_dist(math.nan)
            diverged = True
            break

    rows, full = len(fx_col), len(extra)
    fx_sq = np.array(fx_col, dtype=float)
    dist_sq = None if star is None else np.array(dist_col, dtype=float)
    extras = {}
    if method in _EXTRAS:
        extras[_EXTRAS[method][0]] = np.array(extra + [math.nan] * (rows - full), dtype=float)
    if method == "hgm":
        # 0.5 * ||F(x^k)||^2 for every full row at once, the same product as
        # row by row; the rows past full are NaN
        extras["energy"] = energy = 0.5 * fx_sq
        energy[full:] = math.nan
    return Trace(method, fx_sq, dist_sq, extras, diverged, f_evals)
