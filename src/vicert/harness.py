"""Bound checks for every convergence guarantee, a fixed operator suite,
and deterministic machine-readable reports."""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import __version__, numerics
from .errors import BadParameters, PreconditionViolated
from .operators import (
    Affine,
    LogisticGrad,
    Operator,
    bilinear_game,
    eg_operator,
    pp_operator,
    rotation,
    scaled_identity,
)
from .serial import jsonable
from .solvers import SolverConfig, Trace, run

_SQRT2 = float(np.sqrt(2.0))
_SQRT10 = float(np.sqrt(10.0))


@dataclass
class BoundCheck:
    """Observed-versus-bound rows for one guarantee along a run.

    ``passed`` is None when the run sits outside the guaranteed stepsize
    regime and the margins are reported without being asserted.
    """

    check_id: str
    params: dict
    ks: np.ndarray
    observed: np.ndarray
    bound: np.ndarray
    rel_tol: float = 1e-10
    abs_tol: float = 0.0
    guaranteed: bool = True

    def __post_init__(self):
        # constants that each pass their precondition can still overflow the
        # bound, and an infinite bound asserts nothing (nor is it JSON)
        bad = np.flatnonzero(~np.isfinite(self.bound))
        if bad.size:
            k = bad[0]
            raise PreconditionViolated(
                f"{self.check_id} bound at k = {int(self.ks[k])} is "
                f"{float(self.bound[k])!r}: the constants are beyond float range")

    @property
    def margins(self) -> np.ndarray:
        return self.bound - self.observed

    @property
    def worst_margin(self) -> float:
        return float(self.margins.min())

    @property
    def passed(self) -> bool | None:
        if not self.guaranteed:
            return None
        allow = self.rel_tol * np.abs(self.bound) + self.abs_tol
        return bool(np.all(self.margins >= -allow))

    def to_json(self) -> dict:
        worst = int(np.argmin(self.margins))
        return {
            "id": self.check_id,
            "params": jsonable(self.params),
            "rows": len(self.ks),
            "final_observed": float(self.observed[-1]),
            "final_bound": float(self.bound[-1]),
            "worst_k": int(self.ks[worst]),
            "observed": float(self.observed[worst]),
            "bound": float(self.bound[worst]),
            "margin": self.worst_margin,
            "pass": self.passed,
        }


def _run_from(op: Operator, method: str, iters: int, x0, x_star, **gammas):
    """Run ``method`` from x0; return the trace, its iteration indices k and
    d0 = ||x0 - x*||^2.  The run records no distances: the given or stored
    solution point enters the bound through d0 alone."""
    star = numerics.as_vector(x_star) if x_star is not None else op.root()
    if star is None:
        raise PreconditionViolated("this check needs a known solution point")
    x0 = numerics.as_vector(x0)
    trace = run(op, SolverConfig(method, iters=iters, x0=x0, **gammas))
    return trace, np.arange(len(trace)), float(np.sum((x0 - star) ** 2))


def _positive(name: str, value: float) -> float:
    """``value`` when it is finite and positive; rounding at extreme
    constants can make a derived one overflow, underflow or change sign."""
    if not 0.0 < value < np.inf:
        raise PreconditionViolated(f"{name} = {float(value)!r} is not finite and positive")
    return value


def _require_step(gamma: float, product: float, cap: float, need: str) -> None:
    """PreconditionViolated unless gamma > 0 and the dimensionless stepsize
    ``product`` is at most ``cap`` within a relative 1e-12, which means the
    same at every scale of the constants."""
    if not (0.0 < gamma and product <= cap * (1.0 + 1e-12)):
        raise PreconditionViolated(f"need {need}")


def _running_average(values: np.ndarray) -> np.ndarray:
    return np.cumsum(values) / np.arange(1, values.size + 1)


# ---------------------------------------------------------------------------
# Individual bound checks
# ---------------------------------------------------------------------------

def check_gd_bounds(op: Operator, ell: float, gamma: float, iters: int, x0,
                    x_star=None) -> tuple[BoundCheck, BoundCheck]:
    """Averaged and last-iterate residual bounds for plain gradient steps on a
    cocoercive operator: both are ell*||x0-x*||^2 / (gamma*(K+1))."""
    numerics.require_positive("ell", ell)
    _require_step(gamma, gamma * ell, 1.0, "0 < gamma <= 1/ell")
    trace, ks, d0 = _run_from(op, "gd", iters, x0, x_star, gamma=gamma)
    bound = ell * d0 / (gamma * (ks + 1.0))
    params = {"ell": ell, "gamma": gamma, "iters": iters}
    avg = BoundCheck("gd-average", params, ks, _running_average(trace.fx_sq), bound)
    last = BoundCheck("gd-last", params, ks, trace.fx_sq, bound)
    return avg, last


def check_pp_bound(op: Operator, ell: float, gamma: float, iters: int, x0,
                   x_star=None) -> BoundCheck:
    """Residual bound for explicit steps on the implicit-step composite with
    inner stepsize 2/ell: averaged (and last) value of ||F_pp(x^k)||^2 stays
    below ell*||x0-x*||^2 / (gamma*(K+1))."""
    numerics.require_positive("ell", ell)
    _require_step(gamma, gamma * ell, 1.0, "0 < gamma <= 1/ell")
    trace, ks, d0 = _run_from(pp_operator(op, 2.0 / ell), "gd", iters, x0, x_star,
                              gamma=gamma)
    bound = ell * d0 / (gamma * (ks + 1.0))
    return BoundCheck("pp-average", {"ell": ell, "gamma": gamma, "iters": iters},
                      ks, _running_average(trace.fx_sq), bound)


def check_eg_random_bound(op: Operator, L: float, gamma1: float, gamma2: float,
                          iters: int, x0, x_star=None) -> BoundCheck:
    """Averaged residual of the extrapolated update under the two-stepsize
    scheme: bound 2*||x0-x*||^2 / (gamma1*gamma2*(K+1))."""
    numerics.require_positive("L", L)
    _require_step(gamma1, gamma1 * L, 1.0, "0 < gamma1 <= 1/L")
    _require_step(gamma2, gamma2 / gamma1, 0.5, "0 < gamma2 <= gamma1/2")
    denom = _positive("gamma1*gamma2", gamma1 * gamma2)
    trace, ks, d0 = _run_from(eg_operator(op, gamma1), "gd", iters, x0, x_star,
                              gamma=gamma2)
    bound = 2.0 * d0 / (denom * (ks + 1.0))
    return BoundCheck("eg-random", {"L": L, "gamma1": gamma1, "gamma2": gamma2,
                                    "iters": iters},
                      ks, _running_average(trace.fx_sq), bound)


def check_eg_last_bounds(op: Operator, L: float, gamma: float, iters: int, x0,
                         x_star=None) -> tuple[BoundCheck, BoundCheck]:
    """Last-iterate residual and gap-surrogate bounds for the extragradient
    method.

    Guaranteed regime is gamma <= 1/(sqrt(2)*L); for gamma in
    (1/(sqrt(2)L), 1/L) the margins are reported but not asserted.
    """
    numerics.require_positive("L", L)
    _require_step(gamma, gamma * L, 1.0, "0 < gamma <= 1/L")
    guaranteed = gamma * L <= (1.0 + 1e-12) / _SQRT2
    slack = 1.0 - L * L * (gamma * gamma)
    denom = _positive("gamma^2*(1 - L^2*gamma^2)", gamma * gamma * slack)
    gap_denom = _positive("gamma*sqrt(1 - L^2*gamma^2)", gamma * np.sqrt(slack))
    trace, ks, d0 = _run_from(op, "eg", iters, x0, x_star, gamma=gamma)
    params = {"L": L, "gamma": gamma, "iters": iters}
    norm_check = BoundCheck("eg-last", params, ks, trace.fx_sq,
                            d0 / (denom * (ks + 1.0)), guaranteed=guaranteed)
    gap_surrogate = 2.0 * np.sqrt(trace.fx_sq) * np.sqrt(d0)
    gap_bound = 2.0 * d0 / (gap_denom * np.sqrt(ks + 1.0))
    gap_check = BoundCheck("eg-gap", params, ks, gap_surrogate, gap_bound,
                           guaranteed=guaranteed)
    return norm_check, gap_check


def check_eftp_bound(op: Operator, L: float, gamma: float, iters: int, x0,
                     x_star=None) -> BoundCheck:
    """Averaged residual over the auxiliary sequence of the past-extrapolation
    method: bound ||x0-x*||^2 / (gamma^2*(1-10*gamma^2*L^2)*(K+1))."""
    numerics.require_positive("L", L)
    if not (0.0 < gamma and gamma * L < 1.0 / _SQRT10):
        raise PreconditionViolated("need 0 < gamma < 1/(sqrt(10)*L)")
    denom = _positive("gamma^2*(1 - 10*gamma^2*L^2)",
                      gamma * gamma * (1.0 - 10.0 * (gamma * gamma) * (L * L)))
    trace, ks, d0 = _run_from(op, "eftp", iters, x0, x_star, gamma=gamma)
    bound = d0 / (denom * (ks + 1.0))
    observed = _running_average(trace.extras["tilde_sq"])
    return BoundCheck("eftp-random", {"L": L, "gamma": gamma, "iters": iters},
                      ks, observed, bound)


def _hgm_cap(op: Operator, L: float, jac_lipschitz: float, x0) -> tuple[float, float]:
    """The cap L^2 + Lambda*||F(x0)|| (the energy-descent method's stepsize
    limit is 2/cap) and ||F(x0)||."""
    numerics.require_positive("L", L)
    f0 = float(np.sqrt(np.sum(np.asarray(op(x0)) ** 2)))
    return _positive("L^2 + Lambda*||F(x0)||", L * L + jac_lipschitz * f0), f0


@dataclass(frozen=True)
class _Planned:
    """A check split at its run: the run it asks for, the solution point the
    run records distances to (None for none), and the bound evaluation on
    the trace."""

    cfg: SolverConfig
    x_star: np.ndarray | None
    finish: Callable[[Trace], tuple[BoundCheck, ...]]

    def run_key(self) -> tuple:
        """Equal for two plans that ask for the same iterates."""
        c = self.cfg
        return (c.method, c.gamma, c.gamma1, c.gamma2, c.iters, c.x0.tobytes())


def _finish_sharing_runs(op: Operator, plans: list[_Planned]) -> list[BoundCheck]:
    """Each plan's checks, in order, from one run per distinct ``run_key``.
    Distances never feed back into the iterates, so a shared run records
    those of the plan that names a solution point; at most one plan of a
    group may name one."""
    stars: dict[tuple, np.ndarray | None] = {}
    for plan in plans:
        key = plan.run_key()
        if stars.get(key) is None:
            stars[key] = plan.x_star
    traces = {}
    checks: list[BoundCheck] = []
    for plan in plans:
        key = plan.run_key()
        if key not in traces:
            traces[key] = run(op, plan.cfg, x_star=stars[key])
        checks.extend(plan.finish(traces[key]))
    return checks


def _plan_hgm_bounds(op: Operator, L: float, jac_lipschitz: float, gamma: float,
                     iters: int, x0, capped: tuple[float, float] | None = None) -> _Planned:
    """check_hgm_bounds up to its run; ``capped`` is ``_hgm_cap``'s result
    when the caller has it already."""
    if iters < 1:
        raise PreconditionViolated("the monotonicity check needs iters >= 1")
    x0 = numerics.as_vector(x0)
    cap, f0 = capped if capped is not None else _hgm_cap(op, L, jac_lipschitz, x0)
    _require_step(gamma, gamma * cap, 2.0, "0 < gamma <= 2/(L^2 + Lambda*||F(x0)||)")
    denom = _positive("gamma*(2 - gamma*cap)", gamma * (2.0 - gamma * cap))
    params = {"L": L, "Lambda": jac_lipschitz, "gamma": gamma, "iters": iters}

    def finish(trace: Trace) -> tuple[BoundCheck, BoundCheck]:
        ks = np.arange(len(trace))
        best = np.minimum.accumulate(trace.extras["grad_h_sq"])
        bound = f0 * f0 / (denom * (ks + 1.0))
        best_check = BoundCheck("hgm-best", params, ks, best, bound)
        norms = np.sqrt(trace.fx_sq)
        mono = BoundCheck("hgm-monotone", params, ks[1:], norms[1:], norms[:-1],
                          rel_tol=0.0, abs_tol=1e-12)
        return best_check, mono

    return _Planned(SolverConfig("hgm", gamma=gamma, iters=iters, x0=x0), None, finish)


def check_hgm_bounds(op: Operator, L: float, jac_lipschitz: float, gamma: float,
                     iters: int, x0) -> tuple[BoundCheck, BoundCheck]:
    """Best-iterate bound on the residual-energy gradient and the residual
    norm monotonicity of the energy-descent method."""
    plan = _plan_hgm_bounds(op, L, jac_lipschitz, gamma, iters, x0)
    return plan.finish(run(op, plan.cfg))


def _plan_hgm_affine_contraction(op: Affine, iters: int, x0) -> _Planned:
    """check_hgm_affine_contraction up to its run."""
    if not isinstance(op, Affine):
        raise BadParameters("affine contraction check needs an affine operator")
    if iters < 1:
        raise PreconditionViolated("the contraction check needs iters >= 1")
    x0 = numerics.as_vector(x0)
    A = op.matrix
    svals = numerics.singular_values(A)
    nonzero = svals[svals > 1e-12 * max(svals.max(initial=0.0), 1.0)]
    if nonzero.size == 0:
        raise BadParameters("zero matrix has no contraction factor")
    smax2 = float(nonzero.max() ** 2)
    smin2 = float(nonzero.min() ** 2)
    kappa = smin2 / smax2
    rho = (1.0 - kappa) / (1.0 + kappa)
    gamma = 1.0 / smax2
    # projection of the start onto the least-squares solution set; the
    # null-space component of the iterates never moves
    S = A.T @ A
    grad0 = S @ x0 + A.T @ op.offset
    x_star = x0 - numerics.sym_pseudo_solve(S, grad0)

    def finish(trace: Trace) -> tuple[BoundCheck]:
        return (BoundCheck("hgm-affine-contraction",
                           {"gamma": gamma, "kappa": kappa, "rho": rho, "iters": iters},
                           np.arange(len(trace) - 1), trace.dist_sq[1:],
                           rho * trace.dist_sq[:-1], rel_tol=1e-12, abs_tol=1e-12),)

    return _Planned(SolverConfig("hgm", gamma=gamma, iters=iters, x0=x0), x_star, finish)


def check_hgm_affine_contraction(op: Affine, iters: int, x0) -> BoundCheck:
    """Per-step distance contraction of the energy-descent method on an affine
    operator at stepsize 1/sigma_max^2, with factor (1-kappa)/(1+kappa)."""
    plan = _plan_hgm_affine_contraction(op, iters, x0)
    return plan.finish(run(op, plan.cfg, x_star=plan.x_star))[0]


# ---------------------------------------------------------------------------
# Norm-increase search across stepsize regimes
# ---------------------------------------------------------------------------

# the search's stepsizes: gamma1 = f/ell and gamma2 = f*gamma1 for f in these
_STEP_FRACS = (0.25, 0.5, 1.0)


def check_eg_norm_violation_regimes(seed: int = 0, num_ops: int = 12, num_starts: int = 8) -> dict:
    """Search cocoercive affine instances for one-step norm increases.

    Looks for (a) increases of the composite-update residual with matched
    stepsizes, (b) increases of the plain residual with gamma2 < gamma1.
    Search-based: found instances are reported as witnesses, absence is not
    asserted.
    """
    rng = np.random.default_rng(seed)
    ops: list[tuple[str, Affine, float]] = []
    for i in range(num_ops):
        if i % 3 == 0:
            # boundary-cocoercive rotation-scaling block
            ell = float(rng.uniform(0.5, 4.0))
            a = ell / 2.0
            A = np.array([[a, a], [-a, a]])
            ops.append((f"boundary-{i}", Affine(A), ell))
        else:
            d = int(rng.integers(2, 5))
            M = rng.standard_normal((d, d))
            S = M @ M.T / d + 0.2 * np.eye(d)
            ops.append((f"spd-{i}", Affine(S), float(np.linalg.eigvalsh(S).max())))
    composite_witnesses = []
    plain_witnesses = []
    searched = 0
    for name, op, ell in ops:
        for f1 in _STEP_FRACS:
            g1 = f1 / ell
            comp = eg_operator(op, g1)
            for f2 in _STEP_FRACS:
                g2 = f2 * g1
                # one draw fills the rows in C order, the stream of one draw
                # per row; the search's own finite points: no input check per call
                for x0 in rng.standard_normal((num_starts, op.dim)):
                    searched += 1
                    cx0 = comp._apply(x0)
                    x1 = x0 - g2 * cx0
                    c0 = float(np.add.reduce(cx0 * cx0))
                    cx1 = comp._apply(x1)
                    c1 = float(np.add.reduce(cx1 * cx1))
                    if c1 > c0 + 1e-12:
                        composite_witnesses.append(
                            {"op": name, "ell": ell, "gamma1": g1, "gamma2": g2,
                             "x0": x0.tolist(), "increase": c1 - c0})
                    if g2 < g1:
                        px0, px1 = op._apply(x0), op._apply(x1)
                        p0 = float(np.add.reduce(px0 * px0))
                        p1 = float(np.add.reduce(px1 * px1))
                        if p1 > p0 + 1e-12:
                            plain_witnesses.append(
                                {"op": name, "ell": ell, "gamma1": g1, "gamma2": g2,
                                 "x0": x0.tolist(), "increase": p1 - p0})
    return {
        "seed": seed,
        "searched": searched,
        "composite_norm_increases": composite_witnesses,
        "plain_norm_increases": plain_witnesses,
    }


# ---------------------------------------------------------------------------
# Standard operator suite
# ---------------------------------------------------------------------------

@dataclass
class SuiteEntry:
    name: str
    op: Operator
    x0: np.ndarray
    x_star: np.ndarray | None
    L: float
    ell: float | None          # cocoercivity constant when the operator has one
    jac_lipschitz: float | None


def standard_suite(seed: int = 20240406) -> list[SuiteEntry]:
    """Fixed deterministic operator suite used by the full report."""
    rng = np.random.default_rng(seed)
    entries = [
        SuiteEntry("rotation", rotation(), np.array([1.0, 0.0]), np.zeros(2),
                   L=1.0, ell=None, jac_lipschitz=0.0),
        SuiteEntry("identity", scaled_identity(1.0, 3),
                   np.array([1.0, -2.0, 0.5]), np.zeros(3),
                   L=1.0, ell=1.0, jac_lipschitz=0.0),
        SuiteEntry("diag12", Affine(np.diag([1.0, 2.0]), kind="affine"),
                   np.array([1.0, 1.0]), np.zeros(2),
                   L=2.0, ell=2.0, jac_lipschitz=0.0),
    ]
    for d in (2, 10, 50):
        G = rng.standard_normal((d, d))
        shift = max(0.0, -float(numerics.sym_eigs(0.5 * (G + G.T))[0])) + 0.25
        A = G + shift * np.eye(d)
        x0 = rng.standard_normal(d)
        entries.append(SuiteEntry(f"monotone-{d}d", Affine(A), x0, np.zeros(d),
                                  L=numerics.spectral_norm(A), ell=None,
                                  jac_lipschitz=0.0))
    M = rng.standard_normal((5, 5))
    S = M @ M.T / 5.0 + 0.2 * np.eye(5)
    entries.append(SuiteEntry("spd-5d", Affine(S), rng.standard_normal(5),
                              np.zeros(5), L=float(numerics.sym_eigs(S)[-1]),
                              ell=float(numerics.sym_eigs(S)[-1]),
                              jac_lipschitz=0.0))
    B = rng.standard_normal((2, 2))
    entries.append(SuiteEntry("bilinear-4d", bilinear_game(B),
                              rng.standard_normal(4), np.zeros(4),
                              L=numerics.spectral_norm(B), ell=None,
                              jac_lipschitz=0.0))
    logistic = LogisticGrad(1.0, 0.01)
    c = logistic.constants
    entries.append(SuiteEntry("logistic", logistic, np.array([2.0]),
                              logistic.root(), L=c.lipschitz, ell=c.cocoercivity,
                              jac_lipschitz=c.jac_lipschitz))
    return entries


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------

def run_report(seed: int = 20240406, iters: int = 300) -> dict:
    """Run every applicable bound check on the standard suite.

    Deterministic for fixed (seed, iters); overall status is in ``all_pass``.
    """
    checks: list[BoundCheck] = []
    for entry in standard_suite(seed):
        op, L = entry.op, entry.L
        x0, star = entry.x0, entry.x_star
        fresh: list[BoundCheck] = []
        if entry.ell is not None:
            fresh.extend(check_gd_bounds(op, entry.ell, 1.0 / entry.ell, iters,
                                         x0, star))
        pp_ell = entry.ell if entry.ell is not None else max(1.0, 2.5 * L)
        if isinstance(op, Affine) or 2.0 * L / pp_ell < 1.0:
            fresh.append(check_pp_bound(op, pp_ell, 1.0 / pp_ell, iters, x0, star))
        fresh.append(check_eg_random_bound(op, L, 1.0 / L, 0.5 / L, iters, x0, star))
        fresh.extend(check_eg_last_bounds(op, L, 1.0 / (_SQRT2 * L), iters, x0, star))
        fresh.append(check_eftp_bound(op, L, 0.9 / (_SQRT10 * L), iters, x0, star))
        # the two hgm checks run once where they ask for the same run
        hgm: list[_Planned] = []
        if entry.jac_lipschitz is not None:
            capped = _hgm_cap(op, L, entry.jac_lipschitz, x0)
            hgm.append(_plan_hgm_bounds(op, L, entry.jac_lipschitz, 1.0 / capped[0],
                                        iters, x0, capped))
        if isinstance(op, Affine):
            hgm.append(_plan_hgm_affine_contraction(op, iters, x0))
        fresh.extend(_finish_sharing_runs(op, hgm))
        for check in fresh:
            check.params["op"] = entry.name
        checks.extend(fresh)
    return {
        "version": __version__,
        "seed": seed,
        "iters": iters,
        "checks": [c.to_json() for c in checks],
        "violation_search": check_eg_norm_violation_regimes(seed=seed),
        "all_pass": all(c.passed is not False for c in checks),
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
