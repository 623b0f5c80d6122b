"""Cocoercivity, monotonicity, and Lipschitz certification.

Affine operators get exact matrix-pencil tests; general point systems get
interpolation-condition checks; and the explicit witness constructions
show where the composed update operators stop being (star-)cocoercive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import classes, numerics
from .errors import (
    BadParameters,
    DimensionMismatch,
    NoConvergence,
    NoViolatingPair,
    PreconditionViolated,
)
from .operators import Affine, LogisticGrad, Operator, eftp_operator, og_operator
from .serial import jsonable

HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

# the slack (and relative expansion error) that the interpolation checks forgive
_INTERP_TOL = 1e-12


@dataclass(frozen=True)
class PointSystem:
    """Labeled (x, F(x)) pairs together with the operator class to certify."""

    points: tuple[tuple[str, np.ndarray, np.ndarray], ...]
    op_class: str
    parameter: float | None = None

    def __post_init__(self):
        classes.rows(self.op_class, self.parameter)
        labels = [p[0] for p in self.points]
        if len(set(labels)) != len(labels):
            raise BadParameters("point labels must be distinct")
        dims = {p[1].size for p in self.points} | {p[2].size for p in self.points}
        if len(dims) > 1:
            raise DimensionMismatch("points have inconsistent dimensions")

    @staticmethod
    def build(points, op_class, parameter=None) -> "PointSystem":
        packed = tuple(
            (str(label), numerics.as_vector(x), numerics.as_vector(fx))
            for label, x, fx in points
        )
        return PointSystem(packed, op_class, parameter)


@dataclass
class ConditionRow:
    pair: tuple[str, str]
    kind: str
    slack: float

    def to_json(self) -> dict:
        return {"pair": list(self.pair), "kind": self.kind, "slack": self.slack}


@dataclass
class CertificateReport:
    verdict: str
    worst_slack: float
    witness: dict | None = None
    conditions: list[ConditionRow] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "worst_slack": self.worst_slack,
            "witness": self.witness,
            "conditions": [c.to_json() for c in self.conditions],
            "details": jsonable(self.details),
        }


# ---------------------------------------------------------------------------
# Interpolation conditions
# ---------------------------------------------------------------------------

def _pair_rows(ps: PointSystem) -> list[ConditionRow]:
    rows = classes.rows(ps.op_class, ps.parameter)
    return [ConditionRow((li, lj), row.kind, row.slack(dx, df, classes.dot))
            for li, lj, dx, df in classes.pairs(ps.points) for row in rows]


def check_interpolation(ps: PointSystem) -> CertificateReport:
    """Evaluate the class-defining inequality on every unordered point pair.

    The system is interpolable by an operator of the class exactly when all
    pairwise slacks are nonnegative; verdict ``holds`` allows slack down
    to ``-1e-12``.
    """
    if len(ps.points) < 2:
        raise BadParameters("need at least two points")
    rows = _pair_rows(ps)
    worst = min(r.slack for r in rows)
    worst_row = min(rows, key=lambda r: r.slack)
    witness = None
    verdict = HOLDS
    if worst < -_INTERP_TOL:
        verdict = VIOLATED
        i = {p[0]: p for p in ps.points}
        witness = {
            "pair": list(worst_row.pair),
            "x": i[worst_row.pair[0]][1].tolist(),
            "y": i[worst_row.pair[1]][1].tolist(),
            "slack": worst_row.slack,
        }
    return CertificateReport(verdict, worst, witness, rows)


# ---------------------------------------------------------------------------
# The expansive four-point construction for the extragradient update
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CounterexampleInstance:
    """Six planar vectors interpolable by an ell-cocoercive map on which the
    extrapolated update expands distances."""

    ell: float
    gamma1: float
    scale: float
    x: np.ndarray
    y: np.ndarray
    x_f1: np.ndarray
    y_f1: np.ndarray
    x_f2: np.ndarray
    y_f2: np.ndarray

    def point_system(self) -> PointSystem:
        g = self.gamma1
        return PointSystem.build(
            [
                ("x", self.x, self.x_f1),
                ("y", self.y, self.y_f1),
                ("x_mid", self.x - g * self.x_f1, self.x_f2),
                ("y_mid", self.y - g * self.y_f1, self.y_f2),
            ],
            "cocoercive",
            self.ell,
        )

    def to_json(self) -> dict:
        return {
            "ell": self.ell,
            "gamma1": self.gamma1,
            "scale": self.scale,
            "x": self.x.tolist(),
            "y": self.y.tolist(),
            "x_f1": self.x_f1.tolist(),
            "y_f1": self.y_f1.tolist(),
            "x_f2": self.x_f2.tolist(),
            "y_f2": self.y_f2.tolist(),
        }


def build_counterexample(ell: float, gamma1: float, scale: float = 1.0) -> CounterexampleInstance:
    """Construct the explicit expansive four-point system for given ell, gamma1.

    Requires 0 < gamma1 <= 1/ell.  All six vectors scale linearly with
    ``scale`` (pairwise slacks then scale quadratically).  Of the six
    cocoercive slacks of ``point_system()``, five are exactly zero and the
    (x, y_mid) pair carries slack ``scale**2 * ell**2 / 2``, for every gamma1.
    """
    numerics.require_positive("ell, gamma1, scale", ell, gamma1, scale)
    if gamma1 * ell > 1.0 + 1e-12:
        raise BadParameters(f"gamma1*ell = {gamma1 * ell:.6g} exceeds 1")
    g, l, a = gamma1, ell, scale
    x = a * np.array([-0.5, 0.0])
    y = -x
    x_f1 = a * np.array([-1.0 / (2 * g), 1.0 / (2 * g)])
    y_f1 = a * np.array([-(1 - g * l) / (2 * g), (1 + g * l) / (2 * g)])
    x_f2 = a * np.array([-(1 - g * l) / (2 * g), 1.0 / (2 * g)])
    y_f2 = a * np.array([-(1 - g * l) / (2 * g), (1 - g * g * (l * l)) / (2 * g)])
    return CounterexampleInstance(ell, gamma1, scale, x, y, x_f1, y_f1, x_f2, y_f2)


def verify_counterexample(inst: CounterexampleInstance, gamma2: float) -> CertificateReport:
    """Check the four-point system interpolates an ell-cocoercive map and that
    the two-stepsize update expands ||x - y||.

    The squared expansion E = ||x - g2*x_f2 - y + g2*y_f2||^2 must equal
    scale^2 * (1 + g1^2 g2^2 ell^4 / 4) to within 1e-12 relative; verdict is
    ``violated`` (non-expansiveness disproved) when E exceeds ||x - y||^2.
    """
    numerics.require_positive("gamma2", gamma2)
    q = inst.gamma1 * gamma2 * (inst.ell * inst.ell)
    predicted = inst.scale * inst.scale * (1.0 + q * q / 4.0)
    if not predicted < np.inf:
        raise BadParameters(f"the predicted expansion {predicted!r} is beyond float range")
    interp = check_interpolation(inst.point_system())
    diff = (inst.x - gamma2 * inst.x_f2) - (inst.y - gamma2 * inst.y_f2)
    expansion = float(diff @ diff)
    base = float((inst.x - inst.y) @ (inst.x - inst.y))
    if abs(expansion - predicted) > _INTERP_TOL * max(1.0, predicted):
        # at extreme parameters the float points lose the construction
        raise BadParameters(
            f"expansion {expansion!r} does not match predicted {predicted!r}")
    if not interp.holds:
        verdict = INCONCLUSIVE
    elif expansion > base:
        verdict = VIOLATED
    else:
        verdict = HOLDS
    return CertificateReport(
        verdict,
        interp.worst_slack,
        witness={"x": inst.x.tolist(), "y": inst.y.tolist()},
        conditions=interp.conditions,
        details={
            "expansion_sq": expansion,
            "expansion_predicted": predicted,
            "base_sq": base,
            "gamma2": gamma2,
        },
    )


# ---------------------------------------------------------------------------
# Exact affine certificates
# ---------------------------------------------------------------------------

def _square(a) -> np.ndarray:
    """``a`` as a finite, square, non-empty matrix: every matrix input here passes it."""
    A = numerics.as_matrix(a, square=True)
    if not A.size:
        raise DimensionMismatch("expected a non-empty matrix, got shape (0, 0)")
    return A


def cocoercivity_pencil(a, ell: float) -> np.ndarray:
    """(ell/2)(A + A^T) - A^T A; PSD exactly when x -> Ax is ell-cocoercive:
    the cocoercive row at dx = I, dF = A with <U, V> = (U^T V + V^T U)/2."""
    A = _square(a)
    row, = classes.rows("cocoercive", ell)
    return row.slack(np.eye(A.shape[0]), A, lambda U, V: 0.5 * (U.T @ V + V.T @ U))


def _pencil_scale(A: np.ndarray, ell: float) -> float:
    """``ell*max|H| + max|A^T A|``, the size of the pencil's two terms; the
    pencil tests scale their tolerances by it."""
    return ell * float(np.abs(0.5 * (A + A.T)).max()) + float(np.abs(A.T @ A).max())


def affine_cocoercivity_exact(a, ell: float, tol: float | None = None) -> CertificateReport:
    """Exact cocoercivity test for a linear map via the PSD pencil.

    The pencil ``ell*H - A^T A`` (H the symmetric part of A) holds when its
    least eigenvalue is at least ``-tol``.  The default ``tol`` is
    ``1e-10 * (ell*max|H| + max|A^T A|)``, relative to the pencil's own
    scale, so that (cA, c*ell) gets the verdict of (A, ell) for every c > 0.
    When violated, the most-negative eigenvector u gives the violating pair
    (u, 0): its pairwise slack equals the eigenvalue.
    """
    numerics.require_positive("ell", ell)
    A = _square(a)
    w, V = numerics.sym_eig(cocoercivity_pencil(A, ell))
    if tol is None:
        tol = 1e-10 * _pencil_scale(A, ell)
    worst = float(w[0])
    witness = None
    verdict = HOLDS
    if worst < -tol:
        verdict = VIOLATED
        u = V[:, 0]
        witness = {"x": u.tolist(), "y": np.zeros_like(u).tolist(), "slack": worst}
    return CertificateReport(verdict, worst, witness,
                             details={"pencil_min_eig": worst, "ell": ell})


def spectral_disk_check(a, ell: float) -> CertificateReport:
    """Disk criterion: every eigenvalue must lie in |lambda - ell/2| <= ell/2 + 1e-9.

    Equivalent to Re(1/lambda) >= 1/ell for nonzero eigenvalues; lambda = 0
    sits on the boundary and counts as inside.  A positive certificate is
    only decisive for normal matrices; the pencil test is authoritative
    otherwise.
    """
    numerics.require_positive("ell", ell)
    vals = numerics.eigenvalues(_square(a))
    center = ell / 2.0
    rows = []
    worst = np.inf
    worst_val = None
    for lam in vals:
        slack = center - abs(lam - center)
        rows.append(ConditionRow(("spectrum", f"{lam:.6g}"), "disk", float(slack)))
        if slack < worst:
            worst = float(slack)
            worst_val = lam
    verdict = HOLDS if worst >= -1e-9 else VIOLATED
    witness = None
    if verdict == VIOLATED:
        witness = {"eigenvalue": {"re": worst_val.real, "im": worst_val.imag},
                   "slack": worst}
    return CertificateReport(verdict, worst, witness, rows,
                             details={"eigenvalues": [complex(v) for v in vals],
                                      "ell": ell})


# the range of ell that min_cocoercivity_ell reports
_MIN_ELL, _MAX_ELL = 1e-9, 1e9


def min_cocoercivity_ell(a) -> float | None:
    """Smallest ell for which x -> Ax is ell-cocoercive, in closed form.

    With H = (A + A^T)/2 the pencil ``ell*H - A^T A`` is PSD exactly when
    H is PSD, null(H) lies in null(A), and ``ell >= lambda_max(H^{+1/2}
    A^T A H^{+1/2}) = ||A H^{+1/2}||^2``; that eigenvalue is the result.
    Eigenvalues of H within ``n * eps * ||H||`` of zero count as zero, and a
    direction v of null(H) counts as lying in null(A) when ``|Av|^2`` is
    within ``n * eps * max|A^T A|``.

    Returns None when H is indefinite, when null(H) is not inside null(A),
    or when the result exceeds ``_MAX_ELL``; a result below ``_MIN_ELL`` is
    clamped to it.  The returned value is re-checked on the pencil itself: it
    must pass the exact test within ``1e-12 * (ell*max|H| + max|A^T A|)``,
    and, unless clamped, ``(1 - 1e-6) * ell`` must fail it.  A failed
    re-check raises :class:`NoConvergence`.
    """
    A = _square(a)
    n = A.shape[0]
    H = 0.5 * (A + A.T)
    M = A.T @ A
    eps = float(np.finfo(np.float64).eps)
    w, V = numerics.sym_eig(H)
    cut = n * eps * float(np.abs(w).max(initial=0.0))
    if w[0] < -cut:
        return None
    pos = w > cut
    null_images = A @ V[:, ~pos]
    null_sq = (null_images * null_images).sum(axis=0)
    if float(null_sq.max(initial=0.0)) > n * eps * float(np.abs(M).max()):
        return None
    ell = numerics.spectral_norm(A @ (V[:, pos] / np.sqrt(w[pos]))) ** 2
    if ell > _MAX_ELL:
        return None
    clamped = ell < _MIN_ELL
    ell = max(ell, _MIN_ELL)
    if not affine_cocoercivity_exact(A, ell, tol=1e-12 * _pencil_scale(A, ell)).holds:
        raise NoConvergence(f"pencil is not PSD at the closed-form ell {ell!r}")
    if not clamped and affine_cocoercivity_exact(A, (1.0 - 1e-6) * ell, tol=0.0).holds:
        raise NoConvergence(f"pencil is still PSD below the closed-form ell {ell!r}")
    return ell


def eg_affine_cocoercivity_check(a, gamma: float, L: float) -> CertificateReport:
    """Certify that the extragradient composite of a monotone L-Lipschitz
    linear map is (2/gamma)-cocoercive, by both the spectral-disk criterion
    and the exact pencil test on A(I - gamma*A)."""
    A = _square(a)
    numerics.require_positive("L", L)
    # on the dimensionless gamma*L, so the test means the same at every scale of A
    if not (0.0 < gamma and gamma * L <= 1.0 + 1e-12):
        raise PreconditionViolated("need 0 < gamma <= 1/L")
    sym_min = float(numerics.sym_eigs(0.5 * (A + A.T))[0])
    if sym_min < -1e-10:
        raise PreconditionViolated(f"matrix is not monotone (min sym eig {sym_min:.3e})")
    norm = numerics.spectral_norm(A)
    if norm > L * (1.0 + 1e-9):
        raise PreconditionViolated(f"operator norm {norm:.6g} exceeds declared L={L}")
    B = A @ (np.eye(A.shape[0]) - gamma * A)
    ell = 2.0 / gamma
    spectral = spectral_disk_check(B, ell)
    exact = affine_cocoercivity_exact(B, ell)
    both = spectral.holds and exact.holds
    return CertificateReport(
        HOLDS if both else VIOLATED,
        min(spectral.worst_slack, exact.worst_slack),
        witness=None if both else (exact.witness or spectral.witness),
        details={"spectral": spectral, "exact": exact, "ell": ell, "gamma": gamma},
    )


# ---------------------------------------------------------------------------
# Non-star-cocoercivity witnesses for the two-sequence update operators
# ---------------------------------------------------------------------------

def og_noncocoercivity_witness(a, ell: float, gamma: float,
                               which: str = "og") -> CertificateReport:
    """Measure the expansion of Id - (2/ell) * F_composite on a witness pair.

    For a linear map with a pair violating (ell/2)-cocoercivity (og form)
    or ell-cocoercivity (eftp form), the lifted pair z = (x, x*), z' = (x', x*)
    expands by at least 1 + 4/(ell^2 gamma^2).  The witness direction is the
    most-negative eigenvector of the corresponding pencil.
    """
    if which not in ("og", "eftp"):
        raise BadParameters("which must be 'og' or 'eftp'")
    numerics.require_positive("ell, gamma", ell, gamma)
    if ell * gamma < 1e-150:
        raise BadParameters(
            f"ell*gamma = {ell * gamma!r} is below 1e-150; the floor 1 + 4/(ell*gamma)^2 overflows")
    formula_floor = 1.0 + (2.0 / (ell * gamma)) ** 2
    A = _square(a)
    c = ell / 2.0 if which == "og" else ell
    w, V = numerics.sym_eig(cocoercivity_pencil(A, c))
    if w[0] >= 0.0:
        raise NoViolatingPair(
            f"linear map is {c:.6g}-cocoercive; no violating pair exists")
    u = V[:, 0]
    base = Affine(A)
    comp = og_operator(base, gamma) if which == "og" else eftp_operator(base, gamma)
    z = np.concatenate([u, np.zeros(A.shape[0])])
    z_hat = z - (2.0 / ell) * comp(z)
    # z' = (x*, x*) = 0 is fixed by the map since the composite is linear
    ratio = float(z_hat @ z_hat) / float(z @ z)
    # relative: the floor grows as 1/(ell*gamma)^2 and the ratio's rounding with it
    if ratio < formula_floor * (1.0 - 1e-9):
        raise RuntimeError(
            f"witness ratio {ratio!r} fell below the structural floor {formula_floor!r}")
    verdict = VIOLATED if ratio > 1.0 + 1e-12 else INCONCLUSIVE
    return CertificateReport(
        verdict,
        worst_slack=float(w[0]),
        witness={"direction": u.tolist(), "ratio": ratio},
        details={"ratio": ratio, "floor": formula_floor, "which": which,
                 "pencil_min_eig": float(w[0]), "ell": ell, "gamma": gamma},
    )


def linear_star_equiv_check(a, ell: float, trials: int = 200,
                            seed: int = 0) -> CertificateReport:
    """Compare sampled star-cocoercivity around 0 with the exact cocoercivity
    verdict for a linear map.

    For linear maps the two properties are equivalent, so sampling that
    accepts while the exact test rejects is counterevidence (statistical
    only; reported, never expected).
    """
    if trials < 1:
        raise BadParameters("trials must be at least 1")
    A = _square(a)
    exact = affine_cocoercivity_exact(A, ell)
    row, = classes.rows("cocoercive", ell)
    rng = np.random.default_rng(seed)
    worst = np.inf
    worst_x = None
    for _ in range(trials):
        x = rng.standard_normal(A.shape[0])
        slack = row.slack(x, A @ x, classes.dot)
        if slack < worst:
            worst = slack
            worst_x = x
    sampled_holds = worst >= -1e-12
    counterevidence = sampled_holds and not exact.holds
    return CertificateReport(
        VIOLATED if counterevidence else HOLDS,
        min(worst, exact.worst_slack),
        witness=None if sampled_holds else {"x": worst_x.tolist(), "slack": worst},
        details={
            "exact_holds": exact.holds,
            "sampled_holds": sampled_holds,
            "sampled_worst_slack": worst,
            "counterevidence": counterevidence,
        },
    )


# ---------------------------------------------------------------------------
# Scalar logistic-gradient constants and energy non-convexity
# ---------------------------------------------------------------------------

def logistic_constants(a: float, delta: float) -> dict:
    """The closed-form bounds L <= a^2/4 + delta and Lambda <= |a|^3/4 that
    ``LogisticGrad(a, delta)`` declares, cross-checked against |F'| and |F''|
    on 2001 grid points of [-20/|a|, 20/|a|]."""
    op = LogisticGrad(a, delta)
    L_bound, lam_bound = op.constants.lipschitz, op.constants.jac_lipschitz
    grid = np.linspace(-20.0 / abs(a), 20.0 / abs(a), 2001)
    d1 = max(abs(op.jacobian(np.array([t]))[0, 0]) for t in grid)
    d2 = max(abs(op.second_derivative(t)) for t in grid)
    if d1 > L_bound + 1e-9 or d2 > lam_bound + 1e-9:
        raise RuntimeError("sampled derivative exceeded its closed-form bound")
    return {
        "L_bound": L_bound,
        "Lambda_bound": lam_bound,
        "sampled_max_jacobian": d1,
        "sampled_max_second_derivative": d2,
    }


def _residual_energy_curvature(x: float) -> float:
    """Closed form for 2*H''(x) with H(x) = 0.5*F(x)^2, F the default
    logistic gradient (a=1, delta=1/100)."""
    ex = np.exp(x)
    t1 = 2.0 * ex**2 * (2.0 - ex) / (1.0 + ex) ** 4
    t2 = ex * (x + 2.0 + ex * (2.0 - x)) / (50.0 * (1.0 + ex) ** 3)
    t3 = 1.0 / 5000.0
    return float(t1 + t2 + t3)


def hamiltonian_nonconvexity_check() -> CertificateReport:
    """Show that H = 0.5*||F||^2 of the default logistic gradient is non-convex:
    2*H'' at x = 3 is negative, and a central second difference (step 1e-4) agrees."""
    x_probe, h = 3.0, 1e-4
    op = LogisticGrad(1.0, 0.01)

    def energy(t: float) -> float:
        fx = op(np.array([t]))[0]
        return 0.5 * fx * fx

    closed = _residual_energy_curvature(x_probe)
    fd = 2.0 * (energy(x_probe + h) - 2.0 * energy(x_probe) + energy(x_probe - h)) / h**2
    rel = abs(closed - fd) / abs(closed)
    at_zero = _residual_energy_curvature(0.0)
    ok = closed < 0.0 and fd < 0.0 and rel <= 1e-6
    return CertificateReport(
        VIOLATED if ok else INCONCLUSIVE,  # violated = convexity disproved
        worst_slack=closed,
        details={
            "closed_form": closed,
            "finite_difference": fd,
            "relative_gap": rel,
            "probe": x_probe,
            "curvature_at_zero": at_zero,
        },
    )


# ---------------------------------------------------------------------------
# Sampled property checks for black-box operators
# ---------------------------------------------------------------------------

# a star class is its base row on the pairs (x, x*) with F(x*) = 0
_STAR_CLASSES = {"star-monotone": "monotone", "star-cocoercive": "cocoercive"}


def sampled_property_check(op: Operator, op_class: str, trials: int = 200,
                           seed: int = 0, parameter: float | None = None) -> CertificateReport:
    """Sample seeded Gaussian pairs and evaluate the class inequality.

    Sampling can refute but never prove: the verdict is ``violated`` with a
    witness, or ``inconclusive`` when every sampled slack is nonnegative.
    """
    star = op_class in _STAR_CLASSES
    rows = classes.rows(_STAR_CLASSES.get(op_class, op_class), parameter)
    if trials < 1:
        raise BadParameters("trials must be at least 1")
    x_star = None
    if star:
        x_star = op.root()
        if x_star is None:
            raise PreconditionViolated("star property needs an operator with a known root")
    rng = np.random.default_rng(seed)
    worst = np.inf
    witness = None
    for _ in range(trials):
        x = rng.standard_normal(op.dim)
        if star:
            y, fy = x_star, np.zeros(op.dim)
        else:
            y = rng.standard_normal(op.dim)
            fy = op(y)
        fx = op(x)
        dx, df = x - y, fx - fy
        for row in rows:
            s = row.slack(dx, df, classes.dot)
            if s < worst:
                worst = s
                witness = {"x": x.tolist(), "y": y.tolist(), "slack": s}
    if worst < -_INTERP_TOL:
        return CertificateReport(VIOLATED, worst, witness,
                                 details={"trials": trials, "seed": seed})
    return CertificateReport(INCONCLUSIVE, worst, None,
                             details={"trials": trials, "seed": seed})
