"""Closed-form references for the default scalar logistic gradient.

``logistic_constants`` checks the constants that ``LogisticGrad`` declares
against its sampled derivatives, and ``hamiltonian_nonconvexity_check``
shows that the residual energy 0.5*F(x)^2 of the default instance is not
convex.  Both test one fixed function, so they live beside the tests, not
in the library.
"""

import numpy as np

from vicert.certify import INCONCLUSIVE, VIOLATED, CertificateReport
from vicert.operators import LogisticGrad, _sigmoid


def second_derivative(op: LogisticGrad, x0: float) -> float:
    """F''(x0) = a^3 s (1 - s)(1 - 2s) with s = sigma(a*x0)."""
    s = _sigmoid(op.a * float(x0))
    return op.a ** 3 * s * (1.0 - s) * (1.0 - 2.0 * s)


def logistic_constants(a: float, delta: float) -> dict:
    """The closed-form bounds L <= a^2/4 + delta and Lambda <= |a|^3/4 that
    ``LogisticGrad(a, delta)`` declares, cross-checked against |F'| and |F''|
    on 2001 grid points of [-20/|a|, 20/|a|]."""
    op = LogisticGrad(a, delta)
    L_bound, lam_bound = op.constants.lipschitz, op.constants.jac_lipschitz
    grid = np.linspace(-20.0 / abs(a), 20.0 / abs(a), 2001)
    d1 = max(abs(op.jacobian(np.array([t]))[0, 0]) for t in grid)
    d2 = max(abs(second_derivative(op, t)) for t in grid)
    if d1 > L_bound + 1e-9 or d2 > lam_bound + 1e-9:
        raise RuntimeError("sampled derivative exceeded its closed-form bound")
    return {
        "L_bound": L_bound,
        "Lambda_bound": lam_bound,
        "sampled_max_jacobian": d1,
        "sampled_max_second_derivative": d2,
    }


def residual_energy_curvature(x: float) -> float:
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

    closed = residual_energy_curvature(x_probe)
    fd = 2.0 * (energy(x_probe + h) - 2.0 * energy(x_probe) + energy(x_probe - h)) / h**2
    rel = abs(closed - fd) / abs(closed)
    at_zero = residual_energy_curvature(0.0)
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
