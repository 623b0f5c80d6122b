"""Per-draw references for the stacked sampling code.

``step_norms`` and ``violation_search`` are the norm-violation search of
:mod:`vicert.harness` evaluated one start at a time, through ``_apply`` and
one ``np.add.reduce`` per start.  ``star_equiv_slacks`` and
``linear_star_equiv_check`` are the star-equivalence sampling of
:mod:`vicert.certify`, and ``sampled_property_check`` its sampled class
check, one trial at a time through ``classes.dot`` and Python floats.  The
library's stacked forms must give their bits.
"""

import numpy as np

from vicert import classes, harness
from vicert.certify import (
    _INTERP_TOL,
    _STAR_CLASSES,
    HOLDS,
    INCONCLUSIVE,
    VIOLATED,
    CertificateReport,
    _unit_scale,
    affine_cocoercivity_exact,
)
from vicert.operators import Affine, eg_operator


def step_norms(op, comp, g2, x0):
    """``(c0, c1, p0, p1)`` of :func:`harness._step_norms`, start by start."""
    rows = []
    for g, x in zip(g2, x0):
        cx0 = comp._apply(x)
        x1 = x - float(g) * cx0
        cx1 = comp._apply(x1)
        px0, px1 = op._apply(x), op._apply(x1)
        rows.append([float(np.add.reduce(v * v)) for v in (cx0, cx1, px0, px1)])
    return tuple(np.array(col) for col in zip(*rows))


def violation_search(seed):
    """:func:`harness.check_eg_norm_violation_regimes`, one start at a time,
    on the stepsize fractions ``harness._STEP_FRACS`` holds at the call and
    the search's sizes ``harness._SEARCH_OPS`` and ``_SEARCH_STARTS``."""
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(harness._SEARCH_OPS):
        if i % 3 == 0:
            ell = float(rng.uniform(0.5, 4.0))
            a = ell / 2.0
            ops.append((f"boundary-{i}", Affine(np.array([[a, a], [-a, a]])), ell))
        else:
            d = int(rng.integers(2, 5))
            M = rng.standard_normal((d, d))
            S = M @ M.T / d + 0.2 * np.eye(d)
            ops.append((f"spd-{i}", Affine(S), float(np.linalg.eigvalsh(S).max())))
    composite_witnesses = []
    plain_witnesses = []
    searched = 0
    for name, op, ell in ops:
        for f1 in harness._STEP_FRACS:
            g1 = f1 / ell
            comp = eg_operator(op, g1)
            for f2 in harness._STEP_FRACS:
                g2 = f2 * g1
                for _ in range(harness._SEARCH_STARTS):
                    x0 = rng.standard_normal(op.dim)
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


def star_equiv_slacks(A, ell, trials, seed):
    """The draws and the cocoercive row's slack at each pair (x, 0), trial by
    trial; the products are numpy's, whose overflow warns, and the slack is
    Python-float arithmetic, whose inf - inf does not."""
    A = np.asarray(A, dtype=np.float64)
    row, = classes.rows("cocoercive", ell)
    rng = np.random.default_rng(seed)
    xs, slacks = [], []
    with np.errstate(over="ignore"):
        for _ in range(trials):
            x = rng.standard_normal(A.shape[0])
            xs.append(x)
            slacks.append(row.slack(x, A @ x, classes.dot))
    return xs, slacks


def linear_star_equiv_check(a, ell, trials=200, seed=0):
    """:func:`certify.linear_star_equiv_check`, one trial at a time: the
    slacks of A and ell divided by the check's 2^e, compared with -1e-12
    there, and the worst reported times 4^e."""
    A = np.asarray(a, dtype=np.float64)
    exact = affine_cocoercivity_exact(A, ell)
    As, ells, e = _unit_scale(A, ell)
    worst = np.inf
    worst_x = None
    for x, slack in zip(*star_equiv_slacks(As, ells, trials, seed)):
        if slack < worst:
            worst = slack
            worst_x = x
    sampled_holds = worst >= -1e-12
    with np.errstate(over="ignore"):
        worst = float(np.ldexp(worst, 2 * e))
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


def sampled_property_check(op, op_class, trials=200, seed=0, parameter=None):
    """:func:`certify.sampled_property_check`, one trial at a time through the
    checked ``op(x)``; numpy's overflow in the differences does not warn."""
    star = op_class in _STAR_CLASSES
    rows = classes.rows(_STAR_CLASSES.get(op_class, op_class), parameter)
    x_star = op.root() if star else None
    rng = np.random.default_rng(seed)
    worst = np.inf
    witness = None
    with np.errstate(over="ignore", invalid="ignore"):
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
