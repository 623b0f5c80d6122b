"""The points a run evaluates F at, read through the operator.

``run`` keeps no iterates.  It hands every point it evaluates F at to the
unchecked ``op._apply``: the iterate x^k of every row, the eg/eg2 mid point
x^k - gamma1 F(x^k) of every row and the eftp tilde point of every step.
"""

import copy
import sys

import numpy as np

from vicert.solvers import run


def recording(op):
    """A shallow copy of ``op`` whose ``_apply`` appends to ``.points`` a copy
    of each point that ``run`` itself evaluates F at.

    The copy keeps the class of ``op``, so pp still takes the closed-form
    resolvent of an :class:`Affine`; the F evaluations inside a nonlinear pp
    resolvent come from the resolvent, not from ``run``, and are not recorded.
    """
    rec = copy.copy(op)
    rec.points = []
    apply = op._apply

    def _apply(x):
        if sys._getframe(1).f_code is run.__code__:
            rec.points.append(x.copy())
        return apply(x)

    rec._apply = _apply
    return rec


def run_points(op, cfg, x_star=None):
    """``run(op, cfg, x_star)``, the iterates x^k it evaluated F at, one row
    each, and its auxiliary points: the eg/eg2 mid point of each row, the
    eftp tilde point of each row (the first is x^0), None for the other
    methods.  A trace that ends on a NaN row has no point for that row."""
    rec = recording(op)
    trace = run(rec, cfg, x_star)
    points = rec.points
    aux = None
    if cfg.method in ("eg", "eg2"):
        points, aux = points[0::2], points[1::2]
    elif cfg.method == "eftp":
        points, aux = points[0::2], points[:1] + points[1::2]

    def rows(pts):
        return np.array(pts).reshape(len(pts), op.dim)

    return trace, rows(points), None if aux is None else rows(aux)
