"""The points a run evaluates F at, read through the operator.

``run`` keeps no iterates.  Its per-row loop ``solvers._run_rows``, which
steps every operator a recording wraps, hands every point it evaluates F at
to the unchecked ``op._apply``, or to ``op._apply_float`` for a 1-D operator with a
float form: the iterate x^k of every row, the eg/eg2 mid point
x^k - gamma1 F(x^k) of every row and the eftp tilde point of every step.
"""

import copy
import sys

import numpy as np

from vicert.solvers import _run_rows, run


def recording(op):
    """A shallow copy of ``op`` whose ``_apply`` and ``_apply_float`` append
    to ``.points`` a copy of each point that ``run`` itself evaluates F at, a
    float as a 1-element float64 array of the same bits.

    The copy keeps the class of ``op``, so pp still takes the closed-form
    resolvent of an :class:`Affine`; the F evaluations inside a nonlinear pp
    resolvent come from the resolvent, not from ``run``, and are not recorded.
    """
    rec = copy.copy(op)
    rec.points = []

    def recorded(apply, as_array):
        def wrapper(x):
            if sys._getframe(1).f_code is _run_rows.__code__:
                rec.points.append(as_array(x))
            return apply(x)
        return wrapper

    rec._apply = recorded(op._apply, np.copy)
    rec._apply_float = recorded(op._apply_float, lambda x: np.array([x]))
    return rec


def recording_subclass(op):
    """As :func:`recording`, but the recording ``_apply`` and ``_apply_float``
    are methods of a subclass of ``op``'s class that override its own, so
    ``run`` reads F through an overriding method rather than an attribute of
    the instance."""
    base = type(op)

    def recorded(name, as_array):
        def method(self, x):
            if sys._getframe(1).f_code is _run_rows.__code__:
                self.points.append(as_array(x))
            return getattr(base, name)(self, x)
        return method

    rec = copy.copy(op)
    rec.__class__ = type(base.__name__, (base,), {
        "_apply": recorded("_apply", np.copy),
        "_apply_float": recorded("_apply_float", lambda x: np.array([x])),
    })
    rec.points = []
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
