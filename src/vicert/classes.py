"""Operator classes as pairwise quadratic inequalities.

A row (a, b, c) asks ``a*<dF, dx> + b*|dx|^2 + c*|dF|^2 >= 0`` for every
pair of points, with dx = x_i - x_j and dF = F(x_i) - F(x_j); for these
classes the pairwise rows are also the interpolation conditions
(Taylor-Hendrickx-Glineur 2017).  The caller supplies the inner product, so
one row gives slacks on vectors, constraint matrices on Gram expressions and
the pencil of a linear map.  A new class is one more entry in ``CLASSES``.
"""

import math
from dataclasses import dataclass

from . import numerics
from .errors import BadParameters


@dataclass(frozen=True)
class Row:
    kind: str  # the row's name in certificate reports
    tag: str   # the prefix of its PEP constraint names
    a: float
    b: float
    c: float

    def slack(self, dx, dF, inner):
        """The row's form; zero-coefficient terms are skipped, not added."""
        total = None
        for coef, u, v in ((self.a, dF, dx), (self.b, dx, dx), (self.c, dF, dF)):
            if coef != 0:
                term = coef * inner(u, v)
                total = term if total is None else total + term
        return total


_MONOTONE = Row("monotone", "mono", 1.0, 0.0, 0.0)


def _lipschitz(L) -> Row:
    square = float(L) * float(L)
    if not math.isfinite(square):
        raise BadParameters(f"Lipschitz constant {L!r} squares beyond float range")
    return Row("lipschitz", "lip", 0.0, square, -1.0)


# class name -> (needs a positive parameter, parameter -> rows)
CLASSES = {
    "cocoercive": (True, lambda ell: (Row("cocoercive", "coco", ell, 0.0, -1.0),)),
    "monotone": (False, lambda _: (_MONOTONE,)),
    "lipschitz": (True, lambda L: (_lipschitz(L),)),
    "monotone+lipschitz": (True, lambda L: (_MONOTONE, _lipschitz(L))),
}


def rows(op_class: str, parameter=None) -> tuple[Row, ...]:
    """The rows of ``op_class``; :class:`BadParameters` for an unknown class
    or a missing, non-finite or non-positive parameter that the class needs."""
    if op_class not in CLASSES:
        raise BadParameters(f"unknown operator class {op_class!r}")
    needs_param, make = CLASSES[op_class]
    if needs_param:
        if parameter is None:
            raise BadParameters(f"class {op_class!r} needs a positive parameter")
        numerics.require_positive(f"the parameter of class {op_class!r}", parameter)
    return make(parameter)


def pairs(points):
    """``(label_i, label_j, x_i - x_j, F_i - F_j)`` for i < j over ``(label, x, F(x))``."""
    for i, (li, xi, fi) in enumerate(points):
        for lj, xj, fj in points[i + 1:]:
            yield li, lj, xi - xj, fi - fj


def dot(u, v) -> float:
    return float(u @ v)
