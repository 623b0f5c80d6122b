"""Concrete operators and the composed update operators built on top of them.

An operator is a map F: R^d -> R^d evaluated with ``op(x)`` and
differentiated with ``op.jacobian(x)``, both of which check that x is a
finite vector of the operator's dimension.  Hot loops that already hold
such a vector call the unchecked ``op._apply(x)`` and ``op._jacobian(x)``.
Affine operators carry their matrix and offset explicitly so that
composition stays in closed form; nonlinear composites evaluate lazily.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import (
    BadParameters,
    DimensionMismatch,
    NoAnalyticJacobian,
    NoConvergence,
    NonFinite,
    NotAffine,
    OffTable,
    SingularMatrix,
    VicertError,
)


@dataclass(frozen=True)
class Constants:
    """Declared operator constants: Lipschitz L, Jacobian-Lipschitz, cocoercivity."""

    lipschitz: float | None = None
    jac_lipschitz: float | None = None
    cocoercivity: float | None = None

    def __post_init__(self):
        for name, value in (("L", self.lipschitz), ("ell", self.cocoercivity)):
            if value is not None:
                numerics.require_positive(f"declared constant {name} = {value!r}", value)
        # written so that NaN fails
        lam = self.jac_lipschitz
        if lam is not None and not (math.isfinite(lam) and lam >= 0.0):
            raise BadParameters(f"declared constant Lambda = {lam!r} "
                                "must be finite and nonnegative")

    def to_json(self) -> dict:
        out = {}
        if self.lipschitz is not None:
            out["L"] = self.lipschitz
        if self.jac_lipschitz is not None:
            out["Lambda"] = self.jac_lipschitz
        if self.cocoercivity is not None:
            out["ell"] = self.cocoercivity
        return out

    @staticmethod
    def from_json(d: dict | None) -> "Constants":
        d = d or {}
        return Constants(
            lipschitz=d.get("L"),
            jac_lipschitz=d.get("Lambda"),
            cocoercivity=d.get("ell"),
        )


class Operator:
    kind = "abstract"
    dim: int = 0
    constants: Constants = Constants()

    def __call__(self, x) -> np.ndarray:
        return self._apply(self._checked(x))

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """F(x) for a finite float64 vector x of dimension ``dim``, unchecked."""
        raise NotImplementedError

    def jacobian(self, x) -> np.ndarray:
        return self._jacobian(self._checked(x))

    def _jacobian(self, x: np.ndarray) -> np.ndarray:
        """The Jacobian of F at a finite float64 vector x of dimension ``dim``,
        unchecked."""
        raise NoAnalyticJacobian(f"{self.kind} operator has no analytic Jacobian")

    def root(self) -> np.ndarray | None:
        """A point x* with F(x*) = 0, when one is known; None otherwise."""
        return None

    def _checked(self, x) -> np.ndarray:
        v = numerics.as_vector(x)
        if v.size != self.dim:
            raise DimensionMismatch(f"operator dim {self.dim}, point dim {v.size}")
        return v


class Affine(Operator):
    """F(x) = A x + b with stored square matrix and offset."""

    def __init__(self, matrix, offset=None, kind: str = "affine",
                 constants: Constants | None = None, root=None):
        A = numerics.as_matrix(matrix, square=True).copy()
        b = np.zeros(A.shape[0]) if offset is None else numerics.as_vector(offset).copy()
        if b.size != A.shape[0]:
            raise DimensionMismatch("offset length does not match matrix")
        A.setflags(write=False)
        b.setflags(write=False)
        self.matrix = A
        self.offset = b
        # what _apply adds: the offset with each -0.0 made +0.0.  At d = 1,
        # A.dot(x) is the bare product a*x, which is -0.0 where the dot
        # 0 + a*x of ``A @ x`` gives +0.0; adding +0.0 restores that bit
        self._shift = b + 0.0
        self.kind = kind
        self.dim = A.shape[0]
        self.constants = constants or Constants()
        self._root = None if root is None else numerics.as_vector(root).copy()
        self._root_computed = root is not None

    def _apply(self, x):
        # ndarray.dot calls the gemv kernel that @ calls, with less dispatch;
        # the shift is added even when it is zero (see __init__)
        return self.matrix.dot(x) + self._shift

    def _jacobian(self, x):
        return self.matrix

    def root(self):
        if not self._root_computed:
            self._root_computed = True
            try:
                self._root = numerics.lu_solve(self.matrix, -self.offset)
            except SingularMatrix:
                self._root = np.zeros(self.dim) if not self.offset.any() else None
        return None if self._root is None else self._root.copy()


def rotation(scale: float = 1.0) -> Affine:
    """The canonical 2-d monotone non-cocoercive map x -> (scale) * (x2, -x1)."""
    s = float(scale)
    numerics.require_positive("scale", s)
    A = np.array([[0.0, s], [-s, 0.0]])
    return Affine(A, kind="rotation", constants=Constants(lipschitz=s), root=np.zeros(2))


def scaled_identity(c: float, dim: int) -> Affine:
    c = float(c)
    return Affine(
        c * np.eye(int(dim)),
        kind="scaled-identity",
        constants=Constants(lipschitz=abs(c) if c != 0.0 else None,
                            cocoercivity=c if c > 0 else None),
        root=np.zeros(int(dim)) if c != 0.0 else None,
    )


def bilinear_game(coupling) -> Affine:
    """Saddle operator of (x, y) -> x^T B y: F(x, y) = (B y, -B^T x)."""
    B = numerics.as_matrix(coupling)
    p, q = B.shape
    A = np.block([[np.zeros((p, p)), B], [-B.T, np.zeros((q, q))]])
    L = numerics.spectral_norm(B)
    return Affine(A, kind="bilinear-game", constants=Constants(lipschitz=L))


def _sigmoid(t: float) -> float:
    # np.exp, not math.exp, whose last bit may differ; the arithmetic around
    # it is on Python floats, which round as numpy scalars do, for less dispatch
    if t >= 0.0:
        return 1.0 / (1.0 + np.exp(-t).item())
    z = np.exp(t).item()
    return z / (1.0 + z)


class LogisticGrad(Operator):
    """Gradient of the regularized scalar logistic loss: a*sigma(a x) + delta*x."""

    kind = "logistic-grad"
    dim = 1

    def __init__(self, a: float = 1.0, delta: float = 0.01):
        a, delta = float(a), float(delta)
        if not (math.isfinite(a) and a != 0.0):
            raise BadParameters(f"slope a = {a!r} must be finite and nonzero")
        if not (math.isfinite(delta) and delta >= 0.0):
            raise BadParameters(f"regularizer delta = {delta!r} must be finite and nonnegative")
        try:
            # a Python float power raises where a product would return inf;
            # with Lambda finite, L = a^2/4 + delta is finite too
            lam = abs(a) ** 3 / 4.0
        except OverflowError:
            raise BadParameters(f"slope a = {a!r} overflows Lambda = |a|^3/4") from None
        L = a * a / 4.0 + delta
        self.a = a
        self.delta = delta
        self.constants = Constants(lipschitz=L, jac_lipschitz=lam, cocoercivity=L)
        self._root = None

    def _apply(self, x):
        x0 = x.item()
        return np.array([self.a * _sigmoid(self.a * x0) + self.delta * x0])

    def _jacobian(self, x):
        s = _sigmoid(self.a * x.item())
        return np.array([[self.a * self.a * s * (1.0 - s) + self.delta]])

    def second_derivative(self, x0: float) -> float:
        s = _sigmoid(self.a * float(x0))
        return self.a ** 3 * s * (1.0 - s) * (1.0 - 2.0 * s)

    def root(self):
        if self.delta == 0.0:
            return None
        if self._root is None:
            hi = (abs(self.a) + 1.0) / self.delta
            if not math.isfinite(hi):
                raise NonFinite(f"root bracket (|a| + 1)/delta = {hi!r} is beyond float range")
            lo = -hi
            # the root lies within hi/2 of 0, so lo + hi never leaves [-hi, hi]:
            # every midpoint is finite and F takes it unchecked.  The loop keeps
            # F(lo) <= 0 < F(hi) and stops when the midpoint rounds to an end,
            # that is, when lo and hi are adjacent floats
            mid = 0.5 * (lo + hi)
            while lo < mid < hi:
                if self._apply(np.array([mid]))[0] > 0.0:
                    hi = mid
                else:
                    lo = mid
                mid = 0.5 * (lo + hi)
            self._root = np.array([mid])
        return self._root.copy()


class CustomTable(Operator):
    """Finite table of (x, F(x)) pairs; evaluation off the table raises OffTable."""

    kind = "custom-table"

    def __init__(self, points):
        stored = []
        dim = None
        for x, fx in points:
            xv = numerics.as_vector(x)
            fv = numerics.as_vector(fx)
            if dim is None:
                dim = xv.size
            if xv.size != dim or fv.size != dim:
                raise DimensionMismatch("table entries have inconsistent dimensions")
            stored.append((xv, fv))
        if dim is None:
            raise BadParameters("table must contain at least one point")
        self.points = tuple(stored)
        self.dim = dim

    def _apply(self, x):
        for px, pf in self.points:
            if np.abs(x - px).max(initial=0.0) <= 1e-12 * (1.0 + np.abs(px).max(initial=0.0)):
                return pf.copy()
        raise OffTable("point is not in the stored table")


# ---------------------------------------------------------------------------
# Composite operators
# ---------------------------------------------------------------------------

class ExtrapolatedComposite(Operator):
    """x -> F(x - gamma*F(x)) for a nonlinear inner operator."""

    kind = "eg-composite"

    def __init__(self, inner: Operator, gamma: float):
        numerics.require_positive("gamma", gamma)
        self.inner = inner
        self.gamma = float(gamma)
        self.dim = inner.dim
        self.constants = Constants()

    def _apply(self, x):
        mid = x - self.gamma * self.inner._apply(x)
        # the extrapolated point is new: check it as a public call would
        return self.inner._apply(numerics.as_vector(mid))

    def _jacobian(self, x):
        Ji = self.inner._jacobian(x)
        mid = numerics.as_vector(x - self.gamma * self.inner._apply(x))
        return self.inner._jacobian(mid) @ (np.eye(self.dim) - self.gamma * Ji)

    def root(self):
        return self.inner.root()


def eg_operator(op: Operator, gamma: float) -> Operator:
    """Extragradient update operator x -> F(x - gamma*F(x)).

    For affine F = Ax + b the result is affine with matrix A(I - gamma*A)
    and offset b - gamma*A b.
    """
    numerics.require_positive("gamma", gamma)
    if isinstance(op, Affine):
        A, b = op.matrix, op.offset
        eye = np.eye(op.dim)
        return Affine(A @ (eye - gamma * A), b - gamma * (A @ b), root=op.root())
    return ExtrapolatedComposite(op, gamma)


def og_operator(op: Operator, gamma: float) -> Affine:
    """Optimistic-gradient block operator on R^{2d}, states z = (current, previous).

    Blocks [[2A, -A], [-I/gamma, I/gamma]] with offset (b, 0); only defined
    for affine operators.
    """
    numerics.require_positive("gamma", gamma)
    if not isinstance(op, Affine):
        raise NotAffine("optimistic-gradient matrix form needs an affine operator")
    A, b = op.matrix, op.offset
    eye = np.eye(op.dim)
    big = np.block([[2.0 * A, -A], [-eye / gamma, eye / gamma]])
    offset = np.concatenate([b, np.zeros(op.dim)])
    xstar = op.root()
    root = None if xstar is None else np.concatenate([xstar, xstar])
    return Affine(big, offset, root=root)


def eftp_operator(op: Operator, gamma: float) -> Affine:
    """Extrapolation-from-the-past block operator on R^{2d}, states z = (x, x_tilde).

    z -> (F(x - gamma*F(y)), (y - x)/gamma + F(y)); affine inputs only.
    """
    numerics.require_positive("gamma", gamma)
    if not isinstance(op, Affine):
        raise NotAffine("extrapolation-from-the-past matrix form needs an affine operator")
    A, b = op.matrix, op.offset
    eye = np.eye(op.dim)
    big = np.block([[A, -gamma * (A @ A)], [-eye / gamma, eye / gamma + A]])
    offset = np.concatenate([b - gamma * (A @ b), b])
    xstar = op.root()
    root = None if xstar is None else np.concatenate([xstar, xstar])
    return Affine(big, offset, root=root)


class ImplicitComposite(Operator):
    """x -> F(y) with y solving y = x - gamma*F(y), by damped fixed-point iteration."""

    kind = "pp-composite"
    max_iters = 100_000
    tol = 1e-12

    def __init__(self, inner: Operator, gamma: float):
        numerics.require_positive("gamma", gamma)
        L = inner.constants.lipschitz
        if L is not None and gamma * L >= 1.0:
            raise BadParameters(f"gamma*L = {gamma * L:.3g} >= 1 breaks the inner contraction")
        self.inner = inner
        self.gamma = float(gamma)
        self.dim = inner.dim
        self.constants = Constants()
        self._theta = 1.0 if L is None or gamma * L <= 0.9 else 1.0 / (1.0 + gamma * L)

    def inner_point(self, x) -> np.ndarray:
        return self._solve(self._checked(x))[0]

    def _solve(self, x) -> tuple[np.ndarray, np.ndarray]:
        """The fixed point y and F(y), the value its last iteration computed."""
        y = x.copy()
        for _ in range(self.max_iters):
            fy = self.inner._apply(y)
            d = y - (x - self.gamma * fy)
            residual = math.sqrt(np.add.reduce(d * d))
            if residual <= self.tol:
                return y, fy
            if not math.isfinite(residual):
                # a non-finite y makes the residual non-finite: only then is
                # the full check of the point fed to F worth its cost
                numerics.as_vector(y)
            y = y - self._theta * d
        raise NoConvergence("implicit-step fixed point did not reach tolerance")

    def _apply(self, x):
        return self._solve(x)[1]

    def root(self):
        return self.inner.root()


def pp_operator(op: Operator, gamma: float) -> Operator:
    """Implicit-step update operator: x -> F(y) where y = x - gamma*F(y).

    Affine inputs are resolved exactly by a linear solve; nonlinear inputs
    use a fixed-point iteration with residual tolerance 1e-12.
    """
    numerics.require_positive("gamma", gamma)
    if isinstance(op, Affine):
        A, b = op.matrix, op.offset
        eye = np.eye(op.dim)
        inv = numerics.lu_solve(eye + gamma * A, eye)
        M = A @ inv
        return Affine(M, b - gamma * (M @ b), root=op.root())
    return ImplicitComposite(op, gamma)


class HamiltonianComposite(Operator):
    """x -> J_F(x)^T F(x), the gradient of 0.5*||F(x)||^2."""

    kind = "hamiltonian-composite"

    def __init__(self, inner: Operator):
        self.inner = inner
        self.dim = inner.dim
        self.constants = Constants()

    def _apply(self, x):
        return self.inner._jacobian(x).T @ self.inner._apply(x)

    def root(self):
        return self.inner.root()


def hamiltonian_operator(op: Operator) -> Operator:
    """Steepest-descent operator of the residual energy 0.5*||F(x)||^2."""
    if isinstance(op, Affine):
        A, b = op.matrix, op.offset
        return Affine(A.T @ A, A.T @ b, root=op.root())
    return HamiltonianComposite(op)


def hamiltonian_value(op: Operator, x) -> float:
    """0.5*||F(x)||^2 at x."""
    fx = op(x)
    return 0.5 * float(fx @ fx)


# ---------------------------------------------------------------------------
# JSON serialization (bit-exact float64 round trip via repr-based encoding)
# ---------------------------------------------------------------------------

_AFFINE_KINDS = {"affine", "rotation", "scaled-identity", "bilinear-game"}


def operator_to_json(op: Operator) -> dict:
    out: dict = {"kind": op.kind}
    if isinstance(op, Affine):
        out["A"] = op.matrix.tolist()
        out["b"] = op.offset.tolist()
    elif isinstance(op, LogisticGrad):
        out["a"] = op.a
        out["delta"] = op.delta
    elif isinstance(op, CustomTable):
        out["points"] = [[x.tolist(), fx.tolist()] for x, fx in op.points]
    else:
        raise BadParameters(f"operator kind {op.kind!r} is not serializable")
    constants = op.constants.to_json()
    if constants:
        out["constants"] = constants
    return out


def operator_from_json(d: dict) -> Operator:
    """The operator ``d`` describes; a malformed ``d`` raises :class:`BadParameters`."""
    try:
        kind = d.get("kind")
        constants = Constants.from_json(d.get("constants"))
        if kind in _AFFINE_KINDS:
            return Affine(d["A"], d.get("b"), kind=kind, constants=constants)
        if kind == "logistic-grad":
            return LogisticGrad(d.get("a", 1.0), d.get("delta", 0.01))
        if kind == "custom-table":
            return CustomTable([(x, fx) for x, fx in d["points"]])
    except VicertError:
        raise   # the operator's own errors, NonFinite for an inf entry say
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise BadParameters(f"malformed operator description: {exc!r}") from None
    raise BadParameters(f"unknown operator kind {kind!r}")


def save_operator(op: Operator, path) -> None:
    with open(path, "w") as fh:
        json.dump(operator_to_json(op), fh, indent=2)
        fh.write("\n")


def load_operator(path) -> Operator:
    """The operator in the JSON file at ``path``; :class:`BadParameters` names a malformed one."""
    with open(path) as fh:
        try:
            return operator_from_json(json.load(fh))
        except (BadParameters, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise BadParameters(f"operator file {path}: {exc}") from None
