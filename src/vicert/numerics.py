"""Dense float64 linear algebra used by every other module.

The eigendecompositions come from ``numpy.linalg`` (LAPACK): ``eigenvalues``
wraps ``eigvals`` and ``sym_eig`` wraps ``eigh``.  This module adds the
package's contracts on top: the symmetry tolerance, exact conjugate pairs in
a fixed order, and :class:`NoConvergence` in place of ``LinAlgError``.  LU
stays in-tree because its :class:`SingularMatrix` contract is stated in
terms of the pivots.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    BadParameters,
    DimensionMismatch,
    NoConvergence,
    NonFinite,
    NotSymmetric,
    SingularMatrix,
)


_NON_FINITE_VECTOR = "vector has non-finite entries (inf, nan or a float64 overflow)"


def as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NonFinite(_NON_FINITE_VECTOR)
    return v


def as_finite(x: float) -> float:
    """x, a 1-D point held as a Python float, if it is finite; otherwise the
    :class:`NonFinite` that :func:`as_vector` raises for ``[x]``."""
    if not math.isfinite(x):
        raise NonFinite(_NON_FINITE_VECTOR)
    return x


def require_positive(names: str, *values) -> None:
    """:class:`BadParameters` unless every value is finite and positive;
    written so that NaN fails."""
    if not all(math.isfinite(v) and v > 0.0 for v in values):
        raise BadParameters(f"{names} must be finite and positive")


def require_nonnegative(names: str, *values) -> None:
    """:class:`BadParameters` unless every value is finite and nonnegative;
    written so that NaN fails."""
    if not all(math.isfinite(v) and v >= 0.0 for v in values):
        raise BadParameters(f"{names} must be finite and nonnegative")


def as_matrix(a, square: bool = False) -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {m.shape}")
    if square and m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFinite("matrix has non-finite entries (inf, nan or a float64 overflow)")
    return m


# ---------------------------------------------------------------------------
# Stacked products with per-row bits
# ---------------------------------------------------------------------------

def matvecs(A, X, out=None, transposed=False) -> np.ndarray:
    """Row i is ``A @ X[i]``, or ``A[i] @ X[i]`` for a stack of matrices, bit
    for bit, for the whole stack in one call; ``transposed`` gives
    ``A.T @ X[i]`` (``A[i].T @ X[i]``).

    Stacked ``np.matmul`` is not gemm: for each stack item it calls the BLAS
    gemv (the dot at d = 1) that ``A @ x`` calls on the same operands.  The
    operands are taken C-contiguous, since an F-ordered ``A`` would send
    ``@`` to the other gemv kernel; a non-contiguous ``A`` or ``X`` gives
    the bits of its contiguous copy.  The transposed form multiplies by the
    F-ordered view ``A.T`` of that C-contiguous ``A``, as ``J.T @ f`` does; a
    contiguous copy of ``A.T`` would give other bits.  With ``out``, which
    receives the rows, ``A`` and ``X`` are used as given, and must already
    be C-contiguous float64: a loop that calls this once a row skips the
    conversions.
    """
    if out is None:
        A = np.ascontiguousarray(A, dtype=np.float64)
        X = np.ascontiguousarray(X, dtype=np.float64)
    if transposed:
        A = A.swapaxes(-1, -2)
    if out is None:
        return np.matmul(A, X[..., None])[..., 0]
    np.matmul(A, X[..., None], out=out[..., None])
    return out


def row_dots(U, V) -> np.ndarray:
    """Entry i is ``U[i] @ V[i]``, bit for bit, for the whole stack in one
    ``np.matmul`` call, which calls the BLAS dot that ``u @ v`` calls on
    each pair of C-contiguous rows.  That dot is not ``np.add.reduce(u * v)``,
    whose last bit often differs."""
    U = np.ascontiguousarray(U, dtype=np.float64)
    V = np.ascontiguousarray(V, dtype=np.float64)
    return np.matmul(U[..., None, :], V[..., :, None])[..., 0, 0]


# ---------------------------------------------------------------------------
# LU with partial pivoting
# ---------------------------------------------------------------------------

def lu_solve(a, b) -> np.ndarray:
    """Solve ``A x = b`` by Gaussian elimination with partial pivoting.

    ``b`` may be a vector or a matrix of stacked right-hand-side columns.
    Raises :class:`SingularMatrix` when a pivot falls below
    ``1e-14 * max|A|``.
    """
    A = as_matrix(a, square=True)
    n = A.shape[0]
    rhs = np.asarray(b, dtype=np.float64)
    vector_rhs = rhs.ndim == 1
    if vector_rhs:
        rhs = rhs.reshape(n, 1) if rhs.shape[0] == n else rhs.reshape(-1, 1)
    if rhs.shape[0] != n:
        raise DimensionMismatch(f"rhs of length {rhs.shape[0]} for {n}x{n} matrix")

    scale = float(np.abs(A).max(initial=0.0))
    if n == 0:
        return np.zeros(0)
    if scale == 0.0:
        raise SingularMatrix("zero matrix")
    tol = 1e-14 * scale

    U = A.copy()
    X = rhs.copy()
    for k in range(n):
        p = k + int(np.argmax(np.abs(U[k:, k])))
        if abs(U[p, k]) < tol:
            raise SingularMatrix(f"pivot {U[p, k]:.3e} below {tol:.3e}")
        if p != k:
            U[[k, p], :] = U[[p, k], :]
            X[[k, p], :] = X[[p, k], :]
        mult = U[k + 1:, k] / U[k, k]
        U[k + 1:, k:] -= np.outer(mult, U[k, k:])
        X[k + 1:, :] -= np.outer(mult, X[k, :])
    for k in range(n - 1, -1, -1):
        X[k, :] -= U[k, k + 1:] @ X[k + 1:, :]
        X[k, :] /= U[k, k]
    return X[:, 0] if vector_rhs else X


# ---------------------------------------------------------------------------
# Eigenproblems (LAPACK through numpy.linalg)
# ---------------------------------------------------------------------------

def eigenvalues(a) -> np.ndarray:
    """Full complex spectrum of a square real matrix, from LAPACK ``geev``.

    ``geev`` returns the complex eigenvalues of a real matrix as exact
    conjugate pairs.  Values with ``|imag| <= 1e-9 * ||A||_F`` are snapped
    to the real axis, a threshold relative to A, so that cA has the spectrum
    of A times c; ``||A||_F`` is ``s * ||A / s||_F`` with ``s = max|A|``,
    which does not overflow.  The result is sorted by (real, imaginary) part.
    """
    A = as_matrix(a, square=True)
    try:
        vals = np.linalg.eigvals(A).astype(np.complex128)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalues: {exc}") from exc
    s = float(np.abs(A).max(initial=0.0))
    tol = 1e-9 * s * float(np.linalg.norm(A / s)) if s else 0.0
    vals.imag[np.abs(vals.imag) <= tol] = 0.0
    return vals[np.lexsort((vals.imag, vals.real))]


def sym_eig(s) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix.

    Returns ``(w, V)`` with ``S V = V diag(w)``; columns of ``V`` are the
    eigenvectors.  Raises :class:`NotSymmetric` when
    ``max|S - S^T| > 1e-10 * (1 + max|S|)``; otherwise LAPACK ``syevd``
    decomposes the symmetrized matrix ``(S + S^T)/2``.
    """
    S = as_matrix(s, square=True)
    scale = float(np.abs(S).max(initial=0.0))
    if float(np.abs(S - S.T).max(initial=0.0)) > 1e-10 * (1.0 + scale):
        raise NotSymmetric("matrix is not symmetric within tolerance")
    try:
        w, V = np.linalg.eigh(0.5 * (S + S.T))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"symmetric eigensolver: {exc}") from exc
    return w, V


def sym_eigs(s) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, sorted ascending."""
    return sym_eig(s)[0]


# ---------------------------------------------------------------------------
# Derived helpers
# ---------------------------------------------------------------------------

def spectral_norm(a) -> float:
    """Largest singular value, computed from the symmetric eigenproblem of A^T A."""
    A = as_matrix(a)
    if A.size == 0:
        return 0.0
    w = sym_eigs(A.T @ A)
    return float(np.sqrt(max(w[-1], 0.0)))


def singular_values(a) -> np.ndarray:
    """All singular values, sorted ascending."""
    A = as_matrix(a)
    w = sym_eigs(A.T @ A)
    return np.sqrt(np.clip(w, 0.0, None))


def sym_pseudo_solve(s, y) -> np.ndarray:
    """Minimum-norm solution of ``S x = y`` for symmetric ``S`` (rank-deficient
    allowed): eigenvalues within ``1e-10 * max|w|`` of zero count as zero."""
    w, V = sym_eig(s)
    y = as_vector(y)
    cut = 1e-10 * max(float(np.abs(w).max(initial=0.0)), 1.0e-300)
    coeff = V.T @ y
    inv = np.where(np.abs(w) > cut, 1.0 / np.where(w == 0.0, 1.0, w), 0.0)
    return V @ (inv * coeff)
