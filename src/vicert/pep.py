"""Worst-case analysis problems in Gram-matrix form.

Assembles the expansiveness and norm-decay SDPs over a basis of abstract
vectors from the pairwise class inequalities, solves them by an
interior-point method, and exports SDPA sparse files for external solvers.
Every point returned as a bound is repaired and re-verified against every
constraint, so it is a certified lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from . import classes, numerics
from .errors import BadParameters, DimensionMismatch, NoConvergence
from .serial import fmt17


# ---------------------------------------------------------------------------
# Bilinear forms over a named basis
# ---------------------------------------------------------------------------

def _sym_cell(u, v):
    """The (r, c) cell of the symmetric form of u v^T, from ``u = (u_r, u_c)``
    and ``v = (v_r, v_c)``; broadcast operands give whole matrices."""
    return 0.5 * (u[0] * v[1] + u[1] * v[0])


def _rows_cols(a):
    """``a``'s entries broadcast along rows and along columns, for :func:`_sym_cell`."""
    return a[..., :, None], a[..., None, :]


def sq_matrix(u: np.ndarray) -> np.ndarray:
    return np.outer(u, u)


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------

# pair cells computed per run of the export: each temporary stays near 64 kB
_RUN_CELLS = 8192


@dataclass(frozen=True)
class PairForms:
    """Constraints in factored form: the class-table rows on the differences
    of pairs of points.  Constraint ``p * len(rows) + t``, named
    ``names[p * len(rows) + t]``, is the symmetric M with Tr(M G) =
    ``rows[t].slack(dx[p], dF[p], <., .>)`` for the basis Gram matrix G,
    where ``dx[p]`` and ``dF[p]`` hold the basis coefficients of x_i - x_j
    and F_i - F_j for the p-th pair (i, j)."""

    dx: np.ndarray
    dF: np.ndarray
    rows: tuple[classes.Row, ...]
    names: tuple[str, ...]

    @classmethod
    def over(cls, points, rows, name: str) -> "PairForms":
        """The rows on every pair i < j of ``(label, x, F(x))`` points, x and
        F(x) given as basis coefficient rows, in :func:`classes.pairs` order;
        constraint names are ``name.format(tag=row.tag, i=label_i, j=label_j)``."""
        X = np.array([x for _, x, _ in points])
        F = np.array([fx for _, _, fx in points])
        i, j = np.triu_indices(len(points), k=1)
        names = tuple(name.format(tag=row.tag, i=points[a][0], j=points[b][0])
                      for a, b in zip(i.tolist(), j.tolist()) for row in rows)
        return cls(X[i] - X[j], F[i] - F[j], tuple(rows), names)

    def __len__(self) -> int:
        return len(self.names)

    def dense(self) -> np.ndarray:
        """The constraint matrices, stacked (len, n, n)."""
        dx, dF = _rows_cols(self.dx), _rows_cols(self.dF)
        n = self.dx.shape[1]
        return np.stack([row.slack(dx, dF, _sym_cell) for row in self.rows],
                        axis=1).reshape(-1, n, n)

    def upper_nonzeros(self):
        """Yield ``(lo, hi, constraint, cell, value)`` for runs of consecutive
        pairs: the nonzero upper-triangle cells (r <= c, as r*n + c) of
        constraints lo..hi-1, sorted by constraint and cell.

        Only cells whose row and column both lie in the pair's support (the
        nonzero coefficients of its dx or dF) are computed: every product
        outside it has a zero factor, so :meth:`dense` holds signed zeros
        there, and inside it each value is :meth:`dense`'s to the bit.  A run
        holds about ``_RUN_CELLS`` such cells.
        """
        npairs, n = self.dx.shape
        nrows = len(self.rows)
        pair_of, support = np.nonzero((self.dx != 0) | (self.dF != 0))
        size = np.bincount(pair_of, minlength=npairs)
        first = np.cumsum(size) - size
        a, b = np.triu_indices(size.max(initial=0))
        ends = np.cumsum(nrows * size * (size + 1) // 2)
        cuts = np.searchsorted(ends, np.arange(_RUN_CELLS, ends.max(initial=0),
                                               _RUN_CELLS)).tolist()

        for lo, hi in zip([0] + cuts, cuts + [npairs]):
            pair, k = np.nonzero(b < size[lo:hi, None])
            pair += lo
            at = first[pair]
            r, c = support[at + a[k]], support[at + b[k]]
            dx = self.dx[pair, r], self.dx[pair, c]
            dF = self.dF[pair, r], self.dF[pair, c]
            value = np.concatenate([row.slack(dx, dF, _sym_cell) for row in self.rows])
            con = np.concatenate([pair * nrows + t for t in range(nrows)])
            keep = np.flatnonzero(value)
            # each row's cells come in pair order: a stable sort interleaves them
            keep = keep[np.argsort(con[keep], kind="stable")]
            yield (lo * nrows, hi * nrows, con[keep],
                   np.tile(r * n + c, nrows)[keep], value[keep])


class GramProblem:
    """max Tr(objective . G) over PSD G subject to Tr(M_i G) >= rhs_i and
    Tr(E_j G) = rhs_j, all matrices symmetric over the named basis.

    ``inequalities`` and ``equalities`` are given as (name, matrix, rhs)
    triples and read back as tuples of their names.  ``pairs`` adds
    constraints in factored form, before the given inequalities, as
    inequalities with rhs 0: names, right-hand sides and the SDPA export read
    the factors.  Code outside the class reaches the constraint matrices only
    through :meth:`apply`, :meth:`adjoint` and :meth:`schur`, which build the
    stacked :attr:`constraints` on first use.
    """

    def __init__(self, name: str, basis, objective: np.ndarray, inequalities=(),
                 equalities=(), metadata: dict | None = None,
                 interior: np.ndarray | None = None, pairs: PairForms | None = None):
        self.name = name
        self.basis = tuple(basis)
        self.objective = objective
        self.metadata = {} if metadata is None else metadata
        self.interior = interior
        self.pairs = pairs
        inequalities, equalities = tuple(inequalities), tuple(equalities)
        given = inequalities + equalities
        lead = len(pairs) if pairs is not None else 0
        self.names = (pairs.names if pairs is not None else ()) + tuple(nm for nm, _, _ in given)
        self.rhs = np.array([0.0] * lead + [rhs for _, _, rhs in given], dtype=float)
        q = lead + len(inequalities)
        self.inequalities, self.equalities = self.names[:q], self.names[q:]
        n = len(self.basis)
        mats = [objective] + [mat for _, mat, _ in given]
        if any(np.shape(mat) != (n, n) for mat in mats):
            raise BadParameters("constraint matrix shape does not match basis")
        # the objective, then the given constraints: one symmetry check for all
        self._dense = np.array(mats, dtype=float)
        asym = np.abs(self._dense - self._dense.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
        if (asym > 1e-14 * (1.0 + np.abs(self._dense).max(axis=(1, 2), initial=0.0))).any():
            raise BadParameters("constraint matrices must be symmetric")

    @property
    def n(self) -> int:
        return len(self.basis)

    @cached_property
    def constraints(self) -> np.ndarray:
        """Every constraint matrix, inequalities first, stacked (m, n, n)."""
        if self.pairs is None:
            return self._dense[1:]
        return np.concatenate([self.pairs.dense(), self._dense[1:]])

    def apply(self, G) -> np.ndarray:
        """Tr(M_k G) for every constraint k, in :attr:`names` order, for one
        (n, n) matrix G: shape (m,)."""
        return self.constraints.reshape(-1, self.n * self.n) @ np.asarray(G).reshape(-1)

    def adjoint(self, y) -> np.ndarray:
        """sum_k y_k M_k for one (m,) vector y: shape (n, n)."""
        return np.tensordot(y, self.constraints, axes=1)

    def schur(self, G, W) -> np.ndarray:
        """The (m, m) matrix of Tr(M_k G M_l W)."""
        A, nn = self.constraints, self.n * self.n
        m = len(A)
        return (A @ G).reshape(m, nn) @ (A @ W).transpose(0, 2, 1).reshape(m, nn).T

    def constraint_values(self, G) -> np.ndarray:
        """Tr(M_k G) - rhs_k for every constraint, in :attr:`names` order."""
        return self.apply(G) - self.rhs

    def objective_value(self, G) -> float:
        return float(np.sum(self.objective * G))

    def upper_nonzeros(self):
        """Yield ``(lo, hi, matrix, cell, value)``: the nonzero upper-triangle
        cells (r <= c, as r*n + c) of matrices lo..hi-1, sorted by matrix and
        cell, with the objective as matrix 0 and constraint k as matrix k + 1.
        The runs cover every matrix in order."""
        n = self.n
        rows, cols = np.triu_indices(n)
        cells = rows * n + cols
        upper = self._dense.reshape(len(self._dense), n * n)[:, cells]
        mat, k = np.nonzero(upper)   # skips 0.0 and -0.0 alike
        cell, value = cells[k], upper[mat, k]
        head = np.searchsorted(mat, 1)   # the objective's cells
        yield 0, 1, mat[:head], cell[:head], value[:head]
        lead = 0
        if self.pairs is not None:
            lead = len(self.pairs)
            for lo, hi, con, cell_p, value_p in self.pairs.upper_nonzeros():
                yield lo + 1, hi + 1, con + 1, cell_p, value_p
        yield (lead + 1, lead + len(self._dense), mat[head:] + lead,
               cell[head:], value[head:])


@dataclass
class FeasiblePoint:
    """A PSD Gram matrix with its objective value and constraint residuals."""

    G: np.ndarray
    objective: float
    min_eig: float
    inequality_values: np.ndarray
    equality_residuals: np.ndarray
    # what the computation that produced the point did; no timing, so that
    # outputs carrying it stay byte-stable
    solver: dict = field(default_factory=dict)

    @property
    def max_violation(self) -> float:
        worst = 0.0
        if self.inequality_values.size:
            worst = max(worst, float(np.maximum(0.0, -self.inequality_values).max()))
        if self.equality_residuals.size:
            worst = max(worst, float(np.abs(self.equality_residuals).max()))
        return worst

    def feasible(self, tol: float = 1e-9) -> bool:
        return self.min_eig >= -tol and self.max_violation <= tol

    def to_json(self) -> dict:
        return {
            "objective": self.objective,
            "min_eig": self.min_eig,
            "max_violation": self.max_violation,
            "inequality_values": self.inequality_values.tolist(),
            "equality_residuals": self.equality_residuals.tolist(),
            "G": self.G.tolist(),
        }


def verify_point(prob: GramProblem, G) -> FeasiblePoint:
    G = numerics.as_matrix(G)
    if G.shape != (prob.n, prob.n):
        raise DimensionMismatch(f"Gram matrix of shape {G.shape} for a basis of {prob.n}")
    w = numerics.sym_eigs(0.5 * (G + G.T))
    values = prob.constraint_values(G)
    q = len(prob.inequalities)
    return FeasiblePoint(
        G=G,
        objective=prob.objective_value(G),
        min_eig=float(w[0]) if w.size else 0.0,
        inequality_values=values[:q],
        equality_residuals=values[q:],
    )


# ---------------------------------------------------------------------------
# Expansiveness problem for the two-stepsize extrapolated update
# ---------------------------------------------------------------------------

_EXP_BASIS = ("x", "y", "xF1", "yF1", "xF2", "yF2")


def build_expansiveness_pep(ell: float, gamma1: float, gamma2: float) -> GramProblem:
    """Worst-case squared expansion of the two-stepsize extrapolated update
    on ell-cocoercive operators, at unit separation of the two start points.

    Basis (x, y, xF1, yF1, xF2, yF2): the starts, F at the starts and F at
    the extrapolated points x_mid = x - gamma1 F(x) and y_mid; the six
    cocoercivity inequalities over the pairs of (x, x_mid, y, y_mid), named
    ``i|j`` and kept factored, and the equality ``unit-separation``.
    """
    numerics.require_positive("ell, gamma1, gamma2", ell, gamma1, gamma2)
    x, y, xf1, yf1, xf2, yf2 = np.eye(len(_EXP_BASIS))
    points = [
        ("x", x, xf1),
        ("x_mid", x - gamma1 * xf1, xf2),
        ("y", y, yf1),
        ("y_mid", y - gamma1 * yf1, yf2),
    ]
    objective = sq_matrix(x - gamma2 * xf2 - y + gamma2 * yf2)
    return GramProblem(
        name="eg-expansiveness",
        basis=_EXP_BASIS,
        objective=objective,
        equalities=(("unit-separation", sq_matrix(x - y), 1.0),),
        metadata={"ell": ell, "gamma1": gamma1, "gamma2": gamma2},
        interior=_expansiveness_interior(ell, gamma1),
        pairs=PairForms.over(points, classes.rows("cocoercive", ell), "{i}|{j}"),
    )


def _expansiveness_interior(ell: float, gamma1: float) -> np.ndarray:
    """Strictly feasible Gram point from the concrete map F = (ell/2) * Id."""
    c = ell / 2.0
    x = np.array([-0.5, 0.0])
    y = np.array([0.5, 0.0])
    vecs = [x, y, c * x, c * y, c * (1.0 - gamma1 * c) * x, c * (1.0 - gamma1 * c) * y]
    U = np.array(vecs)
    return U @ U.T


# ---------------------------------------------------------------------------
# Norm-decay worst-case problems for the two-stepsize update
# ---------------------------------------------------------------------------

# the operator classes of build_norm_pep, each with its name in the class table
OPERATOR_CLASSES = {"monotone-lipschitz": "monotone+lipschitz", "cocoercive": "cocoercive"}


def build_norm_pep(L: float, gamma1: float, gamma2: float, K: int,
                   operator_class: str = "monotone-lipschitz") -> GramProblem:
    """Worst-case ||F(x^K)||^2 after K two-stepsize extrapolated steps.

    Gram basis {x0 - xstar} + {F(x^k)} + {F(xt^k)} with xt^k the extrapolated
    point of step k; pairwise interpolation constraints over all points
    including the solution; ||x0 - xstar||^2 = 1 (the scale-extremal form).
    The interpolation constraints are kept factored, as the coefficient rows
    of every pair's (dx, dF) with the class rows (:class:`PairForms`), so
    the export never builds their dense matrices.
    """
    return _unit_start_pep(L, gamma1, gamma2, K, operator_class, f"eg-norm-pep-K{K}",
                           "last-norm", lambda Fx: sq_matrix(Fx[K]))


def build_delta_pep(L: float, gamma1: float, gamma2: float,
                    operator_class: str = "monotone-lipschitz") -> GramProblem:
    """One-step norm-change problem: worst case of ||F(x^1)||^2 - ||F(x^0)||^2,
    over the basis and constraints of ``build_norm_pep(..., K=1)``."""
    return _unit_start_pep(L, gamma1, gamma2, 1, operator_class, "eg-delta-f", "delta-f",
                           lambda Fx: sq_matrix(Fx[1]) - sq_matrix(Fx[0]))


def _unit_start_pep(L, gamma1, gamma2, K, operator_class, name, objective, measure):
    """The K-step problem with the unit-start equality, named ``name``, whose
    objective is ``measure(Fx)`` for the basis coefficient rows Fx[k] of
    F(x^k); ``objective`` names it in the metadata."""
    if K < 1:
        raise BadParameters("K must be at least 1")
    numerics.require_positive("L, gamma1, gamma2", L, gamma1, gamma2)
    if operator_class not in OPERATOR_CLASSES:
        raise BadParameters(f"unknown operator class {operator_class!r}")
    labels = ["dx0"] + [f"Fx{k}" for k in range(K + 1)] + [f"Fxt{k}" for k in range(K + 1)]
    # basis coefficient rows: dx0, then F(x^k) and F(xt^k) for k = 0..K
    eye = np.eye(len(labels))
    dx0, Fx, Fxt = eye[0], eye[1:K + 2], eye[K + 2:]

    pos_x = []  # x^k - xstar
    cur = dx0
    for k in range(K + 1):
        pos_x.append(cur)
        cur = cur - gamma2 * Fxt[k]
    zero = np.zeros(len(labels))
    points = [("xstar", zero, zero)]
    for k in range(K + 1):
        points.append((f"x{k}", pos_x[k], Fx[k]))
    for k in range(K + 1):
        points.append((f"xt{k}", pos_x[k] - gamma1 * Fx[k], Fxt[k]))
    # the class rows reject an L whose square overflows, before the interior
    # point computes with it
    pairs = PairForms.over(points, classes.rows(OPERATOR_CLASSES[operator_class], L),
                           "{tag}:{i}|{j}")
    return GramProblem(
        name=name,
        basis=tuple(labels),
        objective=measure(Fx),
        equalities=(("unit-start", sq_matrix(dx0), 1.0),),
        metadata={"L": L, "gamma1": gamma1, "gamma2": gamma2, "K": K,
                  "operator_class": operator_class, "objective": objective},
        interior=_norm_pep_interior(L, gamma1, gamma2, K, labels),
        pairs=pairs,
    )


def _norm_pep_interior(L, gamma1, gamma2, K, labels):
    """Feasible Gram point from a 1-d run of F = c*Id, c chosen so all points
    stay distinct (strict interpolation slacks)."""
    for c in (L / 2.0, L / 3.0, 2.0 * L / 5.0, L / 7.0):
        xs = [1.0]
        for _ in range(K):
            xs.append(xs[-1] * (1.0 - gamma2 * c * (1.0 - gamma1 * c)))
        pts = [0.0] + xs + [(1.0 - gamma1 * c) * x for x in xs]
        spread = sorted(pts)
        min_gap = min(b - a for a, b in zip(spread, spread[1:]))
        if min_gap > 1e-6:
            vec = {"dx0": 1.0}
            for k, x in enumerate(xs):
                vec[f"Fx{k}"] = c * x
                vec[f"Fxt{k}"] = c * (1.0 - gamma1 * c) * x
            u = np.array([vec[lab] for lab in labels])
            return np.outer(u, u)
    return None


# ---------------------------------------------------------------------------
# Interior-point solve (certified lower bounds)
# ---------------------------------------------------------------------------

_SOLVE_REL_MU = 1e-8     # below about 1e-10 the primal residual grows again
_SOLVE_MAX_ITERS = 100
_STEP_FRACTION = 0.95    # of the longest step that keeps G, S, s, z positive
_SOLVE_TOL = 1e-9        # verification tolerance of every returned point


def solve(prob: GramProblem) -> FeasiblePoint:
    """Solve the problem by a dense primal-dual interior-point method.

    The variable is the Gram block G plus a diagonal block s with one slack
    per inequality, Tr(M_i G) - s_i = rhs_i; the dual slack is S on the Gram
    block and z on the diagonal one.  Each iteration takes a Mehrotra
    predictor-corrector step along the HKM direction from the Schur system
    Tr(M_k G M_l S^-1) + [k = l < q] s_k / z_k.  It stops once
    <G, S> + s.z falls to 1e-8 (1 + |objective|), or as soon as the Schur
    system is not numerically positive definite (its Cholesky fails), or
    when G or S has no Cholesky factor for the step lengths.  Every iterate
    is then repaired, and the repaired candidates are verified in descending
    order of objective, later iterates first among equals, until one passes:
    that one, the best verified iterate, is returned (near the end the
    primal residual can grow, and an interior mix costs more objective than
    the last steps gain), so the result is a certified lower bound whatever
    the solver's accuracy; its ``solver`` record says how it was reached.
    Raises :class:`NoConvergence` when no iterate verifies.
    """
    n, q = prob.n, len(prob.inequalities)
    C = -prob.objective              # the standard form minimizes Tr(C G)
    G, S = np.eye(n), np.eye(n)
    s, z = np.ones(q), np.ones(q)
    y = np.zeros(len(prob.rhs))
    N = n + q
    iterates = []                    # (G, max |primal residual|, relative mu)
    stop = "max-iterations"

    def primal(H, h):
        out = prob.apply(H)
        out[:q] -= h
        return out

    def max_steps(Ri, dG, ds, dS, dz):
        """Longest primal and dual steps keeping G + a dG, s + a ds and
        S + a dS, z + a dz positive (inf if any); ``Ri`` stacks the inverse
        Cholesky factors of G and S.  The stacked calls run per matrix the
        LAPACK routine that one call on it runs, so each keeps its bits."""
        T = Ri @ np.stack([dG, dS]) @ Ri.transpose(0, 2, 1)
        least = np.linalg.eigvalsh(0.5 * (T + T.transpose(0, 2, 1)))[:, 0].tolist()
        steps = []
        for w, dx, x in zip(least, (ds, dz), (s, z)):
            lo = min(w, float((dx / x).min(initial=0.0)))
            steps.append(-1.0 / lo if lo < 0.0 else np.inf)
        return steps

    with np.errstate(all="ignore"):
        for it in range(_SOLVE_MAX_ITERS + 1):
            rp = prob.rhs - primal(G, s)
            Rd = C - S - prob.adjoint(y)
            rd = y[:q] - z
            gap = float(np.sum(G * S) + s @ z)
            relmu = gap / (1.0 + abs(prob.objective_value(G)))
            if not (np.isfinite(rp).all() and np.isfinite(relmu)):
                stop = "non-finite"
                break
            iterates.append((G, float(np.abs(rp).max(initial=0.0)), relmu))
            if relmu <= _SOLVE_REL_MU:
                stop = "converged"
                break
            if it == _SOLVE_MAX_ITERS:
                break
            try:
                Sinv = np.linalg.inv(S)
                M = prob.schur(G, Sinv)
                M[:q, :q] += np.diag(s / z)
                Li = np.linalg.inv(np.linalg.cholesky(0.5 * (M + M.T)))
            except np.linalg.LinAlgError:
                stop = "schur-cholesky"
                break
            base = rp + primal(G @ Rd @ Sinv, s * rd / z)

            def direction(Rc, rc):
                """HKM direction for the complementarity residual (Rc, rc)."""
                H, h = Rc @ Sinv, rc / z
                dy = Li.T @ (Li @ (base - primal(H, h)))
                dS = Rd - prob.adjoint(dy)
                dz = rd + dy[:q]
                dG = H - G @ dS @ Sinv
                return 0.5 * (dG + dG.T), h - s * dz / z, dy, dS, dz

            try:
                # G and S are factored once, for the predictor and the corrector
                Ri = np.linalg.inv(np.linalg.cholesky(np.stack([G, S])))
                mu = gap / N
                dG, ds, dy, dS, dz = direction(-G @ S, -s * z)
                ap, ad = (min(1.0, a) for a in max_steps(Ri, dG, ds, dS, dz))
                mu_aff = float(np.sum((G + ap * dG) * (S + ad * dS))
                               + (s + ap * ds) @ (z + ad * dz)) / N
                sigma = min(1.0, mu_aff / mu) ** 3
                dG, ds, dy, dS, dz = direction(
                    sigma * mu * np.eye(n) - G @ S - dG @ dS,
                    sigma * mu - s * z - ds * dz)
                ap, ad = (min(1.0, _STEP_FRACTION * a)
                          for a in max_steps(Ri, dG, ds, dS, dz))
            except np.linalg.LinAlgError:
                stop = "step-length"
                break
            G, s = G + ap * dG, s + ap * ds
            S, y, z = S + ad * dS, y + ad * dy, z + ad * dz

    candidates = []                  # (objective, iterate, repaired G, path)
    for k, (G_k, _, _) in enumerate(iterates):
        G_k, path = _repair(prob, G_k)
        if G_k is not None:
            candidates.append((prob.objective_value(G_k), k, G_k, path))
    # best first, ties to the later iterate: the first that verifies is the
    # best verified one
    for _, k, G_k, path in sorted(candidates, key=lambda c: c[:2], reverse=True):
        point = verify_point(prob, G_k)
        if point.feasible(_SOLVE_TOL):
            _, residual, relmu = iterates[k]
            point.solver = {"method": "interior-point", "iterations": len(iterates) - 1,
                            "stop": stop, "iterate": k, "relative_mu": relmu,
                            "primal_residual": residual, "repair": path}
            return point
    raise NoConvergence(f"no interior-point iterate of {prob.name} verifies "
                        f"within tolerance {_SOLVE_TOL} (stopped: {stop})")


def _repair(prob: GramProblem, G: np.ndarray) -> tuple[np.ndarray | None, str]:
    """The repaired candidate, or None when it cannot be repaired, with the
    repair path taken: 'none', 'rescale' (exact rescaling onto the
    homogeneous equality) or 'interior-mix' (a minimal mix toward the stored
    interior point, after any rescaling)."""
    G = 0.5 * (G + G.T)
    path = "none"
    q = len(prob.inequalities)
    homogeneous = bool((prob.rhs[:q] == 0.0).all())
    if homogeneous and len(prob.equalities) == 1 and prob.rhs[-1] > 0:
        # the last given matrix: a problem never factors its equalities
        rhs, t = float(prob.rhs[-1]), float(np.sum(prob._dense[-1] * G))
        if t <= 1e-12:
            return None, path
        if rhs != t:
            G = G * (rhs / t)
            path = "rescale"
    if prob.interior is not None and homogeneous:
        vals = prob.constraint_values(G)[:q]
        violation = float(np.maximum(0.0, -vals).max(initial=0.0))
        if violation > 0.0:
            s_int = prob.constraint_values(prob.interior)[:q]
            s_min = float(s_int.min(initial=np.inf))
            if s_min > 0.0:
                theta = min(1.0, 1.02 * violation / (violation + s_min))
                for _ in range(4):
                    cand = (1.0 - theta) * G + theta * prob.interior
                    if prob.constraint_values(cand)[:q].min(initial=0.0) >= 0.0:
                        G = cand
                        path = "interior-mix"
                        break
                    theta = min(1.0, 2.0 * theta)
                else:
                    return None, path
    return G, path


# ---------------------------------------------------------------------------
# SDPA sparse export and re-parse
# ---------------------------------------------------------------------------

def export_sdpa(prob: GramProblem, path) -> None:
    """Write SDPA sparse format: block 1 is the Gram block, block 2 a diagonal
    slack block (one entry per inequality, absent when there are none).

    Constraint i reads Tr(M_i G) - s_i = rhs_i for inequalities, then the
    equalities follow with their right-hand sides; the dual of the exported
    problem maximizes Tr(M_0 G) over the same feasible set.  Each matrix
    lists the nonzero cells of its upper triangle in row-major order, values
    in 17 significant digits as :func:`serial.fmt17` writes them, then its
    slack-block entry.  The cells come from :meth:`GramProblem.upper_nonzeros`,
    so a factored problem is written without its dense matrices.
    """
    q = len(prob.inequalities)
    m = len(prob.rhs)
    n = prob.n
    # a line is three pieces, each made once: the matrix's head, the cell's
    # indices and the value's text
    heads = np.array([f"{k} 1 " for k in range(m + 1)], dtype=object)
    rows, cols = np.divmod(np.arange(n * n), n)
    cells = np.array([f"{i} {j} " for i, j in zip((rows + 1).tolist(), (cols + 1).tolist())],
                     dtype=object)
    with open(path, "w") as fh:
        fh.write(f'"{prob.name}"\n{m}\n{2 if q else 1}\n{f"{n} -{q}" if q else n}\n')
        fh.write(" ".join(_fmt17_each(prob.rhs).tolist()) + "\n")
        for lo, hi, mat, cell, value in prob.upper_nonzeros():
            # each inequality's slack-block line follows its Gram lines
            slack = np.arange(max(lo, 1), min(hi, q + 1))
            lines = np.empty((len(mat) + len(slack), 3), dtype=object)
            gram = np.arange(len(mat)) + np.searchsorted(slack, mat)
            lines[gram, 0] = heads[mat]
            lines[gram, 1] = cells[cell]
            lines[gram, 2] = _fmt17_each(value, "\n")
            at = np.searchsorted(mat, slack, side="right") + np.arange(len(slack))
            lines[at, 0] = [f"{k} 2 {k} {k} -1\n" for k in slack.tolist()]
            lines[at, 1:] = ""
            fh.write("".join(lines.ravel().tolist()))


def _fmt17_each(values: np.ndarray, end: str = "") -> np.ndarray:
    """``fmt17(v) + end`` for every float64 value, as an object array; each
    distinct bit pattern is formatted once."""
    # sorted with the stable sort that parse_sdpa's argsort also runs: the
    # default quicksort of np.unique pages in 0.5 MB more numpy code
    order = np.argsort(values.view(np.int64), kind="stable")
    bits = values.view(np.int64)[order]
    new = np.concatenate([bits[:1] == bits[:1], bits[1:] != bits[:-1]])
    texts = np.array([fmt17(v) + end for v in values[order][new].tolist()], dtype=object)
    out = np.empty(len(values), dtype=object)
    out[order] = texts[np.cumsum(new) - 1]
    return out


def _next_line(fh) -> str | None:
    """The next non-blank line of ``fh``, stripped; None at the end."""
    while ln := fh.readline():
        if ln.strip():
            return ln.strip()
    return None


# the most bytes of whole blocks in one of parse_sdpa's zeroed stacks.  One
# stack of all 1058 slack blocks of the K=15 norm PEP (9.4 GB) can fail to
# allocate under heuristic overcommit although the pages its fill touches
# fit; 256 MB is above glibc's largest dynamic mmap threshold (32 MB), so a
# full stack is a fresh zero mapping in any process
_STACK_BYTES = 1 << 28


def parse_sdpa(path) -> dict:
    """Re-read an SDPA sparse file; returns the name, the constraint count,
    block sizes, right-hand sides, and dense per-block matrices keyed by
    matrix number.

    ``path`` names a file, a FIFO included.  Entries may come in any order and from
    either triangle; blank lines are skipped, and the first line names the
    problem when it starts with a quote or ``*``.  A malformed file (a missing or non-numeric field, an
    entry line without five fields, a matrix, block or index out of range,
    an off-diagonal entry in a diagonal block, or a cell listed twice)
    raises :class:`BadParameters`.

    Block b of every matrix is a C-contiguous view into a zeroed stack of
    consecutive matrices' b blocks, each stack at most ``_STACK_BYTES`` of
    whole blocks (at least one), filled with one ``put``.  A block kept
    after the others are dropped keeps its whole stack's mapping alive.
    """
    try:
        with open(path) as fh:
            first = _next_line(fh)
            name = None
            if first is not None and first[0] in "\"*":
                name = first.strip('"')
                first = _next_line(fh)
            header = [first, _next_line(fh), _next_line(fh), _next_line(fh)]
            if None in header:
                raise BadParameters(f"SDPA file {path} ends inside its header")
            m = int(header[0])
            nblocks = int(header[1])
            sizes = [int(tok) for tok in header[2].split()]
            rhs = np.array([float(tok) for tok in header[3].split()])
            if m < 0 or nblocks < 1 or len(sizes) != nblocks:
                raise BadParameters(f"SDPA header gives {m} constraints and "
                                    f"{nblocks} blocks of sizes {sizes}")
            if rhs.size != m:
                raise BadParameters(f"{rhs.size} right-hand sides for {m} constraints")
            # per block, the matrices lo..lo+per-1 share a stack; the stacks
            # take the heap space an earlier parse freed, before the entry
            # arrays can split it
            dims = [abs(s) for s in sizes]
            per = [max(1, _STACK_BYTES // max(8 * d * d, 1)) for d in dims]
            stacks = [[np.zeros((min(p, m + 1 - lo), d, d)) for lo in range(0, m + 1, p)]
                      for d, p in zip(dims, per)]
            # matrix k's blocks are the k-th views of each block's stacks
            views = [[v for stack in row for v in stack] for row in stacks]
            blocks = {k: list(bs) for k, bs in enumerate(zip(*views))}
            # loadtxt takes the first entry line chained before the rest of
            # the file, which it reads in blocks; on no entry line at all it warns
            first = _next_line(fh)
            if first is None:
                entries = np.empty((0, 5))
            else:
                entries = np.loadtxt(chain([first], fh), ndmin=2, comments=None)
    except ValueError as exc:
        raise BadParameters(f"malformed SDPA file {path}: {exc}") from None
    if entries.shape[1] != 5:
        raise BadParameters(f"SDPA entry lines have {entries.shape[1]} fields, not 5")
    mk, blk, i, j, val = entries.T
    ok = (entries[:, :4] == np.floor(entries[:, :4])).all(axis=1) \
        & (mk >= 0) & (mk <= m) & (blk >= 1) & (blk <= nblocks)
    size = np.array(sizes, dtype=float)[np.where(ok, blk, 1).astype(np.int64) - 1]
    dim = np.abs(size)
    ok &= (i >= 1) & (i <= dim) & (j >= 1) & (j <= dim) & ~((size < 0) & (i != j))
    bad = np.flatnonzero(~ok)
    if bad.size:
        row = " ".join(f"{v:g}" for v in entries[bad[0]])
        raise BadParameters(f"SDPA entry '{row}' names no cell: matrices run 0..{m}, "
                            f"blocks 1..{nblocks}, indices within the block")
    # each entry's (matrix, block) group and the flat offsets of its cell in
    # the upper and lower triangle, sorted by group and cell with one stable
    # sort of the key group * span + upper; float64 holds these integers
    # exactly
    group = (mk * nblocks + blk - 1).astype(np.int64)
    lo, hi = np.minimum(i, j) - 1, np.maximum(i, j) - 1
    upper, lower = (lo * dim + hi).astype(np.int64), (hi * dim + lo).astype(np.int64)
    span = int(upper.max(initial=0)) + 1
    order = np.argsort(group * span + upper, kind="stable")
    group, upper, lower, val = group[order], upper[order], lower[order], val[order]
    same = group[1:] == group[:-1]
    twice = np.flatnonzero(same & (upper[1:] == upper[:-1]))
    if twice.size:
        k, bl = divmod(int(group[twice[0]]), nblocks)
        r, c = divmod(int(upper[twice[0]]), abs(sizes[bl]))
        raise BadParameters(f"SDPA entry '{k} {bl + 1} {r + 1} {c + 1}' is listed twice")
    mat, block = np.divmod(group, nblocks)
    # the fill touches a page of every slack block: free the entry arrays first
    del entries, mk, blk, i, j, ok, bad, size, dim, lo, hi, order, group, same
    # one put per stack of its cells in both triangles, at flat offset
    # (k - lo)*d*d + cell; a block's entries, in sorted order, run by matrix
    for b, (d, p) in enumerate(zip(dims, per)):
        sel = block == b
        k = mat[sel]
        at = (((k % p) * (d * d))[:, None] + np.stack([upper[sel], lower[sel]], axis=1)).ravel()
        vals = np.repeat(val[sel], 2)
        cuts = [2 * c for c in np.searchsorted(k, range(0, m + 1, p)).tolist()] + [at.size]
        for stack, a, z in zip(stacks[b], cuts, cuts[1:]):
            stack.put(at[a:z], vals[a:z])
    return {"name": name, "m": m, "block_sizes": sizes, "rhs": rhs, "blocks": blocks}
