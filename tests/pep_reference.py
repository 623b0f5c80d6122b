"""Independent references for the PEP tests.

``build_expansiveness_matrices`` writes the six-point expansiveness problem
with hand-coded matrices, the cross-check of :func:`pep.build_expansiveness_pep`,
which builds it from the class table, ``inner_matrix`` is the dense matrix
of one inner product, and ``counterexample_vectors`` labels
the explicit expansive instance's vectors by its basis.  ``embed_points``
takes labeled concrete vectors to their verified Gram point, and
``gram_to_points`` factors a Gram matrix back into vectors.  ``ball_norm_pep``
and ``delta_composite_pep`` are the two variants of the norm PEP that the
CLI does not build: the start on the unit ball, and the one-step change of
the extrapolated-point norms.  ``lower_bound_search`` is a
solver-free lower bound by low-rank gradient ascent, a check on
:func:`pep.solve` that shares nothing with the interior-point method but the
repair step and :func:`pep.verify_point`.
"""

import numpy as np

from vicert import numerics
from vicert.errors import BadParameters, DimensionMismatch, NoConvergence, VicertError
from vicert.pep import (
    _EXP_BASIS,
    _SOLVE_TOL,
    FeasiblePoint,
    GramProblem,
    _expansiveness_interior,
    _repair,
    _rows_cols,
    _sym_cell,
    build_delta_pep,
    build_norm_pep,
    sq_matrix,
    verify_point,
)


def inner_matrix(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Symmetric M with <u, v> = Tr(M G) for the basis Gram matrix G, where
    u and v hold basis coefficients: the dense form of one factored pair
    cell of :class:`pep.PairForms`."""
    return _sym_cell(_rows_cols(u), _rows_cols(v))


def build_expansiveness_matrices(ell: float, gamma1: float, gamma2: float) -> GramProblem:
    """The six-point expansiveness SDP with hand-coded constraint matrices.

    Basis order (x, y, xF1, yF1, xF2, yF2); objective is the squared
    expansion of the update, six interpolation inequalities, and the unit
    separation equality.
    """
    if min(ell, gamma1, gamma2) <= 0.0:
        raise BadParameters("ell, gamma1, gamma2 must be positive")
    l, g, g2 = ell, gamma1, gamma2

    M0 = np.zeros((6, 6))
    M0[0, 0] = M0[1, 1] = 1.0
    M0[0, 1] = M0[1, 0] = -1.0
    M0[0, 4] = M0[4, 0] = -g2
    M0[0, 5] = M0[5, 0] = g2
    M0[1, 4] = M0[4, 1] = g2
    M0[1, 5] = M0[5, 1] = -g2
    M0[4, 4] = M0[5, 5] = g2 * g2
    M0[4, 5] = M0[5, 4] = -g2 * g2

    M1 = np.zeros((6, 6))
    M1[2, 2] = l * g - 1.0
    M1[2, 4] = M1[4, 2] = 1.0 - l * g / 2.0
    M1[4, 4] = -1.0

    M2 = np.zeros((6, 6))
    M2[0, 2] = M2[2, 0] = l / 2.0
    M2[0, 3] = M2[3, 0] = -l / 2.0
    M2[1, 2] = M2[2, 1] = -l / 2.0
    M2[1, 3] = M2[3, 1] = l / 2.0
    M2[2, 2] = M2[3, 3] = -1.0
    M2[2, 3] = M2[3, 2] = 1.0

    M3 = np.zeros((6, 6))
    M3[0, 2] = M3[2, 0] = l / 2.0
    M3[0, 5] = M3[5, 0] = -l / 2.0
    M3[1, 2] = M3[2, 1] = -l / 2.0
    M3[1, 5] = M3[5, 1] = l / 2.0
    M3[2, 2] = -1.0
    M3[2, 3] = M3[3, 2] = l * g / 2.0
    M3[2, 5] = M3[5, 2] = 1.0
    M3[3, 5] = M3[5, 3] = -l * g / 2.0
    M3[5, 5] = -1.0

    M4 = np.zeros((6, 6))
    M4[0, 3] = M4[3, 0] = -l / 2.0
    M4[0, 4] = M4[4, 0] = l / 2.0
    M4[1, 3] = M4[3, 1] = l / 2.0
    M4[1, 4] = M4[4, 1] = -l / 2.0
    M4[2, 3] = M4[3, 2] = l * g / 2.0
    M4[2, 4] = M4[4, 2] = -l * g / 2.0
    M4[3, 3] = M4[4, 4] = -1.0
    M4[3, 4] = M4[4, 3] = 1.0

    M5 = np.zeros((6, 6))
    M5[0, 4] = M5[4, 0] = l / 2.0
    M5[0, 5] = M5[5, 0] = -l / 2.0
    M5[1, 4] = M5[4, 1] = -l / 2.0
    M5[1, 5] = M5[5, 1] = l / 2.0
    M5[2, 4] = M5[4, 2] = -l * g / 2.0
    M5[2, 5] = M5[5, 2] = l * g / 2.0
    M5[3, 4] = M5[4, 3] = l * g / 2.0
    M5[3, 5] = M5[5, 3] = -l * g / 2.0
    M5[4, 4] = M5[5, 5] = -1.0
    M5[4, 5] = M5[5, 4] = 1.0

    M6 = np.zeros((6, 6))
    M6[3, 3] = l * g - 1.0
    M6[3, 5] = M6[5, 3] = 1.0 - l * g / 2.0
    M6[5, 5] = -1.0

    M7 = np.zeros((6, 6))
    M7[0, 0] = M7[1, 1] = 1.0
    M7[0, 1] = M7[1, 0] = -1.0

    names = ("x|x_mid", "x|y", "x|y_mid", "x_mid|y", "x_mid|y_mid", "y|y_mid")
    return GramProblem(
        name="eg-expansiveness",
        basis=_EXP_BASIS,
        objective=M0,
        inequalities=tuple((nm, M, 0.0) for nm, M in zip(names, (M1, M2, M3, M4, M5, M6))),
        equalities=(("unit-separation", M7, 1.0),),
        metadata={"ell": ell, "gamma1": gamma1, "gamma2": gamma2},
        interior=_expansiveness_interior(ell, gamma1),
    )


def ball_norm_pep(L, gamma1, gamma2, K, operator_class="monotone-lipschitz") -> GramProblem:
    """:func:`pep.build_norm_pep` with ||x0 - xstar||^2 <= 1, the inequality
    ``start-in-ball`` after the pairs', in place of the unit-start equality;
    its pairs are the builder's, and it has no stored interior point."""
    unit = build_norm_pep(L, gamma1, gamma2, K, operator_class)
    dx0 = np.eye(unit.n)[unit.basis.index("dx0")]
    return GramProblem(name=unit.name, basis=unit.basis, objective=unit.objective,
                       inequalities=(("start-in-ball", -sq_matrix(dx0), -1.0),),
                       metadata=unit.metadata, pairs=unit.pairs)


def delta_composite_pep(L, gamma1, gamma2, operator_class="monotone-lipschitz") -> GramProblem:
    """Worst case of ||F(xt^1)||^2 - ||F(xt^0)||^2, the change of the
    extrapolated-point norms, over :func:`pep.build_delta_pep`'s basis,
    constraints and interior point."""
    delta = build_delta_pep(L, gamma1, gamma2, operator_class)
    e = dict(zip(delta.basis, np.eye(delta.n)))
    return GramProblem(name="eg-delta-composite", basis=delta.basis,
                       objective=sq_matrix(e["Fxt1"]) - sq_matrix(e["Fxt0"]),
                       equalities=(("unit-start", sq_matrix(e["dx0"]), 1.0),),
                       metadata={**delta.metadata, "objective": "delta-composite"},
                       interior=delta.interior, pairs=delta.pairs)


def counterexample_vectors(inst) -> dict[str, np.ndarray]:
    """Label the six explicit vectors of an expansive instance by the basis."""
    return {
        "x": inst.x, "y": inst.y, "xF1": inst.x_f1, "yF1": inst.y_f1,
        "xF2": inst.x_f2, "yF2": inst.y_f2,
    }


def zero_sign_differences(hand: np.ndarray, table: np.ndarray) -> int:
    """Assert that the hand-coded and table-built arrays are equal in every
    value and that their bits differ only where the hand-coded cell holds
    +0.0 and the table's -0.0; return the number of such cells."""
    assert np.array_equal(hand, table)
    differ = hand.view(np.int64) != table.view(np.int64)
    assert (hand[differ] == 0.0).all() and not np.signbit(hand[differ]).any() \
        and np.signbit(table[differ]).all()
    return int(differ.sum())


def lower_bound_search(prob: GramProblem, restarts: int = 32, seed: int = 0,
                       ascent_steps: int = 5000, rounds: int = 5) -> FeasiblePoint:
    """Maximize the objective over feasible Gram matrices via G = V^T V.

    Batched gradient ascent with augmented-Lagrangian penalties, one V per
    restart, V of rank 6, and a penalty of 10 that grows tenfold per round;
    starts are drawn at four times the equality's natural scale, which keeps
    the low-rank iterates clear of the degenerate rank-one critical point at
    the equality's own Gram matrix.  Every candidate is repaired (exact
    rescaling onto the homogeneous equality, then a minimal mix toward the
    stored interior point) and re-verified; the best verified objective is a
    certified lower bound on the problem value.  The constraint matrices are
    read once, as the adjoint of each unit vector, so the search reaches
    them only through :meth:`GramProblem.adjoint`.  Deterministic for a
    fixed seed; raises :class:`NoConvergence` when no restart verifies.
    """
    if restarts < 1:
        raise BadParameters("restarts must be at least 1")
    V = np.random.default_rng(seed).standard_normal((restarts, 6, prob.n))

    m, q = len(prob.rhs), len(prob.inequalities)
    A = np.array([prob.adjoint(e) for e in np.eye(m)])
    flat = A.reshape(m, -1)

    def apply(G):
        """Tr(M_k G) for every constraint k and each G of a (b, n, n) stack: (b, m)."""
        return (flat @ G.reshape(len(G), -1).T).T

    def multipliers(lam, G, mu):
        """lam - mu (Tr(M_k G) - rhs_k) per restart, clipped at 0 on the
        inequalities; ``lam`` holds the equalities' multipliers negated."""
        w = lam - mu * (apply(G) - prob.rhs)
        w[:, :q] = np.maximum(0.0, w[:, :q])
        return w

    G = np.einsum("bri,brj->bij", V, V)
    if prob.equalities:
        t0 = apply(G)[:, q]
        target = prob.rhs[q] if prob.rhs[q] > 0 else 1.0
        V *= (4.0 * np.sqrt(target / np.maximum(np.abs(t0), 1e-12)))[:, None, None]

    lam = np.zeros((restarts, m))
    for rnd in range(rounds):
        mu = 10.0 * 10.0**rnd
        for it in range(ascent_steps):
            G = np.einsum("bri,brj->bij", V, V)
            comb = prob.objective + np.tensordot(multipliers(lam, G, mu), A, axes=1)
            grad = 2.0 * np.matmul(V, comb)
            gn = np.sqrt(np.einsum("bri,bri->b", grad, grad))
            vn = np.sqrt(np.einsum("bri,bri->b", V, V))
            step = 0.1 * vn / (gn + 1e-30) / (1.0 + it / 50.0)
            V = V + step[:, None, None] * grad
        G = np.einsum("bri,brj->bij", V, V)
        lam = multipliers(lam, G, mu)

    best: FeasiblePoint | None = None
    feasible = 0
    for b in range(restarts):
        G_b, path = _repair(prob, G[b])
        point = None if G_b is None else verify_point(prob, G_b)
        if point is None or not point.feasible(_SOLVE_TOL):
            continue
        feasible += 1
        if best is None or point.objective > best.objective:
            best, best_path = point, path
    if best is None:
        raise NoConvergence(
            f"no restart produced a feasible point within tolerance {_SOLVE_TOL}")
    best.solver = {"method": "search", "iterations": rounds * ascent_steps,
                   "restarts": restarts, "feasible_restarts": feasible,
                   "repair": best_path}
    return best


class LabelMismatch(VicertError):
    pass


class NotPSD(VicertError):
    pass


def embed_points(prob: GramProblem, vectors: dict[str, np.ndarray]) -> FeasiblePoint:
    """Gram matrix of labeled concrete vectors, with residuals against the
    problem's constraints."""
    if set(vectors) != set(prob.basis):
        missing = set(prob.basis) - set(vectors)
        extra = set(vectors) - set(prob.basis)
        raise LabelMismatch(f"missing labels {sorted(missing)}, extra {sorted(extra)}")
    vecs = [numerics.as_vector(vectors[lab]) for lab in prob.basis]
    sizes = {v.size for v in vecs}
    if len(sizes) > 1:
        raise DimensionMismatch(f"vectors of unequal lengths {sorted(sizes)}")
    U = np.array(vecs)
    return verify_point(prob, U @ U.T)


def gram_to_points(G) -> list[np.ndarray]:
    """Factor a PSD matrix into vectors of dimension rank(G); eigenvalues up to
    ``1e-9 * trace(G)`` are dropped, and one below -1e-9 raises :class:`NotPSD`."""
    G = numerics.as_matrix(G, square=True)
    w, V = numerics.sym_eig(0.5 * (G + G.T))
    if w.size and w[0] < -1e-9:
        raise NotPSD(f"minimum eigenvalue {w[0]:.3e}")
    clip = 1e-9 * max(float(np.trace(G)), 0.0)
    keep = w > clip
    scale = np.sqrt(w[keep])
    U = V[:, keep] * scale
    return [U[i].copy() for i in range(G.shape[0])]
