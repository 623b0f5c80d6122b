import copy
import json
from pathlib import Path

import draw_reference
import numpy as np
import pytest

from vicert import harness, numerics
from vicert.errors import (
    BadParameters,
    DimensionMismatch,
    PreconditionViolated,
    VicertError,
)
from vicert.harness import (
    check_eftp_bound,
    check_eg_last_bounds,
    check_eg_norm_violation_regimes,
    check_eg_random_bound,
    check_gd_bounds,
    check_hgm_affine_contraction,
    check_hgm_bounds,
    check_pp_bound,
    run_report,
    report_to_json,
    standard_suite,
)
from vicert.operators import (
    Affine,
    LogisticGrad,
    Operator,
    eg_operator,
    rotation,
    scaled_identity,
)
from vicert.solvers import SolverConfig, run, run_many

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestGd:
    def test_identity_k0_equality(self):
        op = scaled_identity(1.0, 1)
        avg, last = check_gd_bounds(op, 1.0, 1.0, 0, np.array([3.0]))
        assert avg.passed and last.passed
        assert avg.observed[0] == avg.bound[0] == 9.0

    def test_identity_later_iterates_zero(self):
        op = scaled_identity(1.0, 2)
        avg, last = check_gd_bounds(op, 1.0, 1.0, 5, np.array([1.0, 1.0]))
        assert last.observed[-1] == 0.0
        assert avg.passed and last.passed

    def test_diag_run(self):
        op = Affine(np.diag([1.0, 2.0]))
        avg, last = check_gd_bounds(op, 2.0, 0.5, 100, np.array([1.0, 1.0]))
        assert avg.passed and last.passed

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            check_gd_bounds(scaled_identity(1.0, 1), 1.0, 1.5, 10, np.array([1.0]))


class TestPp:
    def test_rotation(self):
        check = check_pp_bound(rotation(), 1.0, 1.0, 50, np.array([1.0, 0.0]))
        assert check.passed

    def test_identity_closed_form(self):
        # inner stepsize 2 resolves y = x/3, so the composite maps x -> x/3
        op = scaled_identity(1.0, 1)
        check = check_pp_bound(op, 1.0, 1.0, 3, np.array([9.0]))
        assert check.passed
        assert check.observed[0] == pytest.approx(9.0, abs=1e-10)

    def test_logistic(self):
        op = LogisticGrad(1.0, 0.01)
        check = check_pp_bound(op, 1.0, 1.0, 40, np.array([2.0]))
        assert check.passed


class _Extrapolated(Operator):
    """x -> F(x - gamma*F(x)) for a nonlinear F, in both of F's forms, with
    the extrapolated point checked as a public call would check it: gd on
    it is the reference for the eg-random check's eg2 rows."""

    def __init__(self, inner, gamma):
        self.inner, self.gamma = inner, gamma
        self.dim, self.float_form = inner.dim, inner.float_form

    def _apply(self, x):
        F = self.inner._apply
        return F(numerics.as_vector(x - self.gamma * F(x)))

    def _apply_float(self, x):
        F = self.inner._apply_float
        return F(numerics.as_finite(x - self.gamma * F(x)))


class _SkewTanh(Operator):
    """F(x) = (x2, -x1) + tanh(x): monotone, 2-Lipschitz, root 0, array form only."""

    kind = "skew-tanh"
    dim = 2

    def _apply(self, x):
        return np.array([x[1], -x[0]]) + np.tanh(x)

    def root(self):
        return np.zeros(2)


class TestEgRandom:
    @pytest.mark.parametrize("frac", [0.5, 1.0])
    @pytest.mark.parametrize("op, L, x0", [
        (LogisticGrad(1.0, 0.01), 0.26, [2.0]),
        (_SkewTanh(), 2.0, [1.5, -0.5]),
    ], ids=["logistic", "skew-tanh"])
    def test_nonlinear_rows_are_gd_on_the_composite(self, op, L, x0, frac):
        """On a nonlinear F the check steps eg2; its rows are, bit for bit,
        those of gd on x -> F(x - gamma1*F(x))."""
        g1 = frac / L
        check = check_eg_random_bound(op, L, g1, 0.5 * g1, 300, x0)
        trace = run(_Extrapolated(op, g1),
                    SolverConfig("gd", gamma=0.5 * g1, iters=300, x0=np.array(x0)))
        ks = np.arange(len(trace))
        d0 = float(np.sum((np.array(x0) - op.root()) ** 2))
        assert len(trace) == 301 and not trace.diverged
        assert check.ks.tobytes() == ks.tobytes()
        assert check.observed.tobytes() == (np.cumsum(trace.fx_sq) / (ks + 1)).tobytes()
        assert check.bound.tobytes() == (2.0 * d0 / (g1 * (0.5 * g1) * (ks + 1.0))).tobytes()
        assert check.passed

    @pytest.mark.parametrize("x0", [2.0, -40.0, 1e150, 1e308],
                             ids=["normal", "saturated", "1e+150", "1e+308"])
    @pytest.mark.parametrize("frac", [0.5, 1.0])
    @pytest.mark.parametrize("op, L", [
        (LogisticGrad(1.0, 0.01), 0.26),
        (LogisticGrad(-2.5, 3.0), 4.5625),
    ], ids=["logistic", "logistic-steep"])
    def test_nonlinear_floats_match_arrays(self, op, L, frac, x0):
        """eg2 steps a 1-D F on Python floats: the check reads the same bits
        from F's array form, and raises the same error where it raises one
        (from 1e308, ||x0 - x*||^2 and so the bound pass float range)."""
        arrays = copy.copy(op)
        arrays.float_form = False
        g1 = frac / L
        outcomes = []
        for form in (op, arrays):
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    check = check_eg_random_bound(form, L, g1, 0.5 * g1, 200, [x0])
                outcomes.append((check.ks.tobytes(), check.observed.tobytes(),
                                 check.bound.tobytes(), check.passed))
            except VicertError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]

    def test_rotation(self):
        check = check_eg_random_bound(rotation(), 1.0, 1.0, 0.5, 100,
                                      np.array([1.0, 0.0]))
        assert check.passed

    def test_diag(self):
        op = Affine(np.diag([1.0, 2.0]))
        check = check_eg_random_bound(op, 2.0, 0.5, 0.25, 100, np.array([1.0, 1.0]))
        assert check.passed

    def test_stepsize_preconditions(self):
        with pytest.raises(PreconditionViolated):
            check_eg_random_bound(rotation(), 1.0, 1.0, 0.9, 10, np.array([1.0, 0.0]))


class TestEgLast:
    def test_rotation_k0(self):
        norm, gap = check_eg_last_bounds(rotation(), 1.0, 1.0 / np.sqrt(2.0), 0,
                                         np.array([1.0, 0.0]))
        assert norm.observed[0] == pytest.approx(1.0, abs=1e-15)
        assert norm.bound[0] == pytest.approx(4.0, abs=1e-10)
        assert norm.passed and gap.passed

    def test_rotation_long_run(self):
        norm, gap = check_eg_last_bounds(rotation(), 1.0, 1.0 / np.sqrt(2.0), 100,
                                         np.array([1.0, 0.0]))
        assert norm.passed and gap.passed
        assert norm.observed[100] == pytest.approx(0.75**100, rel=1e-10)

    def test_random_monotone_seeds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = 10
            G = rng.standard_normal((d, d))
            shift = max(0.0, -np.linalg.eigvalsh(0.5 * (G + G.T)).min()) + 0.1
            op = Affine(G + shift * np.eye(d))
            L = np.linalg.norm(op.matrix, 2)
            norm, gap = check_eg_last_bounds(op, L, 1.0 / (np.sqrt(2.0) * L), 50,
                                             rng.standard_normal(d),
                                             np.zeros(d))
            assert norm.passed and gap.passed

    def test_relaxed_regime_reported_not_asserted(self):
        norm, gap = check_eg_last_bounds(rotation(), 1.0, 0.9, 20,
                                         np.array([1.0, 0.0]))
        assert norm.passed is None and gap.passed is None
        assert not norm.guaranteed

    def test_guaranteed_regime_is_scale_free(self):
        # gamma*L = 0.9 is past 1/sqrt(2) at every scale of L
        scale = 1e20
        norm, gap = check_eg_last_bounds(Affine(scale * rotation().matrix), scale,
                                         0.9 / scale, 20, np.array([1.0, 0.0]))
        assert not norm.guaranteed and not gap.guaranteed
        assert norm.passed is None and gap.passed is None


class TestEftp:
    def test_rotation(self):
        gamma = 0.9 / np.sqrt(10.0)
        check = check_eftp_bound(rotation(), 1.0, gamma, 200, np.array([1.0, 0.0]))
        assert check.passed

    def test_bilinear(self):
        from vicert.operators import bilinear_game
        rng = np.random.default_rng(1)
        op = bilinear_game(rng.standard_normal((2, 2)))
        L = np.linalg.norm(op.matrix, 2)
        check = check_eftp_bound(op, L, 0.5 / (np.sqrt(10.0) * L), 150,
                                 rng.standard_normal(4))
        assert check.passed

    def test_strict_stepsize(self):
        with pytest.raises(PreconditionViolated):
            check_eftp_bound(rotation(), 1.0, 1.0 / np.sqrt(10.0), 10,
                             np.array([1.0, 0.0]))


class TestHgm:
    def test_logistic_bounds(self):
        op = LogisticGrad(1.0, 0.01)
        L, lam = 0.26, 0.25
        x0 = np.array([3.0])
        f0 = abs(op(x0)[0])
        gamma = 1.0 / (L**2 + lam * f0)
        best, mono = check_hgm_bounds(op, L, lam, gamma, 200, x0)
        assert best.passed and mono.passed

    def test_affine_reduces_to_quadratic_descent(self):
        best, mono = check_hgm_bounds(rotation(), 1.0, 0.0, 1.0, 30,
                                      np.array([1.0, 0.5]))
        assert best.passed and mono.passed

    def test_affine_contraction_diag(self):
        check = check_hgm_affine_contraction(Affine(np.diag([1.0, 2.0])), 50,
                                             np.array([1.0, 1.0]))
        assert check.passed
        assert check.params["rho"] == pytest.approx(0.6, abs=1e-12)

    def test_affine_contraction_identity_one_step(self):
        check = check_hgm_affine_contraction(Affine(np.eye(2)), 3,
                                             np.array([1.0, -2.0]))
        assert check.passed
        assert check.params["rho"] == 0.0
        assert check.observed[0] <= 1e-25

    def test_affine_contraction_rotation(self):
        check = check_hgm_affine_contraction(rotation(), 3, np.array([1.0, 0.0]))
        assert check.passed
        assert check.observed[0] <= 1e-25

    @pytest.mark.parametrize("op, x0", [
        (e.op, e.x0) for seed in (7, 11, 101, 913) for e in standard_suite(seed)
        if isinstance(e.op, Affine)
    ] + [
        (Affine([[2.0, 1.0], [0.0, 0.5]], [1.0, -3.0]), np.array([0.5, -1.0])),
        (Affine([[3.0]], [-0.0]), np.array([-2.0])),
    ])
    def test_contraction_solution_point(self, op, x0):
        # the projection of x0 onto the least-squares solutions, written out
        A, b = op.matrix, op.offset
        want = x0 - numerics.sym_pseudo_solve(A.T @ A, A.T @ A @ x0 + A.T @ b)
        got = harness._plan_hgm_affine_contraction(op, 5, x0).x_star
        assert got.tobytes() == want.tobytes()

    def test_rank_deficient_projection_solution(self):
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        check = check_hgm_affine_contraction(Affine(A, np.array([1.0, 0.0])), 20,
                                             np.array([2.0, 3.0]))
        assert check.passed


# every stepsize precondition, given the scale s of its constant and the
# dimensionless stepsize product p, which the precondition caps at 1
_STEPSIZE_PRECONDITIONS = {
    "gd": lambda s, p: check_gd_bounds(scaled_identity(1.0, 2), s, p / s, 5, np.ones(2)),
    "pp": lambda s, p: check_pp_bound(scaled_identity(1.0, 2), s, p / s, 5, np.ones(2)),
    "eg-random-gamma1": lambda s, p: check_eg_random_bound(rotation(), s, p / s, 0.25 / s,
                                                           5, np.ones(2)),
    "eg-random-gamma2": lambda s, p: check_eg_random_bound(rotation(), 1.0, 1.0 / s,
                                                           0.5 * p / s, 5, np.ones(2)),
    "eg-last": lambda s, p: check_eg_last_bounds(rotation(), s, p / s, 5, np.ones(2)),
    "eftp": lambda s, p: check_eftp_bound(rotation(), s, p / (np.sqrt(10.0) * s), 5,
                                          np.ones(2)),
    "hgm": lambda s, p: check_hgm_bounds(rotation(), s, 0.0, 2.0 * p / (s * s), 5,
                                         np.ones(2)),
}


class TestStepsizePreconditions:
    @pytest.mark.parametrize("product", [1.5, 1e7])
    @pytest.mark.parametrize("scale", [1e-100, 1e-20, 1.0, 1e20, 1e100])
    @pytest.mark.parametrize("check", _STEPSIZE_PRECONDITIONS.values(),
                             ids=_STEPSIZE_PRECONDITIONS)
    def test_scale_free(self, check, scale, product):
        """A stepsize past its regime is refused at every scale of the
        constants; an absolute slack of 1e-12 on gamma let every gamma below
        it through once L or ell passed 1e12."""
        with pytest.raises(PreconditionViolated):
            check(scale, product)

    def test_gd_bound_past_its_regime(self):
        # gamma*ell = 1e7 once ran, to a failed guaranteed bound
        with pytest.raises(PreconditionViolated):
            check_gd_bounds(scaled_identity(1e14, 2), 1e20, 1e-13, 5, np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("check", [
        check_gd_bounds, check_pp_bound, check_eg_last_bounds, check_eftp_bound,
        lambda op, c, g, iters, x0: check_eg_random_bound(op, c, g, 0.5 * g, iters, x0),
        # only L^2 enters hgm's cap, so L = -1 once ran as L = 1
        lambda op, c, g, iters, x0: check_hgm_bounds(op, c, 0.0, g, iters, x0),
    ], ids=["gd", "pp", "eg-last", "eftp", "eg-random", "hgm"])
    def test_constant_must_be_finite_and_positive(self, check, bad):
        with pytest.raises(BadParameters, match="must be finite and positive"):
            check(rotation(), bad, 0.1, 5, np.ones(2))


    @pytest.mark.parametrize("bad", [np.nan, -np.inf, -0.5])
    def test_lambda_must_be_finite_and_nonnegative(self, bad):
        # Lambda = -0.5 lowered the cap L^2 + Lambda*||F(x0)|| and so ran
        # gamma = 3 past 2/L^2, to two failed guaranteed bounds
        with pytest.raises(BadParameters, match="Lambda must be finite and nonnegative"):
            check_hgm_bounds(rotation(), 1.0, bad, 3.0, 5, np.array([1.0, 0.0]))


def _reference_plan_run(base, op, method, iters, x0, x_star, finish, **gammas):
    """The checks' run before they stopped recording distances: the run is
    given the solution point."""
    star = numerics.as_vector(x_star) if x_star is not None else base.root()
    if star is None:
        raise PreconditionViolated("this check needs a known solution point")
    x0 = numerics.as_vector(x0)
    d0 = float(np.sum((x0 - star) ** 2))
    return harness._Planned(op, SolverConfig(method, iters=iters, x0=x0, **gammas), star,
                            lambda trace: finish(trace, np.arange(len(trace)), d0))


# the five checks planned through _plan_run, called as in the report
_RUN_FROM_CHECKS = {
    "gd": lambda e: check_gd_bounds(e.op, e.ell, 1.0 / e.ell, 80, e.x0, e.x_star),
    "pp": lambda e: check_pp_bound(e.op, max(1.0, 2.5 * e.L), 1.0 / max(1.0, 2.5 * e.L),
                                   80, e.x0, e.x_star),
    "eg-random": lambda e: check_eg_random_bound(e.op, e.L, 1.0 / e.L, 0.5 / e.L, 80,
                                                 e.x0, e.x_star),
    "eg-last": lambda e: check_eg_last_bounds(e.op, e.L, 1.0 / (np.sqrt(2.0) * e.L), 80,
                                              e.x0, e.x_star),
    "eftp": lambda e: check_eftp_bound(e.op, e.L, 0.9 / (np.sqrt(10.0) * e.L), 80,
                                       e.x0, e.x_star),
}
_SUITE = {e.name: e for e in standard_suite()}


class TestSolutionPointDimension:
    """A given solution point of another dimension raises before any run; a
    one-element point would otherwise broadcast into d0."""

    @pytest.mark.parametrize("star", [[1.0, 2.0, 3.0, 4.0], [1.0, 2.0], [5.0]],
                             ids=["too-long", "too-short", "single-element"])
    def test_gd(self, star):
        with pytest.raises(DimensionMismatch, match="operator dim 3, x_star dim"):
            check_gd_bounds(scaled_identity(1.0, 3), 1.0, 0.5, 2, [1.0, 0.0, 0.0], x_star=star)

    @pytest.mark.parametrize("star", [[1.0, 2.0, 3.0], [5.0]], ids=["too-long", "single-element"])
    def test_eg_last(self, star):
        with pytest.raises(DimensionMismatch, match="operator dim 2, x_star dim"):
            check_eg_last_bounds(rotation(), 1.0, 0.5, 2, [1.0, 0.0], x_star=star)


class TestRunFromRecordsNoDistances:
    """The bound checks read the solution point through d0 only: run without
    it, they give every array bit for bit as the run given it does."""

    @pytest.mark.parametrize("entry", ["diag12", "spd-5d", "logistic"])
    @pytest.mark.parametrize("check", sorted(_RUN_FROM_CHECKS))
    def test_arrays_match_the_run_given_the_solution(self, check, entry, monkeypatch):
        e = _SUITE[entry]
        got = _RUN_FROM_CHECKS[check](e)
        monkeypatch.setattr(harness, "_plan_run", _reference_plan_run)
        want = _RUN_FROM_CHECKS[check](e)
        got, want = (c if isinstance(c, tuple) else (c,) for c in (got, want))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.check_id == w.check_id and g.params == w.params
            for name in ("ks", "observed", "bound"):
                a, b = getattr(g, name), getattr(w, name)
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("check", sorted(_RUN_FROM_CHECKS) + ["hgm-affine"])
    def test_only_the_affine_contraction_records_distances(self, check, monkeypatch):
        stars = []

        def spy(op, cfg, x_star=None):
            stars.append(x_star)
            return run(op, cfg, x_star)

        monkeypatch.setattr(harness, "run", spy)
        e = _SUITE["diag12"]
        if check == "hgm-affine":
            check_hgm_affine_contraction(e.op, 20, e.x0)
        else:
            _RUN_FROM_CHECKS[check](e)
        assert [star is not None for star in stars] == [check == "hgm-affine"]


def _spy_runs(monkeypatch):
    runs = []

    def spy(op, cfg, x_star=None):
        runs.append((op, cfg, x_star))
        return run(op, cfg, x_star)

    monkeypatch.setattr(harness, "run", spy)
    return runs


def _spy_run_many(monkeypatch):
    calls = []

    def spy(runs):
        calls.append(list(runs))
        return run_many(runs)

    monkeypatch.setattr(harness, "run_many", spy)
    return calls


class TestReportRunsEveryPlan:
    """The report plans every check first and makes all their runs in one
    run_many call, one run per plan: the hgm bound checks and the affine
    contraction check ask for two runs even where those are the same."""

    def test_one_run_per_plan(self, monkeypatch):
        runs = _spy_runs(monkeypatch)
        calls = _spy_run_many(monkeypatch)
        run_report(seed=20240406, iters=300)
        assert runs == [] and len(calls) == 1
        members = calls[0]
        suite = standard_suite(20240406)
        affine = [e for e in suite if isinstance(e.op, Affine)]
        hgm = [(op, cfg, star) for op, cfg, star in members if cfg.method == "hgm"]
        # every entry has a jac_lipschitz, and every affine one a contraction check
        assert len(affine) == 8
        assert len(hgm) == len(suite) + len(affine)
        assert len(members) == 56
        # each affine entry's contraction still records its distances
        assert sum(star is not None for _, _, star in hgm) == len(affine)
        assert all(star is None for _, cfg, star in members if cfg.method != "hgm")

    def test_standalone_checks_make_their_own_runs(self, monkeypatch):
        runs = _spy_runs(monkeypatch)
        e = _SUITE["diag12"]
        check_hgm_bounds(e.op, e.L, 0.0, 1.0 / (e.L * e.L), 20, e.x0)
        check_hgm_affine_contraction(e.op, 20, e.x0)
        assert [star is not None for _, _, star in runs] == [False, True]

    @pytest.mark.parametrize("seed", [11, 12, 13, 20240406])
    def test_same_json_as_one_run_per_check(self, seed, monkeypatch):
        got = report_to_json(run_report(seed=seed, iters=100))
        monkeypatch.setattr(harness, "run_many", lambda runs: [run(*r) for r in runs])
        assert got == report_to_json(run_report(seed=seed, iters=100))


class TestViolationSearch:
    def test_starts_are_the_stream_of_one_draw_per_start(self, monkeypatch):
        """The starts of each cell, drawn as one (starts, d) array, are the
        draws one standard_normal(d) per start gives."""
        seen = []
        real = harness.eg_operator

        def spy(op, gamma):
            comp = real(op, gamma)
            apply_rows = comp._apply_rows

            def recording(xs):
                seen.append(xs.copy())
                return apply_rows(xs)

            comp._apply_rows = recording
            return comp

        monkeypatch.setattr(harness, "eg_operator", spy)
        report = check_eg_norm_violation_regimes(seed=3)
        # per composite: F at the stack of starts, then at their steps
        starts = [x for stack in seen[0::2] for x in stack]
        rng = np.random.default_rng(3)
        dims = []
        for i in range(harness._SEARCH_OPS):
            if i % 3 == 0:
                rng.uniform(0.5, 4.0)
                dims.append(2)
            else:
                d = int(rng.integers(2, 5))
                rng.standard_normal((d, d))
                dims.append(d)
        cells = len(harness._STEP_FRACS) ** 2
        want = [rng.standard_normal(d) for d in dims
                for _ in range(cells * harness._SEARCH_STARTS)]
        assert len(starts) == len(want) == report["searched"]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(starts, want))

    @staticmethod
    def _search_cells():
        """Operators of the search's two kinds, each with its three
        composites, and a crafted cell (the identity at gamma2 = 5, twice
        past 1/ell) where both residuals rise."""
        rng = np.random.default_rng(29)
        for d in (1, 2, 3, 4, 7):
            M = rng.standard_normal((d, d))
            S = M @ M.T / d + 0.2 * np.eye(d)
            ell = float(np.linalg.eigvalsh(S).max())
            for f1 in harness._STEP_FRACS:
                g2 = np.repeat([f2 * f1 / ell for f2 in harness._STEP_FRACS], 8)
                yield (Affine(S), eg_operator(Affine(S), f1 / ell), g2,
                       rng.standard_normal((g2.size, d)), False)
        a = 1.3
        boundary = Affine(np.array([[a, a], [-a, a]]))
        g2 = np.full(6, 0.1)
        yield boundary, eg_operator(boundary, 0.5 / a), g2, rng.standard_normal((6, 2)), False
        ident = scaled_identity(1.0, 3)
        g2 = np.full(5, 5.0)
        yield ident, eg_operator(ident, 0.25), g2, rng.standard_normal((5, 3)), True

    def test_step_norms_match_the_per_start_reference(self):
        """c0, c1, p0 and p1 of every start, bit for bit, sign bit included."""
        crafted = 0
        for op, comp, g2, x0, rises in self._search_cells():
            got = harness._step_norms(op, comp, g2, x0)
            want = draw_reference.step_norms(op, comp, g2, x0)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()
            if rises:
                c0, c1, p0, p1 = got
                assert np.all(c1 > c0 + 1e-12) and np.all(p1 > p0 + 1e-12)
                crafted += 1
        assert crafted == 1

    @pytest.mark.parametrize("seed", [0, 7, 20240406])
    def test_same_json_as_the_per_start_reference(self, seed):
        got = json.dumps(check_eg_norm_violation_regimes(seed=seed), sort_keys=True)
        assert got == json.dumps(draw_reference.violation_search(seed=seed), sort_keys=True)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_witnesses_match_the_per_start_reference(self, seed, monkeypatch):
        """No seed from 0 to 299 gives the search a witness at its own
        stepsizes; a stepsize 3/ell gives both kinds, in the reference's
        order and bits."""
        monkeypatch.setattr(harness, "_STEP_FRACS", (0.25, 0.5, 1.0, 3.0))
        got = check_eg_norm_violation_regimes(seed=seed)
        assert got["composite_norm_increases"] and got["plain_norm_increases"]
        want = draw_reference.violation_search(seed=seed)
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)

    def test_matched_stepsizes_find_nothing(self):
        report = check_eg_norm_violation_regimes(seed=0)
        assert report["composite_norm_increases"] == []
        assert report["plain_norm_increases"] == []
        assert report["searched"] > 0

    def test_witness_schema_round_trips(self):
        # the report schema carries witnesses when a search ever finds one;
        # exercise the reporting path with a synthetic entry
        report = check_eg_norm_violation_regimes(seed=1)
        report["plain_norm_increases"].append(
            {"op": "synthetic", "ell": 1.0, "gamma1": 0.5, "gamma2": 0.25,
             "x0": [1.0, 0.0], "increase": 1e-3})
        text = json.dumps(report, sort_keys=True)
        back = json.loads(text)
        assert back["plain_norm_increases"][0]["op"] == "synthetic"


class TestSuiteAndReport:
    def test_suite_is_deterministic(self):
        a = standard_suite(7)
        b = standard_suite(7)
        for ea, eb in zip(a, b):
            assert ea.name == eb.name
            assert np.array_equal(ea.x0, eb.x0)

    def test_full_report_passes_and_is_byte_stable(self):
        rep1 = run_report(seed=11, iters=60)
        rep2 = run_report(seed=11, iters=60)
        assert rep1["all_pass"]
        assert report_to_json(rep1) == report_to_json(rep2)
        assert all(c["pass"] is not False for c in rep1["checks"])

    def test_fixture_files_load(self):
        from vicert.operators import load_operator
        for name in ("rotation", "identity2", "diag12", "bilinear4", "logistic"):
            op = load_operator(FIXTURES / f"{name}.json")
            assert op.dim >= 1
