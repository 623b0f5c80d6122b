import json
from pathlib import Path

import numpy as np
import pytest

from vicert import harness, numerics
from vicert.errors import BadParameters, PreconditionViolated
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
from vicert.operators import Affine, LogisticGrad, rotation, scaled_identity
from vicert.solvers import SolverConfig, run

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


class TestEgRandom:
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


def _reference_run_from(op, method, iters, x0, x_star, **gammas):
    """The checks' run before they stopped recording distances: the run is
    given the solution point."""
    star = numerics.as_vector(x_star) if x_star is not None else op.root()
    if star is None:
        raise PreconditionViolated("this check needs a known solution point")
    x0 = numerics.as_vector(x0)
    trace = run(op, SolverConfig(method, iters=iters, x0=x0, **gammas), x_star=star)
    return trace, np.arange(len(trace)), float(np.sum((x0 - star) ** 2))


# the five checks that run through _run_from, called as in the report
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


class TestRunFromRecordsNoDistances:
    """The bound checks read the solution point through d0 only: run without
    it, they give every array bit for bit as the run given it does."""

    @pytest.mark.parametrize("entry", ["diag12", "spd-5d", "logistic"])
    @pytest.mark.parametrize("check", sorted(_RUN_FROM_CHECKS))
    def test_arrays_match_the_run_given_the_solution(self, check, entry, monkeypatch):
        e = _SUITE[entry]
        got = _RUN_FROM_CHECKS[check](e)
        monkeypatch.setattr(harness, "_run_from", _reference_run_from)
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


class TestReportSharesHgmRuns:
    """Where the hgm bound checks and the affine contraction check ask for the
    same run, the report runs it once and evaluates both on its trace."""

    def test_one_run_per_distinct_run(self, monkeypatch):
        runs = _spy_runs(monkeypatch)
        run_report(seed=20240406, iters=300)
        assert len(runs) == 50
        keys = [(id(op), cfg.method, cfg.gamma, cfg.gamma1, cfg.gamma2, cfg.iters,
                 cfg.x0.tobytes()) for op, cfg, _ in runs]
        assert len(set(keys)) == len(keys)
        suite = standard_suite(20240406)
        affine = [e for e in suite if isinstance(e.op, Affine)]
        hgm = [(op, cfg, star) for op, cfg, star in runs if cfg.method == "hgm"]
        # every entry has a jac_lipschitz; the affine ones share where the
        # contraction's stepsize 1/sigma_max^2 is the report's 1/L^2
        shared = [e for e in affine
                  if 1.0 / (e.L * e.L) == 1.0 / numerics.spectral_norm(e.op.matrix) ** 2]
        assert len(affine) == 8 and len(shared) == 6
        assert len(hgm) == len(suite) + len(affine) - len(shared)
        # each affine entry's contraction still records its distances
        assert sum(star is not None for _, _, star in hgm) == len(affine)

    def test_standalone_checks_make_their_own_runs(self, monkeypatch):
        runs = _spy_runs(monkeypatch)
        e = _SUITE["diag12"]
        check_hgm_bounds(e.op, e.L, 0.0, 1.0 / (e.L * e.L), 20, e.x0)
        check_hgm_affine_contraction(e.op, 20, e.x0)
        assert [star is not None for _, _, star in runs] == [False, True]

    @pytest.mark.parametrize("seed", [11, 12, 13, 20240406])
    def test_same_json_as_one_run_per_check(self, seed, monkeypatch):
        got = report_to_json(run_report(seed=seed, iters=100))

        def unshared(op, plans):
            return [c for p in plans for c in p.finish(run(op, p.cfg, x_star=p.x_star))]

        monkeypatch.setattr(harness, "_finish_sharing_runs", unshared)
        assert got == report_to_json(run_report(seed=seed, iters=100))


class TestViolationSearch:
    def test_starts_are_the_stream_of_one_draw_per_start(self, monkeypatch):
        """The starts of each cell, drawn as one (num_starts, d) array, are the
        draws one standard_normal(d) per start gives."""
        seen = []
        real = harness.eg_operator

        def spy(op, gamma):
            comp = real(op, gamma)
            apply = comp._apply

            def recording(x):
                seen.append(x.copy())
                return apply(x)

            comp._apply = recording
            return comp

        monkeypatch.setattr(harness, "eg_operator", spy)
        num_ops, num_starts = 6, 5
        report = check_eg_norm_violation_regimes(seed=3, num_ops=num_ops,
                                                 num_starts=num_starts)
        starts = seen[0::2]   # per start: F at x0, then at x1
        rng = np.random.default_rng(3)
        dims = []
        for i in range(num_ops):
            if i % 3 == 0:
                rng.uniform(0.5, 4.0)
                dims.append(2)
            else:
                d = int(rng.integers(2, 5))
                rng.standard_normal((d, d))
                dims.append(d)
        cells = len(harness._STEP_FRACS) ** 2
        want = [rng.standard_normal(d) for d in dims for _ in range(cells * num_starts)]
        assert len(starts) == len(want) == report["searched"]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(starts, want))

    def test_matched_stepsizes_find_nothing(self):
        report = check_eg_norm_violation_regimes(seed=0, num_ops=6, num_starts=4)
        assert report["composite_norm_increases"] == []
        assert report["plain_norm_increases"] == []
        assert report["searched"] > 0

    def test_witness_schema_round_trips(self):
        # the report schema carries witnesses when a search ever finds one;
        # exercise the reporting path with a synthetic entry
        report = check_eg_norm_violation_regimes(seed=1, num_ops=2, num_starts=2)
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
