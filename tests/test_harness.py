import json
from pathlib import Path

import numpy as np
import pytest

from vicert import harness
from vicert.errors import PreconditionViolated
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


class TestViolationSearch:
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
