import warnings

import numpy as np
import pytest

from vicert import certify, classes, numerics
from vicert.certify import (
    PointSystem,
    affine_cocoercivity_exact,
    build_counterexample,
    check_interpolation,
    cocoercivity_pencil,
    eg_affine_cocoercivity_check,
    hamiltonian_nonconvexity_check,
    linear_star_equiv_check,
    logistic_constants,
    min_cocoercivity_ell,
    og_noncocoercivity_witness,
    sampled_property_check,
    spectral_disk_check,
    verify_counterexample,
)
from vicert.errors import BadParameters, DimensionMismatch, NoViolatingPair, PreconditionViolated
from vicert.operators import (
    Affine,
    LogisticGrad,
    pp_operator,
    rotation,
    scaled_identity,
)

ROT = rotation().matrix


def _random_normal_matrix(rng, n_blocks):
    """Q^T D Q with D block-diagonal in 2x2 rotation-scalings and scalars."""
    blocks = []
    for _ in range(n_blocks):
        if rng.random() < 0.5:
            a, b = rng.uniform(-1.0, 3.0), rng.uniform(0.1, 2.0)
            blocks.append(np.array([[a, b], [-b, a]]))
        else:
            blocks.append(np.array([[rng.uniform(-1.0, 4.0)]]))
    n = sum(b.shape[0] for b in blocks)
    D = np.zeros((n, n))
    at = 0
    for b in blocks:
        m = b.shape[0]
        D[at:at + m, at:at + m] = b
        at += m
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return Q.T @ D @ Q


class TestInterpolation:
    def test_counterexample_system_slacks(self):
        # exact values of the six pairwise slacks: the (x, y_mid) pair carries
        # slack ell^2/2, the remaining five are identically zero
        for ell, g1 in [(1.0, 0.5), (1.0, 1.0), (2.0, 0.25), (5.0, 0.1)]:
            inst = build_counterexample(ell, g1)
            report = check_interpolation(inst.point_system())
            assert report.holds
            slacks = {tuple(sorted(r.pair)): r.slack for r in report.conditions}
            assert len(slacks) == 6
            cross = slacks[("x", "y_mid")]
            assert abs(cross - ell**2 / 2.0) <= 1e-12 * max(1.0, ell**2)
            zeros = [v for k, v in slacks.items() if k != ("x", "y_mid")]
            assert all(abs(v) <= 1e-12 for v in zeros)

    def test_identical_points_hold(self):
        ps = PointSystem.build(
            [("a", np.zeros(2), np.ones(2)), ("b", np.zeros(2), np.ones(2))],
            "cocoercive", 1.0)
        report = check_interpolation(ps)
        assert report.holds and report.worst_slack == 0.0

    def test_identity_samples_monotone(self):
        rng = np.random.default_rng(0)
        pts = [(f"p{i}", x, x) for i, x in enumerate(rng.standard_normal((6, 3)))]
        assert check_interpolation(PointSystem.build(pts, "monotone")).holds

    def test_lipschitz_violation_witness(self):
        pts = [("a", np.zeros(1), np.zeros(1)), ("b", np.ones(1), np.array([5.0]))]
        report = check_interpolation(PointSystem.build(pts, "lipschitz", 2.0))
        assert report.verdict == "violated"
        assert report.witness["pair"] == ["a", "b"]

    def test_combined_class_has_two_rows_per_pair(self):
        pts = [("a", np.zeros(2), np.zeros(2)), ("b", np.ones(2), np.ones(2))]
        report = check_interpolation(PointSystem.build(pts, "monotone+lipschitz", 3.0))
        assert len(report.conditions) == 2

    def test_needs_two_points(self):
        ps = PointSystem.build([("a", np.zeros(1), np.zeros(1))], "monotone")
        with pytest.raises(BadParameters):
            check_interpolation(ps)


class TestCounterexample:
    def test_points_at_unit_parameters(self):
        inst = build_counterexample(1.0, 1.0)
        assert np.allclose(inst.x_f1, [-0.5, 0.5], atol=0.0)
        assert np.allclose(inst.y_f1, [0.0, 1.0], atol=0.0)
        assert np.allclose(inst.x_f2, [0.0, 0.5], atol=0.0)
        assert np.allclose(inst.y_f2, [0.0, 0.0], atol=0.0)

    def test_points_at_half_gamma(self):
        inst = build_counterexample(1.0, 0.5)
        assert np.allclose(inst.x_f1, [-1.0, 1.0], atol=0.0)
        assert np.allclose(inst.y_f1, [-0.5, 1.5], atol=0.0)
        assert np.allclose(inst.x_f2, [-0.5, 1.0], atol=0.0)
        assert np.allclose(inst.y_f2, [-0.5, 0.75], atol=0.0)

    def test_unit_separation(self):
        for ell, g1 in [(0.5, 2.0), (2.0, 0.1), (5.0, 0.2)]:
            inst = build_counterexample(ell, g1)
            assert np.linalg.norm(inst.x - inst.y) == 1.0
            assert np.array_equal(inst.x, -inst.y)

    def test_bad_parameters(self):
        with pytest.raises(BadParameters):
            build_counterexample(1.0, 1.5)
        with pytest.raises(BadParameters):
            build_counterexample(-1.0, 0.5)

    def test_expansion_values(self):
        report = verify_counterexample(build_counterexample(1.0, 0.5), 0.5)
        assert report.details["expansion_sq"] == pytest.approx(1.015625, abs=1e-15)
        assert report.verdict == "violated"

        report = verify_counterexample(build_counterexample(1.0, 1.0), 1.0)
        assert report.details["expansion_sq"] == pytest.approx(1.25, abs=1e-15)

    def test_expansion_limit_small_gamma2(self):
        report = verify_counterexample(build_counterexample(1.0, 0.5), 1e-9)
        assert report.details["expansion_sq"] == pytest.approx(1.0, abs=1e-12)

    def test_expansion_identity_under_scaling(self):
        for alpha in (0.5, 2.0):
            inst = build_counterexample(1.0, 0.5, scale=alpha)
            report = verify_counterexample(inst, 0.5)
            assert report.verdict == "violated"
            assert report.details["expansion_sq"] == pytest.approx(
                alpha**2 * 1.015625, abs=1e-12)
            assert report.details["base_sq"] == pytest.approx(alpha**2, abs=0.0)

    def test_scale_invariance_of_slacks(self):
        base = {tuple(sorted(r.pair)): r.slack
                for r in check_interpolation(
                    build_counterexample(1.0, 0.5).point_system()).conditions}
        for alpha in (0.5, 2.0):
            scaled = {tuple(sorted(r.pair)): r.slack
                      for r in check_interpolation(
                          build_counterexample(1.0, 0.5, scale=alpha)
                          .point_system()).conditions}
            for pair, slack in base.items():
                assert scaled[pair] == pytest.approx(alpha**2 * slack, abs=1e-12)


class TestAffineExact:
    def test_identity(self):
        assert affine_cocoercivity_exact(np.eye(2), 1.0).holds

    def test_rotation_rejected_for_any_ell(self):
        for ell in (1e-6, 1.0, 1e6, 1e9):
            report = affine_cocoercivity_exact(ROT, ell)
            assert report.verdict == "violated"
            assert report.worst_slack == pytest.approx(-1.0, abs=1e-10)

    def test_diag_boundary(self):
        report = affine_cocoercivity_exact(np.diag([1.0, 2.0]), 2.0)
        assert report.holds
        assert abs(report.details["pencil_min_eig"]) <= 1e-12

    def test_verdict_is_scale_invariant(self):
        # (cA, c*ell) is ell-cocoercive exactly when (A, ell) is: the pencil
        # scales by c^2, and so must the tolerance
        rng = np.random.default_rng(17)
        seen = set()
        for i in range(12):
            A = rng.standard_normal((4, 4)) + (i % 2) * 3.0 * np.eye(4)
            ref = min_cocoercivity_ell(A)
            for ell in ((1.0,) if ref is None else (0.5 * ref, 1.5 * ref)):
                verdict = affine_cocoercivity_exact(A, ell).verdict
                seen.add(verdict)
                for c in (1e-6, 1.0, 1e6):
                    assert affine_cocoercivity_exact(c * A, c * ell).verdict == verdict, \
                        (i, ell, c)
        assert seen == {"holds", "violated"}

    def test_witness_slack_matches_pencil(self):
        report = affine_cocoercivity_exact(ROT, 1.0)
        u = np.array(report.witness["x"])
        pen = cocoercivity_pencil(ROT, 1.0)
        assert u @ pen @ u == pytest.approx(report.worst_slack, abs=1e-12)


class TestEmptyMatrix:
    """A 0x0 matrix is a dimension error for every matrix check, not an
    IndexError from inside it nor a vacuous verdict."""

    @pytest.mark.parametrize("check", [
        lambda A: cocoercivity_pencil(A, 1.0),
        lambda A: affine_cocoercivity_exact(A, 1.0),
        lambda A: spectral_disk_check(A, 1.0),
        min_cocoercivity_ell,
        lambda A: eg_affine_cocoercivity_check(A, 0.5, 1.0),
        lambda A: og_noncocoercivity_witness(A, 1.0, 0.5),
        lambda A: linear_star_equiv_check(A, 1.0),
    ], ids=["pencil", "exact", "disk", "min-ell", "eg-affine", "og-witness", "star-equiv"])
    def test_raises_dimension_mismatch(self, check):
        with pytest.raises(DimensionMismatch):
            check(np.zeros((0, 0)))


class TestSpectralDisk:
    def test_rotation_rejected(self):
        for ell in (0.5, 1.0, 100.0):
            assert spectral_disk_check(ROT, ell).verdict == "violated"

    def test_diag_boundary_holds(self):
        assert spectral_disk_check(np.diag([1.0, 2.0]), 2.0).holds

    def test_zero_matrix_holds(self):
        assert spectral_disk_check(np.zeros((3, 3)), 0.7).holds

    def test_agrees_with_exact_on_normal_matrices(self):
        rng = np.random.default_rng(1)
        compared = 0
        for _ in range(50):
            A = _random_normal_matrix(rng, n_blocks=int(rng.integers(1, 4)))
            for ell in (0.5, 2.0, 10.0):
                exact = affine_cocoercivity_exact(A, ell)
                disk = spectral_disk_check(A, ell)
                if abs(exact.worst_slack) < 1e-8 or abs(disk.worst_slack) < 1e-8:
                    continue
                compared += 1
                assert exact.holds == disk.holds, (A, ell)
        assert compared > 50


class TestMinEll:
    def test_identity_gives_one(self):
        assert min_cocoercivity_ell(np.eye(3)) == pytest.approx(1.0, rel=1e-8)

    def test_rotation_gives_none(self):
        assert min_cocoercivity_ell(ROT) is None

    def test_diag(self):
        assert min_cocoercivity_ell(np.diag([1.0, 2.0])) == pytest.approx(2.0, rel=1e-8)

    @pytest.mark.parametrize("c", [1e-6, 1e-4, 1e3])
    def test_scaled_diag(self, c):
        # the minimal constant is 2c at every scale, far above the lo clamp
        assert min_cocoercivity_ell(c * np.diag([1.0, 2.0])) == pytest.approx(2.0 * c, rel=1e-9)

    @staticmethod
    def _monotone(n):
        rng = np.random.default_rng(100 + n)
        G = rng.standard_normal((n, n))
        shift = max(0.0, -float(np.linalg.eigvalsh(0.5 * (G + G.T))[0])) + 0.25
        return G + shift * np.eye(n)

    @pytest.mark.parametrize("n", [2, 5, 20, 50])
    def test_scale_equivariant(self, n):
        A = self._monotone(n)
        base = min_cocoercivity_ell(A)
        for c in (1e-4, 1.0, 1e3):
            assert min_cocoercivity_ell(c * A) == pytest.approx(c * base, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 5, 20, 50])
    @pytest.mark.parametrize("c", [1e-4, 1.0, 1e3])
    def test_pencil_tight_on_both_sides(self, n, c):
        A = c * self._monotone(n)
        ell = min_cocoercivity_ell(A)
        H = 0.5 * (A + A.T)
        M = A.T @ A
        size = ell * np.abs(H).max() + np.abs(M).max()
        assert np.linalg.eigvalsh(ell * H - M)[0] >= -1e-12 * size
        assert np.linalg.eigvalsh((1.0 - 1e-6) * ell * H - M)[0] < 0.0

    def test_singular_symmetric_part_with_shared_null_space(self):
        assert min_cocoercivity_ell(np.diag([1.0, 0.0])) == pytest.approx(1.0, rel=1e-12)

    def test_zero_matrix_gives_lo(self):
        assert min_cocoercivity_ell(np.zeros((3, 3))) == 1e-9

    def test_indefinite_symmetric_part_gives_none(self):
        assert min_cocoercivity_ell(np.array([[1.0, 3.0], [0.0, -1.0]])) is None


class TestEgAffine:
    def test_rotation_unit_gamma(self):
        report = eg_affine_cocoercivity_check(ROT, 1.0, 1.0)
        assert report.holds
        assert report.details["spectral"].holds
        assert report.details["exact"].holds

    def test_zero_matrix(self):
        assert eg_affine_cocoercivity_check(np.zeros((2, 2)), 0.25, 1.0).holds

    def test_diag(self):
        assert eg_affine_cocoercivity_check(np.diag([1.0, 2.0]), 0.5, 2.0).holds

    def test_random_monotone_at_half_inverse_norm(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            G = rng.standard_normal((d, d))
            shift = max(0.0, -np.linalg.eigvalsh(0.5 * (G + G.T)).min()) + 0.05
            A = G + shift * np.eye(d)
            L = np.linalg.norm(A, 2)
            assert eg_affine_cocoercivity_check(A, 1.0 / (2.0 * L), L).holds

    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            eg_affine_cocoercivity_check(-np.eye(2), 0.5, 1.0)
        with pytest.raises(PreconditionViolated):
            eg_affine_cocoercivity_check(ROT, 2.0, 1.0)
        with pytest.raises(PreconditionViolated):
            eg_affine_cocoercivity_check(3.0 * np.eye(2), 0.3, 1.0)

    def test_preconditions_are_scale_free(self):
        # gamma*L = 1e7, gamma*||A|| = 100: an absolute slack of 1e-12 on gamma
        # let this through to a violated verdict outside the theorem's regime
        with pytest.raises(PreconditionViolated):
            eg_affine_cocoercivity_check(1e15 * ROT, 1e-13, 1e20)
        # ||A|| = 100 L with L = 1e-12: an absolute slack of 1e-9 on the norm
        # let this through to a violated verdict at gamma*||A|| = 10
        with pytest.raises(PreconditionViolated):
            eg_affine_cocoercivity_check(1e-10 * ROT, 1e11, 1e-12)
        # the regime gamma*L = 1/2 holds at every scale
        for scale in (1e-100, 1e-20, 1.0, 1e20, 1e100):
            assert eg_affine_cocoercivity_check(scale * ROT, 0.5 / scale, scale).holds


class TestOgWitness:
    def test_rotation_og_unit(self):
        report = og_noncocoercivity_witness(ROT, 1.0, 1.0, "og")
        assert report.verdict == "violated"
        assert report.details["ratio"] >= 5.0 - 1e-9
        assert report.details["ratio"] == pytest.approx(21.0, rel=1e-12)

    def test_rotation_eftp(self):
        report = og_noncocoercivity_witness(ROT, 2.0, 0.5, "eftp")
        assert report.verdict == "violated"
        assert report.details["ratio"] >= 5.0 - 1e-9
        assert report.details["ratio"] == pytest.approx(6.0, rel=1e-12)

    def test_identity_has_no_pair(self):
        with pytest.raises(NoViolatingPair):
            og_noncocoercivity_witness(np.eye(2), 2.0, 1.0, "og")

    def test_ratio_formula_floor_on_grid(self):
        for ell in (0.5, 1.0, 4.0):
            for gamma in (0.1, 1.0, 3.0):
                for which in ("og", "eftp"):
                    report = og_noncocoercivity_witness(ROT, ell, gamma, which)
                    floor = 1.0 + 4.0 / (ell**2 * gamma**2)
                    assert report.details["ratio"] >= floor - 1e-9


class TestStarEquiv:
    def test_identity_consistent(self):
        report = linear_star_equiv_check(np.eye(2), 1.0)
        assert report.holds and report.details["exact_holds"]

    def test_rotation_both_reject(self):
        report = linear_star_equiv_check(ROT, 1.0, trials=50, seed=3)
        assert report.holds
        assert not report.details["exact_holds"]
        assert not report.details["sampled_holds"]
        assert report.details["sampled_worst_slack"] < -0.5

    def test_diag_both_accept(self):
        report = linear_star_equiv_check(np.diag([1.0, 2.0]), 2.0)
        assert report.holds and report.details["sampled_holds"]


class TestLogisticConstants:
    def test_default_instance(self):
        out = logistic_constants(1.0, 0.01)
        assert out["L_bound"] == pytest.approx(0.26, abs=0.0)
        assert out["Lambda_bound"] == pytest.approx(0.25, abs=0.0)

    def test_steep_instance(self):
        out = logistic_constants(10.0, 0.0)
        assert out["L_bound"] == 25.0
        assert out["Lambda_bound"] == 250.0

    def test_bound_attained_at_origin(self):
        out = logistic_constants(1.0, 0.01)
        assert out["sampled_max_jacobian"] == pytest.approx(0.26, abs=1e-15)


class TestEnergyNonconvexity:
    def test_negative_curvature_at_probe(self):
        report = hamiltonian_nonconvexity_check()
        assert report.verdict == "violated"
        assert report.details["closed_form"] < 0.0
        assert report.details["finite_difference"] < 0.0
        assert report.details["relative_gap"] <= 1e-6
        assert report.details["curvature_at_zero"] > 0.0

    def test_closed_form_matches_product_rule(self):
        op = LogisticGrad(1.0, 0.01)
        for x in (-2.0, 0.0, 1.5, 3.0, 6.0):
            f = op(np.array([x]))[0]
            d1 = op.jacobian(np.array([x]))[0, 0]
            d2 = op.second_derivative(x)
            product_rule = 2.0 * d1 * d1 + 2.0 * f * d2
            closed = certify._residual_energy_curvature(x)
            assert closed == pytest.approx(product_rule, rel=1e-12)


class TestSampled:
    def test_rotation_monotone_tight(self):
        report = sampled_property_check(rotation(), "monotone", trials=100, seed=4)
        assert report.verdict == "inconclusive"
        assert abs(report.worst_slack) <= 1e-12

    def test_rotation_not_cocoercive_even_for_huge_ell(self):
        report = sampled_property_check(rotation(), "cocoercive", trials=100,
                                        seed=5, parameter=1e6)
        assert report.verdict == "violated"

    def test_logistic_monotone(self):
        report = sampled_property_check(LogisticGrad(1.0, 0.01), "monotone",
                                        trials=100, seed=6)
        assert report.verdict == "inconclusive"
        assert report.worst_slack >= -1e-12

    def test_star_classes_need_root(self):
        zero_delta = LogisticGrad(1.0, 0.0)
        with pytest.raises(PreconditionViolated):
            sampled_property_check(zero_delta, "star-monotone")

    def test_star_cocoercive_identity(self):
        report = sampled_property_check(scaled_identity(1.0, 2), "star-cocoercive",
                                        trials=50, seed=7, parameter=1.0)
        assert report.verdict == "inconclusive"


class TestImplicitStepCocoercivity:
    def test_distance_contraction_inequality(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            G = rng.standard_normal((d, d))
            shift = max(0.0, -np.linalg.eigvalsh(0.5 * (G + G.T)).min()) + 0.1
            base = Affine(G + shift * np.eye(d), rng.standard_normal(d))
            gamma = rng.uniform(0.1, 2.0)
            comp = pp_operator(base, gamma)
            for _ in range(10):
                x = rng.standard_normal(d)
                y = rng.standard_normal(d)
                x_hat = x - gamma * comp(x)
                y_hat = y - gamma * comp(y)
                lhs = np.sum((x_hat - y_hat) ** 2)
                rhs = (np.sum((x - y) ** 2)
                       - gamma**2 * np.sum((base(x_hat) - base(y_hat)) ** 2))
                assert lhs <= rhs + 1e-10


# every certificate entry point, given the value v for one positive parameter
_POSITIVE_PARAMETERS = {
    "rows-cocoercive": lambda v: classes.rows("cocoercive", v),
    "rows-lipschitz": lambda v: classes.rows("lipschitz", v),
    "rows-monotone+lipschitz": lambda v: classes.rows("monotone+lipschitz", v),
    "interpolation": lambda v: check_interpolation(PointSystem.build(
        [("p", [0.3, -1.2], [1.1, 0.4]), ("q", [-0.7, 0.5], [-0.2, 0.9])], "cocoercive", v)),
    "sampled": lambda v: sampled_property_check(rotation(), "cocoercive", trials=5,
                                                parameter=v),
    "spectral-disk": lambda v: spectral_disk_check(ROT, v),
    "cocoercive-exact": lambda v: affine_cocoercivity_exact(ROT, v),
    "star-equiv": lambda v: linear_star_equiv_check(ROT, v, trials=5),
    "counterexample-ell": lambda v: build_counterexample(v, 0.5),
    "counterexample-gamma1": lambda v: build_counterexample(1.0, v),
    "counterexample-scale": lambda v: build_counterexample(1.0, 0.5, v),
    "verify-gamma2": lambda v: verify_counterexample(build_counterexample(1.0, 0.5), v),
    "og-witness-ell": lambda v: og_noncocoercivity_witness(ROT, v, 0.5),
    "og-witness-gamma": lambda v: og_noncocoercivity_witness(ROT, 1.0, v),
    "eftp-witness-gamma": lambda v: og_noncocoercivity_witness(ROT, 1.0, v, "eftp"),
    # an infinite L once certified any gamma <= 1e-12
    "eg-affine-L": lambda v: eg_affine_cocoercivity_check(ROT, 1e-13, v),
}


class TestParameterChecks:
    """A class parameter, ell, gamma or scale must be finite and positive:
    NaN and inf are rejected before any arithmetic, with no RuntimeWarning."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("call", _POSITIVE_PARAMETERS.values(), ids=_POSITIVE_PARAMETERS)
    def test_rejected(self, call, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadParameters, match="must be finite and positive"):
                call(bad)
