"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria A1-A9 pin the package's behavioral contract at fixed tolerances:
expansive-instance reproduction, last-iterate and averaged bounds, norm
monotonicity, worst-case SDP assembly and search, certification agreement,
witness expansions, energy-descent checks, and the cross-cutting property
suite (round trips, determinism, equivalences).
"""

import json

import numpy as np
import pytest
from pep_reference import (
    build_expansiveness_matrices,
    lower_bound_search,
    zero_sign_differences,
)
from recording import run_points

from vicert import certify, harness, numerics, pep
from vicert.certify import (
    affine_cocoercivity_exact,
    build_counterexample,
    check_interpolation,
    eg_affine_cocoercivity_check,
    hamiltonian_nonconvexity_check,
    min_cocoercivity_ell,
    og_noncocoercivity_witness,
    sampled_property_check,
    spectral_disk_check,
    verify_counterexample,
)
from vicert.operators import (
    Affine,
    LogisticGrad,
    eftp_operator,
    eg_operator,
    og_operator,
    pp_operator,
    rotation,
    scaled_identity,
)
from vicert.solvers import SolverConfig, run

SQRT2 = float(np.sqrt(2.0))
SQRT10 = float(np.sqrt(10.0))

CE_GRID = [(ell, frac / ell) for ell in (0.5, 1.0, 2.0, 5.0)
           for frac in (0.1, 0.25, 0.5, 1.0)]


def _line(cid: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{cid}: {detail}"


@pytest.fixture(scope="module")
def suite():
    return harness.standard_suite()


@pytest.fixture(scope="module")
def eg_traces(suite):
    """Extragradient runs at gamma = 1/(sqrt(2)*L), K = 10^4, per suite entry."""
    traces = {}
    for entry in suite:
        gamma = 1.0 / (SQRT2 * entry.L)
        trace = run(entry.op, SolverConfig("eg", gamma=gamma, iters=10_000,
                                           x0=entry.x0), x_star=entry.x_star)
        traces[entry.name] = (entry, gamma, trace)
    return traces


# ---------------------------------------------------------------------------
# A1: expansive-instance reproduction over the parameter grid
# ---------------------------------------------------------------------------

class TestA1Counterexample:
    def test_a1_slack_nonnegativity(self):
        worst = np.inf
        for ell, g1 in CE_GRID:
            report = check_interpolation(build_counterexample(ell, g1).point_system())
            worst = min(worst, report.worst_slack)
            assert all(r.slack >= -1e-12 for r in report.conditions)
        _line("A1a slack-nonnegativity", True,
              f"grid of {len(CE_GRID)} instances, worst slack {worst:.2e} >= -1e-12")

    def test_a1_expansion_identity(self):
        worst = 0.0
        for ell, g1 in CE_GRID:
            inst = build_counterexample(ell, g1)
            for g2 in (g1 / 4.0, g1 / 2.0, g1):
                report = verify_counterexample(inst, g2)
                expected = 1.0 + (g1 * g2 * ell * ell) ** 2 / 4.0
                gap = abs(report.details["expansion_sq"] - expected)
                worst = max(worst, gap)
                assert gap <= 1e-12
                assert report.verdict == "violated"
        _line("A1b expansion-identity", True,
              f"max |measured - predicted| = {worst:.2e} <= 1e-12")

    # Closed-form cocoercive slacks ell*<dF, dx> - |dF|^2 of the four-point
    # system at scale 1, with g = gamma1, l = ell, x = (-1/2, 0),
    # y = (1/2, 0), x_mid = (0, -1/2), y_mid = ((2 - g*l)/2, -(1 + g*l)/2):
    #   (x, y)          dF = (-l/2, -l/2)         slack 0
    #   (x, x_mid)      dF = (-l/2, 0)            slack 0
    #   (y, x_mid)      dF = (0, l/2)             slack 0
    #   (y, y_mid)      dF = (0, l*(1 + g*l)/2)   slack 0
    #   (x_mid, y_mid)  dF = (0, g*l^2/2)         slack 0
    #   (x, y_mid)      dF = (-l/2, g*l^2/2)      slack (3l^2 + g^2 l^4)/4
    #                                                   - (l^2 + g^2 l^4)/4 = l^2/2
    # Five pairs are tight and the cross pair carries ell^2/2 for every gamma1.

    def test_a1_zero_slack_count_as_stated(self):
        counts = set()
        loose_pairs = set()
        for ell, g1 in CE_GRID:
            report = check_interpolation(build_counterexample(ell, g1).point_system())
            counts.add(sum(1 for r in report.conditions if abs(r.slack) <= 1e-12))
            loose_pairs.update(frozenset(r.pair) for r in report.conditions
                               if abs(r.slack) > 1e-12)
        ok = counts == {5} and loose_pairs == {frozenset({"x", "y_mid"})}
        _line("A1c zero-slack-count", ok,
              f"derived: exactly 5 slacks in [-1e-12, 1e-12], non-tight pair "
              f"(x, y_mid); measured counts {sorted(counts)}, non-tight pairs "
              f"{sorted(sorted(p) for p in loose_pairs)}")

    def test_a1_cross_pair_slack_as_stated(self):
        worst = 0.0
        worst_at = None
        for ell, g1 in CE_GRID:
            report = check_interpolation(build_counterexample(ell, g1).point_system())
            cross = next(r.slack for r in report.conditions
                         if set(r.pair) == {"x", "y_mid"})
            gap = abs(cross - ell**2 / 2.0)
            if gap > worst:
                worst, worst_at = gap, (ell, g1, cross)
        ok = worst <= 1e-12
        _line("A1d cross-pair-slack", ok,
              f"derived: slack(x, y_mid) = ell^2/2; max gap {worst:.3g} "
              f"at (ell, gamma1, measured) = {worst_at}")


# ---------------------------------------------------------------------------
# A2: last-iterate residual bound for the extragradient method
# ---------------------------------------------------------------------------

class TestA2EgLastIterate:
    def test_a2_bound_on_suite(self, eg_traces):
        worst = np.inf
        for name, (entry, gamma, trace) in eg_traces.items():
            ks = np.arange(len(trace))
            d0 = float(np.sum((entry.x0 - entry.x_star) ** 2))
            denom = gamma**2 * (1.0 - entry.L**2 * gamma**2)
            bound = d0 / (denom * (ks + 1.0))
            margins = bound - trace.fx_sq
            rel = margins / np.abs(bound)
            worst = min(worst, float(rel.min()))
            assert np.all(margins >= -1e-10 * np.abs(bound)), name
        _line("A2a last-iterate-bound", True,
              f"suite of {len(eg_traces)}, K <= 10^4, worst relative margin {worst:.3e}")

    def test_a2_rotation_closed_form(self, eg_traces):
        _, _, trace = eg_traces["rotation"]
        ks = np.arange(len(trace))
        closed = 0.75**ks
        gap = np.abs(trace.fx_sq - closed) / (1.0 + closed)
        ok = bool(np.all(gap <= 1e-10))
        _line("A2b rotation-closed-form", ok,
              f"max deviation from 0.75^k over K <= 10^4: {gap.max():.2e}")


# ---------------------------------------------------------------------------
# A3: norm and distance monotonicity along extragradient runs
# ---------------------------------------------------------------------------

class TestA3Monotonicity:
    def test_a3_norm_never_increases(self, eg_traces):
        worst = -np.inf
        for name, (_, _, trace) in eg_traces.items():
            norms = np.sqrt(trace.fx_sq)
            inc = np.diff(norms)
            worst = max(worst, float(inc.max()))
            assert np.all(inc <= 1e-12), name
        _line("A3a norm-monotonicity", worst <= 1e-12,
              f"largest per-step residual-norm increase {worst:.2e} <= 1e-12")

    def test_a3_distance_inequality(self, eg_traces):
        worst = np.inf
        for name, (entry, gamma, trace) in eg_traces.items():
            lhs = gamma**2 * (1.0 - entry.L**2 * gamma**2) * trace.fx_sq[:-1]
            drop = trace.dist_sq[:-1] - trace.dist_sq[1:]
            slack = drop - lhs
            worst = min(worst, float(slack.min()))
            assert np.all(slack >= -1e-12), name
        _line("A3b distance-inequality", worst >= -1e-12,
              f"worst per-step slack {worst:.2e} >= -1e-12")


# ---------------------------------------------------------------------------
# A4: averaged/last bounds for the explicit, implicit, two-stepsize, and
#      past-extrapolation methods
# ---------------------------------------------------------------------------

class TestA4MethodBounds:
    def test_a4_gd_pp_eg_random_eftp(self, suite):
        iters = 300
        count = 0
        for entry in suite:
            op, L = entry.op, entry.L
            if entry.ell is not None:
                avg, last = harness.check_gd_bounds(op, entry.ell, 1.0 / entry.ell,
                                                    iters, entry.x0, entry.x_star)
                assert avg.passed and last.passed, entry.name
                count += 2
            pp_ell = entry.ell if entry.ell is not None else max(1.0, 2.5 * L)
            if isinstance(op, Affine) or 2.0 * L / pp_ell < 1.0:
                check = harness.check_pp_bound(op, pp_ell, 1.0 / pp_ell, iters,
                                               entry.x0, entry.x_star)
                assert check.passed, entry.name
                count += 1
            check = harness.check_eg_random_bound(op, L, 1.0 / L, 0.5 / L, iters,
                                                  entry.x0, entry.x_star)
            assert check.passed, entry.name
            check = harness.check_eftp_bound(op, L, 0.9 / (SQRT10 * L), iters,
                                             entry.x0, entry.x_star)
            assert check.passed, entry.name
            count += 2
        _line("A4a method-bounds", True,
              f"{count} bound checks green at tolerance 1e-10 relative")

    def test_a4_gd_equality_at_k0(self):
        op = scaled_identity(1.0, 2)
        avg, last = harness.check_gd_bounds(op, 1.0, 1.0, 0, np.array([2.0, -1.0]))
        exact = avg.observed[0] == avg.bound[0] and last.observed[0] == last.bound[0]
        _line("A4b k0-equality", exact,
              f"observed == bound == {avg.bound[0]} at K = 0 on the identity")


# ---------------------------------------------------------------------------
# A5: worst-case SDP assembly and feasible-point search
# ---------------------------------------------------------------------------

class TestA5Pep:
    def test_a5_matrix_assembly_cross_check(self):
        rng = np.random.default_rng(2024)
        signs = 0
        for _ in range(50):
            ell, g1, g2 = rng.uniform(0.05, 4.0, size=3)
            hand = build_expansiveness_matrices(ell, g1, g2)
            sym = pep.build_expansiveness_pep(ell, g1, g2)
            # the objective; six inequalities, then the equality
            signs += zero_sign_differences(hand.objective, sym.objective)
            signs += zero_sign_differences(hand.constraints, sym.constraints)
        _line("A5a matrix-assembly", True,
              f"50 random triples, hand-coded and table-built matrices equal; "
              f"their bits differ only in {signs} zero signs")

    def test_a5_embedding_objective(self):
        worst = 0.0
        for ell, g1 in CE_GRID:
            for g2 in (g1 / 2.0, g1):
                prob = pep.build_expansiveness_pep(ell, g1, g2)
                inst = build_counterexample(ell, g1)
                point = pep.embed_points(prob, pep.counterexample_vectors(inst))
                assert point.inequality_values.min() >= -1e-12
                assert abs(point.equality_residuals[0]) <= 1e-12
                expected = 1.0 + (g1 * g2 * ell * ell) ** 2 / 4.0
                worst = max(worst, abs(point.objective - expected))
                assert abs(point.objective - expected) <= 1e-12
        _line("A5b embedding", True,
              f"embedded instances feasible, max objective gap {worst:.2e}")

    def test_a5_lower_bound_search_defaults(self):
        values = {}
        for g in (0.25, 0.5, 1.0):
            prob = pep.build_expansiveness_pep(1.0, g, g)
            point = lower_bound_search(prob, seed=0)
            assert point.feasible(1e-9)
            values[g] = point.objective
            assert point.objective > 1.0 + 1e-6
        _line("A5c lower-bound-search", True,
              "verified lower bounds "
              + ", ".join(f"gamma={g}: {v:.6f}" for g, v in values.items())
              + " all > 1 + 1e-6")


# ---------------------------------------------------------------------------
# A6: cocoercivity certification
# ---------------------------------------------------------------------------

def _random_normal_matrix(rng):
    blocks = []
    for _ in range(int(rng.integers(1, 4))):
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


class TestA6Certification:
    def test_a6_pencil_disk_agreement(self):
        rng = np.random.default_rng(99)
        compared = skipped = 0
        for _ in range(200):
            A = _random_normal_matrix(rng)
            for ell in (0.3, 1.0, 3.0, 30.0):
                exact = affine_cocoercivity_exact(A, ell)
                disk = spectral_disk_check(A, ell)
                if abs(exact.worst_slack) < 1e-9 or abs(disk.worst_slack) < 1e-9:
                    skipped += 1
                    continue
                compared += 1
                assert exact.holds == disk.holds
        _line("A6a pencil-disk-agreement", compared >= 400,
              f"200 normal matrices, {compared} off-band comparisons agree "
              f"({skipped} in the boundary band)")

    def test_a6_rotation_rejected(self):
        A = rotation().matrix
        for ell in (1e-3, 1.0, 1e3, 1e6, 1e9):
            assert affine_cocoercivity_exact(A, ell).verdict == "violated"
        for ell in (1e-3, 1.0, 1e3, 1e6):
            assert spectral_disk_check(A, ell).verdict == "violated"
        assert min_cocoercivity_ell(A) is None
        _line("A6b rotation-rejected", True,
              "exact pencil rejects up to ell = 1e9; no finite constant found")

    def test_a6_min_ell_diag(self):
        val = min_cocoercivity_ell(np.diag([1.0, 2.0]))
        ok = abs(val - 2.0) <= 1e-8 * 2.0
        _line("A6c min-ell-diag", ok, f"min cocoercivity constant {val!r} vs 2.0")

    def test_a6_eg_affine_cocoercive_100(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            d = int(rng.integers(2, 8))
            G = rng.standard_normal((d, d))
            shift = max(0.0, -float(np.linalg.eigvalsh(0.5 * (G + G.T)).min())) + 0.05
            A = G + shift * np.eye(d)
            L = float(np.linalg.norm(A, 2))
            report = eg_affine_cocoercivity_check(A, 1.0 / (2.0 * L), L)
            assert report.holds
            assert report.details["exact"].holds
        _line("A6d eg-affine-cocoercivity", True,
              "100 random monotone operators certified at gamma = 1/(2*||A||)")


# ---------------------------------------------------------------------------
# A7: expansion witnesses for the two-sequence update operators
# ---------------------------------------------------------------------------

class TestA7Witnesses:
    def test_a7_rotation_grid(self):
        A = rotation().matrix
        worst = np.inf
        for ell in (0.5, 1.0, 2.0):
            for gamma in (0.5, 1.0, 2.0):
                for which in ("og", "eftp"):
                    report = og_noncocoercivity_witness(A, ell, gamma, which)
                    floor = 1.0 + 4.0 / (ell**2 * gamma**2)
                    gap = report.details["ratio"] - floor
                    worst = min(worst, gap)
                    assert report.verdict == "violated"
                    assert report.details["ratio"] >= floor - 1e-9
        _line("A7 witness-expansion", True,
              f"3x3 grid, both forms; min (ratio - floor) = {worst:.3e} >= -1e-9")


# ---------------------------------------------------------------------------
# A8: energy-descent method checks
# ---------------------------------------------------------------------------

class TestA8EnergyDescent:
    def test_a8_nonconvexity_probe(self):
        report = hamiltonian_nonconvexity_check()
        ok = (report.details["closed_form"] < 0.0
              and report.details["finite_difference"] < 0.0
              and report.details["relative_gap"] <= 1e-6)
        _line("A8a energy-nonconvexity", ok,
              f"2H''(3) = {report.details['closed_form']:.6f} < 0, "
              f"finite-difference gap {report.details['relative_gap']:.2e} <= 1e-6")

    def test_a8_best_iterate_and_monotonicity(self):
        op = LogisticGrad(1.0, 0.01)
        L, lam = 0.26, 0.25
        x0 = np.array([3.0])
        f0 = abs(op(x0)[0])
        gamma = 1.0 / (L**2 + lam * f0)
        best, mono = harness.check_hgm_bounds(op, L, lam, gamma, 500, x0)
        ok = bool(best.passed and mono.passed)
        _line("A8b best-iterate", ok,
              f"best-iterate margin {best.worst_margin:.3e}, "
              f"norm monotonicity margin {mono.worst_margin:.3e}")

    def test_a8_affine_contraction(self):
        check = harness.check_hgm_affine_contraction(Affine(np.diag([1.0, 2.0])),
                                                     100, np.array([1.0, 1.0]))
        ok = bool(check.passed) and abs(check.params["rho"] - 0.6) <= 1e-12
        _line("A8c affine-contraction", ok,
              f"factor (1-kappa)/(1+kappa) = {check.params['rho']}, per-step holds")


# ---------------------------------------------------------------------------
# A9: cross-cutting property suite
# ---------------------------------------------------------------------------

class TestA9Properties:
    def test_a9_pp_cocoercivity_inequality(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            G = rng.standard_normal((d, d))
            shift = max(0.0, -float(np.linalg.eigvalsh(0.5 * (G + G.T)).min())) + 0.1
            base = Affine(G + shift * np.eye(d), rng.standard_normal(d))
            gamma = float(rng.uniform(0.2, 1.5))
            comp = pp_operator(base, gamma)
            x, y = rng.standard_normal(d), rng.standard_normal(d)
            x_hat = x - gamma * comp(x)
            y_hat = y - gamma * comp(y)
            lhs = float(np.sum((x_hat - y_hat) ** 2))
            rhs = float(np.sum((x - y) ** 2)
                        - gamma**2 * np.sum((base(x_hat) - base(y_hat)) ** 2))
            assert lhs <= rhs + 1e-10
        _line("A9a pp-cocoercivity", True, "20 random instances within 1e-10")

    def test_a9_root_preservation(self):
        rng = np.random.default_rng(17)
        A = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        base = Affine(A, rng.standard_normal(3))
        x_star = base.root()
        gamma = 0.1
        checks = {
            "eg": eg_operator(base, gamma)(x_star),
            "pp": pp_operator(base, gamma)(x_star),
            "og": og_operator(base, gamma)(np.concatenate([x_star, x_star])),
            "eftp": eftp_operator(base, gamma)(np.concatenate([x_star, x_star])),
        }
        worst = max(float(np.abs(v).max()) for v in checks.values())
        _line("A9b root-preservation", worst <= 1e-12,
              f"all composites vanish at the lifted solution, max {worst:.2e}")

    def test_a9_og_eftp_equivalence(self):
        rng = np.random.default_rng(19)
        worst = 0.0
        for op in (rotation(), Affine(rng.standard_normal((3, 3)) + 3 * np.eye(3),
                                      rng.standard_normal(3))):
            x0 = rng.standard_normal(op.dim)
            _, og_xs, _ = run_points(op, SolverConfig("og", gamma=0.1, iters=100, x0=x0))
            _, _, tildes = run_points(op, SolverConfig("eftp", gamma=0.1, iters=100, x0=x0))
            assert og_xs.shape == tildes.shape == (101, op.dim)
            gap = float(np.abs(og_xs - tildes).max())
            worst = max(worst, gap)
            assert gap <= 1e-10
        _line("A9c sequence-equivalence", True,
              f"100 steps, two operators, max deviation {worst:.2e} <= 1e-10")

    def test_a9_sdpa_round_trip(self, tmp_path):
        prob = pep.build_expansiveness_pep(np.e / 2.0, 0.123456789, 0.77)
        path = tmp_path / "round.dat-s"
        pep.export_sdpa(prob, path)
        parsed = pep.parse_sdpa(path)
        exact = np.array_equal(parsed["blocks"][0][0], prob.objective)
        for k, mat in enumerate(prob.constraints):
            exact = exact and np.array_equal(parsed["blocks"][k + 1][0], mat)
        _line("A9d sdpa-round-trip", exact, "re-parsed matrices are bit-identical")

    def test_a9_seed_determinism(self):
        prob = pep.build_expansiveness_pep(1.0, 0.5, 0.5)
        a = lower_bound_search(prob, restarts=4, ascent_steps=300, rounds=2, seed=5)
        b = lower_bound_search(prob, restarts=4, ascent_steps=300, rounds=2, seed=5)
        same = np.array_equal(a.G, b.G) and a.objective == b.objective
        s1 = sampled_property_check(rotation(), "monotone", trials=50, seed=3)
        s2 = sampled_property_check(rotation(), "monotone", trials=50, seed=3)
        same = same and s1.worst_slack == s2.worst_slack
        v1 = harness.check_eg_norm_violation_regimes(seed=2, num_ops=4, num_starts=2)
        v2 = harness.check_eg_norm_violation_regimes(seed=2, num_ops=4, num_starts=2)
        same = same and json.dumps(v1, sort_keys=True) == json.dumps(v2, sort_keys=True)
        r1 = harness.report_to_json(harness.run_report(seed=8, iters=30))
        r2 = harness.report_to_json(harness.run_report(seed=8, iters=30))
        same = same and r1 == r2
        _line("A9e seed-determinism", same,
              "search, sampling, violation scan, and full report are bit-stable")
