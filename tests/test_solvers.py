import copy
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from recording import recording, recording_subclass, run_points

from vicert import numerics, operators, solvers
from vicert.errors import (
    BadParameters,
    DimensionMismatch,
    NoConvergence,
    NonFinite,
    VicertError,
)
from vicert.operators import (
    Affine,
    Constants,
    ImplicitComposite,
    LogisticGrad,
    Operator,
    bilinear_game,
    eg_operator,
    load_operator,
    pp_operator,
    rotation,
    scaled_identity,
)
from vicert.serial import fmt17
from vicert.solvers import (
    SolverConfig,
    Trace,
    run,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
ZERO2 = Affine(np.zeros((2, 2)))
METHODS = ["gd", "pp", "eg", "eg2", "og", "eftp", "hgm"]
# the affine operators of the huge-stepsize properties
_PROPERTY_OPS = [scaled_identity(1.0, 2), rotation(), Affine([[2.0, 1.0], [-1.0, 0.5]]),
                 scaled_identity(7.0, 3)]


def _random_monotone_affine(rng, d, shift=0.25):
    G = rng.standard_normal((d, d))
    sym_min = np.linalg.eigvalsh(0.5 * (G + G.T)).min()
    return Affine(G + (max(0.0, -sym_min) + shift) * np.eye(d))


def _one_step(op, method, x, **steps):
    """The first step of ``method`` from x: row 1 of a one-iteration run."""
    _, xs, _ = run_points(op, SolverConfig(method, iters=1, x0=x, **steps))
    return xs[1]


class TestSteps:
    def test_gd(self):
        assert _one_step(scaled_identity(1.0, 1), "gd", np.array([5.0]), gamma=1.0)[0] == 0.0
        out = _one_step(rotation(), "gd", np.array([1.0, 0.0]), gamma=0.5)
        assert np.allclose(out, [1.0, 0.5], atol=0.0)
        assert np.array_equal(_one_step(ZERO2, "gd", np.array([1.0, 2.0]), gamma=0.7),
                              [1.0, 2.0])

    def test_eg_closed_form_on_rotation(self):
        rng = np.random.default_rng(0)
        A = rotation().matrix
        for gamma in (0.3, 1.0 / np.sqrt(2.0)):
            x = rng.standard_normal(2)
            expected = ((1.0 - gamma**2) * np.eye(2) - gamma * A) @ x
            assert np.allclose(_one_step(rotation(), "eg", x, gamma=gamma), expected,
                               atol=1e-15)

    def test_eg_matches_gd_on_composite(self):
        rng = np.random.default_rng(1)
        base = _random_monotone_affine(rng, 3)
        comp = eg_operator(base, 0.2)
        for _ in range(20):
            x = rng.standard_normal(3)
            a = _one_step(base, "eg", x, gamma=0.2)
            b = _one_step(comp, "gd", x, gamma=0.2)
            assert np.abs(a - b).max() <= 1e-14 * (1.0 + np.abs(a).max())

    def test_eg2_reduces_to_eg(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(2)
        assert np.array_equal(
            _one_step(rotation(), "eg2", x, gamma1=0.4, gamma2=0.4),
            _one_step(rotation(), "eg", x, gamma=0.4),
        )
        assert np.array_equal(_one_step(ZERO2, "eg2", x, gamma1=0.3, gamma2=0.1), x)

    def test_og(self):
        # og's first step takes x_prev = x0
        op = scaled_identity(1.0, 1)
        one = np.array([1.0])
        for gamma in (0.25, 0.5):
            assert _one_step(op, "og", one, gamma=gamma)[0] == 1.0 - gamma
        assert np.array_equal(_one_step(ZERO2, "og", np.array([2.0, 1.0]), gamma=0.5),
                              [2.0, 1.0])

    def test_og_first_step_matches_eftp(self):
        rng = np.random.default_rng(3)
        base = _random_monotone_affine(rng, 2)
        x0 = rng.standard_normal(2)
        gamma = 0.15
        og1 = _one_step(base, "og", x0, gamma=gamma)
        xt1 = x0 - gamma * base(x0)
        assert np.allclose(og1, xt1, atol=1e-15)

    @staticmethod
    def _eftp_step(op, x, gamma):
        """(x^1, x_tilde^1) of eftp from x^0 = x_tilde^0 = x."""
        _, xs, tildes = run_points(op, SolverConfig("eftp", gamma=gamma, iters=1, x0=x))
        return xs[1], tildes[1]

    def test_eftp_rotation_one_step(self):
        x = np.array([1.0, 0.0])
        x_new, xt_new = self._eftp_step(rotation(), x, 1.0)
        assert np.allclose(xt_new, [1.0, 1.0], atol=0.0)
        assert np.allclose(x_new, [0.0, 1.0], atol=0.0)

    def test_eftp_zero_operator(self):
        x = np.array([1.0, -1.0])
        x_new, xt_new = self._eftp_step(ZERO2, x, 0.7)
        assert np.array_equal(x_new, x) and np.array_equal(xt_new, x)

    def test_pp(self):
        x = np.array([2.0])
        assert abs(_one_step(scaled_identity(1.0, 1), "pp", x, gamma=1.0)[0] - 1.0) < 1e-14
        assert np.array_equal(_one_step(ZERO2, "pp", np.array([1.0, 2.0]), gamma=1.0),
                              [1.0, 2.0])
        out = _one_step(rotation(), "pp", np.array([1.0, 0.0]), gamma=1.0)
        assert np.allclose(out, [0.5, 0.5], atol=1e-14)

    def test_pp_ell(self):
        # the explicit step x - gamma * F_pp(x), F_pp resolving with stepsize 2/ell
        def pp_ell_step(op, x, gamma, ell):
            return x - gamma * pp_operator(op, 2.0 / ell)(x)

        op = scaled_identity(1.0, 1)
        x = np.array([4.0])
        ell = 2.0
        assert np.allclose(pp_ell_step(op, x, 2.0 / ell, ell),
                           _one_step(op, "pp", x, gamma=2.0 / ell), atol=0.0)
        assert abs(pp_ell_step(op, x, 0.5, 2.0)[0] - 3.0) < 1e-13
        assert np.array_equal(pp_ell_step(ZERO2, np.array([1.0, 0.0]), 0.5, 2.0),
                              [1.0, 0.0])

    def test_hgm(self):
        x = np.array([2.0, -1.0])
        assert np.allclose(_one_step(rotation(), "hgm", x, gamma=0.3), 0.7 * x, atol=1e-15)
        assert np.array_equal(_one_step(ZERO2, "hgm", x, gamma=1.0), x)
        op = LogisticGrad(1.0, 0.01)
        x1 = np.array([1.0])
        expected = x1 - 0.1 * op.jacobian(x1)[0, 0] * op(x1)
        assert np.allclose(_one_step(op, "hgm", x1, gamma=0.1), expected, atol=0.0)


class TestRun:
    def test_zero_iters_single_row(self):
        trace = run(rotation(), SolverConfig("gd", gamma=0.1, iters=0,
                                             x0=np.array([1.0, 0.0])))
        assert len(trace) == 1
        assert trace.fx_sq[0] == 1.0

    @pytest.mark.parametrize("op,star", [
        (rotation(), [1.0, 2.0, 3.0]),
        (scaled_identity(1.0, 3), [1.0, 2.0]),
        (rotation(), [5.0]),
    ], ids=["too-long", "too-short", "single-element"])
    def test_x_star_of_another_dimension_raises(self, op, star):
        # a one-element star would broadcast into every distance
        cfg = SolverConfig("gd", gamma=0.1, iters=2, x0=np.ones(op.dim))
        with pytest.raises(DimensionMismatch, match=f"operator dim {op.dim}, x_star dim"):
            run(op, cfg, x_star=star)

    def test_eg_rotation_contraction(self):
        gamma = 1.0 / np.sqrt(2.0)
        x0 = np.array([1.0, 0.0])
        trace = run(rotation(), SolverConfig("eg", gamma=gamma, iters=60, x0=x0),
                    x_star=np.zeros(2))
        for k in range(61):
            assert abs(trace.fx_sq[k] - 0.75**k) <= 1e-10 * (1.0 + 0.75**k)
            assert abs(trace.dist_sq[k] - 0.75**k) <= 1e-10

    def test_gd_identity_hits_zero_after_one_step(self):
        for K in (1, 4, 9):
            trace = run(scaled_identity(1.0, 1),
                        SolverConfig("gd", gamma=1.0, iters=K, x0=np.array([1.0])))
            assert trace.fx_sq.tolist() == [1.0] + [0.0] * K

    def test_gd_rotation_diverges_monotonically(self):
        trace = run(rotation(), SolverConfig("gd", gamma=0.5, iters=50,
                                             x0=np.array([1.0, 0.0])))
        norms = np.sqrt(trace.fx_sq)
        assert np.all(np.diff(norms) > 0.0)

    def test_divergence_flag(self):
        expanding = Affine(-np.eye(1))
        trace = run(expanding, SolverConfig("gd", gamma=1.0, iters=2000,
                                            x0=np.array([1.0])))
        assert trace.diverged
        assert len(trace) < 2001

    def test_huge_stepsize_never_raises_property(self):
        """Every method on a huge stepsize returns a trace whose columns all
        have one entry per row; the explicit methods stop diverged on a
        non-finite fx_sq or an iterate past the divergence limit."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
        @hypothesis.given(op=st.sampled_from(_PROPERTY_OPS), method=st.sampled_from(METHODS),
                          gamma=st.floats(1e100, 1e300), scale=st.floats(1e-3, 1e149))
        def prop(op, method, gamma, scale):
            steps = ({"gamma1": gamma, "gamma2": gamma} if method == "eg2"
                     else {"gamma": gamma})
            cfg = SolverConfig(method, iters=20, x0=np.full(op.dim, scale), **steps)
            with np.errstate(over="ignore", invalid="ignore"):
                trace, xs, _ = run_points(op, cfg, x_star=np.zeros(op.dim))
            columns = [trace.dist_sq, *trace.extras.values()]
            assert all(col.shape[0] == len(trace) for col in columns)
            if method != "pp":
                assert trace.diverged
            if trace.diverged:
                assert (not np.isfinite(trace.fx_sq[-1])
                        or np.abs(xs[-1]).max() > solvers._DIVERGENCE_LIMIT)

        prop()

    @pytest.mark.parametrize("method", ["eg", "eg2", "eftp"])
    def test_overflowed_iterate_ends_on_nan_row(self, method):
        steps = {"gamma1": 1e160, "gamma2": 1e160} if method == "eg2" else {"gamma": 1e160}
        cfg = SolverConfig(method, iters=10, x0=np.array([1.0, 1.0]), **steps)
        with np.errstate(over="ignore", invalid="ignore"):
            trace = run(scaled_identity(1.0, 2), cfg, x_star=np.zeros(2))
        assert trace.diverged
        assert len(trace) == 2
        assert trace.fx_sq[0] == 2.0 and np.isnan(trace.fx_sq[1])
        assert all(col.shape[0] == 2 for col in trace.extras.values())
        assert trace.to_csv().splitlines()[-1] == "1,nan,nan,nan"

    @pytest.mark.parametrize("method", METHODS)
    def test_every_column_holds_one_scalar_per_row(self, method):
        """A trace keeps no vectors: each array it holds is 1-D, with one entry
        a row, on a tame run and on one that ends on a NaN row."""
        for g, x0 in ((0.1, np.array([1.0, 0.0])), (1e308, np.array([1e10, 1e10]))):
            steps = {"gamma1": g, "gamma2": g} if method == "eg2" else {"gamma": g}
            cfg = SolverConfig(method, iters=30, x0=x0, **steps)
            with np.errstate(over="ignore", invalid="ignore"):
                trace = run(rotation(), cfg, x_star=np.zeros(2))
            fields = [getattr(trace, f.name) for f in dataclasses.fields(trace)]
            arrays = [a for a in fields if isinstance(a, np.ndarray)]
            arrays += trace.extras.values()
            assert len(arrays) == 2 + len(solvers._EXTRAS.get(method, ()))
            assert all(a.shape == (len(trace),) for a in arrays)

    def test_huge_iteration_count_diverging_early(self):
        # the rows are allocated as the run fills them, not all up front
        cfg = SolverConfig("gd", gamma=1e160, iters=10**12, x0=np.array([1.0, 1.0]))
        with np.errstate(over="ignore"):
            trace, xs, _ = run_points(scaled_identity(1.0, 2), cfg)
        assert trace.diverged and len(trace) == 2
        assert xs.shape == (2, 2)

    def test_og_eftp_sequences_match(self):
        rng = np.random.default_rng(4)
        for op in (rotation(), _random_monotone_affine(rng, 3),
                   bilinear_game(rng.standard_normal((2, 2)))):
            x0 = rng.standard_normal(op.dim)
            gamma = 0.1
            _, og_xs, _ = run_points(op, SolverConfig("og", gamma=gamma, iters=100, x0=x0))
            _, _, tilde = run_points(op, SolverConfig("eftp", gamma=gamma, iters=100, x0=x0))
            assert og_xs.shape == tilde.shape == (101, op.dim)
            assert np.abs(og_xs - tilde).max() <= 1e-10

    def test_eg2_trace_matches_gd_on_composite(self):
        rng = np.random.default_rng(5)
        base = _random_monotone_affine(rng, 2)
        x0 = rng.standard_normal(2)
        _, xs1, _ = run_points(base, SolverConfig("eg2", gamma1=0.3, gamma2=0.1, iters=40,
                                                  x0=x0))
        _, xs2, _ = run_points(eg_operator(base, 0.3),
                               SolverConfig("gd", gamma=0.1, iters=40, x0=x0))
        assert xs1.shape == xs2.shape == (41, 2)
        assert np.abs(xs1 - xs2).max() <= 1e-12

    def test_pp_run_matches_step(self):
        op = rotation()
        x0 = np.array([1.0, 1.0])
        _, xs, _ = run_points(op, SolverConfig("pp", gamma=0.5, iters=3, x0=x0))
        x = x0
        for k in range(3):
            x = x - 0.5 * pp_operator(op, 0.5)(x)
            assert np.allclose(xs[k + 1], x, atol=1e-13)

    def test_bad_config(self):
        with pytest.raises(BadParameters):
            SolverConfig("nope", gamma=0.1, iters=1, x0=np.zeros(1))
        with pytest.raises(BadParameters):
            SolverConfig("gd", gamma=0.0, iters=1, x0=np.zeros(1))
        with pytest.raises(BadParameters):
            SolverConfig("eg2", gamma1=0.1, iters=1, x0=np.zeros(1))

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0, 0.0])
    def test_stepsizes_must_be_finite_and_positive(self, method, bad):
        # an infinite stepsize once ran, to fx_sq [2, nan]
        x0 = np.ones(2)
        cases = ([{"gamma1": bad, "gamma2": 0.1}, {"gamma1": 0.1, "gamma2": bad}]
                 if method == "eg2" else [{"gamma": bad}])
        for steps in cases:
            with pytest.raises(BadParameters, match="must be finite and positive"):
                SolverConfig(method, iters=1, x0=x0, **steps)

    @pytest.mark.parametrize("method", METHODS)
    def test_takes_only_the_stepsizes_of_its_method(self, method):
        """eg2 takes gamma1 and gamma2, every other method gamma alone."""
        x0 = np.zeros(1)
        if method == "eg2":
            SolverConfig(method, gamma1=0.2, gamma2=0.1, x0=x0)
            wrong = [{"gamma": 0.1, "gamma1": 0.2, "gamma2": 0.1}, {"gamma": 0.1}]
        else:
            SolverConfig(method, gamma=0.1, x0=x0)
            wrong = [{"gamma": 0.1, "gamma1": 0.2}, {"gamma": 0.1, "gamma2": 0.2},
                     {"gamma1": 0.2, "gamma2": 0.1}]
        for steps in wrong:
            with pytest.raises(BadParameters):
                SolverConfig(method, x0=x0, **steps)

    @pytest.mark.parametrize("method", METHODS)
    def test_no_input_check_per_iteration(self, method, monkeypatch):
        """A run checks its input once: the number of full vector checks does
        not grow with the iteration count."""
        checks = []
        as_vector = numerics.as_vector

        def counting(x):
            checks.append(1)
            return as_vector(x)

        monkeypatch.setattr(numerics, "as_vector", counting)
        op = LogisticGrad(1.0, 0.01)
        steps = {"gamma1": 0.5, "gamma2": 0.25} if method == "eg2" else {"gamma": 0.5}
        counts = []
        for K in (10, 1000):
            checks.clear()
            trace = run(op, SolverConfig(method, iters=K, x0=np.array([2.0]), **steps))
            assert not trace.diverged and len(trace) == K + 1
            counts.append(len(checks))
        assert counts[0] == counts[1]


class TestPerStepInequalities:
    def test_eg_norm_never_increases(self):
        rng = np.random.default_rng(7)
        ops = [rotation(), _random_monotone_affine(rng, 4),
               bilinear_game(rng.standard_normal((3, 2))), LogisticGrad(1.0, 0.01)]
        Ls = [1.0, None, None, 0.26]
        for op, L in zip(ops, Ls):
            if L is None:
                L = np.linalg.norm(op.matrix, 2)
            gamma = 1.0 / (np.sqrt(2.0) * L)
            x0 = rng.standard_normal(op.dim)
            trace = run(op, SolverConfig("eg", gamma=gamma, iters=200, x0=x0))
            norms = np.sqrt(trace.fx_sq)
            assert np.all(np.diff(norms) <= 1e-12)

    def test_eg_distance_inequality(self):
        rng = np.random.default_rng(8)
        for op in (rotation(), _random_monotone_affine(rng, 5)):
            L = np.linalg.norm(op.matrix, 2)
            gamma = 1.0 / (np.sqrt(2.0) * L)
            trace = run(op, SolverConfig("eg", gamma=gamma, iters=150,
                                         x0=rng.standard_normal(op.dim)),
                        x_star=np.zeros(op.dim))
            lhs = gamma**2 * (1.0 - L**2 * gamma**2) * trace.fx_sq[:-1]
            drop = trace.dist_sq[:-1] - trace.dist_sq[1:]
            assert np.all(lhs <= drop + 1e-12)

    def test_gd_descent_under_cocoercivity(self):
        rng = np.random.default_rng(9)
        cases = [(scaled_identity(1.0, 3), 1.0), (Affine(np.diag([1.0, 2.0])), 2.0),
                 (LogisticGrad(1.0, 0.01), 0.26)]
        for op, ell in cases:
            gamma = 1.0 / ell
            x_star = op.root()
            trace = run(op, SolverConfig("gd", gamma=gamma, iters=100,
                                         x0=x_star + rng.standard_normal(op.dim)),
                        x_star=x_star)
            lhs = gamma * (2.0 / ell - gamma) * trace.fx_sq[:-1]
            drop = trace.dist_sq[:-1] - trace.dist_sq[1:]
            assert np.all(lhs <= drop + 1e-12)

    def test_hgm_norm_monotone(self):
        op = LogisticGrad(1.0, 0.01)
        L, Lam = 0.26, 0.25
        x0 = np.array([3.0])
        f0 = np.linalg.norm(op(x0))
        gamma = 2.0 / (L**2 + Lam * f0)
        trace = run(op, SolverConfig("hgm", gamma=gamma, iters=300, x0=x0))
        norms = np.sqrt(trace.fx_sq)
        assert np.all(np.diff(norms) <= 1e-12)


class TestCsv:
    def test_round_trip_values(self):
        trace = run(rotation(), SolverConfig("eg", gamma=0.5, iters=3,
                                             x0=np.array([1.0, 0.0])),
                    x_star=np.zeros(2))
        lines = trace.to_csv().strip().splitlines()
        assert lines[0] == "k,fx_sq,dist_sq,mid_sq"
        assert len(lines) == 5
        parsed = [float(v) for v in lines[1].split(",")]
        assert parsed[0] == 0.0 and parsed[1] == trace.fx_sq[0]

    def test_17_digit_precision(self, tmp_path):
        trace = run(LogisticGrad(), SolverConfig("gd", gamma=0.9, iters=2,
                                                 x0=np.array([0.3])))
        text = trace.to_csv()
        row1 = text.splitlines()[1].split(",")
        assert float(row1[1]) == trace.fx_sq[0]

    def test_matches_reference_formatter_property(self):
        """to_csv writes what the per-value reference formatter writes, with
        and without distances, for any float64 column values (nan of either
        sign, +-inf, -0 and subnormals included)."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        value = (st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
                 | st.sampled_from([-0.0, -math.nan, 5e-324, np.finfo(float).max]))

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
        @hypothesis.given(method=st.sampled_from(METHODS), with_star=st.booleans(),
                          data=st.data(), n=st.integers(0, 20))
        def prop(method, with_star, data, n):
            def column():
                return np.array(data.draw(st.lists(value, min_size=n, max_size=n)),
                                dtype=float)

            extras = {name: column() for name in solvers._EXTRAS.get(method, ())}
            trace = Trace(method=method, fx_sq=column(),
                          dist_sq=column() if with_star else None, extras=extras)
            assert trace.to_csv() == _reference_csv(trace)

        prop()


# ---------------------------------------------------------------------------
# The run loop before it validated once and cached F values: every point
# checked as the public op(x) checks it, og and eftp re-evaluating the F
# values they already hold, and rows collected in lists.  F, its Jacobian and
# every product are spelled as they were before the hot path was respelled
# (``@`` products, ``.sum()`` residuals, numpy-scalar logistic arithmetic), so
# run() is compared with code it does not share.  run() must reproduce it
# bit for bit, and evaluate F at the points it lists, in the same order.
# ---------------------------------------------------------------------------

def _reference_sigmoid(t):
    if t >= 0.0:
        return 1.0 / (1.0 + np.exp(-t))
    z = np.exp(t)
    return z / (1.0 + z)


def _reference_logistic(op, x):
    """F(x) and F'(x) of a LogisticGrad, in numpy-scalar arithmetic."""
    t = op.a * x[0]
    s = _reference_sigmoid(t)
    return (np.array([op.a * s + op.delta * x[0]]),
            np.array([[op.a * op.a * s * (1.0 - s) + op.delta]]))


def _reference_apply(op, x):
    x = numerics.as_vector(x)   # the check op(x) makes
    if isinstance(op, Affine):
        return op.matrix @ x + op.offset
    if isinstance(op, LogisticGrad):
        return _reference_logistic(op, x)[0]
    if isinstance(op, ImplicitComposite):
        y = x.copy()
        for _ in range(op.max_iters):
            target = x - op.gamma * _reference_apply(op.inner, y)
            d = y - target
            if math.sqrt((d * d).sum()) <= op.tol:
                return _reference_apply(op.inner, y)
            y = y - op._theta * d
        raise NoConvergence("reference fixed point did not converge")
    return op(x)


def _reference_jacobian(op, x):
    x = numerics.as_vector(x)
    if isinstance(op, Affine):
        return op.matrix
    if isinstance(op, LogisticGrad):
        return _reference_logistic(op, x)[1]
    return op.jacobian(x)


def _reference_run(op, cfg, x_star=None):
    """The trace, and each point F is evaluated at, in order, a point F
    meets again (og's x_prev, eftp's tilde point) listed once."""
    x = cfg.x0.copy()
    star = None if x_star is None else np.asarray(x_star, dtype=float)
    method = cfg.method
    g = cfg.gamma
    g1 = cfg.gamma1 if cfg.gamma1 is not None else g
    g2 = cfg.gamma2 if cfg.gamma2 is not None else g
    pp_comp = pp_operator(op, g) if method == "pp" else None
    x_prev = x.copy()
    x_tilde = x.copy()
    points, fx_sq, dist_sq = [], [], []
    extras = {name: [] for name in solvers._EXTRAS.get(method, ())}
    diverged = False
    F = _reference_apply
    for k in range(cfg.iters + 1):
        try:
            fx = F(op, x)
            points.append(x.copy())
            fx_sq.append(float(fx @ fx))
            if star is not None:
                d = x - star
                dist_sq.append(float(d @ d))
            if method in ("eg", "eg2"):
                mid = x - g1 * fx
                fmid = F(op, mid)
                points.append(mid)
                extras["mid_sq"].append(float(fmid @ fmid))
            elif method == "eftp":
                ft = F(op, x_tilde)
                extras["tilde_sq"].append(float(ft @ ft))
            elif method == "hgm":
                gh = _reference_jacobian(op, x).T @ fx
                extras["grad_h_sq"].append(float(gh @ gh))
                extras["energy"].append(0.5 * float(fx @ fx))
            if not np.isfinite(fx_sq[-1]) or float(np.abs(x).max(initial=0.0)) > 1e150:
                diverged = True
                break
            if k == cfg.iters:
                break
            if method == "gd":
                x = x - g * fx
            elif method == "pp":
                x = x - g * F(pp_comp, x)
            elif method == "eg":
                x = x - g * fmid
            elif method == "eg2":
                x = x - g2 * fmid
            elif method == "og":
                x_new = x - 2.0 * g * fx + g * F(op, x_prev)
                x_prev, x = x, x_new
            elif method == "eftp":
                x_tilde = x - g * F(op, x_tilde)
                x = x - g * F(op, x_tilde)
                points.append(x_tilde)
            elif method == "hgm":
                x = x - g * (_reference_jacobian(op, x).T @ fx)
        except NonFinite:
            length = len(fx_sq) + 1
            for col in (fx_sq, dist_sq, *extras.values()):
                col.extend([np.nan] * (length - len(col)))
            diverged = True
            break
    trace = Trace(method=method, fx_sq=np.array(fx_sq),
                  dist_sq=np.array(dist_sq) if star is not None else None,
                  extras={name: np.array(rows) for name, rows in extras.items() if rows},
                  diverged=diverged)
    return trace, points


def _same_bits(a, b) -> bool:
    """Equal values, NaN included, and zeros of equal sign."""
    return (np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a[a == 0]), np.signbit(b[b == 0])))


def _reference_csv(trace):
    cols = dict(sorted(trace.extras.items()))
    lines = ["k,fx_sq,dist_sq" + "".join("," + name for name in cols)]
    for k in range(len(trace)):
        dist = trace.dist_sq[k] if trace.dist_sq is not None else float("nan")
        row = [str(k), fmt17(trace.fx_sq[k]), fmt17(dist)]
        row += [fmt17(cols[name][k]) for name in cols]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


class TestHotPathSpellings:
    """The unchecked calls the run loop makes give, bit for bit, what the
    reference spellings give: ``A @ x + b`` for an affine map and
    numpy-scalar arithmetic for the logistic gradient."""

    def test_affine_apply_is_matmul_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
        @hypothesis.given(d=st.sampled_from([1, 2]) | st.integers(1, 64),
                          seed=st.integers(0, 2**32 - 1),
                          scale=st.floats(-150.0, 150.0).map(lambda e: 10.0 ** e),
                          zeros=st.floats(0.0, 0.9), offset=st.booleans(),
                          transposed=st.booleans())
        def prop(d, seed, scale, zeros, offset, transposed):
            rng = np.random.default_rng(seed)
            A = scale * rng.standard_normal((d, d))
            # signed zeros in A and x make A x hold -0.0 entries
            A[rng.random((d, d)) < zeros] = -0.0
            x = rng.standard_normal(d)
            x[rng.random(d) < zeros] = -0.0
            b = rng.standard_normal(d) if offset else np.zeros(d)
            b[rng.random(d) < zeros] = -0.0
            op = Affine(A, b)
            if transposed:
                op.matrix = op.matrix.T
            assert op.matrix.flags.f_contiguous if transposed else op.matrix.flags.c_contiguous
            assert _same_bits(op._apply(x), _reference_apply(op, x))
            # the squared norms of the run loop
            assert _same_bits(x.dot(x), x @ x)
            if d > 1:
                # at d = 1 .dot is the bare product, -0.0 where @ gives +0.0
                assert _same_bits(op.matrix.dot(x), op.matrix @ x)

        prop()

    def test_affine_apply_signed_zero_at_d1(self):
        # a*x = -0.0, which the dot of @ turns into +0.0, plus an offset of
        # -0.0: an offset added as given would keep -0.0
        op = Affine([[1.0]], [-0.0])
        x = np.array([-0.0])
        assert _same_bits(op.matrix.dot(x), np.array([-0.0]))
        assert _same_bits(op._apply(x), np.array([0.0]))
        assert _same_bits(_reference_apply(op, x), np.array([0.0]))
        assert _same_bits(op.offset, np.array([-0.0]))

    def test_logistic_matches_numpy_scalar_formula_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        point = st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, 1e300, -1e300])

        @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
        @hypothesis.given(x0=point, a=st.sampled_from([1.0, -2.5, 1e-3, 37.0]),
                          delta=st.sampled_from([0.01, 0.0, 3.0]))
        def prop(x0, a, delta):
            op = LogisticGrad(a, delta)
            x = np.array([x0])
            # a*x may overflow to inf, which numpy scalars warn about
            with np.errstate(over="ignore"):
                f_ref, j_ref = _reference_logistic(op, x)
            assert _same_bits(op._apply(x), f_ref)
            assert _same_bits(op._jacobian(x), j_ref)

        prop()


class _Bump(Operator):
    """F(x) = 10*tanh(x)/cosh(x) componentwise, 0 at +-inf: F of an
    overflowed point is finite, so such a point shows only through run's own
    check of the points it creates."""

    kind = "bump"
    dim = 2
    constants = Constants(lipschitz=10.0)

    def _apply(self, x):
        return 10.0 * np.tanh(x) / np.cosh(x)

    def _jacobian(self, x):
        sech = 1.0 / np.cosh(x)
        return np.diag(10.0 * sech * (sech ** 2 - np.tanh(x) ** 2))


def _bit_identity_operators():
    rng = np.random.default_rng(21)
    m50 = _random_monotone_affine(rng, 50)
    return [
        ("rotation", rotation(), 1.0, rng.standard_normal(2)),
        ("monotone50", m50, float(np.linalg.norm(m50.matrix, 2)), rng.standard_normal(50)),
        ("bilinear4", load_operator(FIXTURES / "bilinear4.json"), None, rng.standard_normal(4)),
        ("logistic", LogisticGrad(1.0, 0.01), 0.26, np.array([2.0])),
        # d = 1 from its root: every product is a signed zero
        ("signed-zero", Affine([[-1.0]], [-0.0]), 1.0, np.array([-0.0])),
        # |F| is near its peak at the 100-times start of the 1e308 case
        ("bump", _Bump(), 10.0, np.array([0.009, -0.008])),
    ]


_BIT_OPS = _bit_identity_operators()
# fractions of 1/L (1/L^2 for hgm) as the benchmark's trace runs use
_NORMAL_STEP = {"gd": 0.1, "pp": 0.5, "eg": 0.5, "eg2": 0.5, "og": 0.25, "eftp": 0.25,
                "hgm": 0.5}


class TestBitIdentity:
    """run() against the reference loop on the same machine: a comparison
    with recorded digests would depend on the BLAS build and the CPU."""

    # how run reaches F: through a recording _apply put on the instance, or
    # one a subclass overrides, each called as it is; or through the
    # operator's own _apply, which for an Affine without a shift run turns
    # into the bare gemv matrix.dot.  Only the first two record the points
    BINDINGS = ["instance", "plain", "subclass"]

    # at 1e160 the explicit methods overflow their iterate; at 1e308, from a
    # start 100 times larger, already the eg mid point and the eftp tilde point
    @pytest.mark.parametrize("binding", BINDINGS)
    @pytest.mark.parametrize("scale", ["normal", 1e160, 1e308])
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("case", _BIT_OPS, ids=[c[0] for c in _BIT_OPS])
    def test_run_matches_reference_loop(self, case, method, scale, binding):
        _, op, L, x0 = case
        if L is None:
            L = op.constants.lipschitz
        if scale == "normal":
            g = _NORMAL_STEP[method] / (L * L if method == "hgm" else L)
        else:
            g = scale
            x0 = x0 * (100.0 if scale == 1e308 else 1.0)
        steps = {"gamma1": g, "gamma2": 0.5 * g} if method == "eg2" else {"gamma": g}
        self._assert_same(op, SolverConfig(method, iters=200, x0=x0, **steps), binding)

    # pp is left out: with no step to take, run builds no resolvent, where
    # the reference loop built it (and failed) before its first row
    @pytest.mark.parametrize("binding", BINDINGS)
    @pytest.mark.parametrize("method", [m for m in METHODS if m != "pp"])
    @pytest.mark.parametrize("case", _BIT_OPS, ids=[c[0] for c in _BIT_OPS])
    def test_overflow_on_the_last_row(self, case, method, binding):
        # the eg mid point overflows on the only row: the trace has two rows
        _, op, _, x0 = case
        steps = {"gamma1": 1e308, "gamma2": 1e308} if method == "eg2" else {"gamma": 1e308}
        self._assert_same(op, SolverConfig(method, iters=0, x0=100.0 * x0, **steps), binding)

    @staticmethod
    def _assert_same(op, cfg, binding="instance"):
        method = cfg.method
        star = np.zeros(op.dim) if op.dim > 1 else None
        rec = {"instance": recording, "subclass": recording_subclass,
               "plain": lambda op: op}[binding](op)
        # the plain operator records nothing: its points are only counted
        points = getattr(rec, "points", None)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                want, want_points = _reference_run(op, cfg, star)
            except BadParameters:
                # the nonlinear implicit step refuses gamma*L >= 1 in both
                with pytest.raises(BadParameters):
                    run(rec, cfg, star)
                return
            except NonFinite:
                # the reference built the pp resolvent before its loop and
                # raised there; run builds it at the first step and stops
                assert method == "pp"
                got = run(rec, cfg, star)
                assert got.diverged and len(got) == 2 and np.isnan(got.fx_sq[1])
                assert got.f_evals == 1
                if points is not None:
                    assert len(points) == 1 and _same_bits(points[0], cfg.x0)
                return
            got = run(rec, cfg, star)
        # every point F is evaluated at, bit for bit and in order
        assert len(want_points) == got.f_evals
        if points is not None:
            assert len(points) == got.f_evals
            for p, q in zip(points, want_points):
                assert _same_bits(p, q)
        assert got.fx_sq.shape == want.fx_sq.shape
        assert _same_bits(got.fx_sq, want.fx_sq)
        if star is None:
            assert got.dist_sq is None and want.dist_sq is None
        else:
            assert _same_bits(got.dist_sq, want.dist_sq)
        assert got.extras.keys() == want.extras.keys()
        for name in want.extras:
            assert got.extras[name].shape == want.extras[name].shape
            assert _same_bits(got.extras[name], want.extras[name])
        assert got.diverged == want.diverged
        # every column is its own float64 array of exactly one entry per row,
        # a cut-short run's too
        for col in (got.fx_sq, got.dist_sq, *got.extras.values()):
            if col is not None:
                assert col.dtype == np.float64 and col.shape == (len(got),)
                assert col.flags.owndata and col.flags.c_contiguous
        assert got.to_csv() == _reference_csv(want)

    def test_hgm_energy_on_the_nan_row_paths(self):
        # hgm's energy column is filled after the loop: at 1e160 its last row
        # is inf, and at 1e308 from the 100-times start F meets an overflowed
        # iterate, so the trace ends on the NaN row the overflow path writes
        nan_rows = 0
        for _, op, _, x0 in _BIT_OPS:
            for scale in (1e160, 1e308):
                cfg = SolverConfig("hgm", gamma=scale, iters=200,
                                   x0=x0 * (100.0 if scale == 1e308 else 1.0))
                self._assert_same(op, cfg)
                with np.errstate(over="ignore", invalid="ignore"):
                    trace = run(op, cfg)
                energy = trace.extras["energy"]
                assert _same_bits(energy, 0.5 * trace.fx_sq)
                nan_rows += bool(np.isnan(energy[-1]))
        assert nan_rows >= 4

    def test_matches_reference_property(self):
        """Over stepsizes and start scales from tame to overflowing, run()
        equals the reference loop bit for bit and evaluates F exactly
        ``f_evals`` times, so the rows the norm bound lets through unscanned
        end where a scan of every point ends them."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
        @hypothesis.given(op=st.sampled_from(_PROPERTY_OPS), method=st.sampled_from(METHODS),
                          gamma=st.floats(-3.0, 300.0).map(lambda e: 10.0 ** e),
                          scale=st.floats(-3.0, 155.0).map(lambda e: 10.0 ** e),
                          iters=st.integers(0, 60))
        def prop(op, method, gamma, scale, iters):
            steps = ({"gamma1": gamma, "gamma2": 0.5 * gamma} if method == "eg2"
                     else {"gamma": gamma})
            cfg = SolverConfig(method, iters=iters, x0=np.full(op.dim, scale), **steps)
            self._assert_same(op, cfg)
            counting = _CountingAffine(op.matrix)
            with np.errstate(over="ignore", invalid="ignore"):
                trace = run(counting, cfg)
            assert trace.f_evals == counting.f_calls
            if not trace.diverged:
                assert trace.f_evals == TestFEvals.EXPECTED[method](iters)

        prop()

    # |x| grows about 10 times a row (pp: its resolvent is 10*I) and passes
    # 1e150 without overflowing, so only the exact scan the bound falls back
    # to can find the last row
    @pytest.mark.parametrize("method", METHODS)
    def test_slow_divergence_passes_the_limit_where_the_reference_does(self, method):
        op, gamma = (Affine(-0.5 * np.eye(2)), 1.8) if method == "pp" else (rotation(), 10.0)
        steps = {"gamma1": gamma, "gamma2": gamma} if method == "eg2" else {"gamma": gamma}
        cfg = SolverConfig(method, iters=200, x0=np.array([1.0, 0.0]), **steps)
        self._assert_same(op, cfg)
        trace, xs, _ = run_points(op, cfg)
        assert len(xs) == len(trace)
        x_max = np.abs(xs).max(axis=1)
        assert trace.diverged and np.isfinite(trace.fx_sq).all()
        assert x_max[-1] > solvers._DIVERGENCE_LIMIT >= x_max[-2]

    def test_loose_bound_measures_again(self):
        # x only flips sign, while the summed step norms pass 1e149 every few
        # rows: each time the bound falls back to a scan and starts again from it
        cfg = SolverConfig("gd", gamma=2.0, iters=100, x0=np.full(2, 1e148))
        self._assert_same(scaled_identity(1.0, 2), cfg)
        trace, xs, _ = run_points(scaled_identity(1.0, 2), cfg)
        assert not trace.diverged and len(trace) == len(xs) == 101
        assert np.abs(xs).max() == 1e148


def _on_arrays(op):
    """A copy of ``op`` without its float form, which run steps on arrays."""
    arrays = copy.copy(op)
    arrays.float_form = False
    return arrays


# 1-D operators with a float form, and the Lipschitz constant the stepsizes use
_FLOAT_OPS = [
    ("logistic", LogisticGrad(1.0, 0.01), 0.26),
    ("logistic-steep", LogisticGrad(-2.5, 3.0), 4.5625),
    ("pp-logistic", pp_operator(LogisticGrad(1.0, 0.01), 2.0), 0.26),
]


class TestFloatPath:
    """run() on a 1-D operator's float form against run() on its array form:
    the same trace bits, the same points F is evaluated at, in order, and the
    same error where the run raises one."""

    @pytest.mark.parametrize("scale", ["normal", 1e160, 1e308])
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("case", _FLOAT_OPS, ids=[c[0] for c in _FLOAT_OPS])
    def test_floats_match_arrays(self, case, method, scale):
        _, op, L = case
        assert op.float_form
        if scale == "normal":
            g = _NORMAL_STEP[method] / (L * L if method == "hgm" else L)
            x0 = np.array([2.0])
        else:
            g, x0 = scale, np.array([200.0 if scale == 1e308 else 2.0])
        steps = {"gamma1": g, "gamma2": 0.5 * g} if method == "eg2" else {"gamma": g}
        self._assert_same(op, SolverConfig(method, iters=200, x0=x0, **steps), op.root())

    @pytest.mark.parametrize("method", [m for m in METHODS if m != "pp"])
    def test_signed_zero_products(self, method):
        # F(x) = -0.0 * x and F' = -1 from x0 = -0.0: every product is a
        # signed zero, and hgm's J^T F is +0.0 where the bare product j*f is -0.0
        class NegZero(LogisticGrad):
            def _apply_float(self, x):
                return -0.0 * x

            def _jacobian_float(self, x):
                return -1.0

        steps = {"gamma1": 0.5, "gamma2": 0.25} if method == "eg2" else {"gamma": 0.5}
        cfg = SolverConfig(method, iters=3, x0=np.array([-0.0]), **steps)
        self._assert_same(NegZero(1.0, 0.0), cfg, np.array([0.0]))

    def test_hgm_takes_one_sigmoid_per_row(self, monkeypatch):
        # F and F' at the same x share one sigma(a x), with the bits of the
        # array form, which evaluates sigma afresh for each
        op = LogisticGrad(1.0, 0.01)
        star = op.root()
        calls = []
        sigmoid = operators._sigmoid
        monkeypatch.setattr(operators, "_sigmoid", lambda t: calls.append(t) or sigmoid(t))
        cfg = SolverConfig("hgm", gamma=2.0, iters=50, x0=np.array([2.0]))
        got = run(op, cfg, star)
        assert not got.diverged and len(got) == 51 and len(calls) == 51
        want = run(_on_arrays(op), cfg, star)
        assert len(calls) == 51 + 2 * 51
        assert got.to_csv() == want.to_csv()
        for name in want.extras:
            assert _same_bits(got.extras[name], want.extras[name])

    @staticmethod
    def _assert_same(op, cfg, star):
        outcomes = []
        for form in (op, _on_arrays(op)):
            rec = recording(form)
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    outcomes.append((run(rec, cfg, star), rec.points))
            except VicertError as exc:
                # the implicit step's gamma*L guard, a composite without a Jacobian
                outcomes.append((type(exc), str(exc)))
        (got, got_points), (want, want_points) = outcomes
        if not isinstance(want, Trace):
            assert (got, got_points) == (want, want_points)
            return
        assert len(got_points) == len(want_points) == got.f_evals == want.f_evals
        for p, q in zip(got_points, want_points):
            assert _same_bits(p, q)
        assert _same_bits(got.fx_sq, want.fx_sq)
        assert (got.dist_sq is None and want.dist_sq is None) or _same_bits(got.dist_sq,
                                                                            want.dist_sq)
        assert got.extras.keys() == want.extras.keys()
        for name in want.extras:
            assert _same_bits(got.extras[name], want.extras[name])
        assert got.diverged == want.diverged
        assert got.to_csv() == want.to_csv()


class _CountingAffine(Affine):
    """Counts every F evaluation and Jacobian call, checked or not."""

    f_calls = 0
    jac_calls = 0

    def _apply(self, x):
        self.f_calls += 1
        return super()._apply(x)

    def _jacobian(self, x):
        self.jac_calls += 1
        return super()._jacobian(x)


class TestFEvals:
    # F evaluations of a run of K iterations: one per row (K+1 rows), plus
    # eg/eg2's extrapolation at every row and eftp's one new tilde point per step
    EXPECTED = {"gd": lambda K: K + 1, "pp": lambda K: K + 1, "og": lambda K: K + 1,
                "hgm": lambda K: K + 1, "eg": lambda K: 2 * (K + 1),
                "eg2": lambda K: 2 * (K + 1), "eftp": lambda K: 2 * K + 1}

    @pytest.mark.parametrize("method", METHODS)
    def test_counts_per_iteration(self, method):
        counts = []
        for K in (0, 1, 10, 50):
            op = _CountingAffine([[0.5, 1.0], [-1.0, 0.5]])
            steps = {"gamma1": 0.2, "gamma2": 0.1} if method == "eg2" else {"gamma": 0.2}
            trace = run(op, SolverConfig(method, iters=K, x0=np.array([1.0, -1.0]), **steps))
            assert not trace.diverged and len(trace) == K + 1
            assert trace.f_evals == op.f_calls == self.EXPECTED[method](K)
            assert op.jac_calls == (K + 1 if method == "hgm" else 0)
            counts.append(trace.f_evals)
        per_iter = 2 if method in ("eg", "eg2", "eftp") else 1
        assert counts[3] - counts[2] == 40 * per_iter

    def test_diverged_run_counts_what_it_evaluated(self):
        op = _CountingAffine(np.eye(2))
        cfg = SolverConfig("eg", gamma=1e160, iters=10, x0=np.array([1.0, 1.0]))
        with np.errstate(over="ignore", invalid="ignore"):
            trace = run(op, cfg)
        assert trace.diverged
        assert trace.f_evals == op.f_calls == 2


class TestPpResolventOverflow:
    def test_overflowing_resolvent_ends_on_nan_row(self):
        # I + gamma*A overflows, so the resolvent cannot be built; run builds
        # it at the first step, where the overflow ends the trace
        op = load_operator(FIXTURES / "diag12.json")
        cfg = SolverConfig("pp", gamma=1e308, iters=3, x0=np.array([1.0, 1.0]))
        with np.errstate(over="ignore"):
            trace, xs, _ = run_points(op, cfg, x_star=np.zeros(2))
        assert trace.diverged
        assert len(trace) == 2 and trace.dist_sq.shape == (2,)
        assert trace.fx_sq[0] == 5.0 and trace.dist_sq[0] == 2.0
        # F never meets a point past x^0; the second row is all NaN
        assert np.array_equal(xs, [[1.0, 1.0]])
        assert np.isnan(trace.fx_sq[1]) and np.isnan(trace.dist_sq[1])
        assert trace.to_csv().splitlines() == ["k,fx_sq,dist_sq", "0,5,2", "1,nan,nan"]

    def test_zero_iterations_never_build_the_resolvent(self):
        op = load_operator(FIXTURES / "diag12.json")
        trace = run(op, SolverConfig("pp", gamma=1e308, iters=0, x0=np.array([1.0, 1.0])))
        assert not trace.diverged and len(trace) == 1
