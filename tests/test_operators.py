import warnings

import numpy as np
import pytest
from numerics_reference import finite_diff_jacobian
from operator_json import operator_to_json, save_operator

from vicert import certify, harness, numerics, operators
from vicert.errors import (
    BadParameters,
    DimensionMismatch,
    NoAnalyticJacobian,
    NoConvergence,
    NonFinite,
    NotAffine,
    OffTable,
)
from vicert.operators import (
    Affine,
    CustomTable,
    ImplicitComposite,
    LogisticGrad,
    bilinear_game,
    eftp_operator,
    eg_operator,
    hamiltonian_operator,
    og_operator,
    pp_operator,
    rotation,
    scaled_identity,
)
from vicert.solvers import SolverConfig, run


class TestEval:
    def test_rotation_eval(self):
        assert np.allclose(rotation()(np.array([1.0, 0.0])), [0.0, -1.0], atol=0.0)

    def test_logistic_at_zero(self):
        op = LogisticGrad(1.0, 0.01)
        assert abs(op(np.array([0.0]))[0] - 0.5) < 1e-15

    def test_eval_at_root_is_zero(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        op = Affine(A, rng.standard_normal(4))
        assert np.abs(op(op.root())).max() <= 1e-12

        log = LogisticGrad(1.0, 0.01)
        assert abs(log(log.root())[0]) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            rotation()(np.zeros(3))


def _zero_sum_cases(d, rng):
    """(A, x) pairs of dimension d whose products A[i, j] * x[j] are all -0.0,
    zeros of random sign, or small integers that cancel exactly in each row
    (every partial sum is exact, so in any order of summation)."""
    G = rng.integers(-8, 9, (d, d)).astype(float)
    signed = np.where(rng.random(d) < 0.5, -0.0, 0.0)
    # columns 2i and 2i+1 are equal and x holds t, -t there; an odd d ends
    # on a -0.0 product
    paired = G.copy()
    paired[:, 1::2] = G[:, 0:d - 1:2]
    t = rng.integers(1, 9, d).astype(float)
    t[1::2] = -t[0:d - 1:2]
    if d % 2:
        paired[:, -1], t[-1] = np.abs(G[:, -1]), -0.0
    return [(np.abs(G) + 1.0, np.full(d, -0.0)), (-np.abs(G) - 1.0, np.zeros(d)),
            (np.full((d, d), -0.0), np.abs(t)), (G, signed), (paired, t)]


class TestZeroOffsetSign:
    """At d >= 2 a zero-offset Affine adds no shift: numpy's gemv sums from
    +0.0, so A x holds no -0.0 and adding +0.0 would change no bit.  A BLAS
    build that fails this test returns -0.0 from gemv, and ``Affine`` needs
    the add of ``b + 0.0`` back for every offset."""

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_no_negative_zero_from_gemv(self, order):
        rng = np.random.default_rng(23)
        for d in range(2, 65):
            for A, x in _zero_sum_cases(d, rng):
                A = np.asarray(A, order=order)
                op = Affine(A)
                op.matrix = A   # Affine stores a C-ordered copy
                y = A.dot(x)
                Y = numerics.matvecs(A, np.stack([x, -x, x]))
                assert (y == 0.0).all() and not np.signbit(y).any(), (d, order)
                assert (Y == 0.0).all() and not np.signbit(Y).any(), (d, order)
                assert op._shift is None
                assert op._apply(x).tobytes() == y.tobytes()
                assert op._apply_rows(np.stack([x, -x, x])).tobytes() == Y.tobytes()
                assert (A @ x).tobytes() == y.tobytes()

    def test_d1_and_nonzero_offsets_keep_the_add(self):
        assert Affine([[1.0]])._shift.tobytes() == np.zeros(1).tobytes()
        assert Affine(np.eye(2), [-0.0, 1.0])._shift.tobytes() == np.array([0.0, 1.0]).tobytes()
        assert Affine(np.eye(2), [-0.0, -0.0])._shift is None


def _every_operator_kind():
    logistic = LogisticGrad(1.0, 0.01)
    return [
        rotation(),
        logistic,
        CustomTable([([0.0], [1.0])]),
        ImplicitComposite(logistic, 1.0),
    ]


class TestCheckedCall:
    """The public call and Jacobian check their input; ``_apply`` and
    ``_jacobian`` are the same maps unchecked."""

    @pytest.mark.parametrize("op", _every_operator_kind(), ids=lambda op: op.kind)
    def test_public_call_rejects_bad_input(self, op):
        with pytest.raises(DimensionMismatch):
            op(np.zeros(op.dim + 1))
        with pytest.raises(DimensionMismatch):
            op(np.zeros((op.dim, 1)))
        for bad in (np.inf, -np.inf, np.nan):
            x = np.zeros(op.dim)
            x[-1] = bad
            with pytest.raises(NonFinite):
                op(x)

    @pytest.mark.parametrize("op", _every_operator_kind(), ids=lambda op: op.kind)
    def test_apply_is_the_unchecked_call(self, op):
        x = np.zeros(op.dim)
        assert np.array_equal(op._apply(x), op(x))

    @pytest.mark.parametrize("op", [rotation(), LogisticGrad(1.0, 0.01)],
                             ids=lambda op: op.kind)
    def test_public_jacobian_rejects_bad_input(self, op):
        for bad in (np.zeros(op.dim + 1), np.zeros((op.dim, 1))):
            with pytest.raises(DimensionMismatch):
                op.jacobian(bad)
        for bad in (np.inf, -np.inf, np.nan):
            x = np.zeros(op.dim)
            x[-1] = bad
            with pytest.raises(NonFinite):
                op.jacobian(x)
        x = np.full(op.dim, 0.3)
        assert np.array_equal(op.jacobian(x), op._jacobian(x))

    def test_implicit_step_overflow_raises_nonfinite(self):
        # no declared Lipschitz constant, so the expanding inner iteration is
        # not refused up front: it overflows within a few hundred steps and
        # must raise NonFinite there, not NoConvergence after max_iters
        comp = ImplicitComposite(Affine(np.diag([2.0, -3.0])), 10.0)
        with np.errstate(over="ignore", invalid="ignore"):
            for call in (comp, comp._apply):
                with pytest.raises(NonFinite):
                    call(np.ones(2))


class TestLogisticRoot:
    @staticmethod
    def _reference_root(op, halvings=None):
        # the bisection through the checked public call, which checks every
        # midpoint, until the midpoint rounds to an end of the bracket or for
        # a fixed number of halvings
        lo = -(abs(op.a) + 1.0) / op.delta
        hi = (abs(op.a) + 1.0) / op.delta
        done = 0
        while True:
            mid = 0.5 * (lo + hi)
            positive = op(np.array([mid]))[0] > 0.0
            if done == halvings or (halvings is None and not lo < mid < hi):
                return np.array([mid])
            if positive:
                hi = mid
            else:
                lo = mid
            done += 1

    @pytest.mark.parametrize("a, delta", [
        (1.0, 0.01), (-2.5, 3.0), (37.0, 1e-3), (1e-3, 1e-6), (-4e100, 1.0),
        (1.0, 1e-300),   # a bracket of +-2e300, wider than 200 halvings close
    ])
    def test_same_bits_as_the_checked_bisection(self, a, delta):
        op = LogisticGrad(a, delta)
        assert op.root().tobytes() == self._reference_root(op).tobytes()

    @pytest.mark.parametrize("a, delta", [
        (1.0, 0.01), (-2.5, 3.0), (37.0, 1e-3), (1e-3, 1e-6),
    ])
    def test_same_bits_as_200_halvings_where_they_close(self, a, delta):
        # the bisection stopped after 200 halvings before; where those already
        # reached adjacent floats, the root keeps its bits
        op = LogisticGrad(a, delta)
        assert op.root().tobytes() == self._reference_root(op, 200).tobytes()

    @pytest.mark.parametrize("a, delta", [
        (1.0, 1e-70), (1.0, 1e-50), (1.0, 0.01), (-2.5, 3.0), (1.0, 1e-300), (-4e100, 1.0),
    ])
    def test_sign_change_at_an_adjacent_float(self, a, delta):
        op = LogisticGrad(a, delta)
        r = op.root()[0]
        f = lambda x: op(np.array([x]))[0]
        below, above = np.nextafter(r, -np.inf), np.nextafter(r, np.inf)
        assert f(r) == 0.0 or f(below) <= 0.0 < f(r) or f(r) <= 0.0 < f(above)

    def test_small_regularizer_root_is_near_the_root(self):
        # 200 halvings of the +-2e70 bracket left it 2.5e10 wide: -1.24e10
        r = LogisticGrad(1.0, 1e-70).root()[0]
        assert -157.0 < r < -156.0

    def test_no_input_check_per_midpoint(self, monkeypatch):
        calls = []
        checked = LogisticGrad._checked

        def counting(self, x):
            calls.append(1)
            return checked(self, x)

        monkeypatch.setattr(LogisticGrad, "_checked", counting)
        LogisticGrad(1.0, 0.01).root()
        assert calls == []

    def test_bracket_beyond_float_range(self):
        # (|a| + 1)/delta overflows, so the first midpoint would be NaN
        op = LogisticGrad(1.0, 1e-310)
        with pytest.raises(NonFinite, match="beyond float range"):
            op.root()
        with pytest.raises(NonFinite):
            self._reference_root(op)


class TestParameters:
    @pytest.mark.parametrize("a, delta", [
        (np.nan, 0.01), (np.inf, 0.01), (-np.inf, 0.01), (0.0, 0.01),
        (1.0, np.nan), (1.0, np.inf), (1.0, -0.5),
        (1e200, 0.01),   # |a|^3 overflows a Python float
        (1e160, 0.01),   # a^2 overflows to inf as well
    ])
    def test_logistic_rejects_bad_parameters(self, a, delta):
        with pytest.raises(BadParameters):
            LogisticGrad(a, delta)

    @pytest.mark.parametrize("name", ["L", "Lambda", "ell"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
    def test_constants_reject_non_finite_and_negative(self, name, value):
        with pytest.raises(BadParameters, match=f"constant {name} = "):
            operators.Constants.from_json({name: value})

    def test_constants_zero(self):
        assert operators.Constants.from_json({"Lambda": 0.0}).jac_lipschitz == 0.0
        for name in ("L", "ell"):
            with pytest.raises(BadParameters, match=f"constant {name} = 0.0"):
                operators.Constants.from_json({name: 0.0})


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("build", [
        rotation,
        lambda v: eg_operator(rotation(), v),
        lambda v: eg_operator(LogisticGrad(), v),
        lambda v: og_operator(rotation(), v),
        lambda v: og_operator(LogisticGrad(), v),
        lambda v: eftp_operator(rotation(), v),
        lambda v: eftp_operator(LogisticGrad(), v),
        lambda v: pp_operator(rotation(), v),
        lambda v: pp_operator(LogisticGrad(), v),
        lambda v: ImplicitComposite(LogisticGrad(), v),
    ], ids=["rotation", "eg-affine", "eg", "og", "og-nonlinear", "eftp", "eftp-nonlinear",
            "pp-affine", "pp", "implicit-composite"])
    def test_scale_and_gamma_must_be_finite_and_positive(self, build, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadParameters, match="must be finite and positive"):
                build(bad)


class TestJacobian:
    def test_affine_jacobian(self):
        op = rotation()
        assert np.array_equal(op.jacobian(np.zeros(2)), op.matrix)

    def test_logistic_jacobian_at_zero(self):
        op = LogisticGrad(1.0, 0.01)
        assert abs(op.jacobian(np.zeros(1))[0, 0] - 0.26) < 1e-15

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for op in (LogisticGrad(1.0, 0.01), LogisticGrad(3.0, 0.0),
                   Affine(rng.standard_normal((3, 3)), rng.standard_normal(3))):
            x = rng.standard_normal(op.dim)
            J = op.jacobian(x)
            Jfd = finite_diff_jacobian(op, x)
            assert np.abs(J - Jfd).max() < 1e-6

    def test_custom_table_has_no_jacobian(self):
        table = CustomTable([(np.zeros(2), np.ones(2))])
        with pytest.raises(NoAnalyticJacobian):
            table.jacobian(np.zeros(2))


class TestCustomTable:
    def test_lookup_and_off_table(self):
        table = CustomTable([([0.0, 0.0], [1.0, 2.0]), ([1.0, 1.0], [0.0, 0.0])])
        assert np.allclose(table(np.zeros(2)), [1.0, 2.0])
        with pytest.raises(OffTable):
            table(np.array([0.5, 0.0]))


class TestEgOperator:
    def test_identity_becomes_zero(self):
        op = eg_operator(scaled_identity(1.0, 2), 1.0)
        assert np.abs(op.matrix).max() == 0.0
        assert np.abs(op(np.array([3.0, -1.0]))).max() == 0.0

    def test_rotation_matrix(self):
        op = eg_operator(rotation(), 1.0)
        assert np.allclose(op.matrix, [[1.0, 1.0], [-1.0, 1.0]], atol=0.0)

    def test_root_preserved(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        base = Affine(A, rng.standard_normal(3))
        comp = eg_operator(base, 0.2)
        assert np.abs(comp(base.root())).max() <= 1e-12

    def test_bad_gamma(self):
        with pytest.raises(BadParameters):
            eg_operator(rotation(), 0.0)


class TestOgEftpOperators:
    def test_og_zero_matrix_blocks(self):
        op = og_operator(Affine(np.zeros((2, 2))), 1.0)
        eye = np.eye(2)
        expected = np.block([[np.zeros((2, 2)), np.zeros((2, 2))], [-eye, eye]])
        assert np.allclose(op.matrix, expected, atol=0.0)

    def test_og_rotation_half_step(self):
        A = rotation().matrix
        op = og_operator(rotation(), 0.5)
        expected = np.block([[2 * A, -A], [-2 * np.eye(2), 2 * np.eye(2)]])
        assert np.allclose(op.matrix, expected, atol=0.0)

    def test_og_root_is_doubled_solution(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        base = Affine(A, rng.standard_normal(2))
        comp = og_operator(base, 0.7)
        z = np.concatenate([base.root(), base.root()])
        assert np.abs(comp(z)).max() <= 1e-12

    def test_eftp_zero_matrix(self):
        b = np.array([1.0, -2.0])
        op = eftp_operator(Affine(np.zeros((2, 2)), b), 0.5)
        z = np.array([1.0, 1.0, 3.0, -1.0])
        x, y = z[:2], z[2:]
        expected = np.concatenate([b, (y - x) / 0.5 + b])
        assert np.allclose(op(z), expected, atol=0.0)

    def test_eftp_rotation_first_block(self):
        op = eftp_operator(rotation(), 1.0)
        z = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(op(z)[:2], [0.0, -1.0], atol=0.0)

    def test_eftp_root(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        base = Affine(A, rng.standard_normal(2))
        comp = eftp_operator(base, 0.3)
        z = np.concatenate([base.root(), base.root()])
        assert np.abs(comp(z)).max() <= 1e-12

    def test_requires_affine(self):
        # run steps a nonlinear F with eg2, og and eftp
        for build in (eg_operator, og_operator, eftp_operator):
            with pytest.raises(NotAffine):
                build(LogisticGrad(), 1.0)


def _float_or_array_outcome(fn, x):
    """The bytes of fn(x) as float64, or the type and message of the error it raises."""
    try:
        # the array form's products warn where they overflow; the float form's do not
        with np.errstate(over="ignore", invalid="ignore"):
            return np.asarray(fn(x), dtype=np.float64).tobytes()
    except (NonFinite, NoConvergence) as exc:
        return type(exc), str(exc)


class TestFloatForm:
    """The float form of a 1-D operator is its array form on a Python float:
    ``_apply_float(x)`` and ``_jacobian_float(x)`` give the bits of the one
    entry of ``_apply([x])`` and ``_jacobian([x])``, or raise what they raise."""

    def test_which_operators_have_one(self):
        logistic = LogisticGrad(1.0, 0.01)
        assert logistic.float_form
        assert pp_operator(logistic, 2.0).float_form
        assert not Affine([[2.0]]).float_form and not rotation().float_form
        assert not pp_operator(Affine([[2.0]]), 0.5).float_form

    def test_float_form_is_the_array_form_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        # 1e300 makes a*x overflow at |a| = 37; far from the root the implicit
        # step stops on max_iters
        point = st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324])
        seen = set()

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
        @hypothesis.given(x0=point, a=st.sampled_from([1.0, -2.5, 1e-3, 37.0]),
                          delta=st.sampled_from([0.01, 0.0, 3.0]),
                          frac=st.floats(0.01, 0.99))
        def prop(x0, a, delta, frac):
            base = LogisticGrad(a, delta)
            pp = ImplicitComposite(base, frac / base.constants.lipschitz)
            pp.max_iters = 200
            x = np.array([x0])
            pairs = [(op._apply_float, op._apply) for op in (base, pp)]
            pairs.append((base._jacobian_float, base._jacobian))
            for as_float, as_array in pairs:
                got = _float_or_array_outcome(as_float, x0)
                assert got == _float_or_array_outcome(as_array, x)
                seen.add(got[0] if isinstance(got, tuple) else bytes)

        prop()
        assert seen == {bytes, NoConvergence}

    def test_overflowing_product(self):
        # a*x = inf: sigma(inf) = 1 and F = a + delta*x, in both forms
        op = LogisticGrad(37.0, 3.0)
        assert op._apply_float(1e300) == 37.0 + 3e300
        assert np.array([op._apply_float(1e300)]).tobytes() == op._apply(np.array([1e300])).tobytes()
        assert op._jacobian_float(-1e300) == 3.0


class TestPpOperator:
    def test_identity_halves(self):
        op = pp_operator(scaled_identity(1.0, 2), 1.0)
        x = np.array([2.0, -4.0])
        assert np.allclose(op(x), x / 2.0, atol=1e-14)

    def test_zero_operator(self):
        op = pp_operator(Affine(np.zeros((2, 2))), 1.0)
        assert np.abs(op(np.array([1.0, 2.0]))).max() == 0.0

    def test_rotation_solve(self):
        op = pp_operator(rotation(), 1.0)
        out = op(np.array([1.0, 0.0]))
        assert np.allclose(out, [0.5, -0.5], atol=1e-14)

    def test_defining_equation_affine(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((3, 3))
        A = A - A.T + 0.5 * np.eye(3)  # monotone
        base = Affine(A, rng.standard_normal(3))
        gamma = 0.4
        comp = pp_operator(base, gamma)
        for _ in range(20):
            x = rng.standard_normal(3)
            y = x - gamma * comp(x)
            assert np.linalg.norm(y - x + gamma * base(y)) <= 1e-11

    def test_defining_equation_nonlinear(self):
        base = LogisticGrad(1.0, 0.01)
        gamma = 2.0  # gamma * L = 0.52 < 1
        comp = pp_operator(base, gamma)
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = rng.standard_normal(1) * 3.0
            y = comp._solve(x)[0]
            assert np.linalg.norm(y - x + gamma * base(y)) <= 1e-11

    @staticmethod
    def _counting(monkeypatch, op):
        # each evaluation of F, on an array or, as run takes it at d = 1, on a float
        seen = []
        apply, apply_float = op._apply, op._apply_float

        def counting(x):
            seen.append(x.copy())
            return apply(x)

        def counting_float(x):
            seen.append(np.array([x]))
            return apply_float(x)

        monkeypatch.setattr(op, "_apply", counting)
        monkeypatch.setattr(op, "_apply_float", counting_float)
        return seen, apply

    def test_value_is_the_last_inner_evaluation(self, monkeypatch):
        # the fixed-point iteration evaluates F once per inner iteration, the
        # last time at the y it returns; the composite takes that F(y)
        base = LogisticGrad(1.0, 0.01)
        comp = pp_operator(base, 2.0)
        seen, apply = self._counting(monkeypatch, base)
        x = np.array([2.0])
        y = comp._solve(x)[0]
        inner = len(seen)
        seen.clear()
        out = comp._apply(x)
        assert inner > 1 and len(seen) == inner
        assert seen[-1].tobytes() == y.tobytes()
        assert out.tobytes() == apply(y).tobytes()

    def test_pp_run_evaluates_f_once_fewer_per_step(self, monkeypatch):
        # against the composite that evaluates F again at the fixed point:
        # the same trace, one F evaluation fewer per pp step
        K = 25
        cfg = SolverConfig("pp", gamma=2.0, iters=K, x0=np.array([2.0]))
        counts, csvs = [], []
        for again in (False, True):
            if again:
                # both forms: F evaluated once more at the fixed point
                fixed_point = ImplicitComposite._fixed_point
                monkeypatch.setattr(
                    ImplicitComposite, "_fixed_point",
                    lambda self, x, F, *form: (lambda y: (y, F(y)))(
                        fixed_point(self, x, F, *form)[0]))
            base = LogisticGrad(1.0, 0.01)
            seen, _ = self._counting(monkeypatch, base)
            csvs.append(run(base, cfg).to_csv())
            counts.append(len(seen))
        assert csvs[0] == csvs[1]
        assert counts[1] - counts[0] == K

    def test_nonlinear_contraction_guard(self):
        with pytest.raises(BadParameters):
            pp_operator(LogisticGrad(4.0, 0.0), 1.0)  # gamma * L = 4

    def test_root_preserved(self):
        base = LogisticGrad(1.0, 0.01)
        comp = pp_operator(base, 2.0)
        assert np.abs(comp(base.root())).max() <= 1e-11


class TestHamiltonian:
    def test_rotation_gives_identity(self):
        op = hamiltonian_operator(rotation())
        x = np.array([1.5, -0.5])
        assert np.allclose(op(x), x, atol=1e-14)

    def test_zero_operator(self):
        op = hamiltonian_operator(Affine(np.zeros((2, 2))))
        assert np.abs(op(np.ones(2))).max() == 0.0

    def test_nonaffine_raises(self):
        with pytest.raises(NotAffine):
            hamiltonian_operator(LogisticGrad(1.0, 0.01))


_UPDATE_OPERATORS = {
    "eg": lambda op: eg_operator(op, 0.2),
    "pp": lambda op: pp_operator(op, 0.2),
    "hamiltonian": hamiltonian_operator,
    "og": lambda op: og_operator(op, 0.2),
    "eftp": lambda op: eftp_operator(op, 0.2),
}


class TestBuildSolvesNoRoot:
    """Building an update operator makes no LU solve for a root: an Affine
    solves for its own only when asked, and no program path asks."""

    @staticmethod
    def _counting(monkeypatch):
        calls = []
        real = numerics.lu_solve
        monkeypatch.setattr(numerics, "lu_solve",
                            lambda *args: calls.append(args) or real(*args))
        return calls

    @pytest.mark.parametrize("make", _UPDATE_OPERATORS.values(), ids=_UPDATE_OPERATORS)
    def test_build_solves_only_what_it_needs(self, make, monkeypatch):
        rng = np.random.default_rng(5)
        base = Affine(rng.standard_normal((3, 3)) + 3.0 * np.eye(3), rng.standard_normal(3))
        calls = self._counting(monkeypatch)
        comp = make(base)
        # pp's resolvent; nothing for the others
        assert len(calls) == (1 if make is _UPDATE_OPERATORS["pp"] else 0)
        assert type(comp) is Affine and comp._root_computed is False
        assert base._root_computed is False

    @pytest.mark.parametrize("make", _UPDATE_OPERATORS.values(), ids=_UPDATE_OPERATORS)
    @pytest.mark.parametrize("base", [
        rotation(), scaled_identity(2.0, 3),
        Affine([[1.0, 2.0], [-1.5, 0.5]], offset=[0.25, -1.0]),
        Affine([[1.0, 1.0], [1.0, 1.0]]),               # singular, root 0
        Affine([[1.0, 1.0], [1.0, 1.0]], offset=[1.0, 0.0]),   # no root
    ], ids=["stored", "stored-identity", "solved", "singular-zero", "none"])
    def test_own_root_is_the_base_zero(self, make, base, monkeypatch):
        """Asked for its root, an update operator solves once for its own:
        the base's zero, once per block of its state (the zeros they share),
        to rounding; none where the base has none."""
        want = base.root()
        calls = self._counting(monkeypatch)
        comp = make(base)
        built = len(calls)
        got = comp.root()
        assert len(calls) == built + 1
        if want is None:
            assert got is None
        else:
            lifted = np.concatenate([want] * (comp.dim // want.size))
            assert np.allclose(got, lifted, rtol=0.0, atol=1e-15)
            assert np.abs(comp(got)).max() <= 1e-15
            assert comp.root() is not comp.root()   # a copy each call
        assert len(calls) == built + 1

    @pytest.mark.parametrize("which", ["og", "eftp"])
    def test_witness_solves_nothing(self, which, monkeypatch):
        """The og and eftp witnesses build their block operator and never
        ask it for its root."""
        calls = self._counting(monkeypatch)
        rep = certify.og_noncocoercivity_witness([[0.0, 1.0], [-1.0, 0.0]], 1.0, 0.5, which)
        assert rep.verdict == "violated" and calls == []

    def test_report_solves_eight_resolvents(self, monkeypatch):
        """At seed 20240406 a report's only LU solves are the pp resolvents of
        its 8 affine entries; the checks take the base operators' stored
        roots, and the search's composites are never asked for theirs."""
        calls = self._counting(monkeypatch)
        harness.run_report(seed=20240406, iters=3)
        assert len(calls) == 8


class TestAffineClosure:
    def test_composites_evaluate_like_stored_affine(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((2, 2))
        A = A - A.T + 0.3 * np.eye(2)
        base = Affine(A, rng.standard_normal(2))
        gamma = 0.25
        composites = [
            eg_operator(base, gamma),
            pp_operator(base, gamma),
            hamiltonian_operator(base),
        ]
        for comp in composites:
            for _ in range(100):
                x = rng.standard_normal(2)
                assert np.abs(comp(x) - (comp.matrix @ x + comp.offset)).max() <= 1e-12
        for comp in (og_operator(base, gamma), eftp_operator(base, gamma)):
            for _ in range(100):
                z = rng.standard_normal(4)
                assert np.abs(comp(z) - (comp.matrix @ z + comp.offset)).max() <= 1e-12


class TestBilinear:
    def test_structure_and_root(self):
        B = np.array([[1.0, 2.0], [0.0, 1.0]])
        op = bilinear_game(B)
        z = np.array([1.0, 0.0, 0.0, 1.0])
        x, y = z[:2], z[2:]
        assert np.allclose(op(z), np.concatenate([B @ y, -B.T @ x]), atol=0.0)
        assert np.allclose(op.root(), np.zeros(4), atol=0.0)

    def test_monotone(self):
        rng = np.random.default_rng(8)
        op = bilinear_game(rng.standard_normal((3, 2)))
        for _ in range(50):
            u = rng.standard_normal(5)
            v = rng.standard_normal(5)
            assert abs((op(u) - op(v)) @ (u - v)) <= 1e-12 * 100


class TestJson:
    @pytest.mark.parametrize("op", [
        rotation(),
        scaled_identity(0.5, 3),
        bilinear_game(np.array([[1.0 / 3.0, 0.1], [-0.7, 2.0]])),
        Affine(np.array([[0.1, 0.2], [0.3, 0.4]]), np.array([1e-17, -3.5])),
        LogisticGrad(1.0, 0.01),
        CustomTable([([0.1, 0.2], [0.3, 0.4])]),
    ])
    def test_round_trip_bit_exact(self, tmp_path, op):
        path = tmp_path / "op.json"
        save_operator(op, path)
        back = operators.load_operator(path)
        assert back.kind == op.kind
        if isinstance(op, Affine):
            assert np.array_equal(back.matrix, op.matrix)
            assert np.array_equal(back.offset, op.offset)
        elif isinstance(op, LogisticGrad):
            assert back.a == op.a and back.delta == op.delta
        elif isinstance(op, CustomTable):
            for (x0, f0), (x1, f1) in zip(op.points, back.points):
                assert np.array_equal(x0, x1) and np.array_equal(f0, f1)
        assert back.constants == op.constants

    def test_awkward_floats_survive(self, tmp_path):
        vals = [np.nextafter(1.0, 2.0), 1e-308, -0.1 + 0.2]
        op = Affine(np.diag(vals), np.array(vals))
        path = tmp_path / "op.json"
        save_operator(op, path)
        back = operators.load_operator(path)
        assert np.array_equal(back.matrix, op.matrix)
        assert np.array_equal(back.offset, op.offset)

    def test_malformed_description_is_bad_parameters(self, tmp_path):
        with pytest.raises(BadParameters, match="malformed operator description"):
            operators.operator_from_json({"kind": "affine"})
        path = tmp_path / "op.json"
        path.write_text('{"kind": "affine", "A": [[1]')
        with pytest.raises(BadParameters, match="operator file .*op.json"):
            operators.load_operator(path)

    def test_operator_errors_pass_through(self, tmp_path):
        path = tmp_path / "op.json"
        path.write_text('{"kind": "affine", "A": [[1e999]]}')
        with pytest.raises(NonFinite):
            operators.load_operator(path)
        path.write_text('{"kind": "affine", "A": [[1, 0]]}')
        with pytest.raises(DimensionMismatch):
            operators.load_operator(path)

    def test_composite_not_serializable(self):
        comp = pp_operator(LogisticGrad(), 0.5)
        with pytest.raises(BadParameters):
            operator_to_json(comp)
