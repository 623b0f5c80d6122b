import numpy as np
import pytest
from numerics_reference import finite_diff_jacobian

from vicert import numerics
from vicert.errors import BadParameters, DimensionMismatch, NotSymmetric, SingularMatrix

ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])


class TestLuSolve:
    def test_identity(self):
        x = numerics.lu_solve(np.eye(2), [3.0, -1.0])
        assert np.allclose(x, [3.0, -1.0], atol=0.0)

    def test_rotation_inverse(self):
        x = numerics.lu_solve(ROT, [1.0, 0.0])
        assert np.allclose(x, [0.0, 1.0], atol=1e-14)

    def test_rank_deficient_raises(self):
        with pytest.raises(SingularMatrix):
            numerics.lu_solve([[1.0, 1.0], [1.0, 1.0]], [1.0, 0.0])

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrix):
            numerics.lu_solve(np.zeros((3, 3)), np.ones(3))

    def test_matrix_rhs(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
        B = rng.standard_normal((5, 3))
        X = numerics.lu_solve(A, B)
        assert np.abs(A @ X - B).max() < 1e-10

    def test_round_trip_well_conditioned(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            A = rng.standard_normal((n, n)) + n * np.eye(n)
            b = rng.standard_normal(n)
            x = numerics.lu_solve(A, b)
            res = np.linalg.norm(A @ x - b)
            assert res <= 1e-8 * max(np.linalg.norm(b), 1.0)

    def test_residual_contract(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((8, 8)) + 8 * np.eye(8)
        b = rng.standard_normal(8)
        x = numerics.lu_solve(A, b)
        assert np.abs(A @ x - b).max() <= 1e-10 * (1.0 + np.abs(b).max())


def _match_multisets(found, expected, tol):
    found = sorted(found, key=lambda z: (z.real, z.imag))
    expected = sorted(expected, key=lambda z: (z.real, z.imag))
    assert len(found) == len(expected)
    for f, e in zip(found, expected):
        assert abs(f - e) <= tol, (f, e)


class TestEigenvalues:
    def test_rotation(self):
        _match_multisets(numerics.eigenvalues(ROT), [1j, -1j], 1e-10)

    def test_diagonal(self):
        _match_multisets(numerics.eigenvalues(np.diag([1.0, 2.0])), [1.0, 2.0], 1e-10)

    def test_triangular_defective(self):
        _match_multisets(numerics.eigenvalues([[2.0, 1.0], [0.0, 2.0]]), [2.0, 2.0], 1e-7)

    def test_empty_and_scalar(self):
        assert numerics.eigenvalues(np.zeros((0, 0))).size == 0
        assert numerics.eigenvalues([[4.0]])[0] == 4.0

    def test_zero_matrix(self):
        _match_multisets(numerics.eigenvalues(np.zeros((4, 4))), [0.0] * 4, 1e-14)

    def test_known_block_spectrum(self):
        # block diag of a 2x2 rotation-scaling (a +- bi) and scalars
        a, b = 0.3, 1.7
        A = np.zeros((4, 4))
        A[0, 0] = a
        A[0, 1] = b
        A[1, 0] = -b
        A[1, 1] = a
        A[2, 2] = -2.5
        A[3, 3] = 4.0
        _match_multisets(
            numerics.eigenvalues(A), [a + b * 1j, a - b * 1j, -2.5, 4.0], 1e-8
        )

    def test_conjugate_pairing_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            A = rng.standard_normal((n, n))
            vals = numerics.eigenvalues(A)
            complex_vals = [z for z in vals if z.imag != 0.0]
            remaining = list(complex_vals)
            while remaining:
                z = remaining.pop()
                assert z.conjugate() in remaining
                remaining.remove(z.conjugate())

    def test_matches_numpy_random(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(2, 25))
            A = rng.standard_normal((n, n))
            _match_multisets(
                numerics.eigenvalues(A),
                np.linalg.eigvals(A),
                1e-7 * (1.0 + np.linalg.norm(A)),
            )

    def test_residual_contract(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 15))
            A = rng.standard_normal((n, n))
            bound = 1e-8 * (1.0 + np.linalg.norm(A))
            for lam in numerics.eigenvalues(A):
                smin = np.linalg.svd(A - lam * np.eye(n), compute_uv=False)[-1]
                assert smin <= bound

    def test_repeated_real_eigenvalues(self):
        A = np.diag([3.0, 3.0, 3.0, -1.0])
        A[0, 1] = 5.0
        A[1, 2] = -2.0
        _match_multisets(numerics.eigenvalues(A), [3.0, 3.0, 3.0, -1.0], 1e-6)

    def test_large_matrix_against_numpy(self):
        rng = np.random.default_rng(61)
        A = rng.standard_normal((60, 60))
        _match_multisets(
            numerics.eigenvalues(A),
            np.linalg.eigvals(A),
            1e-7 * (1.0 + np.linalg.norm(A)),
        )

    def test_near_defective_pair(self):
        # two eigenvalues a distance 1e-5 apart around a defective-looking block
        A = np.array([[1.0, 1.0e4], [0.0, 1.00001]])
        bound = 1e-8 * (1.0 + np.linalg.norm(A))
        for lam in numerics.eigenvalues(A):
            smin = np.linalg.svd(A - lam * np.eye(2), compute_uv=False)[-1]
            assert smin <= bound

    def test_badly_scaled_matrix(self):
        A = np.array([[1.0e-6, 1.0], [-1.0e6, 2.0]])
        _match_multisets(
            numerics.eigenvalues(A),
            np.linalg.eigvals(A),
            1e-7 * (1.0 + np.linalg.norm(A)),
        )


class TestSymEig:
    def test_diagonal_sorted(self):
        w = numerics.sym_eigs(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0], atol=1e-12)

    def test_swap_matrix(self):
        w = numerics.sym_eigs([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(w, [-1.0, 1.0], atol=1e-12)

    def test_identity(self):
        assert np.allclose(numerics.sym_eigs(np.eye(6)), np.ones(6), atol=1e-14)

    def test_not_symmetric_raises(self):
        with pytest.raises(NotSymmetric):
            numerics.sym_eigs([[0.0, 1.0], [0.0, 0.0]])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(29)
        for n in (2, 5, 13, 50):
            M = rng.standard_normal((n, n))
            S = 0.5 * (M + M.T)
            w, V = numerics.sym_eig(S)
            err = np.linalg.norm(V @ np.diag(w) @ V.T - S)
            assert err <= 1e-8 * (1.0 + np.linalg.norm(S))

    def test_eigenvector_residuals(self):
        rng = np.random.default_rng(31)
        M = rng.standard_normal((20, 20))
        S = 0.5 * (M + M.T)
        w, V = numerics.sym_eig(S)
        res = S @ V - V * w
        assert np.abs(res).max() <= 1e-9 * (1.0 + np.abs(S).max())

    def test_orthonormal_vectors(self):
        rng = np.random.default_rng(37)
        M = rng.standard_normal((12, 12))
        S = M + M.T
        _, V = numerics.sym_eig(S)
        assert np.abs(V.T @ V - np.eye(12)).max() < 1e-10


class TestHelpers:
    def test_spectral_norm_diag(self):
        assert abs(numerics.spectral_norm(np.diag([1.0, -3.0, 2.0])) - 3.0) < 1e-10

    def test_spectral_norm_rotation(self):
        assert abs(numerics.spectral_norm(ROT) - 1.0) < 1e-12

    def test_singular_values(self):
        s = numerics.singular_values(np.diag([2.0, -5.0]))
        assert np.allclose(s, [2.0, 5.0], atol=1e-10)

    def test_pseudo_solve_rank_deficient(self):
        S = np.diag([2.0, 0.0])
        x = numerics.sym_pseudo_solve(S, [4.0, 0.0])
        assert np.allclose(x, [2.0, 0.0], atol=1e-12)

    def test_finite_diff_affine_exact(self):
        rng = np.random.default_rng(41)
        A = rng.standard_normal((3, 3))
        b = rng.standard_normal(3)
        J = finite_diff_jacobian(lambda x: A @ x + b, rng.standard_normal(3))
        assert np.abs(J - A).max() < 1e-8

    def test_finite_diff_zero_operator(self):
        J = finite_diff_jacobian(lambda x: np.zeros_like(x), np.ones(4))
        assert np.abs(J).max() == 0.0

    def test_finite_diff_scalar_logistic(self):
        def grad(x):
            t = x[0]
            return np.array([np.exp(t) / (1.0 + np.exp(t)) + 0.01 * t])

        J = finite_diff_jacobian(grad, np.zeros(1))
        assert abs(J[0, 0] - 0.26) < 1e-6

    def test_require_positive(self):
        numerics.require_positive("a, b", 5e-324, 1.7e308)
        for bad in (np.nan, np.inf, -np.inf, 0.0, -1.0):
            with pytest.raises(BadParameters, match="a, b must be finite and positive"):
                numerics.require_positive("a, b", 1.0, bad)

    def test_require_nonnegative(self):
        numerics.require_nonnegative("a, b", 0.0, -0.0, 1.7e308)
        for bad in (np.nan, np.inf, -np.inf, -0.5, -5e-324):
            with pytest.raises(BadParameters, match="a, b must be finite and nonnegative"):
                numerics.require_nonnegative("a, b", 1.0, bad)

    def test_vector_validation(self):
        with pytest.raises(ValueError):
            numerics.as_vector([np.inf, 1.0])
        with pytest.raises(DimensionMismatch):
            numerics.as_matrix([1.0, 2.0])


def _per_row_matvecs(A, X):
    return [np.ascontiguousarray(A) @ np.ascontiguousarray(x) for x in X]


def _per_row_dots(U, V):
    return [np.ascontiguousarray(u) @ np.ascontiguousarray(v) for u, v in zip(U, V)]


def _same_bits(got, want):
    """Each row of ``got`` has the bytes of ``want``'s row, the sign bit of a
    zero and the payload of a NaN included."""
    assert len(got) == len(want)
    return all(np.asarray(g).tobytes() == np.asarray(w).tobytes() for g, w in zip(got, want))


class TestStackedProducts:
    """matvecs and row_dots against their per-row forms, bit for bit."""

    @staticmethod
    def _stacks():
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        magnitude = st.floats(1e-300, 1e300)
        entry = (st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-1e3, 1e3)
                 | magnitude | magnitude.map(lambda v: -v))
        shape = st.tuples(st.integers(1, 9), st.integers(1, 7))
        return hypothesis, st, entry, shape

    def test_matvecs_property(self):
        """Any d from 1, any entries from 1e-300 to 1e300 with signed zeros,
        rows that overflow to inf or NaN among them."""
        hypothesis, st, entry, shape = self._stacks()

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
        @hypothesis.given(dims=shape, data=st.data())
        def prop(dims, data):
            d, n = dims
            A = np.array(data.draw(st.lists(entry, min_size=d * d, max_size=d * d))).reshape(d, d)
            X = np.array(data.draw(st.lists(entry, min_size=n * d, max_size=n * d))).reshape(n, d)
            with np.errstate(over="ignore", invalid="ignore"):
                assert _same_bits(numerics.matvecs(A, X), _per_row_matvecs(A, X))

        prop()

    def test_row_dots_property(self):
        hypothesis, st, entry, shape = self._stacks()

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
        @hypothesis.given(dims=shape, data=st.data())
        def prop(dims, data):
            d, n = dims
            U, V = (np.array(data.draw(st.lists(entry, min_size=n * d, max_size=n * d)))
                    .reshape(n, d) for _ in range(2))
            with np.errstate(over="ignore", invalid="ignore"):
                assert _same_bits(numerics.row_dots(U, V), _per_row_dots(U, V))

        prop()

    def test_random_stacks(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            d, n = int(rng.integers(1, 60)), int(rng.integers(1, 40))
            A = rng.standard_normal((d, d))
            X, V = rng.standard_normal((n, d)), rng.standard_normal((n, d))
            assert _same_bits(numerics.matvecs(A, X), [A @ x for x in X])
            assert _same_bits(numerics.row_dots(X, V), [x @ v for x, v in zip(X, V)])

    def test_d1_and_signed_zeros(self):
        # at d = 1 the per-row product is BLAS's dot, 0 + a*x, so a zero
        # product is +0.0 where the bare a*x is -0.0
        A = np.array([[-0.0]])
        X = np.array([[0.0], [-0.0], [3.0], [-2.0]])
        got = numerics.matvecs(A, X)
        assert _same_bits(got, [A @ x for x in X])
        assert not np.signbit(got[:, 0]).any()
        assert np.signbit((A[0, 0] * X[:, 0])).any()
        U = np.array([[-0.0, 0.0], [-0.0, -0.0], [1e-300, 1e-300]])
        assert _same_bits(numerics.row_dots(U, -U), [u @ -u for u in U])
        assert _same_bits(numerics.row_dots(X, X), [x @ x for x in X])

    def test_overflowing_rows(self):
        # rows whose products overflow to inf, and whose dots with a zero
        # entry (inf * 0) are NaN
        A = np.array([[1e300, 1e300], [1e300, -1e300]])
        X = np.array([[1e10, 1e10], [1.0, -1.0], [1e10, -1e10], [1e10, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            got = numerics.matvecs(A, X)
            squares, mixed = numerics.row_dots(got, got), numerics.row_dots(got, X)
            assert _same_bits(got, [A @ x for x in X])
            assert _same_bits(squares, [g @ g for g in got])
            assert _same_bits(mixed, [g @ x for g, x in zip(got, X)])
        assert np.isinf(got).any() and np.isinf(squares).any() and np.isnan(mixed).any()

    def test_non_contiguous_inputs(self):
        """Strided, transposed and F-ordered operands give the bits of their
        C-contiguous copies: an F-ordered matrix's ``@`` calls the other gemv
        kernel, whose bits differ."""
        rng = np.random.default_rng(3)
        for d in (1, 2, 5, 17):
            big = rng.standard_normal((3 * d, 2 * d))
            A = big[::3, ::2]
            X = rng.standard_normal((2 * d + 1, 2 * d + 1))[:, ::2][:, :d]
            V = np.asfortranarray(rng.standard_normal((X.shape[0], d)))
            for a in (A, A.T, np.asfortranarray(A)):
                want = numerics.matvecs(np.ascontiguousarray(a), np.ascontiguousarray(X))
                assert _same_bits(numerics.matvecs(a, X), want)
                assert _same_bits(want, _per_row_matvecs(a, X))
            assert _same_bits(numerics.row_dots(X, V), _per_row_dots(X, V))
            assert _same_bits(numerics.row_dots(X, V),
                              numerics.row_dots(np.ascontiguousarray(X), np.ascontiguousarray(V)))
