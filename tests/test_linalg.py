"""Tests for the dense Hermitian kernel."""
import re

import numpy as np
import pytest

from qmbounds.linalg import (
    LinalgError,
    checked_hermitian,
    checked_state,
    derealify,
    herm_eig,
    hermitize,
    is_hermitian,
    psd_sqrt,
    realify,
    trace_abs,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return hermitize(a)


def dephased_state(eps):
    # two-qubit rank-2 density matrix, rank-deficient on the outer levels
    e = 1 - eps
    return 0.25 * np.array(
        [[0, 0, 0, 0], [0, 2, 2 * e, 0], [0, 2 * e, 2, 0], [0, 0, 0, 0]],
        dtype=complex,
    )


class TestCheckedHermitian:
    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e6])
    def test_tolerance_is_relative_to_the_largest_entry_over_one(self, scale):
        # a defect of 1e-10 max(1, largest entry) passes, and 2e-10 of it fails
        base = scale * np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
        for defect, ok in ((0.9e-10, True), (2e-10, False)):
            mat = base.copy()
            mat[0, 1] += defect * max(1.0, scale)
            if ok:
                got = checked_hermitian(mat, 2, "m", LinalgError)
                assert np.array_equal(got, 0.5 * (mat + mat.conj().T))
            else:
                with pytest.raises(LinalgError, match="^m is not Hermitian$"):
                    checked_hermitian(mat, 2, "m", LinalgError)

    @pytest.mark.parametrize(
        "mat, dtype, message",
        [
            (np.eye(3), complex, r"m must be 2 x 2, got \(3, 3\)"),
            (np.ones(2), complex, r"m must be 2 x 2, got \(2,\)"),
            (np.diag([1.0, np.nan]), complex, "m has non-finite entries"),
            (np.array([[1.0, 1j], [1j, 1.0]]), complex, "m is not Hermitian"),
            (np.array([[1.0, 1.0], [0.0, 1.0]]), float, "m is not symmetric"),
        ],
    )
    def test_raises_the_callers_error(self, mat, dtype, message):
        with pytest.raises(KeyError, match=message):
            checked_hermitian(mat, 2, "m", KeyError, dtype)

    @pytest.mark.parametrize("func", [herm_eig, realify])
    @pytest.mark.parametrize(
        "mat, message",
        [
            (np.array(1.0), r"must be 0 x 0, got \(\)"),
            (np.ones(2), r"must be 2 x 2, got \(2,\)"),
            (np.ones((2, 3)), r"must be 2 x 2, got \(2, 3\)"),
            (np.array([[0.0, 1.0], [0.0, 0.0]]), "is not Hermitian"),
        ],
    )
    def test_kernel_inputs_raise_linalg_error(self, func, mat, message):
        with pytest.raises(LinalgError, match=f"^{func.__name__} input {message}$"):
            func(mat)

    def test_real_dtype_stays_real(self):
        got = checked_hermitian([[1.0, 2.0], [2.0, 3.0]], 2, "m", LinalgError, float)
        assert got.dtype == float and np.array_equal(got, [[1.0, 2.0], [2.0, 3.0]])

    @pytest.mark.parametrize(
        "state, message",
        [
            (np.diag([0.6, 0.6]), r"state trace is 1\.2, not 1"),
            (np.diag([1.5, -0.5]), "state has an eigenvalue below -1e-10"),
        ],
    )
    def test_state_needs_unit_trace_and_no_negative_eigenvalue(self, state, message):
        with pytest.raises(LinalgError, match=f"^{message}$"):
            checked_state(state, 2, LinalgError)
        assert np.array_equal(checked_state(np.diag([1.0, 0.0]), 2, LinalgError), np.diag([1.0, 0.0]))


class TestHermEig:
    def test_pauli_z_spectrum(self):
        w, _ = herm_eig(SZ)
        assert np.allclose(w, [-1, 1])

    def test_identity_three(self):
        w, u = herm_eig(np.eye(3, dtype=complex))
        assert np.allclose(w, [1, 1, 1])
        assert np.allclose(u.conj().T @ u, np.eye(3), atol=1e-10)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(rng, 6)
        w, u = herm_eig(h)
        scale = max(1.0, np.max(np.abs(w)))
        assert np.max(np.abs((u * w) @ u.conj().T - h)) < 1e-10 * scale
        assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-10
        assert np.all(np.diff(w) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(LinalgError):
            herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))


class TestTraceAbs:
    def test_diagonal(self):
        assert trace_abs(np.diag([1.0, -2.0]).astype(complex)) == pytest.approx(3.0)

    def test_pauli_y(self):
        assert trace_abs(SY) == pytest.approx(2.0)

    def test_two_observable_decomposition(self):
        # For the dephased state at eps = 0.5 with the known optimal
        # estimator pair, the quadratic term carries the whole cost
        # 4/(2 - eps) and the commutator term vanishes.
        eps = 0.5
        s = dephased_state(eps)
        xx = (1 / (2 - eps)) * np.array(
            [[0, -1j, -1j, 0], [1j, 0, 0, 1j], [1j, 0, 0, 1j], [0, -1j, -1j, 0]]
        )
        xy = (1 / (2 - eps)) * np.array(
            [[0, -1, -1, 0], [-1, 0, 0, 1], [-1, 0, 0, 1], [0, 1, 1, 0]],
            dtype=complex,
        )
        r = psd_sqrt(s)
        comm = trace_abs(1j * r @ (xx @ xy - xy @ xx) @ r)
        quad = np.trace(s @ (xx @ xx + xy @ xy)).real
        total = 4 / (2 - eps)
        assert quad == pytest.approx(total, abs=1e-12)
        assert comm == pytest.approx(total - quad, abs=1e-12)

    def test_bounds_plain_trace(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            h = random_hermitian(rng, 5)
            assert trace_abs(h) >= abs(np.trace(h).real) - 1e-12
        p = np.eye(4, dtype=complex)  # PSD case: equality
        assert trace_abs(p) == pytest.approx(np.trace(p).real)
        assert trace_abs(-p) == pytest.approx(abs(np.trace(-p).real))


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(3, dtype=complex)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 0.0]).astype(complex)), np.diag([2.0, 0.0]))

    def test_rank_deficient_residual(self):
        s = dephased_state(0.3)
        r = psd_sqrt(s)
        assert np.max(np.abs(r @ r - s)) < 1e-9
        assert is_hermitian(r)
        assert np.min(np.linalg.eigvalsh(r)) >= -1e-12

    def test_projector_fixed_point(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 6)
        _, u = herm_eig(h)
        p = hermitize(u[:, :2] @ u[:, :2].conj().T)
        assert np.max(np.abs(psd_sqrt(p) - p)) < 1e-9

    def test_clamps_tiny_negativity(self):
        s = np.diag([1.0, -5e-11]).astype(complex)
        r = psd_sqrt(s)
        assert np.allclose(r, np.diag([1.0, 0.0]))

    def test_rejects_indefinite(self):
        with pytest.raises(LinalgError):
            psd_sqrt(np.diag([1.0, -1e-6]).astype(complex))


class TestRealify:
    def test_pauli_y_layout(self):
        expected = np.array(
            [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=float
        )
        assert np.array_equal(realify(SY), expected)

    def test_identity(self):
        assert np.array_equal(realify(np.eye(2, dtype=complex)), np.eye(4))

    def test_spectrum_doubled(self):
        rng = np.random.default_rng(19)
        h = random_hermitian(rng, 5)
        w = np.linalg.eigvalsh(h)
        wr = np.linalg.eigvalsh(realify(h))
        assert np.allclose(np.sort(np.repeat(w, 2)), np.sort(wr), atol=1e-10)
        assert np.trace(realify(h)) == pytest.approx(2 * np.trace(h).real)

    def test_psd_cone_preserved(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            h = random_hermitian(rng, 4) + np.eye(4) * rng.uniform(-2, 2)
            lo = np.min(np.linalg.eigvalsh(h))
            lo_r = np.min(np.linalg.eigvalsh(realify(h)))
            assert np.sign(lo) == np.sign(lo_r) or abs(lo - lo_r) < 1e-10

    def test_derealify_round_trip(self):
        rng = np.random.default_rng(31)
        h = random_hermitian(rng, 4)
        assert np.max(np.abs(derealify(realify(h)) - h)) < 1e-14

    @pytest.mark.parametrize("shape", [(3, 3), (2, 4), (4,)])
    def test_derealify_rejects_what_is_not_even_square(self, shape):
        with pytest.raises(LinalgError, match=rf"^derealify: expected even square shape, got {re.escape(str(shape))}$"):
            derealify(np.zeros(shape))

    def test_derealify_averages_blocks(self):
        # a symmetric perturbation that is not in the image of realify
        # must land on its Hermitian average, not raise
        w = np.zeros((4, 4))
        w[0, 0], w[2, 2] = 1.0, 3.0
        h = derealify(w)
        assert h[0, 0] == pytest.approx(2.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(LinalgError):
            realify(np.array([[0, 1], [0, 0]], dtype=complex))
