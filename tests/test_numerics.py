"""Eigendecomposition-backed unitary steps."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from geoschro.errors import NotHermitian
from geoschro.numerics import (
    apply_exp_step,
    hermitian_eigendecompose,
    matmul,
    random_state,
    require_hermitian,
    unitary_exp_step,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]])


def _random_hermitian(rng, n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (A + A.conj().T) / 2


def test_require_hermitian_accepts_and_rejects():
    rng = np.random.default_rng(0)
    H = _random_hermitian(rng, 5)
    assert require_hermitian(H, 1e-12) is not None
    bad = H.copy()
    bad[0, 1] += 1e-6
    with pytest.raises(NotHermitian):
        require_hermitian(bad, 1e-8)
    with pytest.raises(NotHermitian):
        require_hermitian(np.zeros((2, 3)), 1e-12)


def test_real_matrices_stay_real_and_keep_the_gates():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 6))
    S = A + A.T
    assert require_hermitian(S, 1e-12).dtype == np.float64
    es = hermitian_eigendecompose(S)
    assert es.eigenvectors.dtype == np.float64
    assert np.max(np.abs((es.eigenvectors * es.eigenvalues) @ es.eigenvectors.T - S)) < 1e-12
    for bad in (A, np.triu(S)):
        with pytest.raises(NotHermitian):
            require_hermitian(bad, 1e-8)
        with pytest.raises(NotHermitian):
            hermitian_eigendecompose(bad)


def test_matmul_real_times_complex_matches_plain_product():
    rng = np.random.default_rng(6)
    n = 9
    A = rng.standard_normal((n, n))
    X = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    for a, x in ((A, X[:, 0]), (A, X), (A, X[:, ::2]), (A.T, X.T[1]), (A[:, :5], X[::2]),
                 (A.astype(complex), X), (A, X.real)):
        got = matmul(a, x)
        want = a @ x
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_eigendecompose_reconstructs():
    rng = np.random.default_rng(1)
    H = _random_hermitian(rng, 12)
    es = hermitian_eigendecompose(H)
    V, w = es.eigenvectors, es.eigenvalues
    assert np.all(np.diff(w) >= 0)
    assert np.max(np.abs((V * w) @ V.conj().T - H)) < 1e-13 * max(1, np.max(np.abs(H)))


def test_exp_step_pauli_x_closed_form():
    # exp(-i t sigma_x) = cos(t) I - i sin(t) sigma_x
    t = 0.7
    U = unitary_exp_step(SIGMA_X, t)
    expected = np.cos(t) * np.eye(2) - 1j * np.sin(t) * SIGMA_X
    assert np.max(np.abs(U - expected)) < 1e-15


def test_exp_step_pauli_y_closed_form():
    t = -1.3
    U = unitary_exp_step(SIGMA_Y, t)
    expected = np.cos(t) * np.eye(2) - 1j * np.sin(t) * SIGMA_Y
    assert np.max(np.abs(U - expected)) < 1e-15


@given(st.integers(0, 10 ** 6))
def test_exp_step_unitary_to_roundoff(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 16))
    U = unitary_exp_step(_random_hermitian(rng, n), float(rng.uniform(-2, 2)))
    assert np.max(np.abs(U.conj().T @ U - np.eye(n))) < 1e-12


def test_exp_step_group_property():
    rng = np.random.default_rng(3)
    H = _random_hermitian(rng, 8)
    U = unitary_exp_step(H, 0.3) @ unitary_exp_step(H, 0.5)
    assert np.max(np.abs(U - unitary_exp_step(H, 0.8))) < 1e-11


def test_apply_exp_step_matches_matrix_and_handles_stacks():
    rng = np.random.default_rng(4)
    H = _random_hermitian(rng, 10)
    es = hermitian_eigendecompose(H)
    U = unitary_exp_step(H, 0.45)
    v = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    assert np.max(np.abs(apply_exp_step(es, 0.45, v) - U @ v)) < 1e-12
    pair = np.column_stack([v, 1j * v])
    out = apply_exp_step(es, 0.45, pair)
    assert out.shape == (10, 2)
    assert np.max(np.abs(out - U @ pair)) < 1e-12


def test_random_state_deterministic_unit_norm():
    a = random_state(16, 42)
    b = random_state(16, 42)
    assert np.array_equal(a.coefficients, b.coefficients)
    assert np.linalg.norm(a.coefficients) == pytest.approx(1.0, abs=1e-14)
    assert not np.array_equal(a.coefficients, random_state(16, 43).coefficients)
    with pytest.raises(ValueError):
        random_state(0, 1)
