"""Eigendecomposition-backed unitary steps."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import densify, random_state
from geoschro.dynamics import CoefficientFn, TDepHamiltonian, assemble, oscillator_hamiltonian
from geoschro.errors import ConvergenceFailure, NotHermitian
from geoschro.hilbert import BasisSpec, hermite3d_index_tuples
from geoschro.numerics import (
    apply_exp_step,
    hermitian_eigendecompose,
    hermitian_part,
    invariant_blocks,
    matmul,
)
from geoschro.operators import build_named
from geoschro.tolerances import DEFAULT

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]])


def _random_hermitian(rng, n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (A + A.conj().T) / 2


def _dense(es):
    """(eigenvalues, eigenvectors) of an eigensystem as an N-vector and an
    N x N matrix."""
    return densify(es.blocks, es.eigenvalues), densify(es.blocks, es.eigenvectors)


def _exp_step(H, t):
    """U = exp(-i t H) as the steps build it: apply_exp_step on the identity."""
    return apply_exp_step(hermitian_eigendecompose(H), t, np.eye(H.shape[0]))


def test_plain_path_checks_the_shape_and_leaves_symmetry_to_the_residual_gate():
    rng = np.random.default_rng(0)
    H = _random_hermitian(rng, 5)
    assert hermitian_eigendecompose(H) is not None
    bad = H.copy()
    bad[0, 1] += 1e-6
    with pytest.raises(ConvergenceFailure):  # eigh reads the lower triangle
        hermitian_eigendecompose(bad)
    with pytest.raises(NotHermitian):
        hermitian_eigendecompose(np.zeros((2, 3)))


def test_eigendecompose_rejects_what_is_not_one_square_matrix():
    for bad in (np.zeros((2, 3)), np.zeros((2, 3, 3)), np.zeros(3)):
        with pytest.raises(NotHermitian):
            hermitian_eigendecompose(bad)


def test_real_matrices_stay_real_and_keep_the_gates():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 6))
    S = A + A.T
    assert hermitian_eigendecompose(S.astype(np.float32)).eigenvectors[0].dtype == np.float64
    w, V = _dense(hermitian_eigendecompose(S))
    assert V.dtype == np.float64
    assert np.max(np.abs((V * w) @ V.T - S)) < 1e-12
    for bad in (A, np.triu(S)):
        with pytest.raises(ConvergenceFailure):
            hermitian_eigendecompose(bad)
        with pytest.raises(ConvergenceFailure):
            hermitian_eigendecompose(bad.astype(np.complex128))


def test_hermitian_part_keeps_the_bits_of_a_hermitian_entry_pair():
    rng = np.random.default_rng(7)
    H = _random_hermitian(rng, 6)
    assert np.array_equal(hermitian_part(H), H)
    M = H.copy()
    M[0, 1] += 1e-9
    M[2, 4] += 3e-9j
    got = hermitian_part(M)
    assert np.array_equal(got, got.conj().T)
    moved = got != H
    assert moved[0, 1] and moved[1, 0] and moved[2, 4] and moved[4, 2]
    assert np.count_nonzero(moved) == 4
    assert np.array_equal(got, 0.5 * M + 0.5 * M.conj().T)
    # gathering a block commutes with it, bit for bit
    blocks = invariant_blocks([np.kron(np.eye(2), np.ones((3, 3)))])
    for S, T in zip(blocks.gather(got), blocks.gather(M)):
        assert np.array_equal(S, np.stack([hermitian_part(B) for B in T]))


def test_hermitian_part_in_place_has_the_bits_of_the_fresh_one():
    """On entries from 1e-320 to 1e300 with a NaN, 1e308 and signed zeros,
    the fresh result has the bits of np.where(M == M^H, M, 0.5 M + 0.5 M^H),
    and the one built in M's own buffer, with stale scratch, has its bits."""
    rng = np.random.default_rng(11)
    M = (10.0 ** rng.uniform(-320, 300, (7, 7))) * np.exp(2j * np.pi * rng.uniform(size=(7, 7)))
    M[1, 2], M[3, 0], M[4, 4], M[5, 6] = np.nan, 1e308, -0.0, complex(0.0, -0.0)
    want = hermitian_part(M)
    Mh = M.conj().T
    old = np.where(M == Mh, M, 0.5 * M + 0.5 * Mh)
    assert np.array_equal(want.view(np.uint64), old.view(np.uint64))
    work = np.full((2, 7, 7), np.nan, dtype=np.complex128)
    assert hermitian_part(M, M, work) is M
    assert np.array_equal(M.view(np.uint64), want.view(np.uint64))


def test_matmul_real_times_complex_matches_plain_product():
    rng = np.random.default_rng(6)
    n = 9
    A = rng.standard_normal((n, n))
    X = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    for a, x in ((A, X), (A, X[:, ::2]), (A[:, :5], X[::2]), (A.astype(complex), X),
                 (A, X.real), (np.stack([A, A.T]), np.stack([X, X[::-1]]))):
        got = matmul(a, x)
        want = a @ x
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_eigendecompose_reconstructs():
    rng = np.random.default_rng(1)
    H = _random_hermitian(rng, 12)
    w, V = _dense(hermitian_eigendecompose(H))
    assert np.all(np.diff(w) >= 0)
    assert np.max(np.abs((V * w) @ V.conj().T - H)) < 1e-13 * max(1, np.max(np.abs(H)))


def test_exp_step_pauli_x_closed_form():
    # exp(-i t sigma_x) = cos(t) I - i sin(t) sigma_x
    t = 0.7
    U = _exp_step(SIGMA_X, t)
    expected = np.cos(t) * np.eye(2) - 1j * np.sin(t) * SIGMA_X
    assert np.max(np.abs(U - expected)) < 1e-15


def test_exp_step_pauli_y_closed_form():
    t = -1.3
    U = _exp_step(SIGMA_Y, t)
    expected = np.cos(t) * np.eye(2) - 1j * np.sin(t) * SIGMA_Y
    assert np.max(np.abs(U - expected)) < 1e-15


@given(st.integers(0, 10 ** 6))
def test_exp_step_unitary_to_roundoff(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 16))
    U = _exp_step(_random_hermitian(rng, n), float(rng.uniform(-2, 2)))
    assert np.max(np.abs(U.conj().T @ U - np.eye(n))) < 1e-12


def test_exp_step_group_property():
    rng = np.random.default_rng(3)
    H = _random_hermitian(rng, 8)
    U = _exp_step(H, 0.3) @ _exp_step(H, 0.5)
    assert np.max(np.abs(U - _exp_step(H, 0.8))) < 1e-11


def test_apply_exp_step_matches_matrix_and_handles_stacks():
    rng = np.random.default_rng(4)
    H = _random_hermitian(rng, 10)
    es = hermitian_eigendecompose(H)
    U = _exp_step(H, 0.45)
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


def _shapes(blocks):
    return [idx.shape for idx in blocks.groups]


def test_oscillator_blocks_split_by_parity():
    blocks = oscillator_hamiltonian(64, drive=0.05).blocks
    assert _shapes(blocks) == [(2, 32)]
    assert np.array_equal(blocks.groups[0], [np.arange(0, 64, 2), np.arange(1, 64, 2)])
    odd = oscillator_hamiltonian(65).blocks
    assert _shapes(odd) == [(1, 32), (1, 33)]
    assert np.array_equal(odd.groups[0][0], np.arange(1, 65, 2))
    assert np.array_equal(odd.groups[1][0], np.arange(0, 65, 2))


def test_coupling_terms_give_one_whole_block():
    basis = BasisSpec.hermite(12)
    for names in (("p",), ("x",), ("x2", "x")):
        blocks = invariant_blocks([build_named(n, basis).matrix for n in names])
        assert _shapes(blocks) == [(1, 12)]
    blocks = invariant_blocks([build_named("id", basis).matrix])
    assert _shapes(blocks) == [(12, 1)]


def _components(pattern):
    """Reference: connected components by breadth-first search."""
    n = pattern.shape[0]
    seen, comps = set(), []
    for start in range(n):
        if start in seen:
            continue
        comp, todo = {start}, [start]
        while todo:
            i = todo.pop()
            for j in map(int, np.nonzero(pattern[i] | pattern[:, i])[0]):
                if j not in comp:
                    comp.add(j)
                    todo.append(j)
        seen |= comp
        comps.append(sorted(comp))
    return comps


@given(st.integers(0, 10 ** 6))
def test_invariant_blocks_match_breadth_first_components(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    mats = [np.where(rng.random((n, n)) < rng.uniform(0, 0.08), rng.standard_normal((n, n)), 0.0)
            for _ in range(int(rng.integers(1, 4)))]
    pattern = np.zeros((n, n), dtype=bool)
    for M in mats:
        pattern |= M != 0
    blocks = invariant_blocks(mats)
    got = sorted(list(map(int, row)) for idx in blocks.groups for row in idx)
    assert got == sorted(_components(pattern))
    assert [idx.shape[1] for idx in blocks.groups] == sorted({len(c) for c in got})


def test_angular_momentum_blocks_are_degree_shells():
    degree = 5
    basis = BasisSpec.hermite3d(degree)
    blocks = invariant_blocks([build_named(name, basis).matrix for name in ("Lx", "Ly", "Lz")])
    assert _shapes(blocks) == [(1, (k + 1) * (k + 2) // 2) for k in range(degree + 1)]
    tuples = hermite3d_index_tuples(degree)
    for k, idx in enumerate(blocks.groups):
        assert {sum(tuples[i]) for i in idx[0]} == {k}


@pytest.mark.parametrize("drive", [0.0, 0.05])
@pytest.mark.parametrize("size", [24, 25])
def test_blocked_eigendecompose_matches_dense(size, drive):
    H = oscillator_hamiltonian(size, drive)
    stacks = assemble(H, 0.7)
    M = densify(H.blocks, stacks)
    dense = hermitian_eigendecompose(M)
    blocked = hermitian_eigendecompose(stacks, blocks=H.blocks)
    w, V = _dense(blocked)
    scale = np.max(np.abs(M))
    assert np.max(np.abs(np.sort(w) - _dense(dense)[0])) <= 1e-13 * scale
    assert np.max(np.abs((V * w) @ V.T - M)) <= 1e-13 * scale
    same_block = np.zeros((size, size), dtype=bool)
    for idx in H.blocks.groups:
        for row in idx:
            same_block[np.ix_(row, row)] = True
    assert np.all(V[~same_block] == 0.0)
    psi = random_state(size, 3).coefficients
    order, back = H.blocks.order, H.blocks.inverse  # blocked steps run in block order
    step = apply_exp_step(blocked, 0.3, psi[order])[back] - apply_exp_step(dense, 0.3, psi)
    assert np.max(np.abs(step)) <= 1e-13


def test_whole_block_returns_the_dense_arrays():
    basis = BasisSpec.hermite(10)
    H = TDepHamiltonian(((CoefficientFn.constant(1.0), build_named("p", basis), "p"),))
    stacks = assemble(H, 0.0)
    got = hermitian_eigendecompose(stacks, blocks=H.blocks)
    want = hermitian_eigendecompose(densify(H.blocks, stacks))
    assert [idx.shape for idx in got.blocks.groups] == [(1, 10)]
    assert np.array_equal(got.eigenvectors, want.eigenvectors)
    assert np.array_equal(got.eigenvalues, want.eigenvalues)


def test_gates_fire_inside_one_block():
    H = oscillator_hamiltonian(16)
    blocks = H.blocks
    M = densify(blocks, assemble(H, 0.0))  # diagonal: both blocks exact
    bad = M.copy()
    bad[1, 3] += 1e-6  # breaks Hermiticity inside the odd block only
    with pytest.raises(ConvergenceFailure):  # residual 1e-6 against 1e-10 * 15.5
        hermitian_eigendecompose(blocks.gather(bad), blocks=blocks)
    coupled = M.copy()
    coupled[1, 3] = coupled[3, 1] = 0.3  # only the odd block leaves a roundoff residual
    hermitian_eigendecompose(blocks.gather(M), DEFAULT.replace(eig_residual=0.0), blocks)
    with pytest.raises(ConvergenceFailure):
        hermitian_eigendecompose(blocks.gather(coupled), DEFAULT.replace(eig_residual=0.0),
                                 blocks)
