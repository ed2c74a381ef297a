"""Dense linear algebra backbone.

Unitary steps are built from Hermitian eigendecompositions, U = V e^{-i tau
Lambda} V^H, not from scaling-and-squaring: the eigenvector matrix is
orthonormal to roundoff, so every step is unitary to roundoff and norm /
momentum conservation tests inherit that guarantee.

Dtype rule: a real matrix stays real.  Each operator is stored real or
complex when it is built, and H(t) is real exactly when every term is.  A
real symmetric H is decomposed by the real ``eigh`` into real orthogonal
eigenvectors, and the same three gates (Hermiticity, orthonormality, eigen
residual) run in real arithmetic with the same tolerances; a complex H takes
the complex path.  State vectors are always complex, and ``matmul`` applies
a real matrix to them as one real product.

Block rule: a set of matrices whose joint nonzero pattern splits into
connected components (``invariant_blocks``) has those index sets as invariant
subspaces, and so has every linear combination of the set.
``hermitian_eigendecompose`` runs the Hermiticity pre-check once on the whole
matrix and then decomposes each block: blocks of one size are stacked and go
through one batched ``eigh``, and the orthonormality and eigen-residual gates
run on every block with the same tolerances.  The eigenvectors of a block
land on that block's indices, so V is exactly zero off-block and the
off-block entries of H - H^H, V^H V - I and HV - V Lambda are exact zeros:
the gates measure the same quantities as on the whole matrix.  Without
blocks the whole matrix is the one block, and goes the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceFailure, NotHermitian
from .hilbert import BasisSpec, StateVector
from .tolerances import DEFAULT, Tolerances


def matmul(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A @ X.  A real A acts on a complex vector or block X through the
    interleaved (re, im) float64 view of X: one real product, with no complex
    copy of A."""
    if np.iscomplexobj(A) or not np.iscomplexobj(X):
        return A @ X
    X = np.ascontiguousarray(X, dtype=np.complex128)
    Y = A @ X.view(np.float64).reshape(X.shape[0], -1)
    return Y.view(np.complex128).reshape(Y.shape[0], *X.shape[1:])


def require_hermitian(H: np.ndarray, tol: float) -> np.ndarray:
    """H as float64 when it is real, complex128 otherwise; NotHermitian
    unless it is square and within tol of its conjugate transpose."""
    H = np.asarray(H)
    H = H.astype(np.complex128 if np.iscomplexobj(H) else np.float64, copy=False)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise NotHermitian("matrix must be square")
    dev = float(np.max(np.abs(H - H.conj().T)))
    if not dev <= tol:
        raise NotHermitian(f"Hermiticity deviation {dev:.3e} exceeds {tol:.1e}")
    return H


@dataclass(frozen=True, eq=False)
class InvariantBlocks:
    """Invariant blocks of a set of N x N matrices, grouped by size.

    Row j of ``groups[g]`` holds the ascending indices of one block; every
    block of a group has the same size s.  ``flat[g]`` holds the row-major
    positions i*N + j of the group's (k, s, s) sub-matrices, so one ``take``
    gathers them and one ``put`` scatters them back.
    """

    size: int
    groups: tuple                                # of (k, s) int arrays
    flat: tuple = field(init=False, repr=False)  # of (k*s*s,) int arrays

    def __post_init__(self):
        n = self.size
        object.__setattr__(self, "flat", tuple(
            (idx[:, :, None] * n + idx[:, None, :]).reshape(-1) for idx in self.groups))


def invariant_blocks(matrices) -> InvariantBlocks:
    """The connected components of the union of the matrices' nonzero
    patterns.  Every matrix of the set, and every linear combination of them,
    is exactly zero between two different components."""
    n = matrices[0].shape[0]
    pattern = np.zeros((n, n), dtype=bool)
    for M in matrices:
        pattern |= M != 0
    rows, cols = np.nonzero(pattern | pattern.T)
    label = np.arange(n)
    while True:
        # hook the larger root of every edge onto the smaller one, then point
        # every index at its root; the root of a component is its least index
        hooked = label.copy()
        np.minimum.at(hooked, np.maximum(label[rows], label[cols]),
                      np.minimum(label[rows], label[cols]))
        while not np.array_equal(hooked[hooked], hooked):
            hooked = hooked[hooked]
        if np.array_equal(hooked, label):
            break
        label = hooked
    order = np.argsort(label, kind="stable")
    _, starts, sizes = np.unique(label[order], return_index=True, return_counts=True)
    # sorted(set(...)): a bare np.unique(sizes) costs about 15 ms on its first call
    groups = tuple(np.array([order[a:a + s] for a, m in zip(starts, sizes) if m == s])
                   for s in sorted(set(sizes.tolist())))
    return InvariantBlocks(n, groups)


@dataclass(frozen=True)
class EigenSystem:
    eigenvalues: np.ndarray   # real; ascending (within each block when blocked)
    eigenvectors: np.ndarray  # unitary columns; real orthogonal for a real H


def hermitian_eigendecompose(H: np.ndarray, tol: Tolerances = DEFAULT,
                             blocks: InvariantBlocks | None = None) -> EigenSystem:
    """Eigendecompose a Hermitian matrix; validates the returned system.

    With ``blocks``, H must be zero outside them (as every combination of the
    matrices they were found from is); without, the whole matrix is the one
    block.  Each size group is gathered into a (k, s, s) stack for one
    batched ``eigh``, and the eigenpairs of a block are placed on its indices.
    """
    H = require_hermitian(H, tol.hermiticity)
    n = H.shape[0]
    if blocks is None:
        blocks = InvariantBlocks(n, (np.arange(n)[None, :],))
    scale = max(1.0, float(np.max(np.abs(H))))
    w = np.empty(n)
    V = np.zeros((n, n), dtype=H.dtype)
    for idx, flat in zip(blocks.groups, blocks.flat):
        k, s = idx.shape
        S = H.take(flat).reshape(k, s, s)
        ws, Vs = _eigh(S)
        _check_eigensystem(S, ws, Vs, scale, tol)
        w[idx.reshape(-1)] = ws.reshape(-1)
        V.put(flat, Vs)
    return EigenSystem(w, V)


def _eigh(H: np.ndarray):
    try:
        return np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


def _check_eigensystem(H: np.ndarray, w: np.ndarray, V: np.ndarray, scale: float,
                       tol: Tolerances) -> None:
    """Orthonormality and eigen-residual gates on a stack of matrices."""
    ortho = float(np.max(np.abs(np.swapaxes(V, -1, -2).conj() @ V - np.eye(V.shape[-1]))))
    if not ortho <= tol.orthonormality:
        raise ConvergenceFailure(f"eigenvector orthonormality residual {ortho:.3e}")
    recon = float(np.max(np.abs(H @ V - V * w[..., None, :])))
    if not recon <= tol.eig_residual * scale:
        raise ConvergenceFailure(f"eigen residual {recon:.3e} vs scale {scale:.3e}")


def apply_exp_step(es: EigenSystem, tau: float, vec: np.ndarray) -> np.ndarray:
    """Apply exp(-i tau H) through a precomputed eigensystem (works on
    column-stacked matrices too)."""
    V = es.eigenvectors
    z = matmul(V.conj().T, vec)
    phases = np.exp(-1j * tau * es.eigenvalues)
    if z.ndim == 1:
        return matmul(V, phases * z)
    return matmul(V, phases[:, None] * z)


def random_state(dim: int, seed: int, basis: BasisSpec | None = None) -> StateVector:
    """Deterministic unit-norm random state for (dim, seed)."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    c /= np.linalg.norm(c)
    if basis is None:
        basis = BasisSpec.hermite(dim)
    return StateVector(basis, c)
