"""Dense linear algebra backbone.

Unitary steps are built from Hermitian eigendecompositions, U = V e^{-i tau
Lambda} V^H, not from scaling-and-squaring: the eigenvector matrix is
orthonormal to roundoff, so every step is unitary to roundoff and norm /
momentum conservation tests inherit that guarantee.

Dtype rule: a real matrix stays real.  A real symmetric H is decomposed by
the real ``eigh`` into real orthogonal eigenvectors, and the same three gates
(Hermiticity, orthonormality, eigen residual) run in real arithmetic with the
same tolerances; a complex H takes the complex path.  State vectors are
always complex, and ``matmul`` applies a real matrix to them as one real
product.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class EigenSystem:
    eigenvalues: np.ndarray   # real, ascending
    eigenvectors: np.ndarray  # unitary columns; real orthogonal for a real H


def hermitian_eigendecompose(H: np.ndarray, tol: Tolerances = DEFAULT) -> EigenSystem:
    """Eigendecompose a Hermitian matrix; validates the returned system."""
    H = require_hermitian(H, tol.hermiticity)
    try:
        w, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    n = H.shape[0]
    ortho = float(np.max(np.abs(V.conj().T @ V - np.eye(n))))
    if not ortho <= tol.orthonormality:
        raise ConvergenceFailure(f"eigenvector orthonormality residual {ortho:.3e}")
    scale = max(1.0, float(np.max(np.abs(H))))
    recon = float(np.max(np.abs(H @ V - V * w)))
    if not recon <= tol.eig_residual * scale:
        raise ConvergenceFailure(f"eigen residual {recon:.3e} vs scale {scale:.3e}")
    return EigenSystem(w, V)


def unitary_exp_step(H: np.ndarray, tau: float, tol: Tolerances = DEFAULT) -> np.ndarray:
    """U = V exp(-i tau Lambda) V^H, unitary by construction."""
    es = hermitian_eigendecompose(H, tol)
    phases = np.exp(-1j * tau * es.eigenvalues)
    V = es.eigenvectors
    return (V * phases) @ V.conj().T


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
