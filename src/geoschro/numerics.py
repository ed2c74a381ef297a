"""Linear algebra backbone, on matrices held block by block.

Unitary steps are built from Hermitian eigendecompositions, U = V e^{-i tau
Lambda} V^H, not from scaling-and-squaring: the eigenvector matrix is
orthonormal to roundoff, so every step is unitary to roundoff and norm /
momentum conservation tests inherit that guarantee.

Dtype rule: a real matrix stays real.  Each operator is stored real or
complex when it is built, and H(t) is real exactly when every term is.  A
real symmetric H is decomposed by the real ``eigh`` into real orthogonal
eigenvectors, and the same gates run in real arithmetic with the same
tolerances; a complex H takes the complex path.  State vectors are always
complex, and ``matmul`` applies a real matrix to them as one real product.

Block rule: a set of matrices whose joint nonzero pattern splits into
connected components (``invariant_blocks``) has those index sets as invariant
subspaces, and so has every linear combination of the set.  Such a matrix is
held as its blocks alone: blocks of one size form a group, stored as one
(k, s, s) stack (``InvariantBlocks.gather``), and a matrix without blocks is
the one group with k = 1.  ``hermitian_eigendecompose`` takes the stacks:
the scale and the orthonormality and eigen-residual gates run on them, and
each group goes through one batched ``eigh``.  Symmetry is checked once, by
an operator's flag, and no eigendecomposition re-checks it.  Vectors and
the projector flow's P are stepped in block order (``InvariantBlocks.order``),
where each group's rows are one contiguous slice, so ``apply_exp_step`` and
``InvariantBlocks.apply`` make one batched product per group with no gather
or scatter.  The entries between blocks are exact zeros in V^H V - I and HV - V Lambda, so the gates
measure the same quantities as on the whole matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceFailure, NotHermitian
from .tolerances import DEFAULT, Tolerances


def matmul(A: np.ndarray, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A @ X for a (k, s, s) stack A and a (k, s, m) stack X of columns.  A
    real A acts on a complex X through the interleaved (re, im) float64 view
    of X: one real product, with no complex copy of A.  ``out`` is a
    C-contiguous array of the product's shape and dtype that receives it."""
    if A.dtype.kind == "c" or X.dtype.kind != "c":
        return np.matmul(A, X, out=out)
    X = np.ascontiguousarray(X, dtype=np.complex128)
    Y = np.matmul(A, X.view(np.float64), out=None if out is None else out.view(np.float64))
    return Y.view(np.complex128)


def hermitian_part(M: np.ndarray, out: np.ndarray | None = None,
                   work: np.ndarray | None = None) -> np.ndarray:
    """The exact Hermitian part of M: 0.5 M + 0.5 M^H, which cannot overflow,
    where M differs from M^H, and bit for bit M elsewhere.  It is written
    into ``out``, a fresh array when None or else M itself, with ``work``,
    two arrays of M's shape and dtype, as scratch; given both, it allocates
    only the mask of the entries that differ."""
    Mh, S = np.empty((2, *M.shape), dtype=M.dtype) if work is None else work
    np.conjugate(M.T, out=Mh)
    differ = np.not_equal(M, Mh)
    np.multiply(0.5, M, out=S)
    np.multiply(0.5, Mh, out=Mh)
    np.add(S, Mh, out=S)
    out = M.copy() if out is None else out
    np.copyto(out, S, where=differ)
    return out


@dataclass(frozen=True, eq=False)
class InvariantBlocks:
    """Invariant blocks of a set of N x N matrices, grouped by size.

    Row j of ``groups[g]`` holds the ascending indices of one block; every
    block of a group has the same size s.  ``order`` lists the indices group
    by group and block by block.  In that block order a vector, or a matrix
    with rows and columns both in it, holds the k*s rows of group g as the
    one contiguous slice ``rows[g]``.
    """

    size: int
    groups: tuple                                        # of (k, s) int arrays
    order: np.ndarray = field(init=False, repr=False)
    inverse: np.ndarray = field(init=False, repr=False)  # order's inverse permutation
    rows: tuple = field(init=False, repr=False)          # of slices, one per group

    def __post_init__(self):
        order = np.concatenate([idx.reshape(-1) for idx in self.groups])
        ends = np.cumsum([idx.size for idx in self.groups]).tolist()
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "inverse", np.argsort(order))
        object.__setattr__(self, "rows", tuple(slice(b - idx.size, b)
                                               for idx, b in zip(self.groups, ends)))

    def gather(self, M: np.ndarray) -> tuple:
        """The (k, s, s) stack of M's blocks, one per group."""
        return tuple(M[idx[:, :, None], idx[:, None, :]] for idx in self.groups)

    def apply(self, stacks, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """M @ X for M held as its stacks and X, a vector or a matrix of
        columns, in block order: one batched product per group, on its rows.
        ``out``, C-contiguous and of X's shape, receives the product."""
        if out is None:
            out = np.empty(X.shape, dtype=np.result_type(X, stacks[0]))
        for rows, S in zip(self.rows, stacks):
            k, s, _ = S.shape
            matmul(S, X[rows].reshape(k, s, -1), out=out[rows].reshape(k, s, -1))
        return out


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
    """Eigenpairs group by group, on the indices of ``blocks.groups[g]``."""

    blocks: InvariantBlocks
    eigenvalues: tuple   # of real (k, s) arrays, ascending within each block
    eigenvectors: tuple  # of (k, s, s) stacks of unitary columns; real orthogonal for a real H


def hermitian_eigendecompose(H, tol: Tolerances = DEFAULT,
                             blocks: InvariantBlocks | None = None) -> EigenSystem:
    """Eigendecompose a Hermitian matrix; validates the returned system.

    H is one square matrix (the one block), or with ``blocks`` the (k, s, s)
    stacks of a matrix on their groups, as ``dynamics.assemble`` returns them.
    Each stack goes through one batched ``eigh`` and both gates; ``eigh``
    reads one triangle, so on a matrix that is not Hermitian the
    eigen-residual gate measures the difference relative to scale.
    """
    if blocks is None:
        H = np.asarray(H)
        H = H.astype(np.complex128 if np.iscomplexobj(H) else np.float64, copy=False)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise NotHermitian("matrix must be square")
        blocks, H = InvariantBlocks(H.shape[0], (np.arange(H.shape[0])[None, :],)), (H[None],)
    scale = max(1.0, *(float(np.abs(S).max()) for S in H))
    pairs = [_eigh(S) for S in H]
    for S, (w, V) in zip(H, pairs):
        _check_eigensystem(S, w, V, scale, tol)
    return EigenSystem(blocks, *zip(*pairs))


def _eigh(H: np.ndarray):
    try:
        return np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


def _check_eigensystem(H: np.ndarray, w: np.ndarray, V: np.ndarray, scale: float,
                       tol: Tolerances) -> None:
    """Orthonormality and eigen-residual gates on a stack of matrices."""
    G = np.swapaxes(V, -1, -2).conj() @ V
    G.reshape(G.shape[0], -1)[:, ::G.shape[-1] + 1] -= 1.0  # V^H V - I
    ortho = float(np.abs(G).max())
    if not ortho <= tol.orthonormality:
        raise ConvergenceFailure(f"eigenvector orthonormality residual {ortho:.3e}")
    R = H @ V
    R -= V * w[..., None, :]
    recon = float(np.abs(R).max())
    if not recon <= tol.eig_residual * scale:
        raise ConvergenceFailure(f"eigen residual {recon:.3e} vs scale {scale:.3e}")


def apply_exp_step(es: EigenSystem, tau: float, vec: np.ndarray) -> np.ndarray:
    """Apply exp(-i tau H) through a precomputed eigensystem to a vector, or
    a matrix of columns, in the block order of es.blocks (the basis order
    when H is one block), group by group on its rows."""
    out = np.empty(vec.shape, dtype=np.complex128)
    for rows, w, V in zip(es.blocks.rows, es.eigenvalues, es.eigenvectors):
        k, s = w.shape
        z = np.exp(-1j * tau * w)[..., None] * matmul(V.swapaxes(-1, -2).conj(),
                                                      vec[rows].reshape(k, s, -1))
        matmul(V, z, out=out[rows].reshape(k, s, -1))
    return out


