"""Independent oracle computations used to pin expected values.

Everything here deliberately avoids the library's own construction routes:
matrix elements come from Gauss-Hermite quadrature against explicitly
evaluated basis functions, evolutions from closed-form solutions, and
commutators from raw matrix products.
"""

import numpy as np
from math import factorial, pi, sqrt
from numpy.polynomial import hermite as H


def _norm_const(n: int) -> float:
    return pi ** 0.25 * 2 ** (n / 2.0) * sqrt(float(factorial(n)))


def _hermite_poly_values(size: int, x: np.ndarray) -> np.ndarray:
    """rows: H_n(x) / normalization, so row n times e^{-x^2/2} is phi_n."""
    out = np.zeros((size, x.size))
    for n in range(size):
        e = np.zeros(n + 1)
        e[n] = 1.0
        out[n] = H.hermval(x, e) / _norm_const(n)
    return out


def position_matrix_quadrature(size: int) -> np.ndarray:
    """<phi_m| x |phi_n> by Gauss-Hermite quadrature (exact: polynomial
    integrand of degree <= 2*size below the node count's exactness bound)."""
    x, w = H.hermgauss(2 * size + 8)
    phi = _hermite_poly_values(size, x)
    return np.einsum("mi,i,ni->mn", phi, w * x, phi)


def momentum_matrix_quadrature(size: int) -> np.ndarray:
    """<phi_m| -i d/dx |phi_n> by quadrature; the Gaussian factor's chain
    rule gives phi_n' = (H_n' - x H_n) e^{-x^2/2} / c_n."""
    x, w = H.hermgauss(2 * size + 8)
    phi = _hermite_poly_values(size, x)
    dphi = np.zeros_like(phi)
    for n in range(size):
        e = np.zeros(n + 1)
        e[n] = 1.0
        dpoly = H.hermval(x, H.hermder(e)) if n > 0 else np.zeros_like(x)
        dphi[n] = (dpoly - x * H.hermval(x, e)) / _norm_const(n)
    return -1j * np.einsum("mi,i,ni->mn", phi, w, dphi)


def position_squared_diagonal_quadrature(size: int) -> np.ndarray:
    x, w = H.hermgauss(2 * size + 8)
    phi = _hermite_poly_values(size, x)
    return np.einsum("ni,i,ni->n", phi, w * x * x, phi)


def shifted_gaussian_overlaps(t: float, size: int) -> np.ndarray:
    """<phi_n | psi(.+t)> for psi the normalized Gaussian, by quadrature.

    The shifted Gaussian against the e^{-x^2} weight leaves the smooth factor
    e^{-x t - t^2/2}; at |t| <= 1 the nodes stay well inside range.
    """
    x, w = H.hermgauss(160)
    phi = _hermite_poly_values(size, x)
    smooth = np.exp(-x * t - t * t / 2.0) * pi ** -0.25
    return phi @ (w * smooth)


def coherent_coefficients(alpha: complex, size: int) -> np.ndarray:
    n = np.arange(size)
    fact = np.array([sqrt(float(factorial(k))) for k in n])
    return np.exp(-abs(alpha) ** 2 / 2.0) * alpha ** n / fact


def oscillator_closed_form(c0: np.ndarray, t: float) -> np.ndarray:
    """Autonomous (p^2+x^2)/2 evolution: c_n(t) = c_n(0) e^{-i(n+1/2)t}."""
    n = np.arange(c0.size)
    return c0 * np.exp(-1j * (n + 0.5) * t)


def probabilist_gram_quadrature(size: int) -> np.ndarray:
    """<chi_m|chi_n> = int He_m He_n e^{-x^2} dx by quadrature (the basis is
    not orthogonal in L^2: its weight convention is e^{-x^2/2})."""
    from numpy.polynomial import hermite_e as He

    x, w = H.hermgauss(2 * size + 8)
    vals = np.zeros((size, x.size))
    for n in range(size):
        e = np.zeros(n + 1)
        e[n] = 1.0
        vals[n] = He.hermeval(x, e)
    return np.einsum("mi,i,ni->mn", vals, w, vals)


def probabilist_change_of_basis(size: int) -> np.ndarray:
    """C with chi_n = sum_m C[m, n] phi_m, chi_n = He_n(x) e^{-x^2/2}.

    He_n is rewritten in physicists' Hermite polynomials; H_m e^{-x^2/2}
    equals pi^(1/4) 2^(m/2) sqrt(m!) phi_m, which fixes each column.
    """
    from numpy.polynomial import hermite_e as He

    C = np.zeros((size, size))
    for n in range(size):
        e = np.zeros(n + 1)
        e[n] = 1.0
        d = H.poly2herm(He.herme2poly(e))
        C[: len(d), n] = d * np.array([_norm_const(m) for m in range(len(d))])
    return C


def probabilist_derivative_matrix(size: int) -> np.ndarray:
    """d/dx on chi_n: (He_n e^{-x^2/2})' = -He_{n+1} e^{-x^2/2}, so chi_n maps
    to -chi_{n+1}."""
    return -np.eye(size, k=-1)


def _fourier_values(size: int, halflength: float, x: np.ndarray) -> np.ndarray:
    """Rows: the documented fourier_interval functions at x.  Index 2k is
    sin(pi(k+1)x/l)/sqrt(l), index 2k+1 is cos(pi k x/l)/sqrt(l), except
    index 1, the constant 1/sqrt(2l)."""
    out = np.zeros((size, x.size))
    for j in range(size):
        k = j // 2
        if j == 1:
            out[j] = 1.0 / sqrt(2.0 * halflength)
        elif j % 2 == 0:
            out[j] = np.sin(pi * (k + 1) * x / halflength) / sqrt(halflength)
        else:
            out[j] = np.cos(pi * k * x / halflength) / sqrt(halflength)
    return out


def gram_matrix_quadrature(basis) -> np.ndarray:
    """<b_m|b_n> in L^2 of the documented functions of basis, by quadrature:
    Gauss-Hermite for the 1-d Hermite functions, Gauss-Legendre on [-l, l]
    for the Fourier modes, and a tensor Gauss-Hermite grid for the 3-d
    Hermite products (enumerated here without the library's ordering)."""
    if basis.kind == "hermite1d_orthonormal":
        x, w = H.hermgauss(2 * basis.size + 8)
        phi = _hermite_poly_values(basis.size, x)
        return np.einsum("mi,i,ni->mn", phi, w, phi)
    if basis.kind == "fourier_interval":
        l = basis.interval_halflength
        t, w = np.polynomial.legendre.leggauss(4 * basis.size + 40)
        f = _fourier_values(basis.size, l, l * t)
        return np.einsum("mi,i,ni->mn", f, l * w, f)
    if basis.kind == "hermite3d_degree":
        d = basis.degree
        x, w = H.hermgauss(2 * d + 8)
        phi = _hermite_poly_values(d + 1, x)
        triples = [(a, b, c) for a in range(d + 1) for b in range(d + 1) for c in range(d + 1)
                   if a + b + c <= d]
        vals = np.array([np.einsum("i,j,k->ijk", phi[a], phi[b], phi[c]).ravel()
                         for a, b, c in triples])
        weights = np.einsum("i,j,k->ijk", w, w, w).ravel()
        return np.einsum("mi,i,ni->mn", vals, weights, vals)
    raise ValueError(f"no quadrature for basis kind {basis.kind!r}")


def orthonormal_derivative_matrix(size: int) -> np.ndarray:
    """d/dx on phi_n: entries (n-1,n) = sqrt(n/2), (n+1,n) = -sqrt((n+1)/2),
    from the classical recurrences (independent of the library builders)."""
    D = np.zeros((size, size))
    for n in range(size):
        if n - 1 >= 0:
            D[n - 1, n] = sqrt(n / 2.0)
        if n + 1 < size:
            D[n + 1, n] = -sqrt((n + 1) / 2.0)
    return D


def lz_single_excitation_block() -> np.ndarray:
    """i(a_y^H a_x - a_x^H a_y) restricted to the degree-1 triple, ordered
    (0,0,1), (0,1,0), (1,0,0): worked out by hand from the hop action."""
    return np.array([
        [0, 0, 0],
        [0, 0, 1j],
        [0, -1j, 0],
    ], dtype=complex)


def nearly_hermitian_matrix() -> np.ndarray:
    """50 (A + A^T) for the 8 x 8 standard normal A of seed 0 (max entry
    about 155), with entry [0, 1] moved by 1.5e-10: Hermitian within the
    relative flag check, 1e-12 max(1, max|M|), but not within an absolute
    1e-10."""
    A = np.random.default_rng(0).standard_normal((8, 8))
    M = 50.0 * (A + A.T)
    M[0, 1] += 1.5e-10
    return M


def matrix_commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return A @ B - B @ A


def densify(blocks, stacks) -> np.ndarray:
    """The dense form of a block-held array, zero between blocks: the N x N
    matrix of (k, s, s) stacks, or the N-vector of (k, s) eigenvalue stacks,
    on the groups of ``blocks``."""
    n = blocks.size
    if stacks[0].ndim == 2:
        out = np.zeros(n, dtype=stacks[0].dtype)
        for idx, w in zip(blocks.groups, stacks):
            out[idx] = w
        return out
    out = np.zeros((n, n), dtype=stacks[0].dtype)
    for idx, S in zip(blocks.groups, stacks):
        out[idx[:, :, None], idx[:, None, :]] = S
    return out


def dense_hamiltonian(H, t: float) -> np.ndarray:
    """sum b_a(t) H_a summed from zero in term order on the full N x N term
    matrices."""
    n = H.basis.size
    M = np.zeros((n, n), dtype=np.result_type(*(op.matrix for _, op, _ in H.terms)))
    for coeff, op, _ in H.terms:
        M += coeff(t) * op.matrix
    return M


def _real_view_product(M: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """M @ Q, a real M acting on complex Q through Q's (re, im) float64 view."""
    if np.iscomplexobj(M):
        return M @ Q
    Q = np.ascontiguousarray(Q, dtype=np.complex128)
    Y = M @ Q.view(np.float64).reshape(Q.shape[0], -1)
    return Y.view(np.complex128).reshape(Y.shape[0], *Q.shape[1:])


def reference_rk4_projector_step(H, t: float, h: float, P: np.ndarray) -> np.ndarray:
    """Classical RK4 on dP/dt = -i[H(t), P] with dense products and fresh
    temporaries, the commutator as -i(X - X^H) with X = H P."""
    M0, Mm, M1 = (dense_hamiltonian(H, s) for s in (t, t + 0.5 * h, t + h))

    def comm(M, Q):
        X = _real_view_product(M, Q)
        return -1j * (X - X.conj().T)

    k1 = comm(M0, P)
    k2 = comm(Mm, P + (0.5 * h) * k1)
    k3 = comm(Mm, P + (0.5 * h) * k2)
    k4 = comm(M1, P + h * k3)
    return P + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_projector_flow(H, P: np.ndarray, times, reproject_every: int, reproject):
    """The projector flow in basis order over consecutive grid times: each
    step is a reference RK4 step, the symmetrization 0.5 (P + P^H) and, every
    reproject_every-th step, ``reproject``.  Yields, per step, the RK4 output
    before any correction and the P the next step starts from."""
    for k, (t, t_next) in enumerate(zip(times, times[1:]), start=1):
        raw = reference_rk4_projector_step(H, t, t_next - t, P)
        P = raw.copy()
        P += P.conj().T
        P *= 0.5
        if k % reproject_every == 0:
            P = reproject(P)
        yield raw, P


def reference_magnus2_step(H, t: float, tau: float, vec: np.ndarray) -> np.ndarray:
    """exp(-i tau H(t + tau/2)) vec through one eigendecomposition of the
    dense midpoint matrix."""
    w, V = np.linalg.eigh(dense_hamiltonian(H, t + tau / 2.0))
    phases = np.exp(-1j * tau * w)
    z = V.conj().T @ vec
    return V @ (phases * z if vec.ndim == 1 else phases[:, None] * z)
