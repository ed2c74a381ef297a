"""Concrete operators on truncated bases.

Everything is a dense matrix with a symmetry flag and explicit band
accounting: raise_band is the maximum index increase one application can
produce, lower_band the maximum decrease.  A vector supported on the first
N - k*raise_band indices sees no truncation error under k applications,
which is what safe_subspace certifies.

Quadratic operators are written from closed-form ladder expressions rather
than products of the truncated x and p matrices; products corrupt the last
rows/columns of the truncation while the closed forms are exact everywhere.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from math import factorial, pi, sqrt

import numpy as np

from .errors import (
    BasisMismatch,
    DomainExhausted,
    NotSkewHermitian,
    UnsafeSubspace,
    UnsupportedBasis,
)
from .hilbert import BasisSpec, StateVector, hermite3d_index_tuples, norm
from .numerics import hermitian_eigendecompose, apply_exp_step
from .tolerances import DEFAULT, Tolerances

SYMMETRIES = ("hermitian", "skew_hermitian", "none")


def _band_limits(M: np.ndarray) -> tuple[int, int]:
    rows, cols = np.nonzero(M)
    if rows.size == 0:
        return 0, 0
    return max(0, int(np.max(rows - cols))), max(0, int(np.max(cols - rows)))


@dataclass(frozen=True)
class OperatorMatrix:
    """A dense operator matrix whose symmetry flag is checked against the
    flag tolerance of ``tol`` and whose declared bands are checked to cover
    its nonzero pattern."""

    basis: BasisSpec
    matrix: np.ndarray
    symmetry: str
    raise_band: int
    lower_band: int
    tol: InitVar[Tolerances] = DEFAULT

    def __post_init__(self, tol):
        M = np.asarray(self.matrix, dtype=np.complex128)
        n = self.basis.size
        if M.shape != (n, n):
            raise BasisMismatch(f"matrix shape {M.shape} does not match basis size {n}")
        if not np.all(np.isfinite(M.view(np.float64))):
            raise ValueError("non-finite matrix entries")
        if self.symmetry not in SYMMETRIES:
            raise ValueError(f"unknown symmetry flag: {self.symmetry!r}")
        scale = max(1.0, float(np.max(np.abs(M))) if M.size else 1.0)
        if self.symmetry == "hermitian":
            dev = float(np.max(np.abs(M - M.conj().T)))
            if dev > tol.flag_check * scale:
                raise ValueError(f"hermitian flag violated by {dev:.3e}")
        elif self.symmetry == "skew_hermitian":
            dev = float(np.max(np.abs(M + M.conj().T)))
            if dev > tol.flag_check * scale:
                raise ValueError(f"skew flag violated by {dev:.3e}")
        rb, lb = _band_limits(M)
        if rb > self.raise_band or lb > self.lower_band:
            raise ValueError(
                f"declared bands ({self.raise_band},{self.lower_band}) "
                f"narrower than actual ({rb},{lb})"
            )
        object.__setattr__(self, "matrix", M)

    @staticmethod
    def from_matrix(basis: BasisSpec, M: np.ndarray, symmetry: str | None = None,
                    tol: Tolerances = DEFAULT) -> "OperatorMatrix":
        """Wrap a raw matrix, measuring bands and inferring the symmetry flag."""
        M = np.asarray(M, dtype=np.complex128)
        if symmetry is None:
            scale = max(1.0, float(np.max(np.abs(M))) if M.size else 1.0)
            if float(np.max(np.abs(M - M.conj().T))) <= tol.flag_check * scale:
                symmetry = "hermitian"
            elif float(np.max(np.abs(M + M.conj().T))) <= tol.flag_check * scale:
                symmetry = "skew_hermitian"
            else:
                symmetry = "none"
        rb, lb = _band_limits(M)
        return OperatorMatrix(basis, M, symmetry, rb, lb, tol)

    def apply(self, psi: StateVector) -> StateVector:
        if psi.basis != self.basis:
            raise BasisMismatch("operator and state bases differ")
        return StateVector(self.basis, self.matrix @ psi.coefficients)

    def scaled(self, factor: complex, tol: Tolerances = DEFAULT) -> "OperatorMatrix":
        """Scalar multiple; the flag follows the factor (i*Hermitian is skew)."""
        return OperatorMatrix.from_matrix(self.basis, factor * self.matrix, tol=tol)

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.matrix)))

    def to_json_dict(self) -> dict:
        return {
            "basis": self.basis.to_json_dict(),
            "symmetry": self.symmetry,
            "raise_band": self.raise_band,
            "lower_band": self.lower_band,
            "re": self.matrix.real.tolist(),
            "im": self.matrix.imag.tolist(),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "OperatorMatrix":
        basis = BasisSpec.from_json_dict(d["basis"])
        M = np.asarray(d["re"], dtype=float) + 1j * np.asarray(d["im"], dtype=float)
        return OperatorMatrix(basis, M, d["symmetry"], int(d["raise_band"]), int(d["lower_band"]))


@dataclass(frozen=True)
class DomainMask:
    """Prefix subspace: the span of the first max_index+1 basis elements."""

    basis: BasisSpec
    max_index: int

    def __post_init__(self):
        if not (0 <= self.max_index < self.basis.size):
            raise DomainExhausted(f"max_index {self.max_index} outside basis of size {self.basis.size}")


@dataclass(frozen=True)
class AnalyticCertificate:
    operator: OperatorMatrix
    vector: StateVector
    n_max: int
    norms: np.ndarray          # |B^n psi| for n = 0..n_max
    fitted_C: float            # max over n>=1 of (|B^n psi| / n!)^(1/n)
    claimed_C: float | None
    holds: bool | None         # claimed_C >= fitted_C, None when no claim


# ---------------------------------------------------------------------------
# constructors


def _require_kind(basis: BasisSpec, kind: str):
    if basis.kind != kind:
        raise UnsupportedBasis(f"operator needs basis kind {kind!r}, got {basis.kind!r}")


def build_position(basis: BasisSpec) -> OperatorMatrix:
    """x = (a + a^dag)/sqrt(2); tridiagonal with x_{n,n+1} = sqrt((n+1)/2)."""
    _require_kind(basis, "hermite1d_orthonormal")
    n = basis.size
    off = np.sqrt(np.arange(1, n) / 2.0)
    M = np.zeros((n, n), dtype=np.complex128)
    M[np.arange(n - 1), np.arange(1, n)] = off
    M[np.arange(1, n), np.arange(n - 1)] = off
    return OperatorMatrix(basis, M, "hermitian", 1, 1)


def build_momentum(basis: BasisSpec) -> OperatorMatrix:
    """p = -i d/dx = -i(a - a^dag)/sqrt(2); p_{n,n+1} = -i sqrt((n+1)/2)."""
    _require_kind(basis, "hermite1d_orthonormal")
    n = basis.size
    off = np.sqrt(np.arange(1, n) / 2.0)
    M = np.zeros((n, n), dtype=np.complex128)
    M[np.arange(n - 1), np.arange(1, n)] = -1j * off
    M[np.arange(1, n), np.arange(n - 1)] = 1j * off
    return OperatorMatrix(basis, M, "hermitian", 1, 1)


def build_quadratics(basis: BasisSpec) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """(x^2, p^2, xp+px) from closed-form ladder expressions.

    x^2 = (n + 1/2) diag + (a^2 + a^dag^2)/2
    p^2 = (n + 1/2) diag - (a^2 + a^dag^2)/2
    xp+px = i(a^dag^2 - a^2)
    """
    _require_kind(basis, "hermite1d_orthonormal")
    n = basis.size
    diag = np.arange(n) + 0.5
    x2 = np.zeros((n, n), dtype=np.complex128)
    p2 = np.zeros((n, n), dtype=np.complex128)
    xppx = np.zeros((n, n), dtype=np.complex128)
    x2[np.arange(n), np.arange(n)] = diag
    p2[np.arange(n), np.arange(n)] = diag
    if n > 2:
        rows = np.arange(n - 2)
        # couples index k and k+2 with weight sqrt((k+1)(k+2))
        two_down = np.sqrt((rows + 1.0) * (rows + 2.0))
        x2[rows, rows + 2] = two_down / 2.0
        x2[rows + 2, rows] = two_down / 2.0
        p2[rows, rows + 2] = -two_down / 2.0
        p2[rows + 2, rows] = -two_down / 2.0
        xppx[rows, rows + 2] = -1j * two_down
        xppx[rows + 2, rows] = 1j * two_down
    return (
        OperatorMatrix(basis, x2, "hermitian", 2, 2),
        OperatorMatrix(basis, p2, "hermitian", 2, 2),
        OperatorMatrix(basis, xppx, "hermitian", 2, 2),
    )


def build_identity(basis: BasisSpec) -> OperatorMatrix:
    return OperatorMatrix(basis, np.eye(basis.size, dtype=np.complex128), "hermitian", 0, 0)


def build_derivative_probabilist(basis: BasisSpec) -> OperatorMatrix:
    """d/dx on He_n(x)e^{-x^2/2}: maps basis element n to -(element n+1)."""
    _require_kind(basis, "hermite1d_probabilist")
    n = basis.size
    M = np.zeros((n, n), dtype=np.complex128)
    M[np.arange(1, n), np.arange(n - 1)] = -1.0
    return OperatorMatrix(basis, M, "none", 1, 0)


def build_angular_momentum(basis: BasisSpec) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """(L_x, L_y, L_z) on the degree-graded 3-d Hermite basis.

    In ladder form L_z = i(a_y^dag a_x - a_x^dag a_y) and cyclic; every term
    raises one mode and lowers another, so total degree is preserved and the
    truncation to degree <= d is exact (block-diagonal by degree).
    """
    _require_kind(basis, "hermite3d_degree")
    tuples = hermite3d_index_tuples(basis.degree)
    index = {t: i for i, t in enumerate(tuples)}
    n = basis.size

    def hop_matrix(dst: int, src: int) -> np.ndarray:
        # a_dst^dag a_src
        M = np.zeros((n, n), dtype=np.complex128)
        for j, t in enumerate(tuples):
            if t[src] == 0:
                continue
            u = list(t)
            u[src] -= 1
            u[dst] += 1
            M[index[tuple(u)], j] = sqrt(t[src]) * sqrt(u[dst])
        return M

    def L(axis_a: int, axis_b: int) -> np.ndarray:
        # i (a_b^dag a_a - a_a^dag a_b) for L along the remaining axis
        return 1j * (hop_matrix(axis_b, axis_a) - hop_matrix(axis_a, axis_b))

    Lx = L(1, 2)   # y p_z - z p_y
    Ly = L(2, 0)   # z p_x - x p_z
    Lz = L(0, 1)   # x p_y - y p_x
    return tuple(OperatorMatrix.from_matrix(basis, M, "hermitian") for M in (Lx, Ly, Lz))


def build_fourier_p_squared(basis: BasisSpec) -> OperatorMatrix:
    """Diagonal p^2 on the interval Fourier basis (convention p = -i d/dx).

    Sin mode k carries (pi(k+1)/l)^2, cos mode k carries (pi k/l)^2; the flow
    exp(-i t p^2) therefore multiplies each mode by exp(-i t lambda).
    """
    _require_kind(basis, "fourier_interval")
    l = basis.interval_halflength
    diag = np.empty(basis.size)
    for j in range(basis.size):
        k = j // 2
        freq = (k + 1) if j % 2 == 0 else k
        diag[j] = (pi * freq / l) ** 2
    return OperatorMatrix(basis, np.diag(diag).astype(np.complex128), "hermitian", 0, 0)


def metaplectic_set(basis: BasisSpec) -> list[OperatorMatrix]:
    """[p^2, x^2, xp+px, p, x, Id] — the driven-oscillator generator set."""
    x2, p2, xppx = build_quadratics(basis)
    return [p2, x2, xppx, build_momentum(basis), build_position(basis), build_identity(basis)]


BUILTINS = {
    "p2": lambda basis: build_quadratics(basis)[1],
    "x2": lambda basis: build_quadratics(basis)[0],
    "xp_px": lambda basis: build_quadratics(basis)[2],
    "p": build_momentum,
    "x": build_position,
    "id": build_identity,
    "Lx": lambda basis: build_angular_momentum(basis)[0],
    "Ly": lambda basis: build_angular_momentum(basis)[1],
    "Lz": lambda basis: build_angular_momentum(basis)[2],
    "fourier_p2": build_fourier_p_squared,
}
BUILTIN_OPERATORS = tuple(BUILTINS)


def build_named(name: str, basis: BasisSpec) -> OperatorMatrix:
    if name not in BUILTINS:
        raise UnsupportedBasis(f"not a builtin operator: {name!r}")
    return BUILTINS[name](basis)


# ---------------------------------------------------------------------------
# commutators and truncation-safety accounting


def commutator(A: OperatorMatrix, B: OperatorMatrix, tol: Tolerances = DEFAULT) -> OperatorMatrix:
    """AB - BA with added bands and the inferred symmetry flag."""
    if A.basis != B.basis:
        raise BasisMismatch("commutator requires one common basis")
    K = A.matrix @ B.matrix - B.matrix @ A.matrix
    flags = {A.symmetry, B.symmetry}
    if flags == {"hermitian"} or flags == {"skew_hermitian"}:
        symmetry = "skew_hermitian"
        K = (K - K.conj().T) / 2.0
    elif flags == {"hermitian", "skew_hermitian"}:
        symmetry = "hermitian"
        K = (K + K.conj().T) / 2.0
    else:
        symmetry = "none"
    n = A.basis.size
    rb = min(n - 1, A.raise_band + B.raise_band)
    lb = min(n - 1, A.lower_band + B.lower_band)
    if symmetry != "none":
        rb = lb = min(n - 1, max(rb, lb))
    return OperatorMatrix(A.basis, K, symmetry, rb, lb, tol)


def support_max(psi: StateVector, support_tol: float) -> int:
    """Largest index with |c_j| above the support tolerance (-1 if none)."""
    live = np.nonzero(np.abs(psi.coefficients) > support_tol)[0]
    return int(live[-1]) if live.size else -1


def safe_subspace(A: OperatorMatrix, applications: int) -> DomainMask:
    """Prefix on which k applications of A incur no truncation error."""
    if applications < 0:
        raise ValueError("applications must be >= 0")
    max_index = A.basis.size - 1 - applications * A.raise_band
    if max_index < 0:
        raise DomainExhausted(
            f"{applications} applications of raise_band {A.raise_band} exhaust size {A.basis.size}"
        )
    return DomainMask(A.basis, max_index)


def flow_commutator(A: OperatorMatrix, B: OperatorMatrix, psi: StateVector,
                    h: float, tol: Tolerances = DEFAULT) -> StateVector:
    """Vector-field commutator [X_A, X_B]psi from the one-parameter
    group-commutator path, central second difference in the path parameter.

    g(t) = e^{-tA} e^{-tB} e^{tA} e^{tB} psi expands to
    psi + t^2 [A,B] psi + O(t^3), so (g(h) - 2 g(0) + g(-h)) / (2 h^2)
    approximates commutator(A, B) psi with O(h^2) error.
    """
    if A.basis != B.basis or A.basis != psi.basis:
        raise BasisMismatch("flow commutator requires one common basis")
    for name, O in (("A", A), ("B", B)):
        scale = max(1.0, O.max_norm())
        dev = float(np.max(np.abs(O.matrix + O.matrix.conj().T)))
        if dev > tol.skew_check * scale:
            raise NotSkewHermitian(f"{name} deviates from skew-Hermitian by {dev:.3e}")
    budget = psi.basis.size - 1 - 2 * (A.raise_band + B.raise_band)
    if support_max(psi, tol.support) > budget:
        raise UnsafeSubspace(
            f"state support exceeds index {budget} safe for two applications of each flow"
        )
    # skew G = -i H with H Hermitian; e^{tG} = e^{-i t H}
    esA = hermitian_eigendecompose(1j * A.matrix, tol)
    esB = hermitian_eigendecompose(1j * B.matrix, tol)

    def path(t: float) -> np.ndarray:
        v = apply_exp_step(esB, t, psi.coefficients)
        v = apply_exp_step(esA, t, v)
        v = apply_exp_step(esB, -t, v)
        v = apply_exp_step(esA, -t, v)
        return v

    second = (path(h) - 2.0 * psi.coefficients + path(-h)) / (2.0 * h * h)
    return StateVector(psi.basis, second)


def analytic_certificate(A: OperatorMatrix, psi: StateVector, n_max: int,
                         claimed_C: float | None = None,
                         tol: Tolerances = DEFAULT) -> AnalyticCertificate:
    """Power-norm growth record |A^n psi| and the smallest C with
    |A^n psi| <= C^n n! over 1 <= n <= n_max."""
    if psi.basis != A.basis:
        raise BasisMismatch("certificate requires matching bases")
    mask = safe_subspace(A, n_max)
    if support_max(psi, tol.support) > mask.max_index:
        raise UnsafeSubspace(
            f"support exceeds safe index {mask.max_index} for {n_max} applications"
        )
    norms = np.empty(n_max + 1)
    current = psi
    norms[0] = norm(current)
    for n in range(1, n_max + 1):
        current = A.apply(current)
        norms[n] = norm(current)
    fits = []
    for n in range(1, n_max + 1):
        if norms[n] > 0.0:
            fits.append((np.log(norms[n]) - np.log(float(factorial(n)))) / n)
    fitted = float(np.exp(max(fits))) if fits else 0.0
    holds = None if claimed_C is None else bool(claimed_C >= fitted)
    return AnalyticCertificate(A, psi, n_max, norms, fitted, claimed_C, holds)
