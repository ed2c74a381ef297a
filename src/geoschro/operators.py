"""Concrete operators on truncated bases.

Everything is a dense matrix with a symmetry flag and explicit band
accounting: raise_band is the maximum index increase one application can
produce, lower_band the maximum decrease.  A vector supported on the first
N - k*raise_band indices sees no truncation error under k applications,
which is what safe_subspace certifies.

BUILTINS is the one table of builtin operators, name -> (the basis kind it
needs, its constructor); build_named checks the kind and builds that name
alone.  The Hermite operators are table entries {offset d: (upper(k),
lower(k))}, their diagonals written from closed-form ladder expressions
rather than products of the truncated x and p matrices; products corrupt the
last rows/columns of the truncation while the closed forms are exact everywhere.
"""

from __future__ import annotations

import reprlib
from dataclasses import InitVar, dataclass
from functools import partial
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
from .numerics import apply_exp_step, hermitian_eigendecompose, hermitian_part
from .serialize import json_complex, json_integer
from .tolerances import DEFAULT, Tolerances

SYMMETRIES = ("hermitian", "skew_hermitian", "none")


def flag_violation(M: np.ndarray, symmetry: str, rel_tol: float) -> float:
    """How far M breaks its symmetry flag -- max|M - M^H| for "hermitian",
    max|M + M^H| for "skew_hermitian" -- when that exceeds rel_tol times
    max(1, max|M|); 0.0 when the flag holds, as "none" always does."""
    if symmetry == "none":
        return 0.0
    Mh = M.conj().T
    dev = float(np.max(np.abs(M - Mh if symmetry == "hermitian" else M + Mh)))
    return 0.0 if dev <= rel_tol * max(1.0, float(np.max(np.abs(M)))) else dev


def _band_limits(M: np.ndarray) -> tuple[int, int]:
    rows, cols = np.nonzero(M)
    if rows.size == 0:
        return 0, 0
    return max(0, int(np.max(rows - cols))), max(0, int(np.max(cols - rows)))


@dataclass(frozen=True)
class OperatorMatrix:
    """A dense operator matrix whose symmetry flag is checked against the
    flag tolerance of ``tol`` and whose declared bands are checked to cover
    its nonzero pattern.  It is stored as complex128 when any entry has a
    nonzero imaginary part and as a C-contiguous float64 array otherwise."""

    basis: BasisSpec
    matrix: np.ndarray
    symmetry: str
    raise_band: int
    lower_band: int
    tol: InitVar[Tolerances] = DEFAULT

    def __post_init__(self, tol):
        M = np.asarray(self.matrix)
        real = not (np.iscomplexobj(M) and np.any(M.imag))
        M = np.ascontiguousarray(M.real if real else M, np.float64 if real else np.complex128)
        n = self.basis.size
        if M.shape != (n, n):
            raise BasisMismatch(f"matrix shape {M.shape} does not match basis size {n}")
        if not np.all(np.isfinite(M.view(np.float64))):
            raise ValueError("non-finite matrix entries")
        if self.symmetry not in SYMMETRIES:
            raise ValueError(f"unknown symmetry flag: {reprlib.repr(self.symmetry)}")
        dev = flag_violation(M, self.symmetry, tol.flag_check)
        if dev:
            flag = "hermitian" if self.symmetry == "hermitian" else "skew"
            raise ValueError(f"{flag} flag violated by {dev:.3e}")
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
        M = np.asarray(M)
        if symmetry is None:
            symmetry = next(s for s in SYMMETRIES if not flag_violation(M, s, tol.flag_check))
        rb, lb = _band_limits(M)
        return OperatorMatrix(basis, M, symmetry, rb, lb, tol)

    def apply(self, psi: StateVector) -> StateVector:
        if psi.basis != self.basis:
            raise BasisMismatch("operator and state bases differ")
        return StateVector(self.basis, self.matrix @ psi.coefficients)

    def scaled(self, factor: complex, tol: Tolerances = DEFAULT) -> "OperatorMatrix":
        """Scalar multiple; the flag follows the factor: a real one keeps it,
        a purely imaginary one swaps hermitian and skew_hermitian (i*Hermitian
        is skew), and any other factor, or a "none" operator, has its flag
        inferred from the product."""
        z, symmetry = complex(factor), None
        if self.symmetry != "none":
            if z.imag == 0:
                symmetry = self.symmetry
            elif z.real == 0:
                symmetry = "skew_hermitian" if self.symmetry == "hermitian" else "hermitian"
        return OperatorMatrix.from_matrix(self.basis, factor * self.matrix, symmetry, tol)

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.matrix)))

    @staticmethod
    def from_json_dict(d: dict) -> "OperatorMatrix":
        basis = BasisSpec.from_json_dict(d["basis"])
        return OperatorMatrix(basis, json_complex(d), d["symmetry"],
                              json_integer(d["raise_band"], "raise_band"),
                              json_integer(d["lower_band"], "lower_band"))


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
# builtin operators


def _ladder(bands: dict):
    """The constructor of the Hermitian operator with upper(k) at (k, k+d) and
    lower(k) at (k+d, k), k = 0..N-1-d, for each band d: (upper, lower) of
    its table entry; both declared bands are the largest d.  Both triangles
    are given, so every entry is its closed form's own expression and no
    signed zero is carried from one triangle to the other by a conjugate."""
    def build(basis: BasisSpec) -> OperatorMatrix:
        n = basis.size
        diagonals = []  # (k, k + d, upper(k), lower(k))
        for d, (upper, lower) in bands.items():
            k = np.arange(n - d)
            diagonals.append((k, k + d, upper(k), lower(k)))
        M = np.zeros((n, n), np.result_type(*(up for _, _, up, _ in diagonals)))
        for k, kd, up, low in diagonals:
            M[k, kd] = up
            M[kd, k] = low
        return OperatorMatrix(basis, M, "hermitian", max(bands), max(bands))
    return build


def _x(k):      # x_{k,k+1} = sqrt((k+1)/2), x = (a + a^dag)/sqrt(2)
    return np.sqrt((k + 1) / 2.0)


def _a2(k):     # (a^2)_{k,k+2} = sqrt((k+1)(k+2))
    return np.sqrt((k + 1.0) * (k + 2.0))


def _angular_momentum(axis_a: int, axis_b: int, basis: BasisSpec) -> OperatorMatrix:
    """L along the axis other than a and b, i(a_b^dag a_a - a_a^dag a_b), on
    the degree-graded 3-d Hermite basis.  Every term raises one mode and
    lowers another, so total degree is preserved and the truncation to
    degree <= d is exact (block-diagonal by degree)."""
    tuples = hermite3d_index_tuples(basis.degree)
    index = {t: i for i, t in enumerate(tuples)}
    n = basis.size

    def hop_matrix(dst: int, src: int) -> np.ndarray:
        # a_dst^dag a_src
        M = np.zeros((n, n))
        for j, t in enumerate(tuples):
            if t[src] == 0:
                continue
            u = list(t)
            u[src] -= 1
            u[dst] += 1
            M[index[tuple(u)], j] = sqrt(t[src]) * sqrt(u[dst])
        return M

    M = 1j * (hop_matrix(axis_b, axis_a) - hop_matrix(axis_a, axis_b))
    return OperatorMatrix.from_matrix(basis, M, "hermitian")


def _fourier_p2(basis: BasisSpec) -> OperatorMatrix:
    """Diagonal p^2 on the interval Fourier basis (convention p = -i d/dx).

    Sin mode k carries (pi(k+1)/l)^2, cos mode k carries (pi k/l)^2; the flow
    exp(-i t p^2) therefore multiplies each mode by exp(-i t lambda).
    """
    j = np.arange(basis.size)
    freq = np.where(j % 2 == 0, j // 2 + 1, j // 2)
    # pow(), as Python's float ** 2 computes it; numpy's ** 2 squares, 1 ulp off at times
    diag = np.float_power(pi * freq / basis.interval_halflength, 2)
    return OperatorMatrix(basis, np.diag(diag), "hermitian", 0, 0)


# name -> (the basis kind it needs, None for any; its constructor).  The
# Hermite entries are closed-form ladder expressions:
#   x^2 = (n + 1/2) + (a^2 + a^dag^2)/2      p^2 = (n + 1/2) - (a^2 + a^dag^2)/2
#   xp+px = i(a^dag^2 - a^2)                 p = -i d/dx = -i(a - a^dag)/sqrt(2)
_HERMITE = "hermite1d_orthonormal"
BUILTINS = {
    "p2": (_HERMITE, _ladder({0: (lambda k: k + 0.5,) * 2, 2: (lambda k: -_a2(k) / 2.0,) * 2})),
    "x2": (_HERMITE, _ladder({0: (lambda k: k + 0.5,) * 2, 2: (lambda k: _a2(k) / 2.0,) * 2})),
    "xp_px": (_HERMITE, _ladder({2: (lambda k: -1j * _a2(k), lambda k: 1j * _a2(k))})),
    "p": (_HERMITE, _ladder({1: (lambda k: -1j * _x(k), lambda k: 1j * _x(k))})),
    "x": (_HERMITE, _ladder({1: (_x, _x)})),
    "id": (None, _ladder({0: (lambda k: np.ones(k.size),) * 2})),
    "Lx": ("hermite3d_degree", partial(_angular_momentum, 1, 2)),   # y p_z - z p_y
    "Ly": ("hermite3d_degree", partial(_angular_momentum, 2, 0)),   # z p_x - x p_z
    "Lz": ("hermite3d_degree", partial(_angular_momentum, 0, 1)),   # x p_y - y p_x
    "fourier_p2": ("fourier_interval", _fourier_p2),
}
BUILTIN_OPERATORS = tuple(BUILTINS)


def build_named(name: str, basis: BasisSpec) -> OperatorMatrix:
    if name not in BUILTINS:
        raise UnsupportedBasis(f"not a builtin operator: {name!r}")
    kind, build = BUILTINS[name]
    if kind is not None and basis.kind != kind:
        raise UnsupportedBasis(f"operator needs basis kind {kind!r}, got {basis.kind!r}")
    return build(basis)


def metaplectic_set(basis: BasisSpec) -> list[OperatorMatrix]:
    """[p^2, x^2, xp+px, p, x, Id] -- the driven-oscillator generator set."""
    return [build_named(name, basis) for name in ("p2", "x2", "xp_px", "p", "x", "id")]


# ---------------------------------------------------------------------------
# commutators and truncation-safety accounting


def commutator(A: OperatorMatrix, B: OperatorMatrix, tol: Tolerances = DEFAULT) -> OperatorMatrix:
    """AB - BA with added bands and the inferred symmetry flag.  With A and B
    flagged Hermitian or skew, X = AB is formed once and BA = -/+X^H, so a like
    pair gives X - X^H, exactly skew, and a mixed pair X + X^H, exactly Hermitian."""
    if A.basis != B.basis:
        raise BasisMismatch("commutator requires one common basis")
    X = A.matrix @ B.matrix
    if "none" in (A.symmetry, B.symmetry):
        symmetry, K = "none", X - B.matrix @ A.matrix
    elif A.symmetry == B.symmetry:
        symmetry, K = "skew_hermitian", X - X.conj().T
    else:
        symmetry, K = "hermitian", X + X.conj().T
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


def safe_subspace(A: OperatorMatrix, applications: int) -> int:
    """The largest index of the prefix on which k applications of A incur no
    truncation error."""
    if applications < 0:
        raise ValueError("applications must be >= 0")
    max_index = A.basis.size - 1 - applications * A.raise_band
    if max_index < 0:
        raise DomainExhausted(
            f"{applications} applications of raise_band {A.raise_band} exhaust size {A.basis.size}"
        )
    return max_index


def flow_commutator(A: OperatorMatrix, B: OperatorMatrix, psi: StateVector,
                    h: float, tol: Tolerances = DEFAULT) -> StateVector:
    """Vector-field commutator [X_A, X_B]psi from the one-parameter
    group-commutator path, central second difference in the path parameter.

    g(t) = e^{-tA} e^{-tB} e^{tA} e^{tB} psi expands to
    psi + t^2 [A,B] psi + O(t^3), so (g(h) - 2 g(0) + g(-h)) / (2 h^2)
    approximates commutator(A, B) psi with O(h^2) error.  A and B must be
    flagged skew-Hermitian; the flows step the exact Hermitian parts of iA, iB.
    """
    if A.basis != B.basis or A.basis != psi.basis:
        raise BasisMismatch("flow commutator requires one common basis")
    for name, O in (("A", A), ("B", B)):
        if O.symmetry != "skew_hermitian":
            raise NotSkewHermitian(f"{name} is not flagged skew-Hermitian")
    budget = psi.basis.size - 1 - 2 * (A.raise_band + B.raise_band)
    if support_max(psi, tol.support) > budget:
        raise UnsafeSubspace(
            f"state support exceeds index {budget} safe for two applications of each flow"
        )
    # skew G = -i H with H Hermitian; e^{tG} = e^{-i t H}
    esA = hermitian_eigendecompose(hermitian_part(1j * A.matrix), tol)
    esB = hermitian_eigendecompose(hermitian_part(1j * B.matrix), tol)

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
    safe = safe_subspace(A, n_max)
    if support_max(psi, tol.support) > safe:
        raise UnsafeSubspace(
            f"support exceeds safe index {safe} for {n_max} applications"
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
