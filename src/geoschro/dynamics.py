"""t-dependent Hamiltonians and unitary propagation.

H(t) = sum_a b_a(t) H_a with scalar coefficient functions b_a and fixed
Hermitian operator matrices H_a.  The Schrodinger vector field is
psi -> -i H(t) psi; its Hamiltonian function is (1/2)<psi|H psi>, whose
differential along phi is 2 Re<phi|H psi> -- hamiltonian_field_residual
measures that identity through two independent code paths.

Integrators, each a step that ``_advance`` walks over a grid under one guard:

* ``exact_eig``  -- autonomous only; evaluates U(t) = V e^{-i t L} V^H
  directly at sample times from one eigendecomposition.
* ``magnus2``    -- midpoint exponential: each step applies
  exp(-i dt H(t + dt/2)) through an eigendecomposition, so every step is
  unitary to roundoff (this is what the conservation checks lean on).
* ``cayley2``    -- Crank-Nicolson: (I + i dt/2 H)^{-1} (I - i dt/2 H) with
  the midpoint generator, one dense solve per step.

Block rule: the index sets on which the terms' joint nonzero pattern splits
(parity for ``x2``/``p2``, total degree for ``Lx``/``Ly``/``Lz``) are found
once, when the Hamiltonian is built, and are invariant for every t.  The
eigendecompositions of ``exact_eig`` and ``magnus2`` decompose each block
instead of the whole H(t), under the same gates; RK4, ``cayley2`` and records
work on the whole matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite, sin

import numpy as np

from .errors import BasisMismatch, IntegratorMismatch, NotHermitian, NumericError
from .hilbert import BasisSpec, StateVector, TangentVector
from .numerics import (
    InvariantBlocks,
    apply_exp_step,
    hermitian_eigendecompose,
    invariant_blocks,
    matmul,
)
from .operators import OperatorMatrix, build_quadratics
from .tolerances import DEFAULT, Tolerances

INTEGRATOR_METHODS = ("exact_eig", "magnus2", "cayley2")
MAX_STEPS = 10**7  # the most steps one time grid may hold
COEFFICIENT_KINDS = ("constant", "sinusoid", "polynomial", "table")


@dataclass(frozen=True)
class CoefficientFn:
    """Scalar b(t): constant c; sinusoid a*sin(omega t + phase); polynomial
    in ascending powers; or a clamped piecewise-linear table."""

    kind: str
    c: float = 0.0
    a: float = 0.0
    omega: float = 0.0
    phase: float = 0.0
    coeffs: tuple = ()
    table_t: tuple = ()
    table_v: tuple = ()

    def __post_init__(self):
        if self.kind not in COEFFICIENT_KINDS:
            raise ValueError(f"unknown coefficient kind: {self.kind!r}")
        if self.kind == "polynomial" and len(self.coeffs) == 0:
            raise ValueError("polynomial coefficient needs at least one coefficient")
        if self.kind == "table":
            ts = np.asarray(self.table_t, dtype=float)
            if ts.size < 1 or np.any(np.diff(ts) <= 0):
                raise ValueError("table abscissae must be non-empty and strictly increasing")

    @staticmethod
    def constant(c: float) -> "CoefficientFn":
        return CoefficientFn("constant", c=float(c))

    @staticmethod
    def sinusoid(a: float, omega: float, phase: float = 0.0) -> "CoefficientFn":
        return CoefficientFn("sinusoid", a=float(a), omega=float(omega), phase=float(phase))

    @staticmethod
    def polynomial(coeffs) -> "CoefficientFn":
        return CoefficientFn("polynomial", coeffs=tuple(float(v) for v in coeffs))

    @staticmethod
    def table(points) -> "CoefficientFn":
        ts = tuple(float(t) for t, _ in points)
        vs = tuple(float(v) for _, v in points)
        return CoefficientFn("table", table_t=ts, table_v=vs)

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    def __call__(self, t: float) -> float:
        if self.kind == "constant":
            return self.c
        if self.kind == "sinusoid":
            arg = self.omega * t + self.phase
            if not isfinite(arg):
                raise NumericError(f"sinusoid argument {arg!r} at t={t!r} is not finite")
            return self.a * sin(arg)
        if self.kind == "polynomial":
            acc = 0.0
            for coeff in reversed(self.coeffs):
                acc = acc * t + coeff
            return acc
        return float(np.interp(t, self.table_t, self.table_v))

    def to_json_dict(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "c": self.c}
        if self.kind == "sinusoid":
            return {"kind": "sinusoid", "a": self.a, "omega": self.omega, "phase": self.phase}
        if self.kind == "polynomial":
            return {"kind": "polynomial", "coeffs": list(self.coeffs)}
        return {"kind": "table", "points": [[t, v] for t, v in zip(self.table_t, self.table_v)]}

    @staticmethod
    def from_json_dict(d: dict) -> "CoefficientFn":
        kind = d["kind"]
        if kind == "constant":
            return CoefficientFn.constant(d["c"])
        if kind == "sinusoid":
            return CoefficientFn.sinusoid(d["a"], d["omega"], d.get("phase", 0.0))
        if kind == "polynomial":
            return CoefficientFn.polynomial(d["coeffs"])
        if kind == "table":
            return CoefficientFn.table(d["points"])
        raise ValueError(f"unknown coefficient kind: {kind!r}")


@dataclass(frozen=True)
class TDepHamiltonian:
    """H(t) = sum b_a(t) H_a.  Each H_a keeps the dtype its OperatorMatrix
    chose, so H(t) is float64 exactly when every term is real.  ``blocks``
    holds the invariant blocks of the H_a, found once here."""

    terms: tuple  # of (CoefficientFn, OperatorMatrix, label)
    blocks: InvariantBlocks = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("Hamiltonian needs at least one term")
        basis = terms[0][1].basis
        for coeff, op, label in terms:
            if op.basis != basis:
                raise BasisMismatch(f"term {label!r} uses a different basis")
            if op.symmetry != "hermitian":
                raise NotHermitian(f"term {label!r} is not flagged Hermitian")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "blocks", invariant_blocks([op.matrix for _, op, _ in terms]))

    @property
    def basis(self):
        return self.terms[0][1].basis

    @property
    def is_autonomous(self) -> bool:
        return all(coeff.is_constant for coeff, _, _ in self.terms)


def oscillator_hamiltonian(size: int, drive: float = 0.0) -> TDepHamiltonian:
    """(1/2)p^2 + (1/2)x^2 + drive sin(t) x^2 on the orthonormal Hermite basis;
    autonomous when drive is 0."""
    x2, p2, _ = build_quadratics(BasisSpec.hermite(size))
    terms = [
        (CoefficientFn.constant(0.5), p2, "p2"),
        (CoefficientFn.constant(0.5), x2, "x2"),
    ]
    if drive:
        terms.append((CoefficientFn.sinusoid(drive, 1.0), x2, "x2_drive"))
    return TDepHamiltonian(tuple(terms))


def assemble(H: TDepHamiltonian, t: float) -> np.ndarray:
    """H(t) = sum b_a(t) H_a as a raw array: float64 when every term is real,
    complex128 otherwise.

    The terms were checked for basis and Hermitian flag when H was built and
    every b_a(t) is a real float, so the sum is Hermitian by construction;
    only overflow is left to check.
    """
    n = H.basis.size
    M = np.zeros((n, n), dtype=np.result_type(*(op.matrix for _, op, _ in H.terms)))
    try:
        with np.errstate(over="raise", invalid="raise"):
            for coeff, op, _ in H.terms:
                M += coeff(t) * op.matrix
    except FloatingPointError as exc:
        raise NumericError(f"non-finite H(t) entries at t={t!r}") from exc
    if not np.all(np.isfinite(M.view(np.float64))):
        raise NumericError(f"non-finite H(t) entries at t={t!r}")
    return M


def schrodinger_rhs(H: TDepHamiltonian, t: float, psi: StateVector) -> TangentVector:
    """The Schrodinger vector field at (t, psi): direction -i H(t) psi."""
    if psi.basis != H.basis:
        raise BasisMismatch("state basis does not match the Hamiltonian")
    return TangentVector(psi, StateVector(psi.basis, -1j * matmul(assemble(H, t), psi.coefficients)))


def average_value(A: OperatorMatrix, psi: StateVector, tol: Tolerances = DEFAULT) -> float:
    """<psi|A psi> for Hermitian A; asserts the imaginary residue is roundoff."""
    if A.symmetry != "hermitian":
        raise NotHermitian("average value requires a Hermitian operator")
    if psi.basis != A.basis:
        raise BasisMismatch("average value requires matching bases")
    q = complex(np.vdot(psi.coefficients, A.matrix @ psi.coefficients))
    if abs(q.imag) > tol.imag_part * (1.0 + abs(q)):
        raise NotHermitian(f"imaginary residue {q.imag:.3e} in a Hermitian average")
    return q.real


def hamiltonian_function(A: OperatorMatrix, psi: StateVector, tol: Tolerances = DEFAULT) -> float:
    """The Hamiltonian function of the flow of -iA: (1/2)<psi|A psi>."""
    return 0.5 * average_value(A, psi, tol)


def differential_of_average(A: OperatorMatrix, psi: StateVector, phi: TangentVector) -> float:
    """d<psi|A psi> evaluated on phi: 2 Re<phi|A psi>."""
    if A.symmetry != "hermitian":
        raise NotHermitian("differential of average requires a Hermitian operator")
    if psi.basis != A.basis or phi.direction.basis != A.basis:
        raise BasisMismatch("differential of average requires matching bases")
    return 2.0 * complex(np.vdot(phi.direction.coefficients, A.matrix @ psi.coefficients)).real


def hamiltonian_field_residual(A: OperatorMatrix, psi: StateVector, phi: TangentVector) -> float:
    """|omega(-iA psi, phi) - (1/2) d<psi|A psi>(phi)|; analytically zero."""
    from .hilbert import symplectic_form

    field = TangentVector(psi, StateVector(psi.basis, -1j * (A.matrix @ psi.coefficients)))
    based_phi = TangentVector(psi, phi.direction)
    lhs = symplectic_form(field, based_phi)
    rhs = 0.5 * differential_of_average(A, psi, phi)
    return abs(lhs - rhs)


@dataclass(frozen=True)
class IntegratorSpec:
    method: str
    dt: float

    def __post_init__(self):
        if self.method not in INTEGRATOR_METHODS:
            raise ValueError(f"unknown integrator method: {self.method!r}")
        if not self.dt > 0:
            raise ValueError("dt must be positive")


@dataclass(frozen=True)
class TrajectoryRecord:
    t: float
    norm: float
    momentum_J: float
    energy: float
    state: StateVector = field(repr=False)

    def to_json_dict(self, include_coefficients: bool = False) -> dict:
        out = {"t": self.t, "norm": self.norm, "J": self.momentum_J, "energy": self.energy}
        if include_coefficients:
            out["re"] = self.state.coefficients.real.tolist()
            out["im"] = self.state.coefficients.imag.tolist()
        return out


def _time_grid(t0: float, t1: float, dt: float, knots=()) -> list[float]:
    """Closed grid t0, t0+dt, ... with the final step shortened onto t1.

    The grid restarts at every knot strictly inside (t0, t1), so it passes
    exactly through each of them.  A grid that would need more than
    MAX_STEPS steps is a NumericError, raised before it is built.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if t1 < t0:
        raise ValueError("t1 must not precede t0")
    bounds = [t0] + sorted({float(k) for k in knots if t0 < k < t1}) + [t1]
    times = [t0]
    for a, b in zip(bounds[:-1], bounds[1:]):
        steps = (float(b) - float(a)) / dt
        left = MAX_STEPS - (len(times) - 1)
        if steps > left:
            raise NumericError(f"time grid needs {steps:.6g} more steps, "
                               f"only {left} of MAX_STEPS={MAX_STEPS} are left")
        # tolerate 1-ulp-scale misfits so dt that "divides" (b-a) lands exactly
        slack = 64.0 * np.finfo(float).eps * max(1.0, abs(b), abs(a))
        k = 1
        while a + k * dt < b - slack:
            times.append(a + k * dt)
            k += 1
        if b > a:
            times.append(b)
    return times


def _record_flags(times: list[float], stride: int, record_times=None) -> list[bool]:
    """Which grid points to record: exactly ``record_times`` when given,
    otherwise the first point, every stride-th step and the last point."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if record_times is not None:
        wanted = {float(t) for t in record_times}
        return [t in wanted for t in times]
    last = len(times) - 1
    return [k == 0 or k % stride == 0 or k == last for k in range(len(times))]


def _record(H: TDepHamiltonian, t: float, coeffs: np.ndarray) -> TrajectoryRecord:
    psi = StateVector(H.basis, coeffs)
    nrm = float(np.linalg.norm(coeffs))
    energy = complex(np.vdot(coeffs, matmul(assemble(H, t), coeffs))).real / (nrm * nrm)
    return TrajectoryRecord(t, nrm, -0.5 * nrm * nrm, energy, psi)


def _step_operators(H: TDepHamiltonian, spec: IntegratorSpec, tol: Tolerances):
    """Returns step(t, tau, vec) advancing vec from t to t+tau."""
    if spec.method == "exact_eig":
        if not H.is_autonomous:
            raise IntegratorMismatch("exact_eig requires constant coefficients")
        es = hermitian_eigendecompose(assemble(H, 0.0), tol, H.blocks)

        def step(t, tau, vec):
            return apply_exp_step(es, tau, vec)

        return step

    if spec.method == "magnus2":

        def step(t, tau, vec):
            es = hermitian_eigendecompose(assemble(H, t + tau / 2.0), tol, H.blocks)
            return apply_exp_step(es, tau, vec)

        return step

    def step(t, tau, vec):  # cayley2
        M = assemble(H, t + tau / 2.0)
        n = M.shape[0]
        eye = np.eye(n, dtype=np.complex128)
        return np.linalg.solve(eye + 0.5j * tau * M, vec - 0.5j * tau * matmul(M, vec))

    return step


def _advance(step, times: list[float], vec0: np.ndarray, what: str, from_origin: bool = False):
    """Yield (k, vec at times[k]) for k >= 1 via step(t, tau, vec): from times[0]
    and vec0 if ``from_origin``, else chained, dropping vec0.  Steps run under one
    overflow guard, left before each yield; a trip names ``what`` and times[k]."""
    current, vec0 = vec0, (vec0 if from_origin else None)  # a chain holds vec0 one step only
    for k in range(1, len(times)):
        try:
            with np.errstate(over="raise", invalid="raise"):
                if from_origin:
                    current = step(times[0], times[k] - times[0], vec0)
                else:
                    current = step(times[k - 1], times[k] - times[k - 1], current)
        except FloatingPointError as exc:
            raise NumericError(f"{what} overflowed at t={times[k]!r}") from exc
        yield k, current


def propagate(H: TDepHamiltonian, psi0: StateVector, spec: IntegratorSpec,
              t0: float, t1: float, stride: int = 1,
              tol: Tolerances = DEFAULT) -> list[TrajectoryRecord]:
    """Propagate psi0 from t0 to t1, recording every stride-th step plus the
    endpoints.  The grid walks in steps of spec.dt with the final step
    shortened to land exactly on t1."""
    if psi0.basis != H.basis:
        raise BasisMismatch("initial state basis does not match the Hamiltonian")
    times = _time_grid(t0, t1, spec.dt)
    flags = _record_flags(times, stride)
    records = [_record(H, t0, psi0.coefficients)]
    for k, current in _advance(_step_operators(H, spec, tol), times, psi0.coefficients,
                               f"{spec.method} step", from_origin=spec.method == "exact_eig"):
        if flags[k]:
            records.append(_record(H, times[k], current))
    return records


def symplectic_preservation_check(H: TDepHamiltonian, u: TangentVector, v: TangentVector,
                                  spec: IntegratorSpec, t0: float, t1: float,
                                  tol: Tolerances = DEFAULT) -> float:
    """|omega(Uu, Uv) - omega(u, v)| across the full propagation product U."""
    if u.direction.basis != H.basis or v.direction.basis != H.basis:
        raise BasisMismatch("tangent directions must live in the Hamiltonian basis")
    pair = np.column_stack([u.direction.coefficients, v.direction.coefficients])
    before = complex(np.vdot(pair[:, 0], pair[:, 1])).imag
    times = _time_grid(t0, t1, spec.dt)
    final = pair
    for _, final in _advance(_step_operators(H, spec, tol), times, pair,
                             f"{spec.method} step", from_origin=spec.method == "exact_eig"):
        pass
    after = complex(np.vdot(final[:, 0], final[:, 1])).imag
    return abs(after - before)
