"""Momentum map, U(1) reduction, and projective (ray) dynamics.

The norm-squared Hamiltonian J(psi) = -(1/2)<psi|psi> generates the phase
action psi -> e^{i theta} psi.  Fixing a level J = mu < 0 and quotienting by
the phase circle lands on projective space; rays are represented here by a
canonically phased unit vector (first coefficient above the phase floor made
real and positive).

Downstairs dynamics is integrated on rank-one projectors, dP/dt = -i[H(t),P],
by a step of classical RK4, re-symmetrization and, every ``reproject_every``
steps, re-projection onto the dominant eigenprojector; dynamics._advance walks
it under the unitary steps' overflow guard.  paired_records runs that flow and
the upstairs unitary flow once each, recording both at shared sample times,
and diagram_residuals compares the projection of the one against the other.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from math import acos, asin, sqrt

import numpy as np

from .errors import (
    BasisMismatch,
    NonNegativeMu,
    NotTangent,
    NumericError,
    RankCollapse,
    ZeroVector,
)
from .dynamics import (
    IntegratorSpec,
    TDepHamiltonian,
    _advance,
    _record_flags,
    _time_grid,
    assemble,
    average_value,
    propagate,
)
from .hilbert import BasisSpec, StateVector, TangentVector
from .numerics import hermitian_eigendecompose, matmul
from .tolerances import DEFAULT, Tolerances


def momentum_map(psi: StateVector) -> float:
    """J(psi) = -(1/2)<psi|psi>, the generator of the phase circle."""
    n = float(np.linalg.norm(psi.coefficients))
    return -0.5 * n * n


def momentum_tangent_map(phi: TangentVector) -> float:
    """T_psi J applied to phi: -Re<psi|phi>."""
    return -complex(np.vdot(phi.base_point.coefficients, phi.direction.coefficients)).real


@dataclass(frozen=True)
class LevelSetPoint:
    """A state pinned to the level J = mu (mu < 0), checked against the
    level-set tolerance of ``tol``."""

    state: StateVector
    mu: float
    tol: InitVar[Tolerances] = DEFAULT

    def __post_init__(self, tol):
        if not self.mu < 0:
            raise NonNegativeMu(f"level value must be negative, got {self.mu}")
        drift = abs(momentum_map(self.state) - self.mu)
        if drift > tol.level_set * max(1.0, abs(self.mu)):
            raise ZeroVector(f"state misses the level set by {drift:.3e}")


def level_set_project(psi: StateVector, mu: float, tol: Tolerances = DEFAULT) -> LevelSetPoint:
    """Radially rescale psi onto the level J = mu."""
    if not mu < 0:
        raise NonNegativeMu(f"level value must be negative, got {mu}")
    n = float(np.linalg.norm(psi.coefficients))
    if n <= tol.zero_vector:
        raise ZeroVector("cannot project the zero vector onto a level set")
    scaled = (sqrt(-2.0 * mu) / n) * psi.coefficients
    return LevelSetPoint(StateVector(psi.basis, scaled), mu, tol)


def u1_act(theta: float, point: LevelSetPoint, tol: Tolerances = DEFAULT) -> LevelSetPoint:
    """Phase rotation e^{i theta}; preserves J exactly."""
    z = complex(np.cos(theta), np.sin(theta))
    return LevelSetPoint(StateVector(point.state.basis, z * point.state.coefficients),
                         point.mu, tol)


@dataclass(frozen=True)
class Ray:
    """A point of projective space, stored as its canonical representative:
    unit norm, first coefficient above the phase floor real and positive,
    checked against the ray-norm and phase tolerances of ``tol``."""

    representative: StateVector
    tol: InitVar[Tolerances] = DEFAULT

    def __post_init__(self, tol):
        c = self.representative.coefficients
        n = float(np.linalg.norm(c))
        if abs(n - 1.0) > tol.ray_norm:
            raise ZeroVector(f"ray representative has norm {n}, expected 1")
        k = _anchor_index(c, tol.phase)
        if c[k].real <= 0 or abs(c[k].imag) > tol.phase:
            raise ZeroVector("ray representative is not canonically phased")

    def to_json_dict(self) -> dict:
        return self.representative.to_json_dict()

    @staticmethod
    def from_json_dict(d: dict) -> "Ray":
        return Ray(StateVector.from_json_dict(d))


def _anchor_index(c: np.ndarray, floor: float) -> int:
    idx = np.nonzero(np.abs(c) > floor)[0]
    if idx.size == 0:
        raise ZeroVector("no coefficient above the phase floor")
    return int(idx[0])


def ray_of(psi: StateVector, tol: Tolerances = DEFAULT) -> Ray:
    """Canonical representative of the ray through psi."""
    c = psi.coefficients
    n = float(np.linalg.norm(c))
    if n <= tol.zero_vector:
        raise ZeroVector("the zero vector spans no ray")
    c = c / n
    k = _anchor_index(c, tol.phase)
    phase = c[k] / abs(c[k])
    return Ray(StateVector(psi.basis, c * np.conj(phase)), tol)


def fubini_study_distance(a: Ray, b: Ray) -> float:
    """Angle between rays, in [0, pi/2].

    Two branches of the same formula: arccos of the overlap when the rays are
    far apart, arcsin of the orthogonal-component norm when they are close.
    The arcsin branch matters; arccos(|<a|b>|) loses half the working digits
    near zero separation and would put a ~1e-8 floor under every residual
    built on this distance.
    """
    if a.representative.basis != b.representative.basis:
        raise BasisMismatch("rays live in different bases")
    ca = a.representative.coefficients
    cb = b.representative.coefficients
    ov = complex(np.vdot(ca, cb))
    s = abs(ov)
    if s < 0.7:
        return acos(min(1.0, s))
    perp = cb - ov * ca
    return asin(min(1.0, float(np.linalg.norm(perp))))


def vertical_vector(point: LevelSetPoint) -> TangentVector:
    """The infinitesimal phase rotation i psi at the point."""
    return TangentVector(point.state, StateVector(point.state.basis, 1j * point.state.coefficients))


def horizontal_project(phi: TangentVector, tol: Tolerances = DEFAULT) -> TangentVector:
    """Remove the vertical (phase) component from a level-set tangent vector."""
    psi = phi.base_point.coefficients
    v = phi.direction.coefficients
    npsi = float(np.linalg.norm(psi))
    nv = float(np.linalg.norm(v))
    radial = -complex(np.vdot(psi, v)).real
    if abs(radial) > tol.tangency * max(1.0, npsi * nv):
        raise NotTangent(f"direction leaves the level set, T J residue {radial:.3e}")
    coeff = complex(np.vdot(psi, v)).imag / (npsi * npsi)
    return TangentVector(phi.base_point, StateVector(phi.direction.basis, v - coeff * (1j * psi)))


def reduced_symplectic_form(v: TangentVector, w: TangentVector, tol: Tolerances = DEFAULT) -> float:
    """omega_mu on the quotient: Im of the inner product of horizontal parts."""
    if not np.array_equal(v.base_point.coefficients, w.base_point.coefficients):
        raise BasisMismatch("reduced form needs tangent vectors at the same point")
    hv = horizontal_project(v, tol).direction.coefficients
    hw = horizontal_project(w, tol).direction.coefficients
    return complex(np.vdot(hv, hw)).imag


def reduced_hamiltonian(A, ray: Ray, mu: float, tol: Tolerances = DEFAULT) -> float:
    """The function on projective space induced by (1/2)<psi|A psi> on the
    level J = mu: (1/2)(-2 mu) <r|A r> on the unit representative."""
    if not mu < 0:
        raise NonNegativeMu(f"level value must be negative, got {mu}")
    return 0.5 * (-2.0 * mu) * average_value(A, ray.representative, tol)


@dataclass(frozen=True)
class ProjectorState:
    """Rank-one density matrix |r><r| for a ray r."""

    basis: BasisSpec
    matrix: np.ndarray

    def drift(self) -> dict:
        P = self.matrix
        return {
            "trace": abs(complex(np.trace(P)) - 1.0),
            "hermiticity": float(np.max(np.abs(P - P.conj().T))),
            "idempotency": float(np.max(np.abs(P @ P - P))),
        }


def projector_of(ray: Ray) -> ProjectorState:
    c = ray.representative.coefficients
    return ProjectorState(ray.representative.basis, np.outer(c, c.conj()))


def dominant_ray(P: ProjectorState, tol: Tolerances = DEFAULT) -> Ray:
    """Ray of the dominant eigenvector; RankCollapse if its weight sags."""
    sym = 0.5 * (P.matrix + P.matrix.conj().T)
    es = hermitian_eigendecompose(sym, tol)
    lam = float(es.eigenvalues[-1])
    if not lam >= tol.rank_dominance:
        raise RankCollapse(f"dominant eigenvalue {lam:.6f} below {tol.rank_dominance}")
    return ray_of(StateVector(P.basis, es.eigenvectors[:, -1]), tol)


@dataclass(frozen=True)
class ReducedRecord:
    t: float
    ray: Ray
    fs_distance_to_initial: float

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "ray": self.ray.to_json_dict(),
            "fs_distance_to_initial": self.fs_distance_to_initial,
        }


def _commutator(M: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """-i[M, Q] for Hermitian M and Q from one product: with X = MQ,
    QM = X^H, and X - X^H is exactly anti-Hermitian."""
    X = matmul(M, Q)
    return -1j * (X - X.conj().T)


def _rk4_projector_step(H: TDepHamiltonian, t: float, h: float, P: np.ndarray) -> np.ndarray:
    M0 = assemble(H, t)
    Mm = assemble(H, t + 0.5 * h)
    M1 = assemble(H, t + h)
    k1 = _commutator(M0, P)
    k2 = _commutator(Mm, P + (0.5 * h) * k1)
    k3 = _commutator(Mm, P + (0.5 * h) * k2)
    k4 = _commutator(M1, P + h * k3)
    return P + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reduced_propagate(H: TDepHamiltonian, ray0: Ray, dt: float, t0: float, t1: float,
                      stride: int = 1, record_times=None, reproject_every: int = 100,
                      tol: Tolerances = DEFAULT):
    """Integrate dP/dt = -i[H(t), P] from |r0><r0| and record rays.

    With ``record_times`` the step grid is bent to pass exactly through the
    requested times (so records can be compared against another trajectory
    without interpolation); otherwise records fall at t0, every stride-th
    step, and t1.  Returns (records, diagnostics) where diagnostics holds the
    worst per-step trace, hermiticity, and idempotency drifts measured before
    each correction.  A step that overflows (dt too large for the spectrum of
    H) raises NumericError.
    """
    if ray0.representative.basis != H.basis:
        raise BasisMismatch("initial ray basis does not match the Hamiltonian")
    times = _time_grid(t0, t1, dt, record_times or ())
    flags = _record_flags(times, stride, record_times)
    drifts = {"trace": 0.0, "hermiticity": 0.0, "idempotency": 0.0}
    ks = iter(range(1, len(times)))  # the k-th call steps to times[k]

    def step(t, h, P):
        k = next(ks)
        P = _rk4_projector_step(H, t, h, P)
        state = ProjectorState(H.basis, P).drift()
        if not np.all(np.isfinite(list(state.values()))):
            raise NumericError(f"non-finite projector drift at t={times[k]!r}")
        for key in drifts:
            drifts[key] = max(drifts[key], state[key])
        P += P.conj().T  # in place: the loop still holds this step's input
        P *= 0.5
        if k % reproject_every == 0:
            P = projector_of(dominant_ray(ProjectorState(H.basis, P), tol)).matrix
        return P

    records = [ReducedRecord(times[0], ray0, 0.0)] if flags[0] else []
    for k, P in _advance(step, times, projector_of(ray0).matrix, "projector flow"):
        if flags[k]:
            ray = dominant_ray(ProjectorState(H.basis, P), tol)
            records.append(ReducedRecord(times[k], ray, fubini_study_distance(ray, ray0)))
    return records, drifts


def paired_records(H: TDepHamiltonian, psi0: StateVector, mu: float, spec: IntegratorSpec,
                   dt_reduced: float, t0: float, t1: float, stride: int = 1,
                   tol: Tolerances = DEFAULT):
    """Upstairs records, downstairs records at the same times, and drift
    diagnostics, for the commuting-diagram comparison."""
    point = level_set_project(psi0, mu, tol)
    up = propagate(H, point.state, spec, t0, t1, stride, tol)
    up_times = [r.t for r in up]
    down, drifts = reduced_propagate(H, ray_of(point.state, tol), dt_reduced, t0, t1,
                                     record_times=up_times, tol=tol)
    if len(down) != len(up):
        raise RuntimeError("record alignment failed between the two flows")
    return up, down, drifts


def diagram_residuals(up, down, tol: Tolerances = DEFAULT) -> list[float]:
    """The commuting-diagram residual at each shared record time of
    ``paired_records``: the Fubini-Study distance between the ray of the
    upstairs state and the downstairs ray."""
    return [fubini_study_distance(ray_of(u.state, tol), d.ray) for u, d in zip(up, down)]


def commuting_diagram_residual(H: TDepHamiltonian, psi0: StateVector, mu: float,
                               spec: IntegratorSpec, dt_reduced: float, t0: float, t1: float,
                               stride: int = 1, tol: Tolerances = DEFAULT) -> float:
    """max over shared sample times of the Fubini-Study distance between the
    projected unitary flow and the independently integrated ray flow."""
    up, down, _ = paired_records(H, psi0, mu, spec, dt_reduced, t0, t1, stride, tol)
    return max(diagram_residuals(up, down, tol))
