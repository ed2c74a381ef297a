"""Momentum map, U(1) reduction, and projective (ray) dynamics.

The norm-squared Hamiltonian J(psi) = -(1/2)<psi|psi> generates the phase
action psi -> e^{i theta} psi.  Fixing a level J = mu < 0 and quotienting by
the phase circle lands on projective space; rays are represented here by a
canonically phased unit vector (first coefficient above the phase floor made
real and positive).

Downstairs dynamics is integrated on rank-one projectors, dP/dt = -i[H(t),P],
by steps of classical RK4 and, every ``reproject_every`` steps,
re-projection onto the dominant eigenprojector; dynamics._walk walks it under
the unitary steps' overflow guard.  P is held in the block order of H from
birth (``projector_of`` of the permuted ray) to ray (``dominant_ray`` returns
only its N-vector to basis order), each stage forms H P as one batched product
per group of blocks on a slice of rows, and the stages and the drift, which no
permutation changes, run in three fixed N x N buffers.  Every projector_of,
the first and each re-projection, is built in P's own buffer with two of
those as scratch, and an RK4 step holds one H(t) at a time, so the flow holds
four N x N buffers and one H(t).  projector_of and every RK4 step zero each
float part of P below 2^-511 in magnitude, so the product of any two parts is
a normal double (or zero) and no product of P multiplies slow subnormals; a
part that small is some 140 decades under every bound.
Each step and its drift run on P's window (``_Window``): in each group of
blocks, the positions P occupies widened by ``reach``, four times the group's
in-block bandwidth, as far as four RK4 stages move P's support, and clamped
to the block; a group P leaves empty is dropped.  Outside the window P is
exactly zero before and after the step, so the window drops only exact
zeros: H(t)'s stacks are cut to it as views and P's window is stepped in
compact buffers carved from the workspace, or in P itself when the window is
all of it.  The drift reads the window the step left in its first compact
buffer, with no second gather.  After every step P is bit for bit the
permuted dense flow's, with its parts below 2^-511 zeroed, and its drifts
and rays match that flow's to roundoff.  Against the same step on all of
P, the trace drift (summed over P's whole diagonal) and the hermiticity
drift are bit for bit the same, and the idempotency drift, whose product the
window blocks differently, moves by roundoff.
``projector_of`` is bitwise Hermitian and RK4 keeps it so (X - X^H, X = HP,
is exactly anti-Hermitian, and RK4 carries the -i in its weights), so P is
never repaired; a step whose idempotency drift passes 1 - rank_dominance
stops the flow, as P is then no longer near a projector.
paired_records runs that flow and the upstairs unitary flow once each,
recording both at shared sample times, and compares the projection of the
one against the other at each of them.

The dominant ray is a Rayleigh-Ritz step on span{v, Pv}, v the column of P
with the largest diagonal entry: one 2 x 2 eigendecomposition instead of an
N x N one.  It is taken only under a Davis-Kahan certificate (the Ritz value
clears rank_dominance and the residual is within eig_residual of the gap to
every other eigenvalue); otherwise the full eigendecomposition decides, so
RankCollapse fires at the same threshold.
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
    _walk,
    assemble,
    average_value,
    propagate,
)
from .hilbert import BasisSpec, StateVector, TangentVector
from .numerics import InvariantBlocks, hermitian_eigendecompose, hermitian_part
from .operators import _band_limits
from .tolerances import DEFAULT, Tolerances


def momentum_map(psi: StateVector) -> float:
    """J(psi) = -(1/2)<psi|psi>, the generator of the phase circle."""
    n = float(np.linalg.norm(psi.coefficients))
    return -0.5 * n * n


def momentum_tangent_map(phi: TangentVector) -> float:
    """T_psi J applied to phi: -Re<psi|phi>."""
    return -complex(np.vdot(phi.base_point.coefficients, phi.direction.coefficients)).real


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


def reduced_hamiltonian(A, ray: Ray, mu: float) -> float:
    """The function on projective space induced by (1/2)<psi|A psi> on the
    level J = mu: (1/2)(-2 mu) <r|A r> on the unit representative."""
    if not mu < 0:
        raise NonNegativeMu(f"level value must be negative, got {mu}")
    return 0.5 * (-2.0 * mu) * average_value(A, ray.representative)


@dataclass(frozen=True, eq=False)
class ProjectorState:
    """Rank-one density matrix |r><r| for a ray r, with ``rows`` held in a
    block order: a vector v in that order is v[rows] in basis order."""

    basis: BasisSpec
    matrix: np.ndarray
    rows: np.ndarray

    def drift(self, fresh: bool, work: np.ndarray, window: _Window | None = None) -> dict:
        """Hermiticity is measured only on a ``fresh`` P, one step from a
        projector_of; P is bitwise Hermitian, so elsewhere it reads 0.0.
        The trace is summed over P's whole diagonal; P - P^H and P @ P - P
        are measured on ``window``, the _Window of the RK4 step that just
        wrote P, as that step left it in ``work`` (three N x N complex
        buffers they run in), or on all of P when None.  P has no nonzero
        part below TINY_PART, so P @ P multiplies no subnormal."""
        trace = abs(complex(np.trace(self.matrix)) - 1.0)
        P, (D, X, A) = ((self.matrix, work) if window is None
                        else window.take(self.matrix, work, gather=False))
        if fresh:
            np.subtract(P, np.conjugate(P.T, out=D), out=D)
        hermiticity = float(np.abs(D, out=A.real).max()) if fresh else 0.0  # before A is reused
        np.matmul(P, P, out=X)
        X -= P
        return {"trace": trace, "hermiticity": hermiticity,
                "idempotency": float(np.abs(X, out=A.real).max())}


TINY_PART = 2.0 ** -511  # sqrt(2^-1022): the product of two parts this size is normal


def _zero_tiny_parts(P: np.ndarray, scratch: np.ndarray) -> None:
    """Zero every float part of P below TINY_PART in magnitude, in place: each
    part is multiplied by 1.0 or 0.0, held in ``scratch``, an N x N complex
    buffer, so nothing is allocated (a masked write is slower where tiny and
    kept parts alternate).  A zero keeps its sign, a NaN or infinite part is
    left for the overflow guard, and P_ji = conj(P_ij) has the magnitudes of
    P_ij, so a bitwise Hermitian P stays so."""
    parts, keep = P.view(np.float64), scratch.view(np.float64)
    np.abs(parts, out=keep)
    np.greater_equal(keep, TINY_PART, out=keep)
    np.multiply(parts, keep, out=parts)


def projector_of(ray: Ray, blocks: InvariantBlocks, out: np.ndarray,
                 work: np.ndarray) -> ProjectorState:
    """|r><r| as the exact Hermitian part of the outer product, bitwise
    Hermitian, with its parts below TINY_PART zeroed.  It is built from the
    ray permuted to the block order of ``blocks``, entry for entry the
    permuted basis-order projector, in ``out``, an N x N complex buffer, with
    ``work``, two more, as scratch, so no complex N x N array is allocated.
    np.outer alone is not bitwise Hermitian where its products are fused."""
    c = ray.representative.coefficients[blocks.order]
    M = hermitian_part(np.outer(c, c.conj(), out=out), out, work)
    _zero_tiny_parts(M, work[0])
    return ProjectorState(ray.representative.basis, M, blocks.inverse)


def dominant_ray(P: ProjectorState, tol: Tolerances = DEFAULT) -> Ray:
    """Ray of the dominant eigenvector of a Hermitian P, in basis order
    (``P.rows``); RankCollapse if its weight sags.

    A Rayleigh-Ritz step on span{v, Pv}, from the column v of P with the
    largest diagonal entry, gives the Ritz pair (theta, y).  Every other
    eigenvalue of P lies in [-rho, rho], rho = sqrt(|P|_F^2 - theta^2), so
    sin(y, dominant eigenvector) <= r / (theta - rho) with r = |Py - theta y|
    (Davis-Kahan); the pair is taken when theta >= rank_dominance,
    theta > rho and r <= eig_residual (theta - rho).  Otherwise the full
    eigendecomposition decides, and since theta never exceeds the dominant
    eigenvalue, RankCollapse fires at the same threshold either way.
    """
    y = _ritz_vector(P.matrix, tol)
    if y is None:
        es = hermitian_eigendecompose(P.matrix, tol)
        (w,), (V,) = es.eigenvalues, es.eigenvectors  # the one block
        lam = float(w[0, -1])
        if not lam >= tol.rank_dominance:
            raise RankCollapse(f"dominant eigenvalue {lam:.6f} below {tol.rank_dominance}")
        y = V[0, :, -1]
    return ray_of(StateVector(P.basis, y[P.rows]), tol)


def _ritz_vector(P: np.ndarray, tol: Tolerances):
    """The certified Ritz vector of dominant_ray, or None."""
    col = P[:, int(np.argmax(P.diagonal().real))]
    size = float(np.linalg.norm(col))
    if not size > 0:
        return None
    v = col / size
    w = P @ v
    u = w - v * np.vdot(v, w)
    u -= v * np.vdot(v, u)  # twice is enough (Kahan-Parlett)
    nu = float(np.linalg.norm(u))
    Q = np.stack((v, u / nu), axis=1) if nu > 0 else v[:, None]
    PQ = P @ Q
    T = Q.conj().T @ PQ
    es = hermitian_eigendecompose(hermitian_part(T), tol)
    (w,), (V,) = es.eigenvalues, es.eigenvectors
    theta = float(w[0, -1])
    z = V[0, :, -1]
    y = Q @ z
    r = float(np.linalg.norm(PQ @ z - theta * y))
    rho = sqrt(max(0.0, float(np.vdot(P, P).real) - theta * theta))
    if theta >= tol.rank_dominance and theta > rho and r <= tol.eig_residual * (theta - rho):
        return y
    return None


@dataclass(frozen=True, eq=False)
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


def _commutator(blocks, M: tuple, Q: np.ndarray, X: np.ndarray, T: np.ndarray) -> None:
    """X = [M, Q] for Hermitian M, given as its stacks on ``blocks``, and
    Hermitian Q in block order; T is scratch and may be Q.  X = MQ is formed
    one group at a time on the group's rows, QM = X^H, and X - X^H is exactly
    anti-Hermitian."""
    blocks.apply(M, Q, out=X)
    np.conjugate(X.T, out=T)
    np.subtract(X, T, out=X)


class _Window:
    """The part of P, held in the block order of H.blocks, that an RK4 step
    of H can touch.  In each group of blocks it spans the positions that any
    block of the group occupies, widened by ``reach`` and clamped to the
    block; ``reach`` is four times the group's in-block bandwidth over H's
    term stacks, as far as four stages of H(t) can move P's support.  A
    group P leaves empty is dropped: no H(t) moves anything into it.  Outside
    the window P is zero before a step and after it, so every product term
    the window drops is an exact zero.

    ``fit`` reads which rows of P hold a nonzero part and keeps the window's
    flat ``index`` into P, its compact ``blocks`` and its ``cuts`` (group,
    lo, hi) while those positions do not change.  ``index`` is None when the
    window is the whole of P, or when its four compact buffers would not fit
    in the three N x N buffers of the step's workspace; P is then stepped as
    it is."""

    def __init__(self, H: TDepHamiltonian):
        self.full = self.blocks = H.blocks
        self.reach = []
        for group in zip(H.lead, *(S for _, S in H.rest)):  # one group's term stacks
            pattern = np.any([(S != 0).any(axis=0) for S in group], axis=0)
            self.reach.append(4 * max(_band_limits(pattern)))
        self.key, self.cuts, self.index = None, [], None  # None: P fills every row

    def fit(self, P: np.ndarray) -> "_Window":
        occupied = P.view(np.float64).any(axis=1)
        key = None
        if not occupied.all():
            key = []
            for rows, idx, reach in zip(self.full.rows, self.full.groups, self.reach):
                at = np.flatnonzero(occupied[rows].reshape(idx.shape).any(axis=0))
                key.append((max(0, int(at[0]) - reach), min(idx.shape[1], int(at[-1]) + 1 + reach))
                           if at.size else None)
        if key == self.key:
            return self
        self.key, n = key, self.full.size
        self.cuts = [(g, *cut) for g, cut in enumerate(key or ()) if cut]
        rows = []  # per kept group, the (k, hi - lo) rows of P its blocks keep
        for g, lo, hi in self.cuts:
            k, s = self.full.groups[g].shape
            rows.append(self.full.rows[g].start + s * np.arange(k)[:, None] + np.arange(lo, hi))
        m = sum(r.size for r in rows)
        if m == 0 or 4 * m * m > 3 * n * n:  # so also when m == n, the whole of P
            self.index, self.blocks = None, self.full
            return self
        at = np.concatenate([r.ravel() for r in rows])
        self.index = (at[:, None] * n + at).ravel()
        parts = np.split(np.arange(m), np.cumsum([r.size for r in rows])[:-1])
        self.blocks = InvariantBlocks(m, tuple(p.reshape(r.shape) for p, r in zip(parts, rows)))
        return self

    def cut(self, M: tuple) -> tuple:
        """H(t)'s stacks on the window, as views."""
        if self.index is None:
            return M
        return tuple(M[g][:, lo:hi, lo:hi] for g, lo, hi in self.cuts)

    def take(self, P: np.ndarray, work: np.ndarray, gather: bool = True):
        """(P on the window, three scratch buffers of its size): P itself and
        ``work`` when the window is whole, else four compact buffers carved
        from ``work``, the first holding P's window: gathered from P, or
        unless ``gather``, as the last step on this window left it."""
        if self.index is None:
            return P, work
        m = self.blocks.size
        W = work.reshape(-1)[:4 * m * m].reshape(4, m, m)
        if gather:
            np.take(P, self.index, out=W[0].reshape(-1), mode="clip")  # "raise" would buffer
        return W[0], W[1:]

    def put(self, Pw: np.ndarray, P: np.ndarray) -> None:
        """Write the window ``Pw`` back into P."""
        if self.index is not None:
            np.put(P, self.index, Pw)


def _rk4_projector_step(H: TDepHamiltonian, t: float, h: float, P: np.ndarray,
                        work: np.ndarray, window: _Window | None = None) -> np.ndarray:
    """One classical RK4 step of dP/dt = -i[H(t), P] on P in the block order
    of H.blocks, written into P, its parts below TINY_PART zeroed, and
    returned.  ``work`` is three N x N complex buffers: the stage input,
    the stage commutator and their weighted sum.  The step runs on
    ``window``, a _Window of H (a fresh one when None), fitted here to P:
    on its compact buffers, carved from ``work``, and H(t)'s stacks cut to
    it.  Each slope's -i rides in the weights -i c and -i h/6: times -i,
    parts only swap and negate, so every float is the one -i[M, Q] gives.
    H(t), H(t + h/2) and H(t + h) are assembled in turn, each when its first
    slope needs it, and only one is held at a time."""
    window = (_Window(H) if window is None else window).fit(P)
    blocks, cut = window.blocks, window.cut
    R, (Q, K, A) = window.take(P, work)

    def slope(M, c):  # K = [M, R - i c K]
        np.multiply(-1j * c, K, out=Q)
        np.add(R, Q, out=Q)
        _commutator(blocks, M, Q, K, Q)

    _commutator(blocks, cut(assemble(H, t)), R, K, Q)  # k1 = -i K
    np.copyto(A, K)
    M = cut(assemble(H, t + 0.5 * h))
    for c in (0.5 * h, 0.5 * h):
        slope(M, c)            # k2, then k3
        np.multiply(2.0, K, out=Q)
        np.add(A, Q, out=A)
    del M
    slope(cut(assemble(H, t + h)), h)  # k4
    np.add(A, K, out=A)
    np.multiply(-1j * (h / 6.0), A, out=A)
    np.add(R, A, out=R)
    _zero_tiny_parts(R, Q)
    window.put(R, P)
    return P


def reduced_propagate(H: TDepHamiltonian, ray0: Ray, dt: float, t0: float, t1: float,
                      stride: int = 1, record_times=None, reproject_every: int = 100,
                      tol: Tolerances = DEFAULT):
    """Integrate dP/dt = -i[H(t), P] from |r0><r0| and record rays.

    With ``record_times`` the step grid is bent to pass exactly through the
    requested times (so records can be compared against another trajectory
    without interpolation); otherwise records fall at t0, every stride-th
    step, and t1.  Returns (records, diagnostics) where diagnostics holds the
    worst per-step trace, hermiticity (first step from each projector_of) and
    idempotency drifts, before each re-projection.  A step whose idempotency
    drift exceeds 1 - rank_dominance, or that overflows, raises NumericError.
    """
    if ray0.representative.basis != H.basis:
        raise BasisMismatch("initial ray basis does not match the Hamiltonian")
    if reproject_every < 1:
        raise ValueError("reproject_every must be >= 1")
    blocks = H.blocks
    n = blocks.size
    work = np.empty((3, n, n), dtype=np.complex128)
    window = _Window(H)
    drifts = {"trace": 0.0, "hermiticity": 0.0, "idempotency": 0.0}
    taken = 0  # steps so far

    def step(t, t_next, P):
        nonlocal taken
        taken += 1
        _rk4_projector_step(H, t, t_next - t, P.matrix, work, window)  # in place
        state = P.drift((taken - 1) % reproject_every == 0, work, window)
        if not state["idempotency"] <= 1.0 - tol.rank_dominance:
            raise NumericError(f"projector idempotency drift {state['idempotency']:.3e}"
                               f" exceeds 1 - rank_dominance at t={t_next!r}")
        for key in drifts:
            drifts[key] = max(drifts[key], state[key])
        if taken % reproject_every == 0:
            P = projector_of(dominant_ray(P, tol), blocks, P.matrix, work[:2])
        return P

    P = projector_of(ray0, blocks, np.empty((n, n), dtype=np.complex128), work[:2])
    records = []
    for t, P in _walk(step, P, "projector flow", t0, t1, dt, stride, record_times):
        ray = dominant_ray(P, tol) if taken else ray0
        records.append(ReducedRecord(t, ray, fubini_study_distance(ray, ray0) if taken else 0.0))
    return records, drifts


def paired_records(H: TDepHamiltonian, psi0: StateVector, mu: float, spec: IntegratorSpec,
                   dt_reduced: float, t0: float, t1: float, stride: int = 1,
                   tol: Tolerances = DEFAULT):
    """(up, down, drifts, residuals): upstairs records, downstairs records at
    their times (the down grid's knots), projector drifts, and at each time the
    commuting-diagram residual, the Fubini-Study distance between the ray of
    the upstairs state and the downstairs ray."""
    point = level_set_project(psi0, mu, tol)
    up = propagate(H, point.state, spec, t0, t1, stride, tol)
    down, drifts = reduced_propagate(H, ray_of(point.state, tol), dt_reduced, t0, t1,
                                     record_times=[r.t for r in up], tol=tol)
    residuals = [fubini_study_distance(ray_of(u.state, tol), d.ray)
                 for u, d in zip(up, down, strict=True)]
    return up, down, drifts, residuals


def commuting_diagram_residual(H: TDepHamiltonian, psi0: StateVector, mu: float,
                               spec: IntegratorSpec, dt_reduced: float, t0: float, t1: float,
                               stride: int = 1, tol: Tolerances = DEFAULT) -> float:
    """max over shared sample times of the Fubini-Study distance between the
    projected unitary flow and the independently integrated ray flow."""
    return max(paired_records(H, psi0, mu, spec, dt_reduced, t0, t1, stride, tol)[3])
