"""t-dependent Hamiltonians and unitary propagation.

H(t) = sum_a b_a(t) H_a with scalar coefficient functions b_a and fixed
Hermitian operator matrices H_a.  The Schrodinger vector field is
psi -> -i H(t) psi; its Hamiltonian function is (1/2)<psi|H psi>, whose
differential along phi is 2 Re<phi|H psi> -- hamiltonian_field_residual
measures that identity through two independent code paths.

Integrators, each a step that ``_walk`` chains over a grid under one guard:

* ``exact_eig``  -- autonomous only; evaluates U(t) = V e^{-i t L} V^H
  directly at sample times from one eigendecomposition.
* ``magnus2``    -- midpoint exponential: each step applies
  exp(-i dt H(t + dt/2)) through an eigendecomposition, so every step is
  unitary to roundoff (this is what the conservation checks lean on).
* ``cayley2``    -- Crank-Nicolson: (I + i dt/2 H)^{-1} (I - i dt/2 H) with
  the midpoint generator, one batched solve per group of blocks per step.

Block rule: the index sets on which the terms' joint nonzero pattern splits
(parity for ``x2``/``p2``, total degree for ``Lx``/``Ly``/``Lz``) are found
once, when the Hamiltonian is built, and are invariant for every t.  Each
term is kept as its blocks only, one (k, s, s) stack per group of equal-size
blocks, and ``assemble`` returns H(t) in that form: nothing downstream sees
the zeros between blocks.  The steps carry the state in block order
(``InvariantBlocks.order``), where each group's rows are one contiguous
slice, and the eigendecompositions, the exponential and Cayley steps, the
record energy and the projector flow of ``reduction`` all work group by
group; records return to basis order, and every sum that forms a recorded
number runs in basis order.  A Hamiltonian that does not split is one group
of one block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite, sin

import numpy as np

from .errors import BasisMismatch, IntegratorMismatch, NotHermitian, NumericError, ZeroVector
from .hilbert import BasisSpec, StateVector, TangentVector, inner, symplectic_form
from .numerics import (
    InvariantBlocks,
    apply_exp_step,
    hermitian_eigendecompose,
    hermitian_part,
    invariant_blocks,
    matmul,
)
from .operators import OperatorMatrix, build_named
from .tolerances import DEFAULT, Tolerances

INTEGRATOR_METHODS = ("exact_eig", "magnus2", "cayley2")
MAX_STEPS = 10**7  # the most steps one time grid may hold
# kind -> {JSON field: shape ("n" any length >= 1)}, in its constructor's order
COEFFICIENT_FIELDS = {"constant": {"c": ()}, "sinusoid": {"a": (), "omega": (), "phase": ()},
                      "polynomial": {"coeffs": ("n",)}, "table": {"points": ("n", 2)}}
COEFFICIENT_KINDS = tuple(COEFFICIENT_FIELDS)


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
    points: tuple = ()  # of (t, v) float pairs

    def __post_init__(self):
        if self.kind not in COEFFICIENT_KINDS:
            raise ValueError(f"unknown coefficient kind: {self.kind!r}")
        if self.kind == "polynomial" and len(self.coeffs) == 0:
            raise ValueError("polynomial coefficient needs at least one coefficient")
        if self.kind == "table":
            ts = [t for t, _ in self.points]
            if not ts or any(b <= a for a, b in zip(ts, ts[1:])):
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
        return CoefficientFn("table", points=tuple((float(t), float(v)) for t, v in points))

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
        ts, vs = zip(*self.points)
        return float(np.interp(t, ts, vs))

    @staticmethod
    def from_json_dict(d: dict) -> "CoefficientFn":
        """The constructor named by d["kind"] on its COEFFICIENT_FIELDS; a
        sinusoid's phase may be left out."""
        kind = d["kind"]
        if kind not in COEFFICIENT_KINDS:  # a tuple, so an unhashable kind is just unknown
            raise ValueError(f"unknown coefficient kind: {kind!r}")
        d = {"phase": 0.0, **d}
        return getattr(CoefficientFn, kind)(*(d[key] for key in COEFFICIENT_FIELDS[kind]))


@dataclass(frozen=True)
class TDepHamiltonian:
    """H(t) = sum b_a(t) H_a.  Each H_a keeps the dtype its OperatorMatrix
    chose, so H(t) is float64 exactly when every term is real.  ``blocks``
    holds the invariant blocks of the H_a, found once here, and each H_a is
    kept as the Hermitian part of its stacks on them.  The constant terms that
    lead the list are summed once, from zero and in order, as ``assemble`` does."""

    terms: tuple  # of (CoefficientFn, OperatorMatrix, label)
    blocks: InvariantBlocks = field(init=False, repr=False, compare=False)
    lead: tuple = field(init=False, repr=False, compare=False)   # stacks of that sum
    lead_finite: bool = field(init=False, repr=False, compare=False)
    rest: tuple = field(init=False, repr=False, compare=False)   # of (CoefficientFn, stacks)

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
        blocks = invariant_blocks([op.matrix for _, op, _ in terms])
        # bit for bit H_a wherever H_a = H_a^H (every builtin); gathering
        # commutes with hermitian_part, and real sums of its stacks stay Hermitian
        stacks = [blocks.gather(hermitian_part(op.matrix)) for _, op, _ in terms]
        dtype = np.result_type(*(op.matrix for _, op, _ in terms))
        lead = [np.zeros(idx.shape + idx.shape[-1:], dtype) for idx in blocks.groups]
        k = next((a for a, (coeff, _, _) in enumerate(terms) if not coeff.is_constant), len(terms))
        with np.errstate(over="ignore", invalid="ignore"):  # assemble reports it
            for (coeff, _, _), S in zip(terms[:k], stacks):
                for L, T in zip(lead, S):
                    L += coeff.c * T
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "lead", tuple(lead))
        object.__setattr__(self, "lead_finite",
                           all(np.all(np.isfinite(L.view(np.float64))) for L in lead))
        object.__setattr__(self, "rest", tuple((coeff, S) for (coeff, _, _), S
                                               in zip(terms[k:], stacks[k:])))

    @property
    def basis(self):
        return self.terms[0][1].basis

    @property
    def is_autonomous(self) -> bool:
        return all(coeff.is_constant for coeff, _, _ in self.terms)


def oscillator_hamiltonian(size: int, drive: float = 0.0) -> TDepHamiltonian:
    """(1/2)p^2 + (1/2)x^2 + drive sin(t) x^2 on the orthonormal Hermite basis;
    autonomous when drive is 0."""
    x2, p2 = (build_named(name, BasisSpec.hermite(size)) for name in ("x2", "p2"))
    terms = [
        (CoefficientFn.constant(0.5), p2, "p2"),
        (CoefficientFn.constant(0.5), x2, "x2"),
    ]
    if drive:
        terms.append((CoefficientFn.sinusoid(drive, 1.0), x2, "x2_drive"))
    return TDepHamiltonian(tuple(terms))


def assemble(H: TDepHamiltonian, t: float) -> tuple:
    """H(t) = sum b_a(t) H_a as its (k, s, s) stacks on the groups of
    H.blocks: float64 when every term is real, complex128 otherwise.  Every
    entry is the sum of the terms' entries from zero in term order.

    The terms are Hermitian by value since H was built, and every b_a(t) is
    a real float, so every stack equals its conjugate transpose and nothing
    re-checks it; only non-finite coefficients and overflow are left to check.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            if not H.lead_finite:  # the leading terms alone overflow
                raise FloatingPointError
            M = [L.copy() for L in H.lead]
            for coeff, stacks in H.rest:
                b = coeff(t)
                if not isfinite(b):
                    raise FloatingPointError
                for S, T in zip(M, stacks):
                    S += b * T
    except FloatingPointError as exc:
        raise NumericError(f"non-finite H(t) entries at t={t!r}") from exc
    # the terms are finite (OperatorMatrix checks), so with a finite lead and
    # finite coefficients only an overflow, which raised above, could leave a
    # non-finite entry
    return tuple(M)


def schrodinger_rhs(H: TDepHamiltonian, t: float, psi: StateVector) -> TangentVector:
    """The Schrodinger vector field at (t, psi): direction -i H(t) psi."""
    if psi.basis != H.basis:
        raise BasisMismatch("state basis does not match the Hamiltonian")
    blocks = H.blocks
    Hpsi = blocks.apply(assemble(H, t), psi.coefficients[blocks.order])[blocks.inverse]
    return TangentVector(psi, StateVector(psi.basis, -1j * Hpsi))


def average_value(A: OperatorMatrix, psi: StateVector) -> float:
    """<psi|A psi> for A flagged Hermitian, as Re<psi|A psi>: the average
    of A's Hermitian part."""
    if A.symmetry != "hermitian":
        raise NotHermitian("average value requires a Hermitian operator")
    if psi.basis != A.basis:
        raise BasisMismatch("average value requires matching bases")
    return complex(np.vdot(psi.coefficients, A.matrix @ psi.coefficients)).real


def hamiltonian_function(A: OperatorMatrix, psi: StateVector) -> float:
    """The Hamiltonian function of the flow of -iA: (1/2)<psi|A psi>."""
    return 0.5 * average_value(A, psi)


def differential_of_average(A: OperatorMatrix, psi: StateVector, phi: TangentVector) -> float:
    """d<psi|A psi> evaluated on phi: 2 Re<phi|A psi>."""
    if A.symmetry != "hermitian":
        raise NotHermitian("differential of average requires a Hermitian operator")
    if psi.basis != A.basis or phi.direction.basis != A.basis:
        raise BasisMismatch("differential of average requires matching bases")
    return 2.0 * complex(np.vdot(phi.direction.coefficients, A.matrix @ psi.coefficients)).real


def hamiltonian_field_residual(A: OperatorMatrix, psi: StateVector, phi: TangentVector) -> float:
    """|omega(-iA psi, phi) - (1/2) d<psi|A psi>(phi)|; analytically zero."""
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

    def to_json_dict(self) -> dict:
        return {"t": self.t, "norm": self.norm, "J": self.momentum_J, "energy": self.energy}


def _time_grid(t0: float, t1: float, dt: float, knots=()):
    """Closed grid t0, t0+dt, ... ending on t1, as a generator of its points.
    The final step takes up the remainder; a misfit below min(64 ulps of t,
    dt/2) joins the step before it, so the final step is at most 1.5 dt, up
    to the rounding of t to its float spacing.

    The grid restarts at every knot strictly inside (t0, t1), so it passes
    exactly through each of them; a point a + k*dt not above the last one (a
    step below the float spacing of t) is skipped, so no time repeats.  A grid
    needing more than MAX_STEPS steps is a NumericError, raised before the first point.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if t1 < t0:
        raise ValueError("t1 must not precede t0")
    ends = sorted({float(k) for k in knots if t0 < k < t1}) + [t1] if t1 > t0 else []
    segments, used = [], 0  # (start, end, points strictly inside), steps so far
    for a, b in zip([t0] + ends, ends):
        steps = (float(b) - float(a)) / dt
        left = MAX_STEPS - used
        if steps > left:
            raise NumericError(f"time grid needs {steps:.6g} more steps, "
                               f"only {left} of MAX_STEPS={MAX_STEPS} are left")
        # tolerate 1-ulp-scale misfits so dt that "divides" (b-a) lands exactly,
        # but never half a step or more
        below = b - min(64.0 * np.finfo(float).eps * max(1.0, abs(b), abs(a)), dt / 2)
        # a + k*dt grows with k: the inside points are k = 1..n, n close to steps
        n = int(steps) if steps >= 1 else 0
        while n > 0 and not a + n * dt < below:
            n -= 1
        while a + (n + 1) * dt < below:
            n += 1
        segments.append((a, b, n))
        used += n + 1

    def points():
        yield t0
        for a, b, n in segments:
            last = a
            for k in range(1, n + 1):
                t = a + k * dt
                if t > last:
                    yield t
                    last = t
            yield b

    return points()


def _record(H: TDepHamiltonian, t: float, vec: np.ndarray) -> TrajectoryRecord:
    """The record of a state held in block order."""
    back = H.blocks.inverse
    coeffs = vec[back]
    nrm = float(np.linalg.norm(coeffs))
    Hc = H.blocks.apply(assemble(H, t), vec)[back]
    energy = complex(np.vdot(coeffs, Hc)).real / (nrm * nrm)
    return TrajectoryRecord(t, nrm, -0.5 * nrm * nrm, energy, StateVector(H.basis, coeffs))


def _step_operators(H: TDepHamiltonian, spec: IntegratorSpec, tol: Tolerances,
                    t0: float, vec0: np.ndarray):
    """Returns step(t, t_next, vec) advancing vec, a vector in the block order
    of H.blocks, from t to t_next; the exact_eig step ignores vec and
    evaluates U(t_next - t0) on vec0, the state at t0."""
    if spec.method == "exact_eig":
        if not H.is_autonomous:
            raise IntegratorMismatch("exact_eig requires constant coefficients")
        es = hermitian_eigendecompose(assemble(H, 0.0), tol, H.blocks)

        def step(t, t_next, vec):
            return apply_exp_step(es, t_next - t0, vec0)

        return step

    if spec.method == "magnus2":

        def step(t, t_next, vec):
            tau = t_next - t
            es = hermitian_eigendecompose(assemble(H, t + tau / 2.0), tol, H.blocks)
            return apply_exp_step(es, tau, vec)

        return step

    def step(t, t_next, vec):  # cayley2, one batched solve per group
        tau = t_next - t
        out = np.empty(vec.shape, dtype=np.complex128)
        for rows, S in zip(H.blocks.rows, assemble(H, t + tau / 2.0)):
            k, s, _ = S.shape
            z = vec[rows].reshape(k, s, -1)
            eye = np.eye(s, dtype=np.complex128)
            out[rows] = np.linalg.solve(eye + 0.5j * tau * S, z - 0.5j * tau * matmul(S, z)
                                        ).reshape(out[rows].shape)
        return out

    return step


def _walk(step, vec0: np.ndarray, what: str, t0: float, t1: float, dt: float,
          stride: int = 1, record_times=None):
    """Chain vec = step(t, t_next, vec) from vec0 over the grid from t0 to t1 and
    yield (t, vec) at exactly ``record_times`` (also the grid's knots) when given,
    else at t0, every stride-th step and t1.  Steps run under one overflow guard,
    left before each yield; a trip names ``what`` and t_next."""
    times = _time_grid(t0, t1, dt, record_times or ())
    if stride < 1:
        raise ValueError("stride must be >= 1")
    wanted = None if record_times is None else {float(t) for t in record_times}
    vec, vec0 = vec0, None  # the chain holds its start for one step only
    for k, t_next in enumerate(times):
        if k:
            try:
                with np.errstate(over="raise", invalid="raise"):
                    vec = step(t, t_next, vec)
            except FloatingPointError as exc:
                raise NumericError(f"{what} overflowed at t={t_next!r}") from exc
        t = t_next
        if (t in wanted) if wanted is not None else (k % stride == 0 or t == t1):
            yield t, vec


def propagate(H: TDepHamiltonian, psi0: StateVector, spec: IntegratorSpec,
              t0: float, t1: float, stride: int = 1,
              tol: Tolerances = DEFAULT, sink=None) -> list[TrajectoryRecord] | None:
    """Propagate psi0 from t0 to t1, recording every stride-th step plus the
    endpoints.  The grid walks in steps of spec.dt and lands exactly on t1;
    its final step takes up the remainder, at most 1.5 dt (see _time_grid).
    Returns the records; with ``sink``, each record is handed to sink(record)
    as it is made, none is kept, and None is returned.  A psi0 whose norm is
    not above tol.zero_vector is a ZeroVector: no record of it has an energy."""
    if psi0.basis != H.basis:
        raise BasisMismatch("initial state basis does not match the Hamiltonian")
    if not float(np.linalg.norm(psi0.coefficients)) > tol.zero_vector:
        raise ZeroVector("cannot propagate the zero vector")
    vec0 = psi0.coefficients[H.blocks.order]
    step = _step_operators(H, spec, tol, t0, vec0)
    records = []
    keep = records.append if sink is None else sink
    for t, vec in _walk(step, vec0, f"{spec.method} step", t0, t1, spec.dt, stride):
        keep(_record(H, t, vec))
    return records if sink is None else None


def symplectic_preservation_check(H: TDepHamiltonian, u: TangentVector, v: TangentVector,
                                  spec: IntegratorSpec, t0: float, t1: float,
                                  tol: Tolerances = DEFAULT) -> float:
    """|omega(Uu, Uv) - omega(u, v)| across the full propagation product U,
    with Uu and Uv the final states of ``propagate`` on each direction."""

    def final(w: TangentVector) -> StateVector:
        return propagate(H, w.direction, spec, t0, t1, stride=MAX_STEPS, tol=tol)[-1].state

    return abs(inner(final(u), final(v)).imag - inner(u.direction, v.direction).imag)
