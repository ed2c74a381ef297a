"""Property suites behind the `verify` subcommand.

Each suite re-measures the invariants of one library layer on freshly drawn
random data and reports {name, measured, bound, pass} per case.  Bounds are
the frozen contract numbers, not knobs; the --tol overrides only feed the
tolerances used *inside* computations (flag checks, eigen gates and the like).
The suites are independent, so `run_verify` runs them in forked lanes, up to
one per available CPU, and joins their cases in serial order.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import time
from dataclasses import dataclass
from math import factorial, pi, sqrt

import numpy as np

from .dynamics import (
    IntegratorSpec,
    average_value,
    differential_of_average,
    hamiltonian_field_residual,
    oscillator_hamiltonian,
    propagate,
)
from .errors import ParseError, UnknownSuite
from .hilbert import (
    BasisSpec,
    StateVector,
    TangentVector,
    chart_norm,
    coherent_state,
    inner,
    monomial_gaussian_state,
    norm,
    symplectic_form,
    tautological_one_form,
    to_real_chart,
)
from .numerics import apply_exp_step, hermitian_eigendecompose
from .operators import (
    analytic_certificate,
    build_named,
    commutator,
    flag_violation,
    flow_commutator,
    metaplectic_set,
)
from .reduction import (
    level_set_project,
    momentum_tangent_map,
    paired_records,
    ray_of,
    reduced_hamiltonian,
    reduced_symplectic_form,
    u1_act,
    vertical_vector,
)
from .tolerances import DEFAULT, Tolerances

# metaplectic index pairs, split by whether the commutator vanishes
NONCOMMUTING_PAIRS = ((0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4))
COMMUTING_PAIRS = ((0, 3), (1, 4), (0, 5), (1, 5), (2, 5), (3, 5), (4, 5))


@dataclass(frozen=True)
class VerifyCase:
    name: str
    measured: float
    bound: float

    @property
    def passed(self) -> bool:
        return bool(self.measured <= self.bound)

    def to_json_dict(self) -> dict:
        return {"name": self.name, "measured": self.measured, "bound": self.bound,
                "pass": self.passed}


def _rng(seed: int, stream: int) -> np.random.Generator:
    """The random stream of one suite (1-4), the same in whichever lane runs it."""
    return np.random.default_rng([seed, stream])


def _draw(rng: np.random.Generator, basis: BasisSpec, unit: bool = False) -> StateVector:
    c = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    if unit:
        c = c / np.linalg.norm(c)
    return StateVector(basis, c)


def _require_size(suite: str, size: int, least: int) -> None:
    """ParseError unless ``size`` reaches ``least``, the smallest basis on
    which every case of ``suite`` is defined."""
    if size < least:
        raise ParseError(f"verify --suite {suite} needs --size >= {least}, got {size}")


def suite_symplectic(size: int, seed: int, tol: Tolerances) -> list[VerifyCase]:
    _require_size("symplectic", size, 1)
    basis = BasisSpec.hermite(size)
    rng = _rng(seed, 1)
    anti = coord = isom = oneform = nondeg = 0.0
    base = _draw(rng, basis)
    for _ in range(100):
        u = _draw(rng, basis)
        v = _draw(rng, basis)
        tu = TangentVector(base, u)
        tv = TangentVector(base, v)
        scale = norm(u) * norm(v)
        anti = max(anti, abs(symplectic_form(tu, tv) + symplectic_form(tv, tu)) / scale)

        w = _draw(rng, basis, unit=True)
        tw = TangentVector(base, w)
        tiw = TangentVector(base, StateVector(basis, 1j * w.coefficients))
        nondeg = max(nondeg, abs(symplectic_form(tw, tiw) - 1.0))

        lhs = inner(u, v).imag
        cu, cv = to_real_chart(u), to_real_chart(v)
        rhs = float(np.dot(cu.q, cv.p) - np.dot(cv.q, cu.p))
        coord = max(coord, abs(lhs - rhs) / scale)

        s = _draw(rng, basis, unit=True)
        isom = max(isom, abs(chart_norm(to_real_chart(s)) - norm(s)))

        # constant fields: d(theta)(u,v) = theta_u(v) - theta_v(u) = -omega(u,v)
        un = StateVector(basis, u.coefficients / norm(u))
        vn = StateVector(basis, v.coefficients / norm(v))
        dtheta = tautological_one_form(to_real_chart(un), TangentVector(base, vn)) \
            - tautological_one_form(to_real_chart(vn), TangentVector(base, un))
        oneform = max(oneform, abs(dtheta + symplectic_form(
            TangentVector(base, un), TangentVector(base, vn))))
    return [
        VerifyCase("symplectic_antisymmetry", anti, 1e-13),
        VerifyCase("symplectic_nondegeneracy", nondeg, 1e-12),
        VerifyCase("coordinate_identity", coord, 1e-13),
        VerifyCase("chart_isometry", isom, 1e-13),
        VerifyCase("one_form_exterior_derivative", oneform, 1e-13),
    ]


def _interior_block(M: np.ndarray, width: int) -> np.ndarray:
    return M[: M.shape[0] - width, : M.shape[0] - width]


def suite_operators(size: int, seed: int, tol: Tolerances) -> list[VerifyCase]:
    _require_size("operators", size, 11)
    basis = BasisSpec.hermite(size)
    H = metaplectic_set(basis)
    rng = _rng(seed, 2)

    L = Lx, Ly, Lz = [build_named(name, BasisSpec.hermite3d(6)) for name in ("Lx", "Ly", "Lz")]
    built = [*H, *L, build_named("fourier_p2", BasisSpec.fourier(size, pi))]
    flag = max(flag_violation(op.matrix, "hermitian", 0.0) for op in built)  # max|M - M^H|

    # commutators of i H_a must fall back into the real span of {i H_c}
    closure = 0.0
    span_ops = [1j * op.matrix for op in H]
    for a in range(6):
        for b in range(a + 1, 6):
            width = H[a].raise_band + H[b].raise_band
            K = _interior_block(span_ops[a] @ span_ops[b] - span_ops[b] @ span_ops[a], width)
            cols = [_interior_block(S, width) for S in span_ops]
            A = np.stack([np.concatenate([c.real.ravel(), c.imag.ravel()]) for c in cols], axis=1)
            y = np.concatenate([K.real.ravel(), K.imag.ravel()])
            coeffs, *_ = np.linalg.lstsq(A, y, rcond=None)
            resid = K - sum(c * blk for c, blk in zip(coeffs, cols))
            closure = max(closure, float(np.max(np.abs(resid))))

    su2 = 0.0
    for La, Lb, Lc in ((Lx, Ly, Lz), (Ly, Lz, Lx), (Lz, Lx, Ly)):
        K = La.matrix @ Lb.matrix - Lb.matrix @ La.matrix
        su2 = max(su2, float(np.max(np.abs(K - 1j * Lc.matrix))))

    probe = np.zeros(size, dtype=np.complex128)
    probe[:3] = (1.0, 0.5, 0.25)
    psi = StateVector(basis, probe / np.linalg.norm(probe))
    skew = [op.scaled(1j, tol) for op in H]
    ratio_dev = 0.0
    for a, b in NONCOMMUTING_PAIRS:
        A, B = skew[a], skew[b]
        target = commutator(A, B, tol).apply(psi).coefficients
        e = {}
        for h in (2e-3, 1e-3):
            e[h] = float(np.linalg.norm(flow_commutator(A, B, psi, h, tol).coefficients - target))
        ratio_dev = max(ratio_dev, abs(e[2e-3] / e[1e-3] - 4.0))

    null = 0.0
    for a, b in COMMUTING_PAIRS:
        A, B = skew[a], skew[b]
        null = max(null, float(np.linalg.norm(flow_commutator(A, B, psi, 1e-3, tol).coefficients)))

    base_state = monomial_gaussian_state(2, size)
    x_op = H[4]
    fitted0 = analytic_certificate(x_op, base_state, 8, tol=tol).fitted_C
    phase_dev = 0.0
    for _ in range(20):
        theta = rng.uniform(0, 2 * pi)
        rotated = StateVector(basis, np.exp(1j * theta) * base_state.coefficients)
        phase_dev = max(phase_dev, abs(
            analytic_certificate(x_op, rotated, 8, tol=tol).fitted_C - fitted0))

    return [
        VerifyCase("hermitian_flag_drift", flag, 1e-14),
        VerifyCase("metaplectic_closure", closure, 1e-10),
        VerifyCase("su2_closure", su2, 1e-12),
        VerifyCase("flow_vs_algebra_ratio", ratio_dev, 0.5),
        VerifyCase("flow_commutator_null_pairs", null, 1e-7),
        VerifyCase("certificate_phase_invariance", phase_dev, 1e-12),
    ]


def suite_analytic(size: int, seed: int, tol: Tolerances) -> list[VerifyCase]:
    _require_size("analytic", size, 12)
    basis = BasisSpec.hermite(size)
    ops = {"p": build_named("p", basis), "x": build_named("x", basis),
           "id": build_named("id", basis)}
    cases = []
    for m in range(4):
        psi = monomial_gaussian_state(m, size)
        claimed = float(2 ** (m + 1) * factorial(m))
        for label, op in ops.items():
            cert = analytic_certificate(op, psi, 8, claimed_C=claimed, tol=tol)
            cases.append(VerifyCase(f"certificate_m{m}_{label}", cert.fitted_C / claimed, 1.0))
    return cases


def suite_dynamics(size: int, seed: int, tol: Tolerances) -> list[VerifyCase]:
    _require_size("dynamics", size, 3)
    basis = BasisSpec.hermite(size)
    driven = oscillator_hamiltonian(size, drive=0.05)
    osc = oscillator_hamiltonian(size)
    low = coherent_state(0.5, size)
    rng = _rng(seed, 3)

    recs = propagate(driven, low, IntegratorSpec("magnus2", 1e-3), 0.0, 10.0, stride=10, tol=tol)
    norm_drift = max(abs(r.norm - recs[0].norm) for r in recs)
    mom_drift = max(abs(r.momentum_J - recs[0].momentum_J) for r in recs)

    psi_r = _draw(rng, basis, unit=True)
    recs_e = propagate(osc, psi_r, IntegratorSpec("exact_eig", 0.1), 0.0, 10.0, tol=tol)
    e0 = recs_e[0].energy
    energy_exact = max(abs(r.energy - e0) for r in recs_e) / (1.0 + abs(e0))

    recs_m = propagate(osc, low, IntegratorSpec("magnus2", 1e-3), 0.0, 10.0, stride=10, tol=tol)
    energy_magnus = max(abs(r.energy - recs_m[0].energy) for r in recs_m)

    ref = propagate(osc, low, IntegratorSpec("exact_eig", 0.5), 0.0, 1.0, tol=tol)[-1]
    errs = []
    for dt in (1e-2, 5e-3):
        fin = propagate(osc, low, IntegratorSpec("cayley2", dt), 0.0, 1.0, stride=10 ** 6, tol=tol)[-1]
        errs.append(float(np.linalg.norm(fin.state.coefficients - ref.state.coefficients)))
    cayley_ratio = abs(errs[0] / errs[1] - 4.0)

    # the dt=1e-3 run above already passed t=2.0 on the same grid, bit for bit
    finals = {1e-3: next(r for r in recs if r.t == 2.0).state.coefficients}
    for dt in (4e-3, 2e-3, 5e-4):
        finals[dt] = propagate(driven, low, IntegratorSpec("magnus2", dt), 0.0, 2.0,
                               stride=10 ** 6, tol=tol)[-1].state.coefficients
    richardson = (4.0 * finals[5e-4] - finals[1e-3]) / 3.0
    e1 = float(np.linalg.norm(finals[4e-3] - richardson))
    e2 = float(np.linalg.norm(finals[2e-3] - richardson))
    magnus_ratio = abs(e1 / e2 - 4.0)

    field_dev = 0.0
    for op in metaplectic_set(basis):
        scale_op = op.max_norm()
        for _ in range(100):
            psi = _draw(rng, basis)
            phi = TangentVector(psi, _draw(rng, basis))
            res = hamiltonian_field_residual(op, psi, phi)
            field_dev = max(field_dev, res / (norm(psi) * norm(phi.direction) * scale_op))

    two = np.zeros(size, dtype=np.complex128)
    two[0] = 1 / sqrt(2)
    two[1] = np.exp(1j * pi / 4) / sqrt(2)
    psi0 = StateVector(basis, two)
    x_op = build_named("x", basis)
    h0 = 0.5 * (build_named("p2", basis).matrix + build_named("x2", basis).matrix)
    es = hermitian_eigendecompose(h0, tol)
    gen = StateVector(basis, -1j * (h0 @ two))
    exact = differential_of_average(x_op, psi0, TangentVector(psi0, gen))

    def big_c(t: float) -> float:
        fp, fm = (average_value(x_op, StateVector(basis, apply_exp_step(es, s, two)))
                  for s in (t, -t))
        return abs((fp - fm) / (2 * t) - exact) / t ** 2

    gateaux = abs(big_c(1e-3) / big_c(1e-4) - 1.0)

    return [
        VerifyCase("norm_drift_magnus2_driven", norm_drift, 1e-12),
        VerifyCase("momentum_drift_magnus2_driven", mom_drift, 1e-12),
        VerifyCase("energy_drift_exact_eig", energy_exact, 1e-10),
        VerifyCase("energy_drift_magnus2_autonomous", energy_magnus, 1e-6),
        VerifyCase("order2_cayley2_autonomous", cayley_ratio, 0.5),
        VerifyCase("order2_magnus2_driven_richardson", magnus_ratio, 0.5),
        VerifyCase("hamiltonian_field_identity", field_dev, 1e-12),
        VerifyCase("gateaux_residual_stability", gateaux, 0.05),
    ]


def suite_reduction(size: int, seed: int, tol: Tolerances) -> list[VerifyCase]:
    _require_size("reduction", size, 3)
    basis = BasisSpec.hermite(size)
    driven = oscillator_hamiltonian(size, drive=0.05)
    low = coherent_state(0.5, size)
    rng = _rng(seed, 4)
    mu = -0.5

    # one paired run gives every flow case: the momentum drift upstairs, the
    # projector drifts downstairs, and the diagram residual at its record times
    up, _, drifts, residuals = paired_records(driven, low, mu, IntegratorSpec("magnus2", 1e-3),
                                              1e-3, 0.0, 5.0, stride=10, tol=tol)
    mom_drift = max(abs(r.momentum_J - up[0].momentum_J) for r in up)

    level_dev = 0.0
    ops = metaplectic_set(basis)
    for op in ops:
        for _ in range(20):
            point = level_set_project(_draw(rng, basis), mu, tol)
            psi = point.state
            hpsi = op.matrix @ psi.coefficients
            phi = TangentVector(psi, StateVector(basis, -1j * hpsi))
            scale = norm(psi) * float(np.linalg.norm(hpsi))
            level_dev = max(level_dev, abs(momentum_tangent_map(phi)) / scale)

    def tangent_at(psi: StateVector) -> StateVector:
        v = _draw(rng, basis).coefficients
        c = psi.coefficients
        v = v - (complex(np.vdot(c, v)).real / float(np.vdot(c, c).real)) * c
        return StateVector(basis, v)

    kernel = 0.0
    for _ in range(100):
        point = level_set_project(_draw(rng, basis), mu, tol)
        w = tangent_at(point.state)
        vert = vertical_vector(point)
        val = symplectic_form(vert, TangentVector(point.state, w))
        kernel = max(kernel, abs(val) / (norm(point.state) * norm(w)))

    form_dev = ham_dev = canon_dev = 0.0
    for _ in range(25):
        point = level_set_project(_draw(rng, basis), mu, tol)
        v = tangent_at(point.state)
        w = tangent_at(point.state)
        before = reduced_symplectic_form(TangentVector(point.state, v),
                                         TangentVector(point.state, w), tol)
        theta = rng.uniform(0, 2 * pi)
        rp = u1_act(theta, point, tol)
        z = np.exp(1j * theta)
        after = reduced_symplectic_form(
            TangentVector(rp.state, StateVector(basis, z * v.coefficients)),
            TangentVector(rp.state, StateVector(basis, z * w.coefficients)), tol)
        form_dev = max(form_dev, abs(after - before))

        psi = _draw(rng, basis)
        rotated = StateVector(basis, z * psi.coefficients)
        fa = reduced_hamiltonian(ops[0], ray_of(psi, tol), mu)
        fb = reduced_hamiltonian(ops[0], ray_of(rotated, tol), mu)
        ham_dev = max(ham_dev, abs(fa - fb))

        ca = ray_of(psi, tol).representative.coefficients
        cb = ray_of(rotated, tol).representative.coefficients
        canon_dev = max(canon_dev, float(np.max(np.abs(ca - cb))))

    return [
        VerifyCase("momentum_conservation_driven", mom_drift, 1e-12),
        VerifyCase("level_set_invariance", level_dev, 1e-12),
        VerifyCase("vertical_kernel_identity", kernel, 1e-12),
        VerifyCase("representative_independence_form", form_dev, 1e-12),
        VerifyCase("representative_independence_hamiltonian", ham_dev, 1e-12),
        VerifyCase("ray_canonicalization", canon_dev, 1e-13),
        VerifyCase("projector_trace_drift", drifts["trace"], 1e-9),
        VerifyCase("projector_hermiticity_drift", drifts["hermiticity"], 1e-9),
        VerifyCase("projector_idempotency_drift", drifts["idempotency"], 1e-6),
        VerifyCase("commuting_diagram_driven", max(residuals), 1e-6),
    ]


SUITES = {
    "symplectic": suite_symplectic,
    "operators": suite_operators,
    "analytic": suite_analytic,
    "dynamics": suite_dynamics,
    "reduction": suite_reduction,
}


_PR_SET_PDEATHSIG = 1  # <linux/prctl.h>


def _run_lane(names: tuple, size: int, seed: int, tol: Tolerances) -> dict:
    """{suite: its cases, or the exception it raised} for one lane's suites,
    run in order; the lane stops at the first suite that raises, as a serial
    run would."""
    outcomes = {}
    for name in names:
        try:
            outcomes[name] = SUITES[name](size, seed, tol)
        except Exception as exc:  # carried to run_verify, which raises it in suite order
            outcomes[name] = exc
            break
    return outcomes


def _die_with_parent(parent: int) -> None:
    """Have the kernel SIGKILL this process when the thread that forked it
    ends, and end now if that has already happened."""
    import signal

    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
    prctl.restype = ctypes.c_int
    if prctl(_PR_SET_PDEATHSIG, signal.SIGKILL) != 0 or os.getppid() != parent:
        os._exit(1)


def _fork_lane(names: tuple, size: int, seed: int, tol: Tolerances) -> tuple:
    """(pid, read end of its pipe) of a forked child that runs one lane and
    writes its outcomes there, pickled, before it exits."""
    read_fd, write_fd = os.pipe()
    parent = os.getpid()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            _die_with_parent(parent)
            data = pickle.dumps(_run_lane(names, size, seed, tol))
            with open(write_fd, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:  # whatever happened, the child never unwinds into the caller's frames
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _run_lanes(names: tuple, size: int, seed: int, tol: Tolerances) -> dict:
    """{suite: its cases or the exception that stops the run} for every suite
    in ``names`` up to the first that raises in its lane.  The suites are
    dealt round-robin into one lane per available CPU, at most one per suite;
    the caller runs the last lane itself and forks a child for each other,
    so one lane forks nothing.
    A child that ends without a result, as one the OOM killer stops does,
    gives each of its suites a MemoryError that names them and how it ended.
    Every child is killed and reaped before this returns or raises."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    k = min(cpus, len(names))
    # imported here, not at the top, so that importing the CLI does not pay for it
    import signal

    lanes = [names[i::k] for i in range(k)]
    children = {}  # pid: (lane, pipe), until reaped
    try:
        for lane in lanes[:-1]:
            pid, pipe = _fork_lane(lane, size, seed, tol)
            children[pid] = (lane, pipe)
        outcomes = _run_lane(lanes[-1], size, seed, tol)
        for pid, (lane, pipe) in list(children.items()):
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if status == 0:
                outcomes.update(pickle.loads(data))
                continue
            how = (f"by {signal.Signals(os.WTERMSIG(status)).name}" if os.WIFSIGNALED(status)
                   else f"with exit status {os.waitstatus_to_exitcode(status)}")
            lost = MemoryError(f"the lane running {', '.join(lane)} ended {how}")
            outcomes.update(dict.fromkeys(lane, lost))
        return outcomes
    finally:
        for pid, (_, pipe) in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()


def run_verify(suite: str, size: int, seed: int, tol: Tolerances = DEFAULT) -> dict:
    """Run one suite (or all of them) and return the report dict.  The cases,
    and the error raised when a suite fails, are those of a serial run."""
    if suite != "all" and suite not in SUITES:
        raise UnknownSuite(f"unknown suite {suite!r}; choose from {(*SUITES, 'all')}")
    if seed < 0:
        raise ParseError(f"verify --seed must be >= 0, got {seed}")
    start = time.perf_counter()
    names = tuple(SUITES) if suite == "all" else (suite,)
    outcomes = _run_lanes(names, size, seed, tol)
    cases = []
    for name in names:
        outcome = outcomes[name]
        if isinstance(outcome, MemoryError):
            raise ParseError(f"verify --size {size} is too large: {outcome}") from outcome
        if isinstance(outcome, Exception):
            raise outcome
        cases += outcome
    elapsed = time.perf_counter() - start
    return {
        "suite": suite,
        "cases": [c.to_json_dict() for c in cases],
        "seed": seed,
        "elapsed": round(elapsed, 3),
    }
