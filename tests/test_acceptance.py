"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single [PASS] line with the measured numbers once its
assertions hold, so `pytest -v -s tests/test_acceptance.py` reads as a
checklist.  Sizes, tolerances, and runtime budgets are frozen here on
purpose; loosening them is a contract change, not a test fix.
"""

import json
from math import factorial
from pathlib import Path

import numpy as np
import pytest

import oracles
from geoschro.cli import main as cli_main
from geoschro.dynamics import (
    CoefficientFn,
    IntegratorSpec,
    TDepHamiltonian,
    average_value,
    differential_of_average,
    hamiltonian_field_residual,
    propagate,
)
from geoschro.hilbert import (
    BasisSpec,
    StateVector,
    TangentVector,
    coherent_state,
    inner,
    monomial_gaussian_state,
)
from geoschro.operators import (
    analytic_certificate,
    build_named,
    commutator,
    flow_commutator,
    metaplectic_set,
)
from geoschro.reduction import (
    commuting_diagram_residual,
    level_set_project,
    ray_of,
    reduced_hamiltonian,
    reduced_symplectic_form,
    u1_act,
    vertical_vector,
)

REPO = Path(__file__).resolve().parent.parent


def _report(criterion: int, detail: str):
    print(f"[PASS] criterion {criterion}: {detail}")


def _oscillator(size: int) -> TDepHamiltonian:
    basis = BasisSpec.hermite(size)
    x2, p2 = (build_named(name, basis) for name in ("x2", "p2"))
    return TDepHamiltonian((
        (CoefficientFn.constant(0.5), p2, "kinetic"),
        (CoefficientFn.constant(0.5), x2, "potential"),
    ))


def _driven_oscillator(size: int) -> TDepHamiltonian:
    """H(t) = p^2/2 + w(t)^2 x^2/2 with w(t) = 1 + 0.1 sin t; the x^2
    coefficient (1 + 0.1 sin t)^2 / 2 is expanded exactly into a constant
    plus two sinusoids."""
    basis = BasisSpec.hermite(size)
    x2, p2 = (build_named(name, basis) for name in ("x2", "p2"))
    return TDepHamiltonian((
        (CoefficientFn.constant(0.5), p2, "kinetic"),
        (CoefficientFn.constant(0.5025), x2, "potential_dc"),
        (CoefficientFn.sinusoid(0.1, 1.0), x2, "potential_drive"),
        (CoefficientFn.sinusoid(-0.0025, 2.0, np.pi / 2), x2, "potential_drive_sq"),
    ))


def _complex_draw(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_criterion_01_hamiltonian_field_identity():
    # each generator, 100 random unnormalized pairs, scale-aware bound
    size = 64
    basis = BasisSpec.hermite(size)
    rng = np.random.default_rng(101)
    worst = 0.0
    for op in metaplectic_set(basis):
        scale_op = op.max_norm() if op.max_norm() > 0 else 1.0
        for _ in range(100):
            psi = StateVector(basis, _complex_draw(rng, size))
            phi_dir = StateVector(basis, _complex_draw(rng, size))
            phi = TangentVector(psi, phi_dir)
            res = hamiltonian_field_residual(op, psi, phi)
            npsi = float(np.linalg.norm(psi.coefficients))
            nphi = float(np.linalg.norm(phi_dir.coefficients))
            bound = 1e-12 * npsi * nphi * scale_op
            assert res <= bound
            worst = max(worst, res / bound)
    _report(1, f"600 draws, worst residual at {worst:.2e} of the scaled 1e-12 bound")


def test_criterion_02_gradient_second_order():
    # central difference of <psi|A psi> along a unitary curve with a
    # third-derivative-bearing profile; the quotient error must drop O(t^2)
    size = 64
    basis = BasisSpec.hermite(size)
    x = metaplectic_set(basis)[4]
    c0 = np.zeros(size, dtype=complex)
    c0[0] = 1 / np.sqrt(2)
    c0[1] = np.exp(1j * np.pi / 4) / np.sqrt(2)
    psi0 = StateVector(basis, c0)
    freq = np.arange(size) + 0.5

    def curve(t):
        return StateVector(basis, c0 * np.exp(-1j * freq * t))

    # velocity of the curve at t = 0 is -i H psi with H the oscillator
    phi_dir = StateVector(basis, -1j * freq * c0)
    exact = differential_of_average(x, psi0, TangentVector(psi0, phi_dir))

    def quotient_error(t):
        fp = average_value(x, curve(t))
        fm = average_value(x, curve(-t))
        return abs((fp - fm) / (2 * t) - exact)

    e3, e4 = quotient_error(1e-3), quotient_error(1e-4)
    ratio = e3 / e4
    assert 80.0 <= ratio <= 120.0
    _report(2, f"quotient errors {e3:.3e} (t=1e-3) / {e4:.3e} (t=1e-4), ratio {ratio:.1f}")


def test_criterion_03_noether_conservation():
    size = 128
    H = _driven_oscillator(size)
    psi0 = coherent_state(0.5, size)
    records = propagate(H, psi0, IntegratorSpec("magnus2", 1e-3), 0.0, 10.0, stride=100)
    norm_drift = max(abs(r.norm - records[0].norm) for r in records)
    j_drift = max(abs(r.momentum_J - records[0].momentum_J) for r in records)
    assert norm_drift <= 1e-12
    assert j_drift <= 1e-12
    _report(3, f"N=128 T=10 dt=1e-3: norm drift {norm_drift:.2e}, J drift {j_drift:.2e}")


def test_criterion_04_spectrum_and_ground_phase():
    size = 64
    H = _oscillator(size)
    from geoschro.dynamics import assemble
    from geoschro.numerics import hermitian_eigendecompose

    es = hermitian_eigendecompose(oracles.densify(H.blocks, assemble(H, 0.0)))
    w = oracles.densify(es.blocks, es.eigenvalues)
    spec_err = float(np.max(np.abs(w[:10] - (np.arange(10) + 0.5))))
    assert spec_err <= 1e-10

    basis = BasisSpec.hermite(size)
    ground = StateVector(basis, np.eye(size)[0])
    target = np.exp(-0.5j)
    final_exact = propagate(H, ground, IntegratorSpec("exact_eig", 1.0), 0.0, 1.0)[-1].state
    err_exact = abs(final_exact.coefficients[0] - target)
    assert err_exact <= 1e-12
    final_magnus = propagate(H, ground, IntegratorSpec("magnus2", 1e-3), 0.0, 1.0,
                             stride=1000)[-1].state
    err_magnus = abs(final_magnus.coefficients[0] - target)
    assert err_magnus <= 1e-8
    _report(4, f"spectrum error {spec_err:.2e}; phase error exact {err_exact:.2e},"
               f" magnus2 {err_magnus:.2e}")


def test_criterion_05_analytic_vector_certificates():
    # claimed constant 2^(m+1) m! for x^m e^{-x^2/2} against p, x, Id
    size = 64
    basis = BasisSpec.hermite(size)
    ops = metaplectic_set(basis)
    checked = 0
    for m in range(4):
        psi = monomial_gaussian_state(m, size)
        claimed = 2.0 ** (m + 1) * float(factorial(m))
        for op in (ops[3], ops[4], ops[5]):
            cert = analytic_certificate(op, psi, 8, claimed_C=claimed)
            assert cert.holds is True, (m, op, cert.fitted_C, claimed)
            checked += 1
    assert checked == 12
    _report(5, "12/12 power-growth certificates hold at n_max=8")


def test_criterion_06_flow_commutator():
    size = 64
    basis = BasisSpec.hermite(size)
    ip = build_named("p", basis).scaled(1j)
    x = metaplectic_set(basis)[4]
    ix = x.scaled(1j)
    ground = StateVector(basis, np.eye(size)[0])
    target = 1j * ground.coefficients

    errs = {}
    for h in (2e-3, 1e-3):
        got = flow_commutator(ip, ix, ground, h).coefficients
        errs[h] = float(np.linalg.norm(got - target) / np.linalg.norm(target))
    assert errs[1e-3] <= 1e-5
    ratio = errs[2e-3] / errs[1e-3]
    assert 3.5 <= ratio <= 4.5
    _report(6, f"relative error {errs[1e-3]:.2e} at h=1e-3, step ratio {ratio:.2f}")


def test_criterion_07_lie_algebra_closures():
    # metaplectic: every pairwise commutator lies in the span of the six
    # generators, checked on the truncation-safe interior block
    size = 64
    basis = BasisSpec.hermite(size)
    ops = metaplectic_set(basis)
    m = size - 4  # two bands of width 2 protect the interior
    columns = []
    for op in ops:
        block = 1j * op.matrix[:m, :m]
        columns.append(np.concatenate([block.real.ravel(), block.imag.ravel()]))
    design = np.column_stack(columns)
    worst = 0.0
    pairs = 0
    for i in range(6):
        for j in range(i + 1, 6):
            K = commutator(ops[i], ops[j]).matrix[:m, :m]
            rhs = np.concatenate([K.real.ravel(), K.imag.ravel()])
            coef, *_ = np.linalg.lstsq(design, rhs, rcond=None)
            recon = design @ coef
            worst = max(worst, float(np.max(np.abs(recon - rhs))))
            pairs += 1
    assert pairs == 15
    assert worst <= 1e-10

    basis3 = BasisSpec.hermite3d(6)
    Lx, Ly, Lz = (build_named(name, basis3).matrix for name in ("Lx", "Ly", "Lz"))
    su2 = max(
        float(np.max(np.abs(oracles.matrix_commutator(Lx, Ly) - 1j * Lz))),
        float(np.max(np.abs(oracles.matrix_commutator(Ly, Lz) - 1j * Lx))),
        float(np.max(np.abs(oracles.matrix_commutator(Lz, Lx) - 1j * Ly))),
    )
    assert su2 <= 1e-12
    _report(7, f"metaplectic span residual {worst:.2e} (15 pairs),"
               f" su(2) residual {su2:.2e} at degree 6")


def test_criterion_08_translation_flow():
    # exp(-i t p) carries the Gaussian to the coherent state with
    # alpha = t / sqrt(2); checked against the series oracle and a
    # quadrature oracle for the shifted Gaussian
    size = 64
    t = 0.5
    basis = BasisSpec.hermite(size)
    p = build_named("p", basis)
    H = TDepHamiltonian(((CoefficientFn.constant(1.0), p, "translation"),))
    ground = StateVector(basis, np.eye(size)[0])
    final = propagate(H, ground, IntegratorSpec("exact_eig", t), 0.0, t)[-1].state

    series = oracles.coherent_coefficients(t / np.sqrt(2), size)
    fidelity = abs(complex(np.vdot(series, final.coefficients)))
    assert fidelity >= 1.0 - 1e-8

    # the flow moves the packet to +t, i.e. the x -> x - t substitution
    quadrature = oracles.shifted_gaussian_overlaps(-t, size)
    fidelity_q = abs(complex(np.vdot(quadrature, final.coefficients)))
    assert fidelity_q >= 1.0 - 1e-8
    _report(8, f"fidelity {fidelity:.12f} (series), {fidelity_q:.12f} (quadrature)")


def test_criterion_09_reduction_well_defined():
    size = 64
    basis = BasisSpec.hermite(size)
    x2 = build_named("x2", basis)
    rng = np.random.default_rng(909)
    mu = -0.5

    def tangent_at(psi_c, raw):
        r = complex(np.vdot(psi_c, raw)).real / float(np.vdot(psi_c, psi_c).real)
        return raw - r * psi_c

    worst_kernel = worst_form = worst_ham = 0.0
    for _ in range(100):
        point = level_set_project(StateVector(basis, _complex_draw(rng, size)), mu)
        psi_c = point.state.coefficients
        v = TangentVector(point.state, StateVector(basis, tangent_at(psi_c, _complex_draw(rng, size))))
        w = TangentVector(point.state, StateVector(basis, tangent_at(psi_c, _complex_draw(rng, size))))

        # vertical directions are in the kernel of the reduced form
        worst_kernel = max(worst_kernel,
                           abs(reduced_symplectic_form(v, vertical_vector(point))))

        # a different representative of the same ray must give the same
        # reduced form and the same reduced Hamiltonian value
        theta = float(rng.uniform(0, 2 * np.pi))
        moved = u1_act(theta, point)
        z = complex(np.cos(theta), np.sin(theta))
        v2 = TangentVector(moved.state, StateVector(basis, z * v.direction.coefficients))
        w2 = TangentVector(moved.state, StateVector(basis, z * w.direction.coefficients))
        worst_form = max(worst_form, abs(reduced_symplectic_form(v, w)
                                         - reduced_symplectic_form(v2, w2)))
        worst_ham = max(worst_ham,
                        abs(reduced_hamiltonian(x2, ray_of(point.state), mu)
                            - reduced_hamiltonian(x2, ray_of(moved.state), mu)))
    assert worst_kernel <= 1e-12
    assert worst_form <= 1e-12
    assert worst_ham <= 1e-12
    _report(9, f"100 draws: kernel {worst_kernel:.2e}, form independence {worst_form:.2e},"
               f" value independence {worst_ham:.2e}")


def test_criterion_10_commuting_diagram():
    size = 64
    H = _driven_oscillator(size)
    psi0 = coherent_state(0.5, size)
    mu = -0.5
    coarse = commuting_diagram_residual(H, psi0, mu, IntegratorSpec("magnus2", 1e-3),
                                        1e-3, 0.0, 5.0, stride=100)
    assert coarse <= 1e-6
    fine = commuting_diagram_residual(H, psi0, mu, IntegratorSpec("magnus2", 2.5e-4),
                                      2.5e-4, 0.0, 5.0, stride=400)
    assert coarse / fine >= 8.0
    _report(10, f"residual {coarse:.3e} at dt=1e-3, {fine:.3e} at dt/4,"
                f" ratio {coarse / fine:.1f}")


def test_criterion_11_deterministic_outputs(tmp_path):
    ran = 0
    for config_path in sorted((REPO / "configs").glob("*.json")):
        raw = json.loads(config_path.read_text())
        command = "reduce" if raw.get("reduction") else "simulate"
        blobs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{config_path.stem}_{attempt}"
            rc = cli_main([command, "--config", str(config_path), "--out", str(out),
                           "--seed", "7"])
            assert rc == 0
            blob = (out / "trajectory.jsonl").read_bytes()
            if command == "reduce":
                blob += (out / "rays.jsonl").read_bytes()
            blob += (out / "summary.json").read_bytes()
            blobs.append(blob)
        assert blobs[0] == blobs[1], f"{config_path.name} differs between runs"
        ran += 1
    assert ran >= 4
    _report(11, f"{ran} golden scenarios byte-identical across repeated runs")
