"""Coefficient functions, Hamiltonian assembly, and the three integrators."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

import oracles
from geoschro import dynamics
from geoschro.errors import BasisMismatch, IntegratorMismatch, NotHermitian, NumericError
from geoschro.dynamics import (
    CoefficientFn,
    IntegratorSpec,
    TDepHamiltonian,
    _step_operators,
    _time_grid,
    assemble,
    average_value,
    differential_of_average,
    hamiltonian_field_residual,
    hamiltonian_function,
    propagate,
    schrodinger_rhs,
    symplectic_preservation_check,
)
from geoschro.hilbert import BasisSpec, StateVector, TangentVector, coherent_state, inner
from geoschro.numerics import apply_exp_step, hermitian_eigendecompose, random_state
from geoschro.operators import (
    BUILTIN_OPERATORS,
    OperatorMatrix,
    build_identity,
    build_named,
    build_position,
    build_quadratics,
)
from geoschro.tolerances import DEFAULT


def _oscillator(size):
    basis = BasisSpec.hermite(size)
    x2, p2, _ = build_quadratics(basis)
    return TDepHamiltonian((
        (CoefficientFn.constant(0.5), p2, "kinetic"),
        (CoefficientFn.constant(0.5), x2, "potential"),
    ))


def _basis_order_step(H, spec, t0, vec0):
    """The step of _step_operators on basis-order states: the steps
    themselves carry states in the block order of H.blocks."""
    order, back = H.blocks.order, H.blocks.inverse
    step = _step_operators(H, spec, DEFAULT, t0, vec0[order])
    return lambda t, t_next, vec: step(t, t_next, vec[order])[back]


def _driven(size, amplitude=0.05):
    basis = BasisSpec.hermite(size)
    x2, p2, _ = build_quadratics(basis)
    return TDepHamiltonian((
        (CoefficientFn.constant(0.5), p2, "kinetic"),
        (CoefficientFn.constant(0.5), x2, "potential"),
        (CoefficientFn.sinusoid(amplitude, 1.0), x2, "drive"),
    ))


class TestCoefficientFn:
    def test_constant_and_sinusoid(self):
        assert CoefficientFn.constant(2.5)(17.0) == 2.5
        f = CoefficientFn.sinusoid(2.0, 3.0, 0.5)
        assert f(0.7) == pytest.approx(2.0 * np.sin(3.0 * 0.7 + 0.5), abs=1e-15)

    @given(st.lists(st.floats(-2, 2), min_size=1, max_size=6),
           st.floats(-3, 3))
    def test_polynomial_matches_reference_evaluation(self, coeffs, t):
        f = CoefficientFn.polynomial(coeffs)
        assert f(t) == pytest.approx(P.polyval(t, np.asarray(coeffs)), rel=1e-12, abs=1e-12)

    def test_table_interpolates_and_clamps(self):
        f = CoefficientFn.table([(0.0, 1.0), (1.0, 3.0)])
        assert f(0.5) == 2.0
        assert f(-5.0) == 1.0
        assert f(7.0) == 3.0

    def test_json_round_trip_all_kinds(self):
        fns = [CoefficientFn.constant(1.5),
               CoefficientFn.sinusoid(0.1, 2.0, 0.3),
               CoefficientFn.polynomial([1.0, 0.0, -2.0]),
               CoefficientFn.table([(0.0, 0.0), (2.0, 1.0)])]
        for f in fns:
            g = CoefficientFn.from_json_dict(f.to_json_dict())
            assert g == f
            for t in (-1.0, 0.0, 0.37, 2.5):
                assert g(t) == f(t)

    def test_validation(self):
        with pytest.raises(ValueError):
            CoefficientFn.polynomial([])
        with pytest.raises(ValueError):
            CoefficientFn.table([(1.0, 0.0), (1.0, 1.0)])
        with pytest.raises(ValueError):
            CoefficientFn("spline")

    def test_is_constant(self):
        assert CoefficientFn.constant(0.0).is_constant
        assert not CoefficientFn.sinusoid(1.0, 1.0).is_constant


class TestHamiltonianAssembly:
    def test_terms_must_be_hermitian_and_share_basis(self):
        basis = BasisSpec.hermite(6)
        x = build_position(basis)
        with pytest.raises(NotHermitian):
            TDepHamiltonian(((CoefficientFn.constant(1.0), x.scaled(1j), "bad"),))
        with pytest.raises(BasisMismatch):
            TDepHamiltonian((
                (CoefficientFn.constant(1.0), x, "a"),
                (CoefficientFn.constant(1.0), build_position(BasisSpec.hermite(5)), "b"),
            ))
        with pytest.raises(ValueError):
            TDepHamiltonian(())

    def test_is_autonomous(self):
        assert _oscillator(8).is_autonomous
        assert not _driven(8).is_autonomous

    def test_assemble_sums_with_coefficients(self):
        H = _driven(10)
        t = 0.9
        x2, p2, _ = build_quadratics(BasisSpec.hermite(10))
        expected = 0.5 * p2.matrix + (0.5 + 0.05 * np.sin(t)) * x2.matrix
        got = oracles.densify(H.blocks, assemble(H, t))
        assert np.max(np.abs(got - expected)) < 1e-15
        assert np.array_equal(got, got.conj().T)

    def test_oscillator_assembles_to_exact_diagonal(self):
        H = _oscillator(12)
        A = oracles.densify(H.blocks, assemble(H, 0.0))
        assert np.array_equal(A, np.diag(np.arange(12) + 0.5).astype(complex))

    def test_real_terms_assemble_real_and_complex_terms_complex(self):
        assert all(S.dtype == np.float64 for S in assemble(_driven(10), 0.3))
        basis = BasisSpec.hermite(10)
        H = TDepHamiltonian(((CoefficientFn.constant(1.0), build_named("p", basis), "p"),
                             (CoefficientFn.constant(0.5), build_named("x2", basis), "x2")))
        assert all(S.dtype == np.complex128 for S in assemble(H, 0.3))

    def test_real_magnus2_step_matches_complex_path(self):
        H = _driven(32, amplitude=0.3)
        psi = coherent_state(0.8, 32).coefficients
        t, dt = 0.4, 0.02
        got = _basis_order_step(H, IntegratorSpec("magnus2", dt), t, psi)(t, t + dt, psi)
        M = oracles.densify(H.blocks, assemble(H, t + dt / 2)).astype(np.complex128)
        want = apply_exp_step(hermitian_eigendecompose(M), dt, psi)
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_rhs_direction(self):
        H = _oscillator(6)
        psi = random_state(6, 0)
        v = schrodinger_rhs(H, 0.0, psi)
        expected = -1j * (oracles.densify(H.blocks, assemble(H, 0.0)) @ psi.coefficients)
        assert np.array_equal(v.direction.coefficients, expected)
        assert v.base_point is psi


def _term(name):
    """The operator of a builtin name on a basis it acts on, or the
    oracle's nearly Hermitian matrix as an operator-file term."""
    if name == "nearly_hermitian_file":
        return OperatorMatrix(BasisSpec.hermite(8), oracles.nearly_hermitian_matrix(),
                              "hermitian", 7, 7)
    if name in ("Lx", "Ly", "Lz"):
        return build_named(name, BasisSpec.hermite3d(3))
    if name == "fourier_p2":
        return build_named(name, BasisSpec.fourier(8, 1.0))
    return build_named(name, BasisSpec.hermite(8))


class TestHermitianByConstruction:
    @pytest.mark.parametrize("name", BUILTIN_OPERATORS + ("nearly_hermitian_file",))
    def test_every_assembled_stack_equals_its_conjugate_transpose(self, name):
        op = _term(name)
        H = TDepHamiltonian(((CoefficientFn.constant(0.5), op, "lead"),
                             (CoefficientFn.sinusoid(0.3, 1.0), op, "drive"),
                             (CoefficientFn.polynomial([0.1, -0.7]), op, "ramp")))
        for t in (0.0, 0.4, 2.9):
            for S in assemble(H, t):
                assert np.array_equal(S, S.swapaxes(-1, -2).conj())

    @pytest.mark.parametrize("name", BUILTIN_OPERATORS)
    def test_builtin_terms_keep_their_bits(self, name):
        op = _term(name)
        H = TDepHamiltonian(((CoefficientFn.constant(1.0), op, name),))
        for S, T in zip(assemble(H, 0.0), H.blocks.gather(op.matrix)):
            assert S.dtype == T.dtype and np.array_equal(S, T)

    def test_a_file_term_enters_as_its_hermitian_part(self):
        op = _term("nearly_hermitian_file")
        H = TDepHamiltonian(((CoefficientFn.constant(1.0), op, "op.json"),))
        got = oracles.densify(H.blocks, assemble(H, 0.0))
        M = op.matrix
        assert np.array_equal(got, 0.5 * M + 0.5 * M.T)
        moved = got != M
        assert moved[0, 1] and moved[1, 0] and np.count_nonzero(moved) == 2
        # half the deviation that the flag check let through
        assert np.max(np.abs(got - M)) <= 0.5 * DEFAULT.flag_check * np.max(np.abs(M))


class TestObservables:
    def test_ground_state_averages(self):
        basis = BasisSpec.hermite(12)
        x2 = build_quadratics(basis)[0]
        ground = StateVector(basis, np.eye(12)[0])
        assert average_value(x2, ground) == 0.5
        assert hamiltonian_function(x2, ground) == 0.25

    def test_average_requires_hermitian_flag(self):
        basis = BasisSpec.hermite(4)
        D = OperatorMatrix.from_matrix(basis, -np.eye(4, k=-1))
        assert D.symmetry == "none"
        with pytest.raises(NotHermitian):
            average_value(D, StateVector(basis, np.eye(4)[0]))

    def test_differential_matches_central_difference(self):
        basis = BasisSpec.hermite(10)
        A = build_quadratics(basis)[1]
        psi = random_state(10, 3)
        phi_dir = random_state(10, 4)
        phi = TangentVector(psi, phi_dir)
        got = differential_of_average(A, psi, phi)
        eps = 1e-4

        def f(s):
            c = psi.coefficients + s * phi_dir.coefficients
            return complex(np.vdot(c, A.matrix @ c)).real

        # the average is quadratic in s, so the central difference is exact
        assert got == pytest.approx((f(eps) - f(-eps)) / (2 * eps), abs=1e-9)

    @given(st.integers(0, 10 ** 6))
    def test_field_residual_vanishes(self, seed):
        basis = BasisSpec.hermite(9)
        A = build_quadratics(basis)[0]
        psi = random_state(9, seed)
        phi = TangentVector(psi, random_state(9, seed + 1))
        assert hamiltonian_field_residual(A, psi, phi) == 0.0


class TestIntegratorSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntegratorSpec("rk4", 0.1)
        with pytest.raises(ValueError):
            IntegratorSpec("magnus2", 0.0)


class TestExactEig:
    def test_matches_closed_form_oscillator(self):
        H = _oscillator(16)
        psi0 = random_state(16, 7)
        recs = propagate(H, psi0, IntegratorSpec("exact_eig", 0.1), 0.0, 1.3)
        for r in recs:
            expected = oracles.oscillator_closed_form(psi0.coefficients, r.t)
            assert np.max(np.abs(r.state.coefficients - expected)) < 1e-12

    def test_coherent_state_rotates(self):
        # alpha(t) = alpha e^{-it} with global phase e^{-it/2}
        alpha, t = 0.5, 0.8
        H = _oscillator(32)
        psi0 = coherent_state(alpha, 32)
        final = propagate(H, psi0, IntegratorSpec("exact_eig", t), 0.0, t)[-1].state
        expected = coherent_state(alpha * np.exp(-1j * t), 32)
        expected = StateVector(expected.basis, np.exp(-1j * t / 2) * expected.coefficients)
        assert np.max(np.abs(final.coefficients - expected.coefficients)) < 1e-12

    def test_two_level_superposition_returns_at_full_period(self):
        H = _oscillator(4)
        basis = BasisSpec.hermite(4)
        psi0 = StateVector(basis, np.array([1, 1, 0, 0]) / np.sqrt(2))
        final = propagate(H, psi0, IntegratorSpec("exact_eig", 0.5), 0.0, 2 * np.pi)[-1].state
        # overall phase e^{-i pi} only
        assert np.max(np.abs(final.coefficients + psi0.coefficients)) < 1e-12
        assert abs(abs(inner(psi0, final)) - 1.0) < 1e-13

    def test_rejects_driven_hamiltonian(self):
        with pytest.raises(IntegratorMismatch):
            propagate(_driven(8), random_state(8, 0), IntegratorSpec("exact_eig", 0.1), 0.0, 1.0)


class TestSteppedIntegrators:
    def test_magnus2_exact_for_autonomous(self):
        H = _oscillator(12)
        psi0 = random_state(12, 11)
        a = propagate(H, psi0, IntegratorSpec("exact_eig", 0.01), 0.0, 1.0)[-1].state
        b = propagate(H, psi0, IntegratorSpec("magnus2", 0.01), 0.0, 1.0)[-1].state
        assert np.max(np.abs(a.coefficients - b.coefficients)) < 1e-12

    def test_cayley2_second_order(self):
        H = _oscillator(12)
        psi0 = random_state(12, 5)
        ref = propagate(H, psi0, IntegratorSpec("exact_eig", 0.5), 0.0, 0.5)[-1].state
        errs = []
        for dt in (0.02, 0.01):
            out = propagate(H, psi0, IntegratorSpec("cayley2", dt), 0.0, 0.5)[-1].state
            errs.append(np.linalg.norm(out.coefficients - ref.coefficients))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)

    def test_cayley2_norm_preserving(self):
        recs = propagate(_driven(16), random_state(16, 2),
                         IntegratorSpec("cayley2", 1e-2), 0.0, 2.0, stride=20)
        for r in recs:
            assert abs(r.norm - 1.0) < 1e-13

    def test_magnus2_driven_norm_momentum_drift(self):
        recs = propagate(_driven(16), random_state(16, 9),
                         IntegratorSpec("magnus2", 1e-3), 0.0, 2.0, stride=500)
        for r in recs:
            assert abs(r.norm - 1.0) < 1e-13
            assert abs(r.momentum_J + 0.5) < 1e-13

    @pytest.mark.parametrize("size", [32, 33])
    def test_blocked_magnus2_step_matches_dense_step(self, size):
        H = _driven(size, amplitude=0.3)
        assert sum(len(idx) for idx in H.blocks.groups) > 1  # H splits into blocks
        pair = np.column_stack([random_state(size, 4).coefficients,
                                random_state(size, 5).coefficients])
        step = _basis_order_step(H, IntegratorSpec("magnus2", 1e-2), 0.0, pair)
        for t, tau in ((0.0, 1e-2), (1.3, 0.25)):
            dense = hermitian_eigendecompose(oracles.densify(H.blocks, assemble(H, t + tau / 2.0)))
            want = apply_exp_step(dense, tau, pair)
            got = step(t, t + tau, pair)
            assert np.max(np.abs(got - want)) <= 1e-13
            assert np.max(np.abs(step(t, t + tau, pair[:, 0]) - want[:, 0])) <= 1e-13

    @pytest.mark.parametrize("size", [33, 64])
    def test_block_magnus2_step_matches_the_dense_reference(self, size):
        H = _driven(size, amplitude=0.3)
        psi = coherent_state(0.5 + 0.2j, size).coefficients
        pair = np.column_stack([psi, random_state(size, 5).coefficients])
        step = _basis_order_step(H, IntegratorSpec("magnus2", 1e-3), 0.0, psi)
        for t, tau in ((0.0, 1e-3), (1.3, 0.25)):
            for vec in (psi, pair):
                want = oracles.reference_magnus2_step(H, t, tau, vec)
                assert np.max(np.abs(step(t, t + tau, vec) - want)) <= 1e-13


class TestRecordGrid:
    def test_zero_duration_single_record(self):
        recs = propagate(_oscillator(6), random_state(6, 0),
                         IntegratorSpec("exact_eig", 0.1), 0.5, 0.5)
        assert len(recs) == 1
        assert recs[0].t == 0.5

    def test_final_step_shortens(self):
        recs = propagate(_oscillator(6), random_state(6, 1),
                         IntegratorSpec("magnus2", 0.1), 0.0, 0.55)
        ts = [r.t for r in recs]
        assert ts[-1] == 0.55
        assert ts[-2] == pytest.approx(0.5, abs=1e-12)
        assert len(ts) == 7

    def test_exact_division_lands_on_endpoint(self):
        recs = propagate(_oscillator(6), random_state(6, 1),
                         IntegratorSpec("magnus2", 0.1), 0.0, 1.0)
        assert [r.t for r in recs][-1] == 1.0
        assert len(recs) == 11

    def test_stride_keeps_endpoints(self):
        recs = propagate(_oscillator(6), random_state(6, 1),
                         IntegratorSpec("magnus2", 0.1), 0.0, 1.0, stride=3)
        ts = [r.t for r in recs]
        assert ts[0] == 0.0 and ts[-1] == 1.0
        assert len(ts) == 5  # t0, k=3, 6, 9, final

    def test_record_json_shape(self):
        rec = propagate(_oscillator(4), random_state(4, 0),
                        IntegratorSpec("exact_eig", 0.1), 0.0, 0.1)[-1]
        d = rec.to_json_dict()
        assert set(d) == {"t", "norm", "J", "energy"}
        d2 = rec.to_json_dict(include_coefficients=True)
        assert len(d2["re"]) == 4 and len(d2["im"]) == 4


class TestSymplecticPreservation:
    def test_equal_arguments_exactly_zero(self):
        H = _driven(10)
        base = random_state(10, 0)
        u = TangentVector(base, random_state(10, 1))
        assert symplectic_preservation_check(H, u, u, IntegratorSpec("magnus2", 1e-2),
                                             0.0, 1.0) == 0.0

    def test_random_pair_preserved(self):
        H = _driven(12)
        base = random_state(12, 0)
        u = TangentVector(base, random_state(12, 1))
        v = TangentVector(base, random_state(12, 2))
        drift = symplectic_preservation_check(H, u, v, IntegratorSpec("magnus2", 1e-3),
                                              0.0, 1.0)
        assert drift < 1e-12

    def test_identity_hamiltonian_is_pure_phase(self):
        basis = BasisSpec.hermite(8)
        H = TDepHamiltonian(((CoefficientFn.constant(1.0), build_identity(basis), "id"),))
        base = random_state(8, 3)
        u = TangentVector(base, random_state(8, 4))
        v = TangentVector(base, random_state(8, 5))
        drift = symplectic_preservation_check(H, u, v, IntegratorSpec("exact_eig", 0.1),
                                              0.0, 1.0)
        assert drift < 1e-14


class TestStepBudget:
    def test_grid_beyond_max_steps_is_numeric_error(self):
        with pytest.raises(NumericError, match="MAX_STEPS"):
            list(_time_grid(0.0, 1e300, 1e-3))

    def test_budget_counts_every_segment(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_STEPS", 10)
        assert list(_time_grid(0.0, 10.0, 1.0, knots=(4.0,))) == [float(k) for k in range(11)]
        with pytest.raises(NumericError, match="needs 7 more steps, only 6"):
            list(_time_grid(0.0, 11.0, 1.0, knots=(4.0,)))

    def test_sinusoid_with_overflowing_argument_is_numeric_error(self):
        f = CoefficientFn.sinusoid(1.0, 1e308)
        assert f(1.0) == math.sin(1e308)
        with pytest.raises(NumericError, match="not finite"):
            f(2.0)

    def test_largest_grid_in_use_is_accepted(self):
        assert len(list(_time_grid(0.0, 5.0, 2.5e-4))) == 20001

    def test_grid_is_generated_point_by_point(self):
        tracemalloc.start()
        try:
            head = list(itertools.islice(_time_grid(0.0, 1e3, 1e-3), 1000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert head[:3] == [0.0, 1e-3, 2e-3] and len(head) == 1000
        assert peak < 2**20  # the whole 10**6-step grid as a list takes ~39 MiB


class TestDtypeOfH:
    def test_mixed_terms_assemble_to_the_complex_sum(self):
        basis = BasisSpec.hermite(10)
        p, x2 = build_named("p", basis), build_named("x2", basis)
        H = TDepHamiltonian(((CoefficientFn.constant(1.0), p, "p"),
                             (CoefficientFn.constant(0.5), x2, "x2")))
        got = oracles.densify(H.blocks, assemble(H, 0.3))
        assert got.dtype == np.complex128
        assert np.array_equal(got, p.matrix + 0.5 * x2.matrix)
