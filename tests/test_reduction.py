"""Momentum map, level sets, rays, and the projected ray flow."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from geoschro import reduction
from geoschro.errors import (
    BasisMismatch,
    NonNegativeMu,
    NotTangent,
    RankCollapse,
    ZeroVector,
)
from geoschro.dynamics import CoefficientFn, IntegratorSpec, TDepHamiltonian, _time_grid
from geoschro.hilbert import (
    BasisSpec,
    StateVector,
    TangentVector,
    coherent_state,
    symplectic_form,
)
from geoschro.numerics import hermitian_eigendecompose, random_state
from geoschro.operators import (
    build_angular_momentum,
    build_identity,
    build_named,
    build_quadratics,
)
from geoschro.reduction import (
    LevelSetPoint,
    ProjectorState,
    Ray,
    _rk4_projector_step,
    commuting_diagram_residual,
    diagram_residuals,
    dominant_ray,
    fubini_study_distance,
    horizontal_project,
    level_set_project,
    momentum_map,
    momentum_tangent_map,
    paired_records,
    projector_of,
    ray_of,
    reduced_hamiltonian,
    reduced_propagate,
    reduced_symplectic_form,
    u1_act,
    vertical_vector,
)
from geoschro.tolerances import DEFAULT


def _unit(basis, index):
    c = np.zeros(basis.size)
    c[index] = 1.0
    return StateVector(basis, c)


def _oscillator(size):
    basis = BasisSpec.hermite(size)
    x2, p2, _ = build_quadratics(basis)
    return TDepHamiltonian((
        (CoefficientFn.constant(0.5), p2, "kinetic"),
        (CoefficientFn.constant(0.5), x2, "potential"),
    ))


def _driven(size):
    basis = BasisSpec.hermite(size)
    x2, p2, _ = build_quadratics(basis)
    return TDepHamiltonian((
        (CoefficientFn.constant(0.5), p2, "kinetic"),
        (CoefficientFn.constant(0.5), x2, "potential"),
        (CoefficientFn.sinusoid(0.05, 1.0), x2, "drive"),
    ))


class TestMomentumMap:
    def test_unit_vector_value(self):
        assert momentum_map(_unit(BasisSpec.hermite(4), 0)) == -0.5

    def test_scaling(self):
        basis = BasisSpec.hermite(3)
        psi = StateVector(basis, [2.0, 0.0, 0.0])
        assert momentum_map(psi) == -2.0

    def test_tangent_map_matches_directional_derivative(self):
        psi = random_state(8, 0)
        phi = TangentVector(psi, random_state(8, 1))
        got = momentum_tangent_map(phi)
        eps = 1e-4

        def J(s):
            return momentum_map(StateVector(psi.basis,
                                            psi.coefficients + s * phi.direction.coefficients))

        # J is quadratic along the line, central difference is exact
        assert got == pytest.approx((J(eps) - J(-eps)) / (2 * eps), abs=1e-9)


class TestLevelSet:
    def test_projection_hits_level(self):
        psi = random_state(8, 5)
        pt = level_set_project(psi, -0.5)
        assert abs(momentum_map(pt.state) + 0.5) < 1e-14
        pt2 = level_set_project(psi, -2.0)
        assert abs(momentum_map(pt2.state) + 2.0) < 1e-13

    def test_projection_keeps_the_ray(self):
        psi = random_state(8, 6)
        pt = level_set_project(psi, -0.5)
        assert fubini_study_distance(ray_of(psi), ray_of(pt.state)) < 1e-12

    def test_rejects_bad_inputs(self):
        basis = BasisSpec.hermite(3)
        with pytest.raises(NonNegativeMu):
            level_set_project(_unit(basis, 0), 0.0)
        with pytest.raises(NonNegativeMu):
            level_set_project(_unit(basis, 0), 1.0)
        with pytest.raises(ZeroVector):
            level_set_project(StateVector(basis, np.zeros(3)), -0.5)

    def test_level_set_point_validates_membership(self):
        basis = BasisSpec.hermite(3)
        with pytest.raises(ZeroVector):
            LevelSetPoint(_unit(basis, 0), -2.0)

    def test_level_set_check_uses_the_callers_tolerance(self):
        basis = BasisSpec.hermite(3)
        off = StateVector(basis, [1.0 + 1e-10, 0.0, 0.0])
        loose = DEFAULT.replace(level_set=1e-9)
        with pytest.raises(ZeroVector):
            LevelSetPoint(off, -0.5)
        point = LevelSetPoint(off, -0.5, loose)
        assert u1_act(0.4, point, loose).mu == -0.5
        with pytest.raises(ZeroVector):
            u1_act(0.4, point)

    def test_phase_action_preserves_level_and_ray(self):
        pt = level_set_project(random_state(6, 2), -0.5)
        moved = u1_act(0.7, pt)
        assert momentum_map(moved.state) == pytest.approx(pt.mu, abs=1e-14)
        assert fubini_study_distance(ray_of(moved.state), ray_of(pt.state)) < 1e-13


class TestRays:
    def test_canonical_anchor_is_real_positive(self):
        basis = BasisSpec.hermite(4)
        psi = StateVector(basis, [0.0, -1j, 1.0, 0.0])
        r = ray_of(psi).representative.coefficients
        # anchor is the first live coefficient (index 1)
        assert r[1].real > 0 and abs(r[1].imag) < 1e-15
        assert np.linalg.norm(r) == pytest.approx(1.0, abs=1e-14)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            ray_of(StateVector(BasisSpec.hermite(2), np.zeros(2)))

    def test_ray_constructor_validates(self):
        basis = BasisSpec.hermite(2)
        with pytest.raises(ZeroVector):
            Ray(StateVector(basis, [2.0, 0.0]))
        with pytest.raises(ZeroVector):
            Ray(StateVector(basis, [1j, 0.0]))

    def test_ray_checks_use_the_callers_tolerances(self):
        psi = StateVector(BasisSpec.hermite(3), [1e-6j, 1.0, 0.0])
        loose = DEFAULT.replace(phase=1e-4)
        r = ray_of(psi, loose).representative.coefficients
        assert r[1].real > 0 and r[1].imag == 0.0 and r[0].imag > 0  # anchored past index 0
        with pytest.raises(ZeroVector):
            Ray(StateVector(psi.basis, r))

    def test_json_round_trip(self):
        r = ray_of(random_state(5, 3))
        back = Ray.from_json_dict(r.to_json_dict())
        assert np.array_equal(back.representative.coefficients,
                              r.representative.coefficients)

    @given(st.integers(0, 10 ** 6))
    def test_projective_invariance(self, seed):
        rng = np.random.default_rng(seed)
        psi = random_state(7, seed)
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z) < 1e-3:
            z = 1.0 + 1j
        scaled = StateVector(psi.basis, z * psi.coefficients)
        assert fubini_study_distance(ray_of(psi), ray_of(scaled)) < 1e-12


class TestFubiniStudy:
    def test_identical_rays(self):
        r = ray_of(random_state(6, 1))
        assert fubini_study_distance(r, r) == 0.0

    def test_known_angles(self):
        basis = BasisSpec.hermite(3)
        e0, e1 = _unit(basis, 0), _unit(basis, 1)
        half = StateVector(basis, np.array([1.0, 1.0, 0.0]) / np.sqrt(2))
        assert fubini_study_distance(ray_of(e0), ray_of(e1)) == pytest.approx(np.pi / 2, abs=1e-15)
        assert fubini_study_distance(ray_of(e0), ray_of(half)) == pytest.approx(np.pi / 4, abs=1e-12)

    def test_small_angles_resolved(self):
        # the arcsin branch keeps full precision near zero separation, where
        # arccos(|overlap|) would return 0 outright
        basis = BasisSpec.hermite(2)
        eps = 1e-9
        a = ray_of(_unit(basis, 0))
        b = ray_of(StateVector(basis, [np.cos(eps), np.sin(eps)]))
        assert fubini_study_distance(a, b) == pytest.approx(eps, rel=1e-6)

    def test_basis_mismatch(self):
        with pytest.raises(BasisMismatch):
            fubini_study_distance(ray_of(_unit(BasisSpec.hermite(2), 0)),
                                  ray_of(_unit(BasisSpec.hermite(3), 0)))


class TestHorizontalSplit:
    def test_vertical_vector_projects_to_zero(self):
        pt = level_set_project(random_state(8, 4), -0.5)
        h = horizontal_project(vertical_vector(pt))
        assert np.max(np.abs(h.direction.coefficients)) < 1e-12

    def test_orthogonal_direction_unchanged(self):
        basis = BasisSpec.hermite(4)
        pt = level_set_project(_unit(basis, 0), -0.5)
        phi = TangentVector(pt.state, _unit(basis, 1))
        h = horizontal_project(phi)
        assert np.array_equal(h.direction.coefficients, phi.direction.coefficients)

    def test_radial_direction_rejected(self):
        basis = BasisSpec.hermite(4)
        pt = level_set_project(_unit(basis, 0), -0.5)
        radial = TangentVector(pt.state, pt.state)
        with pytest.raises(NotTangent):
            horizontal_project(radial)

    def test_horizontal_part_is_phase_orthogonal(self):
        pt = level_set_project(random_state(10, 8), -0.5)
        psi = pt.state
        # build a tangent direction: remove the radial component first
        raw = random_state(10, 9)
        r = complex(np.vdot(psi.coefficients, raw.coefficients)).real
        n2 = float(np.linalg.norm(psi.coefficients)) ** 2
        tangent = StateVector(psi.basis, raw.coefficients - (r / n2) * psi.coefficients)
        h = horizontal_project(TangentVector(psi, tangent))
        assert abs(complex(np.vdot(psi.coefficients, h.direction.coefficients)).imag) < 1e-13


class TestReducedStructures:
    def test_reduced_form_on_coordinate_pair(self):
        basis = BasisSpec.hermite(3)
        pt = level_set_project(_unit(basis, 0), -0.5)
        v = TangentVector(pt.state, _unit(basis, 1))
        w = TangentVector(pt.state, StateVector(basis, 1j * _unit(basis, 1).coefficients))
        assert reduced_symplectic_form(v, w) == 1.0
        assert reduced_symplectic_form(w, v) == -1.0

    def test_reduced_form_agrees_with_upstairs_on_horizontal_vectors(self):
        pt = level_set_project(random_state(8, 12), -0.5)
        psi = pt.state
        dirs = []
        n2 = float(np.linalg.norm(psi.coefficients)) ** 2
        for seed in (13, 14):
            raw = random_state(8, seed)
            r = complex(np.vdot(psi.coefficients, raw.coefficients)).real
            tangent = StateVector(psi.basis, raw.coefficients - (r / n2) * psi.coefficients)
            dirs.append(horizontal_project(TangentVector(psi, tangent)))
        got = reduced_symplectic_form(dirs[0], dirs[1])
        assert got == pytest.approx(symplectic_form(dirs[0], dirs[1]), abs=1e-13)

    def test_reduced_form_needs_common_base(self):
        basis = BasisSpec.hermite(3)
        a = TangentVector(_unit(basis, 0), _unit(basis, 1))
        b = TangentVector(_unit(basis, 1), _unit(basis, 0))
        with pytest.raises(BasisMismatch):
            reduced_symplectic_form(a, b)

    def test_reduced_hamiltonian_identity(self):
        basis = BasisSpec.hermite(4)
        r = ray_of(_unit(basis, 0))
        assert reduced_hamiltonian(build_identity(basis), r, -0.5) == 0.5

    def test_reduced_hamiltonian_oscillator_ground(self):
        basis = BasisSpec.hermite(4)
        x2, p2, _ = build_quadratics(basis)
        from geoschro.operators import OperatorMatrix

        H = OperatorMatrix.from_matrix(basis, 0.5 * (x2.matrix + p2.matrix))
        assert reduced_hamiltonian(H, ray_of(_unit(basis, 0)), -0.5) == 0.25

    def test_reduced_hamiltonian_scales_with_mu(self):
        basis = BasisSpec.hermite(4)
        r = ray_of(_unit(basis, 0))
        ident = build_identity(basis)
        assert reduced_hamiltonian(ident, r, -2.0) == 2.0
        with pytest.raises(NonNegativeMu):
            reduced_hamiltonian(ident, r, 0.5)

    def test_representative_independence(self):
        basis = BasisSpec.hermite(6)
        psi = random_state(6, 20)
        r1 = ray_of(psi)
        rotated = StateVector(basis, np.exp(0.9j) * psi.coefficients)
        r2 = ray_of(rotated)
        x2 = build_quadratics(basis)[0]
        assert abs(reduced_hamiltonian(x2, r1, -0.5)
                   - reduced_hamiltonian(x2, r2, -0.5)) < 1e-13


class TestProjectors:
    def test_fresh_projector_is_clean(self):
        r = ray_of(random_state(6, 0))
        d = projector_of(r).drift()
        assert d["trace"] < 1e-14
        assert d["hermiticity"] < 1e-16
        assert d["idempotency"] < 1e-15

    def test_dominant_ray_round_trip(self):
        r = ray_of(random_state(9, 17))
        back = dominant_ray(projector_of(r))
        assert fubini_study_distance(r, back) < 1e-12

    def test_rank_collapse_detected(self):
        basis = BasisSpec.hermite(2)
        mixed = ProjectorState(basis, np.eye(2, dtype=complex) / 2)
        with pytest.raises(RankCollapse):
            dominant_ray(mixed)


def _dense_ray(P):
    """The dominant ray from the full eigendecomposition of P."""
    es = hermitian_eigendecompose(0.5 * (P.matrix + P.matrix.conj().T))
    return ray_of(StateVector(P.basis, oracles.densify(es.blocks, es.eigenvectors)[:, -1]))


def _counting_eig(monkeypatch):
    """Route dominant_ray's eigendecompositions through a counter."""
    calls = []

    def counted(H, tol=DEFAULT, blocks=None):
        calls.append(H.shape)
        return hermitian_eigendecompose(H, tol, blocks)

    monkeypatch.setattr(reduction, "hermitian_eigendecompose", counted)
    return calls


def _mixture(weights, size, seed):
    """sum_k w_k |a_k><a_k| over orthonormal random vectors a_k."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    U = np.linalg.qr(A)[0]
    w = np.zeros(size)
    w[:len(weights)] = weights
    return ProjectorState(BasisSpec.hermite(size), (U * w) @ U.conj().T)


def _coherent_tail_projector():
    """N=256 coherent projector: its tail underflows, so thousands of its
    float parts are subnormal."""
    P = projector_of(ray_of(coherent_state(0.5 + 0.2j, 256)))
    parts = np.abs(P.matrix.view(np.float64))
    assert np.count_nonzero((parts > 0) & (parts < np.finfo(float).tiny)) > 1000
    return P


class TestDominantRay:
    @pytest.mark.parametrize("weights", [(0.6, 0.4), (0.9899, 0.0101)])
    def test_rank_two_below_the_floor_collapses(self, weights):
        with pytest.raises(RankCollapse):
            dominant_ray(_mixture(weights, 8, 3))

    def test_rank_two_above_the_floor_passes_as_dense(self, monkeypatch):
        P = _mixture((0.9901, 0.0099), 8, 3)
        calls = _counting_eig(monkeypatch)
        ray = dominant_ray(P)
        assert calls == [(2, 2)]
        assert fubini_study_distance(ray, _dense_ray(P)) < 1e-14

    def test_poor_gap_takes_the_dense_fallback(self, monkeypatch):
        P = _mixture((1.0, 0.999, 0.5, 0.3, 0.2), 8, 5)
        calls = _counting_eig(monkeypatch)
        ray = dominant_ray(P)
        assert calls == [(2, 2), (8, 8)]
        assert np.array_equal(ray.representative.coefficients,
                              _dense_ray(P).representative.coefficients)

    @settings(max_examples=40, derandomize=True, database=None)
    @given(st.integers(1, 64), st.integers(0, 10 ** 6))
    def test_ritz_ray_matches_dense_ray(self, size, seed):
        P = projector_of(ray_of(random_state(size, seed)))
        assert fubini_study_distance(dominant_ray(P), _dense_ray(P)) <= 1e-14

    def test_ritz_ray_on_a_subnormal_tail(self, monkeypatch):
        P = _coherent_tail_projector()
        dense = _dense_ray(P)
        calls = _counting_eig(monkeypatch)
        assert fubini_study_distance(dominant_ray(P), dense) <= 1e-14
        assert calls == [(2, 2)]


def _rk4_in_basis(H, t, h, P):
    """One RK4 projector step on a basis-order P, through the block order the
    flow steps in; P is left as it was."""
    n = P.shape[0]
    out = _rk4_projector_step(H, t, h, H.blocks.to_blocks(P),
                              np.empty((3, n, n), dtype=np.complex128))
    return H.blocks.to_basis(out)


def _plain_idempotency(P):
    return float(np.max(np.abs(P @ P - P)))


class TestScaledIdempotency:
    @settings(max_examples=40, derandomize=True, database=None)
    @given(st.integers(1, 64), st.integers(0, 10 ** 6))
    def test_bit_identical_on_normal_range_projectors(self, size, seed):
        H = _driven(size)
        P = projector_of(ray_of(random_state(size, seed))).matrix
        P = _rk4_in_basis(H, 0.0, 1e-2, P)  # idempotent only to roundoff
        assert ProjectorState(H.basis, P).drift()["idempotency"] == _plain_idempotency(P)

    def test_equal_on_a_subnormal_tail(self):
        P = _coherent_tail_projector()
        assert P.drift()["idempotency"] == _plain_idempotency(P.matrix)

    def test_huge_entries_stay_finite(self):
        P = 1e150 * projector_of(ray_of(random_state(8, 4))).matrix
        plain = _plain_idempotency(P)
        assert np.isfinite(plain)
        with np.errstate(over="raise", invalid="raise"):
            scaled = ProjectorState(BasisSpec.hermite(8), P).drift()["idempotency"]
        assert scaled == plain


class TestReducedPropagation:
    def test_eigenstate_ray_is_stationary(self):
        H = _oscillator(8)
        ray0 = ray_of(_unit(BasisSpec.hermite(8), 2))
        records, drifts = reduced_propagate(H, ray0, 1e-3, 0.0, 1.0, stride=200)
        # the projector commutes with the diagonal generator exactly
        for rec in records:
            assert rec.fs_distance_to_initial == 0.0
        assert drifts["idempotency"] == 0.0

    def test_identity_hamiltonian_freezes_the_ray(self):
        basis = BasisSpec.hermite(5)
        H = TDepHamiltonian(((CoefficientFn.constant(1.0), build_identity(basis), "id"),))
        ray0 = ray_of(random_state(5, 3))
        records, _ = reduced_propagate(H, ray0, 1e-2, 0.0, 1.0, stride=50)
        for rec in records:
            assert rec.fs_distance_to_initial < 1e-13

    def test_two_level_period(self):
        H = _oscillator(4)
        basis = BasisSpec.hermite(4)
        psi0 = StateVector(basis, np.array([1.0, 1.0, 0, 0]) / np.sqrt(2))
        ray0 = ray_of(psi0)
        records, drifts = reduced_propagate(H, ray0, 1e-3, 0.0, 2 * np.pi, stride=10 ** 6)
        assert records[-1].fs_distance_to_initial < 1e-7
        assert drifts["hermiticity"] < 1e-12

    def test_rk4_step_stays_exactly_hermitian(self):
        basis = BasisSpec.hermite(12)
        with_p = TDepHamiltonian(((CoefficientFn.sinusoid(0.3, 1.0), build_named("p", basis), "p"),
                                  (CoefficientFn.constant(0.5), build_named("x2", basis), "x2")))
        P = projector_of(ray_of(random_state(12, 4))).matrix
        P = 0.5 * (P + P.conj().T)
        for H in (_driven(12), with_p):
            out = _rk4_in_basis(H, 0.3, 0.05, P)
            assert np.array_equal(out, out.conj().T)
            assert abs(np.trace(out) - 1.0) < 1e-12

    def test_record_times_exact_pass_through(self):
        H = _driven(6)
        ray0 = ray_of(random_state(6, 1))
        wanted = [0.0, 0.37, 0.5, 1.0]
        records, _ = reduced_propagate(H, ray0, 1e-2, 0.0, 1.0, record_times=wanted)
        assert [r.t for r in records] == wanted

    def test_input_validation(self):
        H = _oscillator(4)
        ray0 = ray_of(_unit(BasisSpec.hermite(4), 0))
        with pytest.raises(ValueError):
            reduced_propagate(H, ray0, -1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            reduced_propagate(H, ray0, 0.1, 1.0, 0.0)
        with pytest.raises(BasisMismatch):
            reduced_propagate(H, ray_of(_unit(BasisSpec.hermite(5), 0)), 0.1, 0.0, 1.0)


def _driven_angular_momentum():
    """A driven Lx/Ly/Lz Hamiltonian at degree 3: N = 20 in four degree shells."""
    Lx, Ly, Lz = build_angular_momentum(BasisSpec.hermite3d(3))
    return TDepHamiltonian(((CoefficientFn.constant(1.0), Lz, "Lz"),
                            (CoefficientFn.sinusoid(0.3, 2.0), Lx, "Lx"),
                            (CoefficientFn.constant(0.2), Ly, "Ly")))


FLOW_CASES = {  # (Hamiltonian, initial state, block shapes per group)
    "oscillator_64": lambda: (_driven(64), coherent_state(0.5 + 0.2j, 64), [(2, 32)]),
    "oscillator_33": lambda: (_driven(33), random_state(33, 7), [(1, 16), (1, 17)]),
    "angular_momentum_20": lambda: (_driven_angular_momentum(),
                                    random_state(20, 3, BasisSpec.hermite3d(3)),
                                    [(1, 1), (1, 3), (1, 6), (1, 10)]),
}


def _rotating_angular_momentum():
    """Lz + 0.3 sin(t) Lx + 0.3 cos(t) Ly at degree 3: N = 20 in four
    complex degree shells."""
    Lx, Ly, Lz = build_angular_momentum(BasisSpec.hermite3d(3))
    return TDepHamiltonian(((CoefficientFn.constant(1.0), Lz, "Lz"),
                            (CoefficientFn.sinusoid(0.3, 1.0), Lx, "Lx"),
                            (CoefficientFn.sinusoid(0.3, 1.0, np.pi / 2), Ly, "Ly")))


def _linearly_driven_oscillator(size):
    """(1/2)p^2 + (1/2)x^2 + 0.05 sin(t) x: x couples every index to its
    neighbours, so the Hamiltonian is one whole block."""
    basis = BasisSpec.hermite(size)
    x2, p2, _ = build_quadratics(basis)
    return TDepHamiltonian(((CoefficientFn.constant(0.5), p2, "kinetic"),
                            (CoefficientFn.constant(0.5), x2, "potential"),
                            (CoefficientFn.sinusoid(0.05, 1.0), build_named("x", basis), "drive")))


DIAGRAM_CASES = {  # (Hamiltonian, initial state, block shapes per group)
    "degree_shells_20": lambda: (_rotating_angular_momentum(),
                                 random_state(20, 3, BasisSpec.hermite3d(3)),
                                 [(1, 1), (1, 3), (1, 6), (1, 10)]),
    "one_block_32": lambda: (_linearly_driven_oscillator(32), coherent_state(0.5, 32),
                             [(1, 32)]),
}


@pytest.mark.parametrize("case", sorted(DIAGRAM_CASES))
def test_commuting_diagram_on_other_block_structures(case):
    """The frozen closure and conservation bounds hold beyond the parity
    split: magnus2 and RK4 at dt 1e-3 over [0, 2] on the level mu = -0.5."""
    H, psi, shapes = DIAGRAM_CASES[case]()
    assert [idx.shape for idx in H.blocks.groups] == shapes
    up, down, _ = paired_records(H, psi, -0.5, IntegratorSpec("magnus2", 1e-3), 1e-3,
                                 0.0, 2.0, stride=100)
    assert len(up) == 21
    assert max(diagram_residuals(up, down)) <= 1e-6
    assert max(abs(r.norm - up[0].norm) for r in up) <= 1e-12
    assert max(abs(r.momentum_J - up[0].momentum_J) for r in up) <= 1e-12


def _reproject(basis):
    return lambda P: projector_of(dominant_ray(ProjectorState(basis, P))).matrix


class TestBlockOrderFlow:
    @pytest.mark.parametrize("case", sorted(FLOW_CASES))
    def test_each_step_matches_the_dense_reference_bit_for_bit(self, case):
        H, psi, shapes = FLOW_CASES[case]()
        assert [idx.shape for idx in H.blocks.groups] == shapes
        n = H.basis.size
        work = np.empty((3, n, n), dtype=np.complex128)
        P = projector_of(ray_of(psi)).matrix
        times = list(_time_grid(0.0, 0.2, 1e-3))
        assert len(times) == 201
        ref = oracles.reference_projector_flow(H, P, times, 100, _reproject(H.basis))
        for (t, t_next), (raw, after) in zip(zip(times, times[1:]), ref):
            got = _rk4_projector_step(H, t, t_next - t, H.blocks.to_blocks(P), work)
            assert np.array_equal(H.blocks.to_basis(got), raw)
            P = after

    @pytest.mark.parametrize("case", sorted(FLOW_CASES))
    def test_reduced_propagate_matches_the_dense_reference_bit_for_bit(self, case):
        H, psi, _ = FLOW_CASES[case]()
        ray0 = ray_of(psi)
        records, drifts = reduced_propagate(H, ray0, 1e-3, 0.0, 0.2, stride=20)
        times = list(_time_grid(0.0, 0.2, 1e-3))
        ref = list(oracles.reference_projector_flow(H, projector_of(ray0).matrix, times, 100,
                                                    _reproject(H.basis)))
        want = {key: max(ProjectorState(H.basis, raw).drift()[key] for raw, _ in ref)
                for key in drifts}
        assert drifts == want
        assert [r.t for r in records] == times[::20]
        for rec, (_, P) in zip(records[1:], ref[19::20]):
            want_ray = dominant_ray(ProjectorState(H.basis, P))
            assert np.array_equal(rec.ray.representative.coefficients,
                                  want_ray.representative.coefficients)

    @pytest.mark.parametrize("size", [8, 33, 64])
    def test_rk4_keeps_a_bitwise_hermitian_projector_bitwise_hermitian(self, size):
        H = _driven(size)
        P = projector_of(ray_of(coherent_state(0.5 + 0.2j, size))).matrix
        assert not np.array_equal(P, P.conj().T)  # the outer product is not
        P = H.blocks.to_blocks(0.5 * (P + P.conj().T))
        work = np.empty((3, size, size), dtype=np.complex128)
        times = list(_time_grid(0.0, 0.05, 1e-3))
        assert len(times) == 51
        for t, t_next in zip(times, times[1:]):
            P = _rk4_projector_step(H, t, t_next - t, P, work)
            assert np.array_equal(P, P.conj().T)

    def test_one_step_at_n256_allocates_no_more_than_the_dense_flow(self):
        """The dense flow this replaced (about 30 fresh N x N temporaries per
        step) peaked at 10,097,456 traced bytes here; the block-order flow,
        with its three-buffer workspace, at 7,869,007."""
        H = _driven(256)
        ray0 = ray_of(coherent_state(0.5 + 0.2j, 256))
        reduced_propagate(H, ray0, 1e-3, 0.0, 1e-3)  # first calls allocate caches
        tracemalloc.start()
        try:
            reduced_propagate(H, ray0, 1e-3, 0.0, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10_097_456


class TestCommutingDiagram:
    def test_zero_duration_residual_vanishes(self):
        H = _oscillator(6)
        res = commuting_diagram_residual(H, random_state(6, 2), -0.5,
                                         IntegratorSpec("exact_eig", 0.1), 0.1, 0.0, 0.0)
        assert res == 0.0

    def test_identity_hamiltonian(self):
        basis = BasisSpec.hermite(6)
        H = TDepHamiltonian(((CoefficientFn.constant(1.0), build_identity(basis), "id"),))
        res = commuting_diagram_residual(H, random_state(6, 4), -0.5,
                                         IntegratorSpec("exact_eig", 0.1), 0.1, 0.0, 2.0)
        assert res <= 1e-12

    def test_driven_flow_closes(self):
        H = _driven(16)
        res = commuting_diagram_residual(H, random_state(16, 8), -0.5,
                                         IntegratorSpec("magnus2", 1e-3), 1e-3,
                                         0.0, 1.0, stride=100)
        assert res <= 1e-6

    def test_paired_records_share_times(self):
        H = _driven(8)
        up, down, drifts = paired_records(H, random_state(8, 6), -0.5,
                                          IntegratorSpec("magnus2", 1e-2), 1e-2,
                                          0.0, 0.55, stride=10)
        assert [r.t for r in up] == [r.t for r in down]
        assert set(drifts) == {"trace", "hermiticity", "idempotency"}

    def test_residual_is_the_worst_paired_residual(self):
        H = _driven(8)
        args = (H, random_state(8, 5), -0.5, IntegratorSpec("magnus2", 1e-2), 1e-2, 0.0, 0.55, 10)
        up, down, _ = paired_records(*args)
        residuals = diagram_residuals(up, down)
        assert len(residuals) == len(up)
        assert commuting_diagram_residual(*args) == max(residuals)
