"""Momentum map, level sets, rays, and the projected ray flow."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import random_state
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
from geoschro.numerics import InvariantBlocks, hermitian_eigendecompose, hermitian_part
from geoschro.operators import (
    build_named,
)
from geoschro.reduction import (
    LevelSetPoint,
    ProjectorState,
    Ray,
    TINY_PART,
    _rk4_projector_step,
    _zero_tiny_parts,
    commuting_diagram_residual,
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
    x2, p2 = (build_named(name, basis) for name in ("x2", "p2"))
    return TDepHamiltonian((
        (CoefficientFn.constant(0.5), p2, "kinetic"),
        (CoefficientFn.constant(0.5), x2, "potential"),
    ))


def _driven(size):
    basis = BasisSpec.hermite(size)
    x2, p2 = (build_named(name, basis) for name in ("x2", "p2"))
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
        back = oracles.ray_from_json(r.to_json_dict())
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
        assert reduced_hamiltonian(build_named("id", basis), r, -0.5) == 0.5

    def test_reduced_hamiltonian_oscillator_ground(self):
        basis = BasisSpec.hermite(4)
        x2, p2 = (build_named(name, basis) for name in ("x2", "p2"))
        from geoschro.operators import OperatorMatrix

        H = OperatorMatrix.from_matrix(basis, 0.5 * (x2.matrix + p2.matrix))
        assert reduced_hamiltonian(H, ray_of(_unit(basis, 0)), -0.5) == 0.25

    def test_reduced_hamiltonian_scales_with_mu(self):
        basis = BasisSpec.hermite(4)
        r = ray_of(_unit(basis, 0))
        ident = build_named("id", basis)
        assert reduced_hamiltonian(ident, r, -2.0) == 2.0
        with pytest.raises(NonNegativeMu):
            reduced_hamiltonian(ident, r, 0.5)

    def test_representative_independence(self):
        basis = BasisSpec.hermite(6)
        psi = random_state(6, 20)
        r1 = ray_of(psi)
        rotated = StateVector(basis, np.exp(0.9j) * psi.coefficients)
        r2 = ray_of(rotated)
        x2 = build_named("x2", basis)
        assert abs(reduced_hamiltonian(x2, r1, -0.5)
                   - reduced_hamiltonian(x2, r2, -0.5)) < 1e-13


def _whole(n):
    """One block of n in basis order: projector_of on it is held in basis order."""
    return InvariantBlocks(n, (np.arange(n)[None, :],))


def _born(ray, blocks):
    """projector_of the ray on ``blocks``, in buffers of its own."""
    n = blocks.size
    return projector_of(ray, blocks, np.empty((n, n), dtype=np.complex128),
                        np.empty((2, n, n), dtype=np.complex128))


def _basis_order(basis, M):
    """M as a ProjectorState held in basis order."""
    return ProjectorState(basis, M, np.arange(basis.size))


def _drift(P):
    """P's drift, hermiticity included, in a workspace of its own."""
    return P.drift(True, np.empty((3, *P.matrix.shape), dtype=np.complex128))


class TestProjectors:
    def test_fresh_projector_is_clean(self):
        r = ray_of(random_state(6, 0))
        d = _drift(_born(r, _whole(6)))
        assert d["trace"] < 1e-14
        assert d["hermiticity"] < 1e-16
        assert d["idempotency"] < 1e-15

    @pytest.mark.parametrize("make", [
        lambda: random_state(6, 0), lambda: random_state(9, 17), lambda: random_state(64, 2),
        lambda: coherent_state(0.5 + 0.2j, 8), lambda: coherent_state(0.5 + 0.2j, 64),
        lambda: coherent_state(-1.1 + 1.9j, 26)],
        ids=["random_6", "random_9", "random_64", "coherent_8", "coherent_64", "coherent_26"])
    def test_projector_is_bitwise_hermitian(self, make):
        """The two triangles of np.outer(c, c.conj()) round differently (by up
        to 2.8e-17 on random_state(6, 0)); projector_of takes its exact
        Hermitian part."""
        psi = make()
        P = _born(ray_of(psi), _whole(psi.basis.size)).matrix
        assert np.array_equal(P, P.conj().T)

    def test_dominant_ray_round_trip(self):
        r = ray_of(random_state(9, 17))
        back = dominant_ray(_born(r, _whole(9)))
        assert fubini_study_distance(r, back) < 1e-12

    @pytest.mark.parametrize("matrix", [np.eye(2, dtype=complex) / 2, np.zeros((2, 2), complex)],
                             ids=["mixed", "zero"])
    def test_rank_collapse_detected(self, matrix):
        """A zero column has no Ritz vector, so the zero matrix reaches the
        dense path, whose dominant eigenvalue 0 is a collapse."""
        with pytest.raises(RankCollapse):
            dominant_ray(_basis_order(BasisSpec.hermite(2), matrix))


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
    return _basis_order(BasisSpec.hermite(size), hermitian_part((U * w) @ U.conj().T))


def _coherent_tail_projector():
    """N=256 coherent projector in basis order, its tiny parts kept: its tail
    underflows, so thousands of its float parts are subnormal."""
    ray = ray_of(coherent_state(0.5 + 0.2j, 256))
    P = _basis_order(ray.representative.basis, oracles.projector(ray))
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
        P = _born(ray_of(random_state(size, seed)), _whole(size))
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
    out = _rk4_projector_step(H, t, h, oracles.permuted(P, H.blocks.order),
                              np.empty((3, n, n), dtype=np.complex128))
    return oracles.permuted(out, H.blocks.inverse)


def _plain_idempotency(P):
    return float(np.max(np.abs(P @ P - P)))


class TestIdempotencyIsThePlainProduct:
    @settings(max_examples=40, derandomize=True, database=None)
    @given(st.integers(1, 64), st.integers(0, 10 ** 6))
    def test_bit_identical_on_normal_range_projectors(self, size, seed):
        H = _driven(size)
        P = oracles.projector(ray_of(random_state(size, seed)))
        P = _rk4_in_basis(H, 0.0, 1e-2, P)  # idempotent only to roundoff
        assert _drift(_basis_order(H.basis, P))["idempotency"] == _plain_idempotency(P)

    def test_equal_on_a_subnormal_tail(self):
        P = _coherent_tail_projector()
        assert _drift(P)["idempotency"] == _plain_idempotency(P.matrix)

    def test_huge_entries_stay_finite(self):
        P = 1e150 * oracles.projector(ray_of(random_state(8, 4)))
        plain = _plain_idempotency(P)
        assert np.isfinite(plain)
        with np.errstate(over="raise", invalid="raise"):
            measured = _drift(_basis_order(BasisSpec.hermite(8), P))["idempotency"]
        assert measured == plain

    def test_flow_at_n256_holds_no_tiny_part_and_drifts_by_the_plain_product(self, monkeypatch):
        """At every step of a large-basis flow no float part of P is nonzero
        and below 2^-511 (unzeroed, the coherent tail holds about 55,000 such
        parts, some 5,000 of them subnormal), P is bitwise Hermitian, and the
        drift is max|P @ P - P|."""
        seen = []
        drift = ProjectorState.drift

        def spy(state, fresh, work):
            out = drift(state, fresh, work)
            P = state.matrix
            parts = np.abs(P.view(np.float64))
            seen.append((int(np.count_nonzero((parts > 0) & (parts < 2.0 ** -511))),
                         np.array_equal(P, P.conj().T),
                         out["idempotency"] == _plain_idempotency(P)))
            return out

        monkeypatch.setattr(ProjectorState, "drift", spy)
        reduced_propagate(_driven(256), ray_of(coherent_state(0.5 + 0.2j, 256)), 1e-3, 0.0,
                          0.02, reproject_every=10)
        assert seen == [(0, True, True)] * 20


class TestZeroTinyParts:
    def test_zeroes_the_parts_below_2_511_and_keeps_every_other_bit(self):
        """On the coherent tail projector: every part below 2^-511 becomes a
        zero of its sign, every other part keeps its bits, and P stays
        bitwise Hermitian; the scratch buffer may hold anything."""
        P = _coherent_tail_projector().matrix
        before = P.copy()
        _zero_tiny_parts(P, np.full(P.shape, np.nan + 1j))
        old, new = before.view(np.float64), P.view(np.float64)
        tiny = np.abs(old) < TINY_PART
        assert TINY_PART == 2.0 ** -511 and np.count_nonzero(tiny & (old != 0)) > 1000
        assert np.array_equal(new[~tiny].view(np.uint64), old[~tiny].view(np.uint64))
        assert np.array_equal(new[tiny].view(np.uint64),
                              np.copysign(0.0, old[tiny]).view(np.uint64))
        assert np.array_equal(P, P.conj().T)

    def test_a_nan_or_infinite_part_is_kept_for_the_overflow_guard(self):
        P = np.array([[np.nan, 1e-200j], [-np.inf, 1.0 - 3e-160j]])
        _zero_tiny_parts(P, np.empty_like(P))
        assert np.array_equal(P, [[np.nan, 0.0], [-np.inf, 1.0]], equal_nan=True)


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
        H = TDepHamiltonian(((CoefficientFn.constant(1.0), build_named("id", basis), "id"),))
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
        P = oracles.projector(ray_of(random_state(12, 4)))
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
        for every in (0, -1):
            with pytest.raises(ValueError, match="reproject_every"):
                reduced_propagate(H, ray0, 0.1, 0.0, 1.0, reproject_every=every)


def _driven_angular_momentum():
    """A driven Lx/Ly/Lz Hamiltonian at degree 3: N = 20 in four degree shells."""
    Lx, Ly, Lz = (build_named(name, BasisSpec.hermite3d(3)) for name in ("Lx", "Ly", "Lz"))
    return TDepHamiltonian(((CoefficientFn.constant(1.0), Lz, "Lz"),
                            (CoefficientFn.sinusoid(0.3, 2.0), Lx, "Lx"),
                            (CoefficientFn.constant(0.2), Ly, "Ly")))


def _complex_lead_real_drive(size):
    """p + 0.3 sin(t) x: a complex constant lead and a real driven term, one
    whole block."""
    basis = BasisSpec.hermite(size)
    return TDepHamiltonian(((CoefficientFn.constant(1.0), build_named("p", basis), "p"),
                            (CoefficientFn.sinusoid(0.3, 1.0), build_named("x", basis), "x")))


FLOW_CASES = {  # (Hamiltonian, initial state, block shapes per group)
    "oscillator_64": lambda: (_driven(64), coherent_state(0.5 + 0.2j, 64), [(2, 32)]),
    "oscillator_33": lambda: (_driven(33), random_state(33, 7), [(1, 16), (1, 17)]),
    "angular_momentum_20": lambda: (_driven_angular_momentum(),
                                    random_state(20, 3, BasisSpec.hermite3d(3)),
                                    [(1, 1), (1, 3), (1, 6), (1, 10)]),
    "complex_lead_16": lambda: (_complex_lead_real_drive(16), coherent_state(0.5 + 0.2j, 16),
                                [(1, 16)]),
}


def _rotating_angular_momentum():
    """Lz + 0.3 sin(t) Lx + 0.3 cos(t) Ly at degree 3: N = 20 in four
    complex degree shells."""
    Lx, Ly, Lz = (build_named(name, BasisSpec.hermite3d(3)) for name in ("Lx", "Ly", "Lz"))
    return TDepHamiltonian(((CoefficientFn.constant(1.0), Lz, "Lz"),
                            (CoefficientFn.sinusoid(0.3, 1.0), Lx, "Lx"),
                            (CoefficientFn.sinusoid(0.3, 1.0, np.pi / 2), Ly, "Ly")))


def _linearly_driven_oscillator(size):
    """(1/2)p^2 + (1/2)x^2 + 0.05 sin(t) x: x couples every index to its
    neighbours, so the Hamiltonian is one whole block."""
    basis = BasisSpec.hermite(size)
    x2, p2 = (build_named(name, basis) for name in ("x2", "p2"))
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
    up, _, _, residuals = paired_records(H, psi, -0.5, IntegratorSpec("magnus2", 1e-3), 1e-3,
                                         0.0, 2.0, stride=100)
    assert len(up) == 21
    assert max(residuals) <= 1e-6
    assert max(abs(r.norm - up[0].norm) for r in up) <= 1e-12
    assert max(abs(r.momentum_J - up[0].momentum_J) for r in up) <= 1e-12


def _in_blocks(H, P):
    """The basis-order P as the flow holds it: permuted to the block order of H."""
    return ProjectorState(H.basis, oracles.permuted(P, H.blocks.order), H.blocks.inverse)


def _reproject(H):
    """The flow's re-projection of a basis-order P: the dominant ray of the
    block-order P, whose projector is returned in basis order."""
    return lambda P: oracles.projector(dominant_ray(_in_blocks(H, P)))


class TestBlockOrderFlow:
    @pytest.mark.parametrize("case", sorted(FLOW_CASES))
    def test_each_step_matches_the_dense_reference_bit_for_bit(self, case):
        H, psi, shapes = FLOW_CASES[case]()
        assert [idx.shape for idx in H.blocks.groups] == shapes
        n = H.basis.size
        work = np.empty((3, n, n), dtype=np.complex128)
        P = oracles.projector(ray_of(psi))
        times = list(_time_grid(0.0, 0.2, 1e-3))
        assert len(times) == 201
        ref = oracles.reference_projector_flow(H, P, times, 100, _reproject(H))
        order = H.blocks.order
        for (t, t_next), (raw, after) in zip(zip(times, times[1:]), ref):
            got = _rk4_projector_step(H, t, t_next - t, oracles.permuted(P, order), work)
            assert np.array_equal(got, oracles.permuted(raw, order))
            P = after

    @pytest.mark.parametrize("case", sorted(FLOW_CASES))
    def test_reduced_propagate_matches_the_dense_reference_bit_for_bit(self, case):
        H, psi, _ = FLOW_CASES[case]()
        ray0 = ray_of(psi)
        records, drifts = reduced_propagate(H, ray0, 1e-3, 0.0, 0.2, stride=20)
        times = list(_time_grid(0.0, 0.2, 1e-3))
        ref = list(oracles.reference_projector_flow(H, oracles.projector(ray0), times, 100,
                                                    _reproject(H)))
        want = {key: max(_drift(_in_blocks(H, raw))[key] for raw, _ in ref) for key in drifts}
        assert drifts == want
        assert [r.t for r in records] == times[::20]
        for rec, (_, P) in zip(records[1:], ref[19::20]):
            want_ray = dominant_ray(_in_blocks(H, P))
            assert np.array_equal(rec.ray.representative.coefficients,
                                  want_ray.representative.coefficients)

    @pytest.mark.parametrize("size", [8, 33, 64])
    def test_rk4_keeps_a_bitwise_hermitian_projector_bitwise_hermitian(self, size):
        H = _driven(size)
        P = oracles.projector(ray_of(coherent_state(0.5 + 0.2j, size)))
        assert np.array_equal(P, P.conj().T)  # born Hermitian
        P = oracles.permuted(P, H.blocks.order)
        work = np.empty((3, size, size), dtype=np.complex128)
        times = list(_time_grid(0.0, 0.05, 1e-3))
        assert len(times) == 51
        for t, t_next in zip(times, times[1:]):
            P = _rk4_projector_step(H, t, t_next - t, P, work)
            assert np.array_equal(P, P.conj().T)

    @pytest.mark.parametrize("case", sorted(FLOW_CASES))
    def test_p_is_bitwise_hermitian_wherever_its_drift_is_not_measured(self, case, monkeypatch):
        """reduced_propagate measures max|P - P^H| only on the first step from
        each projector_of; P equals its conjugate transpose bit for bit after
        every step, measured or not, so every measurement reads 0.0."""
        H, psi, _ = FLOW_CASES[case]()
        seen = []
        drift = ProjectorState.drift

        def spy(state, fresh, work):
            seen.append((fresh, np.array_equal(state.matrix, state.matrix.conj().T)))
            return drift(state, fresh, work)

        monkeypatch.setattr(ProjectorState, "drift", spy)
        reduced_propagate(H, ray_of(psi), 1e-3, 0.0, 0.2, stride=20)
        assert len(seen) == 200
        assert [k for k, (fresh, _) in enumerate(seen) if fresh] == [0, 100]
        assert all(hermitian for _, hermitian in seen)

    @pytest.mark.parametrize("case", sorted(FLOW_CASES))
    def test_birth_in_block_order_is_the_permuted_projector(self, case):
        H, psi, _ = FLOW_CASES[case]()
        ray = ray_of(psi)
        born = _born(ray, H.blocks)
        want = oracles.permuted(oracles.projector(ray), H.blocks.order)
        assert np.array_equal(born.matrix.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(born.rows, H.blocks.inverse)

    @pytest.mark.parametrize("case", sorted(FLOW_CASES))
    def test_projector_built_in_a_buffer_is_projector_of(self, case):
        """Built in a buffer and scratch that hold stale values, as the flow's
        do at a re-projection, P has the bits of the permuted basis-order
        projector, in basis and in block order."""
        H, psi, _ = FLOW_CASES[case]()
        ray, n = ray_of(psi), H.basis.size
        for blocks in (_whole(n), H.blocks):
            out = np.full((n, n), np.nan + 1j, dtype=np.complex128)
            work = np.full((2, n, n), -7.5 + np.inf * 1j, dtype=np.complex128)
            got = projector_of(ray, blocks, out, work)
            want = oracles.permuted(oracles.projector(ray), blocks.order)
            assert got.matrix is out
            assert np.array_equal(got.matrix.view(np.uint64), want.view(np.uint64))

    def test_birth_under_random_permutations_is_the_permuted_projector(self):
        """Coefficient magnitudes drawn from 1e-300 to 1e300, scaled to a unit
        ray, so the outer product holds normal, subnormal and zero parts."""
        rng = np.random.default_rng(23)
        for _ in range(120):
            n = int(rng.integers(1, 41))
            c = 10.0 ** rng.uniform(-300, 300, n) * np.exp(2j * np.pi * rng.uniform(size=n))
            ray = ray_of(StateVector(BasisSpec.hermite(n), c / np.abs(c).max()))
            order = rng.permutation(n)
            born = _born(ray, InvariantBlocks(n, (order[None, :],))).matrix
            want = oracles.permuted(oracles.projector(ray), order)
            _zero_tiny_parts(want, np.empty_like(want))
            assert np.array_equal(born.view(np.uint64), want.view(np.uint64))

    def test_birth_and_one_rk4_step_hold_no_part_below_2_511(self):
        """On the N=256 coherent ray, whose unzeroed projector holds some
        55,000 nonzero parts below 2^-511, projector_of and one RK4 step
        from it zero every one of them."""
        H = _driven(256)
        P = _born(ray_of(coherent_state(0.5 + 0.2j, 256)), H.blocks).matrix

        def tiny(M):
            parts = np.abs(M.view(np.float64))
            return int(np.count_nonzero((parts > 0) & (parts < TINY_PART)))

        assert tiny(P) == 0
        work = np.empty((3, *P.shape), dtype=np.complex128)
        assert tiny(_rk4_projector_step(H, 0.0, 1e-3, P, work)) == 0

    @pytest.mark.parametrize("case", sorted(FLOW_CASES))
    def test_block_order_drifts_and_rays_match_basis_order_to_roundoff(self, case):
        """Along the dense reference flow, the drift of every step and the ray
        of every record, read on the block-order P, against the same read on
        the basis-order P."""
        H, psi, _ = FLOW_CASES[case]()
        times = list(_time_grid(0.0, 0.2, 1e-3))
        ref = list(oracles.reference_projector_flow(H, oracles.projector(ray_of(psi)), times,
                                                    100, _reproject(H)))
        for raw, _ in ref:
            got, want = _drift(_in_blocks(H, raw)), _drift(_basis_order(H.basis, raw))
            assert all(abs(got[key] - want[key]) <= 1e-15 for key in want)
        for _, P in ref[19::20]:
            assert fubini_study_distance(dominant_ray(_in_blocks(H, P)),
                                         dominant_ray(_basis_order(H.basis, P))) <= 1e-14

    def test_drift_allocates_no_n_by_n_array_at_n256(self, monkeypatch):
        """P - P^H and the idempotency product run in the flow's RK4
        workspace: a drift, whether it measures hermiticity or not, raises
        the traced peak by less than one N x N complex array (the basis-order
        round trip and a fresh S @ S raised it by 2,622,943 bytes)."""
        H = _driven(256)
        rises = []
        drift = ProjectorState.drift

        def spy(state, fresh, work):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = drift(state, fresh, work)
            rises.append((fresh, tracemalloc.get_traced_memory()[1] - before))
            return out

        monkeypatch.setattr(ProjectorState, "drift", spy)
        tracemalloc.start()
        try:
            reduced_propagate(H, ray_of(coherent_state(0.5 + 0.2j, 256)), 1e-3, 0.0, 1e-2,
                              reproject_every=5)
        finally:
            tracemalloc.stop()
        assert [fresh for fresh, _ in rises] == [True, False, False, False, False] * 2
        assert max(rise for _, rise in rises) < 256 * 256 * 16

    def test_one_step_at_n256_allocates_no_more_than_the_dense_flow(self):
        """The dense flow this replaced (about 30 fresh N x N temporaries per
        step) peaked at 10,097,456 traced bytes here; the block-order flow,
        with its three-buffer workspace, at 7,869,007, and 7,543,040 with its
        drift measured in that workspace."""
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


    def test_reduced_propagate_holds_under_five_n_by_n_arrays_at_n256(self):
        """P, the three-buffer workspace and one H(t): every re-projection is
        built in P's buffer and each RK4 step holds one H(t) at a time.  With
        a fresh outer product and Hermitian part per re-projection and three
        H(t) per step, this flow peaked at 8.2 N x N complex arrays."""
        H = _driven(256)
        ray0 = ray_of(coherent_state(0.5 + 0.2j, 256))
        reduced_propagate(H, ray0, 1e-3, 0.0, 1e-3)  # first calls allocate caches
        tracemalloc.start()
        try:
            records, _ = reduced_propagate(H, ray0, 1e-3, 0.0, 0.02, reproject_every=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == 21
        assert peak <= 5 * 256 * 256 * 16


class TestCommutingDiagram:
    def test_zero_duration_residual_vanishes(self):
        H = _oscillator(6)
        res = commuting_diagram_residual(H, random_state(6, 2), -0.5,
                                         IntegratorSpec("exact_eig", 0.1), 0.1, 0.0, 0.0)
        assert res == 0.0

    def test_identity_hamiltonian(self):
        basis = BasisSpec.hermite(6)
        H = TDepHamiltonian(((CoefficientFn.constant(1.0), build_named("id", basis), "id"),))
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
        up, down, drifts, _ = paired_records(H, random_state(8, 6), -0.5,
                                             IntegratorSpec("magnus2", 1e-2), 1e-2,
                                             0.0, 0.55, stride=10)
        assert [r.t for r in up] == [r.t for r in down]
        assert set(drifts) == {"trace", "hermiticity", "idempotency"}

    def test_far_from_zero_the_down_floor_steps_at_its_dt(self):
        """On [1e15, 1e15 + 20] at dt 0.01 the grid's misfit slack once made
        a step far longer than dt, and the RK4 projector floor stopped on its
        idempotency gate; with the slack under dt/2 every step is the float
        spacing, 0.125, and the run closes."""
        args = (_oscillator(4), coherent_state(0.5, 4), -0.5, IntegratorSpec("magnus2", 0.01),
                0.01, 1e15, 1.00000000000002e15, 10)
        up, _, drifts, residuals = paired_records(*args)
        assert up[-1].t == 1.00000000000002e15 and max(residuals) < 1e-3
        assert drifts["idempotency"] < 1e-3

    def test_residual_is_the_worst_paired_residual(self):
        H = _driven(8)
        args = (H, random_state(8, 5), -0.5, IntegratorSpec("magnus2", 1e-2), 1e-2, 0.0, 0.55, 10)
        up, down, _, residuals = paired_records(*args)
        assert residuals == [fubini_study_distance(ray_of(u.state), d.ray)
                             for u, d in zip(up, down)]
        assert len(residuals) == len(up)
        assert commuting_diagram_residual(*args) == max(residuals)
