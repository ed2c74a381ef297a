"""Basis specs, states, the coefficient chart, and the symplectic form."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from geoschro.errors import BasisMismatch, LengthMismatch, UnsupportedBasis, ZeroVector
from geoschro.hilbert import (
    BASIS_KINDS,
    BasisSpec,
    RealChartPoint,
    StateVector,
    TangentVector,
    chart_norm,
    coherent_state,
    hermite3d_index_tuples,
    inner,
    monomial_gaussian_state,
    norm,
    symplectic_form,
    tautological_one_form,
    to_real_chart,
)


def _state(basis, coeffs):
    return StateVector(basis, np.asarray(coeffs, dtype=complex))


def _rand(rng, basis, unit=False):
    c = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    if unit:
        c /= np.linalg.norm(c)
    return StateVector(basis, c)


class TestBasisSpec:
    def test_kinds_and_json_round_trip(self):
        for spec in (BasisSpec.hermite(8), BasisSpec.fourier(6, 2.0), BasisSpec.hermite3d(3)):
            assert BasisSpec.from_json_dict(spec.to_json_dict()) == spec

    def test_every_kind_is_orthonormal(self):
        # inner and norm read raw coefficients, which is the L2 product only
        # in an orthonormal basis
        examples = {"hermite1d_orthonormal": BasisSpec.hermite(12),
                    "fourier_interval": BasisSpec.fourier(9, 1.7),
                    "hermite3d_degree": BasisSpec.hermite3d(2)}
        assert set(BASIS_KINDS) == set(examples)
        for kind, basis in examples.items():
            gram = oracles.gram_matrix_quadrature(basis)
            assert np.max(np.abs(gram - np.eye(basis.size))) <= 1e-12, kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(UnsupportedBasis):
            BasisSpec("legendre", 8)

    def test_hermite3d_size_must_match_degree(self):
        # C(3+3,3) = 20 states at degree 3
        assert BasisSpec.hermite3d(3).size == 20
        with pytest.raises(ValueError):
            BasisSpec("hermite3d_degree", 19, degree=3)

    def test_hermite3d_enumeration_is_degree_then_lexicographic(self):
        tuples = hermite3d_index_tuples(2)
        assert tuples[0] == (0, 0, 0)
        assert tuples[1:4] == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
        degrees = [sum(t) for t in tuples]
        assert degrees == sorted(degrees)
        assert len(tuples) == 10

    def test_fourier_needs_positive_halflength(self):
        with pytest.raises(ValueError):
            BasisSpec.fourier(4, -1.0)


class TestStateVector:
    def test_length_checked(self):
        with pytest.raises(LengthMismatch):
            _state(BasisSpec.hermite(4), [1.0, 0.0])

    def test_json_round_trip(self):
        psi = _state(BasisSpec.hermite(3), [1.0, 2j, -0.5 + 0.25j])
        back = StateVector.from_json_dict(psi.to_json_dict())
        assert back.basis == psi.basis
        assert np.array_equal(back.coefficients, psi.coefficients)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            _state(BasisSpec.hermite(2), [np.nan, 0.0])


class TestInnerProduct:
    def test_antilinear_first_argument(self):
        basis = BasisSpec.hermite(2)
        u = _state(basis, [1.0, 0.0])
        v = _state(basis, [1j, 0.0])
        assert inner(u, v) == 1j
        assert inner(v, u) == -1j

    def test_basis_mismatch(self):
        with pytest.raises(BasisMismatch):
            inner(_state(BasisSpec.hermite(2), [1, 0]),
                  _state(BasisSpec.fourier(2, 1.0), [1, 0]))

    def test_probabilist_inner_products_convert_first(self):
        # <chi_m|chi_n> taken on the orthonormal coefficients C e_m, C e_n of
        # the oracle's change of basis; dual route: chi_n's Gram matrix from
        # quadrature
        size = 6
        C = oracles.probabilist_change_of_basis(size)
        gram = oracles.probabilist_gram_quadrature(size)
        assert np.max(np.abs(C.T @ C - gram)) <= 1e-10

    def test_change_of_basis_structure(self):
        C = oracles.probabilist_change_of_basis(6)
        # chi_0 = e^{-x^2/2} = pi^{1/4} phi_0
        assert C[0, 0] == pytest.approx(np.pi ** 0.25, abs=1e-15)
        assert np.allclose(C, np.triu(C))  # He_n has degree n


class TestSymplecticForm:
    def test_coordinate_pair_value(self):
        basis = BasisSpec.hermite(3)
        base = _state(basis, [0, 0, 0])
        u = TangentVector(base, _state(basis, [1, 0, 0]))
        iu = TangentVector(base, _state(basis, [1j, 0, 0]))
        assert symplectic_form(u, iu) == 1.0
        assert symplectic_form(iu, u) == -1.0

    def test_requires_common_base_point(self):
        basis = BasisSpec.hermite(2)
        a = TangentVector(_state(basis, [1, 0]), _state(basis, [0, 1]))
        b = TangentVector(_state(basis, [0, 1]), _state(basis, [1, 0]))
        with pytest.raises(BasisMismatch):
            symplectic_form(a, b)

    @given(st.integers(0, 10 ** 6))
    def test_antisymmetry_and_imaginary_part(self, seed):
        rng = np.random.default_rng(seed)
        basis = BasisSpec.hermite(8)
        base = _rand(rng, basis)
        u, v = _rand(rng, basis), _rand(rng, basis)
        tu, tv = TangentVector(base, u), TangentVector(base, v)
        assert symplectic_form(tu, tv) == -symplectic_form(tv, tu)
        assert symplectic_form(tu, tv) == pytest.approx(inner(u, v).imag, rel=1e-12)


class TestChart:
    def test_round_trip_and_isometry(self):
        basis = BasisSpec.hermite(5)
        rng = np.random.default_rng(7)
        psi = _rand(rng, basis)
        x = to_real_chart(psi)
        assert np.array_equal(oracles.from_real_chart(x, basis).coefficients, psi.coefficients)
        assert chart_norm(x) == pytest.approx(norm(psi), abs=1e-13)

    def test_chart_splits_re_im(self):
        psi = _state(BasisSpec.hermite(2), [1 + 2j, -3j])
        x = to_real_chart(psi)
        assert np.array_equal(x.q, [1.0, 0.0])
        assert np.array_equal(x.p, [2.0, -3.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            oracles.from_real_chart(RealChartPoint(np.zeros(3), np.zeros(3)), BasisSpec.hermite(4))


class TestTautologicalOneForm:
    def test_explicit_value(self):
        basis = BasisSpec.hermite(2)
        x = to_real_chart(_state(basis, [1j, 2j]))  # p = (1, 2)
        u = TangentVector(_state(basis, [0, 0]), _state(basis, [3.0, 4.0]))
        assert tautological_one_form(x, u) == 11.0

    @given(st.integers(0, 10 ** 6))
    def test_exterior_derivative_is_minus_omega(self, seed):
        # for constant fields u, v: d(theta)(u,v) = theta_u(v) - theta_v(u)
        rng = np.random.default_rng(seed)
        basis = BasisSpec.hermite(6)
        base = _rand(rng, basis)
        u, v = _rand(rng, basis), _rand(rng, basis)
        dtheta = tautological_one_form(to_real_chart(u), TangentVector(base, v)) \
            - tautological_one_form(to_real_chart(v), TangentVector(base, u))
        omega = symplectic_form(TangentVector(base, u), TangentVector(base, v))
        assert dtheta == pytest.approx(-omega, rel=1e-12, abs=1e-12)


class TestStateFactories:
    def test_coherent_matches_series(self):
        """The truncated series has norm 1 to roundoff at this alpha and
        size, so normalizing it moves no coefficient past the bound."""
        alpha = 0.4 + 0.3j
        psi = coherent_state(alpha, 32)
        oracle = oracles.coherent_coefficients(alpha, 32)
        assert np.max(np.abs(psi.coefficients - oracle)) < 1e-15

    def test_coherent_zero_is_ground_state(self):
        psi = coherent_state(0.0, 8)
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.array_equal(psi.coefficients, expected)

    def test_coherent_normalized(self):
        assert norm(coherent_state(1.3, 64)) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.filterwarnings("error")
    def test_coherent_underflow_is_zero_vector(self):
        # e^{-|alpha|^2/2} = e^{-800} underflows every amplitude at size 8;
        # the normalization must refuse before it divides 0 by 0
        with pytest.raises(ZeroVector):
            coherent_state(40.0, 8)

    def test_monomial_gaussian_m0(self):
        psi = monomial_gaussian_state(0, 6)
        assert psi.coefficients[0] == pytest.approx(np.pi ** 0.25, abs=1e-15)
        assert np.all(psi.coefficients[1:] == 0)

    def test_monomial_gaussian_norms(self):
        # ||x^m e^{-x^2/2}||^2 = Gamma(m + 1/2)
        from math import gamma

        for m in range(4):
            psi = monomial_gaussian_state(m, 16)
            assert norm(psi) ** 2 == pytest.approx(gamma(m + 0.5), rel=1e-13)

    def test_monomial_gaussian_terminates_at_m(self):
        psi = monomial_gaussian_state(3, 16)
        assert np.all(psi.coefficients[4:] == 0)
        assert psi.coefficients[3] != 0

    def test_monomial_gaussian_needs_room(self):
        with pytest.raises(LengthMismatch):
            monomial_gaussian_state(5, 5)
