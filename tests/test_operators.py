"""Operator builders, band accounting, flow commutators, certificates."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from geoschro.errors import (
    BasisMismatch,
    DomainExhausted,
    NotSkewHermitian,
    UnsafeSubspace,
    UnsupportedBasis,
)
from geoschro.hilbert import BasisSpec, StateVector
from geoschro.operators import (
    BUILTIN_OPERATORS,
    OperatorMatrix,
    analytic_certificate,
    build_named,
    commutator,
    flow_commutator,
    metaplectic_set,
    safe_subspace,
    support_max,
)
from geoschro.tolerances import DEFAULT

HERMITE12 = BasisSpec.hermite(12)


def _basis_state(basis, index):
    c = np.zeros(basis.size)
    c[index] = 1.0
    return StateVector(basis, c)


class TestLadderBuilders:
    def test_position_matches_quadrature(self):
        M = build_named("x", HERMITE12).matrix
        assert np.max(np.abs(M - oracles.position_matrix_quadrature(12))) < 1e-12

    def test_momentum_matches_quadrature(self):
        M = build_named("p", HERMITE12).matrix
        assert np.max(np.abs(M - oracles.momentum_matrix_quadrature(12))) < 1e-12

    def test_literal_corner_entries(self):
        x = build_named("x", HERMITE12).matrix
        p = build_named("p", HERMITE12).matrix
        assert x[0, 1] == np.sqrt(0.5)
        assert p[1, 0] == 1j * np.sqrt(0.5)
        assert p[0, 1] == -1j * np.sqrt(0.5)
        assert not np.any(np.signbit(p.real))  # +0.0 real parts in both triangles

    def test_x_squared_diagonal_matches_quadrature(self):
        x2 = build_named("x2", HERMITE12).matrix
        diag = oracles.position_squared_diagonal_quadrature(12)
        assert np.max(np.abs(np.diag(x2).real - diag)) < 1e-12
        assert x2[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_oscillator_diagonal_is_exact(self):
        x2, p2 = (build_named(name, HERMITE12) for name in ("x2", "p2"))
        H = (x2.matrix + p2.matrix) / 2
        assert np.array_equal(H, np.diag(np.arange(12) + 0.5).astype(complex))

    def test_quadratics_couple_two_steps(self):
        x2, p2, xppx = (build_named(name, HERMITE12) for name in ("x2", "p2", "xp_px"))
        for op in (x2, p2, xppx):
            assert (op.raise_band, op.lower_band) == (2, 2)
        assert x2.matrix[0, 2] == pytest.approx(np.sqrt(2) / 2, abs=1e-15)
        assert xppx.matrix[0, 2] == pytest.approx(-1j * np.sqrt(2), abs=1e-15)


class TestProbabilistDerivative:
    def test_conjugation_to_orthonormal_derivative(self):
        # C D_prob C^{-1} must equal d/dx written in the orthonormal basis,
        # away from the rows the truncation corrupts
        size = 10
        C = oracles.probabilist_change_of_basis(size)
        Dp = oracles.probabilist_derivative_matrix(size)
        Do = oracles.orthonormal_derivative_matrix(size)
        conj = C @ Dp @ np.linalg.inv(C)
        assert np.max(np.abs(conj[:, : size - 1] - Do[:, : size - 1])) < 1e-12


class TestAngularMomentum:
    def test_single_excitation_block_matches_hand_computation(self):
        basis = BasisSpec.hermite3d(2)
        Lz = build_named("Lz", basis).matrix
        assert np.max(np.abs(Lz[1:4, 1:4] - oracles.lz_single_excitation_block())) < 1e-15

    def test_degree_one_spectrum(self):
        basis = BasisSpec.hermite3d(1)
        for L in (build_named(name, basis) for name in ("Lx", "Ly", "Lz")):
            w = np.linalg.eigvalsh(L.matrix[1:, 1:])
            assert np.max(np.abs(w - [-1.0, 0.0, 1.0])) < 1e-14

    def test_su2_commutators(self):
        basis = BasisSpec.hermite3d(4)
        Lx, Ly, Lz = (build_named(name, basis).matrix for name in ("Lx", "Ly", "Lz"))
        assert np.max(np.abs(oracles.matrix_commutator(Lx, Ly) - 1j * Lz)) < 1e-13
        assert np.max(np.abs(oracles.matrix_commutator(Ly, Lz) - 1j * Lx)) < 1e-13
        assert np.max(np.abs(oracles.matrix_commutator(Lz, Lx) - 1j * Ly)) < 1e-13

    def test_degree_blocks_preserved(self):
        # no coupling between degree <= 2 and degree 3 states
        basis = BasisSpec.hermite3d(3)
        Lz = build_named("Lz", basis).matrix
        assert np.max(np.abs(Lz[10:, :10])) == 0.0
        assert np.max(np.abs(Lz[:10, 10:])) == 0.0


class TestFourier:
    def test_diagonal_eigenvalues(self):
        basis = BasisSpec.fourier(6, 2.0)
        d = np.diag(build_named("fourier_p2", basis).matrix).real
        expected = [(np.pi / 2) ** 2, 0.0, (2 * np.pi / 2) ** 2,
                    (np.pi / 2) ** 2, (3 * np.pi / 2) ** 2, (2 * np.pi / 2) ** 2]
        assert np.max(np.abs(d - expected)) < 1e-14

    @pytest.mark.parametrize("halflength", [1.0, np.pi, 0.3])
    def test_diagonal_has_the_bits_of_python_floats(self, halflength):
        """The vectorized diagonal squares with pow(), as Python's float ** 2
        does; numpy's ** 2 multiplies and differs in the last bit at some
        indices (at l = 0.3 first at index 236)."""
        d = np.diag(build_named("fourier_p2", BasisSpec.fourier(1000, halflength)).matrix)
        assert d.tolist() == oracles.fourier_p2_diagonal(1000, halflength)


class TestOperatorMatrix:
    def test_json_round_trip(self):
        op = build_named("p", BasisSpec.hermite(5))
        back = OperatorMatrix.from_json_dict(oracles.operator_json(op))
        assert back.basis == op.basis
        assert back.symmetry == op.symmetry
        assert np.array_equal(back.matrix, op.matrix)

    def test_band_declaration_checked(self):
        basis = BasisSpec.hermite(4)
        M = np.zeros((4, 4))
        M[0, 2] = M[2, 0] = 1.0
        with pytest.raises(ValueError):
            OperatorMatrix(basis, M, "hermitian", 1, 1)

    def test_flag_violation_rejected(self):
        basis = BasisSpec.hermite(3)
        M = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            OperatorMatrix(basis, M, "hermitian", 1, 1)

    def test_flag_check_uses_the_callers_tolerance(self):
        basis = BasisSpec.hermite(3)
        M = np.diag([1.0, 2.0, 3.0]).astype(complex)
        M[0, 1] = 1e-11  # Hermitian to 1e-11, outside the default flag tolerance
        loose = DEFAULT.replace(flag_check=1e-10)
        with pytest.raises(ValueError):
            OperatorMatrix(basis, M, "hermitian", 1, 1)
        assert OperatorMatrix(basis, M, "hermitian", 1, 1, loose).symmetry == "hermitian"
        assert OperatorMatrix.from_matrix(basis, M, tol=loose).symmetry == "hermitian"
        assert OperatorMatrix.from_matrix(basis, M).symmetry == "none"
        assert OperatorMatrix.from_matrix(basis, 1j * M, tol=loose).scaled(1j, loose).symmetry \
            == "hermitian"

    def test_scaled_by_i_flips_flag(self):
        x = build_named("x", BasisSpec.hermite(6))
        ix = x.scaled(1j)
        assert ix.symmetry == "skew_hermitian"
        assert ix.scaled(1j).symmetry == "hermitian"

    @given(st.integers(0, 10 ** 6))
    def test_from_matrix_infers_flag_and_bands(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        basis = BasisSpec.hermite(n)
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        herm = OperatorMatrix.from_matrix(basis, (A + A.conj().T) / 2)
        assert herm.symmetry == "hermitian"
        skew = OperatorMatrix.from_matrix(basis, (A - A.conj().T) / 2)
        assert skew.symmetry == "skew_hermitian"
        band = np.triu(A, -1)
        op = OperatorMatrix.from_matrix(basis, band)
        assert op.raise_band <= 1
        assert op.apply(_basis_state(basis, n - 1)).coefficients is not None

    def test_mismatched_apply(self):
        with pytest.raises(BasisMismatch):
            build_named("x", HERMITE12).apply(_basis_state(BasisSpec.hermite(6), 0))


# the basis kind each builtin needs (None: any kind), and a basis of each kind
_NEEDS = {**dict.fromkeys(("p2", "x2", "xp_px", "p", "x"), "hermite1d_orthonormal"),
          "id": None, **dict.fromkeys(("Lx", "Ly", "Lz"), "hermite3d_degree"),
          "fourier_p2": "fourier_interval"}
_BASES = {"hermite1d_orthonormal": BasisSpec.hermite(8), "hermite3d_degree": BasisSpec.hermite3d(2),
          "fourier_interval": BasisSpec.fourier(5, 1.5)}


class TestBuiltins:
    def test_the_table_names_every_builtin(self):
        assert BUILTIN_OPERATORS == tuple(_NEEDS)

    @pytest.mark.parametrize("kind", _BASES)
    @pytest.mark.parametrize("name", BUILTIN_OPERATORS)
    def test_each_name_builds_on_its_kind_and_only_there(self, name, kind):
        basis = _BASES[kind]
        if _NEEDS[name] in (None, kind):
            assert build_named(name, basis).basis == basis
        else:
            with pytest.raises(UnsupportedBasis) as exc:
                build_named(name, basis)
            assert str(exc.value) == f"operator needs basis kind {_NEEDS[name]!r}, got {kind!r}"

    @pytest.mark.parametrize("name", BUILTIN_OPERATORS)
    def test_each_name_constructs_one_operator(self, monkeypatch, name):
        """A name builds its own matrix alone: p2 no longer builds x2 and
        xp_px beside it, nor Lx the other two components."""
        built, check = [], OperatorMatrix.__post_init__

        def counted(self, tol):
            built.append(self)
            check(self, tol)

        monkeypatch.setattr(OperatorMatrix, "__post_init__", counted)
        op = build_named(name, _BASES[_NEEDS[name] or "fourier_interval"])
        assert len(built) == 1 and built[0] is op

    def test_unknown_name(self):
        with pytest.raises(UnsupportedBasis, match="^not a builtin operator: 'q2'$"):
            build_named("q2", BasisSpec.hermite(4))

    def test_metaplectic_order(self):
        ops = metaplectic_set(BasisSpec.hermite(6))
        assert len(ops) == 6
        assert np.array_equal(ops[5].matrix, np.eye(6).astype(complex))
        # slot 0 is p^2: negative two-step coupling
        assert ops[0].matrix[0, 2].real < 0
        assert ops[1].matrix[0, 2].real > 0


class TestCommutator:
    def test_canonical_pair_interior(self):
        x = build_named("x", HERMITE12)
        p = build_named("p", HERMITE12)
        K = commutator(x, p)
        assert K.symmetry == "skew_hermitian"
        # truncation corrupts only the last diagonal entry
        assert np.max(np.abs(K.matrix[:11, :11] - 1j * np.eye(11))) < 1e-13
        assert K.matrix[11, 11] == pytest.approx(-11j, abs=1e-13)

    def test_band_accounting(self):
        x2 = build_named("x2", HERMITE12)
        x = build_named("x", HERMITE12)
        K = commutator(x2, x)
        assert K.raise_band <= 3 and K.lower_band <= 3

    def test_hermitian_skew_pair_gives_hermitian(self):
        x = build_named("x", HERMITE12)
        ip = build_named("p", HERMITE12).scaled(1j)
        assert commutator(x, ip).symmetry == "hermitian"

    def test_basis_mismatch(self):
        with pytest.raises(BasisMismatch):
            commutator(build_named("x", HERMITE12), build_named("x", BasisSpec.hermite(6)))

    @pytest.mark.parametrize("scale_a,scale_b", [(1, 1), (1j, 1j), (1, 1j), (1j, 1)],
                             ids=["hermitian", "skew", "hermitian_skew", "skew_hermitian"])
    def test_flagged_pairs_are_exactly_symmetric(self, scale_a, scale_b):
        """For every pair of builtins, each taken Hermitian or times i (skew),
        [A, B] is bit for bit minus its conjugate transpose for a like pair,
        plus it for a mixed one, and is A @ B - B @ A to roundoff."""
        names = ("p2", "x2", "xp_px", "p", "x", "id")  # the builtins on a 1-d Hermite basis
        sign = -1 if scale_a == scale_b else 1
        for a, b in itertools.product(names, names):
            A = build_named(a, HERMITE12).scaled(scale_a)
            B = build_named(b, HERMITE12).scaled(scale_b)
            K = commutator(A, B)
            assert K.symmetry == ("skew_hermitian" if sign < 0 else "hermitian")
            assert np.array_equal(K.matrix, sign * K.matrix.conj().T), (a, b)
            want = oracles.matrix_commutator(A.matrix, B.matrix)
            assert np.max(np.abs(K.matrix - want)) <= 1e-13, (a, b)

    def test_unflagged_operator_keeps_both_products(self):
        x = build_named("x", HERMITE12)
        raising = OperatorMatrix.from_matrix(HERMITE12, np.tril(x.matrix))
        assert raising.symmetry == "none"
        for A, B in ((raising, x), (x, raising)):
            K = commutator(A, B)
            assert K.symmetry == "none"
            assert np.array_equal(K.matrix, A.matrix @ B.matrix - B.matrix @ A.matrix)


class TestSupportAccounting:
    def test_support_max(self):
        basis = BasisSpec.hermite(8)
        c = np.zeros(8)
        c[3] = 1e-3
        psi = StateVector(basis, c)
        assert support_max(psi, 1e-6) == 3
        assert support_max(psi, 1e-2) == -1

    def test_safe_subspace_prefix(self):
        x = build_named("x", BasisSpec.hermite(10))
        assert safe_subspace(x, 3) == 6
        with pytest.raises(DomainExhausted):
            safe_subspace(x, 10)

    def test_zero_band_operator_never_exhausts(self):
        ident = build_named("id", BasisSpec.hermite(4))
        assert safe_subspace(ident, 1000) == 3


class TestFlowCommutator:
    def test_matches_matrix_commutator_to_second_order(self):
        basis = BasisSpec.hermite(24)
        ip = build_named("p", basis).scaled(1j)
        ix = build_named("x", basis).scaled(1j)
        psi = _basis_state(basis, 0)
        exact = oracles.matrix_commutator(ip.matrix, ix.matrix) @ psi.coefficients
        errs = []
        for h in (2e-3, 1e-3):
            approx = flow_commutator(ip, ix, psi, h).coefficients
            errs.append(np.linalg.norm(approx - exact) / np.linalg.norm(exact))
        assert errs[1] < 1e-5
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)

    def test_commuting_flows_give_null(self):
        basis = BasisSpec.hermite(24)
        ix = build_named("x", basis).scaled(1j)
        i_id = build_named("id", basis).scaled(1j)
        psi = _basis_state(basis, 1)
        out = flow_commutator(ix, i_id, psi, 1e-3)
        assert np.linalg.norm(out.coefficients) < 1e-8

    def test_zero_operator_times_i_gives_null(self):
        """The zero matrix satisfies every flag; scaled by i it stays
        skew_hermitian because the flag follows the factor."""
        basis = BasisSpec.hermite(8)
        zero = OperatorMatrix.from_matrix(basis, np.zeros((8, 8))).scaled(1j)
        assert zero.symmetry == "skew_hermitian"
        ip = build_named("p", basis).scaled(1j)
        out = flow_commutator(zero, ip, _basis_state(basis, 0), 1e-3)
        assert np.linalg.norm(out.coefficients) < 1e-8

    def test_requires_skew_inputs(self):
        basis = BasisSpec.hermite(16)
        with pytest.raises(NotSkewHermitian):
            flow_commutator(build_named("x", basis), build_named("p", basis).scaled(1j),
                            _basis_state(basis, 0), 1e-3)

    def test_the_flag_is_the_skew_rule(self):
        """1e4 i x (max entry about 2.3e4) with one entry moved by 1e-8 passes
        its relative flag check; flow_commutator takes it on its flag and
        steps its exact Hermitian part, while an exactly skew matrix flagged
        "none" is refused."""
        basis = HERMITE12
        clean = build_named("x", basis).scaled(1e4j)
        assert clean.symmetry == "skew_hermitian"
        M = clean.matrix.copy()
        M[0, 1] += 1e-8
        A = OperatorMatrix(basis, M, "skew_hermitian", 1, 1)
        ip = build_named("p", basis).scaled(1j)
        psi = _basis_state(basis, 0)
        got = flow_commutator(A, ip, psi, 1e-3).coefficients
        want = flow_commutator(clean, ip, psi, 1e-3).coefficients
        assert np.linalg.norm(got - want) <= 1.5e-12 * np.linalg.norm(want)
        unflagged = OperatorMatrix(basis, clean.matrix, "none", 1, 1)
        for pair in ((unflagged, ip), (ip, unflagged)):
            with pytest.raises(NotSkewHermitian):
                flow_commutator(*pair, psi, 1e-3)

    def test_support_guard(self):
        basis = BasisSpec.hermite(8)
        ip = build_named("p", basis).scaled(1j)
        ix = build_named("x", basis).scaled(1j)
        with pytest.raises(UnsafeSubspace):
            flow_commutator(ip, ix, _basis_state(basis, 7), 1e-3)


class TestAnalyticCertificate:
    def test_identity_norms_and_fit(self):
        basis = BasisSpec.hermite(8)
        cert = analytic_certificate(build_named("id", basis), _basis_state(basis, 0), 4)
        assert np.array_equal(cert.norms, np.ones(5))
        # |Id^n psi| = 1 <= C^n n! pins fitted C at (1/n!)^(1/n), maxed at n=1
        assert cert.fitted_C == pytest.approx(1.0, abs=1e-12)

    def test_holds_logic(self):
        basis = BasisSpec.hermite(32)
        x = build_named("x", basis)
        psi = _basis_state(basis, 0)
        good = analytic_certificate(x, psi, 6, claimed_C=10.0)
        assert good.holds is True
        bad = analytic_certificate(x, psi, 6, claimed_C=good.fitted_C / 2)
        assert bad.holds is False
        assert analytic_certificate(x, psi, 6).holds is None

    def test_support_guard(self):
        basis = BasisSpec.hermite(8)
        with pytest.raises(UnsafeSubspace):
            analytic_certificate(build_named("x", basis), _basis_state(basis, 5), 4)


class TestDtypeRule:
    """The operator decides its own dtype: real when every entry is real."""

    @pytest.mark.parametrize("name,dtype", [
        ("x", np.float64), ("x2", np.float64), ("p2", np.float64), ("id", np.float64),
        ("fourier_p2", np.float64), ("p", np.complex128), ("xp_px", np.complex128),
        ("Lx", np.complex128), ("Ly", np.complex128), ("Lz", np.complex128),
    ])
    def test_builtin_dtype_and_layout(self, name, dtype):
        if name in ("Lx", "Ly", "Lz"):
            basis = BasisSpec.hermite3d(3)
        elif name == "fourier_p2":
            basis = BasisSpec.fourier(8, 1.5)
        else:
            basis = BasisSpec.hermite(8)
        M = build_named(name, basis).matrix
        assert M.dtype == dtype
        assert M.flags.c_contiguous

    def test_operator_file_with_zero_imaginary_part_loads_real(self):
        x = build_named("x", BasisSpec.hermite(6))
        d = oracles.operator_json(x)
        assert d["im"] == np.zeros((6, 6)).tolist()
        back = OperatorMatrix.from_json_dict(d)
        assert back.matrix.dtype == np.float64 and back.matrix.flags.c_contiguous
        assert np.array_equal(back.matrix, x.matrix)
        assert oracles.operator_json(back) == d

    def test_scaled_follows_the_factor(self):
        x = build_named("x", BasisSpec.hermite(6))
        assert x.scaled(2.0).matrix.dtype == np.float64
        assert np.array_equal(x.scaled(2.0).matrix, 2.0 * x.matrix)
        ix = x.scaled(1j)
        assert ix.matrix.dtype == np.complex128
        assert np.array_equal(ix.matrix, 1j * x.matrix)
