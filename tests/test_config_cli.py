"""Config schema, scenario construction, file outputs, and CLI exit codes."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geoschro.cli as cli
import oracles
from geoschro.config import (
    build_hamiltonian,
    build_initial_state,
    parse_config,
    parse_config_dict,
)
from geoschro.errors import MissingInput, ParseError, SchemaError, UnknownOperator
from geoschro.hilbert import BasisSpec, StateVector
from geoschro.operators import OperatorMatrix, build_position
from geoschro.reduction import diagram_residuals, paired_records
from geoschro.serialize import emit_plot_script
from geoschro.tolerances import DEFAULT, parse_overrides

REPO = Path(__file__).resolve().parent.parent
GOLDEN = sorted((REPO / "configs").glob("*.json"))


def _base_config(**overrides):
    cfg = {
        "basis": {"kind": "hermite1d_orthonormal", "size": 8},
        "hamiltonian": [
            {"operator": "p2", "coefficient": {"kind": "constant", "c": 0.5}},
            {"operator": "x2", "coefficient": {"kind": "constant", "c": 0.5}},
        ],
        "initial_state": {"kind": "basis_vector", "index": 0},
        "integrator": {"method": "exact_eig", "dt": 0.1},
        "time": {"t0": 0.0, "t1": 1.0, "stride": 2},
    }
    cfg.update(overrides)
    return cfg


def _number_leaves(node, keys=()):
    """The key path of every number below node (a bool is not a number)."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _number_leaves(child, keys + (key,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield keys


def _run_cli(*args):
    """The CLI in a fresh interpreter, so its real stderr can be checked."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "geoschro", *args], env=env,
                          capture_output=True, text=True, timeout=300)


def _write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestSchema:
    def test_golden_configs_parse(self):
        assert len(GOLDEN) >= 4
        for path in GOLDEN:
            config = parse_config(path)
            assert config.basis.size >= 1
            assert config.terms

    def test_minimal_config(self, tmp_path):
        config = parse_config(_write_config(tmp_path, _base_config()))
        assert config.time.stride == 2
        assert config.reduction is None
        assert config.outputs.diagnostics is True

    def test_unknown_operator(self, tmp_path):
        cfg = _base_config()
        cfg["hamiltonian"][0]["operator"] = "q2"
        with pytest.raises(UnknownOperator):
            parse_config(_write_config(tmp_path, cfg))

    @pytest.mark.parametrize("command", ["simulate", "reduce"])
    def test_non_orthonormal_basis_is_1(self, tmp_path, capsys, command):
        # the raw coefficient norm of basis_vector 3 is 1, its L2 norm 1.823
        cfg = _base_config(basis={"kind": "hermite1d_probabilist", "size": 8},
                           hamiltonian=[{"operator": "id",
                                         "coefficient": {"kind": "constant", "c": 1.0}}],
                           initial_state={"kind": "basis_vector", "index": 3},
                           reduction={"mu": -0.5, "dt_reduced": 0.1})
        config_path = _write_config(tmp_path, cfg)
        with pytest.raises(SchemaError) as err:
            parse_config(config_path)
        assert err.value.pointer == "/basis/kind"
        out = tmp_path / "o"
        assert cli.main([command, "--config", str(config_path), "--out", str(out)]) == 1
        assert "/basis/kind" in capsys.readouterr().err
        assert not out.exists()

    def test_reversed_time_pointer(self, tmp_path):
        cfg = _base_config(time={"t0": 1.0, "t1": 0.0})
        with pytest.raises(SchemaError) as err:
            parse_config(_write_config(tmp_path, cfg))
        assert err.value.pointer == "/time/t1"

    def test_coherent_needs_hermite_basis(self):
        cfg = _base_config(
            basis={"kind": "fourier_interval", "size": 8, "interval_halflength": 1.0},
            hamiltonian=[{"operator": "fourier_p2",
                          "coefficient": {"kind": "constant", "c": 1.0}}],
            initial_state={"kind": "coherent", "alpha": 0.5},
        )
        with pytest.raises(SchemaError) as err:
            parse_config_dict(cfg, Path("."))
        assert err.value.pointer == "/initial_state"

    def test_basis_vector_index_range(self):
        cfg = _base_config(initial_state={"kind": "basis_vector", "index": 8})
        with pytest.raises(SchemaError) as err:
            parse_config_dict(cfg, Path("."))
        assert err.value.pointer == "/initial_state/index"

    def test_alpha_accepts_pair(self):
        cfg = _base_config(initial_state={"kind": "coherent", "alpha": [0.3, -0.2]})
        config = parse_config_dict(cfg, Path("."))
        assert config.initial_state.alpha == 0.3 - 0.2j

    def test_missing_field_pointer(self):
        cfg = _base_config()
        del cfg["integrator"]["dt"]
        with pytest.raises(SchemaError) as err:
            parse_config_dict(cfg, Path("."))
        assert err.value.pointer == "/integrator/dt"

    def test_reduction_block_validated(self):
        cfg = _base_config(reduction={"mu": 0.5, "dt_reduced": 0.01})
        with pytest.raises(SchemaError) as err:
            parse_config_dict(cfg, Path("."))
        assert err.value.pointer == "/reduction/mu"
        cfg = _base_config(reduction={"mu": -0.5, "dt_reduced": 0.0})
        with pytest.raises(SchemaError) as err:
            parse_config_dict(cfg, Path("."))
        assert err.value.pointer == "/reduction/dt_reduced"

    def test_stride_validation(self):
        cfg = _base_config(time={"t0": 0.0, "t1": 1.0, "stride": 0})
        with pytest.raises(SchemaError) as err:
            parse_config_dict(cfg, Path("."))
        assert err.value.pointer == "/time/stride"

    def test_booleans_rejected_as_numbers(self):
        cfg = _base_config(time={"t0": True, "t1": 1.0})
        with pytest.raises(SchemaError):
            parse_config_dict(cfg, Path("."))

    @pytest.mark.parametrize("path", GOLDEN, ids=lambda path: path.stem)
    def test_numeric_leaves_reject_bool_and_string(self, path):
        cfg = json.loads(path.read_text(encoding="utf-8"))
        leaves = list(_number_leaves(cfg))
        assert leaves
        for keys in leaves:
            for bad in (True, "1"):
                mutated = copy.deepcopy(cfg)
                parent = mutated
                for key in keys[:-1]:
                    parent = parent[key]
                parent[keys[-1]] = bad
                with pytest.raises(SchemaError) as err:
                    parse_config_dict(mutated, path.parent)
                assert err.value.pointer == "/" + "/".join(map(str, keys)), bad

    @pytest.mark.parametrize("basis,field", [
        ({"kind": "hermite3d_degree", "size": 10, "degree": 2}, "degree"),
        ({"kind": "fourier_interval", "size": 8, "interval_halflength": 2.0},
         "interval_halflength"),
    ])
    def test_basis_fields_reject_bool_and_string(self, basis, field):
        assert parse_config_dict(_base_config(basis=basis), Path(".")).basis.size == basis["size"]
        for bad in (True, "2"):
            with pytest.raises(SchemaError, match=field) as err:
                parse_config_dict(_base_config(basis=dict(basis, **{field: bad})), Path("."))
            assert err.value.pointer == "/basis"

    def test_file_errors(self, tmp_path):
        with pytest.raises(MissingInput):
            parse_config(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            parse_config(bad)


class TestConstruction:
    def test_builtin_hamiltonian(self, tmp_path):
        config = parse_config(_write_config(tmp_path, _base_config()))
        H = build_hamiltonian(config)
        assert len(H.terms) == 2
        assert H.is_autonomous

    def test_operator_file_term(self, tmp_path):
        basis = BasisSpec.hermite(8)
        op_path = tmp_path / "custom_x.json"
        op_path.write_text(json.dumps(build_position(basis).to_json_dict()), encoding="utf-8")
        cfg = _base_config()
        cfg["hamiltonian"].append(
            {"operator": "custom_x.json", "coefficient": {"kind": "sinusoid", "a": 0.1, "omega": 1.0}})
        config = parse_config(_write_config(tmp_path, cfg))
        H = build_hamiltonian(config)
        assert len(H.terms) == 3
        assert not H.is_autonomous
        assert np.array_equal(H.terms[2][1].matrix, build_position(basis).matrix)

    def test_missing_operator_file(self, tmp_path):
        cfg = _base_config()
        cfg["hamiltonian"][0]["operator"] = "absent.json"
        config = parse_config(_write_config(tmp_path, cfg))
        with pytest.raises(MissingInput):
            build_hamiltonian(config)

    def test_initial_states(self, tmp_path):
        config = parse_config(_write_config(tmp_path, _base_config()))
        psi = build_initial_state(config)
        assert psi.coefficients[0] == 1.0

        cfg = _base_config(initial_state={"kind": "coherent", "alpha": 0.5})
        psi = build_initial_state(parse_config_dict(cfg, tmp_path))
        assert np.linalg.norm(psi.coefficients) == pytest.approx(1.0, abs=1e-13)

        state_path = tmp_path / "state.json"
        raw = StateVector(BasisSpec.hermite(8), np.eye(8)[3]).to_json_dict()
        state_path.write_text(json.dumps(raw), encoding="utf-8")
        cfg = _base_config(initial_state={"kind": "coefficients_file", "path": "state.json"})
        psi = build_initial_state(parse_config_dict(cfg, tmp_path))
        assert psi.coefficients[3] == 1.0

    def test_missing_state_file(self, tmp_path):
        cfg = _base_config(initial_state={"kind": "coefficients_file", "path": "absent.json"})
        with pytest.raises(MissingInput):
            build_initial_state(parse_config_dict(cfg, tmp_path))


class TestSimulatePipeline:
    def test_outputs_and_summary(self, tmp_path):
        config_path = _write_config(tmp_path, _base_config())
        out = tmp_path / "run"
        rc = cli.main(["simulate", "--config", str(config_path), "--out", str(out)])
        assert rc == 0
        for name in ("trajectory.jsonl", "trajectory.csv", "summary.json", "plot.gp"):
            assert (out / name).is_file()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["kind"] == "simulate"
        assert summary["max_norm_drift"] <= 1e-12
        assert summary["final"]["t"] == 1.0
        lines = (out / "trajectory.jsonl").read_text().splitlines()
        assert len(lines) == summary["records"]
        assert set(json.loads(lines[0])) == {"t", "norm", "J", "energy"}

    def test_coefficient_records_when_enabled(self, tmp_path):
        cfg = _base_config(outputs={"coefficients": True})
        config_path = _write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        first = json.loads((out / "trajectory.jsonl").read_text().splitlines()[0])
        assert set(first) == {"t", "norm", "J", "energy", "re", "im"}
        assert len(first["re"]) == 8

    def test_runs_are_byte_identical(self, tmp_path):
        config_path = _write_config(tmp_path, _base_config())
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert cli.main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
            blobs.append((out / "trajectory.jsonl").read_bytes()
                         + (out / "summary.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_csv_mirror_shape(self, tmp_path):
        config_path = _write_config(tmp_path, _base_config())
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "# t,norm,norm_drift,J,energy"
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    def test_plot_script_has_three_stanzas(self, tmp_path):
        config_path = _write_config(tmp_path, _base_config())
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        script = (out / "plot.gp").read_text()
        assert script.count("set output") == 3
        assert "pngcairo" in script


class TestReducePipeline:
    def _reduce_config(self):
        return _base_config(
            hamiltonian=[
                {"operator": "p2", "coefficient": {"kind": "constant", "c": 0.5}},
                {"operator": "x2", "coefficient": {"kind": "constant", "c": 0.5}},
                {"operator": "x2", "coefficient": {"kind": "sinusoid", "a": 0.05, "omega": 1.0}},
            ],
            initial_state={"kind": "coherent", "alpha": 0.3},
            integrator={"method": "magnus2", "dt": 0.01},
            time={"t0": 0.0, "t1": 0.5, "stride": 10},
            reduction={"mu": -0.5, "dt_reduced": 0.01},
            outputs={"reduced": True},
        )

    def test_outputs_and_residual(self, tmp_path):
        config_path = _write_config(tmp_path, self._reduce_config())
        out = tmp_path / "red"
        rc = cli.main(["reduce", "--config", str(config_path), "--out", str(out)])
        assert rc == 0
        for name in ("trajectory.jsonl", "trajectory.csv", "rays.jsonl", "rays.csv",
                     "summary.json", "plot.gp"):
            assert (out / name).is_file()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["kind"] == "reduce"
        assert summary["max_residual"] <= 1e-3
        assert set(summary["projector_drifts"]) == {"trace", "hermiticity", "idempotency"}
        ray_line = json.loads((out / "rays.jsonl").read_text().splitlines()[0])
        assert set(ray_line) == {"t", "ray", "fs_distance_to_initial"}
        assert set(ray_line["ray"]) == {"basis", "re", "im"}

    def test_rays_csv_residuals_are_the_diagram_residuals(self, tmp_path):
        config_path = _write_config(tmp_path, self._reduce_config())
        out = tmp_path / "red"
        assert cli.main(["reduce", "--config", str(config_path), "--out", str(out)]) == 0
        config = parse_config(config_path)
        up, down, _ = paired_records(build_hamiltonian(config), build_initial_state(config),
                                     config.reduction.mu, config.integrator,
                                     config.reduction.dt_reduced, config.time.t0,
                                     config.time.t1, stride=config.time.stride)
        lines = (out / "rays.csv").read_text().splitlines()
        assert lines[0].split(",")[-1] == "fs_residual"
        assert [float(line.split(",")[-1]) for line in lines[1:]] == diagram_residuals(up, down)

    def test_reduce_without_block_fails(self, tmp_path):
        config_path = _write_config(tmp_path, _base_config())
        rc = cli.main(["reduce", "--config", str(config_path), "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_plot_script_has_four_stanzas(self, tmp_path):
        config_path = _write_config(tmp_path, self._reduce_config())
        out = tmp_path / "red"
        assert cli.main(["reduce", "--config", str(config_path), "--out", str(out)]) == 0
        assert (out / "plot.gp").read_text().count("set output") == 4


class TestPlotCommand:
    def test_regenerates_script(self, tmp_path):
        config_path = _write_config(tmp_path, _base_config())
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        (out / "plot.gp").unlink()
        rc = cli.main(["plot", "--summary", str(out / "summary.json")])
        assert rc == 0
        assert (out / "plot.gp").is_file()

    def test_missing_csv_reported_by_path(self, tmp_path):
        config_path = _write_config(tmp_path, _base_config())
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        (out / "trajectory.csv").unlink()
        with pytest.raises(MissingInput) as err:
            emit_plot_script(out / "summary.json")
        assert err.value.path.endswith("trajectory.csv")
        assert cli.main(["plot", "--summary", str(out / "summary.json")]) == 3

    def test_single_record_summary_is_plottable(self, tmp_path):
        cfg = _base_config(time={"t0": 0.0, "t1": 0.0})
        config_path = _write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["records"] == 1
        assert cli.main(["plot", "--summary", str(out / "summary.json")]) == 0


class TestExitCodes:
    def test_missing_config_is_3(self, tmp_path):
        assert cli.main(["simulate", "--config", str(tmp_path / "absent.json"),
                         "--out", str(tmp_path / "o")]) == 3

    def test_schema_error_is_1(self, tmp_path):
        cfg = _base_config(time={"t0": 1.0, "t1": 0.0})
        config_path = _write_config(tmp_path, cfg)
        assert cli.main(["simulate", "--config", str(config_path),
                         "--out", str(tmp_path / "o")]) == 1

    def test_numeric_error_is_2(self, tmp_path):
        # exact_eig cannot integrate a driven Hamiltonian
        cfg = _base_config()
        cfg["hamiltonian"].append(
            {"operator": "x", "coefficient": {"kind": "sinusoid", "a": 0.1, "omega": 1.0}})
        config_path = _write_config(tmp_path, cfg)
        assert cli.main(["simulate", "--config", str(config_path),
                         "--out", str(tmp_path / "o")]) == 2

    def test_overflowing_hamiltonian_is_2(self, tmp_path):
        cfg = _base_config()
        cfg["hamiltonian"][0]["coefficient"] = {"kind": "constant", "c": 1e308}
        config_path = _write_config(tmp_path, cfg)
        proc = _run_cli("simulate", "--config", str(config_path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "non-finite H(t)" in proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr

    def test_diverging_projector_flow_is_2(self, tmp_path):
        # RK4 at dt 0.5 is unstable for the N=32 spectrum: the first step
        # that overflows must stop the flow before numpy warns about it
        cfg = _base_config(
            basis={"kind": "hermite1d_orthonormal", "size": 32},
            initial_state={"kind": "coherent", "alpha": 0.5},
            integrator={"method": "exact_eig", "dt": 0.5},
            time={"t0": 0.0, "t1": 200.0, "stride": 1},
            reduction={"mu": -0.5, "dt_reduced": 0.5},
        )
        config_path = _write_config(tmp_path, cfg)
        proc = _run_cli("reduce", "--config", str(config_path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "projector flow overflowed" in proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("token", ["NaN", "-Infinity", "1e400"])
    def test_non_finite_json_number_is_1(self, tmp_path, capsys, token):
        (tmp_path / "psi.json").write_text(
            '{"basis": {"kind": "hermite1d_orthonormal", "size": 8},'
            f' "re": [{token}, 0, 0, 0, 0, 0, 0, 0], "im": [0, 0, 0, 0, 0, 0, 0, 0]}}',
            encoding="utf-8")
        cfg = _base_config(initial_state={"kind": "coefficients_file", "path": "psi.json"})
        config_path = _write_config(tmp_path, cfg)
        assert cli.main(["simulate", "--config", str(config_path),
                         "--out", str(tmp_path / "o")]) == 1
        assert token in capsys.readouterr().err

    def test_non_finite_summary_is_1(self, tmp_path):
        (tmp_path / "summary.json").write_text('{"max_norm_drift": Infinity, "files": {}}',
                                               encoding="utf-8")
        assert cli.main(["plot", "--summary", str(tmp_path / "summary.json")]) == 1

    def test_argparse_error_is_1(self):
        assert cli.main(["simulate"]) == 1
        assert cli.main(["frobnicate"]) == 1

    def test_verify_failure_is_4(self, tmp_path, monkeypatch):
        def fake_verify(suite, size, seed, tol):
            return {"suite": suite, "seed": seed, "elapsed": 0.0,
                    "cases": [{"name": "stub", "measured": 1.0, "bound": 0.5, "pass": False}]}

        monkeypatch.setattr(cli, "run_verify", fake_verify)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["verify", "--suite", "symplectic", "--size", "8", "--seed", "1"]) == 4

    def test_verify_pass_is_0(self, tmp_path):
        out = tmp_path / "report.json"
        rc = cli.main(["verify", "--suite", "symplectic", "--size", "8", "--seed", "1",
                       "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["suite"] == "symplectic"
        assert all(case["pass"] for case in report["cases"])

    def test_bad_tol_override_is_1(self, tmp_path):
        for override in ("nonsense=1", "unitarity=1e-12", "hermiticity=nan", "hermiticity=-1",
                         "hermiticity=inf", "eig_residual=1e400", "phase=tiny"):
            assert cli.main(["verify", "--suite", "symplectic", "--size", "8", "--seed", "1",
                             "--tol", override, "--out", str(tmp_path / "r.json")]) == 1
        assert not (tmp_path / "r.json").exists()

    def test_tol_override_accepts_finite_non_negative_values(self):
        tol = parse_overrides(["hermiticity=0", " phase = 1e-4"])
        assert tol == DEFAULT.replace(hermiticity=0.0, phase=1e-4)
        assert parse_overrides([]) == DEFAULT


def _edited(d, **changes):
    """A copy of d with fields replaced, or deleted when the new value is None."""
    d = dict(d)
    for key, value in changes.items():
        if value is None:
            del d[key]
        else:
            d[key] = value
    return d


def _x_file(size):
    """The operator file of x on the Hermite basis of this size."""
    return build_position(BasisSpec.hermite(size)).to_json_dict()


def _psi_file(size):
    """The coefficients file of basis vector 0 on the Hermite basis of this size."""
    return StateVector(BasisSpec.hermite(size), np.eye(size)[0]).to_json_dict()


def _first_entry(rows, value):
    """A copy of a matrix given as nested lists, with entry [0][0] replaced."""
    return [[value] + rows[0][1:]] + rows[1:]


def _first_operator(name):
    return {"hamiltonian": [{"operator": name, "coefficient": {"kind": "constant", "c": 0.5}},
                            {"operator": "x2", "coefficient": {"kind": "constant", "c": 0.5}}]}


_OP_TERM = _first_operator("op.json")
_PSI_STATE = {"initial_state": {"kind": "coefficients_file", "path": "psi.json"}}
_OP_AT = "/hamiltonian/0/operator"
_PSI_AT = "/initial_state/path"

# (id, files to write next to the config: JSON values or raw bytes, config
#  overrides (None runs `plot` on summary.json instead of `simulate`),
#  exit code, stderr fragment naming the offending field or file)
_ERROR_CORPUS = [
    ("Lx_on_1d_basis", {}, _first_operator("Lx"), 1, _OP_AT),
    ("fourier_p2_on_1d_basis", {}, _first_operator("fourier_p2"), 1, _OP_AT),
    ("op_without_re", {"op.json": _edited(_x_file(8), re=None)}, _OP_TERM, 1, _OP_AT),
    ("op_re_not_numbers", {"op.json": _edited(_x_file(8), re="abc")}, _OP_TERM, 1, _OP_AT),
    ("op_is_an_array", {"op.json": [1, 2]}, _OP_TERM, 1, _OP_AT),
    ("op_hermitian_flag_violated", {"op.json": _edited(_x_file(8), re=np.eye(8, k=1).tolist())},
     _OP_TERM, 1, _OP_AT),
    ("op_bands_too_narrow", {"op.json": _edited(_x_file(8), raise_band=0)}, _OP_TERM, 1, _OP_AT),
    ("op_band_is_a_float", {"op.json": _edited(_x_file(8), raise_band=2.9)}, _OP_TERM, 1, _OP_AT),
    ("op_band_is_a_bool", {"op.json": _edited(_x_file(8), raise_band=True)}, _OP_TERM, 1, _OP_AT),
    ("op_re_element_is_a_string",
     {"op.json": _edited(_x_file(8), re=_first_entry(_x_file(8)["re"], "0"))},
     _OP_TERM, 1, _OP_AT),
    ("op_im_element_is_a_bool",
     {"op.json": _edited(_x_file(8), im=_first_entry(_x_file(8)["im"], False))},
     _OP_TERM, 1, _OP_AT),
    ("op_re_is_a_scalar",
     {"op.json": _edited(_x_file(8), re=0.5, raise_band=7, lower_band=7)}, _OP_TERM, 1, _OP_AT),
    ("op_im_is_a_scalar", {"op.json": _edited(_x_file(8), im=0)}, _OP_TERM, 1, _OP_AT),
    ("op_im_is_one_by_one", {"op.json": _edited(_x_file(8), im=[[0.0]])}, _OP_TERM, 1, _OP_AT),
    ("op_unknown_basis_kind",
     {"op.json": _edited(_x_file(8), basis={"kind": "laguerre", "size": 8})}, _OP_TERM, 1, _OP_AT),
    ("op_not_flagged_hermitian", {"op.json": _edited(_x_file(8), symmetry="none")}, _OP_TERM, 1,
     "/hamiltonian: term 'op.json'"),
    ("op_on_smaller_basis", {"op.json": _x_file(4)}, _OP_TERM, 1, _OP_AT),
    ("psi_without_im", {"psi.json": _edited(_psi_file(8), im=None)}, _PSI_STATE, 1, _PSI_AT),
    ("psi_on_smaller_basis", {"psi.json": _psi_file(4)}, _PSI_STATE, 1, _PSI_AT),
    ("psi_basis_size_is_a_string",
     {"psi.json": _edited(_psi_file(8), basis={"kind": "hermite1d_orthonormal", "size": "8"})},
     _PSI_STATE, 1, _PSI_AT),
    ("psi_re_element_is_a_string", {"psi.json": _edited(_psi_file(8), re=["1.0"] + [0] * 7)},
     _PSI_STATE, 1, _PSI_AT),
    ("psi_im_element_is_a_bool", {"psi.json": _edited(_psi_file(8), im=[True] + [0] * 7)},
     _PSI_STATE, 1, _PSI_AT),
    ("psi_zero_vector", {"psi.json": _edited(_psi_file(8), re=[0.0] * 8)}, _PSI_STATE, 1, _PSI_AT),
    ("psi_norm_overflows", {"psi.json": _edited(_psi_file(8), re=[1e200] * 8)}, _PSI_STATE, 1,
     _PSI_AT),
    ("coherent_amplitudes_underflow", {}, {"initial_state": {"kind": "coherent", "alpha": 40}},
     1, "/initial_state/alpha"),
    ("coherent_alpha_overflows", {}, {"initial_state": {"kind": "coherent", "alpha": 1e200}},
     1, "/initial_state/alpha"),
    ("op_not_utf8", {"op.json": b"\xff\xfe" + json.dumps(_x_file(8)).encode()}, _OP_TERM, 3,
     "op.json"),
    ("summary_not_utf8", {"summary.json": b'\xff{"files": {}}'}, None, 3, "summary.json"),
    ("mu_level_norm_overflows", {}, {"reduction": {"mu": -1e308, "dt_reduced": 1e-3}}, 1,
     "/reduction/mu"),
    ("mu_level_norm_below_zero_floor", {}, {"reduction": {"mu": -1e-30, "dt_reduced": 1e-3}}, 1,
     "/reduction/mu"),
    ("integer_dt_beyond_float_range", {}, {"integrator": {"method": "exact_eig", "dt": 10**400}},
     1, "/integrator/dt"),
    ("basis_too_large_to_allocate", {}, {"basis": {"kind": "hermite1d_orthonormal",
                                                   "size": 10**6}}, 1, "/basis/size"),
]


@pytest.mark.parametrize("files,overrides,code,fragment",
                         [case[1:] for case in _ERROR_CORPUS],
                         ids=[case[0] for case in _ERROR_CORPUS])
def test_error_contract_corpus(tmp_path, files, overrides, code, fragment):
    """Each bad input a config can name exits with its documented code, names
    the field or file at fault, prints no traceback or warning and writes
    nothing."""
    for name, content in files.items():
        raw = content if isinstance(content, bytes) else json.dumps(content).encode()
        (tmp_path / name).write_bytes(raw)
    if overrides is None:
        argv = ["plot", "--summary", str(tmp_path / "summary.json")]
    else:
        config_path = _write_config(tmp_path, _base_config(**overrides))
        argv = ["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")]
    before = sorted(tmp_path.iterdir())
    proc = _run_cli(*argv)
    assert proc.returncode == code, proc.stderr
    assert fragment in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert sorted(tmp_path.iterdir()) == before


def test_coefficients_file_of_strings_and_bools_is_1(tmp_path):
    """A coefficients file whose re array holds a string and a bool exits 1
    at the file's pointer instead of reading them as 1.0."""
    psi = _edited(_psi_file(4), re=["1.0", True, 0, 0])
    (tmp_path / "psi.json").write_text(json.dumps(psi), encoding="utf-8")
    cfg = _base_config(basis={"kind": "hermite1d_orthonormal", "size": 4}, **_PSI_STATE)
    proc = _run_cli("simulate", "--config", str(_write_config(tmp_path, cfg)),
                    "--out", str(tmp_path / "o"))
    assert proc.returncode == 1, proc.stderr
    assert _PSI_AT in proc.stderr and "re element must be a number, got str" in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert not (tmp_path / "o").exists()


def _stepping_config(method="magnus2", dt=0.1, t1=1.0, coefficient=None):
    cfg = _base_config(integrator={"method": method, "dt": dt},
                       time={"t0": 0.0, "t1": t1, "stride": 1})
    cfg["hamiltonian"] = [{"operator": "x2",
                           "coefficient": coefficient or {"kind": "constant", "c": 0.5}}]
    return cfg


# (id, config, stderr fragment); every one must stop before it writes anything
_STEPPING_ESCAPES = [
    ("magnus2_step_overflows", _stepping_config("magnus2", 1e308, 1.5e308), "magnus2 step"),
    ("exact_eig_step_overflows", _stepping_config("exact_eig", 1e308, 1.5e308), "exact_eig step"),
    ("cayley2_step_overflows", _stepping_config("cayley2", 1e308, 1.5e308), "cayley2 step"),
    ("sinusoid_argument_overflows",
     _stepping_config(t1=3.0, coefficient={"kind": "sinusoid", "a": 1.0, "omega": 1e308}),
     "sinusoid argument"),
    ("grid_beyond_max_steps", _stepping_config(dt=1e-3, t1=1e300), "MAX_STEPS"),
]


@pytest.mark.parametrize("cfg,fragment", [case[1:] for case in _STEPPING_ESCAPES],
                         ids=[case[0] for case in _STEPPING_ESCAPES])
def test_stepping_escapes_are_numeric_errors(tmp_path, cfg, fragment):
    """Overflow inside any integrator's step, a sinusoid whose argument is
    not finite and a grid above MAX_STEPS all exit 2 with one clean line."""
    config_path = _write_config(tmp_path, cfg)
    proc = _run_cli("simulate", "--config", str(config_path), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("numeric error:") and fragment in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,method", [("simulate", "magnus2"), ("simulate", "exact_eig"),
                                            ("simulate", "cayley2"), ("reduce", "magnus2")])
def test_a_term_that_passes_its_flag_check_is_not_checked_again(tmp_path, command, method):
    """An operator file that passes its relative flag check at build time
    (max entry 155, one entry 1.5e-10 off Hermitian) runs under every
    integrator and under reduce: no step re-checks H(t) under another rule."""
    op = OperatorMatrix(BasisSpec.hermite(8), oracles.nearly_hermitian_matrix(), "hermitian", 7, 7)
    (tmp_path / "op.json").write_text(json.dumps(op.to_json_dict()), encoding="utf-8")
    cfg = _base_config(
        hamiltonian=[{"operator": "op.json", "coefficient": {"kind": "constant", "c": 1.0}}],
        integrator={"method": method, "dt": 1e-3}, time={"t0": 0.0, "t1": 0.1, "stride": 10},
        reduction={"mu": -0.5, "dt_reduced": 1e-3})
    out = tmp_path / "o"
    proc = _run_cli(command, "--config", str(_write_config(tmp_path, cfg)), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert summary["records"] == 11 and summary["max_norm_drift"] <= 1e-12


@pytest.mark.parametrize("summary", [[1], {"files": 3}, {"files": {"trajectory_csv": 5}}],
                         ids=["array", "files_not_object", "file_name_not_string"])
def test_malformed_summary_is_1(tmp_path, summary):
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(summary), encoding="utf-8")
    proc = _run_cli("plot", "--summary", str(path))
    assert proc.returncode == 1, proc.stderr
    assert "summary.json" in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert sorted(tmp_path.iterdir()) == [path]


# (id, suite, size, seed, stderr fragment)
_BAD_VERIFY_ARGS = [
    ("all_size_0", "all", 0, 1, "--size >= 1"),
    ("operators_size_10", "operators", 10, 1, "--size >= 11"),
    ("dynamics_size_2", "dynamics", 2, 1, "--size >= 3"),
    ("seed_-1", "symplectic", 4, -1, "--seed"),
    ("size_too_large_to_allocate", "symplectic", 10**11, 1, "--size 100000000000 is too large"),
]


@pytest.mark.parametrize("suite,size,seed,fragment", [case[1:] for case in _BAD_VERIFY_ARGS],
                         ids=[case[0] for case in _BAD_VERIFY_ARGS])
def test_bad_verify_size_or_seed_is_1(tmp_path, suite, size, seed, fragment):
    """A --size below a suite's minimum or a negative --seed exits 1 with one
    line on stderr and writes no report."""
    proc = _run_cli("verify", "--suite", suite, "--size", str(size), "--seed", str(seed),
                    "--out", str(tmp_path / "report.json"))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.count("\n") == 1 and fragment in proc.stderr
    assert not any(tmp_path.iterdir())
