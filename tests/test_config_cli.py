"""Config schema, scenario construction, file outputs, and CLI exit codes."""

import ast
import copy
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import geoschro.cli as cli
import oracles
from geoschro import config as config_module
from geoschro import dynamics, reduction
from geoschro.config import (
    build_hamiltonian,
    build_initial_state,
    parse_config,
    parse_config_dict,
)
from geoschro.errors import MissingInput, ParseError, SchemaError, UnknownOperator, quoted_path
from geoschro.hilbert import BasisSpec, StateVector
from geoschro.operators import OperatorMatrix, build_named
from geoschro.reduction import paired_records
from geoschro.serialize import emit_plot_script, json_numbers
from geoschro.tolerances import DEFAULT, Tolerances, parse_overrides

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
        op_path.write_text(json.dumps(oracles.operator_json(build_named("x", basis))),
                           encoding="utf-8")
        cfg = _base_config()
        cfg["hamiltonian"].append(
            {"operator": "custom_x.json", "coefficient": {"kind": "sinusoid", "a": 0.1, "omega": 1.0}})
        config = parse_config(_write_config(tmp_path, cfg))
        H = build_hamiltonian(config)
        assert len(H.terms) == 3
        assert not H.is_autonomous
        assert np.array_equal(H.terms[2][1].matrix, build_named("x", basis).matrix)

    def test_an_operator_named_twice_is_built_once(self, monkeypatch):
        """driven_oscillator names x2 in two terms: p2 and x2 are built and
        checked once each, and both x2 terms hold the one matrix."""
        built, check = [], OperatorMatrix.__post_init__

        def counted(self, tol):
            built.append(self)
            check(self, tol)

        monkeypatch.setattr(OperatorMatrix, "__post_init__", counted)
        H = build_hamiltonian(parse_config(REPO / "configs" / "driven_oscillator.json"))
        assert [label for _, _, label in H.terms] == ["p2", "x2", "x2"]
        assert len(built) == 2 and H.terms[1][1] is H.terms[2][1] is built[1]

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
        *_, residuals = paired_records(build_hamiltonian(config), build_initial_state(config),
                                       config.reduction.mu, config.integrator,
                                       config.reduction.dt_reduced, config.time.t0,
                                       config.time.t1, stride=config.time.stride)
        lines = (out / "rays.csv").read_text().splitlines()
        assert lines[0].split(",")[-1] == "fs_residual"
        assert [float(line.split(",")[-1]) for line in lines[1:]] == residuals

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
        """A simulate or reduce run of one record drifts by exactly 0.0, and
        its final entry is that record."""
        cfg = _base_config(time={"t0": 0.0, "t1": 0.0},
                           reduction={"mu": -0.5, "dt_reduced": 0.1})
        config_path = _write_config(tmp_path, cfg)
        for command in ("simulate", "reduce"):
            out = tmp_path / command
            assert cli.main([command, "--config", str(config_path), "--out", str(out)]) == 0
            summary = json.loads((out / "summary.json").read_text())
            assert summary["records"] == 1
            assert summary["max_norm_drift"] == summary["max_J_drift"] == 0.0
            [record] = map(json.loads, (out / "trajectory.jsonl").read_text().splitlines())
            assert summary["final"] == record
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
        # whose P is no longer near a projector stops the flow, long before
        # it overflows or numpy warns about it
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
        assert "projector idempotency drift" in proc.stderr
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
        for override in ("nonsense=1", "unitarity=1e-12", "hermiticity=1e-8",
                         "skew_check=1e-10", "imag_part=1e-13", "eig_residual=nan",
                         "eig_residual=-1", "eig_residual=inf", "eig_residual=1e400",
                         "phase=tiny"):
            assert cli.main(["verify", "--suite", "symplectic", "--size", "8", "--seed", "1",
                             "--tol", override, "--out", str(tmp_path / "r.json")]) == 1
        assert not (tmp_path / "r.json").exists()

    def test_tol_override_accepts_finite_non_negative_values(self):
        tol = parse_overrides(["eig_residual=0", " phase = 1e-4"])
        assert tol == DEFAULT.replace(eig_residual=0.0, phase=1e-4)
        assert parse_overrides([]) == DEFAULT

    def test_a_removed_symmetry_key_is_one_stderr_line(self, tmp_path):
        proc = _run_cli("verify", "--suite", "symplectic", "--size", "8", "--seed", "1",
                        "--tol", "hermiticity=1e-8", "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1 and "'hermiticity'" in proc.stderr
        assert not (tmp_path / "r.json").exists()

    def test_every_tolerance_reaches_the_code(self):
        """Each Tolerances field is read as an attribute somewhere in the
        package outside tolerances.py, so no --tol key can stop reaching a
        gate unnoticed."""
        read = set()
        for path in (REPO / "src" / "geoschro").glob("*.py"):
            if path.name != "tolerances.py":
                tree = ast.parse(path.read_text(encoding="utf-8"))
                read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        fields = [f.name for f in dataclasses.fields(Tolerances)]
        assert len(fields) == 10
        assert [name for name in fields if name not in read] == []


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
    return oracles.operator_json(build_named("x", BasisSpec.hermite(size)))


def _psi_file(size):
    """The coefficients file of basis vector 0 on the Hermite basis of this size."""
    return StateVector(BasisSpec.hermite(size), np.eye(size)[0]).to_json_dict()


def _first_entry(rows, value):
    """A copy of a matrix given as nested lists, with entry [0][0] replaced."""
    return [[value] + rows[0][1:]] + rows[1:]


def _nested(value, depth):
    """value wrapped in depth one-element arrays."""
    for _ in range(depth):
        value = [value]
    return value


def _coefficient(coefficient):
    return {"hamiltonian": [{"operator": "x2", "coefficient": coefficient}]}


def _table_term(points):
    return _coefficient({"kind": "table", "points": points})


def _first_operator(name):
    return {"hamiltonian": [{"operator": name, "coefficient": {"kind": "constant", "c": 0.5}},
                            {"operator": "x2", "coefficient": {"kind": "constant", "c": 0.5}}]}


_OP_TERM = _first_operator("op.json")
_PSI_STATE = {"initial_state": {"kind": "coefficients_file", "path": "psi.json"}}
_OP_AT = "/hamiltonian/0/operator"
_PSI_AT = "/initial_state/path"
_POINTS_AT = "/hamiltonian/0/coefficient/points"
_TOO_DEEP = b"[" * 10 ** 5  # deeper than the JSON decoder's recursion allows
_NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


def _missing(name, reason):
    """The whole stderr line of a MissingInput for the file ``name`` in the
    directory of the config, given that directory."""
    return lambda d: f"error: missing input file: {quoted_path(d / name)}: {reason}\n"


# (id, files to write next to the config: JSON values or raw bytes, config
#  overrides (None runs `plot` on summary.json instead of `simulate`),
#  exit code, stderr fragment naming the offending field or file, or the
#  whole stderr line as a function of the directory the files are in)
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
    ("psi_norm_below_zero_floor", {"psi.json": _edited(_psi_file(8), re=[1e-20] + [0] * 7)},
     _PSI_STATE, 1, _PSI_AT),
    ("psi_norm_overflows", {"psi.json": _edited(_psi_file(8), re=[1e200] * 8)}, _PSI_STATE, 1,
     _PSI_AT),
    ("coherent_amplitudes_underflow", {}, {"initial_state": {"kind": "coherent", "alpha": 40}},
     1, "/initial_state/alpha"),
    ("coherent_alpha_overflows", {}, {"initial_state": {"kind": "coherent", "alpha": 1e200}},
     1, "/initial_state/alpha"),
    ("op_not_utf8", {"op.json": b"\xff\xfe" + json.dumps(_x_file(8)).encode()}, _OP_TERM, 3,
     _missing("op.json", _NOT_UTF8)),
    ("summary_not_utf8", {"summary.json": b'\xff{"files": {}}'}, None, 3,
     _missing("summary.json", _NOT_UTF8)),
    ("mu_level_norm_overflows", {}, {"reduction": {"mu": -1e308, "dt_reduced": 1e-3}}, 1,
     "/reduction/mu"),
    ("mu_level_norm_below_zero_floor", {}, {"reduction": {"mu": -1e-30, "dt_reduced": 1e-3}}, 1,
     "/reduction/mu"),
    ("integer_dt_beyond_float_range", {}, {"integrator": {"method": "exact_eig", "dt": 10**400}},
     1, "/integrator/dt"),
    ("basis_too_large_to_allocate", {}, {"basis": {"kind": "hermite1d_orthonormal",
                                                   "size": 10**6}}, 1, "/basis/size"),
    ("points_ragged", {}, _table_term([[0.0, 1.0], [1.0]]), 1, _POINTS_AT),
    ("points_hold_a_string", {}, _table_term([[0.0, 1.0], [1.0, "2"]]), 1,
     f"{_POINTS_AT}: points element must be a number, got str"),
    ("points_nested_70_deep", {}, _table_term(_nested([0.0, 1.0], 69)), 1, _POINTS_AT),
    ("op_re_nested_33_deep", {"op.json": _edited(_x_file(8), re=_nested(0.0, 33))}, _OP_TERM, 1,
     _OP_AT),
    ("op_re_nested_70_deep", {"op.json": _edited(_x_file(8), re=_nested(0.0, 70))}, _OP_TERM, 1,
     _OP_AT),
    ("psi_re_nested_33_deep", {"psi.json": _edited(_psi_file(8), re=_nested(1.0, 33))},
     _PSI_STATE, 1, _PSI_AT),
    ("psi_re_nested_70_deep", {"psi.json": _edited(_psi_file(8), re=_nested(1.0, 70))},
     _PSI_STATE, 1, _PSI_AT),
    ("op_nested_too_deep_to_decode", {"op.json": _TOO_DEEP}, _OP_TERM, 1, "op.json"),
    ("summary_nested_too_deep_to_decode", {"summary.json": _TOO_DEEP}, None, 1, "summary.json"),
    ("points_triples", {}, _table_term([[0, 1, 2], [1, 2, 3]]), 1, f"{_POINTS_AT}: "),
    ("points_flat", {}, _table_term([0, 1]), 1, f"{_POINTS_AT}: "),
    ("coeffs_of_lists", {}, _coefficient({"kind": "polynomial", "coeffs": [[1.0, 2.0]]}), 1,
     "/hamiltonian/0/coefficient/coeffs: "),
    ("c_is_a_list", {}, _coefficient({"kind": "constant", "c": [0.5]}), 1,
     "/hamiltonian/0/coefficient/c: "),
    ("basis_kind_900_deep", {}, {"basis": {"kind": _nested(0, 900), "size": 8}}, 1,
     "/basis/kind: "),
    ("method_900_deep", {}, {"integrator": {"method": _nested(0, 900), "dt": 0.1}}, 1,
     "/integrator/method: "),
    ("initial_state_kind_900_deep", {}, {"initial_state": {"kind": _nested(0, 900)}}, 1,
     "/initial_state/kind: "),
    ("coefficient_kind_900_deep", {}, _coefficient({"kind": _nested(0, 900)}), 1,
     "/hamiltonian/0/coefficient/kind: "),
    ("unknown_operator", {}, _first_operator("foo"), 1, f"{_OP_AT}: unknown operator 'foo'"),
    ("unknown_operator_5000_long", {}, _first_operator("f" * 5000), 1, f"{_OP_AT}: "),
    ("op_file_name_too_long", {}, _first_operator("f" * 5000 + ".json"), 3,
     _missing("f" * 5000 + ".json", "File name too long")),
    ("op_basis_kind_5000_long",
     {"op.json": _edited(_x_file(8), basis={"kind": "k" * 5000, "size": 8})}, _OP_TERM, 1,
     f"{_OP_AT}: "),
    ("op_symmetry_900_deep", {"op.json": _edited(_x_file(8), symmetry=_nested(0, 900))},
     _OP_TERM, 1, f"{_OP_AT}: "),
    ("psi_basis_kind_900_deep",
     {"psi.json": _edited(_psi_file(8), basis={"kind": _nested(0, 900), "size": 8})},
     _PSI_STATE, 1, f"{_PSI_AT}: "),
]


@pytest.mark.parametrize("files,overrides,code,fragment",
                         [case[1:] for case in _ERROR_CORPUS],
                         ids=[case[0] for case in _ERROR_CORPUS])
def test_error_contract_corpus(tmp_path, files, overrides, code, fragment):
    """Each bad input a config can name exits with its documented code, names
    the field or file at fault in one stderr line of at most 200 characters,
    prints no traceback or warning and writes nothing."""
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
    if callable(fragment):
        assert proc.stderr == fragment(tmp_path)
    else:
        assert fragment in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert len(proc.stderr.rstrip("\n")) <= 200
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert sorted(tmp_path.iterdir()) == before


def test_json_numbers_walks_any_depth():
    """The leaf check keeps its own stack: 5,000 levels are numpy's ValueError
    for too many dimensions, or the TypeError of a bad leaf, never a
    RecursionError."""
    with pytest.raises(ValueError, match="dimension"):
        json_numbers(_nested(0.0, 5000), "re")
    with pytest.raises(TypeError, match="re element must be a number, got str"):
        json_numbers(_nested("0", 5000), "re")
    assert json_numbers(_nested(2.5, 3), "re").shape == (1, 1, 1)


def test_config_nested_too_deep_to_decode_is_1(tmp_path):
    """A config nested deeper than the JSON decoder allows is one stderr line
    naming the file, not a RecursionError traceback."""
    config_path = tmp_path / "config.json"
    config_path.write_bytes(_TOO_DEEP)
    proc = _run_cli("simulate", "--config", str(config_path), "--out", str(tmp_path / "o"))
    assert proc.returncode == 1, proc.stderr
    assert "config.json" in proc.stderr and len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


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


def test_a_failed_run_leaves_the_output_directory_as_it_was(tmp_path, monkeypatch, capsys):
    """The sinusoid overflow stops the run at t=1.8, after 18 records have
    streamed into the stage: the old trajectory.jsonl keeps its bytes and
    no stage is left behind."""
    cfg = next(c for name, c, _ in _STEPPING_ESCAPES if name == "sinusoid_argument_overflows")
    out = tmp_path / "o"
    out.mkdir()
    old = b'{"t":0.0,"norm":1.0}\n'
    (out / "trajectory.jsonl").write_bytes(old)
    streamed = []

    class Counting(cli.TrajectoryWriter):
        def __call__(self, r):
            streamed.append(r.t)
            super().__call__(r)

    monkeypatch.setattr(cli, "TrajectoryWriter", Counting)
    argv = ["simulate", "--config", str(_write_config(tmp_path, cfg)), "--out", str(out)]
    assert cli.main(argv) == 2
    assert "sinusoid argument" in capsys.readouterr().err
    assert len(streamed) == 18
    assert [p.name for p in out.iterdir()] == ["trajectory.jsonl"]
    assert (out / "trajectory.jsonl").read_bytes() == old


def test_an_interrupted_run_removes_the_directories_it_made(tmp_path, monkeypatch):
    """An interrupt after five streamed records leaves neither the stage
    nor the two directories that --out a/b made."""
    records = []

    def interrupted(*args, sink, **kwargs):
        def stop_after_five(r):
            sink(r)
            records.append(r)
            if len(records) == 5:
                raise KeyboardInterrupt
        return dynamics.propagate(*args, sink=stop_after_five, **kwargs)

    monkeypatch.setattr(cli, "propagate", interrupted)
    config = _write_config(tmp_path, _base_config(integrator={"method": "magnus2", "dt": 0.1}))
    with pytest.raises(KeyboardInterrupt):
        cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "a" / "b")])
    assert len(records) == 5
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("command,module,name", [
    ("simulate", config_module, "build_named"),    # building H
    ("simulate", dynamics, "apply_exp_step"),      # the unitary floor
    ("reduce", reduction, "projector_of"),         # the projector floor
    ("reduce", cli, "write_summary"),              # writing
], ids=["build", "upstairs", "downstairs", "writing"])
def test_an_allocation_that_fails_anywhere_in_a_run_is_too_large(tmp_path, monkeypatch, capsys,
                                                                   command, module, name):
    """A MemoryError in any phase of a run is the one-line /basis/size error
    (exit 1), and --out is left as it was."""
    def fails(*args, **kwargs):
        raise MemoryError("Unable to allocate 64.0 MiB for an array with shape (2048, 2048)")

    out = tmp_path / "o"
    out.mkdir()
    old = b'{"t":0.0,"norm":1.0}\n'
    (out / "trajectory.jsonl").write_bytes(old)
    monkeypatch.setattr(module, name, fails)
    config = _write_config(tmp_path, TestReducePipeline()._reduce_config())
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: /basis/size: size 8 is too large: Unable to allocate 64.0 MiB for an array"
        " with shape (2048, 2048)"]
    assert [p.name for p in out.iterdir()] == ["trajectory.jsonl"]
    assert (out / "trajectory.jsonl").read_bytes() == old


def test_simulate_memory_does_not_grow_with_the_record_count(tmp_path):
    """Coefficients at stride 1 and N = 64 flush every 1,024 records:
    doubling 2,501 records to 5,001 moves the traced peak of run_simulate by
    under 5%.  Holding every record until the end, it grew by 70%."""
    def config(t1):
        return parse_config_dict(_base_config(
            basis={"kind": "hermite1d_orthonormal", "size": 64},
            initial_state={"kind": "coherent", "alpha": 0.5},
            integrator={"method": "exact_eig", "dt": 0.004},
            time={"t0": 0.0, "t1": t1, "stride": 1},
            outputs={"coefficients": True, "diagnostics": False}), tmp_path)

    def peak(t1):
        tracemalloc.start()
        try:
            records = cli.run_simulate(config(t1), tmp_path / f"o{t1}")["records"]
            return records, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    cli.run_simulate(config(0.1), tmp_path / "warm")  # floatrepr builds its tables on first use
    (n1, peak1), (n2, peak2) = peak(10.0), peak(20.0)
    assert (n1, n2) == (2501, 5001)
    assert peak2 < 1.05 * peak1


@pytest.mark.parametrize("command,method", [("simulate", "magnus2"), ("simulate", "exact_eig"),
                                            ("simulate", "cayley2"), ("reduce", "magnus2")])
def test_a_term_that_passes_its_flag_check_is_not_checked_again(tmp_path, command, method):
    """An operator file that passes its relative flag check at build time
    (max entry 155, one entry 1.5e-10 off Hermitian) runs under every
    integrator and under reduce: no step re-checks H(t) under another rule."""
    op = OperatorMatrix(BasisSpec.hermite(8), oracles.nearly_hermitian_matrix(), "hermitian", 7, 7)
    (tmp_path / "op.json").write_text(json.dumps(oracles.operator_json(op)), encoding="utf-8")
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


def test_malformed_summary_deep_in_long_directories_is_one_short_line(tmp_path):
    """A summary eight directories deep, each name 200 characters long, is
    quoted cut in the middle: one stderr line of at most 200 characters."""
    where = tmp_path.joinpath(*(c * 200 for c in "abcdefgh"))
    where.mkdir(parents=True)
    path = where / "summary.json"
    path.write_text("[1, 2]", encoding="utf-8")
    proc = _run_cli("plot", "--summary", str(path))
    assert proc.returncode == 1, proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and len(proc.stderr.rstrip("\n")) <= 200
    assert "summary.json" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("name", ['a.csv"\nprint "INJECTED"\n#', "a\\b.csv", "a\tb.csv"],
                         ids=["quote_and_newlines", "backslash", "tab"])
def test_csv_name_a_gnuplot_string_cannot_hold_is_1(tmp_path, name):
    """plot.gp pastes each CSV name into a double-quoted gnuplot string; a
    name holding a quote, a backslash or a control character would not
    stay inside it, so plot refuses it, existing file or not, and writes
    nothing."""
    (tmp_path / name).write_text("# t,norm,norm_drift,J,energy\n", encoding="utf-8")
    path = tmp_path / "summary.json"
    path.write_text(json.dumps({"files": {"trajectory_csv": name}}), encoding="utf-8")
    proc = _run_cli("plot", "--summary", str(path))
    assert proc.returncode == 1, proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and "trajectory_csv" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "plot.gp").exists()


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
