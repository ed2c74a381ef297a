"""scripts/run_golden.py: the golden runner and its --compare exit code."""

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("run_golden", REPO / "scripts" / "run_golden.py")
run_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_golden)


def _tree(root: Path, files: dict) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


def test_compare_is_true_only_for_identical_trees(tmp_path, capsys):
    files = {"a/summary.json": '{"drift": 1.5e-14}\n', "a/plot.gp": "plot 1\n"}
    ref = _tree(tmp_path / "ref", files)
    assert run_golden.compare(_tree(tmp_path / "same", files), ref)
    assert capsys.readouterr().out.count("byte-identical") == 2

    moved = _tree(tmp_path / "moved", {**files, "a/summary.json": '{"drift": 2.5e-14}\n'})
    assert not run_golden.compare(moved, ref)
    assert "a/summary.json: max abs numeric difference 1.000e-14" in capsys.readouterr().out

    extra = _tree(tmp_path / "extra", {**files, "b/rays.csv": "0.0\n"})
    assert not run_golden.compare(extra, ref)
    assert not run_golden.compare(ref, extra)
    assert "b/rays.csv: only under" in capsys.readouterr().out


def test_main_exits_1_when_an_output_differs(tmp_path):
    config = {
        "basis": {"kind": "hermite1d_orthonormal", "size": 6},
        "hamiltonian": [{"operator": "x2", "coefficient": {"kind": "constant", "c": 0.5}}],
        "initial_state": {"kind": "basis_vector", "index": 1},
        "integrator": {"method": "exact_eig", "dt": 0.1},
        "time": {"t0": 0.0, "t1": 0.3},
    }
    configs = tmp_path / "configs"
    configs.mkdir()
    (configs / "tiny.json").write_text(json.dumps(config), encoding="utf-8")
    ref, out = tmp_path / "ref", tmp_path / "out"
    assert run_golden.main(["--configs", str(configs), "--out", str(ref)]) == 0
    args = ["--configs", str(configs), "--out", str(out), "--compare", str(ref)]
    assert run_golden.main(args) == 0
    (ref / "tiny" / "plot.gp").unlink()
    assert run_golden.main(args) == 1
