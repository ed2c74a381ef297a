"""Smoke runs of scripts/convergence_scan.py and scripts/reduction_demo.py, and
the pair statistics of scripts/bench.py."""

import importlib.util
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _script(name):
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("extra", [[], ["--driven"]], ids=["autonomous", "driven"])
def test_convergence_scan_sees_second_order_cayley2(capsys, extra):
    assert _script("convergence_scan").main(["--size", "8", "--levels", "2", *extra]) == 0
    cayley2 = capsys.readouterr().out.split("cayley2:")[1]
    orders = [float(v) for v in re.findall(r"order\s+(-?[\d.]+)", cayley2)]
    assert len(orders) == 1 and abs(orders[0] - 2.0) < 0.1


def test_reduction_demo_residual_falls_between_levels(capsys):
    assert _script("reduction_demo").main(["--size", "8", "--levels", "2"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    residuals = [float(row[1]) for row in rows]
    assert len(residuals) == 2 and 0.0 < residuals[1] < residuals[0]


def test_pair_stats_medians_quartiles_and_wins():
    bench = _script("bench")
    base = [10.0, 10.4, 9.8, 10.2, 10.1, 9.9, 10.3, 10.0, 10.2, 10.1]
    change = [9.0, 9.1, 9.7, 9.2, 9.0, 8.9, 10.3, 9.1, 9.2, 9.0]
    st = bench.pair_stats(base, change)
    assert (st["pairs"], st["wins"], st["ties"]) == (10, 9, 1)  # the tie counts for neither
    assert st["base"] == pytest.approx({"median": 10.1, "q1": 10.0, "q3": 10.2})
    assert st["change"] == pytest.approx({"median": 9.1, "q1": 9.0, "q3": 9.2})
    assert st["gap"] == pytest.approx(1.0) and st["base_iqr"] == pytest.approx(0.2)
    assert st["holds"]


def test_pair_stats_needs_nine_tenths_of_wins_and_a_gap_past_the_spread():
    bench = _script("bench")
    base = [10.0, 10.4, 9.8, 10.2, 10.1, 9.9, 10.3, 10.0, 10.2, 10.1]
    eight = [9.0, 9.1, 9.7, 9.2, 9.0, 8.9, 10.4, 9.1, 10.3, 9.0]
    st = bench.pair_stats(base, eight)
    assert st["wins"] == 8 and not st["holds"]
    narrow = [b - 0.1 for b in base]  # wins every pair, by less than the base IQR
    st = bench.pair_stats(base, narrow)
    assert st["wins"] == 10 and st["gap"] < st["base_iqr"] and not st["holds"]
    with pytest.raises(ValueError):
        bench.pair_stats(base, narrow[:-1])


def test_pairs_alternate_which_side_runs_first(monkeypatch, capsys, tmp_path):
    bench = _script("bench")
    calls = []

    def fake_run(workload, seed, seconds, trace, root):
        calls.append(root)
        value = 2.0 if root == tmp_path else 1.0
        return {"correct": True, "metrics": {"run_s": {"value": value}}}, {"env": {}}

    monkeypatch.setattr(bench, "run_once", fake_run)
    assert bench.run_pairs(4, tmp_path, "golden_cli", 1, 15) == 0
    assert calls == [tmp_path, bench.REPO, bench.REPO, tmp_path] * 2
    out = capsys.readouterr().out
    assert "change wins 4 of 4 (ties 0)" in out
    assert '"holds": true' in out.splitlines()[-1]
