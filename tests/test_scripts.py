"""Smoke runs of scripts/convergence_scan.py and scripts/reduction_demo.py."""

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
