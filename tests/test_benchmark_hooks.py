"""The traced benchmark run (perfbench/traced.py) wraps geoschro functions by
name and reads the step-grid arguments of the two grid roots; a rename here
would break it, so the names it binds are checked against the package."""

import functools
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from oracles import random_state
from geoschro import cli, dynamics, reduction
from geoschro.dynamics import IntegratorSpec, oscillator_hamiltonian
from geoschro.reduction import ray_of

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def _load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines the hooks; install() runs only in main()
    return module


def test_every_wrapped_name_exists():
    traced = _load_traced()
    for module, attr, _ in traced.FUNCTIONS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    for cls, attr, _ in traced.METHODS:
        assert callable(getattr(cls, attr, None)), f"{cls.__name__}.{attr}"
    assert callable(getattr(dynamics, "_step_operators", None))


def test_every_wrapped_name_is_called_by_some_command(tmp_path, monkeypatch, capsys):
    """simulate with coefficients, reduce, plot and a small verify call every
    function and method the traced run wraps, so no layer of the benchmark
    can read zero because the program stopped calling what it wraps."""
    traced = _load_traced()
    calls = Counter()

    def counting(key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for cls, attr, _ in traced.METHODS:
        monkeypatch.setattr(cls, attr, counting(f"{cls.__name__}.{attr}", getattr(cls, attr)))
    bound = []
    try:
        for module, attr, _ in traced.FUNCTIONS:
            original = getattr(module, attr)
            wrapper = counting(f"{module.__name__}.{attr}", original)
            assert traced._rebind(original, wrapper) > 0
            bound.append((wrapper, original))
        cfg = {
            "basis": {"kind": "hermite1d_orthonormal", "size": 6},
            "hamiltonian": [
                {"operator": "p2", "coefficient": {"kind": "constant", "c": 0.5}},
                {"operator": "x2", "coefficient": {"kind": "sinusoid", "a": 0.5, "omega": 1.0}},
            ],
            "initial_state": {"kind": "coherent", "alpha": [0.5, 0.2]},
            "integrator": {"method": "magnus2", "dt": 0.05},
            "time": {"t0": 0.0, "t1": 0.2, "stride": 2},
            "reduction": {"mu": -0.5, "dt_reduced": 0.05},
            "outputs": {"coefficients": True},
        }
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        for command in ("simulate", "reduce"):
            argv = [command, "--config", str(config), "--out", str(tmp_path / command)]
            assert cli.main(argv) == 0
        assert cli.main(["plot", "--summary", str(tmp_path / "reduce" / "summary.json")]) == 0
        assert cli.main(["verify", "--suite", "symplectic", "--size", "4", "--seed", "1",
                         "--out", str(tmp_path / "report.json")]) == 0
    finally:
        for wrapper, original in reversed(bound):
            traced._rebind(wrapper, original)
    capsys.readouterr()
    wrapped = [f"{m.__name__}.{a}" for m, a, _ in traced.FUNCTIONS]
    wrapped += [f"{c.__name__}.{a}" for c, a, _ in traced.METHODS]
    assert [key for key in wrapped if calls[key] == 0] == []


def test_grid_roots_bind_the_arguments_the_hooks_read():
    traced = _load_traced()
    rec = traced.Recorder()
    H = oscillator_hamiltonian(4, drive=0.1)
    psi = random_state(4, 0)
    rec.wrap("dynamics.propagate", dynamics.propagate)(
        H, psi, IntegratorSpec("magnus2", 0.1), 0.0, 0.2, stride=2)
    rec.wrap("reduction.propagate", reduction.reduced_propagate)(
        H, ray_of(psi), 0.1, 0.0, 0.2, record_times=[0.0, 0.2])
    assert [grid for _, grid in rec.grids] == [
        {"kind": "propagate", "method": "magnus2", "dt": 0.1, "t0": 0.0, "t1": 0.2, "stride": 2},
        {"kind": "reduced", "dt": 0.1, "t0": 0.0, "t1": 0.2, "stride": 1,
         "reproject_every": 100, "record_times": [0.0, 0.2]},
    ]


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", TRACED.parent / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def _traced_run(spans, tmp_path, command, cfg):
    """The spans of one traced CLI run of ``cfg``, read by the ``spans`` module."""
    run = tmp_path / f"{command}_{cfg['integrator']['method']}"
    run.mkdir()
    config = run / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    spans_path = run / "spans.npz"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(TRACED.parent.parent / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(TRACED), str(spans_path), "--", command,
                           "--config", str(config), "--out", str(run / "out")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return spans.load(spans_path)


def test_traced_reduce_meets_the_count_rule(tmp_path):
    """Traced runs show exactly the calls spans.predict expects below each
    grid root: a reduce run long enough to re-project (one eigendecomposition
    per dominant_ray, one drift measurement per RK4 step), and a simulate run
    under each integrator."""
    cfg = {
        "basis": {"kind": "hermite1d_orthonormal", "size": 8},
        "hamiltonian": [
            {"operator": "p2", "coefficient": {"kind": "constant", "c": 0.5}},
            {"operator": "x2", "coefficient": {"kind": "constant", "c": 0.5}},
            {"operator": "x2",
             "coefficient": {"kind": "sinusoid", "a": 0.05, "omega": 1.0, "phase": 0.0}},
        ],
        "initial_state": {"kind": "coherent", "alpha": [0.5, 0.2]},
        "integrator": {"method": "magnus2", "dt": 0.01},
        "time": {"t0": 0.0, "t1": 0.25, "stride": 5},
        "reduction": {"mu": -0.5, "dt_reduced": 0.001},
    }
    spans = _load_spans()
    trace = _traced_run(spans, tmp_path, "reduce", cfg)
    assert trace.problems == []
    assert trace.count["reduction.rk4_step"] == 250
    assert trace.count["reduction.reproject"] == 2 + 5
    for method in ("magnus2", "cayley2", "exact_eig"):
        run = dict(cfg, integrator={"method": method, "dt": 0.01})
        if method == "exact_eig":  # constant coefficients only
            run["hamiltonian"] = cfg["hamiltonian"][:2]
        trace = _traced_run(spans, tmp_path, "simulate", run)
        assert trace.problems == []
        assert trace.grids == spans.expected_roots("simulate", run)
        assert trace.count["dynamics.step"] == 25
