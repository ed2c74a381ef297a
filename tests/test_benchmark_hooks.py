"""The traced benchmark run (perfbench/traced.py) wraps geoschro functions by
name and reads the step-grid arguments of the two grid roots; a rename here
would break it, so the names it binds are checked against the package."""

import importlib.util
from pathlib import Path

from geoschro import dynamics, reduction
from geoschro.dynamics import IntegratorSpec, oscillator_hamiltonian
from geoschro.numerics import random_state
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
