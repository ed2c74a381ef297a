"""Traced CLI run: geoschro's layer boundaries wrapped in spans from outside.

    python3 perfbench/traced.py SPANS.npz -- <geoschro CLI arguments>

The program is not modified.  Before ``cli.main`` runs, the public functions
of each layer are replaced by wrappers that record one span per call: id,
name, start, end and the id of the enclosing span on the same thread.  A
module function is replaced at every module global bound to it, so the copies
made by ``from .numerics import ...`` are wrapped too.  ``propagate`` and
``reduced_propagate`` also record their step grid, from which the benchmark
predicts the call counts and checks the trace against them.  Spans stay in
memory and are written once, when the run ends.
"""

import functools
import inspect
import itertools
import json
import sys
import threading
import time

import numpy as np

from geoschro import (cli, config, dynamics, hilbert, numerics, operators, reduction,
                      serialize, verify)

MODULES = (cli, config, dynamics, hilbert, numerics, operators, reduction, serialize, verify)

FUNCTIONS = (
    (config, "parse_config", "config.parse"),
    (config, "build_hamiltonian", "config.build"),
    (config, "build_initial_state", "config.build"),
    (numerics, "hermitian_eigendecompose", "numerics.eig"),
    (numerics, "apply_exp_step", "numerics.apply"),
    (dynamics, "assemble", "dynamics.assemble"),
    (dynamics, "propagate", "dynamics.propagate"),
    (reduction, "reduced_propagate", "reduction.propagate"),
    (reduction, "_rk4_projector_step", "reduction.rk4_step"),
    (reduction, "dominant_ray", "reduction.reproject"),
    (reduction, "fubini_study_distance", "reduction.fs"),
    (serialize, "write_trajectory_jsonl", "serialize.write"),
    (serialize, "write_trajectory_csv", "serialize.write"),
    (serialize, "write_rays_jsonl", "serialize.write"),
    (serialize, "write_rays_csv", "serialize.write"),
    (serialize, "write_summary", "serialize.write"),
    (serialize, "emit_plot_script", "serialize.write"),
    (verify, "run_verify", "verify.run"),
    (cli, "main", "cli.main"),
)

METHODS = (
    (operators.OperatorMatrix, "__post_init__", "operators.matrix_check"),
    (hilbert.StateVector, "__post_init__", "hilbert.state"),
    (reduction.ProjectorState, "drift", "reduction.drift"),
)


def _propagate_grid(a: dict) -> dict:
    spec = a["spec"]
    return {"kind": "propagate", "method": spec.method, "dt": spec.dt,
            "t0": a["t0"], "t1": a["t1"], "stride": a["stride"]}


def _reduced_grid(a: dict) -> dict:
    times = a["record_times"]
    return {"kind": "reduced", "dt": a["dt"], "t0": a["t0"], "t1": a["t1"],
            "stride": a["stride"], "reproject_every": a["reproject_every"],
            "record_times": None if times is None else [float(t) for t in times]}


GRIDS = {"dynamics.propagate": _propagate_grid, "reduction.propagate": _reduced_grid}


class Recorder:
    """Spans of one process.  Each thread keeps its own stack of open spans,
    so spans of the verify suite pool nest under their own thread's parent."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []   # (id, name index, start, end, parent id or -1)
        self.grids: list[tuple] = []   # (span id, grid dict)
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        grid = GRIDS.get(name)
        signature = inspect.signature(fn) if grid else None
        spans, grids, ids, stack_of = self.spans, self.grids, self._ids, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            if grid is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                grids.append((sid, grid(bound.arguments)))
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, nid, start, end, parent))

        return wrapper

    def dump(self, path: str) -> None:
        table = np.array(sorted(self.spans), dtype=np.float64).reshape(-1, 5)
        np.savez(path, spans=table, names=np.array(self.names),
                 grids=np.array(json.dumps(self.grids)))


def _rebind(original, replacement) -> int:
    """Point every module global bound to ``original`` at ``replacement``."""
    count = 0
    for module in MODULES:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                count += 1
    return count


def install(rec: Recorder) -> None:
    for module, attr, name in FUNCTIONS:
        original = getattr(module, attr)
        if _rebind(original, rec.wrap(name, original)) == 0:
            raise RuntimeError(f"{module.__name__}.{attr} is bound nowhere")
    for cls, attr, name in METHODS:
        setattr(cls, attr, rec.wrap(name, getattr(cls, attr)))

    make_step = dynamics._step_operators

    @functools.wraps(make_step)
    def traced_step_operators(*args, **kwargs):
        return rec.wrap("dynamics.step", make_step(*args, **kwargs))

    dynamics._step_operators = traced_step_operators
    for suite, fn in list(verify.SUITES.items()):
        verify.SUITES[suite] = rec.wrap(f"verify.suite.{suite}", fn)
    np.linalg.eigh = rec.wrap("numerics.eigh", np.linalg.eigh)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py SPANS.npz -- <geoschro arguments>", file=sys.stderr)
        return 2
    rec = Recorder()
    install(rec)
    try:
        return cli.main(argv[2:])
    finally:
        rec.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
