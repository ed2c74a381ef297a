"""Per-layer numbers from the span files of traced runs, and the exact-count
cross-check of those spans against the step grids.

A span's self time is its duration minus the durations of its child spans.
Every ``dynamics.propagate`` and ``reduction.propagate`` span is a grid root:
the calls below it are predicted exactly from the grid it was called with, so
a wrapper that missed a binding site, or a count that moved, shows up as a
mismatch.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

GRID_ROOTS = ("dynamics.propagate", "reduction.propagate")
SUITES = ("symplectic", "operators", "analytic", "dynamics", "reduction")


def time_grid(t0: float, t1: float, dt: float) -> list[float]:
    """The step grid geoschro walks: t0, t0+dt, ... with the last step
    shortened onto t1 (a 1-ulp-scale misfit still lands exactly)."""
    times = [t0]
    k = 1
    slack = 64.0 * sys.float_info.epsilon * max(1.0, abs(t1), abs(t0))
    while t0 + k * dt < t1 - slack:
        times.append(t0 + k * dt)
        k += 1
    if t1 > t0:
        times.append(t1)
    return times


def _record_flags(grid: dict) -> list[bool]:
    t0, t1, dt = grid["t0"], grid["t1"], grid["dt"]
    wanted = grid.get("record_times")
    if wanted is None:
        n = len(time_grid(t0, t1, dt)) - 1
        return [k == 0 or k % grid["stride"] == 0 or k == n for k in range(n + 1)]
    knots = sorted({float(t) for t in wanted if t0 < t < t1})
    bounds = [t0] + knots + [t1]
    times = [t0]
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b > a:
            times.extend(time_grid(a, b, dt)[1:])
    wanted = {float(t) for t in wanted}
    return [t in wanted for t in times]


def predict(grid: dict) -> dict:
    """Calls expected below one grid root.

    propagate: one step per grid step; magnus2 makes one eigendecomposition
    and one apply per step, exact_eig one eigendecomposition in total;
    ``assemble`` runs once per magnus2/cayley2 step, once per record, and
    once for the exact_eig generator.  reduced_propagate: one RK4 step with
    three ``assemble`` calls and one drift measurement per step; one
    ``dominant_ray`` (an eigendecomposition) per re-projection and per
    record after the first, and one Fubini-Study distance per such record.
    """
    flags = _record_flags(grid)
    n = len(flags) - 1
    records = sum(flags[1:])
    if grid["kind"] == "propagate":
        method = grid["method"]
        eig = {"magnus2": n, "exact_eig": 1, "cayley2": 0}[method]
        return {
            "dynamics.step": n,
            "numerics.eig": eig,
            "numerics.apply": 0 if method == "cayley2" else n,
            "dynamics.assemble": 1 + records + (1 if method == "exact_eig" else n),
        }
    reprojections = n // grid["reproject_every"]
    return {
        "reduction.rk4_step": n,
        "reduction.drift": n,
        "dynamics.assemble": 3 * n,
        "reduction.reproject": reprojections + records,
        "numerics.eig": reprojections + records,
        "reduction.fs": records,
    }


@dataclass
class Trace:
    """One span file, reduced to per-name totals."""

    names: list
    count: Counter = field(default_factory=Counter)
    inclusive: Counter = field(default_factory=Counter)
    self_time: Counter = field(default_factory=Counter)
    eig_durations: np.ndarray = None
    grids: list = field(default_factory=list)      # grid dicts in call order
    problems: list = field(default_factory=list)


def load(path) -> Trace:
    with np.load(path, allow_pickle=False) as data:
        table = data["spans"]
        names = [str(n) for n in data["names"]]
        grids = json.loads(str(data["grids"]))
    sid = table[:, 0].astype(np.int64)
    nid = table[:, 1].astype(np.int64)
    dur = table[:, 3] - table[:, 2]
    parent = table[:, 4].astype(np.int64)
    n = len(sid)
    if not np.array_equal(sid, np.arange(n)):
        raise ValueError(f"{path}: span ids are not contiguous; a span was left open")
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    own = dur - child

    trace = Trace(names)
    for k, name in enumerate(names):
        mask = nid == k
        trace.count[name] = int(mask.sum())
        trace.inclusive[name] = float(dur[mask].sum())
        trace.self_time[name] = float(own[mask].sum())
    eig = names.index("numerics.eig") if "numerics.eig" in names else -1
    trace.eig_durations = dur[nid == eig]
    trace.grids = [g for _, g in sorted(grids, key=lambda item: item[0])]

    # every LAPACK eigh must sit inside hermitian_eigendecompose; one outside
    # means a binding of it escaped the wrappers
    if "numerics.eigh" in names:
        eigh = nid == names.index("numerics.eigh")
        parents = parent[eigh]
        if np.any(parents < 0) or np.any(nid[parents[parents >= 0]] != eig):
            trace.problems.append("an eigh call ran outside a traced hermitian_eigendecompose")

    # owner[i]: the nearest grid-root ancestor of span i, or -1
    is_root = np.isin(nid, [names.index(r) for r in GRID_ROOTS if r in names])
    owner = np.full(n, -1, dtype=np.int64)
    cursor = parent.copy()
    while np.any(cursor >= 0):
        live = cursor >= 0
        hit = live & is_root[np.where(live, cursor, 0)]
        owner[hit] = cursor[hit]
        cursor = np.where(live & ~hit, parent[np.where(live, cursor, 0)], -1)
    grid_of = dict(grids)
    for root in np.nonzero(is_root)[0]:
        expected = predict(grid_of[int(root)])
        below = Counter(names[k] for k in nid[owner == root])
        for name, want in expected.items():
            if below[name] != want:
                trace.problems.append(
                    f"{names[nid[root]]} span {root}: {below[name]} {name} calls,"
                    f" grid predicts {want}")
    return trace


def expected_roots(command: str, config: dict) -> list[dict]:
    """The grid roots a simulate or reduce run of ``config`` must show."""
    t = config["time"]
    up = {"kind": "propagate", "method": config["integrator"]["method"],
          "dt": float(config["integrator"]["dt"]), "t0": float(t["t0"]),
          "t1": float(t["t1"]), "stride": t.get("stride", 1)}
    if command == "simulate":
        return [up]
    flags = _record_flags(up)
    times = time_grid(up["t0"], up["t1"], up["dt"])
    down = {"kind": "reduced", "dt": float(config["reduction"]["dt_reduced"]),
            "t0": up["t0"], "t1": up["t1"], "stride": 1, "reproject_every": 100,
            "record_times": [t_k for t_k, keep in zip(times, flags) if keep]}
    return [up, down]


def layer_metrics(traces: list[Trace]) -> dict:
    """Per-layer metrics summed over the traced runs of one pass."""
    count, incl, own = Counter(), Counter(), Counter()
    for tr in traces:
        count.update(tr.count)
        incl.update(tr.inclusive)
        own.update(tr.self_time)
    eig_us = np.concatenate([tr.eig_durations for tr in traces]) * 1e6
    up_steps, down_steps = count["dynamics.step"], count["reduction.rk4_step"]
    steps = up_steps + down_steps
    m = {
        "config.parse_s": (incl["config.parse"], "s"),
        "config.build_s": (incl["config.build"], "s"),
        "operators.matrix_checks": (count["operators.matrix_check"], "count"),
        "operators.matrix_check_s": (incl["operators.matrix_check"], "s"),
        "hilbert.states": (count["hilbert.state"], "count"),
        "hilbert.state_s": (incl["hilbert.state"], "s"),
        "numerics.eig_calls": (count["numerics.eig"], "count"),
        "numerics.eig_s": (incl["numerics.eig"], "s"),
        "numerics.eigh_s": (incl["numerics.eigh"], "s"),
        "numerics.eig_check_s": (own["numerics.eig"], "s"),
        "numerics.eig_us_p50": (float(np.percentile(eig_us, 50)) if eig_us.size else 0.0, "us"),
        "numerics.eig_us_p99": (float(np.percentile(eig_us, 99)) if eig_us.size else 0.0, "us"),
        "numerics.apply_calls": (count["numerics.apply"], "count"),
        "numerics.apply_s": (incl["numerics.apply"], "s"),
        "dynamics.steps": (up_steps, "count"),
        "dynamics.assemble_calls": (count["dynamics.assemble"], "count"),
        "dynamics.assemble_s": (incl["dynamics.assemble"], "s"),
        "dynamics.assemble_per_step": (count["dynamics.assemble"] / steps if steps else 0.0,
                                       "count/step"),
        "dynamics.propagate_s": (incl["dynamics.propagate"], "s"),
        "dynamics.self_s": (own["dynamics.propagate"] + own["dynamics.step"], "s"),
        "reduction.steps": (down_steps, "count"),
        "reduction.propagate_s": (incl["reduction.propagate"], "s"),
        "reduction.self_s": (own["reduction.propagate"] + own["reduction.rk4_step"], "s"),
        "reduction.drift_s": (incl["reduction.drift"], "s"),
        "reduction.reproject_calls": (count["reduction.reproject"], "count"),
        "reduction.reproject_s": (incl["reduction.reproject"], "s"),
        "reduction.fs_s": (incl["reduction.fs"], "s"),
        "serialize.write_s": (incl["serialize.write"], "s"),
        "cli.run_s": (incl["cli.main"], "s"),
        "cli.self_s": (own["cli.main"], "s"),
    }
    for suite in SUITES:
        m[f"verify.suite_s.{suite}"] = (incl[f"verify.suite.{suite}"], "s")
    return m
