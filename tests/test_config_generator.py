"""Seeded valid configs: every one runs through the CLI in-process and keeps
the exit-code, stderr and finite-output contracts, and no `reduce` run exits
0 with a matrix that is no longer near a projector.  A second sweep runs far
from t = 0, where a step can fall below the float spacing of t: there too the
record times strictly increase and both floors record the same times."""

import json
import math
import warnings
from math import comb
from pathlib import Path

import numpy as np
import pytest

import geoschro.cli as cli
from geoschro.tolerances import DEFAULT

CONFIGS = 100
# a second sweep near |t0| = FAR_T0, where the float spacing of t, about 2e-3,
# exceeds the smallest dt drawn and the grid's 64-ulp misfit slack, about 0.14,
# leaves room for inner points; among these seeds, 1114 (reduce) and 1115
# (simulate) record at times that steps below that spacing would repeat
FAR_SEEDS = range(1100, 1160)
FAR_T0 = 1e13
MAX_STEPS = 150  # per floor, so the whole sweep stays within a few seconds
BUILTINS = {  # basis kind -> the builtin operators valid on it
    "hermite1d_orthonormal": ("p2", "x2", "xp_px", "p", "x", "id"),
    "fourier_interval": ("id", "fourier_p2"),
    "hermite3d_degree": ("id", "Lx", "Ly", "Lz"),
}
IDEMPOTENCY_GATE = 1.0 - DEFAULT.rank_dominance

# RK4 on the projector is unstable here (dt_reduced times the spread of H's
# spectrum is far past 2 sqrt 2); P leaves the projectors long before it
# overflows, and a run that ended first used to exit 0 with max_residual pi/2
REPRODUCER = {
    "basis": {"kind": "hermite1d_orthonormal", "size": 26},
    "hamiltonian": [{"operator": "x", "coefficient": {
        "kind": "sinusoid", "a": 78.85036893813, "omega": 4.47199521976729,
        "phase": -2.8069116608623936}}],
    "initial_state": {"kind": "coherent", "alpha": [-1.0794950441049973, 1.9505521083381012]},
    "integrator": {"method": "magnus2", "dt": 0.00254784814250629},
    "time": {"t0": 0.8390800400871314, "t1": 1.8946187291290877, "stride": 3},
    "outputs": {"coefficients": True, "diagnostics": False},
    "reduction": {"mu": -0.6673298371044109, "dt_reduced": 0.11928289719205766},
}

ABSORBED = {
    "basis": {"kind": "hermite1d_orthonormal", "size": 4},
    "hamiltonian": [{"operator": "id", "coefficient": {"kind": "constant", "c": 1.0}}],
    "initial_state": {"kind": "coherent", "alpha": 0.5},
    "integrator": {"method": "magnus2", "dt": 0.01},
    "time": {"t0": 1e15, "t1": 1.00000000000002e15, "stride": 1},
    "reduction": {"mu": -0.5, "dt_reduced": 0.01},
}


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _signed(rng, hi: float) -> float:
    """A magnitude log-uniform in [1e-2, hi] with a random sign."""
    return float(rng.choice((-1.0, 1.0))) * _log_uniform(rng, 1e-2, hi)


def _coefficient(rng, constant: bool) -> dict:
    kind = "constant" if constant else str(rng.choice(("constant", "sinusoid", "polynomial",
                                                       "table")))
    scale = 10.0 ** rng.integers(0, 9)  # magnitudes up to 1e8
    if kind == "constant":
        return {"kind": kind, "c": _signed(rng, scale)}
    if kind == "sinusoid":
        return {"kind": kind, "a": _signed(rng, scale), "omega": _signed(rng, 10.0),
                "phase": float(rng.uniform(-math.pi, math.pi))}
    if kind == "polynomial":
        return {"kind": kind, "coeffs": [_signed(rng, scale) for _ in range(rng.integers(1, 4))]}
    ts = np.cumsum(rng.uniform(0.1, 1.0, rng.integers(1, 5))) - 0.5
    return {"kind": kind, "points": [[float(t), _signed(rng, scale)] for t in ts]}


def _basis(rng) -> dict:
    kind = str(rng.choice(sorted(BUILTINS)))
    if kind == "hermite3d_degree":
        degree = int(rng.integers(0, 4))
        return {"kind": kind, "size": comb(degree + 3, 3), "degree": degree}
    size = int(rng.integers(1, 33))
    if kind == "fourier_interval":
        return {"kind": kind, "size": size, "interval_halflength": _log_uniform(rng, 0.5, 5.0)}
    return {"kind": kind, "size": size}


def _initial_state(rng, basis: dict, tmp: Path) -> dict:
    kinds = ["basis_vector", "coefficients_file"]
    if basis["kind"] == "hermite1d_orthonormal":
        kinds.append("coherent")
    kind = str(rng.choice(kinds))
    if kind == "basis_vector":
        return {"kind": kind, "index": int(rng.integers(0, basis["size"]))}
    if kind == "coherent":
        return {"kind": kind, "alpha": [float(v) for v in rng.uniform(-2.0, 2.0, 2)]}
    n = basis["size"]
    (tmp / "psi.json").write_text(json.dumps({
        "basis": basis, "re": rng.standard_normal(n).tolist(),
        "im": rng.standard_normal(n).tolist()}), encoding="utf-8")
    return {"kind": kind, "path": "psi.json"}


def generate(seed: int, tmp: Path, t_offset: float = 0.0) -> dict:
    """One valid config for ``seed``, its window starting within 1 of
    t_offset; a coefficients file it names is written under tmp.  Each floor
    takes at most MAX_STEPS steps, and about 40% of the configs carry a
    reduction block with dt_reduced up to 0.3."""
    rng = np.random.default_rng(seed)
    basis = _basis(rng)
    method = str(rng.choice(("exact_eig", "magnus2", "cayley2")))
    terms = [{"operator": str(rng.choice(BUILTINS[basis["kind"]])),
              "coefficient": _coefficient(rng, method == "exact_eig")}
             for _ in range(rng.integers(1, 4))]
    dt = _log_uniform(rng, 1e-3, 0.1)
    t0 = t_offset + float(rng.uniform(-1.0, 1.0))
    span = min(float(rng.uniform(0.0, 2.0)), MAX_STEPS * dt)
    cfg = {"basis": basis, "hamiltonian": terms,
           "initial_state": _initial_state(rng, basis, tmp),
           "integrator": {"method": method, "dt": dt},
           "time": {"t0": t0, "t1": t0 + span, "stride": int(rng.integers(1, 6))},
           "outputs": {"coefficients": bool(rng.integers(0, 2)),
                       "diagnostics": bool(rng.integers(0, 2))}}
    if rng.uniform() < 0.4:
        dt_reduced = max(_log_uniform(rng, 1e-3, 0.3), span / MAX_STEPS)
        cfg["reduction"] = {"mu": -_log_uniform(rng, 1e-2, 1e2), "dt_reduced": dt_reduced}
    return cfg


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite JSON number {token}")
    return value


def _non_finite_outputs(out: Path) -> list[str]:
    """Every JSON, JSONL or CSV file written under out with a number that is
    not finite (NaN, Infinity, or a literal such as 1e400)."""
    bad = []
    for path in sorted(out.rglob("*")):
        if path.suffix not in (".json", ".jsonl", ".csv"):
            continue
        text = path.read_text(encoding="utf-8")
        try:
            if path.suffix == ".csv":
                for row in text.splitlines()[1:]:  # after the "# t,..." header
                    [_finite(cell) for cell in row.split(",")]
            else:
                for doc in text.splitlines() if path.suffix == ".jsonl" else [text]:
                    json.loads(doc, parse_float=_finite, parse_constant=_finite)
        except ValueError:
            bad.append(path.name)
    return bad


def _run(cfg: dict, tmp: Path, capsys) -> tuple:
    """(exit code, stderr lines, summary or None) of the CLI on cfg."""
    (tmp / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    command = "reduce" if "reduction" in cfg else "simulate"
    out = tmp / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([command, "--config", str(tmp / "config.json"), "--out", str(out)])
    stderr = capsys.readouterr().err.splitlines()
    assert _non_finite_outputs(out) == [], cfg
    summary = out / "summary.json"
    return code, stderr, json.loads(summary.read_text()) if summary.exists() else None


def test_generated_configs_keep_the_cli_contracts(tmp_path, capsys):
    codes = []
    for seed in range(CONFIGS):
        tmp = tmp_path / str(seed)
        tmp.mkdir()
        cfg = generate(seed, tmp)
        code, stderr, summary = _run(cfg, tmp, capsys)
        assert code in (0, 1, 2, 3, 4) and len(stderr) <= 1, (seed, cfg, stderr)
        assert (code == 0) == (summary is not None), (seed, cfg)
        if code == 0 and "reduction" in cfg:
            assert summary["projector_drifts"]["idempotency"] <= IDEMPOTENCY_GATE, (seed, cfg)
        codes.append((code, "reduction" in cfg))
    # the sweep samples both floors and both outcomes of the projector gate
    assert {(0, False), (0, True), (2, True)} <= set(codes), codes


def _assert_record_times(out: Path, reduced: bool, context) -> None:
    """The record times of trajectory.csv strictly increase and, after
    reduce, rays.csv has the same ones."""
    def times(name):
        return [float(row.split(",", 1)[0])
                for row in (out / name).read_text(encoding="utf-8").splitlines()[1:]]

    up = times("trajectory.csv")
    assert all(a < b for a, b in zip(up, up[1:])), context
    if reduced:
        assert times("rays.csv") == up, context


def test_generated_configs_far_from_t0_keep_the_contracts(tmp_path, capsys):
    outcomes = set()
    for seed in FAR_SEEDS:
        tmp = tmp_path / str(seed)
        tmp.mkdir()
        cfg = generate(seed, tmp, (-1) ** seed * FAR_T0)
        code, stderr, summary = _run(cfg, tmp, capsys)
        assert code in (0, 1, 2, 3, 4) and len(stderr) <= 1, (seed, cfg, stderr)
        assert (code == 0) == (summary is not None), (seed, cfg)
        reduced = "reduction" in cfg
        if code == 0:
            _assert_record_times(tmp / "out", reduced, (seed, cfg))
        dt = min(cfg["integrator"]["dt"], cfg.get("reduction", {}).get("dt_reduced", math.inf))
        absorbed = dt < math.ulp(cfg["time"]["t0"])
        outcomes.add((code, reduced, absorbed))
    # both floors ran to the end on grids with steps below the spacing of t
    assert {(0, False, True), (0, True, True)} <= outcomes, outcomes


@pytest.mark.parametrize("command", ["simulate", "reduce"])
def test_steps_below_the_spacing_of_t_keep_the_floors_aligned(tmp_path, capsys, command):
    """dt = 0.01 at t0 = 1e15, where t is spaced 0.125: most steps a + k*dt
    round onto the time before them.  Such a grid used to repeat record
    times (13 rows at 1000000000000005.5) and stopped reduce with misaligned
    floors."""
    reduced = command == "reduce"
    cfg = {k: v for k, v in ABSORBED.items() if reduced or k != "reduction"}
    code, stderr, _ = _run(cfg, tmp_path, capsys)
    assert code == 0 and stderr == [], stderr
    _assert_record_times(tmp_path / "out", reduced, command)


def test_unstable_projector_flow_is_2(tmp_path, capsys):
    code, stderr, summary = _run(REPRODUCER, tmp_path, capsys)
    assert code == 2 and summary is None
    assert len(stderr) == 1 and stderr[0].startswith("numeric error: projector idempotency")
