"""Workload plans, seeded inputs and the correctness gates for each CLI run.

A workload is a list of CLI invocations of ``python3 -m geoschro``.  One pass
of a workload runs every invocation once, each in a fresh child process.  The
gates below are the frozen contract numbers of the README and of
``geoschro verify``; a faster program must pass the same numbers.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("golden_cli", "verify_all", "large_basis", "coefficient_dump")

GOLDEN_CONFIGS = (
    "driven_oscillator",
    "driven_reduction",
    "harmonic_oscillator",
    "identity_phase",
    "translation",
)

DRIFT_BOUND = 1e-12      # norm and J drift, README conservation contract
RESIDUAL_BOUND = 1e-6    # commuting-diagram residual on reduce runs

# The bound of every `verify` case, frozen at the seed commit.  A report whose
# bounds or case names differ from these fails the gate, so a bound loosened
# in the program cannot pass the benchmark.
FROZEN_VERIFY_BOUNDS = {
    "symplectic_antisymmetry": 1e-13,
    "symplectic_nondegeneracy": 1e-12,
    "coordinate_identity": 1e-13,
    "chart_isometry": 1e-13,
    "one_form_exterior_derivative": 1e-13,
    "hermitian_flag_drift": 1e-14,
    "metaplectic_closure": 1e-10,
    "su2_closure": 1e-12,
    "flow_vs_algebra_ratio": 0.5,
    "flow_commutator_null_pairs": 1e-07,
    "certificate_phase_invariance": 1e-12,
    "certificate_m0_p": 1.0,
    "certificate_m0_x": 1.0,
    "certificate_m0_id": 1.0,
    "certificate_m1_p": 1.0,
    "certificate_m1_x": 1.0,
    "certificate_m1_id": 1.0,
    "certificate_m2_p": 1.0,
    "certificate_m2_x": 1.0,
    "certificate_m2_id": 1.0,
    "certificate_m3_p": 1.0,
    "certificate_m3_x": 1.0,
    "certificate_m3_id": 1.0,
    "norm_drift_magnus2_driven": 1e-12,
    "momentum_drift_magnus2_driven": 1e-12,
    "energy_drift_exact_eig": 1e-10,
    "energy_drift_magnus2_autonomous": 1e-06,
    "order2_cayley2_autonomous": 0.5,
    "order2_magnus2_driven_richardson": 0.5,
    "hamiltonian_field_identity": 1e-12,
    "gateaux_residual_stability": 0.05,
    "momentum_conservation_driven": 1e-12,
    "level_set_invariance": 1e-12,
    "vertical_kernel_identity": 1e-12,
    "representative_independence_form": 1e-12,
    "representative_independence_hamiltonian": 1e-12,
    "ray_canonicalization": 1e-13,
    "projector_trace_drift": 1e-09,
    "projector_hermiticity_drift": 1e-09,
    "projector_idempotency_drift": 1e-06,
    "commuting_diagram_driven": 1e-06,
}


@dataclass(frozen=True)
class Invocation:
    """One CLI run: ``geoschro <command> ...`` writing under ``out``."""

    label: str
    command: str           # simulate | reduce | verify
    config: Path | None    # scenario file, None for verify
    verify_seed: int = 0

    def argv(self, out: Path) -> list[str]:
        if self.command == "verify":
            return ["verify", "--suite", "all", "--size", "32",
                    "--seed", str(self.verify_seed), "--out", str(out / "report.json")]
        return [self.command, "--config", str(self.config), "--out", str(out)]


@dataclass(frozen=True)
class Plan:
    invocations: tuple
    setup_configs: tuple   # configs the set-up probe parses and builds
    geoschro_threads: str | None = None   # GEOSCHRO_THREADS for the child, or unset


def _oscillator_terms(driven: bool) -> list:
    terms = [
        {"operator": "p2", "coefficient": {"kind": "constant", "c": 0.5}},
        {"operator": "x2", "coefficient": {"kind": "constant", "c": 0.5}},
    ]
    if driven:
        terms.append({"operator": "x2",
                      "coefficient": {"kind": "sinusoid", "a": 0.05, "omega": 1.0, "phase": 0.0}})
    return terms


def _seeded_alpha(rng: random.Random) -> list:
    """Complex coherent amplitude with |alpha| in [0.3, 0.7]: the truncation
    tail stays far below the drift bounds at every basis size used here."""
    r = rng.uniform(0.3, 0.7)
    theta = rng.uniform(0.0, cmath.tau)
    z = cmath.rect(r, theta)
    return [z.real, z.imag]


def _write_config(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    return path


def make_plan(name: str, root: Path, inputs: Path, seed: int) -> Plan:
    """Build the invocations of workload ``name``; generated configs go to
    ``inputs``.  The same seed always gives the same files."""
    rng = random.Random(seed)
    if name == "golden_cli":
        configs = tuple(root / "configs" / f"{stem}.json" for stem in GOLDEN_CONFIGS)
        invs = []
        for stem, path in zip(GOLDEN_CONFIGS, configs):
            reduced = _strict_json(path.read_bytes()).get("reduction") is not None
            invs.append(Invocation(stem, "reduce" if reduced else "simulate", path))
        return Plan(tuple(invs), configs)
    if name == "verify_all":
        # verify builds its Hamiltonians inside the suites; its set-up probe
        # parses and builds the N=32 driven oscillator those suites propagate.
        cfg = {
            "basis": {"kind": "hermite1d_orthonormal", "size": 32},
            "hamiltonian": _oscillator_terms(driven=True),
            "initial_state": {"kind": "coherent", "alpha": 0.5},
            "integrator": {"method": "magnus2", "dt": 0.001},
            "time": {"t0": 0.0, "t1": 10.0, "stride": 10},
        }
        setup = _write_config(inputs / "verify_setup.json", cfg)
        inv = Invocation("verify_all", "verify", None, verify_seed=seed % 2 ** 31)
        return Plan((inv,), (setup,), "2")
    if name == "large_basis":
        cfg = {
            "basis": {"kind": "hermite1d_orthonormal", "size": 256},
            "hamiltonian": _oscillator_terms(driven=True),
            "initial_state": {"kind": "coherent", "alpha": _seeded_alpha(rng)},
            "integrator": {"method": "magnus2", "dt": 0.001},
            "time": {"t0": 0.0, "t1": 0.05, "stride": 10},
            "reduction": {"mu": -0.5, "dt_reduced": 0.001},
            "outputs": {"coefficients": False, "diagnostics": True, "reduced": True},
        }
        path = _write_config(inputs / "large_basis.json", cfg)
        return Plan((Invocation("large_basis", "reduce", path),), (path,))
    if name == "coefficient_dump":
        cfg = {
            "basis": {"kind": "hermite1d_orthonormal", "size": 128},
            "hamiltonian": _oscillator_terms(driven=False),
            "initial_state": {"kind": "coherent", "alpha": _seeded_alpha(rng)},
            "integrator": {"method": "exact_eig", "dt": 0.005},
            "time": {"t0": 0.0, "t1": 10.0, "stride": 1},
            "outputs": {"coefficients": True, "diagnostics": True},
        }
        path = _write_config(inputs / "coefficient_dump.json", cfg)
        return Plan((Invocation("coefficient_dump", "simulate", path),), (path,))
    raise ValueError(f"unknown workload {name!r}")


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON number {token}")


def _strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


def check_outputs(inv: Invocation, out: Path) -> tuple[list[str], str]:
    """Gate one finished run.  Returns (problems, digest of its outputs).

    The digest covers every output file byte for byte, except the verify
    report's wall-clock ``elapsed`` field, so equal digests mean the repeat
    run wrote the same outputs (acceptance criterion 11)."""
    problems: list[str] = []
    digest = hashlib.sha256()
    docs = {}
    files = sorted(p for p in out.rglob("*") if p.is_file())
    if not files:
        return [f"{inv.label}: wrote no output"], ""
    for path in files:
        data = path.read_bytes()
        try:
            if path.suffix == ".jsonl":
                for line in data.splitlines():
                    _strict_json(line)
            elif path.suffix == ".json":
                docs[path.name] = _strict_json(data)
        except ValueError as exc:
            problems.append(f"{inv.label}: {path.name}: {exc}")
        digest.update(path.relative_to(out).as_posix().encode())
        if path.name == "report.json" and path.name in docs:
            report = {k: v for k, v in docs[path.name].items() if k != "elapsed"}
            digest.update(json.dumps(report, sort_keys=True).encode())
        else:
            digest.update(data)
    if inv.command == "verify":
        problems += _verify_gate(inv, docs.get("report.json"))
    else:
        problems += _summary_gate(inv, docs.get("summary.json"))
    return problems, digest.hexdigest()


def _summary_gate(inv: Invocation, summary) -> list[str]:
    if summary is None:
        return [f"{inv.label}: no readable summary.json"]
    problems = []
    for key in ("max_norm_drift", "max_J_drift"):
        if not summary.get(key, float("inf")) <= DRIFT_BOUND:
            problems.append(f"{inv.label}: {key} {summary.get(key)} exceeds {DRIFT_BOUND}")
    if inv.command == "reduce" and not summary.get("max_residual", float("inf")) <= RESIDUAL_BOUND:
        problems.append(f"{inv.label}: max_residual {summary.get('max_residual')}"
                        f" exceeds {RESIDUAL_BOUND}")
    return problems


def _verify_gate(inv: Invocation, report) -> list[str]:
    if report is None:
        return [f"{inv.label}: no readable report.json"]
    cases = {c["name"]: c for c in report.get("cases", [])}
    problems = []
    if set(cases) != set(FROZEN_VERIFY_BOUNDS):
        problems.append(f"{inv.label}: case set differs from the frozen list")
    for name, bound in FROZEN_VERIFY_BOUNDS.items():
        case = cases.get(name)
        if case is None:
            continue
        if case["bound"] != bound:
            problems.append(f"{inv.label}: {name} bound {case['bound']} != frozen {bound}")
        if not (case["pass"] and case["measured"] <= bound):
            problems.append(f"{inv.label}: {name} measured {case['measured']} > {bound}")
    return problems
