"""Batch front end: simulate / verify / reduce / plot.

Exit codes: 0 ok, 1 configuration problem, 2 numeric failure, 3 missing or
unreadable file, 4 verification suite failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import SimulationConfig, build_hamiltonian, build_initial_state, parse_config
from .dynamics import propagate
from .errors import ConfigError, MissingInput, NumericError, ParseError, SchemaError
from .reduction import diagram_residuals, paired_records
from .serialize import (
    emit_plot_script,
    write_rays_csv,
    write_rays_jsonl,
    write_summary,
    write_trajectory_csv,
    write_trajectory_jsonl,
)
from .tolerances import parse_overrides
from .verify import run_verify


def _trajectory_summary(records) -> dict:
    first = records[0]
    return {
        "records": len(records),
        "max_norm_drift": max(abs(r.norm - first.norm) for r in records),
        "max_J_drift": max(abs(r.momentum_J - first.momentum_J) for r in records),
        "final": {
            "t": records[-1].t,
            "norm": records[-1].norm,
            "J": records[-1].momentum_J,
            "energy": records[-1].energy,
        },
    }


def _write_run(config: SimulationConfig, out_dir: Path, seed: int, up,
               reduced=None) -> dict:
    """Write a run's trajectory files, summary.json and (with diagnostics)
    plot.gp, and return the summary.  ``reduced`` = (down records, residuals,
    drifts) marks a reduce run: it adds the ray files and their summary keys."""
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trajectory_jsonl(out_dir / "trajectory.jsonl", up, config.outputs.coefficients)
    write_trajectory_csv(out_dir / "trajectory.csv", up)
    files = {"trajectory_jsonl": "trajectory.jsonl", "trajectory_csv": "trajectory.csv"}
    summary = {"kind": "simulate", "seed": seed, "basis": config.basis.to_json_dict()}
    if reduced is not None:
        down, residuals, drifts = reduced
        write_rays_jsonl(out_dir / "rays.jsonl", down)
        write_rays_csv(out_dir / "rays.csv", down, residuals)
        files.update(rays_jsonl="rays.jsonl", rays_csv="rays.csv")
        summary.update(kind="reduce", mu=config.reduction.mu,
                       dt_reduced=config.reduction.dt_reduced)
    summary["integrator"] = {"method": config.integrator.method, "dt": config.integrator.dt}
    summary["time"] = {"t0": config.time.t0, "t1": config.time.t1, "stride": config.time.stride}
    summary.update(_trajectory_summary(up))
    if reduced is not None:
        summary.update(max_residual=max(residuals), projector_drifts=drifts)
    summary["files"] = files
    write_summary(out_dir / "summary.json", summary)
    if config.outputs.diagnostics:
        emit_plot_script(out_dir / "summary.json")
    return summary


def run_simulate(config: SimulationConfig, out_dir: Path, seed: int = 0) -> dict:
    H = build_hamiltonian(config)
    psi0 = build_initial_state(config)
    records = propagate(H, psi0, config.integrator, config.time.t0, config.time.t1,
                        stride=config.time.stride)
    return _write_run(config, out_dir, seed, records)


def run_reduce(config: SimulationConfig, out_dir: Path, seed: int = 0) -> dict:
    if config.reduction is None:
        raise SchemaError("/reduction", "reduce needs a reduction block")
    H = build_hamiltonian(config)
    psi0 = build_initial_state(config)
    up, down, drifts = paired_records(H, psi0, config.reduction.mu, config.integrator,
                                      config.reduction.dt_reduced, config.time.t0,
                                      config.time.t1, stride=config.time.stride)
    return _write_run(config, out_dir, seed, up, (down, diagram_residuals(up, down), drifts))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep exit codes ours
        raise ParseError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="geoschro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="propagate a configured scenario")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", required=True)
    sim.add_argument("--seed", type=int, default=0)

    ver = sub.add_parser("verify", help="run a property suite")
    ver.add_argument("--suite", required=True)
    ver.add_argument("--size", type=int, required=True)
    ver.add_argument("--seed", type=int, required=True)
    ver.add_argument("--tol", action="append", default=[], metavar="KEY=VALUE")
    ver.add_argument("--out", default=None, help="report path (default verify_<suite>.json)")

    red = sub.add_parser("reduce", help="run the level-set reduction pipeline")
    red.add_argument("--config", required=True)
    red.add_argument("--out", required=True)
    red.add_argument("--seed", type=int, default=0)

    plo = sub.add_parser("plot", help="emit a gnuplot script for an existing summary")
    plo.add_argument("--summary", required=True)
    return parser


def _cmd_run(args) -> int:
    run, key = {"simulate": (run_simulate, "max_norm_drift"),
                "reduce": (run_reduce, "max_residual")}[args.command]
    summary = run(parse_config(args.config), Path(args.out), args.seed)
    print(f"wrote {Path(args.out) / 'summary.json'} ({key} {summary[key]:.3e})")
    return 0


def _cmd_verify(args) -> int:
    report = run_verify(args.suite, args.size, args.seed, parse_overrides(args.tol))
    out = Path(args.out) if args.out else Path(f"verify_{args.suite}.json")
    write_summary(out, report)
    failed = 0
    for case in report["cases"]:
        tag = "PASS" if case["pass"] else "FAIL"
        if not case["pass"]:
            failed += 1
        print(f"[{tag}] {case['name']}: measured {case['measured']:.3e}"
              f" bound {case['bound']:.3e}")
    print(f"report: {out} ({len(report['cases'])} cases, {failed} failed,"
          f" {report['elapsed']}s)")
    return 0 if failed == 0 else 4


def _cmd_plot(args) -> int:
    path = emit_plot_script(Path(args.summary))
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "plot":
            return _cmd_plot(args)
        return _cmd_run(args)
    except MissingInput as exc:
        print(f"error: missing input: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
