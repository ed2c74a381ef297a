"""Batch front end: simulate / verify / reduce / plot.

Exit codes: 0 ok, 1 configuration problem, 2 numeric failure, 3 missing or
unreadable file, 4 verification suite failure.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager, suppress
from pathlib import Path

from .config import SimulationConfig, build_hamiltonian, build_initial_state, parse_config
from .dynamics import propagate
from .errors import (ConfigError, MissingInput, NumericError, ParseError, SchemaError,
                     quoted_path)
from .reduction import paired_records
from .serialize import (
    TrajectoryWriter,
    emit_plot_script,
    write_rays_csv,
    write_rays_jsonl,
    write_summary,
)
from .tolerances import parse_overrides
from .verify import run_verify


@contextmanager
def _staged(out_dir: Path):
    """A staging directory inside out_dir, made for one run.  When the block
    exits cleanly its files are published into out_dir by os.replace; on any
    exception, an interrupt included, the stage and every directory made for
    it are removed, so a failed run leaves out_dir as it was."""
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # innermost first
    stage = None
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        stage = Path(tempfile.mkdtemp(prefix=".staging-", dir=out_dir))
        yield stage
        for path in sorted(stage.iterdir()):
            os.replace(path, out_dir / path.name)
        made = []
    finally:
        if stage is not None:
            shutil.rmtree(stage, ignore_errors=True)
        for d in made:
            with suppress(OSError):
                d.rmdir()


def _write_run(config: SimulationConfig, stage: Path, seed: int, up: TrajectoryWriter,
               reduced=None) -> dict:
    """Write summary.json, (with diagnostics) plot.gp and, for a reduce run,
    the ray files into ``stage`` next to the trajectory files of ``up``, and
    return the summary.  ``reduced`` = (down records, residuals, drifts)
    marks a reduce run: it adds the ray files and their summary keys."""
    files = {"trajectory_jsonl": "trajectory.jsonl", "trajectory_csv": "trajectory.csv"}
    summary = {"kind": "simulate", "seed": seed, "basis": config.basis.to_json_dict()}
    if reduced is not None:
        down, residuals, drifts = reduced
        write_rays_jsonl(stage / "rays.jsonl", down)
        write_rays_csv(stage / "rays.csv", down, residuals)
        files.update(rays_jsonl="rays.jsonl", rays_csv="rays.csv")
        summary.update(kind="reduce", mu=config.reduction.mu,
                       dt_reduced=config.reduction.dt_reduced)
    summary["integrator"] = {"method": config.integrator.method, "dt": config.integrator.dt}
    summary["time"] = {"t0": config.time.t0, "t1": config.time.t1, "stride": config.time.stride}
    summary.update(up.summary())
    if reduced is not None:
        summary.update(max_residual=max(residuals), projector_drifts=drifts)
    summary["files"] = files
    write_summary(stage / "summary.json", summary)
    if config.outputs.diagnostics:
        emit_plot_script(stage / "summary.json")
    return summary


def run_simulate(config: SimulationConfig, out_dir: Path, seed: int = 0) -> dict:
    """Stream the trajectory into a stage, one record at a time, and publish
    the run's files into out_dir only when it succeeds."""
    H = build_hamiltonian(config)
    psi0 = build_initial_state(config)
    with _staged(out_dir) as stage:
        with TrajectoryWriter(stage, config.outputs.coefficients) as up:
            propagate(H, psi0, config.integrator, config.time.t0, config.time.t1,
                      stride=config.time.stride, sink=up)
        return _write_run(config, stage, seed, up)


def run_reduce(config: SimulationConfig, out_dir: Path, seed: int = 0) -> dict:
    """The paired flows, whose upstairs records the residuals need, written
    through a stage like run_simulate's."""
    if config.reduction is None:
        raise SchemaError("/reduction", "reduce needs a reduction block")
    H = build_hamiltonian(config)
    psi0 = build_initial_state(config)
    up, down, drifts, residuals = paired_records(H, psi0, config.reduction.mu, config.integrator,
                                                 config.reduction.dt_reduced, config.time.t0,
                                                 config.time.t1, stride=config.time.stride)
    with _staged(out_dir) as stage:
        with TrajectoryWriter(stage, config.outputs.coefficients) as writer:
            for record in up:
                writer(record)
        return _write_run(config, stage, seed, writer, (down, residuals, drifts))


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
    config = parse_config(args.config)
    try:
        summary = run(config, Path(args.out), args.seed)
    except MemoryError as exc:  # building H, either floor or writing
        raise SchemaError("/basis/size", f"size {config.basis.size} is too large: {exc}") from exc
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
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        where = "" if exc.filename is None else f": {quoted_path(exc.filename)}"
        print(f"i/o error: {exc.strerror or exc}{where}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
