#!/usr/bin/env python3
"""geoschro benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every CLI run is a fresh child
process (``python3 -m geoschro ...`` with PYTHONPATH pointing at this
checkout's ``src``) with one BLAS thread, timed from outside with wait4 for
wall time, CPU time and peak RSS.  Every output is gated against the frozen
contract bounds (see workloads.py).

--trace 0: five set-up probes, whole passes of the workload until the next
pass would overrun ``--seconds``, five more set-up probes; prints the
end-to-end metrics as medians.  --trace 1: pairs of an untraced pass and a
pass with every layer boundary wrapped in spans (traced.py), until the next
pair would overrun ``--seconds``; prints the per-layer metrics and the
tracing overhead, and checks the traced call counts against the step grids.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The line before it records the machine and thread environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5          # timed set-up probes before and again after the passes
CHILD_DEADLINE_S = 170.0  # a run, children included, ends within this


@dataclass
class ChildRun:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str


@dataclass
class PassResult:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    bytes: int = 0
    digests: dict = field(default_factory=dict)
    report: dict | None = None
    traces: list = field(default_factory=list)   # spans.Trace per traced child


class Runner:
    """Starts children, one at a time, and keeps the attempted/failed tally."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0

    def env(self, geoschro_threads: str | None) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        env.pop("GEOSCHRO_THREADS", None)
        if geoschro_threads is not None:
            env["GEOSCHRO_THREADS"] = geoschro_threads
        return env

    def spawn(self, argv: list[str], env: dict, cwd: Path) -> ChildRun:
        self.attempted += 1
        log = self.work / "child.log"
        with open(log, "w", encoding="utf-8") as out, \
                open(self.work / "child.err", "w", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                    os.kill, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                # wait without reaping, so the timer can never signal a reused pid
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            except BaseException:
                os.kill(proc.pid, signal.SIGKILL)
                raise
            finally:
                timer.cancel()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            wall = time.perf_counter() - start
        stderr = (self.work / "child.err").read_text(encoding="utf-8", errors="replace")
        if proc.returncode != 0:
            sys.stderr.write(f"child exited {proc.returncode}: {' '.join(argv)}\n{stderr[-2000:]}")
        return ChildRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                        usage.ru_maxrss / 1024.0, log.read_text(encoding="utf-8"))

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        for p in problems:
            sys.stderr.write(f"FAIL {p}\n")


def run_pass(runner: Runner, plan: workloads.Plan, tag: str, traced: bool = False,
             reference: dict | None = None) -> PassResult:
    """Run every invocation of the plan once.  Each child is gated on its
    outputs, on byte-identity with the ``reference`` digests of an earlier
    pass of the same inputs (acceptance criterion 11), and, when traced, on
    its spans; a child with any problem counts as one failure."""
    env = runner.env(plan.geoschro_threads)
    result = PassResult()
    for inv in plan.invocations:
        out = runner.work / tag / inv.label
        out.mkdir(parents=True)
        span_file = runner.work / tag / f"{inv.label}.npz"
        if traced:
            prefix = [sys.executable, str(HERE / "traced.py"), str(span_file), "--"]
        else:
            prefix = [sys.executable, "-m", "geoschro"]
        child = runner.spawn(prefix + inv.argv(out), env, out)
        result.wall += child.wall
        result.cpu += child.cpu
        result.rss_mb = max(result.rss_mb, child.rss_mb)
        result.bytes += sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        problems, digest = workloads.check_outputs(inv, out)
        if child.code != 0:
            problems.insert(0, f"{inv.label}: exit code {child.code}")
        if reference is not None and digest != reference.get(inv.label):
            problems.append(f"{inv.label}: outputs differ from the first run of the same inputs")
        if traced:
            problems += _load_spans(inv, span_file, result)
        if problems:
            runner.fail(problems)
        result.digests[inv.label] = digest
        if inv.command == "verify" and not problems:
            result.report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    shutil.rmtree(runner.work / tag)
    return result


def _load_spans(inv: workloads.Invocation, path: Path, result: PassResult) -> list[str]:
    """Read a traced child's spans into ``result``; return its count problems."""
    import spans

    if not path.is_file():
        return [f"{inv.label}: traced run wrote no spans"]
    trace = spans.load(path)
    result.traces.append(trace)
    problems = [f"{inv.label}: {p}" for p in trace.problems]
    if inv.command != "verify":
        config = json.loads(inv.config.read_text(encoding="utf-8"))
        if trace.grids != spans.expected_roots(inv.command, config):
            problems.append(f"{inv.label}: traced step grids differ from the config's")
    return problems


def probe(runner: Runner, plan: workloads.Plan, env_flag: bool = False) -> ChildRun:
    argv = [sys.executable, str(HERE / "probe.py")] + (["--env"] if env_flag else [])
    child = runner.spawn(argv + [str(c) for c in plan.setup_configs],
                         runner.env(plan.geoschro_threads), runner.work)
    if child.code != 0:
        runner.fail([f"set-up probe exited {child.code}"])
    return child


def measure(runner: Runner, plan: workloads.Plan, seconds: int) -> tuple[dict, dict]:
    setups = [probe(runner, plan).wall for _ in range(SETUP_PROBES)]
    window_end = time.monotonic() + seconds
    passes: list[PassResult] = []
    while True:
        began = time.monotonic()
        reference = passes[0].digests if passes else None
        passes.append(run_pass(runner, plan, f"pass{len(passes)}", reference=reference))
        now = time.monotonic()
        if now + (now - began) > window_end:
            break
    # a second batch of probes after the passes samples a later phase of a
    # shared host, whose speed drifts over tens of seconds
    setups += [probe(runner, plan).wall for _ in range(SETUP_PROBES)]
    ok = runner.attempted - runner.failed
    metrics = {
        "run_s": (statistics.median(p.wall for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in passes), "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "pass_rate": (ok / runner.attempted, "ratio"),
    }
    detail = {"passes": len(passes), "run_s_each": [p.wall for p in passes],
              "cpu_s_each": [p.cpu for p in passes], "setup_s_each": setups}
    return metrics, detail


def trace(runner: Runner, plan: workloads.Plan, seconds: int) -> tuple[dict, dict]:
    """Alternate untraced and traced passes until the window is used up; the
    per-layer numbers are medians over the traced passes."""
    window_end = time.monotonic() + seconds
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    while True:
        began = time.monotonic()
        reference = plain[0].digests if plain else None
        plain.append(run_pass(runner, plan, f"plain{len(plain)}", reference=reference))
        traced.append(run_pass(runner, plan, f"traced{len(traced)}", traced=True,
                               reference=plain[0].digests))
        now = time.monotonic()
        if now + (now - began) > window_end:
            break
    layers = [traced_pass_metrics(p) for p in traced]
    metrics = {name: (statistics.median(m[name][0] for m in layers), unit)
               for name, (_, unit) in layers[0].items()}
    overhead = statistics.median(p.wall for p in traced) - statistics.median(p.wall for p in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, {"pairs": len(plain), "untraced_run_s_each": [p.wall for p in plain],
                     "traced_run_s_each": [p.wall for p in traced]}


def traced_pass_metrics(result: PassResult) -> dict:
    """Per-layer metrics of one traced pass."""
    import spans

    metrics = spans.layer_metrics(result.traces)
    write_s = metrics["serialize.write_s"][0]
    metrics["serialize.bytes"] = (result.bytes, "bytes")
    metrics["serialize.mb_per_s"] = (result.bytes / 1e6 / write_s if write_s else 0.0, "MB/s")
    cases = (result.report or {}).get("cases", [])
    metrics["verify.cases"] = (len(cases), "count")
    metrics["verify.failed_cases"] = (sum(not c["pass"] for c in cases), "count")
    metrics["verify.worst_headroom"] = (
        max((c["measured"] / c["bound"] for c in cases), default=0.0), "ratio")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in ("src/geoschro/cli.py", "configs") if not (ROOT / p).exists()]
    if missing:
        print(f"not a geoschro checkout: {ROOT} lacks {', '.join(missing)}", file=sys.stderr)
        return 2

    started = time.monotonic()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(work, started + CHILD_DEADLINE_S)
        (work / "inputs").mkdir()
        plan = workloads.make_plan(args.workload, ROOT, work / "inputs", args.seed)
        warm = probe(runner, plan, env_flag=True)  # also compiles bytecode; untimed
        env_lines = [line for line in warm.stdout.splitlines() if line.startswith('{"env"')]
        env_info = json.loads(env_lines[-1])["env"] if env_lines else {}
        if args.trace:
            metrics, detail = trace(runner, plan, args.seconds)
        else:
            metrics, detail = measure(runner, plan, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print(json.dumps({"workload": args.workload, "seed": args.seed, "env": env_info, **detail}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
