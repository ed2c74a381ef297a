#!/usr/bin/env python3
"""Run the benchmark traced and untraced and write one BENCH_<tag>.json, or
time this checkout against another in alternated pairs.

    python3 scripts/bench.py --tag 13 [--seed 1] [--seconds 15]
    python3 scripts/bench.py --pairs 10 --against OTHER_CHECKOUT [--workload golden_cli]
                             [--seed 1] [--seconds 15]

For each workload, --tag runs ``perfbench/run.py --trace 0`` and
``--trace 1`` as child processes from the root of this checkout and reads the
last JSON line of each run (the result: gates passed, and every metric as a
median over the run's passes) and the line before it (the environment).  The
file holds both result lines per workload, the traced call counts, and the
environment of the first run, with the value of PYTHONDONTWRITEBYTECODE
(null when unset) added: the children inherit it, and when it is set none of
them reads or writes bytecode caches, and every CLI run and set-up probe
recompiles geoschro.

--pairs runs ``perfbench/run.py --trace 0`` of one workload, or of every
workload one after another when --workload is not given, in the other
checkout (the base) and in this one (the change), each from its own root,
alternating which side runs first from pair to pair.  It prints the value of
PYTHONDONTWRITEBYTECODE first, then for each workload its name, every pair's
end-to-end metrics (the ``end_to_end`` list of BENCHMARK.json), and for each
metric each side's median and quartiles and a verdict: "regression" when the
change's median is worse than the base's by more than the metric's bound,
relative to the base's median; else "unresolved" when either side's quartile
spread, relative to the same median, exceeds the bound, unless every change
run reads better than every base run; else "within bound".  For every metric
it also prints the change's wins, in the metric's direction (``better`` in
BENCHMARK.json): a gain holds when the change wins at least nine tenths of
the pairs, ties counting for neither, and its median is better than the
base's by more than the distance between the base's quartiles.  The last
line is the workload's result as JSON, with each metric's gain under
``gain``.

Exits 1 when a run fails or reports ``correct: false``, or when a metric is
a regression on any workload.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("golden_cli", "verify_all", "large_basis", "coefficient_dump")


def bytecode_env() -> dict:
    """PYTHONDONTWRITEBYTECODE as every child run inherits it, None when unset."""
    return {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def run_once(workload: str, seed: int, seconds: int, trace: int, root: Path = REPO):
    """(result line, environment line) of one perfbench run from the checkout
    at ``root``, or None when it exits non-zero or prints neither."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(f"{' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1]), json.loads(lines[-2])


def _quartiles(base: list, change: list) -> tuple:
    """Each side's median and quartiles, for the same pairs of runs."""
    if len(base) != len(change) or len(base) < 2:
        raise ValueError("need the same number of runs on each side, at least two")

    def summary(runs):
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
        return {"median": median, "q1": q1, "q3": q3}

    return summary(base), summary(change)


def pair_stats(base: list, change: list, better: str = "lower") -> dict:
    """The gain rule on one metric's values of the same pairs, ``better``
    "lower" or "higher": each side's median and quartiles, the change's wins
    and ties, the gap by which its median is better, and whether the gain
    holds."""
    b, c = _quartiles(base, change)
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * c < sign * b for b, c in zip(base, change))
    ties = sum(c == b for b, c in zip(base, change))
    spread = b["q3"] - b["q1"]
    gap = sign * (b["median"] - c["median"]) + 0.0  # + 0.0: no "-0" for equal medians
    return {"pairs": len(base), "wins": wins, "ties": ties, "base": b, "change": c,
            "gap": gap, "base_iqr": spread,
            "holds": wins >= math.ceil(0.9 * len(base)) and gap > spread}


def metric_verdict(spec: dict, base: list, change: list) -> dict:
    """The no-regression rule for one ``end_to_end`` entry of BENCHMARK.json
    on the same pairs of runs: each side's median and quartiles, how much
    worse the change's median is and how wide the spread, both relative to
    the base's median, and the verdict (see the module docstring)."""
    b, c = _quartiles(base, change)
    sign = 1.0 if spec["better"] == "lower" else -1.0
    worse = sign * (c["median"] - b["median"]) / abs(b["median"])
    spread = max(b["q3"] - b["q1"], c["q3"] - c["q1"]) / abs(b["median"])
    separated = max(sign * v for v in change) < min(sign * v for v in base)
    if worse > spec["bound"]:
        verdict = "regression"
    elif spread > spec["bound"] and not separated:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"base": b, "change": c, "worse": worse, "spread": spread, "bound": spec["bound"],
            "verdict": verdict}


def run_pairs(pairs: int, against: Path, workload, seed: int, seconds: int) -> int:
    """The pairs of ``workload``, or of every workload when it is None; 1 when
    a run fails or a metric is a regression on any of them."""
    specs = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    print(f"env {json.dumps(bytecode_env())}", flush=True)
    return max([_workload_pairs(pairs, against, name, seed, seconds, specs)
                for name in (WORKLOADS if workload is None else (workload,))])


def _workload_pairs(pairs: int, against: Path, workload: str, seed: int, seconds: int,
                    specs: list) -> int:
    runs = {spec["name"]: {"base": [], "change": []} for spec in specs}
    roots = {"base": against.resolve(), "change": REPO}
    print(f"workload {workload}", flush=True)
    for k in range(pairs):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        for side in order:
            run = run_once(workload, seed, seconds, 0, roots[side])
            if run is None or not run[0]["correct"]:
                print(f"{workload} pair {k + 1}: the {side} run failed", file=sys.stderr)
                return 1
            for name, sides in runs.items():
                sides[side].append(run[0]["metrics"][name]["value"])
        print(f"pair {k + 1} ({order[0]} first): " + ", ".join(
            f"{name} {sides['base'][-1]:.4g}/{sides['change'][-1]:.4g}"
            for name, sides in runs.items()), flush=True)
    verdicts = {}
    for spec in specs:
        name = spec["name"]
        v = verdicts[name] = metric_verdict(spec, runs[name]["base"], runs[name]["change"])
        b, c = v["base"], v["change"]
        print(f"{name} ({spec['unit']}, {spec['better']} is better): base median "
              f"{b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}], change median {c['median']:.4g} "
              f"[{c['q1']:.4g}, {c['q3']:.4g}]; worse by {v['worse']:+.1%}, spread "
              f"{v['spread']:.1%}, bound {v['bound']:.0%}: {v['verdict']}")
    gains = {}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        st = gains[name] = pair_stats(runs[name]["base"], runs[name]["change"], spec["better"])
        print(f"{name}: change wins {st['wins']} of {st['pairs']} (ties {st['ties']}); median "
              f"gap {st['gap']:.4g} {unit} against base IQR {st['base_iqr']:.4g} {unit}: gain "
              f"{'holds' if st['holds'] else 'not shown'}")
    print(json.dumps({"workload": workload, "seed": seed, "seconds": seconds, "runs": runs,
                      "verdicts": verdicts, "gain": gains}))
    return 1 if any(v["verdict"] == "regression" for v in verdicts.values()) else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", help="the file is BENCH_<tag>.json in the repo root")
    ap.add_argument("--pairs", type=int, help="alternated base/change pairs to run")
    ap.add_argument("--against", type=Path, help="root of the base checkout for --pairs")
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="the workload for --pairs (default: every workload)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    args = ap.parse_args(argv)
    if args.pairs is not None:
        if args.against is None or args.pairs < 2:
            ap.error("--pairs needs at least 2 pairs and --against")
        return run_pairs(args.pairs, args.against, args.workload, args.seed, args.seconds)
    if args.tag is None:
        ap.error("give --tag or --pairs")

    bench = {"seed": args.seed, "seconds": args.seconds, "env": None, "workloads": {}}
    for workload in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            run = run_once(workload, args.seed, args.seconds, trace)
            if run is None:
                return 1
            entry[f"trace{trace}"], env_line = run
            bench["env"] = bench["env"] or {**env_line["env"], **bytecode_env()}
        entry["call_counts"] = {name: m["value"] for name, m in entry["trace1"]["metrics"].items()
                                if m["unit"] == "count"}
        bench["workloads"][workload] = entry
        print(f"{workload}: run_s {entry['trace0']['metrics']['run_s']['value']:.3f} s, "
              f"correct {entry['trace0']['correct'] and entry['trace1']['correct']}")
    out = REPO / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    ok = all(e[mode]["correct"] for e in bench["workloads"].values() for mode in ("trace0", "trace1"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
