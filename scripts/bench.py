#!/usr/bin/env python3
"""Run the benchmark traced and untraced and write one BENCH_<tag>.json.

    python3 scripts/bench.py --tag 13 [--seed 1] [--seconds 15]

For each workload, runs ``perfbench/run.py --trace 0`` and ``--trace 1`` as
child processes from the root of this checkout and reads the last JSON line
of each run (the result: gates passed, and every metric as a median over the
run's passes) and the line before it (the environment).  The file holds both
result lines per workload, the traced call counts, and the environment of
the first run.  Exits 1 when a run fails or reports ``correct: false``.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("golden_cli", "verify_all", "large_basis", "coefficient_dump")


def run_once(workload: str, seed: int, seconds: int, trace: int):
    """(result line, environment line) of one perfbench run, or None when it
    exits non-zero or prints neither."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=REPO, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(f"{' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1]), json.loads(lines[-2])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", required=True, help="the file is BENCH_<tag>.json in the repo root")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    args = ap.parse_args(argv)

    bench = {"seed": args.seed, "seconds": args.seconds, "env": None, "workloads": {}}
    for workload in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            run = run_once(workload, args.seed, args.seconds, trace)
            if run is None:
                return 1
            entry[f"trace{trace}"], env_line = run
            bench["env"] = bench["env"] or env_line["env"]
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
