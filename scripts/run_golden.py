#!/usr/bin/env python3
"""Run every config in configs/ through the batch pipeline.

Scenarios with a reduction block go through the reduce path, the rest through
simulate.  Outputs land in out/<scenario>/ next to the repo root; the summary
numbers that matter (norm drift, momentum drift, reduction residual) are
printed as one line per scenario.

With ``--compare REF_DIR`` every output file is then checked against the file
of the same name under REF_DIR (an earlier run's output root): each prints
either "byte-identical" or the largest absolute difference between the
numbers of the two files, and the script exits 1 unless every file is
byte-identical and present under both roots.
"""

import argparse
import re
import sys
from pathlib import Path

from geoschro.cli import run_reduce, run_simulate
from geoschro.config import parse_config

REPO = Path(__file__).resolve().parent.parent
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def compare(out_root: Path, ref_root: Path) -> bool:
    """One line per output file: byte-identical, or the max absolute numeric
    difference when only the numbers differ.  True when every file is
    byte-identical and present under both roots."""
    rels = sorted({p.relative_to(root) for root in (out_root, ref_root)
                   for p in root.rglob("*") if p.is_file()})
    same = 0
    for rel in rels:
        a, b = out_root / rel, ref_root / rel
        if not (a.is_file() and b.is_file()):
            print(f"{rel}: only under {out_root if a.is_file() else ref_root}")
            continue
        da, db = a.read_bytes(), b.read_bytes()
        if da == db:
            print(f"{rel}: byte-identical")
            same += 1
            continue
        xa, xb = NUMBER.findall(da), NUMBER.findall(db)
        if NUMBER.split(da) != NUMBER.split(db) or len(xa) != len(xb):
            print(f"{rel}: differs beyond its numbers")
            continue
        diff = max(abs(float(u) - float(v)) for u, v in zip(xa, xb))
        print(f"{rel}: max abs numeric difference {diff:.3e}")
    return same == len(rels)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--configs", default=str(REPO / "configs"), help="config directory")
    ap.add_argument("--out", default=str(REPO / "out"), help="output root")
    ap.add_argument("--compare", metavar="REF_DIR", default=None,
                    help="output root of an earlier run to diff the new outputs against")
    args = ap.parse_args(argv)

    config_dir = Path(args.configs)
    out_root = Path(args.out)
    paths = sorted(config_dir.glob("*.json"))
    if not paths:
        print(f"no configs found under {config_dir}", file=sys.stderr)
        return 1

    for path in paths:
        config = parse_config(path)
        out_dir = out_root / path.stem
        if config.reduction is not None:
            summary = run_reduce(config, out_dir)
            print(f"{path.stem:24s} reduce   records {summary['records']:4d}"
                  f"  norm drift {summary['max_norm_drift']:.3e}"
                  f"  residual {summary['max_residual']:.3e}")
        else:
            summary = run_simulate(config, out_dir)
            print(f"{path.stem:24s} simulate records {summary['records']:4d}"
                  f"  norm drift {summary['max_norm_drift']:.3e}"
                  f"  J drift {summary['max_J_drift']:.3e}")
    print(f"outputs under {out_root}/ (gnuplot scripts: <scenario>/plot.gp)")
    if args.compare is not None and not compare(out_root, Path(args.compare)):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
