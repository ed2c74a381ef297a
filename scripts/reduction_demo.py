#!/usr/bin/env python3
"""Reduction consistency demo: ray flow downstairs vs unitary flow upstairs.

For a driven oscillator the script integrates both flows at a ladder of step
sizes and prints the worst Fubini-Study distance between the projected
unitary trajectory and the independently integrated projector trajectory,
plus the worst projector drifts of the RK4 steps, before each re-projection.
"""

import argparse
import sys

from geoschro.dynamics import IntegratorSpec, oscillator_hamiltonian
from geoschro.hilbert import coherent_state
from geoschro.reduction import paired_records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", type=int, default=32)
    ap.add_argument("--t1", type=float, default=5.0)
    ap.add_argument("--mu", type=float, default=-0.5)
    ap.add_argument("--alpha", type=float, default=0.5)
    ap.add_argument("--amplitude", type=float, default=0.05)
    ap.add_argument("--dt0", type=float, default=4e-3, help="coarsest step")
    ap.add_argument("--levels", type=int, default=3)
    args = ap.parse_args(argv)

    H = oscillator_hamiltonian(args.size, drive=args.amplitude)
    psi0 = coherent_state(args.alpha, args.size)

    print(f"size {args.size}, mu {args.mu}, T {args.t1}")
    print(f"{'dt':>10s} {'residual':>13s} {'trace':>10s} {'herm':>10s} {'idem':>10s}")
    previous = None
    for k in range(args.levels):
        dt = args.dt0 / 2 ** k
        stride = max(1, round(0.5 / dt))  # record roughly every 0.5 time units
        _, _, drifts, residuals = paired_records(H, psi0, args.mu, IntegratorSpec("magnus2", dt),
                                                 dt, 0.0, args.t1, stride=stride)
        residual = max(residuals)
        note = "" if previous is None or residual == 0.0 else \
            f"   x{previous / residual:.1f} down"
        print(f"{dt:10.2e} {residual:13.3e} {drifts['trace']:10.1e}"
              f" {drifts['hermiticity']:10.1e} {drifts['idempotency']:10.1e}{note}")
        previous = residual
    return 0


if __name__ == "__main__":
    sys.exit(main())
