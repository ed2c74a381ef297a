#!/usr/bin/env python3
"""Step-size convergence scan for the stepped integrators.

Autonomous runs use exact_eig as the reference; driven runs use Richardson
extrapolation of the finest magnus2 pair, which stays valid while both
integrators are second order.  Prints the error ladder and the observed
order between consecutive levels.
"""

import argparse
import sys

import numpy as np

from geoschro.dynamics import IntegratorSpec, oscillator_hamiltonian, propagate
from geoschro.hilbert import coherent_state


def final_state(H, psi0, method, dt, t1):
    return propagate(H, psi0, IntegratorSpec(method, dt), 0.0, t1,
                     stride=10 ** 9)[-1].state.coefficients


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", type=int, default=32)
    ap.add_argument("--t1", type=float, default=1.0)
    ap.add_argument("--alpha", type=float, default=0.5, help="coherent displacement")
    ap.add_argument("--dt0", type=float, default=4e-2, help="coarsest step")
    ap.add_argument("--levels", type=int, default=4)
    ap.add_argument("--driven", action="store_true")
    args = ap.parse_args(argv)

    H = oscillator_hamiltonian(args.size, drive=0.05 if args.driven else 0.0)
    psi0 = coherent_state(args.alpha, args.size)
    dts = [args.dt0 / 2 ** k for k in range(args.levels)]

    methods = ("magnus2", "cayley2")
    if args.driven:
        fine = final_state(H, psi0, "magnus2", dts[-1] / 4, args.t1)
        finer = final_state(H, psi0, "magnus2", dts[-1] / 8, args.t1)
        reference = (4.0 * finer - fine) / 3.0
        print(f"driven, Richardson reference from dt = {dts[-1] / 8:g}")
    else:
        reference = final_state(H, psi0, "exact_eig", args.t1, args.t1)
        print("autonomous, exact_eig reference")

    for method in methods:
        errors = []
        for dt in dts:
            out = final_state(H, psi0, method, dt, args.t1)
            errors.append(float(np.linalg.norm(out - reference)))
        print(f"\n{method}:")
        for k, (dt, err) in enumerate(zip(dts, errors)):
            order = "" if k == 0 or errors[k] == 0.0 else \
                f"  order {np.log2(errors[k - 1] / errors[k]):5.2f}"
            print(f"  dt {dt:9.2e}  error {err:.6e}{order}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
