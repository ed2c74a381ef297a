"""Centralized numerical tolerances.

Every threshold used by the library lives here so a run can tighten or relax
them in one place (the CLI exposes --tol key=value overrides).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ParseError


@dataclass(frozen=True)
class Tolerances:
    # matrix symmetry checks
    hermiticity: float = 1e-10          # plain-matrix pre-check before eigendecomposition
    flag_check: float = 1e-12           # constructor symmetry-flag verification
    skew_check: float = 1e-10           # flow-commutator skew-Hermiticity pre-check

    # eigendecomposition / unitary step quality
    eig_residual: float = 1e-10         # |H V - V diag(w)| relative to |H|
    orthonormality: float = 1e-12       # |V^H V - I|

    # state / ray handling
    support: float = 1e-12              # coefficient modulus counted as support
    phase: float = 1e-12                # first coefficient used for ray phase fixing
    ray_norm: float = 1e-13             # ray representative unit-norm check
    zero_vector: float = 1e-14          # norm below this is "zero"

    # averages and energies
    imag_part: float = 1e-13            # allowed imaginary residue of <psi|A psi>

    # reduction
    level_set: float = 1e-12            # |J(psi) - mu| on level-set points
    tangency: float = 1e-10             # |T_psi J(v)| <= tangency*|psi||v|
    rank_dominance: float = 0.99        # dominant eigenvalue floor before re-projection

    def replace(self, **kwargs) -> "Tolerances":
        return dataclasses.replace(self, **kwargs)


DEFAULT = Tolerances()


def parse_overrides(pairs) -> Tolerances:
    """Build a Tolerances from DEFAULT plus ``key=value`` strings.  An unknown
    key, or a value that is not a finite non-negative number, is a ParseError:
    NaN would fail every gate and infinity would switch one off."""
    fields = {f.name for f in dataclasses.fields(Tolerances)}
    updates = {}
    for pair in pairs:
        key, _, value = pair.partition("=")
        key = key.strip()
        if key not in fields:
            raise ParseError(f"bad --tol override: unknown tolerance key: {key!r}")
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if not (math.isfinite(number) and number >= 0):
            raise ParseError(f"bad --tol override: {key} needs a finite number >= 0,"
                             f" got {value.strip()!r}")
        updates[key] = number
    return DEFAULT.replace(**updates)
