"""Truncated separable Hilbert spaces.

A state is a finite coefficient vector over a named basis.  The real chart
splits coefficients into (q, p) pairs, the symplectic form is Im<.|.> of the
directions, and the tautological one-form theta = sum_j p_j dq^j satisfies
d(theta) = -omega.  All truncations are finite-dimensional, so the symplectic
form is strong; no weak-form handling is needed.

Every basis is orthonormal in L^2, so the Hermitian product of coefficient
vectors is the Hilbert-space product.  Basis enumeration orders (frozen; all
file formats reference them):

* ``hermite1d_orthonormal``: phi_n(x) = H_n(x) exp(-x^2/2) / (pi^(1/4) 2^(n/2)
  sqrt(n!)), n = 0..N-1.
* ``fourier_interval``: on [-l, l], index 2k is (1/sqrt(l)) sin(pi(k+1)x/l)
  and index 2k+1 is (1/sqrt(l)) cos(pi k x / l), k = 0, 1, ..., except index
  1 (k = 0), the constant 1/sqrt(2l).
* ``hermite3d_degree``: tensor products phi_{n1} phi_{n2} phi_{n3} with
  n1+n2+n3 <= d, ordered by total degree and then ascending lexicographically
  in (n1, n2, n3); N = C(d+3, 3).
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, factorial, sqrt

import numpy as np

from .errors import BasisMismatch, LengthMismatch, UnsupportedBasis, ZeroVector
from .serialize import json_complex, json_integer, json_number

BASIS_KINDS = (
    "hermite1d_orthonormal",
    "fourier_interval",
    "hermite3d_degree",
)


@dataclass(frozen=True)
class BasisSpec:
    kind: str
    size: int
    interval_halflength: float | None = None
    degree: int | None = None

    def __post_init__(self):
        if self.kind not in BASIS_KINDS:
            raise UnsupportedBasis(f"unknown basis kind: {reprlib.repr(self.kind)}")
        if self.size < 1:
            raise ValueError("basis size must be >= 1")
        if self.kind == "fourier_interval":
            if self.interval_halflength is None or self.interval_halflength <= 0:
                raise ValueError("fourier_interval needs a positive halflength")
        if self.kind == "hermite3d_degree":
            if self.degree is None or self.degree < 0:
                raise ValueError("hermite3d_degree needs a degree >= 0")
            if comb(self.degree + 3, 3) != self.size:
                raise ValueError("hermite3d size must equal C(degree+3, 3)")

    @staticmethod
    def hermite(size: int) -> "BasisSpec":
        return BasisSpec("hermite1d_orthonormal", size)

    @staticmethod
    def fourier(size: int, halflength: float) -> "BasisSpec":
        return BasisSpec("fourier_interval", size, interval_halflength=float(halflength))

    @staticmethod
    def hermite3d(degree: int) -> "BasisSpec":
        return BasisSpec("hermite3d_degree", comb(degree + 3, 3), degree=degree)

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind, "size": self.size}
        if self.interval_halflength is not None:
            out["interval_halflength"] = self.interval_halflength
        if self.degree is not None:
            out["degree"] = self.degree
        return out

    @staticmethod
    def from_json_dict(d: dict) -> "BasisSpec":
        """size and degree must be JSON integers, interval_halflength a JSON
        number; each is kept as written."""
        halflength, degree = d.get("interval_halflength"), d.get("degree")
        if halflength is not None:
            json_number(halflength, "interval_halflength")
        return BasisSpec(
            kind=d["kind"],
            size=json_integer(d["size"], "size"),
            interval_halflength=halflength,
            degree=None if degree is None else json_integer(degree, "degree"),
        )


@lru_cache(maxsize=32)
def hermite3d_index_tuples(degree: int) -> tuple[tuple[int, int, int], ...]:
    """(n1, n2, n3) with n1+n2+n3 <= degree, by total degree, then lexicographically."""
    return tuple((n1, n2, total - n1 - n2) for total in range(degree + 1)
                 for n1 in range(total + 1) for n2 in range(total - n1 + 1))


@dataclass(frozen=True, eq=False)
class StateVector:
    basis: BasisSpec
    coefficients: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=np.complex128)
        if c.ndim != 1:
            raise LengthMismatch("coefficients must be one-dimensional")
        if c.shape[0] != self.basis.size:
            raise LengthMismatch(
                f"expected {self.basis.size} coefficients, got {c.shape[0]}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite coefficients")
        object.__setattr__(self, "coefficients", c)

    def to_json_dict(self) -> dict:
        return {
            "basis": self.basis.to_json_dict(),
            "re": self.coefficients.real.tolist(),
            "im": self.coefficients.imag.tolist(),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "StateVector":
        return StateVector(BasisSpec.from_json_dict(d["basis"]), json_complex(d))


@dataclass(frozen=True, eq=False)
class RealChartPoint:
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64)
        p = np.asarray(self.p, dtype=np.float64)
        if q.shape != p.shape or q.ndim != 1:
            raise LengthMismatch("q and p must be equal-length 1-d arrays")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A tangent vector (psi, psi_dot) under the T_psi H ~ H identification."""

    base_point: StateVector
    direction: StateVector

    def __post_init__(self):
        if self.base_point.basis != self.direction.basis:
            raise BasisMismatch("tangent direction must share the base-point basis")


def inner(psi: StateVector, phi: StateVector) -> complex:
    """Hermitian product <psi|phi>, antilinear in the first argument."""
    if psi.basis != phi.basis:
        raise BasisMismatch("inner product requires matching bases")
    return complex(np.vdot(psi.coefficients, phi.coefficients))


def norm(psi: StateVector) -> float:
    return float(np.linalg.norm(psi.coefficients))


def symplectic_form(u: TangentVector, v: TangentVector) -> float:
    """omega(u, v) = Im <u.direction | v.direction> at a common base point."""
    if u.base_point.basis != v.base_point.basis:
        raise BasisMismatch("symplectic form requires matching bases")
    if not np.array_equal(u.base_point.coefficients, v.base_point.coefficients):
        raise BasisMismatch("symplectic form requires a common base point")
    return inner(u.direction, v.direction).imag


def to_real_chart(psi: StateVector) -> RealChartPoint:
    """Coefficient chart q_j = Re c_j, p_j = Im c_j: isometric, as every basis
    is orthonormal."""
    c = psi.coefficients
    return RealChartPoint(c.real.copy(), c.imag.copy())


def chart_norm(x: RealChartPoint) -> float:
    return float(sqrt(np.dot(x.q, x.q) + np.dot(x.p, x.p)))


def tautological_one_form(x: RealChartPoint, u: TangentVector) -> float:
    """theta_x(u) = sum_j p_j(x) * q^j(u.direction)."""
    du = u.direction.coefficients
    if x.p.shape[0] != du.shape[0]:
        raise LengthMismatch("chart point and direction lengths differ")
    return float(np.dot(x.p, du.real))


def coherent_state(alpha: complex, size: int) -> StateVector:
    """Displaced Gaussian in the orthonormal Hermite basis: c_n = e^{-|alpha|^2/2}
    alpha^n / sqrt(n!), truncated at `size` terms, then scaled to unit norm."""
    n = np.arange(size)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, size)))))
    mod = np.exp(-abs(alpha) ** 2 / 2.0 + n * np.log(abs(alpha)) - log_fact / 2.0) if alpha != 0 \
        else np.concatenate(([1.0], np.zeros(size - 1)))
    phase = np.exp(1j * n * np.angle(alpha)) if alpha != 0 else np.ones(size)
    c = mod * phase
    nrm = np.linalg.norm(c)
    if nrm == 0.0:
        raise ZeroVector(f"coherent amplitudes underflow at alpha={alpha!r}, size {size}")
    return StateVector(BasisSpec.hermite(size), c / nrm)


def monomial_gaussian_state(m: int, size: int) -> StateVector:
    """x^m e^{-x^2/2} expanded in the orthonormal Hermite basis (exact:
    the expansion terminates at index m)."""
    if m >= size:
        raise LengthMismatch("monomial degree must be below the truncation size")
    from numpy.polynomial import hermite as H

    d = H.poly2herm(np.concatenate((np.zeros(m), [1.0])))
    c = np.zeros(size, dtype=np.complex128)
    for k, dk in enumerate(d):
        c[k] = dk * np.pi ** 0.25 * 2 ** (k / 2.0) * sqrt(float(factorial(k)))
    return StateVector(BasisSpec.hermite(size), c)
