"""JSON scenario configuration: schema validation and object construction.

A config file fixes the basis, the Hamiltonian terms (builtin operator names
or operator-matrix files), the initial state, the integrator, the time grid,
optional reduction parameters, and output flags.  Validation happens before
any numerics; schema failures carry the JSON pointer of the offending field.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from math import inf, sqrt
from pathlib import Path

import numpy as np

from .dynamics import (
    COEFFICIENT_FIELDS,
    COEFFICIENT_KINDS,
    INTEGRATOR_METHODS,
    CoefficientFn,
    IntegratorSpec,
    TDepHamiltonian,
)
from .errors import NumericError, SchemaError, UnknownOperator
from .hilbert import BASIS_KINDS, BasisSpec, StateVector, coherent_state
from .operators import BUILTIN_OPERATORS, OperatorMatrix, build_named
from .serialize import json_integer, json_number, json_numbers, load_json
from .tolerances import DEFAULT

INITIAL_STATE_KINDS = ("basis_vector", "coherent", "coefficients_file")


@dataclass(frozen=True)
class TermConfig:
    operator: str  # builtin name, or a path ending in .json
    coefficient: CoefficientFn

    @property
    def is_file(self) -> bool:
        return self.operator.endswith(".json") or "/" in self.operator


@dataclass(frozen=True)
class InitialStateConfig:
    kind: str
    index: int = 0
    alpha: complex = 0j
    path: str = ""


@dataclass(frozen=True)
class TimeGrid:
    t0: float
    t1: float
    stride: int


@dataclass(frozen=True)
class ReductionConfig:
    mu: float
    dt_reduced: float


@dataclass(frozen=True)
class OutputFlags:
    coefficients: bool = False
    diagnostics: bool = True


@dataclass(frozen=True)
class SimulationConfig:
    basis: BasisSpec
    terms: tuple  # of TermConfig
    initial_state: InitialStateConfig
    integrator: IntegratorSpec
    time: TimeGrid
    reduction: ReductionConfig | None
    outputs: OutputFlags
    base_dir: Path  # directory the config was loaded from; anchors file refs


def _need(d: dict, key: str, pointer: str):
    if key not in d:
        raise SchemaError(f"{pointer}/{key}", "missing required field")
    return d[key]


def _object(value, pointer: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(pointer, f"expected an object, got {type(value).__name__}")
    return value


def _built(pointer: str, make, *args):
    """make(*args) on outside input; a failure is a SchemaError at pointer."""
    try:
        return make(*args)
    except KeyError as exc:
        raise SchemaError(pointer, f"missing field {exc.args[0]!r}") from exc
    except (ArithmeticError, LookupError, TypeError, ValueError, NumericError) as exc:
        raise SchemaError(pointer, str(exc)) from exc


def _number(value, pointer: str) -> float:
    return _built(pointer, json_number, value)


def _integer(value, pointer: str) -> int:
    return _built(pointer, json_integer, value)


def _from_file(pointer: str, cls, path: Path, basis: BasisSpec):
    """cls.from_json_dict of the file at path, which must be on basis."""
    obj = _built(pointer, cls.from_json_dict, _object(load_json(path), pointer))
    if obj.basis != basis:
        raise SchemaError(pointer, f"{path.name} is on basis {obj.basis.to_json_dict()},"
                                   f" not the config's {basis.to_json_dict()}")
    return obj


def _parse_basis(d, pointer: str) -> BasisSpec:
    d = _object(d, pointer)
    kind = _need(d, "kind", pointer)
    if kind not in BASIS_KINDS:
        raise SchemaError(f"{pointer}/kind", f"unknown basis kind {reprlib.repr(kind)}")
    size = _integer(_need(d, "size", pointer), f"{pointer}/size")
    if size < 1:
        raise SchemaError(f"{pointer}/size", "size must be positive")
    return _built(pointer, BasisSpec.from_json_dict, d)


def _parse_coefficient(d, pointer: str) -> CoefficientFn:
    d = _object(d, pointer)
    kind = _need(d, "kind", pointer)
    if kind not in COEFFICIENT_KINDS:
        raise SchemaError(f"{pointer}/kind", f"unknown coefficient kind {reprlib.repr(kind)}")
    for key, shape in COEFFICIENT_FIELDS[kind].items():
        if key in d:
            value = _built(f"{pointer}/{key}", json_numbers, d[key], key)
            if value.ndim != len(shape) or value.shape[1:] != shape[1:] or 0 in value.shape:
                want = f"have shape ({', '.join(map(str, shape))}), n >= 1" if shape else "be a number"
                raise SchemaError(f"{pointer}/{key}", f"{key} must {want}, got shape {value.shape}")
    return _built(pointer, CoefficientFn.from_json_dict, d)


def _parse_terms(lst, pointer: str) -> tuple:
    if not isinstance(lst, list) or not lst:
        raise SchemaError(pointer, "expected a non-empty array of Hamiltonian terms")
    terms = []
    for k, entry in enumerate(lst):
        here = f"{pointer}/{k}"
        entry = _object(entry, here)
        name = _need(entry, "operator", here)
        if not isinstance(name, str):
            raise SchemaError(f"{here}/operator", "expected a string")
        term = TermConfig(name, _parse_coefficient(_need(entry, "coefficient", here),
                                                   f"{here}/coefficient"))
        if name not in BUILTIN_OPERATORS and not term.is_file:
            raise UnknownOperator(f"{here}/operator", f"unknown operator {reprlib.repr(name)}")
        terms.append(term)
    return tuple(terms)


def _parse_initial_state(d, pointer: str, basis: BasisSpec) -> InitialStateConfig:
    d = _object(d, pointer)
    kind = _need(d, "kind", pointer)
    if kind not in INITIAL_STATE_KINDS:
        raise SchemaError(f"{pointer}/kind", f"unknown initial state kind {reprlib.repr(kind)}")
    if kind == "basis_vector":
        k = _integer(_need(d, "index", pointer), f"{pointer}/index")
        if not 0 <= k < basis.size:
            raise SchemaError(f"{pointer}/index", f"index {k} outside [0, {basis.size})")
        return InitialStateConfig("basis_vector", index=k)
    if kind == "coherent":
        if basis.kind != "hermite1d_orthonormal":
            raise SchemaError(pointer, "coherent initial states need the orthonormal Hermite basis")
        raw = _need(d, "alpha", pointer)
        if isinstance(raw, list):
            if len(raw) != 2:
                raise SchemaError(f"{pointer}/alpha", "expected [re, im]")
            alpha = complex(_number(raw[0], f"{pointer}/alpha/0"),
                            _number(raw[1], f"{pointer}/alpha/1"))
        else:
            alpha = complex(_number(raw, f"{pointer}/alpha"), 0.0)
        return InitialStateConfig("coherent", alpha=alpha)
    path = _need(d, "path", pointer)
    if not isinstance(path, str) or not path:
        raise SchemaError(f"{pointer}/path", "expected a file path")
    return InitialStateConfig("coefficients_file", path=path)


def _parse_integrator(d, pointer: str) -> IntegratorSpec:
    d = _object(d, pointer)
    method = _need(d, "method", pointer)
    if method not in INTEGRATOR_METHODS:
        raise SchemaError(f"{pointer}/method", f"unknown integrator {reprlib.repr(method)}")
    dt = _number(_need(d, "dt", pointer), f"{pointer}/dt")
    if not dt > 0:
        raise SchemaError(f"{pointer}/dt", "dt must be positive")
    return IntegratorSpec(method, dt)


def _parse_time(d, pointer: str) -> TimeGrid:
    d = _object(d, pointer)
    t0 = _number(_need(d, "t0", pointer), f"{pointer}/t0")
    t1 = _number(_need(d, "t1", pointer), f"{pointer}/t1")
    if t1 < t0:
        raise SchemaError(f"{pointer}/t1", f"t1 = {t1} precedes t0 = {t0}")
    stride = _integer(d.get("stride", 1), f"{pointer}/stride")
    if stride < 1:
        raise SchemaError(f"{pointer}/stride", "stride must be >= 1")
    return TimeGrid(t0, t1, stride)


def _parse_reduction(d, pointer: str) -> ReductionConfig:
    d = _object(d, pointer)
    mu = _number(_need(d, "mu", pointer), f"{pointer}/mu")
    if not mu < 0:
        raise SchemaError(f"{pointer}/mu", "mu must be negative")
    norm = sqrt(-2.0 * mu)  # the norm of every state on the level set J = mu
    if not DEFAULT.zero_vector < norm < inf:
        raise SchemaError(f"{pointer}/mu", f"the level-set norm sqrt(-2*mu) = {norm!r} must be"
                                           f" finite and above {DEFAULT.zero_vector!r}")
    dt_reduced = _number(_need(d, "dt_reduced", pointer), f"{pointer}/dt_reduced")
    if not dt_reduced > 0:
        raise SchemaError(f"{pointer}/dt_reduced", "dt_reduced must be positive")
    return ReductionConfig(mu, dt_reduced)


def _parse_outputs(d, pointer: str) -> OutputFlags:
    if d is None:
        return OutputFlags()
    d = _object(d, pointer)
    flags = {}
    for key in ("coefficients", "diagnostics"):
        if key in d:
            if not isinstance(d[key], bool):
                raise SchemaError(f"{pointer}/{key}", "expected a boolean")
            flags[key] = d[key]
    return OutputFlags(**flags)


def parse_config_dict(raw: dict, base_dir: Path) -> SimulationConfig:
    raw = _object(raw, "")
    basis = _parse_basis(_need(raw, "basis", ""), "/basis")
    terms = _parse_terms(_need(raw, "hamiltonian", ""), "/hamiltonian")
    initial = _parse_initial_state(_need(raw, "initial_state", ""), "/initial_state", basis)
    integ = _parse_integrator(_need(raw, "integrator", ""), "/integrator")
    time = _parse_time(_need(raw, "time", ""), "/time")
    reduction = None
    if raw.get("reduction") is not None:
        reduction = _parse_reduction(raw["reduction"], "/reduction")
    outputs = _parse_outputs(raw.get("outputs"), "/outputs")
    return SimulationConfig(basis, terms, initial, integ, time, reduction, outputs, base_dir)


def parse_config(path) -> SimulationConfig:
    return parse_config_dict(load_json(path), Path(path).parent)


def build_hamiltonian(config: SimulationConfig) -> TDepHamiltonian:
    """Resolve term operators (builtins or files) into a TDepHamiltonian;
    an operator that several terms name is built once, at its first term."""
    terms, built = [], {}
    for k, term in enumerate(config.terms):
        key = (term.is_file, term.operator)
        if key not in built:
            here = f"/hamiltonian/{k}/operator"
            if term.is_file:
                built[key] = _from_file(here, OperatorMatrix, config.base_dir / term.operator,
                                        config.basis)
            else:
                built[key] = _built(here, build_named, term.operator, config.basis)
        terms.append((term.coefficient, built[key], term.operator))
    return _built("/hamiltonian", TDepHamiltonian, tuple(terms))


def build_initial_state(config: SimulationConfig) -> StateVector:
    init = config.initial_state
    if init.kind == "basis_vector":
        c = np.zeros(config.basis.size, dtype=np.complex128)
        c[init.index] = 1.0
        return StateVector(config.basis, c)
    if init.kind == "coherent":
        return _built("/initial_state/alpha", coherent_state, init.alpha, config.basis.size)
    psi = _from_file("/initial_state/path", StateVector, config.base_dir / init.path, config.basis)
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(psi.coefficients))
    if not (nrm > DEFAULT.zero_vector and nrm * nrm < inf):  # records divide by the square
        raise SchemaError("/initial_state/path", f"the state in {init.path} has norm {nrm!r};"
                                                 f" it must be above {DEFAULT.zero_vector!r}"
                                                 " and have a finite square")
    return psi
