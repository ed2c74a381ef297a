"""Trajectory and summary output: JSONL (authoritative), CSV mirrors for
gnuplot, summary JSON, and the gnuplot script emitter.

Every number is written as Python's shortest round-trip float repr, so
identical runs produce byte-identical files.  Scalars and small records go
through the json module; the coefficient arrays of trajectory records go
through floatrepr.join_reprs, byte for byte the same repr, a batch of records
per call.  NaN and Infinity are not JSON: writing one raises NumericError,
reading one raises ParseError.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import LengthMismatch, MissingInput, NumericError, ParseError
from .floatrepr import join_reprs

TRAJECTORY_CSV_HEADER = "# t,norm,norm_drift,J,energy"
RAYS_CSV_HEADER = "# t,fs_distance_to_initial,fs_residual"


# Floats per join_reprs call: enough to spread its per-call cost, few enough
# that its temporaries stay small next to the records being written.
_BATCH_FLOATS = 4096

_COMPACT = json.JSONEncoder(separators=(",", ":"), allow_nan=False)
_INDENTED = json.JSONEncoder(indent=2, allow_nan=False)


def _encode(encoder: json.JSONEncoder, obj) -> str:
    """JSON text of obj; NaN and Infinity are not JSON, so they raise."""
    try:
        return encoder.encode(obj)
    except ValueError as exc:
        raise NumericError(f"non-finite number in output: {exc}") from exc


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token} is not a finite number")
    return value


def json_number(value, name: str = "value") -> float:
    """value as a float when it is a JSON number; a bool, a string or any
    other type is a TypeError naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    return float(value)


def json_numbers(value, name: str = "value") -> np.ndarray:
    """value as a float64 array when it is a JSON number, or a JSON array of
    them nested to any depth.  A bool, a string or any other leaf is a
    TypeError naming the field, the first in document order; a ragged array,
    or one deeper than numpy allows, is a ValueError.  The walk keeps its own
    stack, so no nesting depth overflows Python's."""
    stack, element = [value], f"{name} element"
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(reversed(item))
        else:
            json_number(item, name if item is value else element)
    return np.asarray(value, dtype=np.float64)


def json_complex(d: dict) -> np.ndarray:
    """re + 1j*im from the arrays of JSON numbers d["re"] and d["im"]; arrays
    of different shapes are a LengthMismatch, never broadcast."""
    re, im = json_numbers(d["re"], "re"), json_numbers(d["im"], "im")
    if re.shape != im.shape:
        raise LengthMismatch("re/im arrays differ in length")
    return re + 1j * im


def json_integer(value, name: str = "value") -> int:
    """value when it is a JSON integer; a bool, a float or a string is a
    TypeError naming the field."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    return value


def load_json(path) -> object:
    """The JSON value in the file at path.  A missing or non-UTF-8 file is
    MissingInput; bad JSON, NaN or Infinity spelled out or overflowed, or
    nesting deeper than the decoder's recursion allows, is a ParseError
    naming the file."""
    path = Path(path)
    if not path.is_file():
        raise MissingInput(str(path))
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MissingInput(f"{path}: {exc}") from exc
    try:
        return json.loads(text, parse_constant=_finite_float, parse_float=_finite_float)
    except (RecursionError, ValueError) as exc:  # json.JSONDecodeError included
        raise ParseError(f"{path}: {exc}") from exc


def dumps_compact(obj) -> str:
    return _encode(_COMPACT, obj)


def write_jsonl(path: Path, dicts) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for d in dicts:
            fh.write(dumps_compact(d))
            fh.write("\n")


def write_trajectory_jsonl(path: Path, records, include_coefficients: bool) -> None:
    """One JSON object per record: t, norm, J and energy, then with
    include_coefficients the state's "re" and "im" arrays."""
    if not include_coefficients:
        write_jsonl(path, (r.to_json_dict() for r in records))
        return
    size = records[0].state.coefficients.size if records else 1
    per_batch = max(1, _BATCH_FLOATS // size)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, len(records), per_batch):
            batch = records[start:start + per_batch]
            c = np.array([r.state.coefficients for r in batch])
            for r, re, im in zip(batch, join_reprs(c.real), join_reprs(c.imag)):
                fh.write(f'{dumps_compact(r.to_json_dict())[:-1]},"re":[{re}],"im":[{im}]}}\n')


def write_trajectory_csv(path: Path, records) -> None:
    norm0 = records[0].norm
    lines = [TRAJECTORY_CSV_HEADER]
    for r in records:
        lines.append(",".join(repr(v) for v in (r.t, r.norm, r.norm - norm0, r.momentum_J, r.energy)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_rays_jsonl(path: Path, records) -> None:
    write_jsonl(path, (r.to_json_dict() for r in records))


def write_rays_csv(path: Path, records, residuals) -> None:
    lines = [RAYS_CSV_HEADER]
    for r, res in zip(records, residuals):
        lines.append(",".join(repr(v) for v in (r.t, r.fs_distance_to_initial, res)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_summary(path: Path, summary: dict) -> None:
    path.write_text(_encode(_INDENTED, summary) + "\n", encoding="utf-8")


_STANZA = """set output "{png}"
set ylabel "{label}"
plot "{csv}" using 1:{column} with linespoints pointtype 7 pointsize 0.3
"""


def emit_plot_script(summary_path) -> Path:
    """Write plot.gp next to the summary; one stanza per diagnostic curve.

    The script reads the CSV mirrors named in the summary's "files" block.
    A summary that is not an object, or whose "files" is not an object of
    file names, is a ParseError; a missing mirror is reported, by path.
    Both are raised before anything is written.
    """
    summary_path = Path(summary_path)
    summary = load_json(summary_path)
    out_dir = summary_path.parent
    files = summary.get("files", {}) if isinstance(summary, dict) else None
    if not (isinstance(files, dict) and all(isinstance(v, str) for v in files.values())):
        raise ParseError(f"{summary_path}: not a summary with a \"files\" object of file names")

    stanzas = []
    traj = files.get("trajectory_csv")
    if traj is not None:
        if not (out_dir / traj).is_file():
            raise MissingInput(str(out_dir / traj))
        stanzas.append(_STANZA.format(png="norm_drift.png", label="norm drift", csv=traj, column=3))
        stanzas.append(_STANZA.format(png="energy.png", label="energy", csv=traj, column=5))
        stanzas.append(_STANZA.format(png="momentum_J.png", label="J", csv=traj, column=4))
    rays = files.get("rays_csv")
    if rays is not None:
        if not (out_dir / rays).is_file():
            raise MissingInput(str(out_dir / rays))
        stanzas.append(_STANZA.format(png="fs_residual.png", label="Fubini-Study residual",
                                      csv=rays, column=3))

    header = (
        "# gnuplot script; run from this directory: gnuplot plot.gp\n"
        "set datafile separator \",\"\n"
        "set terminal pngcairo size 900,540\n"
        "set key off\n"
        "set xlabel \"t\"\n\n"
    )
    script_path = out_dir / "plot.gp"
    script_path.write_text(header + "\n".join(stanzas), encoding="utf-8")
    return script_path
