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
import re
from pathlib import Path

import numpy as np

from .errors import LengthMismatch, MissingInput, NumericError, ParseError, quoted_path
from .floatrepr import join_reprs

TRAJECTORY_CSV_HEADER = "# t,norm,norm_drift,J,energy"
RAYS_CSV_HEADER = "# t,fs_distance_to_initial,fs_residual"


# Floats per join_reprs call: enough to spread its per-call cost, few enough
# that its temporaries stay small next to the records being written.
_BATCH_FLOATS = 4096
# join_reprs batches a TrajectoryWriter formats per flush, about 1 MB of
# states: flushing after every batch formats measurably slower on a long
# coefficient dump, and holding every record grows with the run.
_FLUSH_BATCHES = 16

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
    """The JSON value in the file at path.  A file that is missing, that the
    OS cannot open (a name too long for the filesystem included) or that is
    not UTF-8 is MissingInput; bad JSON, NaN or Infinity spelled out or
    overflowed, or nesting deeper than the decoder's recursion allows, is a
    ParseError naming the file.  Messages quote the path through
    errors.quoted_path, so they stay one short line."""
    path = Path(path)
    try:
        if not path.is_file():
            raise MissingInput(path)
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise MissingInput(path, exc.strerror) from exc
    except UnicodeDecodeError as exc:
        raise MissingInput(path, str(exc)) from exc
    try:
        return json.loads(text, parse_constant=_finite_float, parse_float=_finite_float)
    except (RecursionError, ValueError) as exc:  # json.JSONDecodeError included
        raise ParseError(f"{quoted_path(path)}: {exc}") from exc


def dumps_compact(obj) -> str:
    return _encode(_COMPACT, obj)


def _batch_records(r) -> int:
    """Records per join_reprs batch, for records of r's size."""
    return max(1, _BATCH_FLOATS // r.state.coefficients.size)


def write_trajectory_jsonl(fh, records, include_coefficients: bool) -> None:
    """One JSON line per record to the open text file fh: t, norm, J and
    energy, then with include_coefficients the state's "re" and "im" arrays,
    formatted one join_reprs batch of records at a time."""
    if not include_coefficients:
        fh.writelines(dumps_compact(r.to_json_dict()) + "\n" for r in records)
        return

    def lines():
        per_batch = _batch_records(records[0]) if records else 1
        for start in range(0, len(records), per_batch):
            batch = records[start:start + per_batch]
            c = np.array([r.state.coefficients for r in batch])
            for r, re, im in zip(batch, join_reprs(c.real), join_reprs(c.imag)):
                yield f'{dumps_compact(r.to_json_dict())[:-1]},"re":[{re}],"im":[{im}]}}\n'

    fh.writelines(lines())


def write_trajectory_csv(fh, records, norm0: float) -> None:
    """One CSV line per record to the open text file fh: t, norm, the norm's
    drift from norm0, J and energy."""
    fh.writelines(",".join(repr(v) for v in (r.t, r.norm, r.norm - norm0, r.momentum_J, r.energy))
                  + "\n" for r in records)


class TrajectoryWriter:
    """trajectory.jsonl and trajectory.csv in ``directory``, streamed one
    record at a time: a TrajectoryWriter is a ``propagate`` sink, and its
    memory does not grow with the record count.  It keeps only the running
    maxima of the run summary (``summary``), the last record and the records
    waiting for the next flush, which writes _FLUSH_BATCHES join_reprs
    batches of them (about 1 MB of states) at once, so the formatting keeps
    the locality of long batches instead of interleaving with the steps,
    through write_trajectory_jsonl and write_trajectory_csv.
    Used as a context manager: the pending records are written on a clean
    exit, and the files are closed either way."""

    def __init__(self, directory: Path, include_coefficients: bool):
        self.include_coefficients = include_coefficients
        self.pending: list = []
        self.flush_at = 0        # pending records per flush, set by the first record
        self.records = 0
        self.first = self.last = None  # (norm, J) of the first record; the last record
        self.max_norm_drift = self.max_J_drift = 0.0  # the first record's drift is 0.0
        self.jsonl = open(directory / "trajectory.jsonl", "w", encoding="utf-8", newline="\n")
        try:
            self.csv = open(directory / "trajectory.csv", "w", encoding="utf-8", newline="\n")
        except BaseException:
            self.jsonl.close()
            raise
        self.csv.write(TRAJECTORY_CSV_HEADER + "\n")

    def __enter__(self) -> "TrajectoryWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self.flush()
        finally:
            self.jsonl.close()
            self.csv.close()

    def __call__(self, r) -> None:
        if self.first is None:
            self.first = r.norm, r.momentum_J
            self.flush_at = _FLUSH_BATCHES * _batch_records(r)
        norm0, J0 = self.first
        self.records += 1
        self.max_norm_drift = max(self.max_norm_drift, abs(r.norm - norm0))
        self.max_J_drift = max(self.max_J_drift, abs(r.momentum_J - J0))
        self.last = r
        self.pending.append(r)
        if len(self.pending) >= self.flush_at:
            self.flush()

    def flush(self) -> None:
        write_trajectory_jsonl(self.jsonl, self.pending, self.include_coefficients)
        write_trajectory_csv(self.csv, self.pending, self.first[0])
        self.pending.clear()

    def summary(self) -> dict:
        """records, max_norm_drift, max_J_drift and final: the trajectory
        keys of summary.json."""
        return {"records": self.records, "max_norm_drift": self.max_norm_drift,
                "max_J_drift": self.max_J_drift, "final": self.last.to_json_dict()}


def write_rays_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(dumps_compact(r.to_json_dict()) + "\n" for r in records)


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

# The curves of each CSV mirror: (png, y label, CSV column).
_CURVES = {
    "trajectory_csv": (("norm_drift.png", "norm drift", 3), ("energy.png", "energy", 5),
                       ("momentum_J.png", "J", 4)),
    "rays_csv": (("fs_residual.png", "Fubini-Study residual", 3),),
}

# What a gnuplot double-quoted string cannot hold verbatim: its quote, its
# escape character and control characters.
_NOT_GNUPLOT_QUOTABLE = re.compile(r'["\\\x00-\x1f\x7f-\x9f]')


def emit_plot_script(summary_path) -> Path:
    """Write plot.gp next to the summary; one stanza per diagnostic curve.

    The script reads the CSV mirrors named in the summary's "files" block.
    A summary that is not an object, or whose "files" is not an object of
    file names, is a ParseError, and so is a mirror's name that a gnuplot
    double-quoted string cannot hold verbatim (a quote, a backslash or a
    control character); a missing mirror is reported, by path.  All are
    raised before anything is written.
    """
    summary_path = Path(summary_path)
    summary = load_json(summary_path)
    out_dir = summary_path.parent
    files = summary.get("files", {}) if isinstance(summary, dict) else None
    if not (isinstance(files, dict) and all(isinstance(v, str) for v in files.values())):
        raise ParseError(f"{quoted_path(summary_path)}: not a summary with a \"files\" object"
                         " of file names")

    stanzas = []
    for key, curves in _CURVES.items():
        csv = files.get(key)
        if csv is None:
            continue
        if _NOT_GNUPLOT_QUOTABLE.search(csv):
            raise ParseError(f"{quoted_path(summary_path)}: {key} {quoted_path(csv)} cannot be"
                             " written into a gnuplot string")
        if not (out_dir / csv).is_file():
            raise MissingInput(out_dir / csv)
        stanzas.extend(_STANZA.format(png=png, label=label, csv=csv, column=column)
                       for png, label, column in curves)

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
