"""Trajectory and summary output: JSONL (authoritative), CSV mirrors for
gnuplot, summary JSON, and the gnuplot script emitter.

All numbers pass through Python's shortest round-trip float repr via the json
module, so identical runs produce byte-identical files.  NaN and Infinity are
not JSON: writing one raises NumericError, reading one raises ParseError.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .errors import MissingInput, NumericError, ParseError

TRAJECTORY_CSV_HEADER = "# t,norm,norm_drift,J,energy"
RAYS_CSV_HEADER = "# t,fs_distance_to_initial,fs_residual"


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


def load_json(path) -> object:
    """The JSON value in the file at path.  A missing or non-UTF-8 file is
    MissingInput; bad JSON, or NaN or Infinity spelled out or overflowed, is a
    ParseError naming the file."""
    path = Path(path)
    if not path.is_file():
        raise MissingInput(str(path))
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MissingInput(f"{path}: {exc}") from exc
    try:
        return json.loads(text, parse_constant=_finite_float, parse_float=_finite_float)
    except ValueError as exc:  # json.JSONDecodeError included
        raise ParseError(f"{path}: {exc}") from exc


def dumps_compact(obj) -> str:
    return _encode(_COMPACT, obj)


def write_jsonl(path: Path, dicts) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for d in dicts:
            fh.write(dumps_compact(d))
            fh.write("\n")


def write_trajectory_jsonl(path: Path, records, include_coefficients: bool) -> None:
    write_jsonl(path, (r.to_json_dict(include_coefficients) for r in records))


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
    A missing mirror is reported, by path, before anything is written.
    """
    summary_path = Path(summary_path)
    summary = load_json(summary_path)
    out_dir = summary_path.parent
    files = summary.get("files", {})

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
