"""File formats: trajectory/experiment CSV and system/weights JSON.

Trajectory CSV (identification input): header ``t,u1..um,y1..yp``; one row
per time step with consecutive integer t; a missing sample is a row whose
u/y fields are all empty (or ``nan``).

Experiment CSV (state-measured runs for LQR): the same plus state columns
``x1..xn``; the file ends with a terminal row carrying only ``t`` and the
state (u/y empty), so states run one sample longer than inputs.

System JSON: object with keys "A","B","C","D", each a nested row-major
array.  Weights JSON: keys "Q","R".
"""
from __future__ import annotations

import csv
import json
import os

import numpy as np

from .errors import ParseError
from .ident import CorruptedTrajectory
from .lti import LtiSystem, StateTrajectory
from .lqr import LqrWeights


def _open_text(path, mode="r"):
    try:
        return open(os.fspath(path), mode, newline="")
    except OSError as e:
        raise ParseError(f"cannot open {path}: {e}") from e


def _group_columns(header: list[str], prefix: str) -> list[int]:
    """Indices of columns named prefix1..prefixk, validated contiguous from 1."""
    found = {}
    for idx, name in enumerate(header):
        name = name.strip()
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            found[int(name[len(prefix):])] = idx
    if not found:
        return []
    k = max(found)
    missing = [i for i in range(1, k + 1) if i not in found]
    if missing:
        raise ParseError(
            f"CSV header has {prefix}{k} but is missing {prefix}{missing[0]}"
        )
    return [found[i] for i in range(1, k + 1)]


def _cell(value: str) -> float:
    """Parse one CSV cell: empty or 'nan' means missing (NaN)."""
    s = value.strip()
    if not s or s.lower() == "nan":
        return np.nan
    try:
        return float(s)
    except ValueError:
        raise ParseError(f"cannot parse numeric field {value!r}") from None


def _read_rows(path):
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: file is empty") from None
        rows = [row for row in reader if any(cell.strip() for cell in row)]
    if not rows:
        raise ParseError(f"{path}: no data rows")
    if not header or header[0].strip() != "t":
        raise ParseError(f"{path}: first CSV column must be 't'")
    return header, rows


def _parse_times(path, rows) -> int:
    times = []
    for line_no, row in enumerate(rows, start=2):
        try:
            times.append(int(float(row[0])))
        except (ValueError, IndexError):
            raise ParseError(f"{path}: line {line_no}: bad time index {row[:1]!r}") from None
    start = times[0]
    for k, t in enumerate(times):
        if t != start + k:
            raise ParseError(
                f"{path}: time indices must be consecutive; expected "
                f"{start + k}, found {t}"
            )
    return start


def _collect(path, rows, cols) -> np.ndarray:
    out = np.empty((len(rows), len(cols)))
    for r, row in enumerate(rows):
        for c, idx in enumerate(cols):
            if idx >= len(row):
                raise ParseError(f"{path}: line {r + 2}: too few fields")
            out[r, c] = _cell(row[idx])
    return out


def read_trajectory_csv(path) -> CorruptedTrajectory:
    """Load a ``t,u1..um,y1..yp`` record; blank u/y rows become missing samples."""
    header, rows = _read_rows(path)
    u_cols = _group_columns(header, "u")
    y_cols = _group_columns(header, "y")
    if not u_cols or not y_cols:
        raise ParseError(f"{path}: header needs u1.. and y1.. columns")
    start = _parse_times(path, rows)
    u = _collect(path, rows, u_cols)
    y = _collect(path, rows, y_cols)
    try:
        return CorruptedTrajectory(u=u, y=y, start_time=start)
    except Exception as e:
        raise ParseError(f"{path}: {e}") from e


def read_inputs_csv(path, m: int) -> tuple[int, np.ndarray]:
    """First time index and complete (T, m) inputs of a ``t,u1..um[,y..]`` CSV."""
    header, rows = _read_rows(path)
    u_cols = _group_columns(header, "u")
    if len(u_cols) != m:
        raise ParseError(f"{path}: expected u1..u{m} columns")
    start = _parse_times(path, rows)
    u = _collect(path, rows, u_cols)
    if not np.all(np.isfinite(u)):
        raise ParseError(f"{path}: future inputs must be complete")
    return start, u


def write_trajectory_csv(path, ct: CorruptedTrajectory) -> None:
    """Write a record in the trajectory CSV schema (NaN rows become blanks)."""
    with _open_text(path, "w") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"u{i + 1}" for i in range(ct.m)]
                   + [f"y{i + 1}" for i in range(ct.p)])
        present = ct.present
        for k in range(ct.length):
            row = [ct.start_time + k]
            if present[k]:
                row += [repr(float(v)) for v in ct.u[k]]
                row += [repr(float(v)) for v in ct.y[k]]
            else:
                row += [""] * (ct.m + ct.p)
            w.writerow(row)


def read_experiment_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Load a state-measured experiment: returns (states (T+1, n), inputs (T, m)).

    The final row must carry the terminal state only (u fields empty).
    """
    header, rows = _read_rows(path)
    u_cols = _group_columns(header, "u")
    x_cols = _group_columns(header, "x")
    if not u_cols or not x_cols:
        raise ParseError(f"{path}: header needs u1.. and x1.. columns")
    _parse_times(path, rows)
    u_all = _collect(path, rows, u_cols)
    x_all = _collect(path, rows, x_cols)
    if not np.all(np.isfinite(x_all)):
        raise ParseError(f"{path}: state columns must be complete")
    if not np.all(np.isnan(u_all[-1])):
        raise ParseError(
            f"{path}: the last row must hold the terminal state only "
            "(leave its input fields empty)"
        )
    u = u_all[:-1]
    if not np.all(np.isfinite(u)):
        raise ParseError(f"{path}: input columns must be complete except the last row")
    if len(rows) < 2:
        raise ParseError(f"{path}: an experiment needs at least one input sample")
    return x_all, u


def write_experiment_csv(path, traj: StateTrajectory) -> None:
    """Write a simulated run (inputs, outputs, states, terminal state row)."""
    m, p, n = traj.u.shape[1], traj.y.shape[1], traj.x.shape[1]
    with _open_text(path, "w") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"u{i + 1}" for i in range(m)]
                   + [f"y{i + 1}" for i in range(p)]
                   + [f"x{i + 1}" for i in range(n)])
        for k in range(traj.length):
            w.writerow([traj.start_time + k]
                       + [repr(float(v)) for v in traj.u[k]]
                       + [repr(float(v)) for v in traj.y[k]]
                       + [repr(float(v)) for v in traj.x[k]])
        w.writerow([traj.start_time + traj.length] + [""] * (m + p)
                   + [repr(float(v)) for v in traj.final_state])


def _json_load(path) -> dict:
    with _open_text(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top-level JSON value must be an object")
    return obj


def _json_matrix(obj: dict, key: str, path) -> np.ndarray:
    if key not in obj:
        raise ParseError(f"{path}: missing key {key!r}")
    try:
        M = np.array(obj[key], dtype=float)
    except (TypeError, ValueError):
        raise ParseError(f"{path}: key {key!r} is not a numeric matrix") from None
    if M.ndim == 0:
        M = M.reshape(1, 1)
    if M.ndim != 2:
        raise ParseError(f"{path}: key {key!r} must be a nested (2-D) array")
    return M


def read_system_json(path) -> LtiSystem:
    """Load an LtiSystem from {"A","B","C","D"} JSON."""
    obj = _json_load(path)
    mats = {k: _json_matrix(obj, k, path) for k in ("A", "B", "C", "D")}
    try:
        return LtiSystem(**mats)
    except Exception as e:
        raise ParseError(f"{path}: {e}") from e


def write_system_json(path, sys: LtiSystem) -> None:
    with _open_text(path, "w") as fh:
        json.dump({k: getattr(sys, k).tolist() for k in ("A", "B", "C", "D")},
                  fh, indent=2)
        fh.write("\n")


def read_weights_json(path) -> LqrWeights:
    """Load LQR weights from {"Q","R"} JSON."""
    obj = _json_load(path)
    try:
        return LqrWeights(Q=_json_matrix(obj, "Q", path),
                          R=_json_matrix(obj, "R", path))
    except ParseError:
        raise
    except Exception as e:
        raise ParseError(f"{path}: {e}") from e


def write_json(path, payload: dict) -> None:
    """Write a JSON object, converting arrays to nested lists."""
    def conv(v):
        if isinstance(v, np.ndarray):
            return v.tolist()
        if isinstance(v, (np.floating, np.integer)):
            return v.item()
        if isinstance(v, dict):
            return {k: conv(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [conv(x) for x in v]
        return v
    with _open_text(path, "w") as fh:
        json.dump(conv(payload), fh, indent=2)
        fh.write("\n")
