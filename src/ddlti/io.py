"""File formats: trajectory/experiment CSV and system/weights JSON.

Trajectory CSV (identification input): header ``t,u1..um,y1..yp``; one row
per time step with consecutive whole-number t (``3`` or ``3.0``); a missing
sample is a row whose u/y fields are all empty (or ``nan``).

Experiment CSV (state-measured runs for LQR): the same plus state columns
``x1..xn``; the file ends with a terminal row carrying only ``t`` and the
state (u/y empty), so states run one sample longer than inputs.

System JSON: object with keys "A","B","C","D", each a nested row-major
array; an order-0 model has A = B = [].  Weights JSON: keys "Q","R".

One table reader and one table writer (a non-finite cell is blank) serve every
CSV format, one matrix reader every JSON format; no other module opens files.
"""
from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from .errors import InputError, ParseError
from .lti import CorruptedTrajectory, LqrWeights, LtiSystem, StateTrajectory


def _open_text(path, mode="r"):
    try:
        return open(os.fspath(path), mode, newline="")
    except OSError as e:
        raise ParseError(f"cannot open {path}: {e}") from e


def _write_text(destination, text: str) -> None:
    """Write text to a path or to a writable text stream."""
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with _open_text(destination, "w") as fh:
            fh.write(text)


def _checked(path, make):
    """``make()``, with an InputError from the object it builds named by the file."""
    try:
        return make()
    except InputError as e:
        raise ParseError(f"{path}: {e}") from e


def _group_columns(header: list[str], prefix: str) -> list[int]:
    """Indices of columns named prefix1..prefixk, each once, contiguous from 1."""
    found = {}
    for idx, name in enumerate(header):
        name = name.strip()
        if name.startswith(prefix) and name[len(prefix):].isdecimal():
            number = int(name[len(prefix):])
            if number < 1 or number in found:
                raise ParseError(f"CSV header column {name!r}: channels are numbered once, from 1")
            found[number] = idx
    k = max(found, default=0)
    missing = [i for i in range(1, k + 1) if i not in found]
    if missing:
        raise ParseError(f"CSV header has {prefix}{k} but is missing {prefix}{missing[0]}")
    return [found[i] for i in range(1, k + 1)]


def _cell(value: str) -> float:
    """Parse one CSV cell: empty or 'nan' means missing (NaN)."""
    try:
        return float(value) if value.strip() else np.nan
    except ValueError:
        raise ParseError(f"cannot parse numeric field {value!r}") from None


def _read_table(path, *prefixes: str) -> tuple[int, list[np.ndarray]]:
    """(start, blocks) of a ``t,<prefix>1..k,...`` CSV: the first time index,
    and one (rows, k) array per prefix, a blank or 'nan' cell being NaN.  Blank
    lines are skipped, though an error names the line of the file; t must run
    consecutively in whole numbers.  One pass parses each row into one table, whose
    column slices are the blocks, so a file's first fault is the one reported."""
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: file is empty")
        rows = [(reader.line_num, row) for row in reader if any(cell.strip() for cell in row)]
    if not rows:
        raise ParseError(f"{path}: no data rows")
    if not header or header[0].strip() != "t":
        raise ParseError(f"{path}: first CSV column must be 't'")
    groups = [_group_columns(header, prefix) for prefix in prefixes]
    if not all(groups):
        needed = " and ".join(f"{prefix}1.." for prefix in prefixes)
        raise ParseError(f"{path}: header needs {needed} columns")
    cols = [idx for group in groups for idx in group]
    table = np.empty((len(rows), len(cols)))
    for r, (line_no, row) in enumerate(rows):
        try:
            t = float(row[0])
            if not t.is_integer():  # also rejects inf and nan
                raise ValueError
        except (ValueError, IndexError):
            raise ParseError(f"{path}: line {line_no}: bad time index {row[:1]!r}") from None
        start = start if r else int(t)
        if t != start + r:
            raise ParseError(f"{path}: time indices must be consecutive; expected "
                             f"{start + r}, found {int(t)}")
        try:
            table[r] = [_cell(row[idx]) for idx in cols]
        except IndexError:
            raise ParseError(f"{path}: line {line_no}: too few fields") from None
        except ParseError as e:
            raise ParseError(f"{path}: line {line_no}: {e}") from None
    return start, np.split(table, np.cumsum([len(group) for group in groups])[:-1], axis=1)


def _write_table(path, start: int, **blocks: np.ndarray) -> None:
    """Write rows t = start, start+1, ... with each (rows, k) block under
    columns <name>1..<name>k; a non-finite cell is left blank."""
    header = ["t"] + [f"{name}{i + 1}" for name, b in blocks.items() for i in range(b.shape[1])]
    with _open_text(path, "w") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for k, row in enumerate(np.hstack(list(blocks.values())).tolist()):
            w.writerow([start + k] + [repr(v) if math.isfinite(v) else "" for v in row])


def read_trajectory_csv(path) -> CorruptedTrajectory:
    """Load a ``t,u1..um,y1..yp`` record; blank u/y rows become missing samples."""
    start, (u, y) = _read_table(path, "u", "y")
    return _checked(path, lambda: CorruptedTrajectory(u=u, y=y, start_time=start))


def read_inputs_csv(path, m: int) -> tuple[int, np.ndarray]:
    """First time index and complete (T, m) inputs of a ``t,u1..um[,y..]`` CSV."""
    start, (u,) = _read_table(path, "u")
    if u.shape[1] != m:
        raise ParseError(f"{path}: expected u1..u{m} columns")
    if not np.all(np.isfinite(u)):
        raise ParseError(f"{path}: future inputs must be complete")
    return start, u


def write_trajectory_csv(path, ct: CorruptedTrajectory) -> None:
    """Write a record in the trajectory CSV schema (NaN rows become blanks)."""
    _write_table(path, ct.start_time, u=ct.u, y=ct.y)


def read_experiment_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Load a state-measured experiment: returns (states (T+1, n), inputs (T, m)).
    The final row must carry the terminal state only (u fields empty)."""
    _, (u_all, x_all) = _read_table(path, "u", "x")
    if not np.all(np.isfinite(x_all)):
        raise ParseError(f"{path}: state columns must be complete")
    if not np.all(np.isnan(u_all[-1])):
        raise ParseError(f"{path}: the last row must hold the terminal state only "
                         "(leave its input fields empty)")
    u = u_all[:-1]
    if not np.all(np.isfinite(u)):
        raise ParseError(f"{path}: input columns must be complete except the last row")
    if len(u) < 1:
        raise ParseError(f"{path}: an experiment needs at least one input sample")
    return x_all, u


def write_experiment_csv(path, traj: StateTrajectory) -> None:
    """Write a simulated run (inputs, outputs, states, terminal state row)."""
    u, y = (np.vstack([a, np.full((1, a.shape[1]), np.nan)]) for a in (traj.u, traj.y))
    _write_table(path, traj.start_time, u=u, y=y, x=np.vstack([traj.x, traj.final_state]))


def _read_json(path, keys) -> dict[str, np.ndarray]:
    """The 2-D float matrices under ``keys`` of a JSON object; a number is 1x1
    and an empty list has no rows."""
    with _open_text(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top-level JSON value must be an object")
    mats = {}
    for key in keys:
        if key not in obj:
            raise ParseError(f"{path}: missing key {key!r}")
        try:
            M = np.array(obj[key], dtype=float)
        except (TypeError, ValueError):
            raise ParseError(f"{path}: key {key!r} is not a numeric matrix") from None
        if M.ndim == 0 or M.shape == (0,):
            M = M.reshape(M.size, M.size)
        if M.ndim != 2:
            raise ParseError(f"{path}: key {key!r} must be a nested (2-D) array")
        mats[key] = M
    return mats


def read_system_json(path) -> LtiSystem:
    """Load an LtiSystem from {"A","B","C","D"} JSON."""
    mats = _read_json(path, "ABCD")
    if mats["B"].shape == (0, 0):  # order 0: B = [] has as many columns as D
        mats["B"] = mats["B"].reshape(0, mats["D"].shape[1])
    return _checked(path, lambda: LtiSystem(**mats))


def write_system_json(path, sys: LtiSystem) -> None:
    write_json(path, {k: getattr(sys, k) for k in "ABCD"})


def read_weights_json(path) -> LqrWeights:
    """Load LQR weights from {"Q","R"} JSON."""
    mats = _read_json(path, "QR")
    return _checked(path, lambda: LqrWeights(**mats))


def write_json(path, payload: dict) -> None:
    """Write a JSON object, converting arrays and numpy scalars to lists and numbers."""
    _write_text(path, json.dumps(payload, indent=2, default=lambda v: v.tolist()) + "\n")
