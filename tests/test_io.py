import json
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ddlti as dd
from ddlti.cli import main
from conftest import RECORD_CSV, random_system


# --- trajectory CSV ---------------------------------------------------------

def test_read_fixture_record():
    ct = dd.read_trajectory_csv(RECORD_CSV)
    assert (ct.length, ct.m, ct.p) == (20, 1, 1)
    assert list(ct.missing_times) == [5, 12, 19]
    assert ct.u[0, 0] == 1.0 and ct.y[0, 0] == 3.0


def test_trajectory_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    u = rng.standard_normal((9, 2))
    y = rng.standard_normal((9, 3))
    u[4] = y[4] = np.nan
    ct = dd.CorruptedTrajectory(u=u, y=y, start_time=-3)
    path = tmp_path / "rec.csv"
    dd.write_trajectory_csv(path, ct)
    back = dd.read_trajectory_csv(path)
    assert back.start_time == -3
    assert_allclose(back.u, u)
    assert_allclose(back.y, y)


def test_records_start_at_a_whole_time_and_round_trip(tmp_path):
    # A fractional start time would be written as t = 1.5, 2.5, ..., which
    # the reader refuses; so the records refuse it, and take numpy integers.
    u = np.arange(6.0).reshape(3, 2)
    for make in (lambda t: dd.CorruptedTrajectory(u=u, y=u[:, :1], start_time=t),
                 lambda t: dd.StateTrajectory(u=u, x=u, y=u[:, :1], final_state=[0, 0],
                                              start_time=t)):
        with pytest.raises(dd.InputError, match=r"^start_time must be an integer, got 1\.5$"):
            make(1.5)
        record = make(np.int64(4))
        assert type(record.start_time) is int and record.start_time == 4
    ct = dd.CorruptedTrajectory(u=u, y=u[:, :1], start_time=np.int32(7))
    dd.write_trajectory_csv(tmp_path / "rec.csv", ct)
    assert dd.read_trajectory_csv(tmp_path / "rec.csv").start_time == 7
    traj = dd.StateTrajectory(u=u, x=u, y=u[:, :1], final_state=[0, 0], start_time=np.int64(2))
    dd.write_experiment_csv(tmp_path / "exp.csv", traj)
    assert (tmp_path / "exp.csv").read_text().splitlines()[1].startswith("2,")
    x, back = dd.read_experiment_csv(tmp_path / "exp.csv")
    assert_allclose(back, u)
    assert_allclose(x, np.vstack([u, [0, 0]]))


def test_trajectory_nan_spelled_out(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("t,u1,y1\n0,1,2\n1,nan,NaN\n2,3,4\n")
    ct = dd.read_trajectory_csv(path)
    assert list(ct.missing_times) == [1]


def test_trajectory_rejects_gap_in_time(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("t,u1,y1\n0,1,2\n2,3,4\n")
    with pytest.raises(dd.ParseError, match="consecutive"):
        dd.read_trajectory_csv(path)


@pytest.mark.parametrize("cell", ["inf", "nan", "1.5"])
def test_trajectory_rejects_non_integer_time(tmp_path, cell):
    path = tmp_path / "rec.csv"
    path.write_text(f"t,u1,y1\n0,1,2\n{cell},3,4\n")
    with pytest.raises(dd.ParseError, match="line 3: bad time index"):
        dd.read_trajectory_csv(path)


def test_trajectory_accepts_whole_float_time(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("t,u1,y1\n3.0,1,2\n4,3,4\n")
    assert dd.read_trajectory_csv(path).start_time == 3


def test_trajectory_rejects_partial_row(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("t,u1,y1\n0,1,2\n1,,4\n")
    with pytest.raises(dd.ParseError, match="partially"):
        dd.read_trajectory_csv(path)


def test_trajectory_rejects_bad_header(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("time,u1,y1\n0,1,2\n")
    with pytest.raises(dd.ParseError, match="'t'"):
        dd.read_trajectory_csv(path)
    path.write_text("t,u1\n0,1\n")
    with pytest.raises(dd.ParseError, match="y1"):
        dd.read_trajectory_csv(path)
    path.write_text("t,u1,u3,y1\n0,1,2,3\n")
    with pytest.raises(dd.ParseError, match="missing u2"):
        dd.read_trajectory_csv(path)


def test_header_refuses_a_repeated_channel(tmp_path, capsys):
    # Reading one of the two u1 columns would drop the other without a word.
    path = tmp_path / "rec.csv"
    path.write_text("t,u1,u1,y1\n0,1,2,3\n")
    with pytest.raises(dd.ParseError, match=r"^CSV header column 'u1': channels are numbered "
                                            r"once, from 1$"):
        dd.read_trajectory_csv(path)
    assert main(["identify", str(path)]) == 1
    assert "error: CSV header column 'u1'" in capsys.readouterr().err


def test_header_refuses_a_channel_numbered_0(tmp_path, capsys):
    # Channels count from 1, so u0 would be dropped without a word.
    path = tmp_path / "rec.csv"
    path.write_text("t,u0,u1,y1\n0,1,2,3\n")
    with pytest.raises(dd.ParseError, match=r"^CSV header column 'u0': channels are numbered "
                                            r"once, from 1$"):
        dd.read_trajectory_csv(path)
    assert main(["identify", str(path)]) == 1
    assert "error: CSV header column 'u0'" in capsys.readouterr().err


def test_the_first_fault_in_the_file_is_reported(tmp_path):
    # One pass reads each row's time and cells together, so a bad cell on
    # line 3 is reported before a bad time index on line 5.
    path = tmp_path / "rec.csv"
    path.write_text("t,u1,y1\n0,1,2\n1,one,4\n2,5,6\n3.5,7,8\n")
    with pytest.raises(dd.ParseError, match=r"rec.csv: line 3: cannot parse numeric field 'one'$"):
        dd.read_trajectory_csv(path)


def test_trajectory_rejects_garbage_field(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("t,u1,y1\n0,one,2\n")
    with pytest.raises(dd.ParseError, match="rec.csv: line 2: cannot parse numeric field 'one'"):
        dd.read_trajectory_csv(path)


def test_error_lines_count_blank_lines(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("t,u1,y1\n\n\n0,1,2\n1.5,3,4\n")
    with pytest.raises(dd.ParseError, match=r"rec.csv: line 5: bad time index \['1.5'\]"):
        dd.read_trajectory_csv(path)
    path.write_text("t,u1,y1\n0,1,2\n\n1,3\n")
    with pytest.raises(dd.ParseError, match="rec.csv: line 4: too few fields"):
        dd.read_trajectory_csv(path)


def test_trajectory_rejects_empty_file(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("")
    with pytest.raises(dd.ParseError, match="empty"):
        dd.read_trajectory_csv(path)
    path.write_text("t,u1,y1\n")
    with pytest.raises(dd.ParseError, match="no data"):
        dd.read_trajectory_csv(path)


def test_trajectory_missing_file():
    with pytest.raises(dd.ParseError, match="cannot open"):
        dd.read_trajectory_csv("/nonexistent/rec.csv")


def test_read_inputs_with_and_without_outputs(tmp_path):
    path = tmp_path / "future.csv"
    path.write_text("t,u1,u2\n4,1,2\n5,3,4\n")
    start, u = dd.read_inputs_csv(path, 2)
    assert start == 4
    assert_allclose(u, [[1.0, 2.0], [3.0, 4.0]])
    path.write_text("t,u1,y1\n0,1.5,\n1,-2,7\n")
    start, u = dd.read_inputs_csv(path, 1)
    assert start == 0
    assert_allclose(u, [[1.5], [-2.0]])


def test_read_inputs_rejects_incomplete_or_wrong_width(tmp_path):
    path = tmp_path / "future.csv"
    path.write_text("t,u1\n0,1\n1,\n2,0\n")
    with pytest.raises(dd.ParseError, match="future inputs must be complete"):
        dd.read_inputs_csv(path, 1)
    with pytest.raises(dd.ParseError, match="expected u1..u2 columns"):
        dd.read_inputs_csv(path, 2)


# --- experiment CSV ---------------------------------------------------------

def test_experiment_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    sys = random_system(rng, 3, 2, 1)
    traj = dd.simulate(sys, rng.standard_normal(3), rng.standard_normal((7, 2)))
    path = tmp_path / "exp.csv"
    dd.write_experiment_csv(path, traj)
    x, u = dd.read_experiment_csv(path)
    assert x.shape == (8, 3) and u.shape == (7, 2)
    assert_allclose(u, traj.u)
    assert_allclose(x[:-1], traj.x)
    assert_allclose(x[-1], traj.final_state)


def test_experiment_requires_terminal_row(tmp_path):
    path = tmp_path / "exp.csv"
    path.write_text("t,u1,x1\n0,1,0\n1,2,1\n")
    with pytest.raises(dd.ParseError, match="terminal"):
        dd.read_experiment_csv(path)


def test_experiment_requires_complete_states(tmp_path):
    path = tmp_path / "exp.csv"
    path.write_text("t,u1,x1\n0,1,0\n1,,\n")
    with pytest.raises(dd.ParseError, match="state columns"):
        dd.read_experiment_csv(path)


def test_experiment_requires_complete_inputs(tmp_path):
    path = tmp_path / "exp.csv"
    path.write_text("t,u1,x1\n0,1,0\n1,,2\n2,,3\n")
    with pytest.raises(dd.ParseError, match="input columns"):
        dd.read_experiment_csv(path)


def test_experiment_needs_an_input_row(tmp_path):
    path = tmp_path / "exp.csv"
    path.write_text("t,u1,x1\n0,,1\n")
    message = f"{path}: an experiment needs at least one input sample"
    with pytest.raises(dd.ParseError, match=f"^{re.escape(message)}$"):
        dd.read_experiment_csv(path)


def test_experiment_without_state_columns(tmp_path):
    path = tmp_path / "exp.csv"
    path.write_text("t,u1,y1\n0,1,2\n1,,\n")
    with pytest.raises(dd.ParseError, match="x1"):
        dd.read_experiment_csv(path)


# --- system JSON ------------------------------------------------------------

def test_system_json_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    for n in (4, 0):  # an order-0 model is written with A = B = []
        sys = random_system(rng, n, 2, 3)
        path = tmp_path / "sys.json"
        dd.write_system_json(path, sys)
        back = dd.read_system_json(path)
        for key in ("A", "B", "C", "D"):
            assert getattr(back, key).shape == getattr(sys, key).shape
            assert_allclose(getattr(back, key), getattr(sys, key))


def test_system_json_missing_key(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"A": [[1]], "B": [[1]], "C": [[1]]}))
    with pytest.raises(dd.ParseError, match="'D'"):
        dd.read_system_json(path)


def test_system_json_ragged_matrix(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text('{"A": [[1, 2], [3]], "B": [[1]], "C": [[1]], "D": [[0]]}')
    with pytest.raises(dd.ParseError):
        dd.read_system_json(path)


def test_system_json_inconsistent_shapes(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text('{"A": [[1]], "B": [[1], [2]], "C": [[1]], "D": [[0]]}')
    with pytest.raises(dd.ParseError):
        dd.read_system_json(path)


def test_system_json_three_dimensional_key(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text('{"A": [[[1]]], "B": [[1]], "C": [[1]], "D": [[0]]}')
    message = f"{path}: key 'A' must be a nested (2-D) array"
    with pytest.raises(dd.ParseError, match=f"^{re.escape(message)}$"):
        dd.read_system_json(path)


def test_system_json_not_an_object(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(dd.ParseError, match="object"):
        dd.read_system_json(path)
    path.write_text("{not json")
    with pytest.raises(dd.ParseError, match="invalid JSON"):
        dd.read_system_json(path)


# --- weights JSON -----------------------------------------------------------

def test_weights_json(tmp_path):
    path = tmp_path / "w.json"
    path.write_text('{"Q": [[2.0, 0.0], [0.0, 1.0]], "R": [[0.5]]}')
    w = dd.read_weights_json(path)
    assert_allclose(w.Q, [[2.0, 0.0], [0.0, 1.0]])
    assert_allclose(w.R, [[0.5]])


def test_weights_json_rejects_indefinite_r(tmp_path):
    path = tmp_path / "w.json"
    path.write_text('{"Q": [[1.0]], "R": [[-1.0]]}')
    with pytest.raises(dd.ParseError):
        dd.read_weights_json(path)


def test_weights_json_scalar_promoted(tmp_path):
    path = tmp_path / "w.json"
    path.write_text('{"Q": 1.0, "R": 2.0}')
    w = dd.read_weights_json(path)
    assert w.Q.shape == (1, 1) and w.R[0, 0] == 2.0
