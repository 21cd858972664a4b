import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ddlti as dd
from ddlti.cli import main
from conftest import RECORD_CSV, SHORT_RUNS_CSV, unstabilized_runs


@pytest.fixture
def fixture_system_json(tmp_path, known_system):
    path = tmp_path / "sys.json"
    dd.write_system_json(path, known_system)
    return str(path)


@pytest.fixture
def reactor_json(tmp_path, reactor):
    path = tmp_path / "reactor.json"
    dd.write_system_json(path, reactor)
    return str(path)


@pytest.fixture
def eye_weights_json(tmp_path):
    path = tmp_path / "weights.json"
    path.write_text('{"Q": [[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]], '
                    '"R": [[1,0],[0,1]]}')
    return str(path)


def reactor_experiment_files(tmp_path, reactor, n=5, length=6, seed=0):
    rng = np.random.default_rng(seed)
    exps = dd.generate_experiments(reactor, n, length, pe_order=5, rng=rng)
    paths = []
    for i, traj in enumerate(exps):
        path = tmp_path / f"exp{i}.csv"
        dd.write_experiment_csv(path, traj)
        paths.append(str(path))
    return paths


# --- identify ---------------------------------------------------------------

def test_identify_fixture(tmp_path, capsys, known_system):
    out = tmp_path / "model.json"
    rc = main(["identify", str(RECORD_CSV), "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "estimated order: 2" in text
    sys_hat = dd.read_system_json(out)
    assert sys_hat.n == 2
    assert_allclose(dd.markov_parameters(sys_hat, 8),
                    dd.markov_parameters(known_system, 8), atol=1e-8)


def test_identify_short_runs(tmp_path, capsys, short_runs_system):
    # No run reaches the 5 samples an order-5 excitation test needs; the
    # depth-2 windows of all four runs still determine the system.
    out = tmp_path / "model.json"
    rc = main(["identify", str(SHORT_RUNS_CSV), "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "segments used (start, length): [(0, 4), (5, 4), (10, 4), (15, 4)]" in text
    assert "estimated order: 2" in text
    assert_allclose(dd.markov_parameters(dd.read_system_json(out), 8),
                    dd.markov_parameters(short_runs_system, 8), atol=1e-8)


def test_identify_static_model_feeds_generate(tmp_path, capsys):
    # y = 3u has order 0; its model (A = B = []) must read back for generate.
    u = np.random.default_rng(0).standard_normal((30, 1))
    record, model, out = tmp_path / "static.csv", tmp_path / "m.json", tmp_path / "g.csv"
    dd.write_trajectory_csv(record, dd.CorruptedTrajectory(u=u, y=3 * u))
    assert main(["identify", str(record), "--out", str(model)]) == 0
    assert "estimated order: 0" in capsys.readouterr().out
    assert main(["generate", "--system", str(model), "--length", "5", "--out", str(out)]) == 0
    ct = dd.read_trajectory_csv(out)
    assert ct.length == 5
    assert_allclose(ct.y, 3 * ct.u, rtol=1e-12)


def test_identify_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,u1,y1\n0,1,2\n")
    assert main(["identify", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_identify_infinite_time_index(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,u1,y1\n0,1,2\ninf,3,4\n")
    assert main(["identify", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_identify_missing_file(capsys):
    assert main(["identify", "/no/such/file.csv"]) == 1


def test_identify_order_undetermined(tmp_path, capsys):
    # every other sample missing: all segments have length one
    u = np.arange(10.0).reshape(-1, 1)
    y = np.arange(10.0).reshape(-1, 1)
    u[1::2] = np.nan
    y[1::2] = np.nan
    path = tmp_path / "sparse.csv"
    dd.write_trajectory_csv(path, dd.CorruptedTrajectory(u=u, y=y))
    assert main(["identify", str(path)]) == 5


# --- pe-check ---------------------------------------------------------------

def test_pe_check_passes(capsys):
    rc = main(["pe-check", str(RECORD_CSV), "--order", "5"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "collectively exciting of order 5: yes" in text
    assert "segment 0" in text and "segment 2" in text


def test_pe_check_order_too_deep(capsys):
    rc = main(["pe-check", str(RECORD_CSV), "--order", "8"])
    assert rc == 2
    assert "no" in capsys.readouterr().out


def test_pe_check_rank_shortfall(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    dd.write_trajectory_csv(path, dd.CorruptedTrajectory(
        u=np.ones((12, 1)), y=np.zeros((12, 1))))
    rc = main(["pe-check", str(path), "--order", "2"])
    assert rc == 2
    assert "rank 1 of 2 required" in capsys.readouterr().out


def test_pe_check_refuses_a_test_above_the_memory_limit(tmp_path, capsys):
    side = math.isqrt(dd.hankel.MAX_EXCITATION_BYTES // 8) + 1
    path = tmp_path / "long.csv"
    u = np.random.default_rng(0).standard_normal((2 * side, 1))
    dd.write_trajectory_csv(path, dd.CorruptedTrajectory(u=u, y=u))
    assert main(["pe-check", str(path), "--order", "2"]) == 1
    assert f"excitation test needs a {side} x {side + 1} matrix" in capsys.readouterr().err


# --- generate ---------------------------------------------------------------

def test_generate_deterministic(tmp_path, fixture_system_json):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["generate", "--system", fixture_system_json, "--seed", "7",
                 "--out", str(a)]) == 0
    assert main(["generate", "--system", fixture_system_json, "--seed", "7",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    main(["generate", "--system", fixture_system_json, "--seed", "8",
          "--out", str(c)])
    assert a.read_bytes() != c.read_bytes()


def test_generate_missing_rows(tmp_path, fixture_system_json, known_system):
    out = tmp_path / "rec.csv"
    rc = main(["generate", "--system", fixture_system_json, "--length", "20",
               "--missing", "3,9", "--seed", "1", "--out", str(out)])
    assert rc == 0
    ct = dd.read_trajectory_csv(out)
    assert list(ct.missing_times) == [3, 9]
    # the generated record identifies back to the generating system
    result = dd.identify(ct)
    assert result.order == 2
    assert_allclose(result.markov, dd.markov_parameters(known_system, 5),
                    atol=1e-8)


def test_generate_states_roundtrip(tmp_path, reactor_json):
    out = tmp_path / "exp.csv"
    rc = main(["generate", "--system", reactor_json, "--length", "6",
               "--states", "--out", str(out)])
    assert rc == 0
    x, u = dd.read_experiment_csv(out)
    assert x.shape == (7, 4) and u.shape == (6, 2)


def test_generate_states_rejects_missing(tmp_path, reactor_json, capsys):
    rc = main(["generate", "--system", reactor_json, "--states",
               "--missing", "2", "--out", str(tmp_path / "x.csv")])
    assert rc == 1


def test_generate_missing_out_of_range(tmp_path, fixture_system_json):
    rc = main(["generate", "--system", fixture_system_json, "--length", "5",
               "--missing", "9", "--out", str(tmp_path / "x.csv")])
    assert rc == 1


# --- dd-simulate ------------------------------------------------------------

def test_dd_simulate_impulse_completion(tmp_path, capsys):
    past = tmp_path / "past.csv"
    past.write_text("t,u1,y1\n-2,0,0\n-1,0,0\n")
    future = tmp_path / "future.csv"
    future.write_text("t,u1\n0,1\n1,0\n2,0\n3,0\n4,0\n")
    out = tmp_path / "cont.csv"
    rc = main(["dd-simulate", str(RECORD_CSV), "--past", str(past),
               "--future", str(future), "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "estimated order 2; using window depth 3" in text
    cont = dd.read_trajectory_csv(out)
    assert cont.start_time == 0
    assert_allclose(cont.y[:, 0], [1.0, 0.0, 1.0, 2.0, 3.0], atol=1e-8)


def test_dd_simulate_refuses_a_past_shorter_than_the_lag(tmp_path, capsys, known_system):
    # The fixture's model has lag 2: one past sample leaves the continuation
    # undetermined, and the data-driven answer would be one of many.
    rng = np.random.default_rng(0)
    ref = dd.simulate(known_system, rng.standard_normal(2), rng.standard_normal((5, 1)))
    past = tmp_path / "past.csv"
    dd.write_trajectory_csv(past, dd.CorruptedTrajectory(u=ref.u[:1], y=ref.y[:1]))
    future = tmp_path / "future.csv"
    future.write_text("t,u1\n" + "".join(f"{t},{float(v)!r}\n"
                                          for t, v in enumerate(ref.u[1:, 0], 1)))
    rc = main(["dd-simulate", str(RECORD_CSV), "--past", str(past),
               "--future", str(future), "--depth", "2"])
    assert rc == 3
    assert "at depth 2 do not determine the new output" in capsys.readouterr().err


def test_dd_simulate_wrong_past_length(tmp_path, capsys):
    past = tmp_path / "past.csv"
    past.write_text("t,u1,y1\n-1,0,0\n")
    future = tmp_path / "future.csv"
    future.write_text("t,u1\n0,1\n")
    rc = main(["dd-simulate", str(RECORD_CSV), "--past", str(past),
               "--future", str(future), "--depth", "3"])
    assert rc == 1
    assert "exactly 2 samples" in capsys.readouterr().err


def test_dd_simulate_no_run_reaches_the_depth(tmp_path, capsys):
    # Every run of the record has 4 samples: no depth-5 window, not enough data.
    past = tmp_path / "past.csv"
    past.write_text("t,u1,y1,y2\n-4,0,0,0\n-3,0,0,0\n-2,0,0,0\n-1,0,0,0\n")
    future = tmp_path / "future.csv"
    future.write_text("t,u1\n0,1\n")
    rc = main(["dd-simulate", str(SHORT_RUNS_CSV), "--past", str(past),
               "--future", str(future), "--depth", "5"])
    assert rc == 3
    assert "no run is long enough for windows of depth 5" in capsys.readouterr().err


def test_dd_simulate_inconsistent_past(tmp_path, capsys):
    past = tmp_path / "past.csv"
    # y jumps without input power: no second-order explanation
    past.write_text("t,u1,y1\n-3,0,1\n-2,0,0\n-1,0,0\n")
    future = tmp_path / "future.csv"
    future.write_text("t,u1\n0,0\n")
    rc = main(["dd-simulate", str(RECORD_CSV), "--past", str(past),
               "--future", str(future), "--depth", "4"])
    assert rc == 3
    assert "past" in capsys.readouterr().err


# --- lqr --------------------------------------------------------------------

def test_lqr_end_to_end(tmp_path, capsys, reactor, eye_weights_json):
    files = reactor_experiment_files(tmp_path, reactor)
    out = tmp_path / "gain.json"
    rc = main(["lqr", *files, "--weights", eye_weights_json,
               "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "closed_loop_radius" in text and "lmi_max_eig" in text
    payload = json.loads(out.read_text())
    K = np.array(payload["K"])
    assert K.shape == (2, 4)
    _, K_model = dd.dare_solve(reactor.A, reactor.B, np.eye(4), np.eye(2))
    assert np.linalg.norm(K - K_model) <= 1e-6
    assert payload["closed_loop_radius"] < 1.0


def test_lqr_non_finite_weights(tmp_path, reactor, capsys):
    files = reactor_experiment_files(tmp_path, reactor)
    weights = tmp_path / "w.json"
    weights.write_text('{"Q": [[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]], '
                       '"R": [[Infinity,0],[0,1]]}')
    assert main(["lqr", *files, "--weights", str(weights)]) == 1
    assert "error:" in capsys.readouterr().err


def test_lqr_garbage_cell_names_file_and_line(tmp_path, reactor, eye_weights_json, capsys):
    files = reactor_experiment_files(tmp_path, reactor)
    path = tmp_path / "exp3.csv"
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = "one"  # u1 on file line 3
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert main(["lqr", *files, "--weights", eye_weights_json]) == 1
    err = capsys.readouterr().err
    assert f"error: {files[3]}: line 3: cannot parse numeric field 'one'" in err


def test_lqr_rank_deficient_data(tmp_path, reactor, eye_weights_json, capsys):
    # zero input from the origin: the data matrix has rank zero
    quiet = dd.simulate(reactor, np.zeros(4), np.zeros((8, 2)))
    path = tmp_path / "quiet.csv"
    dd.write_experiment_csv(path, quiet)
    rc = main(["lqr", str(path), "--weights", eye_weights_json])
    assert rc == 3


def test_lqr_certification_failure(tmp_path, reactor, eye_weights_json, capsys):
    rng = np.random.default_rng(3)
    exps = dd.generate_experiments(reactor, 5, 6, pe_order=5, rng=rng)
    # corrupt one measured state so no exact model explains the data
    bad = exps[0]
    x = bad.x.copy()
    x[3] += 0.5
    exps[0] = dd.StateTrajectory(u=bad.u, x=x, y=bad.y,
                                 final_state=bad.final_state)
    paths = []
    for i, traj in enumerate(exps):
        p = tmp_path / f"e{i}.csv"
        dd.write_experiment_csv(p, traj)
        paths.append(str(p))
    rc = main(["lqr", *paths, "--weights", eye_weights_json])
    assert rc == 4
    assert "error:" in capsys.readouterr().err


def test_lqr_unstabilized_mode_exits_4(tmp_path, capsys):
    _, runs, W = unstabilized_runs()
    paths = []
    for i, traj in enumerate(runs):
        p = tmp_path / f"e{i}.csv"
        dd.write_experiment_csv(p, traj)
        paths.append(str(p))
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"Q": W.Q.tolist(), "R": W.R.tolist()}))
    assert main(["lqr", *paths, "--weights", str(weights)]) == 4
    assert "spectral radius" in capsys.readouterr().err


# --- export-sdp -------------------------------------------------------------

def test_export_sdp_stdout(tmp_path, capsys, reactor, eye_weights_json):
    files = reactor_experiment_files(tmp_path, reactor, seed=4)
    rc = main(["export-sdp", *files, "--weights", eye_weights_json])
    assert rc == 0
    text = capsys.readouterr().out
    lines = [l for l in text.splitlines() if not l.startswith('"')]
    assert lines[0].split()[0] == "10"       # 4*(4+1)/2 variables
    assert lines[1].split()[0] == "2"
    assert lines[2].split()[:2] == ["4", "30"]


def test_export_sdp_to_file(tmp_path, capsys, reactor, eye_weights_json):
    files = reactor_experiment_files(tmp_path, reactor, seed=5)
    out = tmp_path / "prog.dat-s"
    rc = main(["export-sdp", *files, "--weights", eye_weights_json,
               "--out", str(out)])
    assert rc == 0
    assert "wrote SDPA sparse problem" in capsys.readouterr().out
    assert out.read_text().splitlines()[1].split()[0] == "10"


# --- demo-instability -------------------------------------------------------

def test_demo_instability(capsys, reactor_json):
    rc = main(["demo-instability", "--system", reactor_json,
               "--length", "20", "--seed", "0"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "unit-norm start" in text


# --- usage errors -----------------------------------------------------------

def test_usage_errors(capsys):
    assert main(["identify"]) == 1               # missing positional
    assert main(["no-such-command"]) == 1
    assert main(["pe-check", str(RECORD_CSV)]) == 1   # --order required
    err = capsys.readouterr().err
    assert "usage:" in err


def test_tol_rank_only_where_a_rank_is_decided(tmp_path, capsys, reactor, reactor_json,
                                               eye_weights_json):
    # Only the four subcommands that decide a rank take --tol-rank; the other
    # three reject it as bad usage.
    tol = ["--tol-rank", "1e-8"]
    files = reactor_experiment_files(tmp_path, reactor)
    for argv in (["generate", "--system", reactor_json, "--out", str(tmp_path / "g.csv")],
                 ["export-sdp", *files, "--weights", eye_weights_json],
                 ["demo-instability", "--system", reactor_json]):
        assert main([*argv, *tol]) == 1
        assert "unrecognized arguments: --tol-rank" in capsys.readouterr().err
    past = tmp_path / "past.csv"
    past.write_text("t,u1,y1\n-2,0,0\n-1,0,0\n")
    future = tmp_path / "future.csv"
    future.write_text("t,u1\n0,1\n1,0\n")
    for argv in (["pe-check", str(RECORD_CSV), "--order", "5"],
                 ["dd-simulate", str(RECORD_CSV), "--past", str(past), "--future", str(future)],
                 ["identify", str(RECORD_CSV)],
                 ["lqr", *files, "--weights", eye_weights_json]):
        assert main([*argv, *tol]) == 0


def test_tol_rank_outside_the_unit_interval_exits_1(tmp_path, capsys, reactor,
                                                    eye_weights_json):
    # A negative tolerance called every depth full rank (identify exit 5); a
    # NaN one reported rank 0 (pe-check exit 2).  Both are bad usage.
    files = reactor_experiment_files(tmp_path, reactor)
    past = tmp_path / "past.csv"
    past.write_text("t,u1,y1\n-2,0,0\n-1,0,0\n")
    future = tmp_path / "future.csv"
    future.write_text("t,u1\n0,1\n1,0\n")
    for argv in (["pe-check", str(RECORD_CSV), "--order", "3"],
                 ["dd-simulate", str(RECORD_CSV), "--past", str(past), "--future", str(future)],
                 ["identify", str(RECORD_CSV)],
                 ["lqr", *files, "--weights", eye_weights_json]):
        for tol in ("nan", "-1", "1"):
            assert main([*argv, "--tol-rank", tol]) == 1
            err = capsys.readouterr().err
            assert err == f"error: rtol must be in [0, 1), got {float(tol)}\n", (argv, err)


def test_dd_simulate_refuses_an_incomplete_past(tmp_path, capsys):
    past = tmp_path / "past.csv"
    past.write_text("t,u1,y1\n-2,0,0\n-1,,\n")
    future = tmp_path / "future.csv"
    future.write_text("t,u1\n0,1\n")
    rc = main(["dd-simulate", str(RECORD_CSV), "--past", str(past), "--future", str(future)])
    assert rc == 1
    assert capsys.readouterr().err == "error: the past record must be complete\n"
