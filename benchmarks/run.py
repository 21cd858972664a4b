"""Benchmark of the ddlti library: three closed-loop workloads, every output checked.

    python3 benchmarks/run.py --workload identify-long-run --seed 1 --seconds 50 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 50 --trace 0

One process is one caller: it issues the next operation only after the
previous one returns.  BLAS is pinned to one thread, inputs come from
``--seed`` and the library sees only the generated inputs, imported from
``src/`` of the checkout this file sits in.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json:
``setup_s`` (median over fifteen fresh set-up processes spread evenly over the
timed loop, each from process start to the first timed op), ``op_s`` (median
wall time of one operation: an ``identify`` call, an ``lqr_from_data`` call or
a whole CLI session) and ``peak_rss_mb``.  The result's ``failed`` counts
wrong outputs and unexpected errors; certificate refusals are printed apart,
in ``failed_share`` (see workloads.py).  ``--trace 1`` runs the same
operations with a span around every call into a library module, interleaved
with untraced ones, then a few passes of the other workloads and the scaling
sweeps, and prints the per-layer metrics.  On success the last line of stdout is one
JSON object; results and spans are also written under ``.bench_work/results``.
Without ``src/ddlti`` beside this directory it exits with 2 and prints no result.
"""
import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: Every workload this file can run.  BENCHMARK.json declares the first two;
#: cli-session runs on request and as a probe in every traced run, because
#: its Python-bound time drifts too much between runs on a shared machine to
#: gate it (see CHANGES.md).
NAMES = ("identify-long-run", "lqr-pooled", "cli-session")
#: Passes over each other workload's inputs in a traced run.
PROBE_PASSES = 3
#: Fresh set-up processes whose median is ``setup_s``.
SETUP_CHILDREN = 15
#: Which end-to-end metric each per-layer metric should move, on which workload
#: (cli-session's op_s is its session time, measured but not gated).
MOVES = {
    "ident.": "op_s on identify-long-run; on cli-session only its identify share",
    "lti.markov_check_s": "op_s on identify-long-run",
    "hankel.build_s": "op_s on identify-long-run",
    "linalg.": "op_s on identify-long-run",
    "willems.": "op_s on cli-session (identify-long-run only through ident.markov_s)",
    "hankel.max_excitation_order_s": "op_s on cli-session",
    "hankel.excitation_report_s": "op_s on cli-session",
    "lqr.assemble_batch_s": "op_s on lqr-pooled",
    "lqr.identify_ab_s": "op_s on lqr-pooled",
    "lqr.dare_solve_s": "op_s on lqr-pooled",
    "lqr.lmi_operator_s": "op_s on lqr-pooled",
    "lqr.certify_s": "op_s on lqr-pooled",
    "lqr.rejected.": "failed share on lqr-pooled (and lqr calls of cli-session)",
    "lqr.k_err_max": "correctness on lqr-pooled",
    "lqr.export_sdp_s": "op_s and peak_rss_mb on cli-session",
    "lqr.sdpa_bytes": "op_s and peak_rss_mb on cli-session",
    "cli.": "op_s on cli-session",
    "io.read_": "op_s on cli-session (about 1.5%, below its resolution)",
    "io.csv_bytes_read": "op_s on cli-session (about 1.5%, below its resolution)",
    "io.write_": "setup_s on cli-session",
    "lti.simulate_s": "setup_s on every workload",
    "trace.": "nothing: the cost and coverage of tracing itself",
    "sweep.": "nothing directly: how each stage scales with size",
}


def moves(metric: str) -> str:
    return next(v for k, v in MOVES.items() if metric.startswith(k))


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def summary(values) -> dict:
    """Median, sample count and the highest percentile with >= 10 samples beyond it."""
    import numpy as np
    n = len(values)
    out = {"n": n, "median": statistics.median(values)}
    if n > 10:
        q = 100 * (n - 10) // n
        out[f"p{q}"] = float(np.percentile(values, q))
    return out


def environment(args) -> dict:
    import numpy
    import scipy
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": deps.get("blas", {}),
        "lapack": deps.get("lapack", {}), "machine": platform.machine(),
        "thread_pins": {v: os.environ[v] for v in THREAD_VARS},
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
    }


def set_up(name, seed, size, workdir, tracer=None):
    """Build a workload's inputs, after one warm-up op on tiny inputs."""
    from workloads import SIZES, WORKLOADS
    cls = WORKLOADS[name]
    if size != "tiny":
        # Lazily initialised code (LAPACK, first calls) is warmed on tiny inputs.
        cls(seed, SIZES["tiny"], workdir / "warm").op(0)
    return cls(seed, SIZES[size], workdir, tracer)


def measure(wl, seconds, traced_with=None, interlude=None, interludes=0):
    """Closed loop for ``seconds``, ending on a whole pass over the workload's
    inputs.  With a tracer, each untraced op is followed by a traced one.
    ``interlude()`` is called ``interludes`` times between ops, spread evenly
    over the loop; its time does not count against ``seconds``.  Returns the
    untraced and traced op times, the tally and the interludes' results."""
    from workloads import Tally
    plain, traced, tally, side, i = [], [], Tally(), [], 0
    start, paused = time.perf_counter(), 0.0
    while True:
        if len(side) < interludes and (time.perf_counter() - start - paused
                                       >= len(side) * seconds / interludes):
            t0 = time.perf_counter()
            side.append(interlude())
            paused += time.perf_counter() - t0
            continue
        dt, outcomes = wl.op(i)
        plain.append(dt)
        tally.add(outcomes)
        if traced_with is not None:
            traced_with.new_op()
            dt, outcomes = wl.traced_op(traced_with, i)
            traced.append(dt)
            tally.add(outcomes)
        i += 1
        if (time.perf_counter() - start - paused >= seconds and i % wl.pass_len == 0
                and len(side) == interludes):
            return plain, traced, tally, side


def child_setup_s(args) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
           "--size", args.size, "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def run_untraced(args, spec, workdir):
    wl = set_up(args.workload, args.seed, args.size, workdir)
    own_setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup_s}))
        return None
    # setup_s is the median of fresh set-up processes spread over the timed
    # loop, so it samples the same stretch of a shared machine as op_s.  This
    # process's own set-up is reported but not counted: it alone pays for
    # compiling bytecode and a cold file cache.
    times, _, tally, setups = measure(wl, args.seconds, interlude=lambda: child_setup_s(args),
                                      interludes=SETUP_CHILDREN)
    values = {
        "setup_s": statistics.median(setups),
        "op_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = {"op_s": summary(times), "setup_s": summary(setups), "setup_samples": setups,
              "own_setup_s": own_setup_s, "op_samples": times,
              "refused": tally.refused, "wrong": tally.wrong,
              "failed_share": (tally.refused + tally.wrong) / tally.attempted}
    label = wl.op_label
    print(f"{args.workload}: {label} = op_s {values['op_s']:.6f} s "
          f"({_fmt_summary(report['op_s'])})")
    print(f"{args.workload}: setup_s {values['setup_s']:.6f} s "
          f"({_fmt_summary(report['setup_s'])})")
    print(f"{args.workload}: failed_share {report['failed_share']:.4f} "
          f"({tally.refused} refused and {tally.wrong} wrong of {tally.attempted} ops)")
    print(f"{args.workload}: peak_rss_mb {values['peak_rss_mb']:.1f} MB")
    return _result(spec["end_to_end"], values, tally, report)


def run_traced(args, spec, workdir):
    from sweeps import run_sweeps
    from spans import Tracer
    from workloads import SIZES
    tr = Tracer()
    wls = {name: set_up(name, args.seed, args.size, workdir / name, tr) for name in NAMES}
    main = wls[args.workload]
    plain, traced, tally, _ = measure(main, args.seconds, traced_with=tr)
    for name, wl in wls.items():
        if name != args.workload:
            for i in range(wl.pass_len * PROBE_PASSES):
                tr.new_op()
                tally.add(wl.traced_op(tr, i)[1])
    sweep_values, outcomes, sweep_rejected = run_sweeps(tr, args.seed, args.size,
                                                        SIZES[args.size].n)
    tally.add(outcomes)

    values = {}
    for wl in wls.values():
        values.update({k: statistics.median(v) for k, v in wl.layer_metrics(tr).items()})
    for name in ("io.write_trajectory_csv", "io.write_experiment_csv", "lti.simulate"):
        values[f"{name}_s"] = sum(tr.per_op(name))   # all of it is set-up
    values.update(sweep_values)
    values["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    times = tr.self_times()
    covered = [1.0 - times[s["id"]] / (s["end"] - s["start"])
               for s in tr.spans if s["name"] == main.root_span]
    values["trace.accounted"] = statistics.median(covered)

    report = {"op_s": summary(plain), "op_traced_s": summary(traced),
              "refused": tally.refused, "wrong": tally.wrong,
              "failed_share": (tally.refused + tally.wrong) / tally.attempted,
              "sweep_rejected": sweep_rejected, "moves": {k: moves(k) for k in values}}
    if args.workload == "identify-long-run":
        # The staged ident.* self times should account for identify_s within
        # the tracing overhead: their ratio lies between 1 and trace.overhead,
        # give or take the quartile spread of the untraced op times, since
        # both sides are medians of noisy samples.
        staged = sum(values[f"{k}_s"] for k in (
            "ident.segment", "ident.scan_order", "ident.markov", "ident.ho_kalman",
            "lti.markov_check"))
        ratio = staged / statistics.median(plain)
        q1, _, q3 = statistics.quantiles(plain, n=4)
        slack = (q3 - q1) / statistics.median(plain)
        lo = min(1.0, values["trace.overhead"]) - slack
        hi = max(1.0, values["trace.overhead"]) + slack
        report["staged_over_identify_s"] = ratio
        report["staged_allowed_range"] = [lo, hi]
        report["staged_within_overhead"] = lo <= ratio <= hi
        print(f"staged ident self times {staged:.6f} s = {ratio:.4f} x identify_s "
              f"(allowed {lo:.4f} to {hi:.4f})")
        if not report["staged_within_overhead"]:
            print(f"warning: staged ident self times are {ratio:.4f} x identify_s, "
                  f"outside {lo:.4f} to {hi:.4f}", file=sys.stderr)
    if sweep_rejected:
        print("sweep points the certificate refused: " + ", ".join(sweep_rejected))
    for k in sorted(values):
        print(f"  {k:42s} {values[k]:.6g}   moves {moves(k)}")
    tr.dump(WORK / "results" / f"{args.workload}-seed{args.seed}.trace.json",
            {"env": environment(args)})
    return _result(spec["per_layer"], values, tally, report)


def _fmt_summary(s: dict) -> str:
    extra = "".join(f", {k} {v:.6f}" for k, v in s.items() if k.startswith("p"))
    return f"n={s['n']}{extra}"


def _result(declared, values, tally, report):
    for note in tally.notes:
        print(f"wrong: {note}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return {"correct": tally.wrong == 0, "attempted": tally.attempted,
            "failed": tally.wrong, "metrics": metrics}, report


def run_all(args) -> int:
    """Every workload in its own process, printed as one table."""
    from workloads import WORKLOADS
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return fail(f"{name} exited with {done.returncode}")
        results[name] = json.loads(done.stdout.splitlines()[-1])
        print(done.stdout, end="")
    print(f"{'workload':18s} {'metric':38s} {'value':>14s} unit")
    for name, res in results.items():
        for metric, mv in res["metrics"].items():
            label = WORKLOADS[name].op_label if metric == "op_s" else metric
            print(f"{name:18s} {label:38s} {mv['value']:14.6g} {mv['unit']}")
        saved = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        share = json.loads(saved.read_text())["report"]["failed_share"]
        print(f"{name:18s} {'failed_share':38s} {share:14.6g} 1  "
              f"correct={res['correct']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is the smoke test's input size")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "ddlti" / "__init__.py").is_file():
        return fail(f"no ddlti sources at {SRC}; run from a full checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    import ddlti
    if Path(ddlti.__file__).resolve().parent != (SRC / "ddlti").resolve():
        return fail(f"imported ddlti from {ddlti.__file__}, not from {SRC}")
    if args.workload == "all":
        return run_all(args)

    (WORK / "results").mkdir(parents=True, exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        run = run_traced if args.trace else run_untraced
        out = run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if out is None:
        return 0
    result, report = out
    env = environment(args)
    print("env " + json.dumps(env))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(WORK / "results" / name, "w") as fh:
        json.dump({"env": env, "result": result, "report": report}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
