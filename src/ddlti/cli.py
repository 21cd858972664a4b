"""Command-line interface.

Subcommands
-----------
generate          simulate a system under seeded random inputs, write CSV
pe-check          per-segment and collective excitation orders of records
dd-simulate       continue a trajectory from data alone (no model)
identify          order + Markov parameters + realization from one record
lqr               data-driven LQR gain with certificates, from experiments
export-sdp        write the trace-maximization program in SDPA sparse format
demo-instability  state-norm growth of a single long open-loop experiment

Exit codes: 0 success; 1 I/O or parse problem (including bad usage);
2 excitation failure; 3 insufficient data / rank deficiency;
4 certification failure; 5 order undetermined.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from ._linalg import DEFAULT_RANK_RTOL, check_rtol
from .errors import DdltiError, DepthTooLargeError, InputError
from .hankel import excitation_report, max_excitation_order, pe_length_bound
from .ident import _complete_runs, _scan, identify, segment_trajectory
from .io import (
    read_experiment_csv,
    read_inputs_csv,
    read_system_json,
    read_trajectory_csv,
    read_weights_json,
    write_experiment_csv,
    write_json,
    write_system_json,
    write_trajectory_csv,
)
from .lqr import (
    assemble_batch,
    export_sdp,
    instability_report,
    lqr_from_data,
)
from .lti import CorruptedTrajectory, simulate
from .willems import DataDictionary, datadriven_simulate


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors through the exit-code-1 channel."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def rtol(text: str) -> float:
    """A ``--tol-rank`` value: a float in [0, 1), by the rank rule's check."""
    try:
        return check_rtol(float(text))
    except InputError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _count(text: str) -> int:
    """A ``--length``, ``--depth`` or ``--order`` value: an integer of at least 1."""
    if text.strip().isdecimal() and int(text) >= 1:
        return int(text)
    raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")


def _fmt(M) -> str:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return "\n".join("  [" + "  ".join(f"{v: .6g}" for v in row) + "]" for row in M)


def cmd_generate(args) -> int:
    sys_ = read_system_json(args.system)
    rng = np.random.default_rng(args.seed)
    u = rng.uniform(0.0, 1.0, size=(args.length, sys_.m))
    x0 = rng.standard_normal(sys_.n)
    traj = simulate(sys_, x0, u)
    if args.states:
        if args.missing:
            raise InputError("--missing applies to trajectory output, not --states")
        write_experiment_csv(args.out, traj)
        print(f"wrote experiment of length {args.length} "
              f"(+ terminal state) to {args.out}")
        return 0
    uu, yy = traj.u.copy(), traj.y.copy()
    missing = sorted(set(args.missing or []))
    for t in missing:
        if not 0 <= t < args.length:
            raise InputError(f"--missing index {t} outside 0..{args.length - 1}")
        uu[t] = np.nan
        yy[t] = np.nan
    write_trajectory_csv(args.out, CorruptedTrajectory(u=uu, y=yy))
    note = f", samples {missing} blanked" if missing else ""
    print(f"wrote trajectory of length {args.length}{note} to {args.out}")
    return 0


def cmd_pe_check(args) -> int:
    inputs = [u for path in args.files for u, _ in segment_trajectory(read_trajectory_csv(path))]
    print(f"{len(inputs)} complete segment(s); "
          f"total input samples {sum(s.length for s in inputs)}, "
          f"bound for order {args.order}: "
          f"{pe_length_bound(args.order, inputs[0].channels, len(inputs))}")
    for i, seg in enumerate(inputs):
        print(f"  segment {i}: start {seg.start_time}, length {seg.length}, "
              f"exciting up to order {max_excitation_order(seg, args.tol_rank)}")
    try:
        rep = excitation_report(inputs, args.order, args.tol_rank)
    except DepthTooLargeError as e:
        print(f"collectively exciting of order {args.order}: no ({e})")
        return 2
    verdict = "yes" if rep.exciting else "no"
    print(f"collectively exciting of order {args.order}: {verdict} "
          f"(rank {rep.rank} of {rep.required_rank} required, "
          f"{rep.n_columns} columns)")
    return 0 if rep.exciting else 2


def cmd_dd_simulate(args) -> int:
    ct = read_trajectory_csv(args.data)
    stack, _ = _complete_runs(ct)
    past = read_trajectory_csv(args.past)
    if not np.all(past.present):
        raise InputError("the past record must be complete")
    future_start, future_u = read_inputs_csv(args.future, past.m)

    depth = args.depth
    if depth is None:
        order = _scan(stack, None, args.tol_rank)[0]
        depth = order + 1
        print(f"estimated order {order}; using window depth {depth}")
    if past.length != depth - 1:
        raise InputError(
            f"past record must have exactly {depth - 1} samples for depth {depth}"
        )
    d = DataDictionary(depth, stack)  # runs shorter than the depth have no window
    ys = datadriven_simulate(d, past.u, past.y, future_u, tol=args.tol)
    print(f"completed {ys.shape[0]} output sample(s):")
    for k in range(ys.shape[0]):
        vals = "  ".join(f"{v: .10g}" for v in ys[k])
        print(f"  t={future_start + k:3d}  y = {vals}")
    if args.out:
        write_trajectory_csv(args.out, CorruptedTrajectory(
            u=future_u, y=ys, start_time=future_start))
        print(f"wrote continuation to {args.out}")
    return 0


def cmd_identify(args) -> int:
    ct = read_trajectory_csv(args.data)
    result = identify(ct, max_order=args.max_order, rtol=args.tol_rank)
    print(f"segments used (start, length): {list(result.segment_report)}")
    print(f"estimated order: {result.order}")
    print(f"markov parameters (first {result.markov.shape[0]}):")
    if result.markov.shape[1] == result.markov.shape[2] == 1:
        print("  " + "  ".join(f"{v: .10g}" for v in result.markov[:, 0, 0]))
    else:
        for k in range(result.markov.shape[0]):
            print(f"  step {k}:")
            print(_fmt(result.markov[k]))
    print(f"realization residual: {result.residual:.3e}")
    if args.out:
        write_system_json(args.out, result.system)
        print(f"wrote system to {args.out}")
    return 0


#: The certificate fields of an LqrSolution that ``lqr`` prints and writes,
#: each with its printed format.
_CERTIFICATES = (("lmi_max_eig", ".6e"), ("riccati_residual", ".6e"),
                 ("right_inverse_residual", ".6e"), ("closed_loop_radius", ".6f"))


def cmd_lqr(args) -> int:
    experiments = [read_experiment_csv(p) for p in args.files]
    batch = assemble_batch(experiments)
    weights = read_weights_json(args.weights)
    sol = lqr_from_data(batch, weights, rtol=args.tol_rank, tol_cert=args.tol_cert)
    print(f"experiments: {len(args.files)}, data columns: {batch.n_columns}")
    print("P =")
    print(_fmt(sol.P))
    print("K =")
    print(_fmt(sol.K))
    certificates = {name: getattr(sol, name) for name, _ in _CERTIFICATES}
    for name, spec in _CERTIFICATES:
        print(f"{name} = {certificates[name]:{spec}}")
    if args.out:
        write_json(args.out, {"K": sol.K, "P": sol.P, **certificates})
        print(f"wrote gain to {args.out}")
    return 0


def cmd_export_sdp(args) -> int:
    experiments = [read_experiment_csv(p) for p in args.files]
    batch = assemble_batch(experiments)
    weights = read_weights_json(args.weights)
    text = export_sdp(batch, weights, destination=args.out)
    if args.out:
        nvar = batch.n * (batch.n + 1) // 2
        print(f"wrote SDPA sparse problem to {args.out} "
              f"({nvar} variables, blocks {batch.n} and {batch.n_columns})")
    else:
        sys.stdout.write(text)
    return 0


def cmd_demo_instability(args) -> int:
    sys_ = read_system_json(args.system)
    rng = np.random.default_rng(args.seed)
    x0 = rng.standard_normal(sys_.n)
    norm = np.linalg.norm(x0)
    if norm > 0:
        x0 = x0 / norm
    u = rng.uniform(0.0, 1.0, size=(args.length, sys_.m))
    rep = instability_report(sys_, x0, u)
    print(f"single experiment of length {args.length}, unit-norm start, "
          f"inputs uniform on [0, 1):")
    print(rep)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ddlti",
                     description="Data-driven LTI analysis, simulation, "
                                 "identification and LQR.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, ranks=False):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        if ranks:
            p.add_argument("--tol-rank", type=rtol, default=DEFAULT_RANK_RTOL,
                           help="relative singular-value cutoff for rank decisions")
        return p

    p = add("generate", cmd_generate, "simulate a system to a CSV fixture")
    p.add_argument("--system", required=True, help="system JSON file")
    p.add_argument("--length", type=_count, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--missing", type=lambda s: [int(x) for x in s.split(",") if x],
                   default=None, help="comma-separated time indices to blank")
    p.add_argument("--states", action="store_true",
                   help="write a state-measured experiment (terminal row included)")
    p.add_argument("--out", required=True)

    p = add("pe-check", cmd_pe_check, "excitation orders of recorded data", ranks=True)
    p.add_argument("files", nargs="+")
    p.add_argument("--order", type=_count, required=True)

    p = add("dd-simulate", cmd_dd_simulate, "model-free continuation from data", ranks=True)
    p.add_argument("data", help="recorded trajectory CSV (dictionary source)")
    p.add_argument("--past", required=True, help="CSV with the depth-1 recent samples")
    p.add_argument("--future", required=True, help="CSV with the inputs to apply")
    p.add_argument("--depth", type=_count, default=None,
                   help="window depth L (default: estimated order + 1)")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="relative residual bound for the completion solves")
    p.add_argument("--out", default=None)

    p = add("identify", cmd_identify, "order, Markov parameters and realization", ranks=True)
    p.add_argument("data", help="trajectory CSV, possibly with missing rows")
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--out", default=None, help="where to write the system JSON")

    p = add("lqr", cmd_lqr, "data-driven LQR with certificates", ranks=True)
    p.add_argument("files", nargs="+", help="experiment CSV files")
    p.add_argument("--weights", required=True, help="weights JSON file")
    p.add_argument("--tol-cert", type=float, default=1e-6)
    p.add_argument("--out", default=None, help="where to write the gain JSON")

    p = add("export-sdp", cmd_export_sdp, "SDPA sparse export of the program")
    p.add_argument("files", nargs="+", help="experiment CSV files")
    p.add_argument("--weights", required=True)
    p.add_argument("--out", default=None, help="output .dat-s path (default stdout)")

    p = add("demo-instability", cmd_demo_instability,
            "norm growth of one long open-loop run")
    p.add_argument("--system", required=True)
    p.add_argument("--length", type=_count, default=20)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except DdltiError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
