"""Command-line driver.

Subcommands: gen, rank, select, centrality, verify, bruteforce,
synthesize.  Every run emits a single JSON report on stdout (or --out)
containing the echoed command, the sha256 digest of the problem-file bytes
it read, the package version and the result payload; --csv (rank,
select, centrality, synthesize) swaps the payload for a flat table.
Timings and warnings go to stderr as ``[gramsel]`` lines, so payloads are
byte-identical across repeat runs.

Exit codes: 0 success, 1 failed verification, 2 input/usage error,
3 numerical failure or memory exhausted.
"""

import argparse
import math
import os
import sys
import time
import warnings
from contextlib import contextmanager, nullcontext

import numpy as np

from . import __version__
from .exceptions import DomainError, GramselError, NumericalError, StabilityError
from .metrics import MetricSpec, simulate_transfer, synthesize_min_energy_input
from .models import (
    Table,
    frequency_selector,
    load_problem,
    random_hurwitz_system,
    read_json,
    ring_problem_dict,
    state_labels,
    system_problem_dict,
    write_json,
    write_problem,
)
from .numerics import as_array
from .placement import (
    GRAMIAN_FUNCTIONALS,
    brute_force_best,
    controllability_centrality,
    ranked,
    select_top_k,
    verify_modularity,
)

__all__ = ["main", "build_parser"]


@contextmanager
def _phase(label):
    """Time the block; it may append notes to the yielded list for the stderr line."""
    t0, notes = time.perf_counter(), []
    yield notes
    print(f"[gramsel] {label}: {time.perf_counter() - t0:.3f}s"
          + "".join(f" ({note})" for note in notes), file=sys.stderr)


# Flags that route output without changing results; they stay out of the
# command echo so payloads are byte-identical whenever the same analysis
# ran on the same input.
_NON_ANALYSIS_FLAGS = {"out", "csv", "func", "cmd", "problem"}


def _emit(args, problem, results, table=None):
    """Stream the report of ``results`` on ``problem``, or with --csv the
    :class:`Table` ``table``, to --out or else stdout."""
    path = getattr(args, "out", None)
    with open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout) as out:
        if getattr(args, "csv", False):
            table.write_csv(out)
        else:
            options = {key: value for key, value in sorted(vars(args).items())
                       if key not in _NON_ANALYSIS_FLAGS and value is not None}
            write_json({
                "command": {"name": args.cmd, "problem": args.problem, "options": options},
                "input_digest": problem.digest,
                "version": __version__,
                "results": results,
            }, out.write)
            out.write("\n")


def _load(args, ranking=True, candidates=True):
    """``(problem, candidate set)`` of ``args.problem``; the set is None unless
    ``candidates`` is true, since centrality reads only A."""
    with _phase("load") as notes:
        problem = load_problem(args.problem)
        cs = problem.candidate_set if candidates else None
        notes.append(f"from {os.path.basename(problem.source)}")
    # ranking needs a Hurwitz A; a grid builds without one only if no bus is grounded
    if ranking and problem.grid is not None and not problem.grid.grounded:
        raise StabilityError("no bus is grounded, so A has a zero eigenvalue (a uniform angle "
                             "shift) and no infinite-horizon Gramian; ground at least one bus")
    return problem, cs


def _resolve_metric(args, problem):
    """CLI metric flags override whatever the problem file declared."""
    metric_flag = getattr(args, "metric", None)
    weight_file = getattr(args, "weight_file", None)
    if getattr(args, "weight", None) == "frequencies":
        for flag, value in (("--metric", metric_flag), ("--weight-file", weight_file)):
            if value is not None:
                raise DomainError(f"--weight frequencies conflicts with {flag}")
        if problem.grid is None:
            raise DomainError("--weight frequencies requires a grid-based problem")
        return MetricSpec.h2(frequency_selector(problem.grid))
    if metric_flag is None and weight_file is None:
        return problem.metric
    kind = metric_flag or "weighted"
    if kind == "trace":
        if weight_file:
            raise DomainError("--metric trace takes no --weight-file")
        return MetricSpec()
    if weight_file is None:
        raise DomainError(f"--metric {kind} requires --weight-file")
    spec = MetricSpec.weighted if kind == "weighted" else MetricSpec.h2
    return spec(read_json(weight_file, "weight file")[0])


def _ranked_table(metric, ids, weights, order, k=None):
    """The report table of candidates ``ids`` with ``weights``, in ranked ``order``:
    an h2 metric adds "h2_norm", and a selection size ``k`` a "selected" flag."""
    score = weights[order]
    columns = {"rank": np.arange(1, len(order) + 1), "id": np.array(ids, dtype=object)[order],
               "score": score}
    if metric.kind == "h2":  # math.sqrt(max(score, 0.0)), which keeps -0.0
        columns["h2_norm"] = np.sqrt(np.where(score < 0.0, 0.0, score))
    if k is not None:
        columns["selected"] = np.repeat([1, 0], [k, len(order) - k])
    return Table(columns)


# gen flags that only one problem kind takes; their defaults live in models
_GEN_KIND_FLAGS = {"chords": "ring", "inertia": "ring", "damping": "ring",
                   "susceptance": "ring", "grounding": "ring", "density": "random"}


def cmd_gen(args):
    kind = "ring" if args.ring is not None else "random"
    given = {flag: getattr(args, flag) for flag in _GEN_KIND_FLAGS
             if getattr(args, flag) is not None}
    for flag in given:
        if _GEN_KIND_FLAGS[flag] != kind:
            raise DomainError(f"--{flag} applies to gen --{_GEN_KIND_FLAGS[flag]} only, "
                              f"not --{kind}")
    if kind == "ring":
        doc = ring_problem_dict(args.ring, seed=args.seed, **given)
    else:
        doc = system_problem_dict(*random_hurwitz_system(*args.random, seed=args.seed,
                                                         **given))
    write_problem(args.out, doc)
    print(f"[gramsel] wrote problem file {args.out}", file=sys.stderr)
    return 0


def cmd_rank(args):
    problem, cs = _load(args)
    metric = _resolve_metric(args, problem)
    with _phase(f"rank {cs.size} candidates"):
        weights, order = ranked(cs, metric)
    table = _ranked_table(metric, cs.ids, weights, order)
    results = {
        "metric": metric.describe(),
        "n": cs.n,
        "count": cs.size,
        "ranked": table,
    }
    _emit(args, problem, results, table)
    return 0


def cmd_select(args):
    problem, cs = _load(args)
    metric = _resolve_metric(args, problem)
    with _phase(f"select {args.k} of {cs.size}"):
        result = select_top_k(cs, args.k, metric)
    table = _ranked_table(metric, result.ids, result.weights, result.order, result.k)
    results = {
        "metric": metric.describe(),
        "k": result.k,
        "selected": list(result.selected),
        "total_score": result.total_score,
        "ties": [list(group) for group in result.ties],
        "ranked": table,
    }
    _emit(args, problem, results, table)
    return 0


def cmd_centrality(args):
    problem, _ = _load(args, candidates=False)
    n = len(problem.a)
    with _phase(f"centrality over {n} nodes"):
        scores = controllability_centrality(problem.a)
    labels = [""] * n if problem.grid is None else state_labels(problem.grid)
    table = Table({"node": np.arange(n), "label": np.array(labels, dtype=object),
                   "score": scores})
    results = {
        "n": n,
        "nodes": table,
        "total": math.fsum(scores.tolist()),
    }
    _emit(args, problem, results, table)
    return 0


def cmd_verify(args):
    problem, cs = _load(args)
    metric = _resolve_metric(args, problem)
    with _phase(f"verify {args.trials} trials"):
        report = verify_modularity(cs, metric, trials=args.trials, seed=args.seed)
    results = {
        "metric": metric.describe(),
        "trials": report.trials,
        "max_violation": report.max_violation,
        "tolerance": report.tolerance,
        "passed": report.passed,
        "worst_pair": [list(report.worst_pair[0]), list(report.worst_pair[1])],
    }
    _emit(args, problem, results)
    if not report.passed:
        print(
            f"[gramsel] modularity check FAILED: max violation "
            f"{report.max_violation:.3e} > {report.tolerance:.1e}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_bruteforce(args):
    problem, cs = _load(args)
    metric = _resolve_metric(args, problem)
    with _phase(f"bruteforce k={args.k} over {cs.size}"):
        ids, value = brute_force_best(cs, args.k, metric, args.functional, args.cap)
    results = {
        "metric": metric.describe(),
        "functional": args.functional,
        "k": args.k,
        "subsets": math.comb(cs.size, args.k),
        "best_ids": list(ids),
        "best_value": value,
    }
    _emit(args, problem, results)
    return 0


def _parse_target(text):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise DomainError(f"--target must be comma-separated numbers, got {text!r}") from None


def cmd_synthesize(args):
    problem, cs = _load(args, ranking=False)
    ids = [s for s in args.ids.split(",") if s]
    if not ids:
        raise DomainError("--ids must name at least one candidate")
    b = cs.input_matrix(ids)
    raw = (_parse_target(args.target) if args.target is not None
           else read_json(args.target_file, "target file")[0])
    x_f = as_array(raw, (cs.n,), "target")
    with _phase("synthesize"):
        traj = synthesize_min_energy_input(cs.a, b, args.horizon, x_f,
                                           samples=args.samples)
    results = {
        "ids": ids,
        "horizon": args.horizon,
        "samples": traj.samples,
        "min_energy": traj.energy,
        "times": traj.times.tolist(),
        "inputs": traj.inputs.tolist(),
    }
    if args.simulate:
        with _phase("simulate"):
            sim = simulate_transfer(cs.a, b, x_f, traj)
        results["terminal_error"] = sim.terminal_error
        results["input_energy"] = sim.input_energy
    table = Table({"time": traj.times, **{f"u_{cid}": u for cid, u in zip(ids, traj.inputs.T)}})
    _emit(args, problem, results, table)
    return 0


def _add_metric_flags(p):
    p.add_argument("--metric", choices=["trace", "weighted", "h2"], default=None,
                   help="ranking metric (default: the problem file's weight, else trace)")
    p.add_argument("--weight-file", default=None,
                   help="JSON matrix for --metric weighted/h2")
    p.add_argument("--weight", choices=["frequencies"], default=None,
                   help="grid shorthand: h2 metric over all frequency states")


def _add_common_flags(p):
    p.add_argument("--out", default=None, help="write the payload to this file")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gramsel",
        description="Gramian-based actuator placement for linear dynamical networks",
    )
    parser.add_argument("--version", action="version", version=f"gramsel {__version__}")
    sub = parser.add_subparsers(dest="cmd")

    p = sub.add_parser("gen", help="generate a problem file")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--ring", type=int, default=None, metavar="N",
                      help="ring grid with N buses (candidates: all HVDC pairs)")
    kind.add_argument("--random", type=int, nargs=2, default=None, metavar=("N", "M"),
                      help="random Hurwitz system, N states, M candidate columns")
    for flag, flag_kind in _GEN_KIND_FLAGS.items():
        p.add_argument(f"--{flag}", type=int if flag == "chords" else float, default=None,
                       help=f"--{flag_kind} only")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="problem file to write")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("rank", help="score every candidate under a modular metric")
    p.add_argument("problem")
    _add_metric_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("select", help="exact top-k selection by weight sorting")
    p.add_argument("problem")
    p.add_argument("--k", type=int, required=True)
    _add_metric_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("centrality", help="per-node controllability centrality")
    p.add_argument("problem")
    _add_common_flags(p)
    p.set_defaults(func=cmd_centrality)

    p = sub.add_parser("verify", help="spot-check the modularity identity "
                                      "(exit 1 on violation)")
    p.add_argument("problem")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_metric_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bruteforce", help="exhaustive subset search (capped)")
    p.add_argument("problem")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--functional", choices=["metric", *GRAMIAN_FUNCTIONALS],
                   default="metric")
    p.add_argument("--cap", type=int, default=1_000_000,
                   help="refuse when C(M, k) exceeds this")
    _add_metric_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_bruteforce)

    p = sub.add_parser("synthesize", help="minimum-energy open-loop input")
    p.add_argument("problem")
    p.add_argument("--ids", required=True, help="comma-separated candidate ids")
    p.add_argument("--horizon", type=float, required=True, help="transfer time t")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--target", default=None, help="comma-separated x_f")
    target.add_argument("--target-file", default=None, help="JSON array x_f")
    p.add_argument("--samples", type=int, default=201)
    p.add_argument("--simulate", action="store_true",
                   help="integrate the closed trajectory and report the terminal error")
    _add_common_flags(p)
    p.set_defaults(func=cmd_synthesize)

    for name in ("rank", "select", "centrality", "synthesize"):  # the commands with one table
        sub.choices[name].add_argument("--csv", action="store_true", help="emit a flat CSV table")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "cmd", None) is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(
                f"[gramsel] warning: {message}", file=sys.stderr)
            return args.func(args)
    except (NumericalError, MemoryError) as exc:  # numpy's MemoryError names its allocation
        print(f"error: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 3
    except (GramselError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
