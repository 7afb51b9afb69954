"""Benchmark of the gramsel CLI: wall time per command, and per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload ring74-hvdc --seed 1 --seconds 30 --trace 0

Each command runs in a fresh subprocess of the real CLI, as users run it:
``src`` on PYTHONPATH, BLAS and OpenMP pinned to one thread, closed loop,
one command at a time.  A run has four steps:

1. warm-up: one ``gramsel --version``.  It pays the cold costs (bytecode
   caches, shared libraries read from disk) and is reported as the cold
   first run;
2. set-up, five times: ``gramsel gen`` plus the seeded weight file;
3. passes over the workload's commands, for as long as another pass still
   fits in ``--seconds``.  An untraced run makes at least two, so that
   every command has a median of more than one sample and a repeat to
   compare its payload with;
4. the correctness gate, outside the timed region: scores against a scipy
   oracle, ``verify`` passing, and each command's payload identical
   across repeats.

With ``--trace 1`` every command of a pass runs twice, untraced and then
under traced_cli.py, and the result holds the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it are the report: the
environment, every metric with its unit and sample count, and with
``--trace 1`` the span counts of each command.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import oracle
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# What the installed `gramsel` console script runs.
CLI_ENTRY = "import sys; from gramsel.cli import main; sys.exit(main())"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BLAS_THREADS = 1
SETUP_REPEATS = 5
STARTUP_REPEATS = 3
MIN_PASSES = 2  # untraced; a traced pass already repeats each command
# A child still running this long after the run started is killed, so a
# hung command fails the run well inside the 180 s a run may take.
RUN_LIMIT_S = 150.0
# Computed, not measured: one LyapunovSolver.solve costs about 10 n^3
# flops, U^T Q U (4 n^3) plus trsyl on the quasi-triangular factor
# (2 n^3) plus U Y U^T (4 n^3).
SOLVE_FLOPS_PER_N3 = 10


@dataclass(frozen=True)
class Workload:
    gen: tuple  # arguments of `gramsel gen`; "{seed}" is replaced
    n: int  # state dimension
    commands: tuple  # (label, argument template) pairs, run in this order
    weight_rows: int = 0  # rows of the seeded h2 output matrix; 0 for none

    @property
    def grid(self):
        return "--ring" in self.gen


WORKLOADS = {
    # The paper's case study.  The Lyapunov solves at n=148 take ~90% of
    # select and centrality; verify spends ~93% in CandidateSet.column.
    "ring74-hvdc": Workload(
        gen=("--ring", "74"), n=148,
        commands=(
            ("select", ("select", "{problem}", "--k", "10")),
            ("centrality", ("centrality", "{problem}")),
            ("verify", ("verify", "{problem}", "--trials", "20", "--seed", "{seed}")),
        )),
    # Explicit matrices at n=40: the O(n^3) kernel is cheap, so JSON load,
    # CandidateSet validation, per-call overhead, the h2 branch of
    # evaluate_metric and CLI start-up dominate instead.
    "random40-h2": Workload(
        gen=("--random", "40", "8000", "--seed", "{seed}"), n=40, weight_rows=10,
        commands=(
            ("rank", ("rank", "{problem}", "--metric", "h2", "--weight-file", "{weights}")),
            ("centrality", ("centrality", "{problem}")),
        )),
    # The larger ring: how the kernel scales with n, the largest HVDC build
    # and column store (peak memory) and the biggest factorization share.
    # rank/select would take ~400 s here today, so they stay out.  It runs
    # by hand but is not among BENCHMARK.json's workloads: with two untraced
    # passes per run (~40 s) next to ring74-hvdc's (~50 s), the repeated
    # runs of three workloads would take longer than the whole benchmark may.
    "ring150-grid": Workload(
        gen=("--ring", "150"), n=300,
        commands=(
            ("centrality", ("centrality", "{problem}")),
            ("verify", ("verify", "{problem}", "--trials", "1", "--seed", "{seed}")),
        )),
    # Every command on a six-bus ring in a few seconds, for the tests.
    "ring6-smoke": Workload(
        gen=("--ring", "6"), n=12, weight_rows=3,
        commands=(
            ("select", ("select", "{problem}", "--k", "2")),
            ("rank", ("rank", "{problem}", "--metric", "h2", "--weight-file", "{weights}")),
            ("centrality", ("centrality", "{problem}")),
            ("verify", ("verify", "{problem}", "--trials", "2", "--seed", "{seed}")),
        )),
}

END_TO_END = {
    "centrality_s": "s",
    "commands_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Span metrics of the traced run, named "<span>.<field>".
SPAN_METRICS = (
    ("cli", ("self_s",)),
    ("models.load_problem", ("s",)),
    ("models.build_swing_matrix", ("calls", "s")),
    ("models.hvdc_candidates", ("calls", "s")),
    ("placement.CandidateSet.init", ("calls", "s")),
    ("numerics.real_schur", ("calls", "s")),
    ("numerics.eigenvalues", ("calls", "s")),
    ("gramian.LyapunovSolver.init", ("calls",)),
    ("gramian.LyapunovSolver.solve", ("calls", "s", "ms_median")),
    ("metrics.evaluate_metric", ("calls", "s")),
    ("placement.candidate_weights", ("calls", "s")),
    ("placement.select_top_k", ("calls", "self_s")),
    ("placement.controllability_centrality", ("self_s",)),
    ("placement.verify_modularity", ("calls", "self_s")),
    ("placement.CandidateSet.column", ("calls",)),
    ("placement.CandidateSet.input_matrix", ("calls", "s")),
)
FIELD_UNITS = {"calls": "count", "s": "s", "self_s": "s", "ms_median": "ms"}

PER_LAYER = {
    "cli.cold_start_s": "s",
    "cli.startup_s": "s",
    **{f"{span}.{field}": FIELD_UNITS[field] for span, fields in SPAN_METRICS for field in fields},
    "gramian.solve.flops_computed": "flop",
    "trace.overhead_s": "s",
}

# Spans every traced command must record; one that stays silent means the
# function was renamed or bypassed, which must not read as zero.
COMMON_SPANS = {"cli", "models.load_problem", "placement.CandidateSet.init",
                "numerics.real_schur", "numerics.eigenvalues",
                "gramian.LyapunovSolver.init", "gramian.LyapunovSolver.solve"}
GRID_SPANS = {"models.build_swing_matrix", "models.hvdc_candidates"}
COMMAND_SPANS = {
    "rank": {"placement.candidate_weights", "metrics.evaluate_metric"},
    "select": {"placement.candidate_weights", "placement.select_top_k",
               "metrics.evaluate_metric", "placement.CandidateSet.input_matrix",
               "placement.CandidateSet.column"},
    "centrality": {"placement.controllability_centrality"},
    "verify": {"placement.verify_modularity", "metrics.evaluate_metric",
               "placement.CandidateSet.input_matrix", "placement.CandidateSet.column"},
}


def expected_spans(workload, label):
    return COMMON_SPANS | (GRID_SPANS if workload.grid else set()) | COMMAND_SPANS[label]


@dataclass
class Sample:
    label: str
    args: tuple
    wall_s: float
    rss_mb: float
    code: int
    digest: str
    out: Path
    spans: Path | None = None


class Runner:
    """Spawns CLI children one at a time and keeps every sample."""

    def __init__(self, work, deadline):
        self.work = work
        self.deadline = deadline
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))
        self.env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
        self.samples = []

    def run(self, label, args, traced=False, payload=None):
        """Run ``gramsel <args>``; time it from spawn to exit.

        The sample's digest covers stdout, or the file ``payload`` when
        the command writes its result there.
        """
        stem = self.work / f"{len(self.samples):03d}-{label}"
        span_path = Path(f"{stem}.spans.json") if traced else None
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(span_path), *args]
        else:
            argv = [sys.executable, "-c", CLI_ENTRY, *args]
        out_path = Path(f"{stem}.out")
        with open(out_path, "wb") as out, open(f"{stem}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.work)
            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        source = Path(payload or out_path)
        digest = hashlib.sha256(source.read_bytes()).hexdigest() if source.exists() else "missing"
        sample = Sample(label, tuple(args), wall, usage.ru_maxrss / 1024.0,
                        proc.returncode, digest, out_path, span_path)
        self.samples.append(sample)
        return sample


def _flag(args, name):
    return args[args.index(name) + 1]


def _merge(paths):
    """Concatenate the spans of several commands into one list."""
    merged = []
    for path in paths:
        offset = len(merged)
        merged.extend([name, start, end, parent + offset if parent >= 0 else -1]
                      for name, start, end, parent in spans.load(path))
    return merged


def check_commands(workload, samples, problem, weights, seed):
    """Correctness problems per command label (an empty dict when all pass)."""
    problems = defaultdict(list)
    for sample in samples:
        if sample.code != 0:
            problems[sample.label].append(f"exit code {sample.code}: {' '.join(sample.args)}")
    by_label = defaultdict(list)
    for sample in samples:
        by_label[sample.label].append(sample)
    for label, group in by_label.items():
        if len({s.digest for s in group}) > 1:
            problems[label].append(f"payload differs between its {len(group)} repeats")
    try:
        orc = oracle.Oracle(*oracle.read_problem(problem), seed)
        if orc.a.shape != (workload.n, workload.n):
            raise ValueError(f"A is {orc.a.shape}, the workload has n={workload.n}")
    except Exception as exc:  # report, never crash: the run must still print a result
        for label, _ in workload.commands:
            problems[label].append(f"oracle could not read the problem: {exc!r}")
        return problems
    for label, _ in workload.commands:
        first = by_label[label][0]
        if first.code != 0:
            continue
        args = first.args
        cbar = np.eye(orc.a.shape[0])
        if "--weight-file" in args:
            c = np.asarray(json.loads(weights.read_text()))
            cbar = c.T @ c
        try:
            results = json.loads(first.out.read_text())["results"]
            if label == "select":
                problems[label] += orc.check_selected(results, int(_flag(args, "--k")), cbar)
            elif label == "rank":
                problems[label] += orc.check_ranked(results["ranked"], cbar)
            elif label == "centrality":
                problems[label] += orc.check_centrality(results)
            else:
                problems[label] += oracle.check_verify(results, int(_flag(args, "--trials")))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems[label].append(f"malformed payload: {exc!r}")
    for sample in samples:
        if sample.spans is not None and sample.code == 0:
            fired = {name for name, *_ in spans.load(sample.spans)}
            missing = expected_spans(workload, sample.label) - fired
            if missing:
                problems[sample.label].append(f"spans did not fire: {sorted(missing)}")
    return problems


def environment(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns (result dict, report lines)."""
    workload = WORKLOADS[name]
    started = time.monotonic()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        work = Path(tmp)
        runner = Runner(work, started + RUN_LIMIT_S)
        problem, weights = work / "problem.json", work / "weights.json"
        fill = {"problem": str(problem), "weights": str(weights), "seed": str(seed)}

        cold = runner.run("version", ["--version"])
        setup = []
        for _ in range(SETUP_REPEATS):
            gen = runner.run("gen", ["gen", *(a.format(**fill) for a in workload.gen),
                                     "--out", str(problem)], payload=problem)
            t0 = time.perf_counter()
            if workload.weight_rows:
                c = np.random.default_rng(seed).normal(size=(workload.weight_rows, workload.n))
                weights.write_text(json.dumps(c.tolist()))
            setup.append(gen.wall_s + time.perf_counter() - t0)
        startup = [runner.run("version", ["--version"]).wall_s
                   for _ in range(STARTUP_REPEATS if trace else 0)]

        passes = []
        min_passes = 1 if trace else MIN_PASSES
        window = time.monotonic()
        while True:
            t0 = time.monotonic()
            ran = []
            for label, template in workload.commands:
                args = [a.format(**fill) for a in template]
                ran.append(runner.run(label, args))
                if trace:
                    ran.append(runner.run(label, args, traced=True))
            passes.append((time.monotonic() - t0, ran))
            mean = statistics.fmean(p for p, _ in passes)
            now = time.monotonic()
            if (len(passes) >= min_passes and now - window + mean > seconds
                    or now + mean > runner.deadline):
                break

        problems = check_commands(workload, runner.samples, problem, weights, seed)
        failed = sum(1 for s in runner.samples if s.code != 0 or problems.get(s.label))
        attempted = len(runner.samples)
        commands = [s for _, ran in passes for s in ran]
        lines = [f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}",
                 "environment " + json.dumps(environment(seed), sort_keys=True),
                 f"cold first run (the warm-up gramsel --version): {cold.wall_s:.4f} s",
                 f"passes {len(passes)}"]
        if trace:
            metrics = _per_layer(workload, passes, cold, startup, lines)
        else:
            metrics = _end_to_end(commands, setup, lines)
        for label, messages in sorted(problems.items()):
            lines += [f"FAILED {label}: {m}" for m in messages]
        lines.append(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} "
                     f"CLI subprocesses, set-up and warm-up included)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def _end_to_end(commands, setup, lines):
    walls, digests = defaultdict(list), {}
    for s in commands:
        walls[s.label].append(s.wall_s)
        digests[s.label] = s.digest
    for label, values in walls.items():
        lines.append(f"{label}_s {statistics.median(values):.4f} s  median of {len(values)}  "
                     f"(min {min(values):.4f}, max {max(values):.4f})  "
                     f"payload sha256 {digests[label][:16]}")
    lines.append(f"setup_s {statistics.median(setup):.4f} s  median of {len(setup)}")
    values = {
        "centrality_s": statistics.median(walls["centrality"]),
        "commands_s": sum(statistics.median(v) for v in walls.values()),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(s.rss_mb for s in commands),
    }
    lines.append(f"commands_s {values['commands_s']:.4f} s  sum of the command medians")
    lines.append(f"peak_rss_mb {values['peak_rss_mb']:.1f} MB  highest child ru_maxrss")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def _per_layer_values(summary, n):
    """Per-layer metrics of one traced pass from its span summary."""
    def get(span, field):
        return summary.get(span, {}).get(field, 0)

    values = {f"{span}.{field}": get(span, field)
              for span, fields in SPAN_METRICS for field in fields}
    values["gramian.solve.flops_computed"] = (
        get("gramian.LyapunovSolver.solve", "calls") * SOLVE_FLOPS_PER_N3 * n ** 3)
    return values


def _per_layer(workload, passes, cold, startup, lines):
    per_pass = []
    overheads = []
    for i, (_, ran) in enumerate(passes):
        traced = [s for s in ran if s.spans is not None]
        untraced = [s for s in ran if s.spans is None]
        overheads.append(sum(s.wall_s for s in traced) - sum(s.wall_s for s in untraced))
        ok = [s.spans for s in traced if s.code == 0 and s.spans.exists()]
        per_pass.append(_per_layer_values(spans.summarize(_merge(ok)), workload.n))
        if i == 0:
            for t, u in zip(traced, untraced):
                if t.code != 0 or not t.spans.exists():
                    continue
                lines.append(f"traced {t.label} ({t.wall_s:.4f} s; untraced {u.wall_s:.4f} s):")
                for span, st in sorted(spans.summarize(spans.load(t.spans)).items()):
                    lines.append(f"  {span:40s} calls {st['calls']:7d}  s {st['s']:9.4f}  "
                                 f"self_s {st['self_s']:9.4f}")
    values = {name: statistics.median([p[name] for p in per_pass]) for name in per_pass[0]}
    values["cli.cold_start_s"] = cold.wall_s
    values["cli.startup_s"] = statistics.median(startup)
    values["trace.overhead_s"] = statistics.median(overheads)
    lines.append(f"per-layer metrics, median over {len(per_pass)} traced passes "
                 f"(cli.startup_s: median of {len(startup)}; trace.overhead_s: traced minus "
                 f"untraced wall time):")
    lines += [f"  {name} {values[name]:.6g} {unit}" for name, unit in PER_LAYER.items()]
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gramsel" / "cli.py").is_file():
        print(f"error: no gramsel sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    result, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
