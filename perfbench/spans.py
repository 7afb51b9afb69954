"""Spans around gramsel's functions, recorded from outside the package.

A span is ``(name, start, end, parent)``: the wrapped function's span
name, its start and end on ``time.perf_counter``, and the index of the
span that was open when it started (-1 at top level).  The tracer keeps
spans in memory; the traced CLI writes them out once the command ends.
Nothing inside ``src/`` knows about tracing: :meth:`Tracer.installed`
replaces each target by a wrapper in every gramsel module that bound it
and puts the originals back on exit.
"""

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (span name, module, attribute) for every function the traced CLI wraps.
TARGETS = (
    ("cli", "gramsel.cli", "main"),
    ("models.load_problem", "gramsel.models", "load_problem"),
    ("models.build_swing_matrix", "gramsel.models", "build_swing_matrix"),
    ("models.hvdc_candidates", "gramsel.models", "hvdc_candidates"),
    ("placement.CandidateSet.init", "gramsel.placement", "CandidateSet.__init__"),
    ("placement.CandidateSet.column", "gramsel.placement", "CandidateSet.column"),
    ("placement.CandidateSet.input_matrix", "gramsel.placement", "CandidateSet.input_matrix"),
    ("numerics.real_schur", "gramsel.numerics", "real_schur"),
    ("numerics.eigenvalues", "gramsel.numerics", "eigenvalues"),
    ("gramian.LyapunovSolver.init", "gramsel.gramian", "LyapunovSolver.__init__"),
    ("gramian.LyapunovSolver.solve", "gramsel.gramian", "LyapunovSolver.solve"),
    ("metrics.evaluate_metric", "gramsel.metrics", "evaluate_metric"),
    # The per-candidate scoring loop.  candidate_weights (rank) and
    # select_top_k (select) both run it; wrapping the public
    # candidate_weights alone would leave select's scoring in its self time.
    ("placement.candidate_weights", "gramsel.placement", "_weights_with_solver"),
    ("placement.select_top_k", "gramsel.placement", "select_top_k"),
    ("placement.controllability_centrality", "gramsel.placement", "controllability_centrality"),
    ("placement.verify_modularity", "gramsel.placement", "verify_modularity"),
)


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent]
        self._open = []  # indices of the spans currently open, innermost last

    def wrap(self, name, fn):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self, targets=TARGETS):
        """Wrap every target for the duration of the block.

        A function imported by name into other gramsel modules (``from
        .placement import select_top_k``) is replaced there too.  A target
        that no longer exists raises LookupError, so a renamed function is
        reported instead of silently reading as zero.
        """
        patches = []
        try:
            for name, module_name, attr in targets:
                module = importlib.import_module(module_name)
                owner_name, _, leaf = attr.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name, None)
                    if owner is None or leaf not in vars(owner):
                        raise LookupError(f"span {name}: {module_name}.{attr} not found")
                    patches.append((owner, leaf, vars(owner)[leaf]))
                    setattr(owner, leaf, self.wrap(name, vars(owner)[leaf]))
                    continue
                original = getattr(module, leaf, None)
                if original is None:
                    raise LookupError(f"span {name}: {module_name}.{attr} not found")
                wrapped = self.wrap(name, original)
                for mod in _gramsel_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, key, original))
                            setattr(mod, key, wrapped)
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def _gramsel_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "gramsel" or name.startswith("gramsel."))]


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize(spans):
    """Per span name: ``calls``, total seconds ``s``, ``self_s`` and ``ms_median``.

    A span's self time is its duration minus the part of its interval
    that its child spans cover.  ``s`` sums whole durations; the targets
    never call themselves, so spans of one name do not nest.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    durations = defaultdict(list)
    self_s = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        durations[name].append(end - start)
        self_s[name] += end - start - _covered(children.get(i, ()))
    return {
        name: {
            "calls": len(ds),
            "s": sum(ds),
            "self_s": self_s[name],
            "ms_median": 1e3 * statistics.median(ds),
        }
        for name, ds in durations.items()
    }
