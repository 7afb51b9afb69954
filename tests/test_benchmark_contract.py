"""The benchmark's span contract, checked in the tier-1 suite.

The traced benchmark (perfbench/run.py) fails a command when a span that
``run.expected_spans`` names does not fire, e.g. because its target was
renamed or is no longer called.  These tests run the smoke workload's
commands in-process under the benchmark's own tracer, on a grid and on an
explicit problem, so such a change shows here first.  perfbench/spans.py
and perfbench/run.py are loaded from their files; nothing there is edited.
"""

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from gramsel import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _module(name):
    """perfbench/<name>.py under its own name, which is how run.py imports its siblings."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


spans = _module("spans")
_module("oracle")  # imported by run.py
run = _module("run")

SMOKE = run.WORKLOADS["ring6-smoke"]  # select, h2 rank, centrality, verify on a six-bus ring
WORKLOADS = {
    "ring6": SMOKE,
    "random4": dataclasses.replace(SMOKE, gen=("--random", "4", "5", "--seed", "{seed}"), n=4),
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_expected_span_fires(tmp_path, capsys, name):
    workload = WORKLOADS[name]
    problem, weights = tmp_path / "problem.json", tmp_path / "weights.json"
    fill = {"problem": str(problem), "weights": str(weights), "seed": "1"}
    assert cli.main(["gen", *(a.format(**fill) for a in workload.gen), "--out", str(problem)]) == 0
    c = np.random.default_rng(1).normal(size=(workload.weight_rows, workload.n))
    weights.write_text(json.dumps(c.tolist()))
    for label, template in workload.commands:
        tracer = spans.Tracer()
        with tracer.installed():
            code = cli.main([a.format(**fill) for a in template])  # the traced cli.main
        capsys.readouterr()
        assert code == 0, label
        missing = run.expected_spans(workload, label) - {span[0] for span in tracer.spans}
        assert not missing, f"{label}: spans did not fire: {sorted(missing)}"
