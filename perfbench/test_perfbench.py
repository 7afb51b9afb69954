"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import json
import math
import sys
import time

import numpy as np
import pytest

import oracle
import run
import spans

sys.path.insert(0, str(run.SRC))


def test_self_time_of_nested_spans():
    trace = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 7.0, 0],
        ["a", 20.0, 21.0, -1],
    ]
    summary = spans.summarize(trace)
    assert summary["a"]["calls"] == 2
    assert summary["a"]["s"] == pytest.approx(11.0)
    assert summary["a"]["self_s"] == pytest.approx(10.0 - 3.0 - 2.0 + 1.0)
    assert summary["a"]["ms_median"] == pytest.approx(5500.0)
    assert summary["b"]["s"] == pytest.approx(5.0)
    assert summary["b"]["self_s"] == pytest.approx(2.0 + 2.0)
    assert summary["c"]["self_s"] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    trace = [["p", 0.0, 10.0, -1], ["x", 1.0, 5.0, 0], ["y", 3.0, 6.0, 0]]
    assert spans.summarize(trace)["p"]["self_s"] == pytest.approx(5.0)


def _bound_targets():
    """Every (owner, attribute) that a target is reachable through, with its value."""
    import importlib

    bound = {}
    for _, module_name, attr in spans.TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, leaf = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            bound[(owner, leaf)] = vars(owner)[leaf]
            continue
        original = getattr(module, leaf)
        for mod in spans._gramsel_modules():
            for key, value in vars(mod).items():
                if value is original:
                    bound[(mod, key)] = value
    return bound


def test_wrappers_record_spans_and_restore_the_originals():
    from gramsel import cli, numerics, placement

    before = _bound_targets()
    original_select = placement.select_top_k
    assert cli.select_top_k is original_select
    tracer = spans.Tracer()
    with tracer.installed():
        assert cli.select_top_k is not original_select
        assert placement.select_top_k is cli.select_top_k
        numerics.spectral_abscissa(np.diag([-1.0, -2.0]))
    assert [span[0] for span in tracer.spans] == ["numerics.eigenvalues"]
    after = _bound_targets()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_missing_target_is_reported_and_earlier_patches_undone():
    from gramsel import numerics

    original = numerics.eigenvalues
    targets = (("numerics.eigenvalues", "gramsel.numerics", "eigenvalues"),
               ("gone", "gramsel.numerics", "no_such_function"))
    with pytest.raises(LookupError, match="no_such_function"):
        with spans.Tracer().installed(targets):
            pass
    assert numerics.eigenvalues is original


def test_every_target_is_expected_by_some_command():
    expected = set().union(*(run.expected_spans(run.WORKLOADS["ring6-smoke"], label)
                             for label in run.COMMAND_SPANS))
    assert expected == {name for name, _, _ in spans.TARGETS}


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def _small_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 5)) - 4.0 * np.eye(5)
    return oracle.Oracle(a, [f"c{i}" for i in range(6)], rng.normal(size=(5, 6)), seed=0)


def _rows(orc, cbar):
    scores = orc.scores(cbar)
    order = np.argsort(-scores)
    return [{"id": orc.ids[i], "score": float(scores[i])} for i in order]


@pytest.mark.parametrize("buses", [2, 3, 7])
def test_oracle_reads_rings_as_gramsel_builds_them(tmp_path, buses):
    from gramsel.models import load_problem, ring_problem_dict, write_problem

    path = tmp_path / "ring.json"
    write_problem(path, ring_problem_dict(buses, inertia=2.0, damping=0.3, grounding=0.2))
    a, ids, columns = oracle.read_problem(path)
    cs = load_problem(str(path)).candidate_set
    assert len(ids) == buses * (buses - 1) // 2
    assert list(cs.ids) == ids
    np.testing.assert_array_equal(a, cs.a)
    np.testing.assert_array_equal(columns, np.column_stack([col for _, col in cs.candidates]))


def test_oracle_reads_explicit_problems_and_refuses_chords(tmp_path):
    from gramsel.models import (load_problem, random_hurwitz_system, ring_problem_dict,
                                system_problem_dict, write_problem)

    path = tmp_path / "random.json"
    write_problem(path, system_problem_dict(*random_hurwitz_system(4, 6, seed=2)))
    a, ids, columns = oracle.read_problem(path)
    cs = load_problem(str(path)).candidate_set
    assert list(cs.ids) == ids
    np.testing.assert_array_equal(a, cs.a)
    np.testing.assert_array_equal(columns, np.column_stack([col for _, col in cs.candidates]))
    write_problem(path, ring_problem_dict(6, chords=2))
    with pytest.raises(ValueError, match="chord-free"):
        oracle.read_problem(path)


def test_oracle_accepts_exact_scores_and_flags_planted_errors():
    orc = _small_oracle()
    cbar = np.eye(5)
    rows = _rows(orc, cbar)
    assert orc.check_ranked(rows, cbar) == []
    off = [dict(r) for r in rows]
    off[2]["score"] *= 1 + 1e-7
    assert orc.check_ranked(off, cbar)
    assert orc.check_ranked(rows[::-1], cbar)
    assert orc.check_ranked(rows[:-1] + rows[:1], cbar)


def test_selection_is_compared_by_value():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(5, 5)) - 4.0 * np.eye(5)
    cols = rng.normal(size=(5, 4))
    cols = np.column_stack([cols, cols[:, 0]])  # c4 ties with c0
    orc = oracle.Oracle(a, [f"c{i}" for i in range(5)], cols, seed=0)
    cbar = np.eye(5)
    rows = _rows(orc, cbar)
    k = next(i for i, r in enumerate(rows) if r["id"] in ("c0", "c4")) + 1
    total = math.fsum(r["score"] for r in rows[:k])
    for pick in ("c0", "c4"):
        chosen = [r["id"] for r in rows[:k - 1]] + [pick]
        results = {"ranked": [dict(r, selected=int(r["id"] in chosen)) for r in rows],
                   "selected": chosen, "total_score": total}
        assert orc.check_selected(results, k, cbar) == []
    results["total_score"] *= 1 + 1e-6
    assert orc.check_selected(results, k, cbar)


def test_missing_sources_exit_nonzero_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "ring6-smoke", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_ring6_smoke_runs_every_command_without_failures(trace):
    start = time.monotonic()
    result, lines = run.run_workload("ring6-smoke", seed=3, seconds=0, trace=trace)
    assert time.monotonic() - start < 60
    assert result["correct"] and result["failed"] == 0, "\n".join(lines)
    passes = 1 if trace else run.MIN_PASSES
    assert result["attempted"] == (1 + run.SETUP_REPEATS + 4 * (1 + trace) * passes
                                   + trace * run.STARTUP_REPEATS)
    names = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    if trace:
        # select scores 15 candidates plus one cross-check, centrality 12 nodes,
        # rank 15 candidates, verify 2 trials of at most 4 subsets each
        solves = result["metrics"]["gramian.LyapunovSolver.solve.calls"]["value"]
        assert 16 + 15 + 12 < solves <= 16 + 15 + 12 + 8
