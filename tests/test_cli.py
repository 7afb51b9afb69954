import contextlib
import functools
import hashlib
import itertools
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gramsel
from gramsel import cli, gramian, models, numerics, placement
from gramsel.exceptions import NumericalError, StabilityError
from gramsel.metrics import MetricSpec
from gramsel.placement import CandidateSet, ModularityReport, controllability_centrality


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def make_problem(tmp_path, capsys, name="prob.json", args=("--random", "4", "5")):
    path = tmp_path / name
    code, _, _ = run(capsys, ["gen", *args, "--seed", "7", "--out", str(path)])
    assert code == 0
    return str(path)


class TestGen:
    def test_random_problem(self, tmp_path, capsys):
        path = make_problem(tmp_path, capsys)
        doc = json.loads(open(path).read())
        assert doc["n"] == 4
        assert len(doc["candidates"]) == 5

    def test_ring_problem(self, tmp_path, capsys):
        path = make_problem(tmp_path, capsys, args=("--ring", "6"))
        doc = json.loads(open(path).read())
        assert doc["grid"]["topology"] == "ring"
        assert doc["grid"]["buses"] == 6

    def test_requires_exactly_one_kind(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            cli.main(["gen", "--out", str(tmp_path / "x.json")])
        capsys.readouterr()

    @pytest.mark.parametrize("args, field", [
        (("--ring", "1"), "buses"),
        (("--ring", "4", "--chords", "50"), "chords"),
        (("--ring", "4", "--inertia", "-1"), "inertia"),
        (("--ring", "4", "--damping", "0"), "damping"),
        (("--ring", "4", "--susceptance", "-1"), "susceptance"),
        (("--ring", "4", "--grounding", "-0.1"), "grounding"),
        (("--ring", "100000000000000000000"), "buses"),
    ])
    def test_ring_a_loader_rejects_is_never_written(self, tmp_path, capsys, args, field):
        out = tmp_path / "p.json"
        code, _, err = run(capsys, ["gen", *args, "--out", str(out)])
        assert code == 2
        assert field in err
        assert not out.exists()

    @pytest.mark.parametrize("sizes, field", [
        (("2", "10000000000000000000"), "m"),
        (("10000000000000000000", "2"), "n"),
    ])
    def test_random_sizes_numpy_cannot_address_are_2(self, tmp_path, capsys, sizes, field):
        out = tmp_path / "p.json"
        code, _, err = run(capsys, ["gen", "--random", *sizes, "--out", str(out)])
        assert code == 2 and not out.exists()
        assert err.splitlines() == [f"error: {field} is too large for numpy to address an "
                                    f"({sizes[0]}, 10000000000000000000) float array"]

    @pytest.mark.parametrize("kind, flag, value", [
        (("--random", "4", "5"), "--chords", "3"),
        (("--random", "4", "5"), "--inertia", "-5"),
        (("--random", "4", "5"), "--damping", "0.5"),
        (("--random", "4", "5"), "--susceptance", "1"),
        (("--random", "4", "5"), "--grounding", "0.1"),
        (("--ring", "5"), "--density", "7"),
    ])
    def test_flag_of_the_other_kind_is_2(self, tmp_path, capsys, kind, flag, value):
        out = tmp_path / "p.json"
        code, _, err = run(capsys, ["gen", *kind, flag, value, "--out", str(out)])
        assert code == 2
        assert flag in err
        assert not out.exists()

    @pytest.mark.parametrize("args, grid", [
        (("--ring", "74"), {"buses": 74, "chords": 0, "inertia": 1.0, "seed": 0}),
        (("--ring", "9", "--chords", "5", "--seed", "2", "--inertia", "2.0"),
         {"buses": 9, "chords": 5, "inertia": 2.0, "seed": 2}),
    ])
    def test_ring_defaults_come_from_models(self, tmp_path, capsys, args, grid):
        out = tmp_path / "p.json"
        assert run(capsys, ["gen", *args, "--out", str(out)])[0] == 0
        grid = {"topology": "ring", "damping": 0.5, "susceptance": 1.0, "grounding": 0.1,
                **grid}
        assert out.read_text() == json.dumps({"grid": grid}, indent=2, sort_keys=True) + "\n"


class TestRank:
    def test_report_structure(self, tmp_path, capsys):
        path = make_problem(tmp_path, capsys)
        code, out, err = run(capsys, ["rank", path])
        assert code == 0
        report = json.loads(out)
        assert report["command"]["name"] == "rank"
        assert report["input_digest"].startswith("sha256:")
        assert report["version"]
        ranked = report["results"]["ranked"]
        assert len(ranked) == 5
        scores = [r["score"] for r in ranked]
        assert scores == sorted(scores, reverse=True)
        assert "[gramsel]" in err  # timings on stderr only

    def test_csv_table(self, tmp_path, capsys):
        path = make_problem(tmp_path, capsys)
        code, out, _ = run(capsys, ["rank", path, "--csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rank,id,score"
        assert len(lines) == 6

    def test_h2_adds_norm_column(self, tmp_path, capsys):
        path = make_problem(tmp_path, capsys, args=("--ring", "5"))
        code, out, _ = run(capsys, ["rank", path, "--weight", "frequencies"])
        assert code == 0
        row = json.loads(out)["results"]["ranked"][0]
        assert row["h2_norm"] == pytest.approx(row["score"] ** 0.5)

    def test_select_csv_keeps_the_h2_norm_column(self, tmp_path, capsys):
        path = make_problem(tmp_path, capsys, args=("--ring", "4"))
        code, out, _ = run(capsys, ["select", path, "--k", "2", "--weight", "frequencies",
                                    "--csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "rank,id,score,h2_norm,selected"
        assert sum(int(line.rsplit(",", 1)[1]) for line in lines[1:]) == 2
        # the select table is the rank table plus the "selected" column
        code, ranked_csv, _ = run(capsys, ["rank", path, "--weight", "frequencies", "--csv"])
        assert code == 0
        assert [line.rsplit(",", 1)[0] for line in lines] == ranked_csv.splitlines()

    def test_frequencies_weight_requires_grid(self, tmp_path, capsys):
        path = make_problem(tmp_path, capsys)
        code, _, err = run(capsys, ["rank", path, "--weight", "frequencies"])
        assert code == 2
        assert "grid" in err

    def test_weight_file_metric(self, tmp_path, capsys):
        path = make_problem(tmp_path, capsys)
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps(np.eye(4).tolist()))
        code, out, _ = run(capsys, ["rank", path, "--metric", "weighted",
                                    "--weight-file", str(wfile)])
        assert code == 0
        # identity weighting must agree with the plain trace metric
        code2, out2, _ = run(capsys, ["rank", path, "--metric", "trace"])
        got = [r["score"] for r in json.loads(out)["results"]["ranked"]]
        want = [r["score"] for r in json.loads(out2)["results"]["ranked"]]
        assert got == want

    @pytest.mark.parametrize("flags", [("--metric", "trace"),
                                       ("--weight-file", "missing.json")])
    def test_frequencies_weight_conflicts_with_metric_flags(self, tmp_path, capsys, flags):
        path = make_problem(tmp_path, capsys, args=("--ring", "5"))
        code, out, err = run(capsys, ["rank", path, "--weight", "frequencies", *flags])
        assert code == 2
        assert out == ""
        assert "--weight frequencies" in err and flags[0] in err

    def test_frequencies_weight_is_h2_over_the_frequency_states(self, tmp_path, capsys):
        path = make_problem(tmp_path, capsys, args=("--ring", "5"))
        selector = tmp_path / "c.json"
        selector.write_text(json.dumps(np.eye(10)[1::2].tolist()))  # rows: the freq states
        code, out, _ = run(capsys, ["rank", path, "--weight", "frequencies"])
        assert code == 0
        code, explicit, _ = run(capsys, ["rank", path, "--metric", "h2",
                                         "--weight-file", str(selector)])
        assert code == 0
        assert json.loads(out)["results"] == json.loads(explicit)["results"]

    @pytest.mark.parametrize("metric, weight, kind", [
        ("h2", np.ones((2, 3)), "h2"),  # 3 columns for 4 states
        ("weighted", np.eye(3), "weighted_trace"),  # order 3 for 4 states
    ])
    def test_weight_that_does_not_fit_the_states_is_2(self, tmp_path, capsys, metric, weight,
                                                      kind):
        path = make_problem(tmp_path, capsys)
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps(weight.tolist()))
        code, out, err = run(capsys, ["rank", path, "--metric", metric,
                                      "--weight-file", str(wfile)])
        assert code == 2 and out == ""
        assert f"{kind} weight matrix has shape {weight.shape}, expected" in err

    def test_trace_metric_takes_no_weight_file(self, tmp_path, capsys):
        path = make_problem(tmp_path, capsys)
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps(np.eye(4).tolist()))
        code, out, err = run(capsys, ["rank", path, "--metric", "trace",
                                      "--weight-file", str(wfile)])
        assert code == 2 and out == ""
        assert "--metric trace takes no --weight-file" in err

    def test_missing_weight_file(self, tmp_path, capsys):
        path = make_problem(tmp_path, capsys)
        code, _, err = run(capsys, ["rank", path, "--metric", "h2"])
        assert code == 2
        assert "--weight-file" in err


class TestReportMemory:
    @pytest.mark.parametrize("command", [["rank"], ["select", "--k", "10", "--csv"]])
    def test_scoring_and_report_hold_no_copy_of_b(self, monkeypatch, command):
        # Besides B, a run holds O(n^2 + M) memory: a few length-M arrays, 8 bytes an
        # entry each, which at n = 8 stay under B's 64.  An (n, M) temporary or one
        # object per candidate would not.
        n, m = 8, 200_000
        rng = np.random.default_rng(0)
        cs = CandidateSet(models.random_hurwitz_system(n, 1, seed=0)[0],
                          [f"c{j}" for j in range(m)], rng.normal(size=(n, m)))
        cs.solver  # scipy's import and the Schur factors are not the report's
        problem = SimpleNamespace(digest="sha256:0", metric=MetricSpec(), grid=None)
        monkeypatch.setattr(cli, "_load", lambda args: (problem, cs))
        tracemalloc.start()
        try:
            assert cli.main([command[0], "p.json", *command[1:], "--out", os.devnull]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cs.B.nbytes


class TestSelect:
    def test_agrees_with_bruteforce(self, tmp_path, capsys):
        path = make_problem(tmp_path, capsys)
        code, out, _ = run(capsys, ["select", path, "--k", "2"])
        assert code == 0
        sel = json.loads(out)["results"]
        code, out, _ = run(capsys, ["bruteforce", path, "--k", "2"])
        assert code == 0
        brute = json.loads(out)["results"]
        assert sorted(sel["selected"]) == brute["best_ids"]
        assert sel["total_score"] == pytest.approx(brute["best_value"], rel=1e-9)

    def test_bad_k(self, tmp_path, capsys):
        path = make_problem(tmp_path, capsys)
        code, _, err = run(capsys, ["select", path, "--k", "99"])
        assert code == 2
        assert "k must satisfy" in err


class TestCentrality:
    def test_grid_labels(self, tmp_path, capsys):
        path = make_problem(tmp_path, capsys, args=("--ring", "4"))
        code, out, _ = run(capsys, ["centrality", path])
        assert code == 0
        nodes = json.loads(out)["results"]["nodes"]
        assert len(nodes) == 8
        assert nodes[0]["label"].endswith(":angle")
        assert nodes[1]["label"].endswith(":freq")

    def test_ring_symmetry(self, tmp_path, capsys):
        path = make_problem(tmp_path, capsys, args=("--ring", "5"))
        code, out, _ = run(capsys, ["centrality", path])
        scores = [n["score"] for n in json.loads(out)["results"]["nodes"]]
        angle, freq = scores[0::2], scores[1::2]
        assert max(angle) - min(angle) <= 1e-9 * max(angle)
        assert max(freq) - min(freq) <= 1e-9 * max(freq)

    def test_reads_no_candidates(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text('{"n": 2, "A": [[-1, 0], [0, -2]], "candidates": []}')
        code, out, _ = run(capsys, ["centrality", str(path)])
        assert code == 0
        assert json.loads(out)["results"]["n"] == 2
        for command in (["rank"], ["select", "--k", "1"], ["verify"]):
            code, out, err = run(capsys, [command[0], str(path), *command[1:]])
            assert code == 2 and out == ""
            assert "candidate set is empty" in err

    def test_stiff_grid_scores_are_nonnegative_to_rounding(self):
        # STIFF_GRID fails the Hurwitz rule; at inertia 1e-10 the abscissa clears it 82-fold,
        # and the scores, the diagonal of P in A^T P + P A + I = 0, clear -n eps ||P||_F
        with pytest.raises(StabilityError, match="rounding level"):
            gramian.LyapunovSolver(models.build_swing_matrix(models.grid_model(
                STIFF_GRID["grid"])))
        grid = json.loads(json.dumps(STIFF_GRID["grid"]))
        grid["buses"][0].update(inertia=1e-10, damping=0.5)
        a = models.build_swing_matrix(models.grid_model(grid))
        scores = controllability_centrality(a)
        p = gramian.LyapunovSolver(a).solve(np.eye(len(a)), adjoint=True)
        assert np.isfinite(p).all()
        assert scores.min() >= -len(a) * np.finfo(float).eps * np.linalg.norm(p)


class TestVerify:
    def test_passes_on_valid_problem(self, tmp_path, capsys):
        path = make_problem(tmp_path, capsys)
        code, out, _ = run(capsys, ["verify", path, "--trials", "25"])
        assert code == 0
        res = json.loads(out)["results"]
        assert res["passed"] is True
        assert res["max_violation"] <= 1e-8

    def test_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        path = make_problem(tmp_path, capsys)
        monkeypatch.setattr(
            cli,
            "verify_modularity",
            lambda *a, **k: ModularityReport(
                trials=1, max_violation=1.0, tolerance=1e-8,
                worst_pair=(("b0",), ("b1",)),
            ),
        )
        code, out, err = run(capsys, ["verify", path])
        assert code == 1
        assert json.loads(out)["results"]["passed"] is False
        assert "FAILED" in err

    def test_gathers_each_column_once(self, tmp_path, capsys, monkeypatch):
        # ring6 has 15 HVDC links; 20 trials score 80 subsets from one stack of them
        path = make_problem(tmp_path, capsys, args=("--ring", "6"))
        calls = []
        column = placement.CandidateSet.column
        monkeypatch.setattr(placement.CandidateSet, "column",
                            lambda self, cid: calls.append(cid) or column(self, cid))
        code, out, _ = run(capsys, ["verify", path, "--trials", "20"])
        assert code == 0 and json.loads(out)["results"]["passed"] is True
        assert len(calls) == len(set(calls)) == 15


class TestBruteforce:
    def test_cap_exit_code(self, tmp_path, capsys):
        path = make_problem(tmp_path, capsys, args=("--random", "4", "12"))
        code, _, err = run(capsys, ["bruteforce", path, "--k", "5", "--cap", "100"])
        assert code == 2
        assert "C(12, 5)" in err and "792" in err

    def test_negative_cap_is_2(self, tmp_path, capsys):
        # a cap is a count like --k: below 0 it is malformed input, not a limit
        path = make_problem(tmp_path, capsys)
        code, out, err = run(capsys, ["bruteforce", path, "--k", "1", "--cap", "-1"])
        assert code == 2 and out == ""
        assert "error: cap must be >= 0, got -1" in err.splitlines()

    def test_min_eig_functional(self, tmp_path, capsys):
        path = make_problem(tmp_path, capsys)
        code, out, _ = run(capsys, ["bruteforce", path, "--k", "2",
                                    "--functional", "min_eig"])
        assert code == 0
        assert len(json.loads(out)["results"]["best_ids"]) == 2

    def test_log_det_when_every_subset_is_singular(self, tmp_path, capsys):
        # each single column leaves one state unreachable, so every log-det is -inf
        path = tmp_path / "diag.json"
        path.write_text(json.dumps({"n": 2, "A": [[-1, 0], [0, -2]], "candidates": [
            {"id": "a", "b": [1, 0]}, {"id": "b", "b": [0, 1]}]}))
        code, out, _ = run(capsys, ["bruteforce", str(path), "--k", "1",
                                    "--functional", "log_det"])
        assert code == 0
        res = json.loads(out)["results"]
        assert res["best_ids"] == ["a"] and res["best_value"] == -np.inf


class TestSynthesize:
    def test_payload(self, tmp_path, capsys):
        path = make_problem(tmp_path, capsys)
        code, out, _ = run(capsys, [
            "synthesize", path, "--ids", "b0,b1", "--horizon", "2.0",
            "--target", "0.1,0,0.2,0", "--samples", "17", "--simulate",
        ])
        assert code == 0
        res = json.loads(out)["results"]
        assert res["samples"] == 17
        assert len(res["times"]) == 17
        assert len(res["inputs"][0]) == 2
        assert res["min_energy"] > 0
        assert res["terminal_error"] <= 1e-6
        assert res["input_energy"] == pytest.approx(res["min_energy"], rel=1e-4)

    def test_target_file(self, tmp_path, capsys):
        path = make_problem(tmp_path, capsys)
        tfile = tmp_path / "xf.json"
        tfile.write_text("[0.1, 0.0, 0.0, 0.0]")
        code, out, _ = run(capsys, [
            "synthesize", path, "--ids", "b0", "--horizon", "1.0",
            "--target-file", str(tfile), "--samples", "5",
        ])
        assert code == 0
        assert json.loads(out)["results"]["ids"] == ["b0"]

    def test_unknown_id(self, tmp_path, capsys):
        path = make_problem(tmp_path, capsys)
        code, _, err = run(capsys, [
            "synthesize", path, "--ids", "zz", "--horizon", "1.0",
            "--target", "0,0,0,0",
        ])
        assert code == 2
        assert "zz" in err

    def test_repeated_id_is_2(self, tmp_path, capsys):
        path = make_problem(tmp_path, capsys)
        code, out, err = run(capsys, [
            "synthesize", path, "--ids", "b0,b0", "--horizon", "1",
            "--target", "0.1,0,0,0", "--csv",
        ])
        assert code == 2
        assert out == ""
        assert "'b0' is named more than once" in err

    def test_empty_ids_is_2(self, tmp_path, capsys):
        path = make_problem(tmp_path, capsys)
        code, out, err = run(capsys, ["synthesize", path, "--ids", ",", "--horizon", "1",
                                      "--target", "0.1,0,0,0"])
        assert code == 2 and out == ""
        assert "--ids must name at least one candidate" in err

    # each subcommand with its required arguments; argparse rejects the flag before any work
    REQUIRED_ARGS = {
        "gen": ["--ring", "4", "--out", "p.json"], "rank": ["p.json"],
        "select": ["p.json", "--k", "2"], "centrality": ["p.json"], "verify": ["p.json"],
        "bruteforce": ["p.json", "--k", "2"],
        "synthesize": ["p.json", "--ids", "b0", "--horizon", "1.0", "--target", "0.1,0,0,0"],
    }

    @pytest.mark.parametrize("command, flag", [
        *((command, "--margin 1") for command in REQUIRED_ARGS),
        ("verify", "--csv"), ("bruteforce", "--csv"),
    ], ids=lambda value: value.split()[0].lstrip("-"))
    def test_margin_is_not_an_option(self, capsys, command, flag):
        # the Hurwitz rule has no knob, and --csv belongs to the commands with one table
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *self.REQUIRED_ARGS[command], *flag.split()])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_csv_time_series(self, tmp_path, capsys):
        path = make_problem(tmp_path, capsys)
        code, out, _ = run(capsys, [
            "synthesize", path, "--ids", "b0,b2", "--horizon", "1.0",
            "--target", "0.1,0,0,0", "--samples", "9", "--csv",
        ])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "time,u_b0,u_b2"
        assert len(lines) == 10


# a bus of inertia 1e-300: its HVDC column holds 1e300, whose square overflows
STIFF_GRID = {"grid": {
    "buses": [{"id": "b0", "inertia": 1e-300, "damping": 1e-300, "grounding": 0.1},
              {"id": "b1", "inertia": 2.0, "damping": 0.4}],
    "lines": [{"from": "b0", "to": "b1", "susceptance": 1.0}],
}}


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["rank", "/no/such/file.json"])
        assert code == 2
        assert "error:" in err

    def test_numerical_failure_is_3(self, tmp_path, capsys):
        path = tmp_path / "unstable.json"
        for a in ([[0.1]], [[0.5, 0.0], [0.0, -1.0]]):
            path.write_text(json.dumps({
                "n": len(a), "A": a, "candidates": [{"id": "x", "b": [1.0] * len(a)}],
            }))
            code, out, err = run(capsys, ["rank", str(path)])
            assert code == 3
            assert out == ""
            assert "Hurwitz" in err

    def test_stiff_grid_names_the_rounding_level(self, tmp_path, capsys):
        # grounded, so Hurwitz in exact arithmetic, but the -5e299 eigenvalue of the 1e-300
        # inertia bus leaves the others to rounding noise in the Schur factor.  centrality
        # scores unit inputs; rank would stop first, at the 1e300 HVDC column's b b^T
        grid = {"grid": {
            "buses": [{"id": "b0", "inertia": 1e-300, "damping": 0.5, "grounding": 0.1},
                      {"id": "b1", "inertia": 2.0, "damping": 0.4}],
            "lines": [{"from": "b0", "to": "b1", "susceptance": 1.0}],
        }}
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(grid))
        code, out, err = run(capsys, ["centrality", str(path)])
        assert code == 3 and out == ""
        assert ("error: dynamics matrix is not Hurwitz to 1000 times the Schur factor's "
                "rounding level eps*||A||_1 = 2.4e+284: max Re(eigenvalue) = ") in err

    def test_stiff_scores_of_the_wrong_sign_are_3(self, tmp_path, capsys):
        # A = Q diag(-1e9, -3e8, -1e8, -5e-9) Q^T: its abscissa -5e-9 is below the rounding
        # level eps ||A||_1 of about 3e-7, and a solve on it gives every unit input a trace
        # score of the wrong sign, so every ranking command refuses A
        path, wfile = tmp_path / "stiff.json", tmp_path / "w.json"
        wfile.write_text(json.dumps(np.eye(4).tolist()))
        commands = (["rank"], ["rank", "--metric", "weighted", "--weight-file", str(wfile)],
                    ["select", "--k", "2"], ["centrality"], ["verify", "--trials", "5"],
                    ["bruteforce", "--k", "1"])
        for seed in (0, 1, 5, 8):
            q = np.linalg.qr(np.random.default_rng(seed).normal(size=(4, 4)))[0]
            a = q @ np.diag([-1e9, -3e8, -1e8, -5e-9]) @ q.T
            path.write_text(json.dumps(models.system_problem_dict(
                a, [f"e{i}" for i in range(4)], np.eye(4))))
            for command in commands:
                code, out, err = run(capsys, [command[0], str(path), *command[1:]])
                errors = [line for line in err.splitlines() if line.startswith("error:")]
                assert code == 3 and out == "" and len(errors) == 1
                assert errors[0].startswith("error: dynamics matrix is not Hurwitz to 1000 "
                                            "times the Schur factor's rounding level")

    def test_wrong_adjoint_is_3(self, tmp_path, capsys, skewed_adjoint):
        path = make_problem(tmp_path, capsys)
        code, out, err = run(capsys, ["rank", path])
        assert code == 3
        assert out == ""
        assert "additivity" in err

    def test_schur_non_convergence_is_3(self, tmp_path, capsys, monkeypatch):
        # a dgees that reports info > 0, substituted through the loader
        real = numerics.lapack()

        def gees(*args, **kwargs):
            *out, _ = real.dgees(*args, **kwargs)
            return (*out, 1)

        monkeypatch.setattr(numerics, "lapack", lambda: SimpleNamespace(dgees=gees))
        message = ("Schur QR iteration failed to converge: "
                   "Schur form not found. Possibly ill-conditioned.")
        with pytest.raises(NumericalError) as err:
            numerics.real_schur([[-1.0, 2.0], [0.0, -3.0]])
        assert str(err.value) == message
        code, out, err = run(capsys, ["centrality", make_problem(tmp_path, capsys)])
        assert code == 3 and out == ""
        assert message in err

    def test_misaligned_weights_are_3(self, tmp_path, capsys, reversed_scores):
        path = make_problem(tmp_path, capsys)
        code, out, err = run(capsys, ["rank", path])
        assert code == 3
        assert out == ""
        assert "additivity" in err

    def test_malformed_json_is_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        for text in ("{oops", "[" * 200_000):  # a syntax error; nesting too deep to parse
            path.write_text(text)
            code, _, err = run(capsys, ["rank", str(path)])
            assert code == 2 and "invalid JSON in problem file" in err

    def test_undecodable_files_are_2(self, tmp_path, capsys):
        path = make_problem(tmp_path, capsys)
        bad = tmp_path / "bad.json"
        for data in (b"\xff\xfe\x00", b"[" * 200_000):
            bad.write_bytes(data)
            code, _, err = run(capsys, ["rank", str(bad)])
            assert code == 2 and "problem file" in err
            code, _, err = run(capsys, ["rank", path, "--weight-file", str(bad)])
            assert code == 2 and "weight file" in err
            code, _, err = run(capsys, ["synthesize", path, "--ids", "b0", "--horizon", "1",
                                        "--target-file", str(bad)])
            assert code == 2 and "target file" in err

    def test_booleans_in_weight_and_target_files_are_2(self, tmp_path, capsys):
        path = make_problem(tmp_path, capsys)
        bad = tmp_path / "bad.json"
        bad.write_text("[[true, 0, 0, 0]]")
        code, out, err = run(capsys, ["rank", path, "--metric", "h2", "--weight-file", str(bad)])
        assert (code, out) == (2, "") and "weight matrix is not numeric: it holds a boolean" in err
        bad.write_text("[true, 0, 0, 0]")
        code, out, err = run(capsys, ["synthesize", path, "--ids", "b0", "--horizon", "1",
                                      "--target-file", str(bad)])
        assert (code, out) == (2, "") and "target is not numeric: it holds a boolean" in err

    def test_bom_and_invalid_utf8_problem_files_are_2(self, tmp_path, capsys):
        text = Path(make_problem(tmp_path, capsys)).read_text()
        bad = tmp_path / "bad.json"
        # strict UTF-8: no BOM sniffing, unlike json.loads on bytes
        for data in (b"\xef\xbb\xbf" + text.encode(),
                     text.replace('"b0"', '"b\xff"').encode("latin-1")):
            bad.write_bytes(data)
            code, out, err = run(capsys, ["centrality", str(bad)])
            assert code == 2 and out == "" and "invalid JSON in problem file" in err

    def test_link_id_collision_is_2(self, tmp_path, capsys):
        # links "a-b"+"c" and "a"+"b-c" would both be called "a-b-c"
        names = ("a-b", "a", "b-c", "c")
        buses = [{"id": i, "inertia": 1.0, "damping": 1.0, "grounding": 0.1} for i in names]
        lines = [{"from": f, "to": t, "susceptance": 1.0} for f, t in zip(names, names[1:])]
        path = tmp_path / "collide.json"
        path.write_text(json.dumps({"grid": {"buses": buses, "lines": lines}}))
        code, out, err = run(capsys, ["rank", str(path)])
        assert code == 2
        assert out == ""
        assert "duplicate candidate id 'a-b-c'" in err

    def test_overflow_inside_scoring_is_3(self, tmp_path, capsys):
        # finite inputs whose b b^T overflows: a numerical failure, not an input error
        explicit = {"n": 2, "A": [[-1, 0], [0, -2]], "candidates": [{"id": "a", "b": [1e200, 0]}]}
        path, wfile = tmp_path / "big.json", tmp_path / "w.json"
        four = make_problem(tmp_path, capsys, "r4.json", ("--random", "3", "4", "--seed", "1"))
        forty = make_problem(tmp_path, capsys, "r40.json", ("--random", "3", "40", "--seed", "1"))
        h2 = ["--metric", "h2", "--weight-file", str(wfile)]
        on_four = (["rank"], ["select", "--k", "1"], ["verify", "--trials", "2"],
                   ["bruteforce", "--k", "1"])
        on_forty = (["rank"], ["select", "--k", "5"], ["verify", "--trials", "3"])
        # the additivity check's b diag(sqrt(d)) overflows too, not only b b^T
        scaled = {**explicit, "candidates": [{"id": "a", "b": [1, 0]},
                                             {"id": "b", "b": [1.5e308, 0]}]}
        # every plain b b^T sum fits, so A is factored, but the additivity check's
        # b diag(d) b^T overflows (verify and bruteforce solve it: see the test below)
        weighted = {**explicit, "candidates": [{"id": "a", "b": [1, 0]},
                                               {"id": "b", "b": [1.2e154, 0]}]}
        # a finite b b^T = 4.2e307 whose Gramian, 2.1e308, overflows in the solve, under
        # every functional and in verify
        lone = {"n": 1, "A": [[-0.1]], "candidates": [{"id": "p", "b": [6.5e153]},
                                                     {"id": "q", "b": [1.0]}]}
        pair = {"n": 2, "A": [[-0.1, 0], [0, -0.2]],
                "candidates": [{"id": "p", "b": [6.5e153, 0]}, {"id": "q", "b": [0, 1.0]}]}
        functionals = [["bruteforce", "--k", "1", *flag] for flag in
                       ([], ["--functional", "min_eig"], ["--functional", "log_det"])]
        functionals.append(["verify", "--trials", "2"])
        # W(t) = (e^{2t} - 1) / 2 of an unstable A overflows in the doubling loop at t = 400,
        # and a finite b b^T = 1e308 in the block exponential's h b b^T at h = t = 3
        unstable = {"n": 1, "A": [[1.0]], "candidates": [{"id": "u", "b": [1.0]}]}
        block = {"n": 1, "A": [[-0.1]], "candidates": [{"id": "u", "b": [1e154]}]}
        horizon = ["synthesize", "--ids", "u", "--target", "1", "--horizon"]
        # the finite-horizon Gramian forms b b^T through the same checked helper
        synth = {"n": 1, "A": [[-1.0]], "candidates": [{"id": "p0", "b": [1e200]}]}
        cases = [  # (file to write, its document, problem, flags, commands)
            (path, explicit, path, [], on_four[:2]),
            (path, scaled, path, [], on_four[:2]),
            (path, weighted, path, [], on_four[:2]),
            (path, STIFF_GRID, path, [], on_four),
            # finite h2 weights whose C_bar, or the scores it weights, overflow
            (wfile, [[5e153] * 3], forty, h2, on_forty),
            (wfile, [[2e153] * 3], forty, h2, on_forty),
            (wfile, [[1e154, 0, 0]], four, h2, on_four),
            (wfile, [[9e153] * 3], four, h2, on_four),
            (path, lone, path, [], functionals),
            (path, pair, path, [], functionals),
            (path, unstable, path, [], [[*horizon, "400"]]),
            (path, block, path, [], [[*horizon, "3"]]),
            (path, synth, path, [], [["synthesize", "--ids", "p0", "--horizon", "1",
                                      "--target", "1"]]),
        ]
        for target, doc, problem, flags, commands in cases:
            target.write_text(json.dumps(doc))
            for command in commands:
                code, out, err = run(capsys, [command[0], str(problem), *command[1:], *flags])
                errors = [line for line in err.splitlines() if line.startswith("error:")]
                assert code == 3 and out == "" and len(errors) == 1
                assert "overflows" in errors[0] and not re.search(r"\bq\b", errors[0])
                # no numpy floating-point warning, and the stiff grid is never solved
                assert "warning:" not in err and "Traceback" not in err
        assert "b b^T overflows" in errors[0]  # the synthesize case

    def test_solutions_near_the_float_range_are_scored(self, tmp_path, capsys):
        # each best Gramian is finite, though twice its largest entry is not
        cases = [  # (document, best id, its trace)
            ({"n": 2, "A": [[-1, 0], [0, -2]], "candidates": [
                {"id": "a", "b": [1, 0]}, {"id": "b", "b": [1.2e154, 0]}]}, "b", 7.2e307),
            ({"n": 1, "A": [[-0.1]], "candidates": [
                {"id": "p", "b": [5.5e153]}, {"id": "q", "b": [1.0]}]}, "p", 1.5125e308),
            ({"n": 2, "A": [[-0.1, 0], [0, -0.2]], "candidates": [
                {"id": "p", "b": [5.5e153, 0]}, {"id": "q", "b": [0, 1.0]}]}, "p", 1.5125e308),
        ]
        path = tmp_path / "big.json"
        for doc, best, value in cases:
            path.write_text(json.dumps(doc))
            code, out, _ = run(capsys, ["bruteforce", str(path), "--k", "1"])
            results = json.loads(out)["results"]
            assert code == 0 and results["best_ids"] == [best]
            assert results["best_value"] == pytest.approx(value, rel=1e-14)
        # on the first, every f(A) + f(B) <= 1.44e308 stays finite too
        path.write_text(json.dumps(cases[0][0]))
        code, out, _ = run(capsys, ["verify", str(path), "--trials", "5"])
        assert code == 0 and json.loads(out)["results"]["passed"] is True
        # on the second, f(A) + f(B) = 3.025e308 when both hold p; verify halves each term
        # first, so it scores every trial and reports what it reported when it skipped those
        path.write_text(json.dumps(cases[1][0]))
        code, out, _ = run(capsys, ["verify", str(path), "--trials", "20"])
        assert code == 0 and json.loads(out)["results"] == {
            "max_violation": 3.305785123966942e-308, "metric": "trace", "passed": True,
            "tolerance": 1e-08, "trials": 20, "worst_pair": [["q"], ["p", "q"]]}

    def test_a_modularity_gap_past_the_float_range_is_3(self, tmp_path, capsys, monkeypatch):
        # a planted solver: f(A) = f(B) = 1.7e308 and f(A u B) = f(A n B) = -1.7e308, so
        # even the halved gap overflows; verify must neither pass nor print a NaN
        calls = itertools.count()

        def solve(self, q, adjoint=False):
            return np.array([[1.7e308 if next(calls) % 4 < 2 else -1.7e308]])

        monkeypatch.setattr(placement.LyapunovSolver, "solve", solve)
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 1, "A": [[-0.1]], "candidates": [
            {"id": "p", "b": [1.0]}, {"id": "q", "b": [2.0]}]}))
        code, out, err = run(capsys, ["verify", str(path), "--trials", "5"])
        assert (code, out) == (3, "")
        assert [line for line in err.splitlines() if not line.startswith("[gramsel]")] == [
            "error: trace modularity gap f(A)+f(B)-f(AuB)-f(AnB) overflows"]

    def test_overflowing_columns_fail_before_factoring(self, tmp_path, capsys, monkeypatch):
        # CandidateSet.solver's bound r r^T on every subset's b b^T is formed before A is
        # factored
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(STIFF_GRID))
        built = []
        monkeypatch.setattr(placement, "LyapunovSolver", built.append)
        commands = (["rank"], ["select", "--k", "1"], ["verify", "--trials", "2"],
                    ["bruteforce", "--k", "1"])
        for command in commands:
            code, out, err = run(capsys, [command[0], str(path), *command[1:]])
            assert code == 3 and out == ""
            assert [line for line in err.splitlines() if "load:" not in line] == [
                "error: b b^T overflows: the input columns are too large to score"]
        assert built == []
        # so a failing command never loads scipy, which only factoring needs
        code = (f"import sys\nfrom gramsel import cli\n"
                f"for command in {commands!r}:\n"
                f"    assert cli.main([command[0], {str(path)!r}, *command[1:]]) == 3\n"
                f"print('scipy' in sys.modules)")
        assert _python(code) == "False\n"

    def test_out_of_memory_is_3(self, tmp_path, capsys, monkeypatch):
        path = make_problem(tmp_path, capsys, args=("--ring", "4"))
        for message, shown in (("", "error: out of memory"),
                               ("Unable to allocate 201. GiB", "error: Unable to allocate")):
            def exhausted(grid, message=message):
                raise MemoryError(message)

            monkeypatch.setattr(models, "hvdc_candidates", exhausted)
            code, out, err = run(capsys, ["select", path, "--k", "1"])
            assert code == 3 and out == ""
            assert shown in err and "Traceback" not in err

    def test_horizon_whose_split_overflows_is_3(self, tmp_path, capsys):
        # the README's explicit problem, where t ||A||_1 = 2.2e308 is past the float range
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        path = tmp_path / "problem.json"
        path.write_text(re.findall(r"```json\n(.*?)```", text, re.DOTALL)[0])
        code, out, err = run(capsys, ["synthesize", str(path), "--ids", "p0,p1", "--horizon",
                                      "1e308", "--target", "0.1,0.2,0"])
        assert code == 3 and out == ""
        assert [line for line in err.splitlines() if not line.startswith("[gramsel]")] == [
            "error: horizon t = 1e+308 times ||A||_1 = 2.2 overflows"]

    def test_no_subcommand_prints_help(self, capsys):
        code = cli.main([])
        assert code == 2
        assert "usage" in capsys.readouterr().err


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        path = make_problem(tmp_path, capsys, args=("--ring", "6"))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run(capsys, ["rank", path, "--out", str(out1)])[0] == 0
        assert run(capsys, ["rank", path, "--out", str(out2)])[0] == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestDestinations:
    """stdout and --out receive one payload, streamed as it is written."""

    COMMANDS = [
        ["rank"], ["select", "--k", "2"], ["centrality"],
        ["synthesize", "--ids", "b0,b\u00fc", "--horizon", "1.0", "--target", "0.1,0,0.2,0",
         "--samples", "5"],
    ]

    @pytest.mark.parametrize("csv", [False, True])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_stdout_and_out_get_the_same_bytes(self, tmp_path, capsysbinary, command, csv):
        path = tmp_path / "p.json"
        doc = models.system_problem_dict(*models.random_hurwitz_system(4, 5, seed=7))
        doc["candidates"][1]["id"] = "b\u00fc"  # a non-ASCII id
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        argv = [command[0], str(path), *command[1:], *["--csv"] * csv]
        assert cli.main(argv) == 0
        stdout = capsysbinary.readouterr().out
        report = tmp_path / "report"
        assert cli.main([*argv, "--out", str(report)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert stdout and report.read_bytes() == stdout

    @pytest.mark.parametrize("csv", [False, True])
    def test_unwritable_out_is_2(self, tmp_path, capsys, csv):
        path = make_problem(tmp_path, capsys)
        report = tmp_path / "no" / "such" / "dir" / "report"
        code, out, err = run(capsys, ["rank", path, *["--csv"] * csv, "--out", str(report)])
        assert code == 2 and out == ""
        assert "error:" in err


LOADING_COMMANDS = [
    ["rank"], ["select", "--k", "2"], ["centrality"], ["verify", "--trials", "3"],
    ["bruteforce", "--k", "2"],
    ["synthesize", "--ids", "b0", "--horizon", "1.0", "--target", "0.1,0,0.2,0",
     "--samples", "5"],
]


class TestInputDigest:
    @pytest.mark.parametrize("command", LOADING_COMMANDS)
    def test_digest_is_of_the_bytes_read_once(self, tmp_path, capsys, monkeypatch, command):
        path = Path(make_problem(tmp_path, capsys))
        # non-ASCII and CRLF bytes that a re-encoding would not reproduce
        doc = json.loads(path.read_text())
        doc["candidates"][1]["id"] = "b\u00fc"
        path.write_bytes(json.dumps(doc, ensure_ascii=False).replace(", ", ",\r\n").encode())
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(models, "open", counting_open, raising=False)
        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        for source in (path.name, f".{path.name}.gramsel.npz"):  # a parse, then the sidecar
            opened.clear()
            code, out, err = run(capsys, [command[0], str(path), *command[1:]])
            assert code == 0 and f"(from {source})" in err
            digest = json.loads(out)["input_digest"]
            assert digest == "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
            assert opened.count(str(path)) == 1


def _sidecar(path):
    return path.with_name(f".{path.name}.gramsel.npz")


def _explicit_problem(path, seed=7):
    """An explicit problem with an h2 weight block, a non-ASCII id, an id ending in NUL
    and an integer id."""
    doc = models.system_problem_dict(*models.random_hurwitz_system(4, 5, seed=seed))
    doc["candidates"][1]["id"] = "bü"
    doc["candidates"][2]["id"] = "b2\u0000"
    doc["candidates"][3]["id"] = 3
    doc["weight"] = {"kind": "h2", "matrix": [[1.0, 0.5, 0.0, -2.0], [0.0, 1.0, 3.0, 0.0]]}
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")


# every loading command, and again under --csv where it has a table
SIDECAR_COMMANDS = LOADING_COMMANDS + [[*c, "--csv"] for c in LOADING_COMMANDS
                                       if c[0] not in ("verify", "bruteforce")]


class TestProblemSidecar:
    """An explicit problem's checked arrays are cached beside it, keyed by its sha256."""

    @pytest.mark.parametrize("command", SIDECAR_COMMANDS)
    def test_a_hit_prints_what_a_parse_prints(self, tmp_path, capsysbinary, command):
        path = tmp_path / "p.json"
        _explicit_problem(path)
        runs = []
        for _ in range(2):
            code = cli.main([command[0], str(path), *command[1:]])
            runs.append((code, *capsysbinary.readouterr()))
        (cold_code, cold, cold_err), (warm_code, warm, warm_err) = runs
        assert cold_code == warm_code == 0 and cold and warm == cold
        assert b"load: " in cold_err and b"(from p.json)" in cold_err
        assert b"(from .p.json.gramsel.npz)" in warm_err
        assert sorted(os.listdir(tmp_path)) == [".p.json.gramsel.npz", "p.json"]

    def test_new_bytes_are_parsed_and_cached_again(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        _explicit_problem(path)
        first = run(capsys, ["rank", str(path)])[1]
        _explicit_problem(path, seed=8)
        code, out, err = run(capsys, ["rank", str(path)])
        assert code == 0 and out != first and "(from p.json)" in err
        with np.load(_sidecar(path)) as z:
            key = json.loads(z["header"].tobytes())[0]
        assert key[1] == "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
        code, again, err = run(capsys, ["rank", str(path)])
        assert again == out and "(from .p.json.gramsel.npz)" in err

    @pytest.mark.parametrize("spoil", ["truncated", "foreign digest", "wrong shape", "nan",
                                       "not a zip"])
    def test_a_bad_sidecar_falls_back_to_the_json(self, tmp_path, capsys, spoil):
        path = tmp_path / "p.json"
        _explicit_problem(path)
        expected = run(capsys, ["rank", str(path)])
        sidecar = _sidecar(path)
        with np.load(sidecar) as z:
            arrays = dict(z)
        if spoil == "truncated":
            sidecar.write_bytes(sidecar.read_bytes()[:sidecar.stat().st_size // 2])
        elif spoil == "not a zip":
            sidecar.write_bytes(b"\x93NUMPY")
        else:
            if spoil == "foreign digest":
                header = json.loads(arrays["header"].tobytes())
                header[0][1] = "sha256:" + "0" * 64
                arrays["header"] = np.frombuffer(json.dumps(header).encode(), np.uint8)
            elif spoil == "wrong shape":
                arrays["b"] = arrays["b"][:, 1:]
            else:
                arrays["a"][1, 0] = np.nan
            with open(sidecar, "wb") as fh:
                np.savez(fh, **arrays)
        code, out, err = run(capsys, ["rank", str(path)])
        assert (code, out) == expected[:2] and "(from p.json)" in err
        code, out, err = run(capsys, ["rank", str(path)])  # the parse cached the file again
        assert (code, out) == expected[:2] and "(from .p.json.gramsel.npz)" in err

    @pytest.mark.parametrize("module, name", [(tempfile, "mkstemp"), (np, "savez"),
                                              (os, "replace")])
    def test_a_failed_write_is_ignored(self, tmp_path, capsys, monkeypatch, module, name):
        path = tmp_path / "p.json"
        _explicit_problem(path)
        expected = run(capsys, ["rank", str(path)])
        os.remove(_sidecar(path))

        def fail(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(module, name, fail)
        assert run(capsys, ["rank", str(path)])[:2] == expected[:2]
        assert os.listdir(tmp_path) == ["p.json"]

    def test_a_hit_never_holds_the_file_whole(self, tmp_path, capsys, monkeypatch):
        # the file is hashed in chunks before its sidecar is read; only a miss reads it
        # whole (a stale sidecar: the chunks, then one whole read), and the digest is
        # then of the bytes parsed
        path = tmp_path / "p.json"
        path.write_text(json.dumps(models.system_problem_dict(
            *models.random_hurwitz_system(4, 20_000, seed=1))))
        reads = []
        real_open = open

        class Recorded:
            def __init__(self, fh):
                self.fh = fh

            def read(self, size=-1):
                data = self.fh.read(size)
                reads.append(len(data))
                return data

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(models, "open", lambda *a, **k: Recorded(real_open(*a, **k)),
                            raising=False)
        for edit, source, hashed, whole in (
                (False, "p.json", False, True),  # cold: no sidecar yet
                (False, ".p.json.gramsel.npz", True, False),  # a hit
                (True, "p.json", True, True)):  # stale: new bytes miss the sidecar
            if edit:
                path.write_bytes(path.read_bytes() + b"\n")
            data = path.read_bytes()
            assert len(data) > 2 << 20
            reads.clear()
            code, out, err = run(capsys, ["centrality", str(path)])
            assert code == 0 and f"(from {source})" in err
            assert json.loads(out)["input_digest"] == "sha256:" + hashlib.sha256(data).hexdigest()
            chunks = [min(1 << 20, len(data) - i) for i in range(0, len(data), 1 << 20)] + [0]
            assert reads == chunks * hashed + [len(data)] * whole

    def test_the_key_is_the_code_that_checked_the_file(self, tmp_path, capsys):
        # a byte-identical copy of the package hits the sidecar; a copy with one byte more in
        # one module misses it, parses the file under its own checks and caches it again
        path = tmp_path / "f.json"
        _explicit_problem(path)
        expected = run(capsys, ["rank", str(path)])
        assert expected[0] == 0 and json.loads(expected[1])["input_digest"]

        def key():
            with np.load(_sidecar(path)) as z:
                return json.loads(z["header"].tobytes())[0]

        def load_under(copy):
            code = ("import sys; from gramsel import cli; assert cli.__file__.startswith("
                    "sys.argv[1]); sys.exit(cli.main(sys.argv[2:]))")
            env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
            proc = subprocess.run([sys.executable, "-c", code, str(copy), "rank", str(path)],
                                  env=env, cwd=tmp_path, capture_output=True, text=True)
            return proc.returncode, proc.stdout, proc.stderr

        package = Path(gramsel.__file__).parent
        same, edited = tmp_path / "same", tmp_path / "edited"
        for copy in (same, edited):
            shutil.copytree(package, copy / "gramsel",
                            ignore=shutil.ignore_patterns("__pycache__"))
        with open(edited / "gramsel" / "numerics.py", "ab") as fh:
            fh.write(b"\n")

        cached = key()
        code, out, err = load_under(same)
        assert (code, out) == expected[:2] and "(from .f.json.gramsel.npz)" in err
        assert key() == cached
        code, out, err = load_under(edited)
        assert (code, out) == expected[:2] and "(from f.json)" in err
        assert key()[0] != cached[0] and key()[1] == cached[1]
        code, out, err = load_under(edited)
        assert (code, out) == expected[:2] and "(from .f.json.gramsel.npz)" in err
        code, out, err = run(capsys, ["rank", str(path)])  # the repo's code misses it in turn
        assert (code, out) == expected[:2] and "(from f.json)" in err and key() == cached

    def test_only_regular_explicit_files_are_cached(self, tmp_path, capsys):
        grid = make_problem(tmp_path, capsys, name="g.json", args=("--ring", "4"))
        assert run(capsys, ["rank", grid])[0] == 0
        fifo = tmp_path / "f.json"
        sidecar = tmp_path / ".f.json.gramsel.npz"
        text = json.dumps({"n": 1, "A": [[-1.0]], "candidates": [{"id": "x", "b": [1.0]}]})

        def load_from_pipe():
            os.mkfifo(fifo)
            writer = subprocess.Popen(["sh", "-c", 'printf %s "$1" > "$2"', "sh", text,
                                       str(fifo)])

            def release():  # a load that opens the pipe again gets an empty file, not a hang
                with contextlib.suppress(OSError):
                    os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))

            watchdog = threading.Timer(30, release)
            watchdog.daemon = True
            watchdog.start()
            try:  # the pipe is read once, by the parse: its type is checked before any open
                code, _, err = run(capsys, ["rank", str(fifo)])
                assert code == 0 and "(from f.json)" in err
            finally:  # the writer is done once the load has read to the end
                watchdog.cancel()
                writer.kill()
                writer.wait()

        load_from_pipe()  # no sidecar is written for a pipe
        assert sorted(os.listdir(tmp_path)) == ["f.json", "g.json"]

        fifo.unlink()
        fifo.write_text(text)
        assert run(capsys, ["rank", str(fifo)])[0] == 0  # a sidecar that the pipe's bytes match
        fifo.unlink()
        before = os.stat(sidecar)
        load_from_pipe()  # ... is neither read nor replaced (os.replace gives a new inode)
        after = os.stat(sidecar)
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert sorted(os.listdir(tmp_path)) == [".f.json.gramsel.npz", "f.json", "g.json"]


class TestJsonLayout:
    """Problem files and reports use exactly json.dumps(..., indent=2, sort_keys=True)."""

    @staticmethod
    def _assert_stdlib_layout(text):
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("args", [("--random", "4", "5"), ("--ring", "6")])
    def test_gen_files(self, tmp_path, capsys, args):
        path = make_problem(tmp_path, capsys, args=args)
        self._assert_stdlib_layout(Path(path).read_text())

    @pytest.mark.parametrize("command", [
        ["rank", "--metric", "h2", "--weight-file", "{weights}"],
        ["select", "--k", "2"],
        ["centrality"],
        ["verify", "--trials", "3"],
        ["bruteforce", "--k", "2"],
        ["synthesize", "--ids", "b0,b1", "--horizon", "1.0", "--target", "0.1,0,0.2,0",
         "--samples", "5", "--simulate"],
    ])
    def test_reports(self, tmp_path, capsys, command):
        path = make_problem(tmp_path, capsys)
        weights = tmp_path / "c.json"
        weights.write_text(json.dumps([[1.0, 0.5, 0.0, -2.0]]))
        argv = [command[0], path, *(a.format(weights=weights) for a in command[1:])]
        code, out, _ = run(capsys, argv)
        assert code == 0
        self._assert_stdlib_layout(out)


def _python(code):
    """stdout of ``code`` run in a fresh interpreter that imports this gramsel."""
    env = dict(os.environ, PYTHONPATH=str(Path(gramsel.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def _scipy_modules_loaded_by(code):
    return _python(f"import sys\n{code}\nprint('scipy.integrate' in sys.modules, "
                   "'scipy.linalg' in sys.modules)").strip()


class TestStartup:
    def test_cli_import_leaves_scipy_integrate_unloaded(self):
        # only `synthesize --simulate` integrates, and only `synthesize`
        # (finite horizon) loads scipy.linalg
        assert _scipy_modules_loaded_by("import gramsel.cli") == "False False"

    def test_gen_runs_on_numpy_alone(self, tmp_path):
        for kind in ("--ring 6", "--random 4 5"):
            argv = ["gen", *kind.split(), "--out", str(tmp_path / "p.json")]
            code = f"from gramsel import cli\nassert cli.main({argv!r}) == 0"
            assert _scipy_modules_loaded_by(code) == "False False"

    @pytest.mark.parametrize("args", [("--ring", "6"), ("--random", "4", "5")])
    def test_factoring_commands_leave_scipy_linalg_unloaded(self, tmp_path, capsys, args):
        # they factor A through scipy's LAPACK module, not through scipy.linalg
        path = make_problem(tmp_path, capsys, args=args)
        commands = [["select", "--k", "2"], ["rank"], ["centrality"],
                    ["verify", "--trials", "1"], ["bruteforce", "--k", "1"]]
        code = (f"import sys\nfrom gramsel import cli\nfor argv in {commands!r}:\n"
                f"    assert cli.main([argv[0], {path!r}, *argv[1:], '--out', {os.devnull!r}]) == 0\n"
                "    print(argv[0], 'scipy.integrate' in sys.modules, 'scipy.linalg' in sys.modules)")
        assert _python(code).splitlines() == [f"{argv[0]} False False" for argv in commands]


class TestSameLapack:
    # the loader's module is the one scipy.linalg uses, whichever is imported first
    CHECK = """
import numpy as np
from gramsel import gramian, numerics
from gramsel.models import build_swing_matrix, random_hurwitz_system, ring_grid

def check(factors):
    import scipy.linalg
    for a, (q, t) in factors:
        funcs = scipy.linalg.get_lapack_funcs(("gees", "trsyl"), (a,))
        assert funcs[0] is numerics.lapack().dgees and funcs[1] is numerics.lapack().dtrsyl
        assert gramian.LyapunovSolver(a)._trsyl is funcs[1]
        t_ref, q_ref = scipy.linalg.schur(a, output="real")
        assert t.tobytes() == t_ref.tobytes() and q.tobytes() == q_ref.tobytes()
    assert np.allclose(scipy.linalg.expm(np.diag([0.0, np.log(2.0)])), np.diag([1.0, 2.0]))
    print("ok")

matrices = [build_swing_matrix(ring_grid(6)), random_hurwitz_system(30, 1, seed=3)[0]]
"""

    def test_scipy_linalg_imported_after_the_first_factorization(self):
        code = self.CHECK + ("factors = [(a, numerics.real_schur(a)) for a in matrices]\n"
                             "import sys\nassert 'scipy.linalg' not in sys.modules\n"
                             "check(factors)")
        assert _python(code) == "ok\n"

    def test_scipy_linalg_imported_before_gramsel(self):
        code = "import scipy.linalg\n" + self.CHECK + (
            "check([(a, numerics.real_schur(a)) for a in matrices])")
        assert _python(code) == "ok\n"


class TestReadme:
    def test_python_quickstart_runs(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
        assert len(blocks) == 2
        env = dict(os.environ, PYTHONPATH=str(Path(gramsel.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", "\n".join(blocks)], env=env,
                             check=True, capture_output=True, text=True).stdout
        # the third line printed is report.max_violation
        assert float(out.splitlines()[2]) < 1e-12

    def test_cli_quickstart_runs_as_written(self, tmp_path, capsys, monkeypatch):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = [b for b in re.findall(r"```sh\n(.*?)```", text, re.DOTALL)
                    if "gramsel gen" in b]
        explicit = re.findall(r"```json\n(.*?)```", text, re.DOTALL)[0]
        (tmp_path / "problem.json").write_text(explicit)
        monkeypatch.chdir(tmp_path)
        lines = [shlex.split(line, comments=True)
                 for line in block.replace("\\\n", " ").splitlines()]
        commands = [argv[1:] for argv in lines if argv and argv[0] == "gramsel"]
        assert len(commands) == 9
        for argv in commands:
            code, _, err = run(capsys, argv)
            if argv[0] == "bruteforce":
                assert code == 2
                assert "refusing exhaustive search over C(2701, 10)" in err
            else:
                assert code == 0, (argv, err)


class TestOneEigenSolve:
    @pytest.mark.parametrize("args", [("--ring", "6"), ("--random", "4", "5")])
    def test_each_command_factors_a_once(self, tmp_path, capsys, monkeypatch, args):
        path = make_problem(tmp_path, capsys, args=args)
        calls = []

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(m, *rest, **kwargs):
                calls.append((name, np.asarray(m)))
                return fn(m, *rest, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(numerics, "eigenvalues")
        counted(gramian, "real_schur")
        for command in (["select", "--k", "2"], ["rank"], ["centrality"],
                        ["verify", "--trials", "4"]):
            calls.clear()
            assert run(capsys, [command[0], path, *command[1:]])[0] == 0
            assert sorted(name for name, _ in calls) == ["eigenvalues", "real_schur"]
            # the spectrum is read off the quasi-triangular Schur factor
            m = next(m for name, m in calls if name == "eigenvalues")
            assert not np.tril(m, -2).any()


class TestSolveCounts:
    def test_each_command_makes_the_solves_the_adjoint_design_implies(
            self, tmp_path, capsys, monkeypatch):
        # one adjoint solve scores every candidate or node, one forward solve
        # cross-checks it; verify makes four forward solves per trial
        path = make_problem(tmp_path, capsys, args=("--ring", "6"))
        calls = []
        solve = gramian.LyapunovSolver.solve

        def counted(self, q, adjoint=False):
            calls.append(adjoint)
            return solve(self, q, adjoint)

        monkeypatch.setattr(gramian.LyapunovSolver, "solve", counted)
        for command, adjoint, forward in ((["select", "--k", "2"], 1, 2), (["rank"], 1, 1),
                                          (["centrality"], 1, 1),
                                          (["verify", "--trials", "2"], 0, 8)):
            calls.clear()
            assert run(capsys, [command[0], path, *command[1:]])[0] == 0
            assert (calls.count(True), calls.count(False)) == (adjoint, forward), command


class TestModalPath:
    """A uniformly damped grid's forward solves go through its modes; its adjoint solves,
    which give every score, stay on the Schur factor."""

    RANKING = (["rank"], ["select", "--k", "3"], ["centrality"],
               ["rank", "--weight", "frequencies"])

    @pytest.mark.parametrize("args", [("--ring", "6"), ("--ring", "12", "--chords", "5")])
    def test_ranking_payloads_do_not_depend_on_the_modes(
            self, tmp_path, capsys, monkeypatch, args):
        path = make_problem(tmp_path, capsys, args=args)
        payloads = [run(capsys, [c[0], path, *c[1:]])[:2] for c in self.RANKING]
        monkeypatch.setattr(gramian, "_modes", lambda a: None)
        assert [run(capsys, [c[0], path, *c[1:]])[:2] for c in self.RANKING] == payloads

    def test_no_adjoint_solve_reaches_the_modes(self, tmp_path, capsys, monkeypatch):
        path = make_problem(tmp_path, capsys, args=("--ring", "6"))
        flags, reached = [], []
        solve, modal_solve = gramian.LyapunovSolver.solve, gramian._modal_solve

        def counted(self, q, adjoint=False):
            flags.append(adjoint)
            return solve(self, q, adjoint)

        def modal(*args):
            reached.append(flags[-1])
            return modal_solve(*args)

        monkeypatch.setattr(gramian.LyapunovSolver, "solve", counted)
        monkeypatch.setattr(gramian, "_modal_solve", modal)
        for command in (*self.RANKING, ["verify", "--trials", "2"]):
            assert run(capsys, [command[0], path, *command[1:]])[0] == 0
        assert flags.count(True) == 4 and reached == [False] * flags.count(False)


# Well-formed problems that the fuzz test below mutates one field at a time.
BASE_PROBLEMS = {
    "ring": {"grid": {"topology": "ring", "buses": 4, "chords": 2, "seed": 0,
                      "inertia": 1.0, "damping": 0.5, "susceptance": 1.0,
                      "grounding": 0.1}},
    "bus list": {"grid": {
        "buses": [{"id": "b0", "inertia": 1.0, "damping": 0.5, "grounding": 0.1},
                  {"id": "b1", "inertia": 2.0, "damping": 0.4}],
        "lines": [{"from": "b0", "to": "b1", "susceptance": 1.0}],
    }},
    "explicit": {"n": 2, "A": [[-1.0, 0.3], [0.0, -2.0]],
                 "candidates": [{"id": "u0", "b": [1.0, 0.0]},
                                {"id": "u1", "b": [0.5, 1.0]}],
                 "weight": {"kind": "h2", "matrix": [[1.0, 0.5]]}},
}
MUTANT_VALUES = ["x", "nan", None, True, -1, 0, 4.5, [], {}, 5, float("nan"), 10**20,
                 "\ud800", 10**400]


def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


MUTATION_SITES = [(name, path) for name, doc in BASE_PROBLEMS.items()
                  for path in _paths(doc)]


def _mutated(name, path, value):
    doc = json.loads(json.dumps(BASE_PROBLEMS[name]))
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# Malformed documents that once ended in a traceback (or, for "buses": 4.5,
# in a silently truncated ring): each must exit 2 naming the field.
MALFORMED = [
    (("ring", ("grid", "buses")), "x", "buses"),
    (("ring", ("grid", "inertia")), "heavy", "inertia"),
    (("ring", ("grid", "grounding")), "nan", "grounding"),
    (("ring", ("grid", "chords")), "x", "chords"),
    (("ring", ("grid", "seed")), "x", "seed"),
    (("ring", ("grid", "seed")), -3, "seed"),
    (("ring", ("grid", "buses")), 4.5, "buses"),
    (("bus list", ("grid", "buses", 0, "grounding")), "nan", "grounding"),
    (("ring", ("grid",)), 5, "grid"),
    (("explicit", ("candidates",)), 5, "candidates"),
    # numeric strings inside arrays once parsed as numbers and ranked
    (("explicit", ("A", 0, 0)), "-1", "A"),
    (("explicit", ("candidates", 1, "b", 0)), "0.5", "u1"),
    (("explicit", ("weight", "matrix", 0, 1)), "0.5", "weight matrix"),
    # unknown fields once loaded silently: a misspelled "weight" meant the trace metric
    (("explicit", ("weight", "extra")), 3, "weight fields: ['extra']"),
    (("explicit", ("weight", "kind")), "trace", "weight fields: ['matrix']"),
    (("explicit", ("wieght",)), {"kind": "trace"}, "problem fields: ['wieght']"),
    (("explicit", ("extra_top",)), 1, "problem fields: ['extra_top']"),
    (("ring", ("n",)), 2, "problem fields: ['n']"),
    # ... and so did unknown fields, and null or object ids, in a bus list or a candidate
    (("bus list", ("grid", "extra")), 1, "grid fields: ['extra']"),
    (("bus list", ("grid", "buses", 0, "grouding")), 0.1, "bus 0 fields: ['grouding']"),
    (("bus list", ("grid", "lines", 0, "extra")), 1, "line 0 fields: ['extra']"),
    (("explicit", ("candidates", 0, "weight")), 2, "candidate 0 fields: ['weight']"),
    (("explicit", ("candidates", 1, "id")), None, "candidate 1 id"),
    (("explicit", ("candidates", 1, "id")), {}, "candidate 1 id"),
    (("bus list", ("grid", "buses", 0, "id")), None, "bus 0 id"),
    (("bus list", ("grid", "lines", 0, "from")), None, "line 0 from"),
    # array shapes are checked by numerics.as_array, which names the array
    (("explicit", ("A",)), [[-1.0, 0.3]], "A has shape (1, 2), expected (2, 2)"),
    (("explicit", ("candidates", 1, "b")), [1.0], "candidate 'u1' column has shape (1,)"),
    (("bus list", ("grid", "buses")), [], "grid has no buses"),
    # a ring whose dense HVDC matrix numpy cannot address once built Bus objects until killed
    (("ring", ("grid", "buses")), 10**20, "buses"),
    # a lone surrogate is valid JSON, but no UTF-8 report can print it
    (("explicit", ("candidates", 1, "id")), "\ud800x", "candidate 1 id"),
    (("bus list", ("grid", "buses", 0, "id")), "\ud800", "bus 0 id"),
    # an int past the float range once escaped the array validator as an OverflowError
    (("explicit", ("A", 0, 0)), 10**400, "A contains non-finite entries"),
    (("explicit", ("candidates", 1, "b", 0)), 10**400, "candidate 'u1' column contains"),
    (("explicit", ("weight", "matrix", 0, 1)), 10**400, "weight matrix contains non-finite"),
    # booleans inside arrays once parsed as 1 and 0 and ranked
    (("explicit", ("A", 0, 1)), True, "A is not numeric: it holds a boolean"),
    (("explicit", ("candidates", 1, "b", 0)), True, "candidate 'u1' column is not numeric"),
    (("explicit", ("weight", "matrix", 0, 1)), False, "weight matrix is not numeric"),
]
# Every JSON object of every base problem, by its path.
OBJECT_SITES = [(name, path) for name, path in MUTATION_SITES
                if isinstance(functools.reduce(lambda node, key: node[key], path,
                                               BASE_PROBLEMS[name]), dict)]


def _fuzz_examples(test):
    for site, value, _ in MALFORMED:
        test = example(site=site, value=value)(test)
    return test


class TestMalformedInput:
    @pytest.mark.parametrize("site, value, field", MALFORMED)
    def test_exits_2_naming_the_field(self, tmp_path, capsys, site, value, field):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(_mutated(*site, value)))
        code, _, err = run(capsys, ["centrality", str(path)])
        assert code == 2
        assert field in err
        assert os.listdir(tmp_path) == ["p.json"]  # a file that fails its checks is not cached

    @pytest.mark.parametrize("name, path", OBJECT_SITES)
    def test_every_object_rejects_an_unknown_field(self, tmp_path, capsys, name, path):
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps(_mutated(name, path + ("unlisted",), 1)))
        for command in ("centrality", "rank"):
            code, out, err = run(capsys, [command, str(problem)])
            assert code == 2 and out == ""
            assert "fields: ['unlisted']" in err

    def test_non_numeric_target(self, tmp_path, capsys):
        path = make_problem(tmp_path, capsys)
        for target in ("0.1,x,0,0", "x"):
            code, _, err = run(capsys, ["synthesize", path, "--ids", "b0", "--horizon", "1.0",
                                        "--target", target])
            assert code == 2
            assert "target" in err

    @settings(max_examples=150, deadline=None)
    @given(site=st.sampled_from(MUTATION_SITES), value=st.sampled_from(MUTANT_VALUES))
    @_fuzz_examples
    def test_mutated_problems_never_raise(self, site, value):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "p.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(_mutated(*site, value), fh)
            out = os.path.join(tmp, "out.json")
            for command in ("centrality", "rank"):
                for csv in ((), ("--csv",)):  # --csv reaches the CSV writer's encoding
                    assert cli.main([command, path, *csv, "--out", out]) in (0, 2, 3)


class TestUngroundedGrid:
    def test_ranking_commands_name_grounding(self, tmp_path, capsys):
        path = make_problem(tmp_path, capsys, args=("--ring", "4", "--grounding", "0"))
        for command in (["rank"], ["select", "--k", "2"], ["centrality"], ["verify"],
                        ["bruteforce", "--k", "2"]):
            code, out, err = run(capsys, [command[0], path, *command[1:]])
            assert code == 3
            assert out == ""
            assert "no bus is grounded" in err and "not Hurwitz" in err
            # an HVDC link never excites the angle shift, so its Gramian is finite
            assert "infinite-horizon Gramian" not in err

    def test_synthesize_still_runs(self, tmp_path, capsys):
        # finite-horizon synthesis needs no Hurwitz A; the target has zero mean angle
        path = make_problem(tmp_path, capsys, args=("--ring", "4", "--grounding", "0"))
        code, out, _ = run(capsys, ["synthesize", path, "--ids", "bus0-bus1,bus1-bus2,bus2-bus3",
                                    "--horizon", "2.0", "--target", "0.1,0,-0.1,0,0,0,0,0"])
        assert code == 0
        assert json.loads(out)["results"]["min_energy"] > 0


class TestWarnings:
    def test_each_warning_is_one_stderr_line(self, tmp_path, capsys, monkeypatch):
        path = make_problem(tmp_path, capsys)
        expected = run(capsys, ["centrality", path])[1]

        def warning_centrality(a):
            warnings.warn("trsyl perturbed nearly-common eigenvalues", RuntimeWarning)
            return controllability_centrality(a)

        monkeypatch.setattr(cli, "controllability_centrality", warning_centrality)
        code, out, err = run(capsys, ["centrality", path])
        assert code == 0
        assert out == expected
        lines = [ln for ln in err.splitlines() if "warning" in ln.lower()]
        assert lines == ["[gramsel] warning: trsyl perturbed nearly-common eigenvalues"]


class TestCentralityCrossCheck:
    def test_forward_for_adjoint_is_3(self, tmp_path, capsys, forward_for_adjoint):
        path = make_problem(tmp_path, capsys)
        code, out, err = run(capsys, ["centrality", path])
        assert code == 3
        assert out == ""
        assert "additivity" in err
