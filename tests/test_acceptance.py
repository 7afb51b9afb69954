"""Acceptance gate: every release-blocking criterion in one module.

Each test prints a single ``[acceptance] NN <name>: PASS/FAIL`` line
(visible with ``pytest -s``) and enforces the stated tolerance exactly.
"""

import functools
import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from gramsel import cli
from gramsel.exceptions import EnumerationCapError
from gramsel.gramian import LyapunovSolver, finite_horizon_gramian, lyapunov_residual
from gramsel.metrics import MetricSpec, simulate_transfer, synthesize_min_energy_input
from gramsel.models import (
    build_swing_matrix,
    frequency_selector,
    grid_model,
    hvdc_candidates,
    random_hurwitz_system,
    ring_grid,
)
from gramsel.numerics import spectral_abscissa
from gramsel.placement import (
    CandidateSet,
    brute_force_best,
    controllability_centrality,
    ranked,
    select_top_k,
    verify_modularity,
)


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {label}: FAIL")
                raise
            print(f"[acceptance] {label}: PASS")

        return wrapper

    return deco


def _system(seed, n, m):
    return random_hurwitz_system(n, m, seed=seed)


@criterion("01 modularity-identity")
def test_01_modularity_identity_three_metrics():
    started = time.perf_counter()
    rng = np.random.default_rng(20240814)
    for i in range(50):
        n = 4 + i % 17  # 4..20
        m = 4 + i % 9   # 4..12
        a, ids, b = _system(seed=1000 + i, n=n, m=m)
        r = rng.normal(size=(n, n))
        c = rng.normal(size=(1 + i % 3, n))
        metrics = (
            MetricSpec(),
            MetricSpec.weighted(r @ r.T),
            MetricSpec.h2(c),
        )
        for j, metric in enumerate(metrics):
            cs = CandidateSet(a, ids, b)
            report = verify_modularity(cs, metric, trials=100, seed=3 * i + j)
            assert report.passed, (
                f"system {i}, metric {metric.kind}: "
                f"max violation {report.max_violation:.3e}"
            )
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"modularity sweep took {elapsed:.1f}s"


@criterion("02 sort-vs-bruteforce-equivalence")
def test_02_select_matches_brute_force():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    for i in range(25):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(2, 11))  # M <= 10
        k = int(rng.integers(1, min(5, m) + 1))  # k <= 5
        a, ids, b = _system(seed=2000 + i, n=n, m=m)
        if i % 3 == 1:
            w = rng.normal(size=(n, n))
            metric = MetricSpec.weighted(w @ w.T)
        elif i % 3 == 2:
            metric = MetricSpec.h2(rng.normal(size=(2, n)))
        else:
            metric = MetricSpec()
        cs = CandidateSet(a, ids, b)
        result = select_top_k(cs, k, metric)
        brute_ids, brute_val = brute_force_best(cs, k, metric)
        assert tuple(sorted(result.selected)) == brute_ids, (
            f"instance {i}: sort gave {sorted(result.selected)}, "
            f"brute force gave {brute_ids}"
        )
        assert result.total_score == pytest.approx(brute_val, rel=1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"equivalence sweep took {elapsed:.1f}s"


@criterion("03 lyapunov-accuracy")
def test_03_lyapunov_residuals_and_analytic_cases():
    w = LyapunovSolver([[-1.0]]).solve([[1.0]])
    assert abs(w[0, 0] - 0.5) <= 1e-12
    w = LyapunovSolver(np.diag([-1.0, -2.0])).solve(np.eye(2))
    assert np.abs(w - np.diag([0.5, 0.25])).max() <= 1e-12

    sizes = np.linspace(2, 150, 100).round().astype(int)
    for i, n in enumerate(sizes):
        a, _, b = _system(seed=3000 + i, n=int(n), m=1 + i % 4)
        q = b @ b.T
        wmat = LyapunovSolver(a).gramian(b)
        residual = lyapunov_residual(a, wmat, q)
        bound = 1e-10 * (
            np.linalg.norm(a) * np.linalg.norm(wmat) + np.linalg.norm(q)
        )
        assert residual <= bound, f"n={n}: residual {residual:.3e} > {bound:.3e}"


@criterion("04 finite-horizon-correctness")
def test_04_finite_horizon():
    g = finite_horizon_gramian([[-1.0]], [[1.0]], 1.0)
    assert abs(g[0, 0] - (1.0 - math.exp(-2.0)) / 2.0) <= 1e-12

    for i in range(20):
        a, _, b = _system(seed=4000 + i, n=2 + i % 11, m=1 + i % 3)
        t_long = 50.0 / abs(spectral_abscissa(a))
        w_t = finite_horizon_gramian(a, b, t_long)
        w_inf = LyapunovSolver(a).gramian(b)
        rel = np.linalg.norm(w_t - w_inf) / np.linalg.norm(w_inf)
        assert rel <= 1e-8, f"system {i}: finite/infinite gap {rel:.3e}"
        # monotone PSD growth
        w1 = finite_horizon_gramian(a, b, 0.7)
        w2 = finite_horizon_gramian(a, b, 2.9)
        assert np.linalg.eigvalsh(w2 - w1)[0] >= -1e-10 * np.linalg.norm(w2, 2)


@criterion("05 h2-consistency")
def test_05_h2_matches_impulse_energy():
    for i in range(20):
        n = 2 + i % 9  # n <= 10
        a, _, b = _system(seed=5000 + i, n=n, m=1 + i % 3)
        c = np.random.default_rng(5100 + i).normal(size=(1 + i % 3, n))
        g = LyapunovSolver(a).gramian(b)
        h2_sq = float(np.trace(c @ g @ c.T))
        t_end = 50.0 / abs(spectral_abscissa(a))
        oracle, _ = quad(
            lambda t: np.linalg.norm(c @ expm(a * t) @ b, "fro") ** 2,
            0.0, t_end, epsabs=1e-13, epsrel=1e-11, limit=400,
        )
        assert abs(h2_sq - oracle) <= 1e-6 * abs(oracle), (
            f"system {i}: {h2_sq} vs quadrature {oracle}"
        )


@criterion("06 minimum-energy-synthesis")
def test_06_synthesis_lands_on_target():
    for i in range(10):
        n = 2 + i % 5  # n <= 6
        m = 2 + i % 2  # two or three columns keep W(t) well conditioned
        a, _, b = _system(seed=6000 + i, n=n, m=m)
        x_f = np.random.default_rng(6100 + i).normal(size=n) * 0.5
        t = 2.0
        traj = synthesize_min_energy_input(a, b, t, x_f, samples=101)
        res = simulate_transfer(a, b, x_f, traj)
        assert res.terminal_error <= 1e-6 * np.linalg.norm(x_f), (
            f"system {i}: terminal error {res.terminal_error:.3e}"
        )
        assert abs(res.input_energy - traj.energy) <= 1e-4 * abs(traj.energy)
        traj = synthesize_min_energy_input(a, b, t, np.zeros(n), samples=33)
        assert np.all(traj.inputs == 0.0)


@criterion("07 case-study-combinatorics")
def test_07_case_study_scale_and_refusal():
    grid = ring_grid(74)
    a = build_swing_matrix(grid)
    assert a.shape == (148, 148)  # 148-dimensional state space
    ids, b = hvdc_candidates(grid)
    assert len(ids) == 2701  # all HVDC bus pairs
    assert b.shape == (148, 2701)

    # independent binomial check: multiplicative recurrence, exact integers
    count = 1
    for i in range(10):
        count = count * (2701 - i) // (i + 1)
    assert count == math.comb(2701, 10)
    assert abs(count - 5.6e27) <= 0.02 * 5.6e27

    cs = CandidateSet(a, ids, b)
    with pytest.raises(EnumerationCapError) as err:
        brute_force_best(cs, 10)
    assert f"= {count} (" in str(err.value)
    assert "2701" in str(err.value)

    started = time.perf_counter()
    weights = dict(zip(cs.ids, ranked(cs)[0].tolist()))
    ranking = sorted(weights, key=lambda cid: (-weights[cid], cid))
    elapsed = time.perf_counter() - started
    assert len(ranking) == 2701
    assert all(weights[c] > 0 for c in ranking)
    assert elapsed < 600.0, f"full ranking took {elapsed:.1f}s"


@criterion("08 centrality-sum-and-symmetry")
def test_08_centrality():
    for i in range(20):
        n = 3 + i % 8
        a = _system(seed=8000 + i, n=n, m=1)[0]
        scores = controllability_centrality(a)
        total = np.trace(LyapunovSolver(a).gramian(np.eye(n)))
        assert abs(math.fsum(scores.tolist()) - total) <= 1e-9 * abs(total)

    scores = controllability_centrality(build_swing_matrix(ring_grid(12)))
    angle, freq = scores[0::2], scores[1::2]
    assert (angle.max() - angle.min()) <= 1e-9 * angle.max()
    assert (freq.max() - freq.min()) <= 1e-9 * freq.max()


@criterion("09 duality")
def test_09_observability_duality():
    for i in range(10):
        n = 3 + i % 7
        p = 1 + i % 3
        a = _system(seed=9000 + i, n=n, m=1)[0]
        c = np.random.default_rng(9100 + i).normal(size=(p, n))
        # the observability Gramian, solved on the dual pair (a^T, c^T), against the
        # adjoint solve a^T W + W a + c^T c = 0 on a's own Schur factors
        g_obs = LyapunovSolver(a.T).gramian(c.T)
        g_adjoint = LyapunovSolver(a).solve(c.T @ c, adjoint=True)
        assert np.allclose(g_obs, g_adjoint, rtol=1e-10, atol=1e-12 * np.abs(g_obs).max())
        assert lyapunov_residual(a.T, g_obs, c.T @ c) <= 1e-10 * (
            np.linalg.norm(a) * np.linalg.norm(g_obs) + np.linalg.norm(c.T @ c))

    # sensor ranking == actuator ranking on the transposed system
    a = _system(seed=9999, n=6, m=1)[0]
    rows = np.random.default_rng(42).normal(size=(5, 6))
    sensor_scores = {
        f"s{j}": np.trace(LyapunovSolver(a.T).gramian(rows[[j]].T)) for j in range(5)
    }
    dual_cs = CandidateSet(a.T, [f"s{j}" for j in range(5)], rows.T)
    actuator_scores = dict(zip(dual_cs.ids, ranked(dual_cs)[0].tolist()))
    assert sensor_scores.keys() == actuator_scores.keys()
    for sid, score in sensor_scores.items():
        assert actuator_scores[sid] == pytest.approx(score, rel=1e-12)
    sensor_rank = sorted(sensor_scores, key=lambda s: (-sensor_scores[s], s))
    actuator_rank = sorted(actuator_scores, key=lambda s: (-actuator_scores[s], s))
    assert sensor_rank == actuator_rank


@criterion("10 payload-determinism")
def test_10_rank_payloads_byte_identical(tmp_path):
    problem = tmp_path / "grid74.json"
    assert cli.main(["gen", "--ring", "74", "--out", str(problem)]) == 0
    outs = [tmp_path / f"run{j}.json" for j in range(2)]
    assert cli.main(["rank", str(problem), "--out", str(outs[0])]) == 0
    assert cli.main(["rank", str(problem), "--out", str(outs[1])]) == 0
    b0, b1 = (p.read_bytes() for p in outs)
    assert b0 == b1  # repeat run
    # sanity: the payload really carries the full ranking
    assert len(json.loads(b0)["results"]["ranked"]) == 2701


def _ring_link_weights(n, m, d, b, g):
    """Trace weight of an HVDC link on a uniform chord-free ring of n buses, by the ring
    distance 0..n-1 of its ends, from the closed form in long double (no eigensolver).

    The stiffness L + G is circulant, with eigenvalues lam_k = 2b(1 - cos 2 pi k/n) + g.
    Mode k released from unit frequency holds int (theta^2 + omega^2) dt
    = p_k = (1 + m/lam_k) m/(2d), so the adjoint solution's frequency block is
    circulant with entries c_delta = (1/n) sum_k p_k cos(2 pi k delta/n).  A link puts
    +1/m and -1/m on two frequencies: w(delta) = 2 (c_0 - c_delta) / m^2."""
    m, d, b, g = map(np.longdouble, (m, d, b, g))
    cos = np.cos(2 * np.arccos(np.longdouble(-1)) * np.arange(n, dtype=np.longdouble) / n)
    p = (1 + m / (2 * b * (1 - cos) + g)) * m / (2 * d)
    k = np.arange(n)
    c = cos[np.outer(k, k) % n] @ p / n
    return 2 * (c[0] - c) / m**2


@pytest.mark.parametrize("n", [74, 150])
@pytest.mark.parametrize("params", [{}, {"inertia": 0.7, "damping": 1.1, "susceptance": 0.4,
                                         "grounding": 0.05}], ids=["default", "custom"])
@criterion("11 ring-trace-weights-closed-form")
def test_11_ring_trace_weights_match_the_closed_form(n, params):
    grid = ring_grid(n, **params)
    cs = CandidateSet(build_swing_matrix(grid), *hvdc_candidates(grid))
    uniform = (grid.inertia[0], grid.damping[0], grid.susceptance[0], grid.grounding[0])
    i, j = np.triu_indices(n, 1)
    want = _ring_link_weights(n, *uniform)[j - i].astype(float)
    np.testing.assert_allclose(ranked(cs)[0], want, rtol=1e-13, atol=0)


def _meshed_grid(m, d):
    """12 buses with inertia m and damping d, a ring plus six chords, uneven
    susceptances and grounding on some buses only."""
    pairs = [(i, (i + 1) % 12) for i in range(12)] + [(0, 6), (2, 9), (3, 7), (1, 5),
                                                      (4, 10), (8, 11)]
    return grid_model({
        "buses": [{"id": f"b{i}", "inertia": m, "damping": d,
                   "grounding": (0.0, 0.3, 0.0, 0.05)[i % 4]} for i in range(12)],
        "lines": [{"from": f"b{i}", "to": f"b{j}", "susceptance": 0.5 + 0.25 * k}
                  for k, (i, j) in enumerate(pairs)],
    })


@pytest.mark.parametrize("grid", [ring_grid(74), ring_grid(74, chords=30),
                                  _meshed_grid(1.3, 0.6)],
                         ids=["ring74", "ring74-chords30", "meshed12"])
@criterion("12 frequency-weights-closed-form")
def test_12_frequency_weights_are_one_over_m_d(grid):
    # a link's unit impulse leaves kinetic energy (M/2)(2/M^2) = 1/M, and on a grounded
    # grid damping dissipates all of it as D int |omega|^2 dt: every link scores 1/(M D)
    cs = CandidateSet(build_swing_matrix(grid), *hvdc_candidates(grid))
    weights = ranked(cs, MetricSpec.h2(frequency_selector(grid)))[0]
    np.testing.assert_allclose(weights, 1 / (grid.inertia[0] * grid.damping[0]),
                               rtol=1e-13, atol=0)
