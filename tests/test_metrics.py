import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.linalg import expm

from gramsel import metrics
from gramsel.exceptions import (
    DegenerateGramianWarning,
    DimensionError,
    DomainError,
    NumericalError,
    UnreachableStateError,
)
from gramsel.gramian import LyapunovSolver, finite_horizon_gramian
from gramsel.metrics import (
    MetricSpec,
    evaluate_metric,
    simulate_transfer,
    synthesize_min_energy_input,
)
from gramsel.models import random_hurwitz_system


# --- oracles ----------------------------------------------------------------

def impulse_response_energy(a, b, c, t_end):
    """Numerically integrated squared impulse-response norm
    int_0^T ||C e^{At} B||_F^2 dt."""
    val, _ = quad(
        lambda t: np.linalg.norm(c @ expm(a * t) @ b, "fro") ** 2,
        0.0,
        t_end,
        epsabs=1e-13,
        epsrel=1e-11,
        limit=400,
    )
    return val


def integrate_with_input(a, b, t, u_of_t, n):
    """Drive x' = a x + b u(t) from the origin with an explicit RK scheme."""
    sol = solve_ivp(
        lambda s, x: a @ x + b @ u_of_t(s),
        (0.0, t),
        np.zeros(n),
        rtol=1e-9,
        atol=1e-12,
        dense_output=True,
    )
    assert sol.success
    return sol.y[:, -1]


def _system(seed, n, m):
    a, _, b = random_hurwitz_system(n, m, seed=seed)
    return a, b


class TestMetricSpec:
    def test_trace_default(self):
        assert MetricSpec().kind == "trace"

    def test_trace_takes_no_weight(self):
        with pytest.raises(DomainError):
            MetricSpec("trace", np.eye(2))

    def test_weighted_requires_matrix(self):
        with pytest.raises(DomainError):
            MetricSpec("weighted_trace")

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            MetricSpec("min_eig")

    def test_weighted_must_be_square(self):
        with pytest.raises(DimensionError):
            MetricSpec.weighted(np.ones((2, 3)))

    def test_dimension_check_deferred_to_use(self):
        spec = MetricSpec.weighted(np.eye(3))
        with pytest.raises(DimensionError):
            evaluate_metric(spec, np.eye(2))


class TestEvaluateMetric:
    W = np.diag([1.0, 2.0, 3.0])

    def test_trace(self):
        assert evaluate_metric(MetricSpec(), self.W) == pytest.approx(6.0)

    def test_weighted_trace_picks_component(self):
        spec = MetricSpec.weighted(np.diag([1.0, 0.0, 0.0]))
        assert evaluate_metric(spec, self.W) == pytest.approx(1.0)

    def test_h2_single_row(self):
        spec = MetricSpec.h2(np.array([[1.0, 0.0, 0.0]]))
        assert evaluate_metric(spec, self.W) == pytest.approx(1.0)

    def test_accepts_gramian_object(self):
        g = LyapunovSolver(np.diag([-1.0, -2.0])).gramian(np.eye(2))
        assert evaluate_metric(MetricSpec(), g) == pytest.approx(0.75)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), alpha=st.floats(0.1, 5.0))
    def test_linear_in_the_gramian(self, seed, alpha):
        rng = np.random.default_rng(seed)
        w1 = rng.normal(size=(4, 4))
        w1 = w1 @ w1.T
        w2 = rng.normal(size=(4, 4))
        w2 = w2 @ w2.T
        c = rng.normal(size=(2, 4))
        for spec in (MetricSpec(), MetricSpec.weighted(c.T @ c), MetricSpec.h2(c)):
            lhs = evaluate_metric(spec, w1 + alpha * w2)
            rhs = evaluate_metric(spec, w1) + alpha * evaluate_metric(spec, w2)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_h2_matches_impulse_energy(self):
        for seed in range(5):
            a, b = _system(seed, n=5, m=2)
            c = np.random.default_rng(seed + 1).normal(size=(2, 5))
            g = LyapunovSolver(a).gramian(b)
            h2_sq = evaluate_metric(MetricSpec.h2(c), g)
            t_end = 50.0 / 0.1
            oracle = impulse_response_energy(a, b, c, t_end)
            assert abs(h2_sq - oracle) <= 1e-6 * abs(oracle)


class TestSynthesis:
    def test_zero_target_zero_input(self):
        a, b = _system(2, n=4, m=2)
        traj = synthesize_min_energy_input(a, b, 1.5, np.zeros(4), samples=33)
        assert np.all(traj.inputs == 0.0)
        assert traj.energy == 0.0

    def test_grid_shape_and_energy(self):
        a, b = _system(4, n=4, m=2)
        x_f = np.array([0.3, -0.1, 0.2, 0.05])
        traj = synthesize_min_energy_input(a, b, 2.0, x_f, samples=51)
        assert traj.times.shape == (51,)
        assert traj.inputs.shape == (51, 2)
        assert traj.times[0] == 0.0 and traj.times[-1] == 2.0
        w = finite_horizon_gramian(a, b, 2.0)
        assert traj.energy == pytest.approx(x_f @ np.linalg.solve(w, x_f), rel=1e-9)

    def test_samples_validation(self):
        a, b = _system(4, n=3, m=1)
        with pytest.raises(DomainError):
            synthesize_min_energy_input(a, b, 1.0, np.zeros(3), samples=1)

    def test_zero_horizon_rejected(self):
        a, b = _system(4, n=3, m=1)
        with pytest.raises(DomainError, match="horizon t"):
            synthesize_min_energy_input(a, b, 0, np.zeros(3))

    def test_unreachable_target_raises(self):
        a = np.diag([-1.0, -2.0])
        b = np.array([[1.0], [0.0]])
        with pytest.raises(UnreachableStateError):
            synthesize_min_energy_input(a, b, 1.0, np.array([0.0, 1.0]))

    def test_singular_but_consistent_target_uses_pseudo_inverse(self):
        # W(t) = diag((1 - e^-2) / 2, 0): singular, yet e1 lies in its range
        a = np.diag([-1.0, -2.0])
        b = np.array([[1.0], [0.0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traj = synthesize_min_energy_input(a, b, 1.0, np.array([1.0, 0.0]))
        assert [w.category for w in caught] == [DegenerateGramianWarning]
        assert traj.energy == pytest.approx(2.0 / (1.0 - np.exp(-2.0)), rel=1e-12, abs=0.0)

    def test_input_formula_spot_check(self):
        # u*(tau) = B^T e^{A^T (t-tau)} W(t)^{-1} x_f at a handful of taus
        a, b = _system(6, n=3, m=2)
        t, x_f = 1.7, np.array([0.2, -0.4, 0.1])
        traj = synthesize_min_energy_input(a, b, t, x_f, samples=18)
        w = finite_horizon_gramian(a, b, t)
        eta = np.linalg.solve(w, x_f)
        for k in (0, 5, 17):
            tau = traj.times[k]
            expected = b.T @ expm(a.T * (t - tau)) @ eta
            assert np.allclose(traj.inputs[k], expected, rtol=1e-9, atol=1e-12)

    def test_transfer_reaches_target_ode_oracle(self):
        for seed in range(4):
            a, b = _system(seed, n=4, m=2)
            rng = np.random.default_rng(seed + 100)
            x_f = rng.normal(size=4) * 0.5
            t = 2.0
            w = finite_horizon_gramian(a, b, t)
            eta = np.linalg.solve(w, x_f)

            def u_star(s):
                return b.T @ expm(a.T * (t - s)) @ eta

            x_end = integrate_with_input(a, b, t, u_star, 4)
            assert np.linalg.norm(x_end - x_f) <= 1e-6 * max(1.0, np.linalg.norm(x_f))

    def test_simulate_transfer_validates_before_any_gramian(self, monkeypatch):
        # synthesis builds the one W(t) the simulation reuses, after checking its inputs
        built = []
        monkeypatch.setattr(metrics, "finite_horizon_gramian",
                            lambda *args: built.append(args))
        a, b = np.diag([-1.0, -2.0]), np.eye(2)
        for kwargs in ({"samples": 1}, {"samples": 2.5}, {"t": 0.0}, {"x_f": np.ones(3)}):
            call = {"t": 1.0, "x_f": np.ones(2), **kwargs}
            with pytest.raises((DomainError, DimensionError)):
                synthesize_min_energy_input(a, b, **call)
        assert built == []
        monkeypatch.undo()
        traj = synthesize_min_energy_input(a, b, 1.0, np.ones(2), samples=5)
        with pytest.raises(DimensionError):
            simulate_transfer(a, b, np.ones(3), traj)

    def test_simulate_transfer_rejects_columns_whose_outer_product_overflows(self):
        # a valid trajectory driven through b = 1e200, whose b b^T is past the float range
        traj = synthesize_min_energy_input([[-1.0]], [[1.0]], 1.0, [1.0], samples=5)
        with pytest.raises(NumericalError, match="^b b\\^T overflows"):
            simulate_transfer([[-1.0]], [[1e200]], [1.0], traj)

    def test_simulate_transfer_reuses_the_trajectory_costate(self, monkeypatch):
        a, b = _system(10, n=5, m=2)
        x_f = np.array([0.1, 0.2, -0.3, 0.0, 0.15])
        traj = synthesize_min_energy_input(a, b, 2.5, x_f, samples=101)
        monkeypatch.setattr(metrics, "finite_horizon_gramian", None)  # must not be called
        res = simulate_transfer(a, b, x_f, traj)
        monkeypatch.undo()
        eta = np.linalg.solve(finite_horizon_gramian(a, b, 2.5), x_f)
        assert np.allclose(traj.costate, eta, rtol=1e-9, atol=0.0)
        assert np.array_equal(res.times, traj.times)
        # the integrated costate reproduces the sampled closed-form input
        assert np.allclose(res.inputs, traj.inputs, rtol=1e-6, atol=1e-9)

    def test_simulate_transfer_consistency(self):
        a, b = _system(10, n=5, m=2)
        x_f = np.array([0.1, 0.2, -0.3, 0.0, 0.15])
        traj = synthesize_min_energy_input(a, b, 2.5, x_f, samples=101)
        res = simulate_transfer(a, b, x_f, traj)
        assert res.terminal_error <= 1e-6 * np.linalg.norm(x_f)
        assert abs(res.input_energy - traj.energy) <= 1e-4 * traj.energy
        assert res.states.shape == (101, 5)
        assert res.inputs.shape == (101, 2)

    def test_simulate_transfer_errors_scale_with_the_target(self):
        # the README's 3-state problem with inputs p0, p1: the transfer is linear in x_f,
        # so the relative errors must not depend on its size
        a = np.array([[-1.0, 0.2, 0.0], [0.0, -2.0, 0.1], [0.0, 0.0, -0.5]])
        b = np.eye(3)[:, :2]

        def relative_errors(scale):
            x_f = scale * np.array([0.1, 0.2, 0.0])
            with pytest.warns(DegenerateGramianWarning):  # the third state is unreachable
                traj = synthesize_min_energy_input(a, b, 2.0, x_f)
            res = simulate_transfer(a, b, x_f, traj)
            return np.array([res.terminal_error / np.linalg.norm(x_f),
                             abs(res.input_energy / traj.energy - 1.0)])

        unit = relative_errors(1.0)
        assert (unit > 0.0).all() and (unit <= 1e-6).all()
        for scale in (1e-10, 1e10):
            ratio = relative_errors(scale) / unit
            assert ((0.1 <= ratio) & (ratio <= 10.0)).all(), (scale, ratio)

    def test_synthesis_does_not_depend_on_the_units_of_b(self):
        # the README's problem with its columns scaled by 1e50: W(t) scales by 1e100 and
        # the energy by 1e-100, and the transfer lands as closely as the unscaled one's
        a = np.array([[-1.0, 0.2, 0.0], [0.0, -2.0, 0.1], [0.0, 0.0, -0.5]])
        x_f = np.array([0.1, 0.2, 0.0])

        def transfer(scale):
            b = scale * np.eye(3)[:, :2]
            with pytest.warns(DegenerateGramianWarning):  # the third state is unreachable
                traj = synthesize_min_energy_input(a, b, 2.0, x_f)
            return traj.energy, simulate_transfer(a, b, x_f, traj).terminal_error

        (energy, error), (scaled_energy, scaled_error) = transfer(1.0), transfer(1e50)
        assert scaled_energy == pytest.approx(1e-100 * energy, rel=1e-14)
        assert scaled_error == pytest.approx(error, rel=0.01)

    def test_simulate_transfer_to_the_origin_is_exact(self):
        a, b = _system(10, n=5, m=2)
        traj = synthesize_min_energy_input(a, b, 2.5, np.zeros(5), samples=11)
        res = simulate_transfer(a, b, np.zeros(5), traj)
        assert (res.terminal_error, res.input_energy) == (0.0, 0.0)
        assert not res.states.any()
