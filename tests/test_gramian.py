import decimal
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad_vec
from scipy.linalg import expm

from gramsel import gramian
from gramsel.exceptions import (
    DimensionError,
    DomainError,
    NumericalError,
    StabilityError,
)
from gramsel.gramian import LyapunovSolver, finite_horizon_gramian
from gramsel.models import (
    build_swing_matrix,
    grid_model,
    hvdc_candidates,
    load_problem,
    random_hurwitz_system,
    ring_grid,
    system_problem_dict,
    write_problem,
)
from gramsel.numerics import spectral_abscissa
from gramsel.placement import CandidateSet

from exact_lyapunov import adjoint_solution
from residual import backward_error

EPS = np.finfo(float).eps


# --- oracles ----------------------------------------------------------------

def lyap_kron(a, q):
    """Kronecker-vectorized Lyapunov solve: (I(x)A + A(x)I) vec(W) = -vec(Q).

    Dense O(n^6) route, independent of the Schur/trsyl path; only usable
    for small n.
    """
    n = a.shape[0]
    eye = np.eye(n)
    k = np.kron(eye, a) + np.kron(a, eye)
    w = np.linalg.solve(k, -q.flatten(order="F"))
    return w.reshape((n, n), order="F")


def gramian_quadrature(a, b, t_end, tol=1e-12):
    """Adaptive quadrature of the defining integral e^{As} BB^T e^{A^T s}."""
    q = b @ b.T
    w, _ = quad_vec(lambda s: expm(a * s) @ q @ expm(a * s).T, 0.0, t_end,
                    epsabs=tol, epsrel=tol)
    return w


# the 45 degree rotation, and A = R diag(-1, -2) R^T, whose Schur vectors are not the unit
# vectors
ROTATION = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)
ROTATED = ROTATION @ np.diag([-1.0, -2.0]) @ ROTATION.T


def _system(seed, n=None, m=None):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(2, 9))
    m = m or int(rng.integers(1, 4))
    a, _, b = random_hurwitz_system(n, m, seed=seed)
    return a, b


class TestSolveLyapunov:
    def test_scalar(self):
        w = LyapunovSolver([[-1.0]]).solve([[1.0]])
        assert abs(w[0, 0] - 0.5) <= 1e-12

    def test_diagonal(self):
        w = LyapunovSolver(np.diag([-1.0, -2.0])).solve(np.eye(2))
        assert np.allclose(w, np.diag([0.5, 0.25]), atol=1e-12)

    def test_jordan_block(self):
        # a = [[-1, 1], [0, -1]], q = I has the closed form below
        w = LyapunovSolver([[-1.0, 1.0], [0.0, -1.0]]).solve(np.eye(2))
        assert np.allclose(w, [[0.75, 0.25], [0.25, 0.5]], atol=1e-12)

    def test_against_kron_oracle(self):
        a, b = _system(123, n=6, m=2)
        q = b @ b.T
        w = LyapunovSolver(a).solve(q)
        w_oracle = lyap_kron(a, q)
        assert np.allclose(w, w_oracle, rtol=1e-10, atol=1e-12)

    def test_adjoint_against_kron_oracle(self):
        a, b = _system(124, n=6, m=2)
        q = b @ b.T
        p = LyapunovSolver(a).solve(q, adjoint=True)
        assert np.allclose(p, lyap_kron(a.T, q), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("gramian", [
        lambda a, b: LyapunovSolver(a).solve(b @ b.T),
        lambda a, b: LyapunovSolver(a).gramian(b),
        lambda a, b: finite_horizon_gramian(a, b, 2.5),
    ], ids=["LyapunovSolver.solve", "LyapunovSolver.gramian", "finite_horizon_gramian"])
    def test_result_is_bitwise_symmetric(self, gramian):
        a, b = _system(5, n=7)
        w = gramian(a, b)
        assert type(w) is np.ndarray and w.dtype == np.float64 and w.shape == (7, 7)
        assert np.array_equal(w, w.T)

    def test_residual_bound_random_systems(self):
        for seed in range(10):
            a, b = _system(seed)
            q = b @ b.T
            w = LyapunovSolver(a).solve(q)
            assert backward_error(a, w, q) <= len(a) * EPS

    def test_non_hurwitz_rejected_naming_the_abscissa(self):
        with pytest.raises(StabilityError) as err:
            LyapunovSolver([[0.5]])
        assert str(err.value).endswith("max Re(eigenvalue) = 5.000000e-01")

    def test_reported_abscissa_is_the_abscissa_of_a(self):
        # the gate reads the spectrum off the Schur factor T, not off a itself
        rng = np.random.default_rng(5)
        for _ in range(10):
            s = rng.normal(size=(8, 8))
            a = s - (spectral_abscissa(s) - rng.uniform(0.01, 1.0)) * np.eye(8)
            with pytest.raises(StabilityError) as err:
                LyapunovSolver(a)
            assert f"max Re(eigenvalue) = {spectral_abscissa(a):.6e}" in str(err.value)

    @pytest.mark.parametrize("a", [[[0.0]], np.diag([-1.0, -1e-14]), [[1e10, 0.0], [0.0, 1.0]]])
    def test_rounding_level_named_only_when_it_covers_the_abscissa(self, a):
        # each -alpha is within 1000 rounding levels eps ||A||_1, and the message names
        # that level whether A is stiff, marginal or unstable
        rounding = np.finfo(float).eps * np.linalg.norm(a, 1)
        with pytest.raises(StabilityError) as err:
            LyapunovSolver(a)
        assert str(err.value) == (
            "dynamics matrix is not Hurwitz to 1000 times the Schur factor's rounding level "
            f"eps*||A||_1 = {rounding:.1e}: max Re(eigenvalue) = {spectral_abscissa(a):.6e}")

    def test_marginal_system_rejected(self):
        with pytest.raises(StabilityError):
            LyapunovSolver([[0.0, 1.0], [-1.0, 0.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            LyapunovSolver(np.diag([-1.0, -1.0])).solve(np.eye(3))

    def test_non_numeric_input_is_a_dimension_error(self):
        a = np.diag([-1.0, -2.0])
        for call in (
            lambda: LyapunovSolver(a).gramian("x"),
            lambda: LyapunovSolver(a).gramian([[1.0, 2.0], [3.0]]),  # ragged
            lambda: LyapunovSolver("x"),
            lambda: LyapunovSolver([[-1.0, 0.0], [0.0]]),
            lambda: finite_horizon_gramian(a, [["x"], [0.0]], 1.0),
        ):
            with pytest.raises(DimensionError, match="not numeric"):
                call()

    def test_asymmetric_rhs_rejected(self):
        # the second q is asymmetric relative to its own size, though not to 1; the last
        # three at scales where the Frobenius norm overflows, or its squares underflow to 0
        solver = LyapunovSolver(np.diag([-1.0, -1.0]))
        for q in ([[1.0, 1.0], [0.0, 1.0]], [[1e-10, 5e-9], [0.0, 1e-10]],
                  [[1e200, 1e200], [0.0, 1e200]], [[1e-200, 1e-200], [0.0, 1e-200]],
                  [[5e-324, 5e-324], [0.0, 5e-324]]):
            with pytest.raises(DomainError, match="must be symmetric"):
                solver.solve(q)
        assert not solver.solve(np.zeros((2, 2))).any()

    # W = q / 0.2 in the scalar system and in both entries of the 2x2 one, forward or
    # adjoint; the 2x2 one is a one-bus grid, so its forward solve goes through its mode
    SCALED_BY_FIVE = ([[-0.1]], [[0.0, 1.0], [-1.0, -0.1]])

    def test_a_solution_past_the_float_range_is_a_numerical_error(self):
        for a in self.SCALED_BY_FIVE:
            solver = LyapunovSolver(a)
            q = np.zeros(solver.a.shape)
            q[-1, -1] = 4e307  # W = 2e308
            for adjoint in (False, True):
                with pytest.raises(NumericalError, match="^the Lyapunov solution overflows"):
                    solver.solve(q, adjoint=adjoint)

    def test_a_solution_near_the_float_range_is_finite(self):
        # W = 1.5e308, whose symmetric part (W + W^T) / 2 would overflow in the sum
        for a in self.SCALED_BY_FIVE:
            solver = LyapunovSolver(a)
            q = np.zeros(solver.a.shape)
            q[-1, -1] = 3e307
            for adjoint in (False, True):
                w = solver.solve(q, adjoint=adjoint)
                assert np.diag(w) == pytest.approx([1.5e308] * solver.n, rel=1e-14)
        w = LyapunovSolver(np.diag([-1.0, -2.0])).solve(np.diag([1e308, 0.0]))
        assert np.array_equal(w, np.diag([5e307, 0.0]))
        # A = R diag(-1, -2) R^T, R the 45 degree rotation, and q = s^2 r r^T for R's
        # first column r: W = q / 2 has trace 1.62e308, but U^T q on the Schur path sums
        # two entries of 1.15e308 unless q is scaled first
        r = ROTATION[:, 0]
        q = (1.8e154 * r)[:, None] * (1.8e154 * r)
        for adjoint in (False, True):
            w = LyapunovSolver(ROTATED).solve(q, adjoint=adjoint)
            assert w == pytest.approx(q / 2, rel=1e-14)

    @pytest.mark.parametrize("a", [build_swing_matrix(ring_grid(6)), ROTATED],
                             ids=["ring6", "rotated"])
    def test_solutions_do_not_depend_on_the_units_of_q(self, a):
        # the solve is linear in q, so scaling q by 2^j scales W by exactly 2^j, on the
        # modal path (ring6, forward) and the Schur path alike, wherever no entry is
        # subnormal
        solver = LyapunovSolver(a)
        q = _rhs(solver.n, 3)
        for adjoint in (False, True):
            w = solver.solve(q, adjoint=adjoint)
            for j in range(-1000, 1001, 10):
                assert np.array_equal(solver.solve(np.ldexp(q, j), adjoint=adjoint),
                                      np.ldexp(w, j)), (adjoint, j)

    def test_solver_reuse_matches_oneshot(self):
        a, _ = _system(9, n=5)
        solver = LyapunovSolver(a)
        rng = np.random.default_rng(0)
        for _ in range(4):
            b = rng.normal(size=(5, 2))
            q = (b @ b.T + (b @ b.T).T) / 2
            assert np.array_equal(solver.solve(q), LyapunovSolver(a).solve(q))


def _quasi_triangular(n, seed, pairs):
    """Stable upper quasi-triangular T in Schur canonical form.

    A 2x2 block [[x, y], [-z, x]] (y, z > 0, x < 0) starts at each index in
    ``pairs``; every other diagonal entry is a negative real eigenvalue.
    """
    rng = np.random.default_rng(seed)
    t = np.triu(rng.normal(size=(n, n))) / math.sqrt(n)  # mildly non-normal
    np.fill_diagonal(t, -rng.uniform(0.5, 2.0, size=n))
    for p in pairs:
        x = -rng.uniform(0.5, 2.0)
        t[p:p + 2, p:p + 2] = [[x, rng.uniform(0.5, 2.0)], [-rng.uniform(0.5, 2.0), x]]
    return t


def _rotated(t, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=t.shape))
    return q @ t @ q.T


def _rhs(n, seed):
    b = np.random.default_rng(seed).normal(size=(n, 3))
    return b @ b.T


# A small leaf keeps every recursion branch within the dense oracle's reach.
_SMALL_LEAF = 6


class TestBlockedKernel:
    """The recursive blocked solve against the Kronecker oracle and a fake leaf."""

    @pytest.fixture
    def leaf(self, monkeypatch):
        monkeypatch.setattr(gramian, "_LEAF", _SMALL_LEAF)
        return _SMALL_LEAF

    def _assert_matches_oracle(self, a):
        q = _rhs(a.shape[0], 1)
        solver = LyapunovSolver(a)
        for adjoint, a_eq in ((False, a), (True, a.T)):
            w = solver.solve(q, adjoint=adjoint)
            oracle = lyap_kron(a_eq, q)
            assert np.linalg.norm(w - oracle) <= 1e-12 * np.linalg.norm(oracle)

    # below, at and above the leaf size, and beyond twice it
    @pytest.mark.parametrize("n", [_SMALL_LEAF - 1, _SMALL_LEAF, _SMALL_LEAF + 1,
                                   2 * _SMALL_LEAF + 3])
    def test_sizes_around_the_leaf(self, leaf, n):
        a, _ = _system(40 + n, n=n)
        self._assert_matches_oracle(a)

    def test_sizes_around_the_real_leaf(self):
        for n in (gramian._LEAF - 1, gramian._LEAF, gramian._LEAF + 1):
            self._assert_matches_oracle(_rotated(_quasi_triangular(n, n, range(0, n - 1, 5)), n))

    def test_two_by_two_blocks_straddle_every_midpoint(self, leaf):
        n = 2 * leaf + 4  # a multiple of 4: blocks at odd starts cover n // 2 - 1 and n // 2
        t = _quasi_triangular(n, 3, range(1, n - 1, 2))
        solver = LyapunovSolver(t)
        for _, factor in solver._factors.values():
            assert factor[n // 2, n // 2 - 1] != 0.0  # a plain halving would cut this block
        self._assert_matches_oracle(t)

    def test_real_spectrum(self, leaf):
        n = 3 * leaf + 1
        t = _quasi_triangular(n, 4, ())
        self._assert_matches_oracle(_rotated(t, 4))

    def test_beyond_twice_the_real_leaf_has_a_small_residual(self):
        n = 2 * gramian._LEAF + 7
        a = _rotated(_quasi_triangular(n, 8, range(0, n - 1, 3)), 8)
        q = _rhs(n, 2)
        solver = LyapunovSolver(a)
        for adjoint, a_eq in ((False, a), (True, a.T)):
            w = solver.solve(q, adjoint=adjoint)
            assert backward_error(a_eq, w, q) <= n * EPS

    # -- a fake leaf routine drives the scale/info branches on every leaf --

    def _faked(self, monkeypatch, fake):
        a, _ = _system(11, n=2 * gramian._LEAF + 3)
        solver = LyapunovSolver(a)
        real = solver._trsyl
        calls = []

        def leaf(*args, **kwargs):
            calls.append(None)
            return fake(len(calls) - 1, *real(*args, **kwargs))

        monkeypatch.setattr(solver, "_trsyl", leaf)
        return solver, calls

    def test_leaf_scale_is_undone_exactly(self, monkeypatch):
        solver, calls = self._faked(monkeypatch, lambda i, y, scale, info: (y * 0.5, 0.5, info))
        q = _rhs(solver.n, 5)
        for adjoint in (False, True):
            expected = LyapunovSolver(solver.a).solve(q, adjoint=adjoint)
            assert np.array_equal(solver.solve(q, adjoint=adjoint), expected)
        assert len(calls) > 2  # every leaf was rescaled

    @pytest.mark.parametrize("fault, message", [((0.0, 0), "zero scale"),
                                                ((1.0, -3), "illegal argument 3")])
    def test_a_failed_leaf_raises(self, monkeypatch, fault, message):
        solver, _ = self._faked(
            monkeypatch, lambda i, y, scale, info: (y, *fault) if i == 2 else (y, scale, info))
        with pytest.raises(NumericalError, match=message):
            solver.solve(_rhs(solver.n, 6))

    def test_a_perturbed_leaf_warns_once_per_solve(self, monkeypatch):
        flagged = []
        solver, calls = self._faked(
            monkeypatch, lambda i, y, scale, info: (y, scale, int(i in flagged)))
        q = _rhs(solver.n, 7)
        solver.solve(q)
        leaves = len(calls)
        for first in range(leaves):
            flagged[:] = [first, leaves - 1]  # one or two perturbed leaves
            for adjoint in (False, True):
                calls.clear()
                with pytest.warns(RuntimeWarning) as record:
                    solver.solve(q, adjoint=adjoint)
                assert [str(r.message) for r in record] == [
                    "trsyl perturbed nearly-common eigenvalues to solve; "
                    "result may be inaccurate"]


def _grid(buses, lines=()):
    """A bus-list grid of (inertia, damping, grounding) buses and (i, j, susceptance) lines."""
    return grid_model({
        "buses": [{"id": f"b{k}", "inertia": m, "damping": d, "grounding": g}
                  for k, (m, d, g) in enumerate(buses)],
        "lines": [{"from": f"b{i}", "to": f"b{j}", "susceptance": b} for i, j, b in lines]})


def _template_rejects(a):
    """True unless ``a`` is ``[[0, I], [-S, -c I]]`` with S symmetric, tested as a whole
    (n, 2, n, 2) template built from ``a``: the oracle for ``gramian._modes``'s block test."""
    n = a.shape[0] // 2
    if 2 * n != a.shape[0]:
        return True
    s, c = -a[1::2, ::2], -a[1, 1]
    template = np.zeros((n, 2, n, 2))
    template[:, 0, :, 1] = np.eye(n)
    template[:, 1, :, 0] = -s.T  # equal to a's block only if S is symmetric
    template[:, 1, :, 1] = -c * np.eye(n)
    return not np.array_equal(template.reshape(a.shape), a)


class TestModes:
    """A uniformly damped grid's forward solves go through its modes; adjoint solves,
    and every other A, through the Schur factor."""

    @staticmethod
    def _schur(a):
        solver = LyapunovSolver(a)
        solver._modes = None
        return solver

    @pytest.mark.parametrize("grid", [
        _grid([(1.3, 0.7, 0.4)]),
        _grid([(2.0, 0.5, 0.1), (2.0, 0.5, 0.0)], [(0, 1, 3.0)]),
        _grid([(0.8, 1.1, 0.0), (0.8, 1.1, 0.2), (0.8, 1.1, 0.3)], [(2, 1, 1.5), (0, 1, 0.5)]),
        ring_grid(2), ring_grid(3, inertia=1.5, damping=0.2), ring_grid(6, chords=4, seed=1),
    ], ids=["1 bus", "2 buses", "3-bus path", "ring2", "ring3", "ring6 with chords"])
    def test_against_kron_oracle(self, grid):
        a = build_swing_matrix(grid)
        solver = LyapunovSolver(a)
        assert solver._modes is not None
        q = _rhs(solver.n, 3)
        oracle = lyap_kron(a, q)
        assert np.linalg.norm(solver.solve(q) - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_against_the_exact_solution(self):
        # m = 2, d = 1, g = (1/2, 0) and b = 3/2 give a dyadic A, so the floats are exact
        a = build_swing_matrix(_grid([(2.0, 1.0, 0.5), (2.0, 1.0, 0.0)], [(0, 1, 1.5)]))
        link = [0.0, 0.5, 0.0, -0.5]
        q = np.eye(4) + np.outer(link, link)
        solver = LyapunovSolver(a)
        assert solver._modes is not None
        for adjoint in (False, True):
            exact = np.array(adjoint_solution(a if adjoint else a.T, q), dtype=float)
            error = np.abs(solver.solve(q, adjoint=adjoint) - exact).max()
            assert error <= 4 * solver.n * EPS * np.abs(exact).max()

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8))
    def test_random_grids_agree_with_the_schur_path(self, data, n):
        # parameters within a factor 2 of 1 keep the Lyapunov operator well conditioned
        # (corners of [0.1, 10] put the two backward-stable solves 1.6e-11 apart)
        value = st.floats(0.5, 2.0)
        m, d = data.draw(value), data.draw(value)
        grounding = [data.draw(value), *(data.draw(st.just(0.0) | value) for _ in range(n - 1))]
        tree = {(data.draw(st.integers(0, i - 1)), i) for i in range(1, n)}
        pairs = [(i, j) for j in range(n) for i in range(j)]
        extra = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        lines = [(i, j, data.draw(value)) for i, j in sorted(tree | extra)]
        a = build_swing_matrix(_grid([(m, d, g) for g in grounding], lines))
        solver = LyapunovSolver(a)
        assert solver._modes is not None
        q = _rhs(solver.n, n)
        w, reference = solver.solve(q), self._schur(a).solve(q)
        assert np.abs(w - reference).max() <= 1e-12 * np.abs(reference).max()
        assert backward_error(a, w, q) <= solver.n * EPS

    @pytest.mark.parametrize("a", [
        build_swing_matrix(_grid([(1.0, 0.5, 0.1), (2.0, 1.0, 0.0)], [(0, 1, 1.0)])),
        build_swing_matrix(_grid([(1.0, 0.5, 0.1), (1.0, 0.7, 0.0)], [(0, 1, 1.0)])),
        [[0.0, 1.0 + EPS], [-1.0, -0.1]],
        random_hurwitz_system(6, 2, seed=3)[0],
        random_hurwitz_system(40, 3, seed=1)[0],
        [[-0.1]],
        [[0.0, 1.0, 0.0], [-1.0, -0.1, 0.0], [0.0, 0.0, -1.0]],
        [[-0.1, 1.0], [-1.0, -0.1]],
    ], ids=["one bus's inertia off (S asymmetric)", "one bus's damping off", "a one off by 1 ulp",
            "gen --random 6", "gen --random 40", "odd n = 1", "odd n = 3",
            "a nonzero angle-angle entry"])
    def test_no_modes_off_the_second_order_form(self, a):
        assert LyapunovSolver(a)._modes is None

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6))
    def test_the_block_test_decides_as_the_template(self, data, n):
        # S diagonally dominant by at least 1 and c in [0.5, 2]: a move of at most 0.25
        # keeps S positive definite and c positive, so only the form decides
        unit = st.floats(-1.0, 1.0)
        off = np.array([[data.draw(unit) for _ in range(n)] for _ in range(n)])
        s = np.triu(off, 1) + np.triu(off, 1).T + np.diag([n + 1.0 + data.draw(unit)] * n)
        c = data.draw(st.floats(0.5, 2.0))
        a = np.zeros((n, 2, n, 2))
        a[:, 0, :, 1], a[:, 1, :, 0], a[:, 1, :, 1] = np.eye(n), -s, -c * np.eye(n)
        a = a.reshape(2 * n, 2 * n)
        # one entry of one of the four (angle, frequency) blocks moves, by zero or more
        row, col = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        a[2 * i + row, 2 * j + col] += data.draw(st.floats(-0.25, 0.25))
        assert (gramian._modes(a) is None) == _template_rejects(a)

    def test_an_explicit_problem_in_second_order_form_takes_the_modes(self, tmp_path):
        # the choice is a property of A, not of the problem file's form
        grid = ring_grid(4)
        path = tmp_path / "explicit.json"
        write_problem(path, system_problem_dict(build_swing_matrix(grid), *hvdc_candidates(grid)))
        problem = load_problem(path)
        assert problem.grid is None and problem.candidate_set.solver._modes is not None

    def test_a_stiff_grid_solves_in_range(self):
        # c = 1e8, so c^2 times an entry of q = b b^T (1e294) overflows although W peaks at
        # 7.9e293: the modal solve must run on q scaled to a largest entry near 1.  The
        # reference is the exact solution of the float problem: the two backward-stable
        # float paths lie 4e-8 apart on an operator whose spectrum spans -0.1 to -1e8.
        a = build_swing_matrix(ring_grid(6, inertia=1e-8, damping=1.0))
        b = np.zeros(12)
        b[:2] = 1e147  # bus 0's angle and frequency
        q = np.outer(b, b)
        solver = LyapunovSolver(a)
        assert solver._modes is not None and solver._modes[2] == 1e8
        w = solver.solve(q)
        exact = np.array(adjoint_solution(a.T, q), dtype=float)
        assert np.abs(w - exact).max() <= 4 * solver.n * EPS * np.abs(exact).max()
        # eta is scale-free; a power of two scales exactly and keeps the residual finite
        assert backward_error(a, w * 2.0**-976, q * 2.0**-976) <= solver.n * EPS

    def test_the_modes_hold_v_and_lam_alone(self):
        a = build_swing_matrix(ring_grid(300))
        n = a.shape[0] // 2
        # scipy's LAPACK module is loaded at this file's import, so the count is _modes's
        tracemalloc.start()
        try:
            modes = gramian._modes(a)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert modes is not None
        assert held <= 1.1 * 8 * (n * n + n)


class TestControllabilityGramian:
    def test_scalar(self):
        g = LyapunovSolver([[-1.0]]).gramian([[1.0]])
        assert abs(g[0, 0] - 0.5) <= 1e-12

    def test_unreachable_mode_gives_psd_singular(self):
        g = LyapunovSolver(np.diag([-1.0, -2.0])).gramian([[1.0], [0.0]])
        assert np.allclose(g, [[0.5, 0.0], [0.0, 0.0]], atol=1e-14)

    def test_against_quadrature_oracle(self):
        a, b = _system(77, n=4, m=2)
        g = LyapunovSolver(a).gramian(b)
        t_end = 50.0 / 0.1  # spectral abscissa is -0.1 by construction
        w_oracle = gramian_quadrature(a, b, t_end)
        rel = np.linalg.norm(g - w_oracle) / np.linalg.norm(w_oracle)
        assert rel <= 1e-6

    def test_rank_matches_controllability_matrix(self):
        # diagonal dynamics with distinct rates: rank is the number of
        # modes the column actually touches (Vandermonde argument)
        n = 5
        a = np.diag([-1.0, -2.0, -3.0, -4.0, -5.0])
        cases = [np.zeros((n, 1)) for _ in range(4)]
        for nz, b in zip((1, 2, 3, 5), cases):
            b[:nz, 0] = 1.0
        a_rnd, b_rnd = _system(17, n=n, m=1)
        cases.append(b_rnd)
        mats = [a, a, a, a, a_rnd]
        for a_i, b in zip(mats, cases):
            g = LyapunovSolver(a_i).gramian(b)
            krylov = np.column_stack([
                np.linalg.matrix_power(a_i, k) @ b for k in range(n)
            ])
            tol = 1e-8
            rank_k = np.linalg.matrix_rank(
                krylov, tol=tol * np.linalg.norm(krylov, 2)
            )
            svals = np.linalg.svd(g, compute_uv=False)
            rank_w = int(np.sum(svals > tol * svals[0]))
            assert rank_w == rank_k

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_additivity_over_columns(self, seed):
        a, b = _system(seed, n=6, m=3)
        solver = LyapunovSolver(a)
        whole = solver.gramian(b)
        parts = sum(solver.gramian(b[:, [j]]) for j in range(b.shape[1]))
        assert np.linalg.norm(whole - parts) <= 1e-9 * max(1.0, np.linalg.norm(whole))


class TestFiniteHorizon:
    def test_scalar_analytic(self):
        g = finite_horizon_gramian([[-1.0]], [[1.0]], 1.0)
        assert abs(g[0, 0] - (1.0 - math.exp(-2.0)) / 2.0) <= 1e-12

    def test_integrator_state_no_stability_needed(self):
        g = finite_horizon_gramian([[0.0]], [[1.0]], 3.0)
        assert abs(g[0, 0] - 3.0) <= 1e-12

    def test_nonpositive_horizon_rejected(self):
        for t in (0.0, -1.0, math.inf, math.nan, "1.0", None):
            with pytest.raises(DomainError):
                finite_horizon_gramian([[-1.0]], [[1.0]], t)

    def test_matches_quadrature(self):
        a, b = _system(31, n=5, m=2)
        t = 2.5
        g = finite_horizon_gramian(a, b, t)
        w_oracle = gramian_quadrature(a, b, t)
        assert np.allclose(g, w_oracle, rtol=1e-9, atol=1e-12)

    def test_converges_to_infinite_horizon(self):
        for seed in range(5):
            a, b = _system(seed)
            t = 50.0 / abs(np.max(np.linalg.eigvals(a).real))
            w_t = finite_horizon_gramian(a, b, t)
            w_inf = LyapunovSolver(a).gramian(b)
            rel = np.linalg.norm(w_t - w_inf) / np.linalg.norm(w_inf)
            assert rel <= 1e-8

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        t1=st.floats(0.05, 5.0),
        scale=st.floats(1.1, 10.0),
    )
    def test_monotone_psd_growth(self, seed, t1, scale):
        a, b = _system(seed, n=4, m=2)
        w1 = finite_horizon_gramian(a, b, t1)
        w2 = finite_horizon_gramian(a, b, t1 * scale)
        min_eig = np.linalg.eigvalsh(w2 - w1)[0]
        assert min_eig >= -1e-10 * np.linalg.norm(w2, 2)

    def test_long_horizon_wide_spectrum_no_overflow(self):
        # the naive one-shot block exponential overflows here
        a = np.diag([-0.1, -40.0])
        b = np.ones((2, 1))
        g = finite_horizon_gramian(a, b, 500.0)
        w_inf = LyapunovSolver(a).gramian(b)
        assert np.allclose(g, w_inf, rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("a, t", [
        ([[-1.0, 0.2], [0.0, -2.2]], 1e308),  # t ||A||_1 = 2.2e308
        ([[-1e308, 0.0], [-1e308, -1.0]], 1.0),  # ||A||_1 itself overflows
    ])
    def test_horizon_whose_split_overflows_is_a_numerical_error(self, a, t):
        with pytest.raises(NumericalError, match="overflows"):
            finite_horizon_gramian(a, [[1.0], [0.0]], t)

    def test_columns_whose_outer_product_overflows_are_a_numerical_error(self):
        with pytest.raises(NumericalError, match="^b b\\^T overflows"):
            finite_horizon_gramian([[-1.0]], [[1e200]], 1.0)

    def test_a_gramian_past_the_float_range_is_a_numerical_error(self):
        # W(t) = (e^{2t} - 1) / 2 for a = b = 1: finite at t = 300, past the float range
        # at t = 400, where the doubling loop overflows; no numpy warning escapes it
        w = finite_horizon_gramian([[1.0]], [[1.0]], 300)[0, 0]
        assert w == 1.8865101504648382e+260
        with decimal.localcontext(decimal.Context(prec=60)):
            exact = (decimal.Decimal(600).exp() - 1) / 2
        assert abs(decimal.Decimal(w) / exact - 1) <= decimal.Decimal("1e-13")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError) as err:
                finite_horizon_gramian([[1.0]], [[1.0]], 400)
        assert str(err.value) == "the finite-horizon Gramian overflows at horizon t = 400"

    def test_a_sub_interval_whose_block_overflows_is_a_numerical_error(self):
        # b b^T = 1e308 is finite, and the block exponential runs on it scaled to 0.56, so
        # only W(t) = 1e308 (1 - e^{-2 t / 10}) / 0.2 can overflow: it does at t = 3, where
        # it is 2.26e308; W(4) = 1e308 (1 - e^{-8}) / 2 of A = [[-1]] is in range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError) as err:
                finite_horizon_gramian([[-0.1]], [[1e154]], 3.0)
            w = finite_horizon_gramian([[-1.0]], [[1e154]], 4.0)[0, 0]
        assert str(err.value) == "the finite-horizon Gramian overflows at horizon t = 3"
        assert w == pytest.approx(-1e308 * math.expm1(-8.0) / 2, rel=1e-14)

    @pytest.mark.parametrize("t", [4.0, 8.0, 30.0])
    def test_the_sub_intervals_keep_the_closed_form_to_rounding(self, t):
        # W(t) = (1 - e^{-2t}) / 2 for a = -1, b = 1; a sub-interval of t ||A||_1 up to 4
        # loses about e^8 eps in the block exponential
        w = finite_horizon_gramian([[-1.0]], [[1.0]], t)[0, 0]
        assert abs(w + math.expm1(-2.0 * t) / 2) <= 4 * EPS * w

    def test_gramians_do_not_depend_on_the_units_of_b(self):
        # W is linear in b b^T: scaling b by 2^j scales W by exactly 2^(2j)
        a, b = _system(12, n=4, m=2)
        w = finite_horizon_gramian(a, b, 2.0)
        for j in range(-250, 251, 10):
            assert np.array_equal(finite_horizon_gramian(a, np.ldexp(b, j), 2.0),
                                  np.ldexp(w, 2 * j)), j


class TestObservability:
    # the observability Gramian of (a, c) is the controllability Gramian of (a^T, c^T)

    def test_scalar(self):
        g = LyapunovSolver([[-1.0]]).gramian([[1.0]])  # the 1x1 a and c are their transposes
        assert abs(g[0, 0] - 0.5) <= 1e-12

    def test_bitwise_duality(self):
        # the README's sensor route, rows of c as the columns of a candidate set on a^T,
        # gives bitwise the dual pair's Gramian; against the Kronecker oracle, that solves
        # a^T W + W a + c^T c = 0, not its transpose (a is non-normal)
        a, _ = _system(55, n=6)
        c = np.random.default_rng(4).normal(size=(2, 6))
        w = LyapunovSolver(a.T).gramian(c.T)
        sensors = CandidateSet(a.T, ["y0", "y1"], c.T)
        assert np.array_equal(sensors.solver.gramian(sensors.input_matrix(["y0", "y1"])), w)
        assert np.allclose(w, lyap_kron(a.T, c.T @ c), rtol=1e-10, atol=1e-12)
        assert not np.allclose(w, lyap_kron(a, c.T @ c), rtol=1e-3)
        assert backward_error(a.T, w, c.T @ c) <= len(a) * EPS

    def test_row_dimension_check(self):
        # c has 3 columns for 2 states: c^T is a (3, 1) input matrix for a^T
        with pytest.raises(DimensionError, match=r"^b has shape \(3, 1\), expected"):
            LyapunovSolver(np.diag([-1.0, -1.0]).T).gramian(np.ones((1, 3)).T)


class TestGramianType:
    def test_properties(self):
        g = LyapunovSolver(np.diag([-1.0, -2.0])).gramian(np.eye(2))
        assert np.trace(g) == pytest.approx(0.75)
        assert np.linalg.eigvalsh(g)[0] == pytest.approx(0.25)
