import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gramsel import gramian
from gramsel.exceptions import (
    DimensionError,
    DomainError,
    NonFiniteError,
    NumericalError,
    StabilityError,
)
from gramsel.gramian import LyapunovSolver, finite_horizon_gramian, lyapunov_residual
from gramsel.metrics import (
    MetricSpec,
    evaluate_metric,
    simulate_transfer,
    synthesize_min_energy_input,
)
from gramsel.numerics import (
    as_array,
    as_number,
    as_square,
    eigenvalues,
    finite,
    matrix_exponential,
    real_schur,
    spectral_abscissa,
    symmetrize,
)
from gramsel.models import build_swing_matrix, random_hurwitz_system, ring_grid
from gramsel.placement import (
    CandidateSet,
    controllability_centrality,
    select_top_k,
    verify_modularity,
)


# --- oracle -----------------------------------------------------------------
# Characteristic polynomial via Newton's identities on power sums
# p_k = tr(M^k), roots via the companion matrix (np.roots).  Shares no code
# with the eigensolver applied to M itself.

def charpoly_roots(m):
    n = m.shape[0]
    power = np.eye(n)
    p = []
    for _ in range(n):
        power = power @ m
        p.append(np.trace(power))
    e = [1.0]
    for k in range(1, n + 1):
        acc = 0.0
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * e[k - i] * p[i - 1]
        e.append(acc / k)
    coeffs = [(-1) ** k * e[k] for k in range(n + 1)]
    return np.roots(coeffs)


def _sorted(vals):
    return np.sort_complex(np.asarray(vals, dtype=complex))


class TestEigenvalues:
    def test_diagonal(self):
        vals = eigenvalues(np.diag([-1.0, -2.0]))
        assert isinstance(vals, np.ndarray) and vals.dtype == complex
        assert np.allclose(_sorted(vals), [-2.0, -1.0])

    def test_rotation_pure_imaginary(self):
        vals = eigenvalues([[0.0, 1.0], [-1.0, 0.0]])
        assert np.allclose(_sorted(vals), [-1j, 1j])

    def test_tiny_nonsymmetric_input_is_not_symmetrized(self):
        # Triangular, so the spectrum is the diagonal; a symmetry test with
        # a max(1, ||m||) floor would symmetrize it and shift both values.
        vals = _sorted(eigenvalues([[-2e-13, 1e-13], [0.0, -1e-13]]))
        assert np.allclose(vals, [-2e-13, -1e-13], rtol=1e-12, atol=0.0)

    def test_against_charpoly_companion_oracle(self):
        rng = np.random.default_rng(11)
        m = symmetrize(rng.normal(size=(5, 5)))
        got = np.sort(eigenvalues(m).real)
        expected = np.sort(charpoly_roots(m).real)
        assert np.allclose(got, expected, atol=1e-10, rtol=1e-10)

    def test_conjugate_pairing(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(7, 7))
        vals = eigenvalues(m)
        assert np.allclose(_sorted(vals), _sorted(vals.conj()))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            eigenvalues(np.ones((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteError):
            eigenvalues([[np.nan, 0.0], [0.0, 1.0]])


class TestHurwitz:
    # LyapunovSolver states the rule: max Re(lambda) < -_HURWITZ_MARGIN eps ||A||_1
    def test_stable_diagonal(self):
        assert LyapunovSolver(np.diag([-1.0, -2.0])).n == 2

    def test_marginal_zero_is_not_stable(self):
        with pytest.raises(StabilityError):
            LyapunovSolver([[0.0]])

    def test_default_margin_rejects_barely_stable(self):
        # the margin is relative: with ||A||_1 = 1 an abscissa of -1e-14, or of the
        # margin itself, is refused, while a slow A of any scale passes
        level = gramian._HURWITZ_MARGIN * np.finfo(float).eps
        for a in (np.diag([-1.0, -1e-14]), np.diag([-1.0, -level])):
            with pytest.raises(StabilityError):
                LyapunovSolver(a)
        for a in (np.diag([-1.0, -2.0 * level]), [[-1e-12]], [[-1e-300]]):
            assert LyapunovSolver(a).n == len(a)

    def test_abscissa(self):
        assert spectral_abscissa(np.diag([-3.0, -0.25])) == pytest.approx(-0.25)


class TestAsNumber:
    def test_returns_float_or_int(self):
        assert as_number(2, "x", 0) == 2.0 and isinstance(as_number(2, "x", 0), float)
        assert as_number(4.0, "x", 0, integer=True) == 4
        assert isinstance(as_number(np.int64(4), "x", 0, integer=True), int)

    def test_rejects_non_numbers_naming_the_field(self):
        for bad in ("1.0", "nan", None, True, np.bool_(False), [], {}, 1 + 0j):
            with pytest.raises(DomainError, match="inertia must be a number"):
                as_number(bad, "inertia", 0.0)

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf, 10**400):
            with pytest.raises(DomainError, match="x must be a finite number"):
                as_number(bad, "x", 0.0)

    def test_integer_fields_reject_fractions(self):
        with pytest.raises(DomainError, match="buses must be a finite integer"):
            as_number(4.5, "buses", 2, integer=True)

    def test_range(self):
        assert as_number(0.0, "g", 0.0) == 0.0
        with pytest.raises(DomainError, match="g must be > 0"):
            as_number(0.0, "g", 0.0, strict=True)
        with pytest.raises(DomainError, match="trials must be >= 1, got 0"):
            as_number(0, "trials", 1, integer=True)
        assert as_number(5, "k", 1, 5, integer=True) == 5
        with pytest.raises(DomainError, match="k must satisfy 1 <= k <= 5, got 6"):
            as_number(6, "k", 1, 5, integer=True)
        with pytest.raises(DomainError, match="density must satisfy 0.0 < density <= 1.0"):
            as_number(0.0, "density", 0.0, 1.0, strict=True)


class TestMatrixExponential:
    def test_zero(self):
        assert np.array_equal(matrix_exponential(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        e = matrix_exponential(np.diag([1.0, -1.0]))
        assert np.allclose(e, np.diag([np.e, 1.0 / np.e]), rtol=1e-14)

    def test_nilpotent(self):
        e = matrix_exponential([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(e, [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)

    def test_overflow_raises(self):
        with pytest.raises(NumericalError):
            matrix_exponential(np.diag([1e4, 1.0]))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 7))
    def test_group_inverse_property(self, seed, n):
        m = np.random.default_rng(seed).normal(size=(n, n))
        prod = matrix_exponential(m) @ matrix_exponential(-m)
        assert np.linalg.norm(prod - np.eye(n)) <= 1e-10 * max(1.0, np.linalg.norm(m))


class TestRealSchur:
    def test_triangular_passthrough(self):
        tri = np.triu(np.random.default_rng(0).normal(size=(4, 4)))
        q, t = real_schur(tri)
        assert np.array_equal(q, np.eye(4))
        assert np.array_equal(t, tri)

    def test_symmetric_gives_diagonal_t(self):
        m = symmetrize(np.random.default_rng(1).normal(size=(5, 5)))
        q, t = real_schur(m)
        assert np.allclose(t, np.diag(np.diag(t)), atol=1e-12)

    def test_reconstruction_frozen_case(self):
        m = np.random.default_rng(42).normal(size=(6, 6))
        q, t = real_schur(m)
        assert np.linalg.norm(q @ t @ q.T - m) <= 1e-10 * max(1.0, np.linalg.norm(m))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 10))
    def test_reconstruction_and_orthogonality(self, seed, n):
        m = np.random.default_rng(seed).normal(size=(n, n))
        q, t = real_schur(m)
        assert np.linalg.norm(q @ t @ q.T - m) <= 1e-10 * max(1.0, np.linalg.norm(m))
        assert np.linalg.norm(q.T @ q - np.eye(n)) <= 1e-12 * n

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 8))
    def test_spectrum_invariance(self, seed, n):
        m = np.random.default_rng(seed).normal(size=(n, n))
        _, t = real_schur(m)
        scale = max(1.0, np.abs(eigenvalues(m)).max())
        diff = _sorted(eigenvalues(m)) - _sorted(eigenvalues(t))
        assert np.abs(diff).max() <= 1e-9 * scale

    def test_quasi_triangular_structure(self):
        # strictly below the first subdiagonal everything must vanish
        m = np.random.default_rng(5).normal(size=(8, 8))
        _, t = real_schur(m)
        assert np.allclose(np.tril(t, -2), 0.0, atol=1e-14)


class TestOrderZero:
    # as_square rejects order 0, so no LAPACK routine sees an empty matrix
    @pytest.mark.parametrize("fn, name", [
        (as_square, "matrix"),
        (LyapunovSolver, "a"),
        (spectral_abscissa, "m"),
        (real_schur, "m"),
        (controllability_centrality, "a"),
    ], ids=["as_square", "LyapunovSolver", "spectral_abscissa", "real_schur",
            "controllability_centrality"])
    def test_is_a_dimension_error_naming_the_argument(self, capfd, fn, name):
        with pytest.raises(DimensionError, match=f"^{name} has order 0, expected at least 1$"):
            fn(np.zeros((0, 0)))
        assert capfd.readouterr() == ("", "")


# --- the array validator ------------------------------------------------------
# Every public function that takes an array checks it with numerics.as_array
# (or as_square): a string entry and a wrong shape raise DimensionError, a NaN
# NonFiniteError.  Rows: (function, valid arguments, the array argument
# mutated, a wrong shape for it, the name its messages use).  An input matrix
# has one shape, (n, m): a vector is not taken as one column.

A = [[-1.0, 0.0], [0.0, -2.0]]
I2 = [[1.0, 0.0], [0.0, 1.0]]
B = [[1.0], [1.0]]
WIDE = np.ones((2, 3)).tolist()
TALL = np.ones((3, 1)).tolist()
COLUMN = [1.0, 1.0]
TRAJECTORY = synthesize_min_energy_input(A, B, 1.0, [1.0, 0.0])
ARRAY_ARGUMENTS = [
    (LyapunovSolver, {"a": A}, "a", WIDE, "a"),
    (LyapunovSolver(A).gramian, {"b": B}, "b", COLUMN, "b"),
    (LyapunovSolver(A).gramian, {"b": B}, "b", TALL, "b"),
    (LyapunovSolver(A).solve, {"q": I2}, "q", np.eye(3).tolist(), "q"),
    (lyapunov_residual, {"a": A, "w": I2, "q": I2}, "a", WIDE, "a"),
    (lyapunov_residual, {"a": A, "w": I2, "q": I2}, "w", np.zeros((2, 2, 2)).tolist(), "w"),
    (lyapunov_residual, {"a": A, "w": I2, "q": I2}, "q", np.eye(3).tolist(), "q"),
    (finite_horizon_gramian, {"a": A, "b": B, "t": 1.0}, "a", WIDE, "a"),
    (finite_horizon_gramian, {"a": A, "b": B, "t": 1.0}, "b", TALL, "b"),
    (finite_horizon_gramian, {"a": A, "b": B, "t": 1.0}, "b", COLUMN, "b"),
    (CandidateSet, {"a": A, "ids": ["x"], "b": B}, "a", WIDE, "a"),
    (CandidateSet, {"a": A, "ids": ["x"], "b": B}, "b", TALL, "b"),
    (MetricSpec.h2, {"output_matrix": [[1.0, 0.0]]}, "output_matrix", [1.0, 0.0],
     "h2 weight matrix"),
    (MetricSpec.weighted, {"matrix": I2}, "matrix", WIDE, "weighted_trace weight matrix"),
    (evaluate_metric, {"spec": MetricSpec(), "w": I2}, "w", WIDE, "w"),
    (synthesize_min_energy_input, {"a": A, "b": B, "t": 1.0, "x_f": [1.0, 0.0]}, "a", WIDE,
     "a"),
    (synthesize_min_energy_input, {"a": A, "b": B, "t": 1.0, "x_f": [1.0, 0.0]}, "b", TALL,
     "b"),
    (synthesize_min_energy_input, {"a": A, "b": B, "t": 1.0, "x_f": [1.0, 0.0]}, "b", COLUMN,
     "b"),
    (synthesize_min_energy_input, {"a": A, "b": B, "t": 1.0, "x_f": [1.0, 0.0]}, "x_f",
     [1.0, 0.0, 0.0], "x_f"),
    (simulate_transfer, {"a": A, "b": B, "x_f": [1.0, 0.0], "trajectory": TRAJECTORY}, "b",
     COLUMN, "b"),
    (controllability_centrality, {"a": A}, "a", WIDE, "a"),
    (spectral_abscissa, {"m": A}, "m", WIDE, "m"),
    (real_schur, {"m": A}, "m", WIDE, "m"),
    (matrix_exponential, {"m": A}, "m", WIDE, "m"),
]


def _first_entry_set(value, entry):
    cells = np.array(value, dtype=object)
    cells.flat[0] = entry
    return cells.tolist()


def _row_ids(rows):
    """function-argument, with the wrong shape's rank added on a second row for one argument."""
    ids = []
    for fn, _, arg, wrong_shape, _ in rows:
        row_id = f"{fn.__qualname__}-{arg}"
        ids.append(f"{row_id}-{np.ndim(wrong_shape)}d" if row_id in ids else row_id)
    return ids


@pytest.mark.parametrize("fn, kwargs, arg, wrong_shape, name", ARRAY_ARGUMENTS,
                         ids=_row_ids(ARRAY_ARGUMENTS))
def test_array_arguments_are_validated(fn, kwargs, arg, wrong_shape, name):
    fn(**kwargs)  # the valid arguments pass
    for entry in ("x", True):
        with pytest.raises(DimensionError, match="not numeric"):
            fn(**{**kwargs, arg: _first_entry_set(kwargs[arg], entry)})
    with pytest.raises(NonFiniteError):
        fn(**{**kwargs, arg: _first_entry_set(kwargs[arg], np.nan)})
    with pytest.raises(NonFiniteError) as err:  # an int past the float range
        fn(**{**kwargs, arg: _first_entry_set(kwargs[arg], 10**400)})
    assert str(err.value) == f"{name} contains non-finite entries"
    with pytest.raises(DimensionError) as err:
        fn(**{**kwargs, arg: wrong_shape})
    assert str(err.value).startswith(f"{name} has shape {np.shape(wrong_shape)}, expected")


@settings(max_examples=50, deadline=None)
@given(shape=st.sampled_from([(1,), (7,), (3, 5), (2, 2, 2)]), data=st.data())
def test_a_non_finite_entry_anywhere_is_named(shape, data):
    x = np.arange(float(np.prod(shape))).reshape(shape)
    bad = data.draw(st.lists(st.integers(0, x.size - 1), min_size=1, max_size=3))
    x.flat[bad] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    with pytest.raises(NonFiniteError, match="^x contains non-finite entries$"):
        as_array(x, (None,) * len(shape), "x")


def test_finiteness_check_allocates_no_array_of_the_input_size():
    x = np.ones((600, 4000))
    assert as_array(np.zeros((0, 3)), (None, 3)).shape == (0, 3)  # empty arrays pass
    tracemalloc.start()
    try:
        assert as_array(x, (600, None)) is x
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.size // 8  # a boolean mask of x alone would take x.size bytes


@pytest.mark.parametrize("x", [np.array([1.0, np.nan]), np.full((2, 2), -np.inf), np.inf,
                               float("nan")], ids=["nan", "-inf", "inf", "float nan"])
def test_finite_raises_the_message_for_a_non_finite_entry(x):
    y = np.zeros((2, 3))
    assert finite(y, "unused") is y and finite(-1e308, "unused") == -1e308
    with pytest.raises(NumericalError, match="^the result overflows$"):
        finite(x, "the result overflows")


class TestNoNonFiniteResultEscapes:
    """Finite input scaled by 10**k, 0 <= k <= 308.25, gives finite results or a
    NumericalError: never a non-finite value, another exception or a warning."""

    METRICS = ["trace", "weighted_trace", "h2"]
    # a scale exponent; half the draws fall near the float range's edge, 10**308.25
    K = st.integers(0, 308) | st.floats(305.0, 308.25)

    @staticmethod
    def _outcome(fn, *args, **kwargs):
        """fn's result, or None for a NumericalError; every warning is an error."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                return fn(*args, **kwargs)
            except NumericalError:
                return None

    @staticmethod
    def _system(seed, modal):
        """``(a, rng)``: a seeded 4-state Hurwitz A, or a 2-bus uniform grid's, which has modes."""
        a = build_swing_matrix(ring_grid(2)) if modal else random_hurwitz_system(4, 1, seed=seed)[0]
        assert (LyapunovSolver(a)._modes is not None) == modal
        return a, np.random.default_rng(seed)

    @staticmethod
    def _metric(kind, rng, n):
        if kind == "trace":
            return MetricSpec()
        return MetricSpec(kind, rng.normal(size=(n if kind == "weighted_trace" else 2, n)))

    @staticmethod
    def _symmetric(rng, n, k):
        q = rng.normal(size=(n, n))
        q += q.T
        return q / np.abs(q).max() * 10.0**k

    @settings(max_examples=30, deadline=None)
    @given(k=K, seed=st.integers(0, 20), modal=st.booleans(), adjoint=st.booleans())
    def test_lyapunov_solve(self, k, seed, modal, adjoint):
        a, rng = self._system(seed, modal)
        w = self._outcome(LyapunovSolver(a).solve, self._symmetric(rng, len(a), k), adjoint)
        assert w is None or np.isfinite(w).all()

    @settings(max_examples=30, deadline=None)
    @given(k=K, seed=st.integers(0, 20), t=st.floats(1e-3, 1e3))
    def test_finite_horizon_gramian(self, k, seed, t):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 3))
        a += (0.5 - spectral_abscissa(a)) * np.eye(3)  # unstable: an abscissa near 0.5
        w = self._outcome(finite_horizon_gramian, a, rng.normal(size=(3, 2)) * 10.0**(k / 2), t)
        assert w is None or np.isfinite(w).all()

    @settings(max_examples=30, deadline=None)
    @given(k=K, seed=st.integers(0, 20), kind=st.sampled_from(METRICS))
    def test_evaluate_metric(self, k, seed, kind):
        rng = np.random.default_rng(seed)
        metric = self._metric(kind, rng, 4)
        score = self._outcome(evaluate_metric, metric, self._symmetric(rng, 4, k))
        assert score is None or np.isfinite(score)

    @settings(max_examples=30, deadline=None)
    @given(k=K, seed=st.integers(0, 20), modal=st.booleans(), kind=st.sampled_from(METRICS))
    def test_select_and_verify(self, k, seed, modal, kind):
        # one column scaled by 10**(k/2) and four by less, so subset scores span the range
        a, rng = self._system(seed, modal)
        scales = 10.0 ** (k / 2 * np.r_[1.0, rng.random(4)])
        cs = CandidateSet(a, [f"c{j}" for j in range(5)], rng.normal(size=(len(a), 5)) * scales)
        metric = self._metric(kind, rng, cs.n)
        result = self._outcome(select_top_k, cs, 2, metric)
        assert result is None or np.isfinite([*result.weights, result.total_score]).all()
        report = self._outcome(verify_modularity, cs, metric, trials=3)
        assert report is None or np.isfinite(report.max_violation)
