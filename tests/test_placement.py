import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gramsel import gramian, placement
from gramsel.exceptions import (
    DimensionError,
    DomainError,
    EnumerationCapError,
    NumericalError,
    StabilityError,
)
from gramsel.gramian import LyapunovSolver
from gramsel.metrics import MetricSpec, evaluate_metric
from gramsel.placement import (
    CandidateSet,
    brute_force_best,
    controllability_centrality,
    ranked,
    select_top_k,
    verify_modularity,
)
from gramsel.models import build_swing_matrix, hvdc_candidates, random_hurwitz_system, ring_grid

from exact_lyapunov import adjoint_solution, quadratic_form


# --- oracle -----------------------------------------------------------------
# Plain exhaustive enumeration, no shared solver, no sorting tricks:
# score every subset through a LyapunovSolver of its own, not cs.solver.

def exhaustive_best(cs, k, metric=MetricSpec()):
    best_ids, best_val = None, -math.inf
    for combo in itertools.combinations(sorted(cs.ids), k):
        b = cs.input_matrix(combo)
        val = evaluate_metric(metric, LyapunovSolver(cs.a).gramian(b))
        if val > best_val:
            best_ids, best_val = combo, val
    return best_ids, best_val


def _scaled(cs, scale):
    return CandidateSet(cs.a, cs.ids, scale * cs.B)


def _candidate_set(seed, n=None, m=None):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(3, 9))
    m = m or int(rng.integers(2, 7))
    return CandidateSet(*random_hurwitz_system(n, m, seed=seed))


class TestCandidateSet:
    def test_duplicate_ids_rejected(self):
        a = np.diag([-1.0, -2.0])
        with pytest.raises(DomainError, match="duplicate candidate id 'x'"):
            CandidateSet(a, ["x", "x"], np.eye(2))

    def test_column_length_checked(self):
        # per-candidate naming of a bad column is pinned at the loader
        # (test_models::test_wrong_column_length_names_candidate)
        with pytest.raises(DimensionError) as err:
            CandidateSet(np.diag([-1.0, -2.0]), ["x"], [[1.0], [0.0], [0.0]])
        assert "(3, 1)" in str(err.value) and "(2, 1)" in str(err.value)

    def test_empty_rejected(self):
        with pytest.raises(DomainError, match="candidate set is empty"):
            CandidateSet(np.diag([-1.0]), [], np.zeros((1, 0)))

    def test_stores_a_read_only_view_of_b(self):
        a, ids, b = random_hurwitz_system(4, 3, seed=1)
        cs = CandidateSet(a, ids, b)
        assert np.shares_memory(cs.B, b)
        assert not cs.B.flags.writeable
        assert b.flags.writeable

    def test_stores_a_read_only_view_of_a(self):
        # the set caches a Schur factorization of a, so a must not change under it
        a, ids, b = random_hurwitz_system(4, 3, seed=1)
        cs = CandidateSet(a, ids, b)
        assert np.shares_memory(cs.a, a)
        with pytest.raises(ValueError):
            cs.a[0, 0] = 0.0
        assert a.flags.writeable

    def test_one_schur_factorization_per_set(self, monkeypatch):
        # the metric is an argument, so a sweep over metrics reuses the set's one factor
        calls = []
        schur = gramian.real_schur
        monkeypatch.setattr(gramian, "real_schur", lambda m: calls.append(m) or schur(m))
        cs = _candidate_set(2, n=5, m=4)
        metrics = (MetricSpec(), MetricSpec.weighted(np.diag([1.0, 2.0, 3.0, 4.0, 5.0])),
                   MetricSpec.h2(np.ones((2, 5))))
        for metric in metrics:
            ranked(cs, metric)
            select_top_k(cs, 2, metric)
            verify_modularity(cs, metric, trials=3)
            brute_force_best(cs, 2, metric)
        assert len(calls) == 1

    def test_input_matrix_stacks_columns(self):
        cs = _candidate_set(1, n=4, m=3)
        b = cs.input_matrix(cs.ids[:2])
        assert b.shape == (4, 2)
        assert np.array_equal(b[:, 0], cs.column(cs.ids[0]))

    def test_unknown_id(self):
        cs = _candidate_set(1, n=4, m=3)
        with pytest.raises(DomainError):
            cs.column("nope")

    def test_input_matrix_rejects_repeated_ids(self):
        cs = _candidate_set(1, n=4, m=3)
        with pytest.raises(DomainError, match=f"id {cs.ids[1]!r} is named more than once"):
            cs.input_matrix([cs.ids[1], cs.ids[0], cs.ids[1]])


class TestCandidateWeights:
    def test_diagonal_example(self):
        a = np.diag([-1.0, -2.0])
        cs = CandidateSet(a, ["x", "y"], np.eye(2))
        weights, order = ranked(cs)
        assert weights.tolist() == pytest.approx([0.5, 0.25], abs=1e-12)  # candidate order
        assert order.tolist() == [0, 1]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_matches_public_gramian_route(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        r = rng.normal(size=(n, n))
        c = rng.normal(size=(int(rng.integers(1, 4)), n))
        for metric in (MetricSpec(), MetricSpec.weighted(r @ r.T), MetricSpec.h2(c)):
            cs = _candidate_set(seed, n=n, m=int(rng.integers(1, 7)))
            weights = ranked(cs, metric)[0]
            for weight, col in zip(weights, cs.B.T):
                direct = evaluate_metric(metric, LyapunovSolver(cs.a).gramian(col[:, None]))
                assert weight == pytest.approx(direct, rel=1e-12)

    def test_wrong_adjoint_is_caught(self, skewed_adjoint):
        # the 1e-6 relative fault must be caught however small the columns are
        for scale in (1.0, 1e-3, 1e-5):
            cs = _scaled(_candidate_set(3, n=5, m=4), scale)
            with pytest.raises(NumericalError, match="additivity"):
                ranked(cs)
            with pytest.raises(NumericalError, match="additivity"):
                select_top_k(cs, 2)

    def test_misaligned_weights_are_caught(self, reversed_scores):
        # the reversed vector has the same plain sum; the d_j = j + 1 rule sees the swap
        cs = _candidate_set(3, n=5, m=4)
        with pytest.raises(NumericalError, match="additivity"):
            ranked(cs)
        with pytest.raises(NumericalError, match="additivity"):
            select_top_k(cs, 2)

    @pytest.mark.parametrize("first_two", [
        (0.0, math.nan), (0.0, math.inf), (0.0, -math.inf),  # NaN passes ">"; inf the scale
        (math.inf, -math.inf), (1e308, 6e307),  # fsum raises: inf - inf, a sum past the range
    ])
    def test_non_finite_weights_are_caught(self, monkeypatch, first_two):
        einsum = placement.np.einsum  # numpy's, for the whole package: spoil only the scoring

        def spoiled(subscripts, *args, **kw):
            scores = einsum(subscripts, *args, **kw)
            if subscripts == "ij,ij->j":
                scores[:2] = first_two
            return scores

        monkeypatch.setattr(placement.np, "einsum", spoiled)
        cs = _candidate_set(3, n=5, m=4)
        with pytest.raises(NumericalError, match="additivity"):
            ranked(cs)
        with pytest.raises(NumericalError, match="additivity"):
            select_top_k(cs, 2)

    @pytest.mark.parametrize("seed", [0, 1, 5, 8])
    def test_weights_of_the_wrong_sign_are_caught(self, seed, monkeypatch):
        # A = Q diag(-1e9, -3e8, -1e8, -5e-9) Q^T, whose adjoint solve would give the unit
        # inputs weights of the wrong sign, fails the Hurwitz rule under every metric
        q = np.linalg.qr(np.random.default_rng(seed).normal(size=(4, 4)))[0]
        cs = CandidateSet(q @ np.diag([-1e9, -3e8, -1e8, -5e-9]) @ q.T,
                          [f"e{i}" for i in range(4)], np.eye(4))
        for metric in (MetricSpec(), MetricSpec.h2(np.eye(4)), MetricSpec.weighted(np.eye(4))):
            with pytest.raises(StabilityError, match="rounding level"):
                ranked(cs, metric)

        # a solver that negates every solution, forward and adjoint, passes the additivity
        # check, so the sign check is what catches it
        class Negated(LyapunovSolver):
            def solve(self, q, adjoint=False):
                return -super().solve(q, adjoint)

        monkeypatch.setattr(placement, "LyapunovSolver", Negated)
        cs = CandidateSet(*random_hurwitz_system(5, 6, seed=seed))
        for metric in (MetricSpec(), MetricSpec.h2(np.eye(5))):
            with pytest.raises(NumericalError, match=r"weight of candidate 'b0' is -\d.*, "
                                                     r"below the rounding level -\d"):
                ranked(cs, metric)
        # an indefinite weighted_trace may score below zero, so it is not checked
        assert (ranked(cs, MetricSpec.weighted(np.eye(5)))[0] < 0.0).all()

    def test_an_overflowing_adjoint_fails_the_check(self):
        # P = C_bar / 0.2 overflows to inf, while the forward scores stay near 1e289
        cs = CandidateSet([[-0.1]], ["a", "c"], [[1e-10, 2e-10]])
        with pytest.raises(NumericalError, match="the Lyapunov solution overflows"):
            ranked(cs, MetricSpec.weighted([[4e307]]))

    def test_scores_that_cancel_to_rounding_noise_pass(self):
        # h2 output on a state no column reaches, in a rotated basis: every
        # score is zero up to rounding noise, on both sides of each check
        q = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))[0]
        a = q @ np.diag([-1.0, -2.0, -3.0]) @ q.T
        cs = CandidateSet(a, ["u", "v", "w"], q[:, :1] * [1.0, 2.0, -1.0])
        h2 = MetricSpec.h2(q[:, 1:2].T)
        assert np.abs(ranked(cs, h2)[0]).max() < 1e-15
        assert select_top_k(cs, 2, h2).k == 2
        assert verify_modularity(cs, h2, trials=20).passed

    def test_unstable_dynamics_rejected(self):
        cs = CandidateSet(np.diag([0.1, -1.0]), ["x"], [[1.0], [0.0]])
        with pytest.raises(StabilityError):
            ranked(cs)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6), scale=st.floats(0.1, 10.0))
    def test_column_scaling_is_quadratic(self, seed, scale):
        a, ids, b = random_hurwitz_system(4, 1, seed=seed)
        base = ranked(CandidateSet(a, ids, b))[0][0]
        scaled = ranked(CandidateSet(a, ids, scale * b))[0][0]
        assert abs(scaled - scale**2 * base) <= 1e-10 * max(1.0, abs(scaled))

    @pytest.mark.parametrize("n", [8, 40, 148])
    def test_blocks_score_bitwise_as_one_product(self, n):
        # a last block of one column would go through gemv, and a narrow block through
        # OpenBLAS's small-matrix kernel: both round differently from one product over B
        width = next(placement._blocks(n, 10**9)).stop
        for m in (width + 1, 2 * width + 1, 4 * 2**20 // n**2 + 1):
            cs = CandidateSet(random_hurwitz_system(n, 1, seed=n)[0], range(m),
                              np.random.default_rng(m).normal(size=(n, m)))
            p = cs.solver.solve(np.eye(n), adjoint=True)
            assert [c.stop - c.start for c in placement._blocks(n, m)][-1] > 1
            assert np.array_equal(ranked(cs)[0], np.einsum("ij,ij->j", cs.B, p @ cs.B))

    def test_order_invariance_bitwise(self):
        cs = _candidate_set(9, n=5, m=6)
        reversed_cs = CandidateSet(cs.a, cs.ids[::-1], cs.B[:, ::-1])
        assert np.array_equal(ranked(cs)[0], ranked(reversed_cs)[0][::-1])

    @pytest.mark.parametrize("k", [-12, -5, 5, 15, 30, -15, -30])
    def test_time_rescaling_keeps_the_weights_bitwise(self, k):
        # (4^k A, 2^k B) has the Gramian of (A, B), and powers of two round alike;
        # alpha is -0.1 * 4^k: about -9.3e-11 at k = -15 and -8.7e-20 at k = -30
        a, ids, b = random_hurwitz_system(40, 300, seed=0)
        base = ranked(CandidateSet(a, ids, b))[0]
        weights = ranked(CandidateSet(4.0**k * a, ids, 2.0**k * b))[0]
        assert weights.tobytes() == base.tobytes()


def _zero_padded_ids(m):
    return [("a", "b")[j % 2] + "\0" * (j // 2) for j in range(m)]


def _assert_tuple_sort_order(result, weights, k):
    """``result`` ranks the id -> weight mapping ``weights`` as a sort on (-weight, id)
    does, selects its first k and reports as ties the ids with the k-th weight when the
    (k+1)-th equals it."""
    order = sorted(weights.items(), key=lambda item: (-item[1], item[0]))
    assert [(result.ids[j], result.weights[j]) for j in result.order] == order
    assert result.selected == tuple(cid for cid, _ in order[:k])
    boundary = order[k - 1][1]
    tied = k < len(order) and order[k][1] == boundary
    assert result.ties == ((tuple(c for c, w in order if w == boundary),) if tied else ())


class TestSelectTopK:
    def test_diagonal_example(self):
        a = np.diag([-1.0, -2.0])
        cs = CandidateSet(a, ["x", "y"], np.eye(2))
        res = select_top_k(cs, 1)
        assert res.selected == ("x",)
        assert res.total_score == pytest.approx(0.5, abs=1e-12)
        assert res.ties == ()

    def test_identical_columns_tie_break_ascending_id(self):
        a = np.diag([-1.0, -2.0])
        cs = CandidateSet(a, ["b", "a", "c"], np.ones((2, 3)))  # identical columns
        res = select_top_k(cs, 2)
        assert res.selected == ("a", "b")
        assert res.ties == (("a", "b", "c"),)

    def test_no_tie_flag_when_boundary_clean(self):
        cs = _candidate_set(5, n=5, m=5)
        res = select_top_k(cs, 2)
        assert res.ties == ()

    def test_total_score_is_sum_of_selected(self):
        cs = _candidate_set(6, n=5, m=6)
        res = select_top_k(cs, 3)
        w = dict(zip(res.ids, res.weights.tolist()))
        assert res.total_score == pytest.approx(
            math.fsum(w[c] for c in res.selected), rel=1e-12
        )

    def test_k_out_of_range(self):
        cs = _candidate_set(6, n=4, m=3)
        for k in (0, 4, -1):
            with pytest.raises(DomainError):
                select_top_k(cs, k)

    def test_ranked_is_descending(self):
        cs = _candidate_set(8, n=6, m=7)
        res = select_top_k(cs, 2)
        scores = res.weights[res.order].tolist()
        assert scores == sorted(scores, reverse=True)

    @settings(max_examples=40, deadline=None)
    @given(picks=st.lists(st.integers(0, 3), min_size=2, max_size=40), data=st.data())
    def test_order_and_ties_match_a_tuple_sort(self, picks, data):
        # few distinct columns, one of them zero: many exact ties, some at 0.0, between
        # ids that differ only by trailing "\0"s (numpy's 'U' strings ignore those)
        ids = data.draw(st.permutations(_zero_padded_ids(len(picks))))
        rng = np.random.default_rng(len(picks))
        columns = np.column_stack([np.zeros(4), *rng.normal(size=(3, 4))])
        cs = CandidateSet(random_hurwitz_system(4, 1, seed=1)[0], ids, columns[:, picks])
        k = data.draw(st.integers(1, cs.size))
        _assert_tuple_sort_order(select_top_k(cs, k), dict(zip(cs.ids, ranked(cs)[0].tolist())),
                                 k)

    @settings(max_examples=60, deadline=None)
    @given(weights=st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 5e-324]), min_size=1,
                            max_size=30),
           data=st.data())
    def test_signed_zeros_rank_as_ties(self, weights, data):
        ids = data.draw(st.permutations(_zero_padded_ids(len(weights))))
        cs = CandidateSet(-np.eye(1), ids, np.ones((1, len(weights))))
        k = data.draw(st.integers(1, cs.size))
        with pytest.MonkeyPatch.context() as mp:  # the weights as given, unchecked
            mp.setattr(placement, "_weights_with_solver", lambda cs, metric: np.array(weights))
            mp.setattr(placement, "_check_additivity", lambda cs, metric, q, w: math.fsum(w))
            result = select_top_k(cs, k)
        _assert_tuple_sort_order(result, dict(zip(ids, weights)), k)

    def test_matches_exhaustive_oracle(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            cs = _candidate_set(seed, n=int(rng.integers(3, 7)),
                                m=int(rng.integers(3, 8)))
            k = int(rng.integers(1, cs.size + 1))
            res = select_top_k(cs, k)
            oracle_ids, oracle_val = exhaustive_best(cs, k)
            assert tuple(sorted(res.selected)) == oracle_ids
            assert res.total_score == pytest.approx(oracle_val, rel=1e-9)

    def test_weighted_and_h2_metrics(self):
        rng = np.random.default_rng(2)
        cbar = rng.normal(size=(5, 5))
        cbar = cbar @ cbar.T
        c = rng.normal(size=(2, 5))
        for metric in (MetricSpec.weighted(cbar), MetricSpec.h2(c)):
            cs = _candidate_set(13, n=5, m=6)
            res = select_top_k(cs, 2, metric)
            oracle_ids, oracle_val = exhaustive_best(cs, 2, metric)
            assert tuple(sorted(res.selected)) == oracle_ids
            assert res.total_score == pytest.approx(oracle_val, rel=1e-9)


# --- exact rational oracle ----------------------------------------------------
# A 6-state cyclic, non-normal A (a_ii = -3, a_i,i+1 = 1, a_i,i+2 = 1/2, indices mod 6)
# and its 15 links e_i - e_j.  Every entry of A, B and the weights is dyadic, so the
# float inputs equal the rational ones and exact_lyapunov gives the exact weights.

def _circulant(row):
    return np.array([[row[(j - i) % len(row)] for j in range(len(row))]
                     for i in range(len(row))], dtype=float)


def _cyclic_links():
    pairs = list(itertools.combinations(range(6), 2))
    b = np.zeros((6, len(pairs)))
    for c, (i, j) in enumerate(pairs):
        b[i, c], b[j, c] = 1.0, -1.0
    return CandidateSet(_circulant([-3, 1, 0.5, 0, 0, 0]), [f"e{i}-e{j}" for i, j in pairs], b)


def _exact_state_weighting(metric, n):
    """C_bar from the metric's weight in Fraction: I, (W + W^T) / 2 or C^T C."""
    if metric.kind == "trace":
        return [[int(i == j) for j in range(n)] for i in range(n)]
    w = [[Fraction(v) for v in row] for row in metric.weight.tolist()]
    if metric.kind == "h2":
        return [[sum(r[i] * r[j] for r in w) for j in range(n)] for i in range(n)]
    return [[(w[i][j] + w[j][i]) / 2 for j in range(n)] for i in range(n)]


# metric, the sizes of its exact weight classes (best first), and the bound in eps on
# |w_j - exact_j| / |exact_j|, about twice the largest error measured (7.5, 7.7, 16.6)
EXACT_METRICS = [
    (MetricSpec(), [3, 6, 6], 16),
    (MetricSpec.weighted(_circulant([2, 0.5, 0, -0.25, 0, 0])), [3, 6, 6], 16),
    (MetricSpec.h2([[1, 0.5, 0, -1, 0, 0.25], [0, 1, -0.5, 0, 2, 0]]), [1] * 15, 32),
]


def _exact_weights(cs, metric):
    p = adjoint_solution(cs.a.tolist(), _exact_state_weighting(metric, cs.n))
    return [quadratic_form(p, col) for col in cs.B.T.tolist()]


class TestExactOracle:
    @pytest.mark.parametrize("metric, sizes, bound", EXACT_METRICS,
                             ids=[m.kind for m, _, _ in EXACT_METRICS])
    def test_weights_and_selections_match_exact_arithmetic(self, metric, sizes, bound):
        # ties is checked by test_ties_are_the_exact_classes
        cs = _cyclic_links()
        exact = _exact_weights(cs, metric)
        best_first = sorted(exact, reverse=True)
        assert [exact.count(w) for w in dict.fromkeys(best_first)] == sizes
        weights = ranked(cs, metric)[0].tolist()
        eps = Fraction(np.finfo(float).eps)
        assert max(abs(Fraction(w) - e) / abs(e) for w, e in zip(weights, exact)) <= bound * eps
        for k in range(1, cs.size + 1):
            selected = select_top_k(cs, k, metric).selected
            assert sum(exact[cs.ids.index(cid)] for cid in selected) == sum(best_first[:k])

    @pytest.mark.parametrize("metric", [
        m if m.kind == "h2" else pytest.param(m, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 2: rounding splits the exact classes of 3 "
                                "and 6 equal weights, so ties misses them"))
        for m, _, _ in EXACT_METRICS], ids=[m.kind for m, _, _ in EXACT_METRICS])
    def test_ties_are_the_exact_classes(self, metric):
        # ties holds the exact class that straddles the cut after the k-th pick, or nothing
        # when the cut falls between two classes (h2's 15 weights are all distinct)
        cs = _cyclic_links()
        exact = _exact_weights(cs, metric)
        best_first = sorted(exact, reverse=True)
        wrong = []
        for k in range(1, cs.size):
            boundary = best_first[k - 1]
            tied = [cid for cid, w in zip(cs.ids, exact) if w == boundary]
            expected = [sorted(tied)] if best_first[k] == boundary else []
            if [sorted(group) for group in select_top_k(cs, k, metric).ties] != expected:
                wrong.append(k)
        assert wrong == []


class TestBruteForce:
    def test_agrees_with_select_on_modular_metric(self):
        cs = _candidate_set(21, n=5, m=6)
        ids, val = brute_force_best(cs, 2)
        res = select_top_k(cs, 2)
        assert ids == tuple(sorted(res.selected))
        assert val == pytest.approx(res.total_score, rel=1e-9)

    def test_cap_refusal_reports_count(self):
        cs = _candidate_set(1, n=4, m=6)
        with pytest.raises(EnumerationCapError) as err:
            brute_force_best(cs, 3, cap=10)
        assert str(err.value) == ("refusing exhaustive search over C(6, 3) = 20 (2.000e+01) "
                                  "subsets; cap is 10")

    @pytest.mark.parametrize("cap, message", [
        (-1, "cap must be >= 0, got -1"),
        (True, "cap must be a number, got True"),
        (2.5, "cap must be a finite integer, got 2.5"),
    ])
    def test_cap_is_validated_like_every_count(self, cap, message):
        cs = _candidate_set(1, n=4, m=6)
        with pytest.raises(DomainError, match=f"^{message}$"):
            brute_force_best(cs, 1, cap=cap)
        assert brute_force_best(cs, 1, cap=6.0) == brute_force_best(cs, 1)

    def test_min_eig_functional_differs_from_modular(self):
        # one orthogonal weak column beats a duplicate of the strongest:
        # min_eig is not modular, so sorting weights would get this wrong
        a = np.diag([-1.0, -2.0])
        cs = CandidateSet(a, ["s1", "s2", "w"], [[2.0, 2.0, 0.0],
                                                 [0.0, 0.0, 1.0]])
        ids_trace, val_trace = brute_force_best(cs, 2)
        assert ids_trace == ("s1", "s2")
        assert val_trace == pytest.approx(4.0, abs=1e-12)
        ids_robust, val_robust = brute_force_best(cs, 2, functional="min_eig")
        assert "w" in ids_robust
        assert val_robust == pytest.approx(0.25, abs=1e-12)

    def test_log_det_functional_runs(self):
        cs = _candidate_set(30, n=4, m=5)
        ids, val = brute_force_best(cs, 4, functional="log_det")
        assert len(ids) == 4
        assert math.isfinite(val) or val == -math.inf

    def test_log_det_when_every_subset_is_singular(self):
        # every single column leaves one state unreachable: all values are -inf
        cs = CandidateSet(np.diag([-1.0, -2.0]), ["b", "a"], np.eye(2))
        assert brute_force_best(cs, 1, functional="log_det") == (("a",), -math.inf)

    def test_unknown_functional(self):
        # only names are accepted: an unknown one, a callable, a non-string
        cs = _candidate_set(30, n=4, m=5)
        for functional in ("h_infinity", np.trace, 3):
            with pytest.raises(DomainError, match=r"\['log_det', 'metric', 'min_eig'\]"):
                brute_force_best(cs, 2, functional=functional)

    def test_lexicographic_tie_break(self):
        a = np.diag([-1.0, -2.0])
        cs = CandidateSet(a, ["c", "a", "b"], np.ones((2, 3)))  # identical columns
        ids, _ = brute_force_best(cs, 2)
        assert ids == ("a", "b")


class TestVerifyModularity:
    def test_trace_metric_tight(self):
        cs = _candidate_set(3, n=6, m=8)
        report = verify_modularity(cs, trials=100, seed=0)
        assert report.passed
        assert report.max_violation <= 1e-8
        assert report.trials == 100

    def test_weighted_and_h2(self):
        rng = np.random.default_rng(7)
        cbar = rng.normal(size=(5, 5))
        c = rng.normal(size=(3, 5))
        for metric in (MetricSpec.weighted(cbar @ cbar.T), MetricSpec.h2(c)):
            cs = _candidate_set(11, n=5, m=6)
            assert verify_modularity(cs, metric, trials=60, seed=1).passed

    @pytest.mark.parametrize("scale", [1.0, 1e-5])
    def test_non_additive_metric_fails(self, monkeypatch, scale):
        # planted: f(W) = metric(W) ** 1.001 is not additive at any scale
        score = placement.evaluate_metric
        monkeypatch.setattr(placement, "evaluate_metric", lambda spec, w: score(spec, w) ** 1.001)
        report = verify_modularity(_scaled(_candidate_set(3, n=6, m=8), scale), trials=20)
        assert not report.passed

    def test_seed_reproducible(self):
        cs = _candidate_set(3, n=5, m=6)
        r1 = verify_modularity(cs, trials=25, seed=42)
        r2 = verify_modularity(cs, trials=25, seed=42)
        assert r1.max_violation == r2.max_violation
        assert r1.worst_pair == r2.worst_pair

    def test_trials_validated(self):
        cs = _candidate_set(3, n=4, m=4)
        with pytest.raises(DomainError):
            verify_modularity(cs, trials=0)

    def test_sums_past_the_float_range_are_scored(self, monkeypatch):
        # p scores 1.5125e308, so f(A) + f(B) overflows in each trial whose A and B both
        # hold p; with every term halved first, all 20 violations are finite and scored
        cs = CandidateSet([[-0.1]], ["p", "q"], [[5.5e153, 1.0]])
        rng = np.random.default_rng(0)  # verify_modularity's draws: five trials hold p twice
        draws = [(rng.random(2) < 0.5, rng.random(2) < 0.5) for _ in range(20)]
        assert sum(in_a[0] and in_b[0] for in_a, in_b in draws) == 5
        violations, check = [], placement.finite

        def finite(x, message):
            if "modularity" in message:
                violations.append(x)
            return check(x, message)

        monkeypatch.setattr(placement, "finite", finite)
        report = verify_modularity(cs, trials=20)
        assert len(violations) == 20 and np.isfinite(violations).all()
        assert (report.max_violation, report.worst_pair) == (3.305785123966942e-308,
                                                             (("q",), ("p", "q")))
        assert report.passed

    @staticmethod
    def _full_width_reference(cs, metric, trials, seed):
        """verify_modularity's (max_violation, worst_pair) with every subset's Gramian
        from its full (n, |S|) input matrix, on the same rng draws."""
        rng = np.random.default_rng(seed)
        ids = np.array(cs.ids, dtype=object)
        cbar = np.abs(metric.state_weighting(cs.n))

        def score(mask):
            g = cs.solver.gramian(cs.input_matrix(ids[mask]))
            return evaluate_metric(metric, g), float(np.vdot(cbar, np.abs(g)))

        worst, pair = 0.0, ((), ())
        for _ in range(trials):
            in_a, in_b = rng.random(cs.size) < 0.5, rng.random(cs.size) < 0.5
            (f_a, m_a), (f_b, m_b) = score(in_a), score(in_b)
            (f_u, m_u), (f_i, m_i) = score(in_a | in_b), score(in_a & in_b)
            scale = max(m_a + m_b, m_u + m_i)
            violation = abs(f_a + f_b - f_u - f_i) / scale if scale > 0.0 else 0.0
            if violation > worst:
                worst, pair = violation, (tuple(ids[in_a]), tuple(ids[in_b]))
        return worst, pair

    @staticmethod
    def _explicit(spoil):
        a, ids, b = random_hurwitz_system(6, 7, seed=5)
        b = b.copy()
        if spoil == "untouched state":  # and a state that only the last column touches
            b[2] = 0.0
            b[4, :-1] = 0.0
        elif spoil == "zero column":
            b[:, 3] = 0.0
        return CandidateSet(a, ids, b)

    @pytest.mark.parametrize("case", ["ring6", "untouched state", "zero column",
                                      "one candidate", "weighted", "h2"])
    def test_report_equals_the_full_width_gramians(self, case):
        # the columns are stacked once on the states they touch; each subset's scores
        # must still be bitwise those of its full input matrix
        rng = np.random.default_rng(9)
        metric = MetricSpec()
        if case == "ring6":
            grid = ring_grid(6)
            cs = CandidateSet(build_swing_matrix(grid), *hvdc_candidates(grid))
        elif case == "one candidate":
            a, ids, b = random_hurwitz_system(5, 1, seed=2)
            cs = CandidateSet(a, ids, b)
        else:
            cs = self._explicit(case)
            if case == "weighted":
                metric = MetricSpec.weighted(rng.normal(size=(cs.n, cs.n)))
            elif case == "h2":
                metric = MetricSpec.h2(rng.normal(size=(2, cs.n)))
        report = verify_modularity(cs, metric, trials=20, seed=4)
        worst, pair = self._full_width_reference(cs, metric, trials=20, seed=4)
        assert (report.max_violation, report.worst_pair) == (worst, pair)
        assert report.passed == (worst <= report.tolerance) and report.passed
        if case != "one candidate":  # else every pair has A u B = A or B: no rounding
            assert worst > 0.0

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_explicit_subset_pairs(self, seed):
        # hand-rolled check of the identity on a fixed split, no shared code
        cs = _candidate_set(seed % 50, n=5, m=6)

        def f(ids):
            if not ids:
                return 0.0
            b = cs.input_matrix(ids)
            return evaluate_metric(MetricSpec(), LyapunovSolver(cs.a).gramian(b))

        ids = list(cs.ids)
        half = len(ids) // 2
        sub_a, sub_b = ids[: half + 1], ids[half:]
        union = sorted(set(sub_a) | set(sub_b))
        inter = sorted(set(sub_a) & set(sub_b))
        gap = abs(f(sub_a) + f(sub_b) - f(union) - f(inter))
        assert gap <= 1e-8 * max(1.0, abs(f(sub_a)) + abs(f(sub_b)))


class TestCentrality:
    def test_diagonal_example(self):
        scores = controllability_centrality(np.diag([-1.0, -2.0]))
        assert np.allclose(scores, [0.5, 0.25], atol=1e-12)

    def test_sum_identity(self):
        for seed in range(5):
            a = random_hurwitz_system(6, 1, seed=seed)[0]
            scores = controllability_centrality(a)
            total_gramian = LyapunovSolver(a).gramian(np.eye(6))
            assert math.fsum(scores.tolist()) == pytest.approx(
                np.trace(total_gramian), rel=1e-9
            )

    def test_positive_for_stable_systems(self):
        a = random_hurwitz_system(8, 1, seed=3)[0]
        assert np.all(controllability_centrality(a) > 0)

    def test_requires_hurwitz(self):
        with pytest.raises(StabilityError):
            controllability_centrality(np.diag([0.0, -1.0]))

    def test_forward_for_adjoint_is_caught(self, forward_for_adjoint):
        # the plain sum of P_ii cannot see this fault: tr P = tr W for q = I
        a = random_hurwitz_system(7, 1, seed=2)[0]
        with pytest.raises(NumericalError, match="additivity"):
            controllability_centrality(a)

    def test_bitwise_equal_to_the_adjoint_diagonal(self):
        # scoring the unit inputs as candidates moves no bit of diag(P)
        for a in (build_swing_matrix(ring_grid(6)), random_hurwitz_system(8, 5)[0]):
            n = a.shape[0]
            p = LyapunovSolver(a).solve(np.eye(n), adjoint=True)
            assert np.array_equal(controllability_centrality(a), np.diag(p))

    def test_matches_per_node_forward_solves(self):
        # oracle: one forward solve per node with q = e_i e_i^T
        for seed in range(5):
            a = random_hurwitz_system(7, 1, seed=seed)[0]
            solver = LyapunovSolver(a)
            oracle = [np.trace(solver.solve(np.outer(e, e))) for e in np.eye(7)]
            assert np.allclose(controllability_centrality(a), oracle, rtol=1e-12, atol=0)
