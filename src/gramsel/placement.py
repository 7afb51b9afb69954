"""Actuator placement over a finite candidate set.

Each candidate contributes an input column b_s, and every supported
ranking metric is linear in the Gramian.  Because the combined Gramian of
a subset is the sum of per-candidate Gramians,

    W_S = sum_{s in S} W_s,

the subset score f(S) = sum_{s in S} w(s) is modular: the exact optimal
k-subset is obtained by sorting the per-candidate weights w(s), no
combinatorial search required.  ``brute_force_best`` exists to
cross-check that claim on small instances and to handle deliberately
non-modular functionals (smallest eigenvalue, log-determinant), and
``verify_modularity`` spot-checks the defining identity on random subset
pairs.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, EnumerationCapError, NumericalError
from .gramian import LyapunovSolver
from .metrics import MetricSpec, evaluate_metric
from .numerics import as_array, as_number, as_square, finite, outer_sum, scaled

__all__ = [
    "CandidateSet",
    "PlacementResult",
    "ModularityReport",
    "ranked",
    "select_top_k",
    "brute_force_best",
    "verify_modularity",
    "controllability_centrality",
    "GRAMIAN_FUNCTIONALS",
]

# Relative agreement demanded between a sum of weights and the score of
# the combined Gramian when the adjoint weights are cross-checked.
_ADDITIVITY_RTOL = 1e-9

# Largest relative modularity violation verify_modularity accepts.
_MODULARITY_RTOL = 1e-8


class CandidateSet:
    """A dynamics matrix plus labelled candidate input columns.

    ``b`` is the (n, M) input matrix whose j-th column belongs to
    ``ids[j]``; ids must be unique.  The set keeps ``a`` and ``b`` as the
    read-only views ``a`` and ``B``: float64 input is not copied, so the
    set shares its memory and the caller must not change ``a`` or ``b``.
    """

    def __init__(self, a, ids, b):
        self.a = as_square(a, "a").view()
        self.a.flags.writeable = False
        self.ids = tuple(map(str, ids))
        if not self.ids:
            raise DomainError("candidate set is empty")
        self._index = {}
        for j, cid in enumerate(self.ids):
            if self._index.setdefault(cid, j) != j:
                raise DomainError(f"duplicate candidate id {cid!r}")
        self.B = as_array(b, (self.n, self.size), "b").view()
        self.B.flags.writeable = False

    @property
    def n(self):
        return self.a.shape[0]

    @functools.cached_property
    def solver(self):
        """``LyapunovSolver(a)``, built on first use and shared by every metric scored.

        The one refusal made before A is factored: with r the row norms of B,
        |sum_{j in S} b_ij b_kj| <= r_i r_k for every subset S, so one ``outer_sum`` of r
        refuses all columns whose plain sum overflows.  The additivity check's
        d-weighted sum can overflow still, and fails after factoring."""
        with np.errstate(over="ignore"):  # an overflowing square makes r r^T infinite
            r = np.sqrt(np.einsum("ij,ij->i", self.B, self.B))
        outer_sum([r[:, None]])
        return LyapunovSolver(self.a)

    @property
    def size(self):
        return len(self.ids)

    @property
    def candidates(self):
        """The ``(id, column)`` pairs in candidate order."""
        return tuple(zip(self.ids, self.B.T))

    def column(self, cid):
        j = self._index.get(cid)
        if j is None:
            raise DomainError(f"unknown candidate id {cid!r}")
        return self.B[:, j]

    def input_matrix(self, ids):
        """Stack the columns of the given distinct ids into an (n, |ids|) matrix."""
        seen = set()
        repeated = [c for c in ids if c in seen or seen.add(c)]
        if repeated:
            raise DomainError(f"candidate id {repeated[0]!r} is named more than once")
        cols = [self.column(c) for c in ids]
        return np.array(cols).T if cols else np.zeros((self.n, 0))


@dataclass(frozen=True, eq=False)
class PlacementResult:
    """Outcome of an exact top-k selection.

    ``weights`` are the weights of the candidates ``ids``, and ``order`` their
    indices best first (see :func:`ranked`).  ``ties`` holds the id groups whose
    equal weights straddle the selection boundary (empty when the cut is
    unambiguous).
    """

    ids: tuple
    weights: np.ndarray
    order: np.ndarray
    selected: tuple
    total_score: float
    ties: tuple = ()

    @property
    def k(self):
        return len(self.selected)


def _blocks(n, m):
    """Slices over m columns, 256 * ceil(2**20 / (256 n^2)) wide but the last, which takes
    the remainder.  P @ block then costs >= 2**20 multiply-adds and runs on the BLAS kernel
    of one product over all of B, so blocked scores equal unblocked ones bitwise (OpenBLAS
    has other kernels for single columns and for products under about 10**6)."""
    width = 256 * -(-2**20 // (n * n * 256))
    starts = range(0, max(m - width + 1, 1), width)
    return map(slice, starts, [*starts[1:], m])


def _weights_with_solver(cs, metric):
    """The candidate weights b_j^T P b_j as one float64 array in candidate order."""
    p = cs.solver.solve(metric.state_weighting(cs.n), adjoint=True)
    weights = np.empty(cs.size)
    for cols in _blocks(cs.n, cs.size):
        weights[cols] = np.einsum("ij,ij->j", cs.B[:, cols], p @ cs.B[:, cols])
    _check_additivity(cs, metric, cs.B, weights)
    if metric.kind != "weighted_trace":  # C_bar = I or C^T C is positive semidefinite
        _check_signs(cs, metric, p, weights)
    return weights


def _check_signs(cs, metric, p, weights):
    """A NumericalError naming the first candidate whose weight is below
    -n eps ||P||_F ||b_j||^2, the rounding level of b_j^T P b_j.  With C_bar positive
    semidefinite so is the true P, so such a weight means the solve is not accurate,
    even though A passed the Hurwitz rule and the weights passed the additivity check."""
    low = np.flatnonzero(weights < 0.0)
    b = cs.B[:, low]
    ps, k = scaled(p)
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite bound flags nothing
        bound = cs.n * np.finfo(float).eps * np.ldexp(np.linalg.norm(ps), k) * (b * b).sum(axis=0)
    bad = np.flatnonzero(weights[low] < -bound)
    if bad.size:
        j = low[bad[0]]
        raise NumericalError(
            f"{metric.describe()} weight of candidate {cs.ids[j]!r} is {weights[j]:.6e}, "
            f"below the rounding level -{bound[bad[0]]:.1e} of a positive semidefinite "
            "metric: the Lyapunov solve is inaccurate, so A may be too stiff to score")


def _subset_score(cs, metric, g):
    """``(metric(g), vdot(|C_bar|, |g|))`` for a forward Gramian ``g``.  The magnitude
    bounds |metric(g)|, so a NumericalError when it is not finite guards both.  It
    scales as the score does but stays above rounding noise when terms cancel."""
    magnitude = float(np.vdot(np.abs(metric.state_weighting(cs.n)), np.abs(g)))
    finite(magnitude, f"{metric.describe()} score overflows: its magnitude "
                      f"vdot(|C_bar|, |W|) is {magnitude}")
    return evaluate_metric(metric, g), magnitude


def _check_additivity(cs, metric, b, weights):
    """Check the weights of the columns b by one forward solve; return fsum(weights).

    fsum(d_j w_j), d_j = j + 1, must match the metric of the forward Gramian of
    b diag(sqrt(d)), whose right side b diag(d) b^T is summed over column blocks, to
    _ADDITIVITY_RTOL relative to max(fsum(d_j |w_j|), that score's magnitude).  Unlike
    a plain sum, this catches weights paired with the wrong columns, and a transposed
    solve when b = C_bar = I.  A NaN or infinite weight fails: the magnitude is finite,
    so the scale is too.
    """
    d = np.arange(1.0, b.shape[1] + 1.0)
    q = outer_sum(b[:, c] * np.sqrt(d[c]) for c in _blocks(*b.shape))
    combined, magnitude = _subset_score(cs, metric, cs.solver.solve(q))
    dw = d * weights
    try:  # fsum raises on a sum past the float range and on inf - inf
        expected, scale = math.fsum(dw), max(math.fsum(np.abs(dw)), magnitude)
    except (OverflowError, ValueError):
        expected = scale = math.nan
    if not abs(combined - expected) <= _ADDITIVITY_RTOL * scale < math.inf:
        raise NumericalError(f"additivity cross-check failed: weighted sum of weights "
                             f"{expected!r} vs combined-gramian score {combined!r}")
    return math.fsum(weights)


def _subset_size(cs, k):
    return as_number(k, "k", 1, cs.size, integer=True)


def ranked(cs, metric=MetricSpec()):
    """``(weights, order)``: the candidate weights as one array, and the candidate
    indices best first, ties broken by ascending id in Python's str order (numpy's
    'U' strings would ignore a trailing "\\0")."""
    weights = _weights_with_solver(cs, metric)
    return weights, np.lexsort((np.array(cs.ids, dtype=object), -weights))


def select_top_k(cs, k, metric=MetricSpec()):
    """Exact best k-subset under a modular metric, by sorting weights.

    Candidates are ordered by descending weight with ties broken by
    ascending id (:func:`ranked`), and the top k are taken.  The reported
    ``total_score`` is the sum of the selected weights; it is cross-checked
    against the metric of the combined-input Gramian before returning.
    """
    k = _subset_size(cs, k)
    weights, order = ranked(cs, metric)
    top = order[:k]
    selected = tuple(map(cs.ids.__getitem__, top.tolist()))
    total = _check_additivity(cs, metric, cs.input_matrix(selected), weights[top])

    ties = ()
    boundary = weights[top[-1]]
    if k < cs.size and weights[order[k]] == boundary:
        ties = (tuple(map(cs.ids.__getitem__, order[weights[order] == boundary].tolist())),)
    return PlacementResult(cs.ids, weights, order, selected, total, ties)


def _min_eigenvalue(w):
    return float(np.linalg.eigvalsh(w)[0])


def _log_det(w):
    sign, logdet = np.linalg.slogdet(w)
    return float(logdet) if sign > 0 else -math.inf


# Non-modular functionals admissible in brute_force_best (and only there:
# sorting per-candidate weights is not exact for these).
GRAMIAN_FUNCTIONALS = {"min_eig": _min_eigenvalue, "log_det": _log_det}


def brute_force_best(cs, k, metric=MetricSpec(), functional="metric", cap=1_000_000):
    """Exhaustive search over all C(M, k) subsets.

    ``functional`` scores each combined Gramian: ``"metric"``, the default,
    is the modular ``metric``, which makes this an independent oracle for
    :func:`select_top_k`; any other name is a non-modular functional from
    :data:`GRAMIAN_FUNCTIONALS`.

    Refuses to run when C(M, k) exceeds ``cap`` (EnumerationCapError),
    reporting the exact subset count.  Ties are resolved in favour of the
    lexicographically smallest id-set.

    Returns ``(ids, value)`` with ``ids`` sorted ascending.
    """
    k = _subset_size(cs, k)
    cap = as_number(cap, "cap", 0, integer=True)
    count = math.comb(cs.size, k)
    if count > cap:
        raise EnumerationCapError(f"refusing exhaustive search over C({cs.size}, {k}) "
                                  f"= {count} ({count:.3e}) subsets; cap is {cap}")
    named = {"metric": lambda w: evaluate_metric(metric, w), **GRAMIAN_FUNCTIONALS}
    score = named.get(functional) if isinstance(functional, str) else None
    if score is None:
        raise DomainError(f"unknown functional {functional!r}; expected one of {sorted(named)}")

    # combinations of sorted ids come in lexicographic order, and max keeps the first maximizer
    value, ids = max(((score(cs.solver.gramian(cs.input_matrix(combo))), combo)
                      for combo in itertools.combinations(sorted(cs.ids), k)),
                     key=lambda pair: pair[0])
    return ids, value


@dataclass(frozen=True)
class ModularityReport:
    """Result of empirically testing f(A) + f(B) = f(A u B) + f(A n B)."""

    trials: int
    max_violation: float  # max over trials of |gap| / scale, see verify_modularity
    tolerance: float
    worst_pair: tuple = ()  # (ids_A, ids_B) achieving max_violation

    @property
    def passed(self):
        return self.max_violation <= self.tolerance


def verify_modularity(cs, metric=MetricSpec(), trials=100, seed=0):
    """Check the modular identity on random subset pairs.

    Each trial draws two subsets A, B by including every candidate
    independently with probability 1/2 (seeded), computes all four subset
    scores from scratch via combined-input Gramians, and records the
    violation |f(A)+f(B)-f(AuB)-f(AnB)| / max(m(A)+m(B), m(AuB)+m(AnB)),
    m the magnitude of :func:`_subset_score` (= f under the trace metric), or 0
    if all four m are 0.  Each term is halved, exactly, before it is summed, so no two
    finite scores overflow their sum and the ratio is the unhalved one wherever no term
    is subnormal; a violation still not finite is a NumericalError, never a skipped trial.
    The check passes when no violation exceeds _MODULARITY_RTOL.

    The candidate columns are stacked once, cut to the states that some column
    touches.  Each subset's right side b b^T is still formed from its own columns,
    on those states only: the rest of b is zero and adds exact zeros, so every
    b b^T, and so every score, is the one the subset's full (n, |S|) input matrix
    gives, bit for bit (tests compare the two).
    """
    trials = as_number(trials, "trials", 1, integer=True)
    rng = np.random.default_rng(as_number(seed, "seed", 0, integer=True))
    ids = np.array(cs.ids, dtype=object)
    touched = np.flatnonzero(cs.B.any(axis=1))
    rows = np.empty((cs.size, touched.size))  # row j: column j on the touched states
    # Stacked through cs.input_matrix, not as cs.B[touched].T, because the benchmark's
    # span contract expects CandidateSet.input_matrix and .column on every verify.
    for cols in _blocks(cs.n, cs.size):
        rows[cols] = cs.input_matrix(cs.ids[cols])[touched].T

    def score(mask):
        q = np.zeros((cs.n, cs.n))
        q[np.ix_(touched, touched)] = outer_sum([rows[mask].T])
        return _subset_score(cs, metric, cs.solver.solve(q))

    worst, worst_pair = 0.0, ((), ())
    for _ in range(trials):
        in_a = rng.random(cs.size) < 0.5
        in_b = rng.random(cs.size) < 0.5
        (f_a, m_a), (f_b, m_b) = score(in_a), score(in_b)
        (f_union, m_union), (f_inter, m_inter) = score(in_a | in_b), score(in_a & in_b)
        gap = abs(f_a / 2 + f_b / 2 - f_union / 2 - f_inter / 2)
        scale = max(m_a / 2 + m_b / 2, m_union / 2 + m_inter / 2)
        violation = gap / scale if scale > 0.0 else 0.0
        finite(violation, f"{metric.describe()} modularity gap f(A)+f(B)-f(AuB)-f(AnB) overflows")
        if violation > worst:
            worst = violation
            worst_pair = (tuple(ids[in_a]), tuple(ids[in_b]))
    return ModularityReport(
        trials=trials, max_violation=worst, tolerance=_MODULARITY_RTOL, worst_pair=worst_pair
    )


def controllability_centrality(a):
    """Average-energy controllability centrality of every state node.

    Node i scores trace(W_i) where W_i solves A W + W A^T + e_i e_i^T = 0:
    the total state variance excited by white noise injected at node i
    alone.  The unit inputs e_i are a candidate set like any other: the
    scores are their :func:`ranked` weights under the trace metric, P_ii
    from one adjoint solve, returned as an array indexed by node.
    """
    n = as_square(a, "a").shape[0]
    return _weights_with_solver(CandidateSet(a, range(n), np.eye(n)), MetricSpec())
