"""Correctness gate for CLI payloads, run outside the timed region.

Every ranking score is ``tr(Cbar W_s)`` with ``A W_s + W_s A^T + b_s b_s^T = 0``.
The oracle checks each reported score against ``b_s^T P b_s``, where
``A^T P + P A + Cbar = 0`` comes from one call of
``scipy.linalg.solve_continuous_lyapunov``, and a few sampled scores
against a direct scipy solve for ``W_s``.  Centrality node ``i`` is
``tr(W_i)`` for input ``e_i``, which is ``P[i, i]`` with ``Cbar = I``.
Each check returns a list of problems; an empty list means the payload
is correct.

The oracle reads the problem file itself (:func:`read_problem`) and never
goes through gramsel's loader, so a wrong ``A`` or a wrong candidate
column from the program's load layer shows as wrong scores.
"""

import json
import math

import numpy as np
import scipy.linalg

RTOL = 1e-9
FORWARD_SAMPLES = 4


def read_problem(path):
    """``(a, ids, columns)`` of a problem file, read without gramsel."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if "grid" not in doc:
        cands = doc["candidates"]
        columns = np.array([c["b"] for c in cands], dtype=float).T
        return np.array(doc["A"], dtype=float), [str(c["id"]) for c in cands], columns
    grid = doc["grid"]  # `gramsel gen --ring` writes every field
    if grid.get("topology") != "ring" or grid["chords"] != 0:
        raise ValueError(f"the oracle builds chord-free rings only, got {doc['grid']!r}")
    return ring_system(grid["buses"], grid["inertia"], grid["damping"], grid["susceptance"],
                       grid["grounding"])


def ring_system(buses, inertia, damping, susceptance, grounding):
    """Swing matrix and HVDC columns of a uniform ring of ``buses`` buses.

    States interleave (angle, frequency) per bus.  With the ring's
    Laplacian L, the frequency rows are ``-(susceptance L + grounding I) /
    inertia`` on the angles and ``-damping / inertia`` on the frequencies.
    The link between buses i < j injects ``+1/inertia`` at bus i's
    frequency and ``-1/inertia`` at bus j's.
    """
    adj = np.zeros((buses, buses))
    for i in range(buses):
        j = (i + 1) % buses
        adj[i, j] = adj[j, i] = 1.0
    lap = np.diag(adj.sum(axis=1)) - adj
    ang, frq = np.arange(0, 2 * buses, 2), np.arange(1, 2 * buses, 2)
    a = np.zeros((2 * buses, 2 * buses))
    a[ang, frq] = 1.0
    a[np.ix_(frq, ang)] = -(susceptance * lap + grounding * np.eye(buses)) / inertia
    a[frq, frq] = -damping / inertia
    width = len(str(buses - 1))
    pairs = [(i, j) for i in range(buses) for j in range(i + 1, buses)]
    columns = np.zeros((2 * buses, len(pairs)))
    for m, (i, j) in enumerate(pairs):
        columns[frq[i], m] = 1.0 / inertia
        columns[frq[j], m] = -1.0 / inertia
    ids = [f"bus{i:0{width}d}-bus{j:0{width}d}" for i, j in pairs]
    return a, ids, columns


def _close(got, want):
    return abs(got - want) <= RTOL * abs(want)


class Oracle:
    """Reference scores for one problem: dynamics ``a``, candidate ids and columns."""

    def __init__(self, a, ids, columns, seed):
        self.a = np.asarray(a, dtype=float)
        self.ids = tuple(ids)
        self.columns = columns  # (n, M), one column per id
        self.index = {cid: i for i, cid in enumerate(self.ids)}
        self.rng = np.random.default_rng(seed)

    def adjoint(self, cbar):
        return scipy.linalg.solve_continuous_lyapunov(self.a.T, -cbar)

    def scores(self, cbar):
        """Every candidate's score from one adjoint solve."""
        return np.einsum("im,im->m", self.columns, self.adjoint(cbar) @ self.columns)

    def forward(self, b, cbar):
        w = scipy.linalg.solve_continuous_lyapunov(self.a, -np.outer(b, b))
        return float(np.sum(cbar * w))

    def check_ranked(self, rows, cbar):
        """Every id once, sorted by score, each score equal to the oracle's."""
        problems = []
        ids = [row["id"] for row in rows]
        scores = [row["score"] for row in rows]
        if len(ids) != len(self.ids) or set(ids) != set(self.ids):
            problems.append(f"{len(ids)} ranked ids, {len(set(ids))} distinct; "
                            f"expected each of {len(self.ids)} once")
            return problems
        # Within RTOL, so that equal scores may come in any order (tie classes).
        if any(b - a > RTOL * abs(a) for a, b in zip(scores, scores[1:])):
            problems.append("ranked rows are not sorted by descending score")
        want = self.scores(cbar)
        bad = [cid for cid, s in zip(ids, scores) if not _close(s, want[self.index[cid]])]
        if bad:
            problems.append(f"{len(bad)} scores differ from the adjoint oracle, e.g. {bad[0]}")
        by_id = dict(zip(ids, scores))
        for cid in self.rng.choice(self.ids, size=min(FORWARD_SAMPLES, len(ids)), replace=False):
            ref = self.forward(self.columns[:, self.index[cid]], cbar)
            if not _close(by_id[cid], ref):
                problems.append(f"score of {cid} is {by_id[cid]!r}, forward oracle {ref!r}")
        return problems

    def check_selected(self, results, k, cbar):
        """Selected scores equal the k best oracle scores, compared by value."""
        problems = self.check_ranked(results["ranked"], cbar)
        if problems:
            return problems
        scores = {row["id"]: row["score"] for row in results["ranked"]}
        selected = results["selected"]
        if len(selected) != k or len(set(selected)) != k:
            return [f"selected {len(selected)} ids, expected {k} distinct"]
        flagged = [row["id"] for row in results["ranked"] if row["selected"]]
        if sorted(flagged) != sorted(selected):
            problems.append("ranked rows flag a different set than 'selected'")
        best = np.sort(self.scores(cbar))[::-1][:k]
        got = sorted((scores[cid] for cid in selected), reverse=True)
        if not all(_close(g, w) for g, w in zip(got, best)):
            problems.append("selected scores are not the k best oracle scores")
        if not _close(results["total_score"], math.fsum(best)):
            problems.append(f"total_score {results['total_score']!r} vs oracle "
                            f"{math.fsum(best)!r}")
        return problems

    def check_centrality(self, results):
        """Node scores and their sum against the diagonal of the adjoint P."""
        n = self.a.shape[0]
        want = np.diag(self.adjoint(np.eye(n)))
        got = [row["score"] for row in results["nodes"]]
        if len(got) != n:
            return [f"{len(got)} node scores, expected {n}"]
        problems = []
        bad = [i for i in range(n) if not _close(got[i], want[i])]
        if bad:
            problems.append(f"{len(bad)} node scores differ from the oracle, e.g. node {bad[0]}")
        if not _close(results["total"], math.fsum(want)):
            problems.append(f"centrality total {results['total']!r} vs oracle "
                            f"{math.fsum(want)!r}")
        return problems


def check_verify(results, trials):
    if results.get("passed") is not True:
        return [f"verify did not pass: max violation {results.get('max_violation')!r}"]
    if results.get("trials") != trials:
        return [f"verify ran {results.get('trials')!r} trials, expected {trials}"]
    return []
