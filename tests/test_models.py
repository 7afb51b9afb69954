import csv
import gc
import io
import json
import math
import re
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gramsel import cli, metrics, models
from gramsel.exceptions import (
    DimensionError,
    DomainError,
    NonFiniteError,
    ProblemFormatError,
    StabilityError,
    TopologyError,
)
from gramsel.models import (
    build_swing_matrix,
    frequency_selector,
    grid_model,
    hvdc_candidates,
    load_problem,
    random_hurwitz_system,
    ring_grid,
    ring_problem_dict,
    state_labels,
    system_problem_dict,
    Table,
    write_json,
    write_problem,
)
from gramsel.gramian import LyapunovSolver
from gramsel.numerics import eigenvalues, spectral_abscissa


def _bus(bid, inertia, damping, grounding=None):
    """A bus object of a problem file's bus list."""
    bus = {"id": bid, "inertia": inertia, "damping": damping}
    return bus if grounding is None else {**bus, "grounding": grounding}


def _line(a, b, susceptance):
    """A line object of a problem file's bus list."""
    return {"from": a, "to": b, "susceptance": susceptance}


def _grid(buses, lines=()):
    return grid_model({"buses": list(buses), "lines": list(lines)})


def _single_bus(g):
    return _grid([_bus("b1", inertia=1.0, damping=1.0, grounding=g)])


class TestGridModel:
    def test_duplicate_bus(self):
        with pytest.raises(TopologyError):
            _grid([_bus("x", 1, 1), _bus("x", 1, 1)])

    def test_nonpositive_inertia(self):
        with pytest.raises(DomainError):
            _grid([_bus("x", 0.0, 1.0)])

    def test_nonpositive_damping(self):
        with pytest.raises(DomainError):
            _grid([_bus("x", 1.0, -1.0)])

    def test_negative_grounding(self):
        with pytest.raises(DomainError):
            _grid([_bus("x", 1.0, 1.0, -0.1)])

    def test_self_loop(self):
        with pytest.raises(TopologyError):
            _grid([_bus("x", 1, 1)], [_line("x", "x", 1.0)])

    def test_unknown_endpoint(self):
        with pytest.raises(TopologyError):
            _grid([_bus("x", 1, 1)], [_line("x", "y", 1.0)])

    def test_duplicate_line_either_direction(self):
        buses = [_bus("x", 1, 1), _bus("y", 1, 1)]
        with pytest.raises(TopologyError):
            _grid(buses, [_line("x", "y", 1.0), _line("y", "x", 2.0)])

    def test_disconnected(self):
        buses = [_bus("a", 1, 1), _bus("b", 1, 1), _bus("c", 1, 1)]
        with pytest.raises(TopologyError):
            _grid(buses, [_line("a", "b", 1.0)])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 10))
    def test_connected_exactly_when_a_graph_search_reaches_every_bus(self, data, n):
        pairs = [(i, j) for j in range(n) for i in range(j)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        reached, todo = {0}, [0]
        while todo:
            k = todo.pop()
            for nxt in {j for i, j in edges if i == k} | {i for i, j in edges if j == k}:
                if nxt not in reached:
                    reached.add(nxt)
                    todo.append(nxt)
        order = data.draw(st.permutations(range(n)))  # bus k sits at position order[k]
        buses = [_bus(f"b{k}", 1.0, 1.0, 0.1) for k in sorted(range(n), key=order.__getitem__)]
        lines = [_line(f"b{i}", f"b{j}", 1.0) for i, j in edges]
        if len(reached) == n:
            assert len(_grid(buses, lines).ids) == n
        else:
            with pytest.raises(TopologyError, match="not connected"):
                _grid(buses, lines)

    @pytest.mark.parametrize("lines, message", [
        # each list breaks two rules; the first one named is the one a line-by-line check meets
        ([("a", "z", 0.0), ("a", "a", 1.0)], "line 'a'-'z' references an unknown bus"),
        ([("a", "a", -1.0)], "self-loop on bus 'a'"),
        ([("a", "b", 1.0), ("b", "a", -1.0)], "duplicate line between 'b' and 'a'"),
        ([("a", "b", 0.0), ("b", "c", 1.0)], "line 'a'-'b' susceptance must be > 0.0"),
    ])
    def test_lines_are_checked_in_order(self, lines, message):
        buses = [_bus("a", 1, 1), _bus("b", 1, 1), _bus("c", 1, 1)]
        with pytest.raises((TopologyError, DomainError), match=re.escape(message)):
            _grid(buses, [_line(*line) for line in lines])


class TestSwingMatrix:
    def test_single_grounded_bus(self):
        grid = _single_bus(1.0)
        a = build_swing_matrix(grid)
        assert np.array_equal(a, [[0.0, 1.0], [-1.0, -1.0]])
        vals = np.sort_complex(eigenvalues(a))
        expected = np.sort_complex(
            [-0.5 + 1j * math.sqrt(3) / 2, -0.5 - 1j * math.sqrt(3) / 2]
        )
        assert np.allclose(vals, expected, atol=1e-12)
        assert grid.grounded

    def test_ungrounded_has_single_zero_mode(self):
        grid = ring_grid(6, grounding=0.0)
        assert not grid.grounded
        vals = eigenvalues(build_swing_matrix(grid))
        n_zero = int(np.sum(np.abs(vals) <= 1e-9))
        assert n_zero == 1
        assert np.max(vals.real[np.abs(vals) > 1e-9]) < 0

    def test_grounding_one_bus_stabilizes(self):
        grid = ring_grid(5, grounding=0.0)
        buses = [_bus(bid, 1.0, 0.5, 0.1 if k == 2 else 0.0) for k, bid in enumerate(grid.ids)]
        lines = [_line(grid.ids[i], grid.ids[j], 1.0) for i, j in grid.lines.tolist()]
        grounded = _grid(buses, lines)
        assert grounded.grounded
        assert LyapunovSolver(build_swing_matrix(grounded)).n == 10

    def test_interleaved_state_ordering(self):
        grid = ring_grid(4)
        a = build_swing_matrix(grid)
        labels = state_labels(grid)
        assert len(labels) == a.shape[0]
        for i, bid in enumerate(grid.ids):
            ang, frq = labels.index(f"{bid}:angle"), labels.index(f"{bid}:freq")
            assert (ang, frq) == (2 * i, 2 * i + 1)
            assert a[ang, frq] == 1.0
            assert np.count_nonzero(a[ang]) == 1

    def test_coupling_rows_sum_to_zero_without_grounding(self):
        # each frequency row restricted to angle columns is a Laplacian row
        grid = ring_grid(7, grounding=0.0)
        n = len(grid.ids)
        coupling = build_swing_matrix(grid)[1::2, 0::2]
        assert np.allclose(coupling @ np.ones(n), 0.0, atol=1e-12)
        # grounding shifts only the diagonal
        coupling_g = build_swing_matrix(ring_grid(7, grounding=0.25))[1::2, 0::2]
        assert np.allclose(coupling_g @ np.ones(n), -0.25, atol=1e-12)

    def test_heterogeneous_inertia_scaling(self):
        grid = _grid([_bus("p", 2.0, 1.0, 0.4), _bus("q", 4.0, 1.0, 0.4)],
                     [_line("p", "q", 3.0)])
        a = build_swing_matrix(grid)
        # row p: -(g + b)/M_p on own angle, +b/M_p on neighbour
        assert a[1, 0] == pytest.approx(-(0.4 + 3.0) / 2.0)
        assert a[1, 2] == pytest.approx(3.0 / 2.0)
        assert a[3, 2] == pytest.approx(-(0.4 + 3.0) / 4.0)
        assert a[3, 0] == pytest.approx(3.0 / 4.0)
        assert a[1, 1] == pytest.approx(-1.0 / 2.0)
        assert a[3, 3] == pytest.approx(-1.0 / 4.0)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6))
    def test_hurwitz_flag_matches_the_spectrum(self, data, n):
        # the flag is "some bus is grounded"; the Hurwitz rule it replaces is the oracle
        positive = st.floats(0.1, 10.0)
        grounding = st.one_of(st.just(0.0), st.floats(0.01, 10.0))
        buses = [_bus(f"b{i}", data.draw(positive), data.draw(positive),
                      data.draw(grounding)) for i in range(n)]
        tree = {(data.draw(st.integers(0, i - 1)), i) for i in range(1, n)}
        pairs = [(i, j) for j in range(n) for i in range(j)]
        extra = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        lines = [_line(f"b{i}", f"b{j}", data.draw(positive)) for i, j in sorted(tree | extra)]
        grid = _grid(buses, lines)
        if grid.grounded:
            LyapunovSolver(build_swing_matrix(grid))
        else:
            with pytest.raises(StabilityError):
                LyapunovSolver(build_swing_matrix(grid))

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 30))
    def test_dimension_is_twice_buses(self, n):
        grid = ring_grid(n)
        assert build_swing_matrix(grid).shape == (2 * n, 2 * n)
        assert grid.grounded


    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8))
    def test_matches_the_per_line_loop_bit_for_bit(self, data, n):
        # buses out of position order, several lines per bus, each line either way round
        positive = st.floats(0.01, 100.0) | st.sampled_from([0.5, 1.0, 2.0, 3.0])
        grounding = st.sampled_from([None, 0.0]) | st.floats(0.0, 10.0)
        order = data.draw(st.permutations(range(n)))
        buses = [_bus(f"b{k}", data.draw(positive), data.draw(positive), data.draw(grounding))
                 for k in order]
        tree = {(data.draw(st.integers(0, i - 1)), i) for i in range(1, n)}
        pairs = [(i, j) for j in range(n) for i in range(j)]
        extra = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        edges = data.draw(st.permutations(sorted(tree | extra)))
        lines = [_line(*(f"b{i}", f"b{j}")[::data.draw(st.sampled_from([1, -1]))],
                       data.draw(positive)) for i, j in edges]
        a = build_swing_matrix(_grid(buses, lines))
        assert a.tobytes() == _swing_by_loop(buses, lines).tobytes()


def _swing_by_loop(buses, lines):
    """The swing matrix of a bus list built one bus and one line at a time."""
    pos = {bus["id"]: k for k, bus in enumerate(buses)}
    a = np.zeros((2 * len(buses), 2 * len(buses)))
    for k, bus in enumerate(buses):
        a[2 * k, 2 * k + 1] = 1.0
        a[2 * k + 1, 2 * k + 1] = -bus["damping"] / bus["inertia"]
        a[2 * k + 1, 2 * k] = -bus.get("grounding", 0.0) / bus["inertia"]
    for line in lines:
        i, j = pos[line["from"]], pos[line["to"]]
        mi, mj, b = buses[i]["inertia"], buses[j]["inertia"], line["susceptance"]
        a[2 * i + 1, 2 * i] -= b / mi
        a[2 * i + 1, 2 * j] += b / mi
        a[2 * j + 1, 2 * j] -= b / mj
        a[2 * j + 1, 2 * i] += b / mj
    return a


class TestHvdcCandidates:
    def test_two_buses_single_link(self):
        buses = [_bus("p", 2.0, 1.0, 0.1), _bus("q", 4.0, 1.0, 0.1)]
        ids, b = hvdc_candidates(_grid(buses, [_line("p", "q", 1.0)]))
        assert ids == ["p-q"]
        expected = np.zeros((4, 1))
        expected[1] = 1.0 / 2.0
        expected[3] = -1.0 / 4.0
        assert np.array_equal(b, expected)

    def test_count_formula(self):
        for n in (2, 5, 10, 74):
            ids, b = hvdc_candidates(ring_grid(n))
            assert len(ids) == n * (n - 1) // 2
            assert b.shape == (2 * n, len(ids))

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(2, 25))
    def test_ids_unique_and_columns_two_sparse(self, n):
        ids, b = hvdc_candidates(ring_grid(n))
        assert len(set(ids)) == len(ids) == n * (n - 1) // 2
        for col in b.T:
            assert np.count_nonzero(col) == 2
            # only frequency states are touched
            assert np.count_nonzero(col[0::2]) == 0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 12))
    def test_matches_the_pairwise_loop(self, data, n):
        # oracle: the per-link double loop the matrix builder replaced
        inertias = data.draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n,
                                      unique=True))
        order = data.draw(st.permutations(range(n)))
        assume(list(order) != sorted(order))
        buses = [_bus(f"n{k}", m, 1.0, 0.1) for k, m in zip(order, inertias)]
        lines = [_line(p["id"], q["id"], 1.0) for p, q in zip(buses, buses[1:])]
        grid = _grid(buses, lines)
        labels = state_labels(grid)
        oracle_ids, oracle_cols = [], []
        for i in range(n):
            for j in range(i + 1, n):
                p, q = buses[i], buses[j]
                col = np.zeros(len(labels))
                col[labels.index(f"{p['id']}:freq")] = 1.0 / p["inertia"]
                col[labels.index(f"{q['id']}:freq")] = -1.0 / q["inertia"]
                oracle_ids.append(f"{p['id']}-{q['id']}")
                oracle_cols.append(col)
        ids, b = hvdc_candidates(grid)
        assert ids == oracle_ids
        assert b.dtype == np.float64 and b.shape == (len(labels), len(oracle_ids))
        assert b.tobytes() == np.column_stack(oracle_cols).tobytes()

    def test_frequency_selector(self):
        c = frequency_selector(ring_grid(3))
        assert c.shape == (3, 6)
        assert np.array_equal(c @ np.arange(6.0), [1.0, 3.0, 5.0])


class TestRingGrid:
    def test_line_count_no_chords(self):
        grid = ring_grid(8)
        assert len(grid.lines) == 8
        assert len(grid.ids) == 8

    def test_two_bus_ring_is_single_line(self):
        assert len(ring_grid(2).lines) == 1

    def test_chords_are_seeded_and_new(self):
        g1 = ring_grid(10, chords=5, seed=3)
        g2 = ring_grid(10, chords=5, seed=3)
        assert g1.lines.tolist() == g2.lines.tolist()
        assert len(g1.lines) == 15
        # different seed, different chords
        g3 = ring_grid(10, chords=5, seed=4)
        assert g1.lines.tolist() != g3.lines.tolist()

    def test_too_many_chords(self):
        with pytest.raises(DomainError):
            ring_grid(4, chords=100)

    def test_too_small(self):
        with pytest.raises(DomainError):
            ring_grid(1)

    @pytest.mark.parametrize("n, chords, seed", [
        (2, 0, 0), (3, 0, 5), (4, 1, 0), (5, 5, 3), (9, 5, 2), (10, 35, 1), (74, 40, 2),
        (150, 500, 9), (150, 10875, 4),
    ])
    def test_lines_match_the_pair_list_draw(self, n, chords, seed):
        # oracle: the ring as a set of pairs and the chords drawn from a Python list
        ring = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
        free = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in ring]
        picks = np.random.default_rng(seed).choice(len(free), size=chords, replace=False)
        expected = sorted(ring) + [free[k] for k in sorted(picks)]
        grid = ring_grid(n, chords=chords, seed=seed)
        assert grid.lines.tolist() == [list(pair) for pair in expected]
        assert grid.susceptance.tolist() == [1.0] * len(expected)

    @pytest.mark.parametrize("kwargs, field", [
        ({"n_buses": 1, "seed": -1}, "buses"),
        ({"n_buses": 10**20, "seed": -1}, "buses"),
        ({"n_buses": 4, "seed": -1, "chords": 99}, "seed"),
        ({"n_buses": 4, "chords": 99, "inertia": 0}, "chords"),
        ({"n_buses": 4, "inertia": 0, "damping": 0}, "inertia"),
        ({"n_buses": 4, "damping": 0, "grounding": -1}, "damping"),
        ({"n_buses": 4, "grounding": -1, "susceptance": 0}, "grounding"),
        ({"n_buses": 4, "susceptance": 0}, "susceptance"),
    ])
    def test_parameters_are_checked_in_order(self, kwargs, field):
        with pytest.raises(DomainError, match=f"^{field} must"):
            ring_grid(**kwargs)

    def test_bus_count_bound_keeps_the_hvdc_matrix_addressable(self):
        # the dense (2N, N(N-1)/2) HVDC matrix takes 8 N^2 (N - 1) bytes
        n, top = models._MAX_RING_BUSES, np.iinfo(np.intp).max
        assert 8 * n * n * (n - 1) <= top < 8 * (n + 1) ** 2 * n
        with pytest.raises(DomainError, match=f"buses <= {n}, got {n + 1}"):
            ring_grid(n + 1)

    def test_arrays_are_read_only(self):
        bus_list = _grid([_bus("p", 1.0, 1.0, 0.1), _bus("q", 2.0, 1.0)], [_line("q", "p", 1.0)])
        for grid in (ring_grid(4, chords=1), bus_list):
            for array in (grid.inertia, grid.damping, grid.grounding, grid.lines,
                          grid.susceptance):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0


class TestRandomSystem:
    def test_seeded_determinism(self):
        a1, ids1, b1 = random_hurwitz_system(6, 3, seed=9)
        a2, ids2, b2 = random_hurwitz_system(6, 3, seed=9)
        assert np.array_equal(a1, a2)
        assert ids1 == ids2 == ["b0", "b1", "b2"]
        assert np.array_equal(b1, b2)

    def test_hurwitz_with_margin(self):
        for seed in range(10):
            a = random_hurwitz_system(8, 2, seed=seed)[0]
            assert LyapunovSolver(a).n == 8
            assert spectral_abscissa(a) == pytest.approx(-0.1, abs=1e-9)

    def test_columns_unit_norm(self):
        _, _, b = random_hurwitz_system(7, 4, seed=1)
        assert b.shape == (7, 4)
        for col in b.T:
            assert np.linalg.norm(col) == pytest.approx(1.0, rel=1e-12)

    def test_dense_at_density_one(self):
        a = random_hurwitz_system(4, 1, density=1.0, seed=0)[0]
        assert np.count_nonzero(a) == 16

    def test_param_validation(self):
        with pytest.raises(DomainError):
            random_hurwitz_system(0, 1)
        with pytest.raises(DomainError):
            random_hurwitz_system(3, 1, density=0.0)


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-10**40, 10**40) | st.floats()
    | st.sampled_from([-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf])
    | st.text() | st.sampled_from(['"', "\\", "\n\t\x00", "é", "\u2028", "😀"])
)
_JSON_DOCS = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=5)),
    max_leaves=30,
)


def _write_json_text(obj):
    chunks = []
    write_json(obj, chunks.append)
    return "".join(chunks)


class TestWriteJson:
    @settings(max_examples=300, deadline=None)
    @given(obj=_JSON_DOCS)
    def test_matches_stdlib_indented_layout(self, obj):
        assert _write_json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)

    def test_numpy_floats_print_as_floats(self):
        obj = {"w": [np.float64(0.1), np.float64(-0.0)], "x": {"y": [np.float64(1e308)]}}
        assert _write_json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)

    @pytest.mark.parametrize("obj", [{"a": {1: [1]}}, [{2: {"b": 1}}], {"a": 1, 3: ()}])
    def test_non_str_key_beside_a_container_raises(self, obj):
        with pytest.raises(TypeError):
            _write_json_text(obj)


_ROW_IDS = st.text(max_size=4) | st.sampled_from(
    ['"', "\\", "a,b", "x\ny", "\r", "\t\x1f", "\u0000", "a\u0000", "😀", "é\u2028", ""])
_ROW_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, 1e16, 1e-5, 1.7976931348623157e308, -1.7976931348623157e308])


class TestTable:
    """The row writer prints what write_json prints for the list of row dicts and
    what csv.writer prints for the header and rows, across its 256-row blocks."""

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(0, 2 * 256 + 3), ids=st.lists(_ROW_IDS, min_size=1),
           floats=st.lists(_ROW_FLOATS, min_size=1), h2=st.booleans(), k=st.integers(0, 5))
    def test_matches_the_row_dicts(self, rows, ids, floats, h2, k):
        score = np.resize(np.array(floats), rows)
        columns = {"rank": np.arange(1, rows + 1),
                   "id": np.resize(np.array(ids, dtype=object), rows),
                   "score": score}
        if h2:
            columns["h2_norm"] = np.abs(score[::-1])
        if k:
            columns["selected"] = np.repeat([1, 0], [min(k, rows), rows - min(k, rows)])
        table = Table(columns)
        dicts = [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]
        report = {"results": {"count": rows, "ranked": table}}
        want = json.dumps({"results": {"count": rows, "ranked": dicts}}, indent=2, sort_keys=True)
        assert _write_json_text(report) == want

        got, want = io.StringIO(), io.StringIO()
        table.write_csv(got)
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([row[key] for key in columns] for row in dicts)
        assert got.getvalue() == want.getvalue()


class TestProblemIO:
    def test_roundtrip_explicit(self, tmp_path):
        a, ids, b = random_hurwitz_system(5, 3, seed=4)
        doc = system_problem_dict(a, ids, b)
        path = tmp_path / "p.json"
        write_problem(path, doc)
        problem = load_problem(path)
        cs = problem.candidate_set
        assert problem.grid is None
        assert np.array_equal(cs.a, a)
        assert cs.ids == tuple(ids)
        for cid, col in zip(ids, b.T):
            assert np.array_equal(cs.column(cid), col)
        # stored C-ordered, bit for bit
        assert cs.B.flags.c_contiguous and cs.B.tobytes() == b.tobytes()
        assert problem.metric.kind == "trace"

    def test_roundtrip_bytes_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_problem(p1, system_problem_dict(*random_hurwitz_system(4, 2, seed=11)))
        loaded = load_problem(p1).candidate_set
        write_problem(p2, system_problem_dict(loaded.a, loaded.ids, loaded.B))
        assert p1.read_bytes() == p2.read_bytes()

    def test_weight_block_roundtrip(self, tmp_path):
        cbar = np.diag([1.0, 2.0, 3.0])
        doc = {**system_problem_dict(*random_hurwitz_system(3, 2, seed=2)),
               "weight": {"kind": "weighted_trace", "matrix": cbar.tolist()}}
        path = tmp_path / "w.json"
        write_problem(path, doc)
        metric = load_problem(path).metric
        assert metric.kind == "weighted_trace"
        assert np.array_equal(metric.weight, cbar)

    def test_grid_problem(self, tmp_path):
        path = tmp_path / "ring.json"
        write_problem(path, ring_problem_dict(6, chords=2, seed=5))
        problem = load_problem(path)
        assert problem.grid is not None
        assert problem.candidate_set.n == 12
        assert problem.candidate_set.size == 15

    @pytest.mark.parametrize("kwargs, field", [
        ({"n_buses": 2.5}, "buses"),
        ({"n_buses": 4, "chords": 1.5}, "chords"),
        ({"n_buses": 4, "seed": True}, "seed"),
    ])
    def test_ring_problem_dict_validates_before_it_converts(self, kwargs, field):
        # int() once made these a 2-bus ring, 1 chord and seed 1
        with pytest.raises(DomainError, match=field):
            ring_problem_dict(**kwargs)

    @pytest.mark.parametrize("a, ids, b, error", [
        ([[-1.0, 0.0]], ["x"], [[1.0]], DimensionError),  # A 1x2 with n = 1
        ([[math.nan]], ["x"], [[1.0]], NonFiniteError),
        ([[-1.0]], ["x", "x"], [[1.0, 2.0]], DomainError),
        ([[-1.0]], [], np.zeros((1, 0)), DomainError),
    ])
    def test_system_problem_dict_validates_before_it_converts(self, tmp_path, a, ids, b,
                                                               error):
        path = tmp_path / "p.json"
        with pytest.raises(error):
            write_problem(path, system_problem_dict(a, ids, b))
        assert not path.exists()

    def test_explicit_grid_block(self, tmp_path):
        doc = {
            "grid": {
                "buses": [
                    {"id": "p", "inertia": 1.0, "damping": 0.5, "grounding": 0.1},
                    {"id": "q", "inertia": 2.0, "damping": 0.5},
                ],
                "lines": [{"from": "p", "to": "q", "susceptance": 1.5}],
            }
        }
        path = tmp_path / "g.json"
        write_problem(path, doc)
        problem = load_problem(path)
        assert problem.candidate_set.size == 1
        assert problem.grid.grounding[1] == 0.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ProblemFormatError):
            load_problem(tmp_path / "nope.json")

    @pytest.mark.parametrize("kind", ["explicit", "bus list"])
    def test_nothing_the_parser_made_outlives_the_load(self, tmp_path, kind):
        # a kept parsed string pins the allocator arenas of the whole freed document
        if kind == "explicit":
            doc = {**system_problem_dict(*random_hurwitz_system(4, 500, seed=1)),
                   "weight": {"kind": "h2", "matrix": np.eye(2, 4).tolist()}}
        else:
            buses = [_bus(f"b{i}", 1.0 + i, 0.5, 0.1) for i in range(40)]
            lines = [{"from": f"b{i}", "to": f"b{i + 1}", "susceptance": 1.0}
                     for i in range(39)]
            doc = {"grid": {"buses": buses, "lines": lines}}
        path = tmp_path / "p.json"
        write_problem(path, doc)
        tracemalloc.start()
        try:
            problem = load_problem(path)
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        alive = snapshot.filter_traces([tracemalloc.Filter(True, json.decoder.__file__)])
        assert sum(stat.size for stat in alive.statistics("filename")) == 0
        assert problem.candidate_set.size == (500 if kind == "explicit" else 780)

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2,, }')
        with pytest.raises(ProblemFormatError) as err:
            load_problem(path)
        assert "line" in str(err.value) or "column" in str(err.value)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"n": 2, "A": [[-1, 0], [0, -1]]}')
        with pytest.raises(ProblemFormatError) as err:
            load_problem(path)
        assert "candidates" in str(err.value)

    def test_wrong_column_length_names_candidate(self, tmp_path):
        path = tmp_path / "c.json"
        doc = {
            "n": 2,
            "A": [[-1.0, 0.0], [0.0, -1.0]],
            "candidates": [{"id": "good", "b": [1.0, 0.0]},
                           {"id": "bad", "b": [1.0, 0.0, 0.0]}],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(DimensionError) as err:
            load_problem(path)
        assert "'bad'" in str(err.value)

    def test_non_finite_entries_rejected(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"n": 1, "A": [[NaN]], "candidates": [{"id": "x", "b": [1.0]}]}'
        )
        with pytest.raises((ProblemFormatError, NonFiniteError)):
            load_problem(path)

    def test_a_shape_mismatch(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(
            '{"n": 3, "A": [[-1.0, 0.0], [0.0, -1.0]],'
            ' "candidates": [{"id": "x", "b": [1, 0, 0]}]}'
        )
        with pytest.raises(DimensionError):
            load_problem(path)

    def test_unknown_weight_kind(self, tmp_path):
        path = tmp_path / "k.json"
        doc = {
            "n": 1, "A": [[-1.0]],
            "candidates": [{"id": "x", "b": [1.0]}],
            "weight": {"kind": "sup_norm"},
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemFormatError):
            load_problem(path)

    def test_unknown_topology(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"grid": {"topology": "torus", "buses": 4}}')
        with pytest.raises(ProblemFormatError):
            load_problem(path)

    def test_ring_block_defaults_match_ring_grid(self, tmp_path):
        # a bare block and ring_problem_dict's block, which writes every field
        path = tmp_path / "r.json"
        ids, b = hvdc_candidates(ring_grid(5))
        written = ring_problem_dict(5)
        assert written["grid"] == {"topology": "ring", "buses": 5, "chords": 0, "seed": 0,
                                   "inertia": 1.0, "damping": 0.5, "susceptance": 1.0,
                                   "grounding": 0.1}
        for doc in ({"grid": {"topology": "ring", "buses": 5}}, written):
            write_problem(path, doc)
            cs = load_problem(path).candidate_set
            assert np.array_equal(cs.a, build_swing_matrix(ring_grid(5)))
            assert list(cs.ids) == ids and np.array_equal(cs.B, b)

    def test_unknown_ring_field_named(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text('{"grid": {"topology": "ring", "buses": 5, "inertias": 2.0}}')
        with pytest.raises(ProblemFormatError, match="inertias"):
            load_problem(path)

    def test_ring_without_buses_rejected(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text('{"grid": {"topology": "ring", "chords": 1}}')
        with pytest.raises(ProblemFormatError, match='"buses"'):
            load_problem(path)

    def test_readme_problem_examples_load(self, tmp_path, capsys, monkeypatch):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```json\n(.*?)```", text, re.DOTALL)
        assert len(blocks) == 2
        for i, block in enumerate(blocks):
            path = tmp_path / f"readme{i}.json"
            path.write_text(block)
            assert load_problem(path).candidate_set.size >= 1
        # the CLI quickstart's synthesize line runs against the explicit example
        line = re.search(r"gramsel (synthesize problem\.json .*?)\n(?!\s)", text, re.DOTALL)
        argv = shlex.split(line.group(1).replace("\\\n", " "))
        argv[1] = str(tmp_path / "readme0.json")
        argv[argv.index("--out") + 1] = str(tmp_path / "transfer.json")
        built = []
        real_gramian = metrics.finite_horizon_gramian
        monkeypatch.setattr(metrics, "finite_horizon_gramian",
                            lambda *args: built.append(args) or real_gramian(*args))
        assert cli.main(argv) == 0
        # the simulation reuses the synthesis's W(t)^{-1} x_f: one W(t), one warning line
        assert len(built) == 1
        # p0, p1 cannot reach state 2, which the one range solve reports in one line
        err = capsys.readouterr().err
        assert err.count("[gramsel] warning: gramian is singular") == 1
        assert "DegenerateGramianWarning" not in err
        report = json.loads((tmp_path / "transfer.json").read_text())
        assert report["results"]["terminal_error"] < 1e-8
