import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gramsel import cli, metrics
from gramsel.exceptions import (
    DimensionError,
    DomainError,
    NonFiniteError,
    ProblemFormatError,
    TopologyError,
)
from gramsel.metrics import MetricSpec
from gramsel.models import (
    Bus,
    GridModel,
    Line,
    build_swing_matrix,
    frequency_selector,
    hvdc_candidates,
    load_problem,
    random_hurwitz_system,
    ring_grid,
    ring_problem_dict,
    state_labels,
    system_problem_dict,
    write_json,
    write_problem,
)
from gramsel.numerics import eigenvalues, is_hurwitz, spectral_abscissa


def _single_bus(g):
    return GridModel(buses=(Bus("b1", inertia=1.0, damping=1.0, grounding=g),),
                     lines=())


class TestGridModel:
    def test_duplicate_bus(self):
        with pytest.raises(TopologyError):
            GridModel(buses=(Bus("x", 1, 1), Bus("x", 1, 1)), lines=())

    def test_nonpositive_inertia(self):
        with pytest.raises(DomainError):
            GridModel(buses=(Bus("x", 0.0, 1.0),), lines=())

    def test_nonpositive_damping(self):
        with pytest.raises(DomainError):
            GridModel(buses=(Bus("x", 1.0, -1.0),), lines=())

    def test_negative_grounding(self):
        with pytest.raises(DomainError):
            GridModel(buses=(Bus("x", 1.0, 1.0, -0.1),), lines=())

    def test_self_loop(self):
        with pytest.raises(TopologyError):
            GridModel(buses=(Bus("x", 1, 1),), lines=(Line("x", "x", 1.0),))

    def test_unknown_endpoint(self):
        with pytest.raises(TopologyError):
            GridModel(buses=(Bus("x", 1, 1),), lines=(Line("x", "y", 1.0),))

    def test_duplicate_line_either_direction(self):
        buses = (Bus("x", 1, 1), Bus("y", 1, 1))
        with pytest.raises(TopologyError):
            GridModel(buses=buses, lines=(Line("x", "y", 1.0), Line("y", "x", 2.0)))

    def test_disconnected(self):
        buses = (Bus("a", 1, 1), Bus("b", 1, 1), Bus("c", 1, 1))
        with pytest.raises(TopologyError):
            GridModel(buses=buses, lines=(Line("a", "b", 1.0),))


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
        buses = list(grid.buses)
        buses[2] = Bus(buses[2].id, buses[2].inertia, buses[2].damping, 0.1)
        grounded = GridModel(buses=tuple(buses), lines=grid.lines)
        assert grounded.grounded
        assert is_hurwitz(build_swing_matrix(grounded))

    def test_interleaved_state_ordering(self):
        grid = ring_grid(4)
        a = build_swing_matrix(grid)
        labels = state_labels(grid)
        assert len(labels) == a.shape[0]
        for i, bus in enumerate(grid.buses):
            ang, frq = labels.index(f"{bus.id}:angle"), labels.index(f"{bus.id}:freq")
            assert (ang, frq) == (2 * i, 2 * i + 1)
            assert a[ang, frq] == 1.0
            assert np.count_nonzero(a[ang]) == 1

    def test_coupling_rows_sum_to_zero_without_grounding(self):
        # each frequency row restricted to angle columns is a Laplacian row
        grid = ring_grid(7, grounding=0.0)
        n = grid.n_buses
        coupling = build_swing_matrix(grid)[1::2, 0::2]
        assert np.allclose(coupling @ np.ones(n), 0.0, atol=1e-12)
        # grounding shifts only the diagonal
        coupling_g = build_swing_matrix(ring_grid(7, grounding=0.25))[1::2, 0::2]
        assert np.allclose(coupling_g @ np.ones(n), -0.25, atol=1e-12)

    def test_heterogeneous_inertia_scaling(self):
        buses = (Bus("p", 2.0, 1.0, 0.4), Bus("q", 4.0, 1.0, 0.4))
        grid = GridModel(buses=buses, lines=(Line("p", "q", 3.0),))
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
        # the flag is "some bus is grounded"; the eigen-solve it replaces is the oracle
        positive = st.floats(0.1, 10.0)
        grounding = st.one_of(st.just(0.0), st.floats(0.01, 10.0))
        buses = tuple(Bus(f"b{i}", data.draw(positive), data.draw(positive),
                          data.draw(grounding)) for i in range(n))
        tree = {(data.draw(st.integers(0, i - 1)), i) for i in range(1, n)}
        pairs = [(i, j) for j in range(n) for i in range(j)]
        extra = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        lines = tuple(Line(f"b{i}", f"b{j}", data.draw(positive))
                      for i, j in sorted(tree | extra))
        grid = GridModel(buses=buses, lines=lines)
        assert grid.grounded == is_hurwitz(build_swing_matrix(grid))

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 30))
    def test_dimension_is_twice_buses(self, n):
        grid = ring_grid(n)
        assert build_swing_matrix(grid).shape == (2 * n, 2 * n)
        assert grid.grounded


class TestHvdcCandidates:
    def test_two_buses_single_link(self):
        buses = (Bus("p", 2.0, 1.0, 0.1), Bus("q", 4.0, 1.0, 0.1))
        ids, b = hvdc_candidates(GridModel(buses=buses, lines=(Line("p", "q", 1.0),)))
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
        buses = tuple(Bus(f"n{k}", m, 1.0, 0.1) for k, m in zip(order, inertias))
        lines = tuple(Line(p.id, q.id, 1.0) for p, q in zip(buses, buses[1:]))
        grid = GridModel(buses=buses, lines=lines)
        labels = state_labels(grid)
        oracle_ids, oracle_cols = [], []
        for i in range(n):
            for j in range(i + 1, n):
                col = np.zeros(len(labels))
                col[labels.index(f"{buses[i].id}:freq")] = 1.0 / buses[i].inertia
                col[labels.index(f"{buses[j].id}:freq")] = -1.0 / buses[j].inertia
                oracle_ids.append(f"{buses[i].id}-{buses[j].id}")
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
        assert grid.n_buses == 8

    def test_two_bus_ring_is_single_line(self):
        assert len(ring_grid(2).lines) == 1

    def test_chords_are_seeded_and_new(self):
        g1 = ring_grid(10, chords=5, seed=3)
        g2 = ring_grid(10, chords=5, seed=3)
        assert [(l.from_bus, l.to_bus) for l in g1.lines] == [
            (l.from_bus, l.to_bus) for l in g2.lines
        ]
        assert len(g1.lines) == 15
        # different seed, different chords
        g3 = ring_grid(10, chords=5, seed=4)
        assert [(l.from_bus, l.to_bus) for l in g1.lines] != [
            (l.from_bus, l.to_bus) for l in g3.lines
        ]

    def test_too_many_chords(self):
        with pytest.raises(DomainError):
            ring_grid(4, chords=100)

    def test_too_small(self):
        with pytest.raises(DomainError):
            ring_grid(1)


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
            assert is_hurwitz(a)
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
        doc = system_problem_dict(*random_hurwitz_system(3, 2, seed=2),
                                  metric=MetricSpec.weighted(cbar))
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
        assert problem.grid.buses[1].grounding == 0.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ProblemFormatError):
            load_problem(tmp_path / "nope.json")

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
        path = tmp_path / "r.json"
        path.write_text('{"grid": {"topology": "ring", "buses": 5}}')
        problem = load_problem(path)
        ids, b = hvdc_candidates(ring_grid(5))
        cs = problem.candidate_set
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
