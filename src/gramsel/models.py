"""Benchmark model builders and problem-file I/O.

The flagship model family is the linearized swing dynamics of an AC power
grid: per bus i an angle/frequency pair governed by

    d theta_i / dt = omega_i
    M_i d omega_i / dt = -D_i omega_i - g_i theta_i - sum_j b_ij (theta_i - theta_j)

with inertia M_i > 0, damping D_i > 0, grounding (shunt) stiffness
g_i >= 0 and line susceptances b_ij > 0.  States are interleaved
(theta_1, omega_1, theta_2, omega_2, ...).  Candidate actuators are HVDC
links: one link between buses i and j injects +P/M_i and -P/M_j into the
two frequency states, giving N(N-1)/2 candidate columns for N buses.
"""

import contextlib
import csv
import functools
import hashlib
import inspect
import itertools
import json
import os
import stat
import tempfile
import zipfile
from dataclasses import dataclass

import numpy as np

from . import __version__
from .exceptions import DomainError, GramselError, ProblemFormatError, TopologyError
from .metrics import METRIC_KINDS, MetricSpec
from .numerics import as_array, as_number, as_square, spectral_abscissa
from .placement import CandidateSet

__all__ = [
    "GridModel",
    "grid_model",
    "build_swing_matrix",
    "state_labels",
    "frequency_selector",
    "hvdc_candidates",
    "ring_grid",
    "random_hurwitz_system",
    "Problem",
    "read_json",
    "load_problem",
    "write_problem",
    "write_json",
    "Table",
    "system_problem_dict",
    "ring_problem_dict",
]


# The largest ring whose dense (2N, N(N-1)/2) HVDC column matrix numpy can address,
# 8 N^2 (N - 1) bytes <= the intp maximum: 2**20 buses on a 64-bit build.
_MAX_RING_BUSES = round((np.iinfo(np.intp).max / 8) ** (1 / 3))


@dataclass(frozen=True, eq=False)
class GridModel:
    """A checked grid as read-only arrays (see :func:`grid_model`): N bus ``ids``,
    their ``inertia`` M > 0, ``damping`` D > 0 and ``grounding`` g >= 0, and
    ``lines``, the (L, 2) bus positions of the AC lines, with their
    ``susceptance`` b > 0."""

    ids: tuple
    inertia: np.ndarray
    damping: np.ndarray
    grounding: np.ndarray
    lines: np.ndarray
    susceptance: np.ndarray

    def __post_init__(self):
        for array in (self.inertia, self.damping, self.grounding, self.lines, self.susceptance):
            array.flags.writeable = False

    @property
    def grounded(self):
        """True iff some bus is grounded, which is exactly when A is Hurwitz.

        With positive inertia, damping and susceptance on a connected grid,
        M theta'' + D theta' + (L + G) theta = 0 is asymptotically stable
        iff the stiffness L + G is positive definite, i.e. G != 0.  An
        ungrounded grid legitimately carries a zero eigenvalue (the uniform
        angle shift), so it is flagged rather than rejected.
        """
        return bool(np.any(self.grounding > 0))


def _connected(n, lines):
    """True iff the (L, 2) bus positions ``lines`` connect all ``n`` buses.  Each
    round gives every bus the least label of its neighbours and itself, then that
    label's own label, until each component carries one label: bus 0's is 0."""
    label = np.arange(n)
    while True:
        low = label.copy()
        np.minimum.at(low, lines, label[lines[:, ::-1]])
        low = low[low]
        if np.array_equal(low, label):
            return not label.any()
        label = low


def build_swing_matrix(grid):
    """The (2N, 2N) swing dynamics matrix A of a grid; bus k owns states 2k
    (angle) and 2k + 1 (frequency).

    Each line's four terms are added in line order, as a loop over the lines
    adds them.  No eigenvalues are computed: see :attr:`GridModel.grounded`.
    The Hurwitz test is made where A is factored
    (:class:`~gramsel.gramian.LyapunovSolver`).
    """
    k = np.arange(len(grid.ids))
    a = np.zeros((2 * len(k), 2 * len(k)))
    a[2 * k, 2 * k + 1] = 1.0
    a[2 * k + 1, 2 * k + 1] = -grid.damping / grid.inertia
    a[2 * k + 1, 2 * k] = -grid.grounding / grid.inertia
    i, j = grid.lines.T
    bi, bj = grid.susceptance / grid.inertia[i], grid.susceptance / grid.inertia[j]
    terms = (2 * np.column_stack([i, i, j, j]) + 1, 2 * np.column_stack([i, j, j, i]))
    np.add.at(a, terms, np.column_stack([-bi, bi, -bj, bj]))  # row-major: line order
    return a


def state_labels(grid):
    """``"<bus>:angle"`` and ``"<bus>:freq"`` for each bus, in state order."""
    return [f"{bus}:{state}" for bus in grid.ids for state in ("angle", "freq")]


def frequency_selector(grid):
    """(N, 2N) output matrix picking every frequency state (row per bus)."""
    return np.kron(np.eye(len(grid.ids)), [0.0, 1.0])


def hvdc_candidates(grid):
    """All N(N-1)/2 HVDC-link input columns of a grid.

    Returns ``(ids, b)``.  The link between buses i and j (i before j in
    bus order) gets id "<i>-<j>" and a column of the (2N, N(N-1)/2) matrix
    ``b`` with +1/M_i at bus i's frequency state and -1/M_j at bus j's;
    links are ordered by i, then j.
    """
    names = grid.ids
    i, j = np.triu_indices(len(names), 1)
    ids = [f"{names[p]}-{names[q]}" for p, q in zip(i.tolist(), j.tolist())]
    inv_m = 1.0 / grid.inertia
    links = np.arange(len(ids))
    b = np.zeros((2 * len(names), len(ids)))
    b[2 * i + 1, links] = inv_m[i]
    b[2 * j + 1, links] = -inv_m[j]
    return ids, b


def ring_grid(n_buses, inertia=1.0, damping=0.5, susceptance=1.0,
              grounding=0.1, chords=0, seed=0):
    """Uniform ring of at most ``_MAX_RING_BUSES`` buses, optionally with seeded random
    chord lines.  A line joins buses i < j: the ring's lines come first, ordered by
    (i, j), then the chords, drawn without replacement from the other pairs in that order."""
    n = as_number(n_buses, "buses", 2, _MAX_RING_BUSES, integer=True)
    seed = as_number(seed, "seed", 0, integer=True)
    k = np.arange(n - 1)
    lines = np.column_stack([k, k + 1])
    if n > 2:  # the closing line (0, n - 1) sorts second
        lines = np.insert(lines, 1, [0, n - 1], axis=0)
    chords = as_number(chords, "chords", 0, n * (n - 1) // 2 - len(lines), integer=True)
    per_bus = [np.full(n, as_number(value, name, 0.0, strict=name != "grounding"))
               for name, value in zip(("inertia", "damping", "grounding"),
                                      (inertia, damping, grounding))]
    susceptance = as_number(susceptance, "susceptance", 0.0, strict=True)
    if chords:
        i, j = np.triu_indices(n, 1)
        free = np.flatnonzero((j - i > 1) & ((i > 0) | (j < n - 1)))
        picks = np.sort(free[np.random.default_rng(seed).choice(len(free), chords, replace=False)])
        lines = np.vstack([lines, np.column_stack([i[picks], j[picks]])])
    width = len(str(n - 1))
    return GridModel(tuple(f"bus{p:0{width}d}" for p in range(n)), *per_bus, lines,
                     np.full(len(lines), susceptance))


def random_hurwitz_system(n, m, density=0.3, seed=0):
    """Seeded random stable system with m unit-norm candidate columns.

    A sparse random matrix S is shifted by its spectral abscissa plus a
    0.1 margin, A = S - (alpha(S) + 0.1) I, so A is Hurwitz by
    construction with max Re(eigenvalue) = -0.1.

    Returns ``(a, ids, b)``, the arguments of a :class:`CandidateSet`:
    ids "b0", "b1", ... and the (n, m) matrix ``b`` of their columns.
    """
    n = as_number(n, "n", 1, integer=True)
    m = as_number(m, "m", 1, integer=True)
    if 8 * n * max(n, m) > np.iinfo(np.intp).max:
        raise DomainError(f"{'n' if n >= m else 'm'} is too large for numpy to address "
                          f"an ({n}, {max(n, m)}) float array")
    density = as_number(density, "density", 0.0, 1.0, strict=True)
    rng = np.random.default_rng(as_number(seed, "seed", 0, integer=True))
    s = rng.normal(size=(n, n)) * (rng.random(size=(n, n)) < density)
    a = s - (spectral_abscissa(s) + 0.1) * np.eye(n)
    cols = rng.normal(size=(n, m))
    norms = np.linalg.norm(cols, axis=0)
    norms[norms == 0] = 1.0
    width = len(str(m - 1))
    return a, [f"b{i:0{width}d}" for i in range(m)], cols / norms


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Problem:
    """A ready-to-rank instance loaded from disk.

    ``a`` is the dynamics matrix and ``b`` the (n, M) matrix of the candidate
    columns named by ``ids``.  ``grid`` is the :class:`GridModel` when the file
    described a grid (so grid-aware weightings such as the frequency selector
    remain constructible); explicit-matrix problems leave it None.  ``metric``
    is the weight the file declares (trace when it declares none); ``digest``
    is ``"sha256:<hex>"`` of the file's bytes, and ``source`` the file the
    arrays were read from: the problem file, or its sidecar.
    """

    a: np.ndarray
    ids: list
    b: np.ndarray
    digest: str
    source: str
    grid: GridModel | None = None
    metric: MetricSpec = MetricSpec()

    @functools.cached_property
    def candidate_set(self):
        """``CandidateSet(a, ids, b)``, built and checked on first use: a command that
        reads only ``a`` never needs candidates."""
        return CandidateSet(self.a, self.ids, self.b)


_IDS = (str, int)  # the JSON types of a bus id, line endpoint or candidate id (bool is not one)
# The optional fields of a ring block, with ring_grid's defaults
_RING_DEFAULTS = {name: p.default for name, p in inspect.signature(ring_grid).parameters.items()
                  if p.default is not p.empty}


def _fields(doc, what, required, optional=(), ids=()):
    """``doc`` if it is a JSON object with every ``required`` field, no other field
    than ``required`` and ``optional``, and a JSON string or integer in each ``ids``
    field; otherwise a ProblemFormatError naming ``what`` and the field."""
    if not isinstance(doc, dict):
        raise ProblemFormatError(f"{what} must be a JSON object")
    if unknown := doc.keys() - {*required, *optional}:
        raise ProblemFormatError(f"unknown {what} fields: {sorted(unknown)}")
    if missing := [key for key in required if key not in doc]:
        raise ProblemFormatError(f'{what} is missing required field "{missing[0]}"')
    if bad := [key for key in ids if type(doc[key]) not in _IDS]:
        raise ProblemFormatError(f"{what} {bad[0]} must be a JSON string or integer, "
                                 f"got {doc[bad[0]]!r}")
    return doc


def _entries(doc, key, what, required, optional=(), ids=()):
    """The JSON list ``doc[key]`` (empty if absent), each entry checked by :func:`_fields`
    and named ``<what> <index>``."""
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise ProblemFormatError(f'"{key}" must be a JSON list')
    for i, entry in enumerate(entries):
        _fields(entry, f"{what} {i}", required, optional, ids)
    return entries


def _id(value, what):
    """A bus or candidate id as a new str, made while the parsed document is alive:
    keeping none of the parser's strings lets the document's memory go back to the
    OS once it is freed.  An id UTF-8 cannot encode (a lone surrogate such as
    ``"\\ud800"``) is a ProblemFormatError naming ``what``."""
    try:
        return str(value).encode("utf-8").decode("utf-8")
    except UnicodeEncodeError:
        raise ProblemFormatError(f"{what} has a lone surrogate: {value!r}") from None


def _parse_metric(doc):
    if doc is None:
        return MetricSpec()
    kind = doc.get("kind") if isinstance(doc, dict) else None
    _fields(doc, "weight", ("kind",), () if kind == "trace" else ("matrix",))
    if kind not in METRIC_KINDS:
        raise ProblemFormatError(f"unknown weight kind {kind!r}; expected one of {METRIC_KINDS}")
    kind = METRIC_KINDS[METRIC_KINDS.index(kind)]  # the package's string, not the parser's
    return MetricSpec(kind, doc.get("matrix"))  # MetricSpec validates and copies the matrix


def grid_model(doc):
    """The :class:`GridModel` of a problem file's ``"grid"`` block, a ring
    (:func:`ring_grid`) or a bus list.  A bus list is checked bus by bus, then line
    by line: unique ids, numbers in range, lines between two different known buses
    and no pair twice; then the lines must connect every bus."""
    if isinstance(doc, dict) and "topology" in doc:
        _fields(doc, "grid", ("topology", "buses"), _RING_DEFAULTS)
        if doc["topology"] != "ring":
            raise ProblemFormatError(f'unknown topology {doc["topology"]!r}')
        return ring_grid(doc["buses"], **{k: doc[k] for k in _RING_DEFAULTS if k in doc})
    _fields(doc, "grid", ("buses",), ("lines",))
    buses = _entries(doc, "buses", "bus", ("id", "inertia", "damping"), ("grounding",), ("id",))
    lines = _entries(doc, "lines", "line", ("from", "to", "susceptance"), (), ("from", "to"))
    if not buses:
        raise TopologyError("grid has no buses")
    pos, per_bus = {}, []
    for i, bus in enumerate(buses):
        bid = _id(bus["id"], f"bus {i} id")
        if bid in pos:
            raise TopologyError(f"duplicate bus id {bid!r}")
        pos[bid] = len(pos)
        per_bus.append([as_number(bus.get(key, 0.0), f"bus {bid!r} {key}", 0.0,
                                  strict=key != "grounding")
                        for key in ("inertia", "damping", "grounding")])
    ends, susceptance = {}, []
    for line in lines:
        i, j = str(line["from"]), str(line["to"])
        if i not in pos or j not in pos:
            raise TopologyError(f"line {i!r}-{j!r} references an unknown bus")
        if i == j:
            raise TopologyError(f"self-loop on bus {i!r}")
        if frozenset((i, j)) in ends:
            raise TopologyError(f"duplicate line between {i!r} and {j!r}")
        ends[frozenset((i, j))] = (pos[i], pos[j])
        susceptance.append(as_number(line["susceptance"], f"line {i!r}-{j!r} susceptance",
                                     0.0, strict=True))
    ends = np.array(list(ends.values()), dtype=np.intp).reshape(-1, 2)
    if not _connected(len(pos), ends):
        raise TopologyError("grid graph is not connected")
    return GridModel(tuple(pos), *np.array(per_bus).T, ends, np.array(susceptance))


def read_json(path, what, cached=None):
    """``(doc, "sha256:<hex>")`` of the JSON file ``path``, decoded as strict UTF-8; every
    failure is a ProblemFormatError naming ``what``.  When ``cached`` is given and the
    file is seekable, it is first hashed in chunks, and ``cached(digest)``, when not None,
    stands for ``doc``: the file is never held whole.  Otherwise it is read whole once,
    and the digest is taken from the bytes parsed."""
    try:
        with open(path, "rb") as fh:
            if cached is not None and fh.seekable():
                sha = hashlib.sha256()
                for chunk in iter(functools.partial(fh.read, 1 << 20), b""):
                    sha.update(chunk)
                digest = "sha256:" + sha.hexdigest()
                if (doc := cached(digest)) is not None:
                    return doc, digest
                fh.seek(0)
            data = fh.read()
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {what} {path}: {exc}") from None
    digest = "sha256:" + hashlib.sha256(data).hexdigest()
    try:
        data = data.decode("utf-8")
        return json.loads(data), digest  # the bytes are freed before the parse
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nesting too deep
        raise ProblemFormatError(f"invalid JSON in {what} {path}: {exc}") from None


# The sidecar's format tag: another layout of its arrays, or another package version, misses.
_SIDECAR_FORMAT = f"gramsel problem sidecar 1, gramsel {__version__}"


def _read_sidecar(sidecar, digest):
    """The explicit Problem cached in ``sidecar`` for the problem bytes ``digest``, or
    None when it is missing or unreadable, keyed by another format tag or digest, or
    fails the checks the JSON path makes of the same arrays."""
    try:
        with np.load(sidecar, allow_pickle=False) as z:
            key, kind, ids = json.loads(z["header"].tobytes())
            if key != [_SIDECAR_FORMAT, digest]:
                return None
            a = as_square(z["a"], "A")
            b = np.ascontiguousarray(as_array(z["b"], (len(a), len(ids)), "candidate columns"))
            metric = MetricSpec(kind, z.get("weight"))  # MetricSpec checks kind and weight
    except (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile,
            GramselError):
        return None
    return Problem(a, ids, b, digest, sidecar, metric=metric)


def _write_sidecar(sidecar, problem, path):
    """Store the checked arrays of the explicit ``problem`` read from ``path`` in
    ``sidecar`` if ``path`` is a regular file, through a temp file beside it and
    ``os.replace``, so that a reader finds a whole sidecar or none.  The sidecar takes
    the file's permission bits.  An OSError leaves no sidecar and is ignored."""
    metric = problem.metric
    # the key, metric kind and ids as JSON text: a numpy str array drops an id's trailing "\0"
    header = json.dumps([[_SIDECAR_FORMAT, problem.digest], metric.kind, problem.ids])
    arrays = {"header": np.frombuffer(header.encode(), np.uint8), "a": problem.a, "b": problem.b}
    if metric.weight is not None:
        arrays["weight"] = metric.weight
    head, name = os.path.split(sidecar)
    try:
        mode = os.stat(path).st_mode
        if not stat.S_ISREG(mode):
            return
        fd, tmp = tempfile.mkstemp(".gramsel.npz", name[:-len("gramsel.npz")], head or ".")
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fd, stat.S_IMODE(mode))
            np.savez(fh, **arrays)
        os.replace(tmp, sidecar)
        tmp = None
    except OSError:
        pass
    finally:
        if tmp is not None:  # the temp file of a write that failed or was interrupted
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def load_problem(path):
    """Load and validate a problem file (JSON).

    Every object has its required fields and no others (``?``: optional):

        problem    {"n", "A", "candidates": [candidate], "weight"?}
                   or {"grid", "weight"?}
        weight     {"kind", "matrix"?}, no "matrix" when kind is "trace"
        grid       {"topology": "ring", "buses": <count>, "chords"?, "seed"?,
                    "inertia"?, "damping"?, "susceptance"?, "grounding"?}
                   or {"buses": [bus], "lines"?: [line]}
        bus        {"id", "inertia", "damping", "grounding"?}
        line       {"from", "to", "susceptance"}
        candidate  {"id", "b"}

    Bus ids, line ends and candidate ids are JSON strings or integers (not
    booleans), read as strings.  A grid's candidates are all its HVDC links.
    ``Problem.digest`` is the sha256 of the file's bytes.  The problem keeps no
    object the JSON parser made, and its candidate set is checked on first use.

    An explicit problem that passes these checks is cached in the sidecar
    ``.<file name>.gramsel.npz`` beside a regular file, keyed by the sha256 and
    a format tag; while they match, later loads read its arrays instead of
    parsing the JSON.  A grid is built from its parameters and never cached.
    """
    head, name = os.path.split(os.fspath(path))
    sidecar = os.path.join(head, f".{name}.gramsel.npz")
    cached = (lambda d: _read_sidecar(sidecar, d)) if os.path.exists(sidecar) else None
    doc, digest = read_json(path, "problem file", cached)
    if isinstance(doc, Problem):
        return doc
    is_grid = isinstance(doc, dict) and "grid" in doc
    _fields(doc, "problem", ("grid",) if is_grid else ("n", "A", "candidates"), ("weight",))
    metric = _parse_metric(doc.get("weight"))

    if is_grid:
        grid = grid_model(doc["grid"])
        # The HVDC columns are built here, not with the candidate set, because the
        # benchmark's span contract expects hvdc_candidates on every grid command.
        return Problem(build_swing_matrix(grid), *hvdc_candidates(grid), digest, str(path),
                       grid, metric)

    n = as_number(doc["n"], '"n"', 1, integer=True)
    a = as_array(doc["A"], (n, n), "A")
    entries = _entries(doc, "candidates", "candidate", ("id", "b"), ids=("id",))
    ids = [_id(e["id"], f"candidate {i} id") for i, e in enumerate(entries)]
    try:
        b = as_array([e["b"] for e in entries] or np.zeros((0, n)), (len(ids), n),
                     "candidate columns")
    except GramselError:  # name the first bad candidate
        for cid, e in zip(ids, entries):
            as_array(e["b"], (n,), f"candidate {cid!r} column")
        raise
    problem = Problem(a, ids, np.ascontiguousarray(b.T), digest, str(path), metric=metric)
    _write_sidecar(sidecar, problem, path)
    return problem


def system_problem_dict(a, ids, b):
    """Problem-file dict for an explicit system: A plus candidate ``ids``
    whose columns are those of the (n, M) matrix ``b``, checked first so
    that nothing a loader rejects is written."""
    cs = CandidateSet(a, ids, b)
    return {
        "n": cs.n,
        "A": cs.a.tolist(),
        "candidates": [{"id": cid, "b": col} for cid, col in zip(cs.ids, cs.B.T.tolist())],
    }


def ring_problem_dict(n_buses, **params):
    """Problem-file dict describing a ring grid by its parameters, every field
    written: those not given take :func:`ring_grid`'s defaults.

    The grid is built once from the parameters as given, so parameters that
    a loader would reject raise here instead of producing an unloadable file;
    the integer ones are then written as JSON integers.
    """
    grid = {"topology": "ring", "buses": n_buses, **_RING_DEFAULTS, **params}
    grid_model(grid)
    grid.update({key: int(grid[key]) for key in ("buses", "chords", "seed")})
    return {"grid": grid}


_SCALARS = (str, int, float, type(None))


@functools.cache
def _flat_encoder(indent):
    """C-accelerated encoder whose item separator starts a line at ``indent``."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + indent, ": "))


def write_json(obj, write, indent=""):
    """Send ``obj`` to ``write`` in chunks, printed exactly as
    ``json.dumps(obj, indent=2, sort_keys=True)`` prints it with its
    pure-Python encoder, a :class:`Table` as its list of row dicts.  Each
    container of scalars is one C-encoder call whose item separator carries
    the line break; only containers of containers recurse, and a dict that
    holds containers needs str keys."""
    if isinstance(obj, Table):
        return obj.write_json(write, indent)
    inner = indent + "  "
    is_dict = isinstance(obj, dict)
    if not (is_dict or isinstance(obj, (list, tuple))) or not obj:
        write(_flat_encoder(inner).encode(obj))
    elif all(map(isinstance, obj.values() if is_dict else obj, itertools.repeat(_SCALARS))):
        flat = _flat_encoder(inner).encode(obj)
        write(f"{flat[0]}\n{inner}{flat[1:-1]}\n{indent}{flat[-1]}")
    else:
        keys = sorted(obj) if is_dict else range(len(obj))
        sep = "{\n" + inner if is_dict else "[\n" + inner
        for key in keys:
            write((sep + json.encoder.encode_basestring_ascii(key) + ": ") if is_dict else sep)
            write_json(obj[key], write, inner)
            sep = ",\n" + inner
        write("\n" + indent + ("}" if is_dict else "]"))


class Table:
    """Report rows held as columns: ``columns`` maps each name, in CSV header order,
    to a numpy array of one JSON scalar per row.  The rows are written 256 at a time
    and exist only as text."""

    def __init__(self, columns):
        self.columns = columns

    def _blocks(self):
        for i in range(0, len(next(iter(self.columns.values()))), 256):
            yield {name: col[i:i + 256].tolist() for name, col in self.columns.items()}

    def write_csv(self, out):
        """The header and rows as ``csv.writer(out, lineterminator="\\n")`` writes them."""
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.columns)
        for block in self._blocks():
            writer.writerows(zip(*block.values()))

    def write_json(self, write, indent):
        """The rows as ``write_json`` prints their list of dicts at ``indent``.  Each
        column is one C-encoder call, split at its item separator: no JSON text has a NUL."""
        inner, keys, encode = indent + "  ", sorted(self.columns), _flat_encoder("\0").encode
        fields = (f"\n{inner}  {encode(k).replace('%', '%%')}: %s" for k in keys)
        row = "{%s\n%s}" % (",".join(fields), inner)
        sep = "[\n" + inner
        for block in self._blocks():
            texts = (encode(block[k])[1:-1].split(",\n\0") for k in keys)
            write(sep + f",\n{inner}".join(map(row.__mod__, zip(*texts))))
            sep = ",\n" + inner
        write("[]" if sep[0] == "[" else f"\n{indent}]")


def write_problem(path, doc):
    """Write a problem dict as indented JSON with sorted keys and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        write_json(doc, fh.write)
        fh.write("\n")
