"""Dense linear-algebra primitives shared across the package.

Thin, validated wrappers over LAPACK-backed numpy/scipy routines:
eigenvalues, the spectral abscissa, real Schur form and the matrix
exponential.  The Hurwitz rule, an abscissa below a multiple of the Schur
factor's rounding level, is applied in one place: ``gramian.LyapunovSolver``,
which every infinite-horizon computation builds.  :func:`as_array` checks
every array from outside the program against the shape it must have,
:func:`as_square` a matrix whose order is not known in advance, and
:func:`as_number` every number.
Commands that never factor a matrix (``gen``, ``--version``) load numpy
only.  Factoring loads scipy's f2py LAPACK module through :func:`lapack`,
which skips ``scipy.linalg``'s package import (most of scipy's start-up
cost); only :func:`matrix_exponential` imports ``scipy.linalg``.
"""

import importlib.machinery
import importlib.util
import itertools
import math
import numbers
import os
import sys

import numpy as np

from .exceptions import DimensionError, DomainError, NonFiniteError, NumericalError

__all__ = [
    "as_array",
    "as_number",
    "as_square",
    "eigenvalues",
    "spectral_abscissa",
    "lapack",
    "matrix_exponential",
    "outer_sum",
    "real_schur",
    "symmetrize",
]

def as_array(x, shape, name="array"):
    """Coerce ``x`` to a finite float array of ``shape``; every error names ``name``.

    ``shape`` has one entry per axis, an int for an exact length or None for
    any: ``(n,)`` is a length-n vector, ``(None, None)`` any matrix.  Input
    that is not numeric (or holds a string or a boolean), then a wrong shape,
    raise DimensionError; then non-finite entries raise NonFiniteError.  An
    ndarray is judged by its dtype; nested lists are scanned, since numpy reads
    ``[True, 0.5]`` as floats."""
    try:
        raw = np.asarray(x)
        if raw.dtype.kind in "USO" and any(isinstance(v, (str, bytes)) for v in raw.flat):
            raise TypeError("it holds a string")
        entries = x if raw.ndim and not isinstance(x, np.ndarray) else ()
        for _ in range(raw.ndim - 1):
            entries = itertools.chain.from_iterable(entries)
        if raw.dtype.kind == "b" or bool in map(type, entries):
            raise TypeError("it holds a boolean")
        x = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionError(f"{name} is not numeric: {exc}") from None
    except OverflowError:  # an int beyond the float range
        raise NonFiniteError(f"{name} contains non-finite entries") from None
    if x.ndim != len(shape) or any(d is not None and d != s for d, s in zip(shape, x.shape)):
        expected = str(tuple(shape)).replace("None", "any")
        raise DimensionError(f"{name} has shape {x.shape}, expected {expected}")
    if x.size and not np.isfinite([x.min(), x.max()]).all():  # NaN propagates to both
        raise NonFiniteError(f"{name} contains non-finite entries")
    return x


def as_square(a, name="matrix"):
    """``as_array(a, (n, n), name)`` for the order n >= 1 that ``a`` has."""
    a = as_array(a, (None, None), name)
    a = as_array(a, (a.shape[0],) * 2, name)
    if not a.size:
        raise DimensionError(f"{name} has order 0, expected at least 1")
    return a


def as_number(x, name, low, high=math.inf, *, integer=False, strict=False):
    """Validate one real number; every DomainError names ``name``.

    Rejects bools, non-numbers, non-finite values and, if ``integer``,
    fractions; then requires low <= x <= high (low < x if ``strict``).
    Returns an int if ``integer``, else a float.
    """
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise DomainError(f"{name} must be a number, got {x!r}")
    try:
        value = float(x)
    except OverflowError:  # an int beyond the float range
        value = math.inf
    if not math.isfinite(value) or (integer and not value.is_integer()):
        kind = "integer" if integer else "number"
        raise DomainError(f"{name} must be a finite {kind}, got {x}")
    value = int(x) if integer else value
    if (value <= low if strict else value < low) or value > high:
        if high == math.inf:
            raise DomainError(f"{name} must be {'>' if strict else '>='} {low}, got {value}")
        op = "<" if strict else "<="
        raise DomainError(f"{name} must satisfy {low} {op} {name} <= {high}, got {value}")
    return value


def symmetrize(a):
    """Exact symmetric part (a + a.T) / 2 (bitwise symmetric)."""
    return (a + a.T) / 2.0


def outer_sum(blocks):
    """``sum b b^T`` over column blocks b of one height; a NumericalError if it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        q = sum(b @ b.T for b in blocks)
    if not np.isfinite(q).all():
        raise NumericalError("b b^T overflows: the input columns are too large to score")
    return q


def eigenvalues(m):
    """All n eigenvalues of a square matrix (LAPACK ``*geev``, complex dtype;
    conjugate-paired for real input)."""
    m = as_square(m, "m")
    try:
        return np.linalg.eigvals(m).astype(complex)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from None


def spectral_abscissa(m):
    """max Re(lambda) over the spectrum of m."""
    return float(np.max(eigenvalues(m).real))


def matrix_exponential(m):
    """expm(m) via scaling-and-squaring, with an explicit overflow check."""
    import scipy.linalg

    m = as_square(m, "m")
    with np.errstate(over="ignore", invalid="ignore"):
        e = scipy.linalg.expm(m)
    if not np.isfinite(e).all():
        raise NumericalError(
            "overflow in matrix exponential "
            f"(input 1-norm {np.linalg.norm(m, 1):.3e})"
        )
    return e


def lapack():
    """scipy's f2py LAPACK module, ``scipy.linalg._flapack``.

    The module that ``scipy.linalg.get_lapack_funcs`` draws its double
    routines from, loaded without running ``scipy/linalg/__init__.py``:
    ``import scipy`` first does the platform's library set-up, then the
    extension is found in scipy's ``linalg`` directory and registered under
    its own name, so a later ``import scipy.linalg`` reuses it.  An entry
    already in ``sys.modules`` is returned as it is.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        import scipy

        path = os.path.join(scipy.__path__[0], "linalg")
        spec = importlib.machinery.PathFinder.find_spec(name, [path])
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module


def _unsorted(*_):
    """gees' eigenvalue selector, never called when sort_t=0."""


def real_schur(m):
    """Real Schur decomposition m = Q T Q^T.

    Returns ``(q, t)`` with orthogonal ``q`` and quasi-upper-triangular
    ``t`` (1x1 / 2x2 diagonal blocks). Already-triangular input passes
    through unchanged with ``q = I``.  Makes the workspace query and the
    ``dgees`` call that ``scipy.linalg.schur(m, output="real")`` makes, so
    the factors are bitwise the same.
    """
    m = as_square(m, "m")
    gees = lapack().dgees
    lwork = gees(_unsorted, m, lwork=-1)[-2][0].real.astype(np.int_)
    t, _, _, _, q, _, info = gees(_unsorted, m, lwork=lwork, overwrite_a=False, sort_t=0)
    if info < 0:
        raise NumericalError(f"gees: illegal argument {-info}")
    if info > 0:
        raise NumericalError("Schur QR iteration failed to converge: "
                             "Schur form not found. Possibly ill-conditioned.")
    return q, t
