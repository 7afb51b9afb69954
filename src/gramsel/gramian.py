"""Controllability and observability Gramians.

Infinite-horizon Gramians come from the Lyapunov equation

    A W + W A^T + B B^T = 0,

through a :class:`LyapunovSolver` held for A: ``LyapunovSolver(a).gramian(b)``.
The observability Gramian of (A, C), which solves A^T W + W A + C^T C = 0, is
the controllability Gramian of the dual pair: ``LyapunovSolver(a.T).gramian(c.T)``.
The solver works by Schur reduction: factor A = U T U^T once, then solve the
quasi-triangular equation T Y + Y T^T = F per right-hand side by a
recursive blocked method (Jonsson & Kagstrom, ACM TOMS 2002) that puts
almost all of the work into matrix products and leaves LAPACK ``*trsyl``
only the small diagonal blocks.  When A is a uniformly damped grid's
``[[0, I], [-S, -c I]]`` with S symmetric, forward solves go through the
modes of S instead: 2x2 equations solved in closed form, an algorithm that
shares nothing with the Schur path, which adjoint solves keep.
Finite-horizon Gramians come from a single block matrix exponential,
composed over doubling sub-intervals when the horizon is long enough to
overflow the naive formula.  Every Gramian is returned as a
bitwise-symmetric (n, n) float array.
"""

import math
import warnings

import numpy as np

from .exceptions import DomainError, NumericalError, StabilityError
from .numerics import (
    as_array,
    as_number,
    as_square,
    finite,
    lapack,
    matrix_exponential,
    outer_sum,
    real_schur,
    spectral_abscissa,
    symmetrize,
)

__all__ = ["LyapunovSolver", "finite_horizon_gramian"]

# Symmetry tolerance accepted for Lyapunov right-hand sides.
_RHS_SYMMETRY_RTOL = 1e-8

# The finite-horizon block exponential is split into 2**k sub-intervals
# so that t_sub * ||A||_1 stays below this bound.  The F12 block is only
# accurate to eps * ||expm(block)||, and the -A block grows like
# e^{t_sub ||A||}, so the bound must keep that amplification near 1 --
# not merely below overflow.
_BLOCK_NORM_BOUND = 4.0

# Blocks of at most this order go to LAPACK *trsyl (unblocked level-2 code);
# larger ones are split.  trsyl costs ~0.1 us per solved entry at block sizes
# 8-64, so solve time is flat in the leaf size from 20 to 64 (n = 148-600,
# 1-thread OpenBLAS on a 2-vCPU x86-64 VM); below that call overhead grows.
_LEAF = 32

# A is Hurwitz iff max Re(lambda) < -_HURWITZ_MARGIN eps ||A||_1.  The Schur factor holds
# the spectrum only to about eps ||A||_1, so a smaller abscissa may have either sign, and
# the rule does not change when time is rescaled.  Measured as -alpha / (eps ||A||_1):
# A = Q diag(-1e9, -3e8, -1e8, -5e-9) Q^T for 200 seeded random orthogonal Q, -0.61 to
# 0.48; 3000 random grids of 1-8 buses, parameters 0.1-10, up to 6.6 if ungrounded and
# at least 4.4e11 if grounded; ring74 2.7e14, ring74 grounded by 1e-6 2.3e9, random40
# 2.2e13.  The factor must sit between about 10 and 2e9, and 1000 is well inside.
_HURWITZ_MARGIN = 1000.0


class LyapunovSolver:
    """Schur-reduction Lyapunov back end bound to one dynamics matrix.

    Factors ``a = U T U^T`` once and reads the Hurwitz rule off ``T``: a
    spectral abscissa below ``-_HURWITZ_MARGIN`` times eps ||A||_1;
    each :meth:`solve` then costs one recursive blocked quasi-triangular
    solve (matrix products, with LAPACK ``*trsyl`` on diagonal blocks of
    order at most ``_LEAF``) plus two basis transforms, for the forward
    equation or its adjoint.  When ``a`` has the second-order form of a grid
    with uniform inertia and damping, it also holds the eigenvectors of S, and
    a forward solve instead takes the four N x N planes of q to the mode basis and
    back, with 16 elementwise products between; adjoint solves, which give every
    candidate's score, stay on the Schur factor.
    """

    def __init__(self, a):
        a = as_square(a, "a")
        u, t = real_schur(a)
        # T is orthogonally similar to a; its spectrum is read off the diagonal blocks.
        alpha = spectral_abscissa(t)
        rounding = np.linalg.norm(np.finfo(float).eps * a, 1)  # scaled first: no overflow
        if not alpha < -_HURWITZ_MARGIN * rounding:  # the Hurwitz rule
            raise StabilityError(
                f"dynamics matrix is not Hurwitz to {_HURWITZ_MARGIN:g} times the Schur "
                f"factor's rounding level eps*||A||_1 = {rounding:.1e}: "
                f"max Re(eigenvalue) = {alpha:.6e}")
        self.a = a
        # a^T = (U J) (J T^T J) (U J)^T with J the order reversal, and J T^T J
        # is again upper quasi-triangular in Schur canonical form, so the
        # adjoint is the forward equation on these factors.
        self._factors = {False: (u, t), True: (u[:, ::-1].copy(), t[::-1, ::-1].T.copy())}
        self._trsyl = lapack().dtrsyl
        self._modes = _modes(a)

    @property
    def n(self):
        return self.a.shape[0]

    def solve(self, q, adjoint=False):
        """Solve a W + W a^T + q = 0 for symmetric q; returns symmetric W.

        ``adjoint`` solves a^T W + W a + q = 0 on the same factors instead.
        A NumericalError if W is not finite: finite q can overflow in the solve.
        """
        q = as_array(q, self.a.shape, "q")
        with np.errstate(over="ignore", invalid="ignore"):
            qs = np.ldexp(q, -np.frexp(np.abs(q).max())[1])  # exact; the norms stay in range
            if np.linalg.norm(qs - qs.T) > _RHS_SYMMETRY_RTOL * np.linalg.norm(qs):
                raise DomainError("right-hand side q must be symmetric")
            f = -symmetrize(q)
            if self._modes and not adjoint:
                w = _modal_solve(*self._modes, f)
            else:
                u, t = self._factors[bool(adjoint)]
                y = u.T @ f @ u
                if self._lyapunov(t, y):
                    warnings.warn(
                        "trsyl perturbed nearly-common eigenvalues to solve; "
                        "result may be inaccurate",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                w = u @ y @ u.T
            w = symmetrize(w)
        return finite(w, "the Lyapunov solution overflows: the Gramian is not finite")

    # The recursion overwrites the right-hand side with the solution and
    # returns True if any leaf solve perturbed its eigenvalues.

    def _lyapunov(self, t, f):
        """t Y + Y t^T = f for symmetric f, upper half solved and mirrored."""
        if t.shape[0] <= _LEAF:
            return self._leaf(t, t, f)
        k = _split(t)
        t11, t12, t22 = t[:k, :k], t[:k, k:], t[k:, k:]
        perturbed = self._lyapunov(t22, f[k:, k:])
        f[:k, k:] -= t12 @ f[k:, k:]
        perturbed |= self._sylvester(t11, t22, f[:k, k:])
        g = t12 @ f[:k, k:].T
        f[:k, :k] -= g + g.T
        perturbed |= self._lyapunov(t11, f[:k, :k])
        f[k:, :k] = f[:k, k:].T
        return perturbed

    def _sylvester(self, a, b, c):
        """a X + X b^T = c, splitting the larger of a and b."""
        m, p = c.shape
        if max(m, p) <= _LEAF:
            return self._leaf(a, b, c)
        if m < p:  # the transpose b X^T + X^T a^T = c^T splits b the same way
            return self._sylvester(b, a, c.T)
        k = _split(a)
        perturbed = self._sylvester(a[k:, k:], b, c[k:])
        c[:k] -= a[:k, k:] @ c[k:]
        return perturbed | self._sylvester(a[:k, :k], b, c[:k])

    def _leaf(self, a, b, c):
        y, scale, info = self._trsyl(a, b, c, tranb="C")
        if info < 0:
            raise NumericalError(f"trsyl: illegal argument {-info}")
        if scale != 1.0:
            if scale == 0.0:
                raise NumericalError("trsyl returned zero scale (overflow)")
            y = y / scale
        c[...] = y
        return info == 1

    def gramian(self, b):
        """Infinite-horizon Gramian of (a, b): the solve of ``outer_sum([b])``."""
        return self.solve(outer_sum([as_array(b, (self.n, None), "b")]))


def _modes(a):
    """``(V, planes)`` when ``a`` is ``[[0, I], [-S, -c I]]`` in (angle, frequency) state
    order with S = V diag(lam) V^T symmetric positive definite, else None.

    Every grid with uniform inertia m and damping d has this form, S = (L + G) / m and
    c = d / m.  In the basis V (x) I_2, A splits into 2x2 blocks A_i = [[0, 1], [-lam_i, -c]],
    and block (i, j) of W solves A_i Y + Y A_j^T = F_ij, whose 4x4 Kronecker sum on the
    row-major vec of Y has determinant (lam_i - lam_j)^2 + 2 c^2 (lam_i + lam_j), a sum
    of positive terms.  ``planes[p, r, k, l, i, j]`` is the entry of its inverse that
    takes F_ij[k, l] to Y[p, r]: the adjugate, whose entries are polynomials, over the
    determinant.  An ``a`` that passed the Hurwitz rule has c and every lam between
    about 5e-26 and 5e37 (its ones make ||A||_1 >= 1), so both stay far inside the
    float range.
    """
    n = a.shape[0] // 2
    if 2 * n != a.shape[0]:
        return None
    s, c, eye = -a[1::2, ::2], -a[1, 1], np.eye(n)  # a's blocks read in place, not copied
    if (a[::2, ::2].any() or not np.array_equal(a[::2, 1::2], eye)
            or not np.array_equal(a[1::2, 1::2], -c * eye) or not np.array_equal(s, s.T)):
        return None
    lam, v, info = lapack().dsyevd(s)
    # a failed eigensolve keeps the Schur path; the Hurwitz rule implies lam > 0, so
    # that test guards rounding only
    if info or not (lam > 0.0).all():
        return None
    al, be = lam[:, None], lam[None, :]
    d, sigma, cc, c2 = al - be, al + be, 2.0 * c * c, 2.0 * c
    planes = np.array(np.broadcast_arrays(
        -c * (sigma + cc), d - cc, -d - cc, -c2,
        be * (cc - d), -c2 * al, c2 * be, -d,
        al * (d + cc), c2 * al, -c2 * be, d,
        -c2 * al * be, al * d, -be * d, -c * sigma))
    planes /= d * d + cc * sigma
    return v, planes.reshape(2, 2, 2, 2, n, n)


def _modal_solve(v, planes, f):
    """A W + W A^T = f on the factors of :func:`_modes`."""
    n = v.shape[0]
    # ft[k, l, i, j] is entry (k, l) of the 2x2 block (i, j) of f in the mode basis
    ft = v.T @ f.reshape(n, 2, n, 2).transpose(1, 3, 0, 2) @ v
    y = (planes * ft).sum(axis=(2, 3))
    return (v @ y @ v.T).transpose(2, 0, 3, 1).reshape(f.shape)


def _split(t):
    """Middle split point of quasi-triangular t that never cuts a 2x2 block."""
    k = t.shape[0] // 2
    return k + 1 if t[k, k - 1] != 0.0 else k


def finite_horizon_gramian(a, b, t):
    """Finite-horizon controllability Gramian W(t) = int_0^t e^{As} BB^T e^{A^T s} ds.

    Evaluates the block exponential

        expm(t * [[-A, BB^T], [0, A^T]]) = [[.., F12], [0, F22]],
        W(t) = F22^T F12,

    which requires no quadrature and no stability assumption on ``a``.
    Long horizons are split into 2**k equal sub-intervals composed by the
    exact doubling rule W(2t) = W(t) + e^{At} W(t) e^{A^T t}, keeping the
    inverse-propagator block e^{-At} representable.  A NumericalError if W(t)
    or the block's h BB^T overflows, as either can for finite input.
    """
    a = as_square(a, "a")
    t = as_number(t, "horizon t", 0.0, strict=True)
    n = a.shape[0]
    b = as_array(b, (n, None), "b")

    with np.errstate(over="ignore"):  # an infinite norm is raised by value below
        norm_a = float(np.linalg.norm(a, 1))
    finite(t * norm_a, f"horizon t = {t:g} times ||A||_1 = {norm_a:g} overflows")
    doublings = 0
    if norm_a > 0.0 and t * norm_a > _BLOCK_NORM_BOUND:
        doublings = int(math.ceil(math.log2(t * norm_a / _BLOCK_NORM_BOUND)))
    h = t / 2.0**doublings

    block = np.block([[-a, outer_sum([b])], [np.zeros((n, n)), a.T]])
    with np.errstate(over="ignore", invalid="ignore"):
        block = finite(block * h, f"the finite-horizon block h b b^T, h = {h:g}, overflows")
        f = matrix_exponential(block)
        f12 = f[:n, n:]
        f22 = f[n:, n:]
        w = symmetrize(f22.T @ f12)
        phi = f22.T  # e^{a h}
        for _ in range(doublings):
            w = symmetrize(w + phi @ w @ phi.T)
            phi = phi @ phi
    return finite(w, f"the finite-horizon Gramian overflows at horizon t = {t:g}")
