"""Energy metrics derived from a Gramian, and minimum-energy input synthesis.

The ranking metrics (trace, weighted trace, squared H2 norm) are all of
the form trace(C_bar W) for some constant weighting, which is what makes
subset scores additive.  Minimum-energy synthesis applies W(t)^{-1}
through a symmetric eigendecomposition, so a singular W(t) is handled
explicitly on its range instead of blowing up inside a generic solve.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateGramianWarning, DomainError, UnreachableStateError
from .gramian import finite_horizon_gramian
from .numerics import (as_array, as_number, as_square, finite, matrix_exponential, outer_sum,
                       symmetrize)

__all__ = [
    "METRIC_KINDS",
    "MetricSpec",
    "evaluate_metric",
    "InputTrajectory",
    "synthesize_min_energy_input",
    "TransferResult",
    "simulate_transfer",
]

METRIC_KINDS = ("trace", "weighted_trace", "h2")

# Eigenvalues below SINGULAR_RTOL * lambda_max are treated as exact zeros
# when inverting a Gramian.
SINGULAR_RTOL = 1e-12

# Relative size of the out-of-range component of a target state above
# which the state is declared unreachable rather than merely degenerate.
_RANGE_RTOL = 1e-8

# Relative integrator tolerance of simulate_transfer; each block's absolute
# tolerance is this times the block's own scale.
_SIMULATE_RTOL = 1e-9


@dataclass(frozen=True)
class MetricSpec:
    """Declares how a Gramian is scored.

    kind
        ``"trace"``          -> trace(W)
        ``"weighted_trace"`` -> trace(weight @ W), any finite (n, n) weight; its
        symmetric part is used, and an indefinite one gives scores of either sign.
        ``"h2"``             -> trace(weight @ W @ weight.T), the *squared*
        H2 norm of the transfer function with output matrix ``weight``.
    """

    kind: str = "trace"
    weight: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise DomainError(
                f"unknown metric kind {self.kind!r}; expected one of {METRIC_KINDS}"
            )
        if self.kind == "trace":
            if self.weight is not None:
                raise DomainError("trace metric takes no weight matrix")
        else:
            if self.weight is None:
                raise DomainError(f"{self.kind} metric requires a weight matrix")
            name = f"{self.kind} weight matrix"
            weight = (as_square(self.weight, name) if self.kind == "weighted_trace"
                      else as_array(self.weight, (None, None), name))
            object.__setattr__(self, "weight", weight)

    @classmethod
    def weighted(cls, matrix):
        return cls("weighted_trace", matrix)

    @classmethod
    def h2(cls, output_matrix):
        return cls("h2", output_matrix)

    def state_weighting(self, n):
        """The symmetric (n, n) C_bar with metric(W) = trace(C_bar @ W) on n states; a
        DimensionError if the weight does not fit them, a NumericalError if C_bar overflows."""
        if self.kind == "trace":
            return np.eye(n)
        square = self.kind == "weighted_trace"
        w = as_array(self.weight, (n if square else None, n), f"{self.kind} weight matrix")
        with np.errstate(over="ignore", invalid="ignore"):
            cbar = symmetrize(w if square else w.T @ w)
        return finite(cbar, f"{self.kind} weight overflows: its state weighting C_bar "
                            "has non-finite entries")

    def describe(self):
        if self.kind == "trace":
            return "trace"
        return f"{self.kind}({self.weight.shape[0]}x{self.weight.shape[1]})"


def _gram_matrix(w):
    return symmetrize(as_square(w, "w"))


def evaluate_metric(spec, w):
    """Score a Gramian under a MetricSpec: trace(C_bar W), linear in W; NumericalError if
    the score overflows."""
    m = _gram_matrix(w)
    score = float(np.vdot(spec.state_weighting(m.shape[0]), m))
    return finite(score, f"{spec.describe()} score overflows to {score}")


def _range_solve(w, x):
    """Solve W y = x restricted to range(W) for the target state x.

    Raises UnreachableStateError when x has a component outside range(W)
    beyond _RANGE_RTOL * ||x||; warns with DegenerateGramianWarning when W
    is singular but x is consistent.
    """
    vals, vecs = np.linalg.eigh(_gram_matrix(w))
    if not np.any(x):
        return np.zeros_like(x)
    lam_max = max(float(vals[-1]), 0.0)
    zero = vals <= SINGULAR_RTOL * lam_max
    coeff = vecs.T @ x
    leakage = np.linalg.norm(coeff[zero])
    if leakage > _RANGE_RTOL * np.linalg.norm(x):
        raise UnreachableStateError(
            "target state lies outside the range of the gramian "
            f"(out-of-range component {leakage:.3e} of norm "
            f"{np.linalg.norm(x):.3e})"
        )
    if zero.any():
        warnings.warn(
            "gramian is singular; target state resolved via pseudo-inverse "
            "on the reachable subspace",
            DegenerateGramianWarning,
            stacklevel=3,
        )
    y = np.zeros_like(coeff)
    keep = ~zero
    y[keep] = coeff[keep] / vals[keep]
    return vecs @ y


@dataclass(frozen=True)
class InputTrajectory:
    """Sampled open-loop input u(tau) on a uniform grid over [0, t]."""

    times: np.ndarray  # (samples,)
    inputs: np.ndarray  # (samples, m)
    energy: float  # analytic minimum energy x_f^T W(t)^{-1} x_f
    costate: np.ndarray  # (n,) W(t)^{-1} x_f, the costate at tau = t

    @property
    def samples(self):
        return self.times.shape[0]


def synthesize_min_energy_input(a, b, t, x_f, samples=201):
    """Minimum-energy open-loop input steering (a, b) from 0 to x_f in time t.

    Implements u*(tau) = B^T e^{A^T (t - tau)} W(t)^{-1} x_f sampled on a
    uniform grid of ``samples`` points.  The matrix exponentials are
    evaluated by backward stepping with a single per-step propagator, so
    the cost is one finite-horizon Gramian plus one expm.
    """
    a = as_square(a, "a")
    n = a.shape[0]
    b = as_array(b, (n, None), "b")
    samples = as_number(samples, "samples", 2, integer=True)
    x = as_array(x_f, (n,), "x_f")
    t = as_number(t, "horizon t", 0.0, strict=True)

    eta = _range_solve(finite_horizon_gramian(a, b, t), x)  # W(t)^{-1} x_f

    times = np.linspace(0.0, t, samples)
    step = matrix_exponential(a.T * (t / (samples - 1)))
    z = np.empty((samples, n))
    z[-1] = eta
    for k in range(samples - 2, -1, -1):
        z[k] = step @ z[k + 1]
    inputs = z @ b  # row k: B^T z_k
    return InputTrajectory(times=times, inputs=inputs, energy=float(x @ eta), costate=eta)


@dataclass(frozen=True)
class TransferResult:
    """Outcome of simulating the synthesized input through the dynamics."""

    times: np.ndarray  # (samples,)
    states: np.ndarray  # (samples, n)
    inputs: np.ndarray  # (samples, m)
    terminal_error: float  # ||x(t) - x_f||
    input_energy: float  # int_0^t ||u||^2 d tau, to compare with the trajectory's energy


def simulate_transfer(a, b, x_f, trajectory):
    """Drive x' = a x + b u with the synthesized minimum-energy input and integrate.

    ``trajectory`` is the :class:`InputTrajectory` that
    :func:`synthesize_min_energy_input` returned for the same (a, b, x_f);
    it supplies the horizon, the sample grid and W(t)^{-1} x_f, so W(t) is
    not built a second time.  The costate z(tau) = e^{A^T (t-tau)} W(t)^{-1} x_f
    obeys z' = -A^T z, so the state, costate, and running input energy are
    integrated jointly with an adaptive Runge-Kutta scheme; no
    sampled-and-held input approximation is involved.
    """
    import scipy.integrate  # only this function integrates; keep it off the CLI start-up

    a = as_square(a, "a")
    n = a.shape[0]
    b = as_array(b, (n, None), "b")
    x = as_array(x_f, (n,), "x_f")
    eta, t = trajectory.costate, float(trajectory.times[-1])
    z0 = matrix_exponential(a.T * t) @ eta
    bbt = outer_sum([b])

    def rhs(_tau, y):
        xs, zs = y[:n], y[n : 2 * n]
        u_sq = float(zs @ (bbt @ zs))  # ||B^T z||^2
        return np.concatenate([a @ xs + bbt @ zs, -(a.T @ zs), [u_sq]])

    y0 = np.concatenate([np.zeros(n), z0, [0.0]])
    # the transfer is linear in x_f, so the tolerances must scale with it: the states end
    # at x_f, the costates run from z0 to eta, and the energy ends at x_f^T eta; a zero
    # block (x_f = 0) stays exactly zero, and tiny only keeps its tolerance positive
    scales = [np.abs(x).max(), np.abs([*z0, *eta]).max(), abs(trajectory.energy)]
    atol = _SIMULATE_RTOL * np.maximum(np.repeat(scales, [n, n, 1]), np.finfo(float).tiny)
    sol = scipy.integrate.solve_ivp(
        rhs, (0.0, t), y0, t_eval=trajectory.times, rtol=_SIMULATE_RTOL, atol=atol,
        method="RK45",
    )
    if not sol.success:  # pragma: no cover - solver failure is pathological
        raise DomainError(f"trajectory integration failed: {sol.message}")
    states = sol.y[:n].T
    costates = sol.y[n : 2 * n].T
    inputs = costates @ b
    return TransferResult(
        times=sol.t,
        states=states,
        inputs=inputs,
        terminal_error=float(np.linalg.norm(states[-1] - x)),
        input_energy=float(sol.y[2 * n, -1]),
    )
