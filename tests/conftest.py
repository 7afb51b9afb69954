import pytest

from gramsel import placement


@pytest.fixture
def skewed_adjoint(monkeypatch):
    """Planted fault: placement's adjoint solutions come back scaled by 1 + 1e-6."""

    class SkewedAdjointSolver(placement.LyapunovSolver):
        def solve(self, q, adjoint=False):
            p = super().solve(q, adjoint)
            return p * (1.0 + 1e-6) if adjoint else p

    monkeypatch.setattr(placement, "LyapunovSolver", SkewedAdjointSolver)


@pytest.fixture
def forward_for_adjoint(monkeypatch):
    """Planted fault: placement's adjoint solves return the forward solution."""

    class ForwardForAdjointSolver(placement.LyapunovSolver):
        def solve(self, q, adjoint=False):
            return super().solve(q)

    monkeypatch.setattr(placement, "LyapunovSolver", ForwardForAdjointSolver)
