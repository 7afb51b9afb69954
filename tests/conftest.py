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
