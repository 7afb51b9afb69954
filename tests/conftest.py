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


@pytest.fixture
def reversed_scores(monkeypatch):
    """Planted fault: the score vector placement computes comes back reversed, so
    each weight is paired with another candidate's column (same plain sum)."""
    einsum = placement.np.einsum  # numpy's, for the whole package: spoil only the scoring

    def spoiled(subscripts, *args, **kw):
        scores = einsum(subscripts, *args, **kw)
        return scores[::-1] if subscripts == "ij,ij->j" else scores

    monkeypatch.setattr(placement.np, "einsum", spoiled)
