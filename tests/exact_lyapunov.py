"""An exact rational oracle for the adjoint Lyapunov equation of a small system.

:func:`adjoint_solution` solves ``A^T P + P A + C_bar = 0`` in
``fractions.Fraction`` over the n(n + 1)/2 unknowns ``P_ij``, i <= j, by
Gauss-Jordan elimination.  With rational A, C_bar and columns b, the weights
``b^T P b`` and their ties are exact.  It shares no code with Schur, trsyl or
BLAS; at n = 6 a solve takes some tens of milliseconds.
"""

from fractions import Fraction


def adjoint_solution(a, cbar):
    """The symmetric P with ``A^T P + P A + C_bar = 0``, as nested lists of Fraction.

    ``a`` and ``cbar`` are (n, n) nested sequences of numbers that Fraction takes
    exactly (ints, floats, Fractions); ``cbar`` is read on and above its diagonal.
    A ValueError if the equation has no unique solution."""
    n = len(a)
    a = [[Fraction(v) for v in row] for row in a]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    index = {pair: u for u, pair in enumerate(pairs)}

    def unknown(i, j):
        return index[min(i, j), max(i, j)]

    rows = []
    for k, l in pairs:  # (A^T P)_kl = sum_i a_ik P_il and (P A)_kl = sum_i P_ki a_il
        row = [Fraction(0)] * len(pairs) + [-Fraction(cbar[k][l])]
        for i in range(n):
            row[unknown(i, l)] += a[i][k]
            row[unknown(k, i)] += a[i][l]
        rows.append(row)
    for c in range(len(pairs)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            raise ValueError("A^T P + P A + C_bar = 0 has no unique solution")
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r, row in enumerate(rows):
            if r != c and row[c]:
                rows[r] = [v - row[c] * w for v, w in zip(row, rows[c])]
    x = [row[-1] for row in rows]
    return [[x[unknown(i, j)] for j in range(n)] for i in range(n)]


def quadratic_form(p, b):
    """``b^T P b`` exactly, for a column ``b`` of numbers that Fraction takes exactly."""
    b = [Fraction(v) for v in b]
    return sum(bi * pij * bj for bi, row in zip(b, p) for pij, bj in zip(row, b))
