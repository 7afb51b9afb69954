"""The normwise backward error of a computed Lyapunov solution.

For ``A W + W A^T + Q = 0``,

    eta = ||A W + W A^T + Q||_F / (2 ||A||_F ||W||_F + ||Q||_F)

(Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., SIAM 2002,
ch. 16).  A backward-stable solve keeps eta near n eps, so every residual
check in the tests asserts ``backward_error(a, w, q) <= n * eps``.
"""

import numpy as np


def backward_error(a, w, q):
    """eta of ``w`` as a solution of ``a w + w a^T + q = 0``."""
    residual = np.linalg.norm(a @ w + w @ a.T + q)
    return residual / (2 * np.linalg.norm(a) * np.linalg.norm(w) + np.linalg.norm(q))
