"""Finite-difference check of the tensor engine's reverse-mode gradients."""

import numpy as np

from fusionseg.tensor import Tensor


def grad_check(f, x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error of backward() against central finite differences."""
    x.grad = None
    out = f(x)
    out.backward()
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    flat = x.data.ravel()
    aflat = analytic.ravel()
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x).item()
        flat[i] = orig - eps
        fm = f(x).item()
        flat[i] = orig
        numeric = (fp - fm) / (2.0 * eps)
        err = abs(aflat[i] - numeric) / max(1.0, abs(numeric))
        worst = max(worst, err)
    x.grad = None
    return worst
