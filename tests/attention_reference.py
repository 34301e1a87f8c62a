"""The attention normalization as two traced ops, the reference for tests."""

from fusionseg import tensor as T
from fusionseg.tensor import Tensor


def double_normalize(a: Tensor) -> Tensor:
    """Softmax over pixels (last axis), then L1 norm over memory units; [..., S,N]."""
    return T.l1_normalize_axis(T.softmax_axis(a, axis=-1), axis=-2)
