"""Segmentation losses: smoothed Dice, stable BCE-with-logits, 1:3 composite."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import DomainError
from .tensor import Tensor


def dice_loss(pred_prob: Tensor, target: Tensor) -> Tensor:
    """1 - (2|X.Y| + 1) / (|X| + |Y| + 1), with plain (unsquared) sums."""
    if np.any(pred_prob.data < 0) or np.any(pred_prob.data > 1):
        raise DomainError("dice_loss expects probabilities in [0,1]")
    inter = T.reduce_sum(T.mul(pred_prob, target))
    sum_x = T.reduce_sum(pred_prob)
    sum_y = float(target.data.sum())
    num = T.scale(inter, 2.0, 1.0)
    den = T.scale(sum_x, 1.0, sum_y + 1.0)
    return T.scale(T.div(num, den), -1.0, 1.0)


def bce_sigmoid_loss(logits: Tensor, target: Tensor) -> Tensor:
    """Mean binary cross-entropy over sigmoid(logits), log-sum-exp form."""
    # -[y log s + (1-y) log(1-s)] == softplus(z) - y*z
    per_pixel = T.add(T.softplus(logits), T.scale(T.mul(logits, target), -1.0))
    return T.reduce_mean(per_pixel)


def composite_loss(dice: Tensor, bce: Tensor) -> Tensor:
    """(1*dice + 3*bce) / 4 — the fixed 1:3 ratio with weights summing to 1."""
    return T.scale(T.add(dice, T.scale(bce, 3.0)), 0.25)
