"""Confusion counts as [k,k] int64 arrays, per-class IoU and frequency-weighted IoU."""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError


def confusion_matrix(pred_mask, true_mask, k: int) -> np.ndarray:
    """[k,k] int64 counts, rows = ground truth class, columns = prediction."""
    pred = np.asarray(pred_mask)
    true = np.asarray(true_mask)
    if pred.shape != true.shape:
        raise DimensionError(f"mask shape mismatch: {pred.shape} vs {true.shape}")
    p = pred.ravel().astype(np.int64)
    t = true.ravel().astype(np.int64)
    if p.size and (p.min() < 0 or p.max() >= k or t.min() < 0 or t.max() >= k):
        raise DomainError(f"class values must lie in [0,{k})")
    return np.bincount(k * t + p, minlength=k * k).reshape(k, k)


def iou_per_class(counts: np.ndarray) -> np.ndarray:
    tp = np.diag(counts).astype(np.float64)
    truth = counts.sum(axis=1).astype(np.float64)
    pred = counts.sum(axis=0).astype(np.float64)
    union = truth + pred - tp
    iou = np.ones(len(counts))  # class absent from both truth and prediction: 1
    present = union > 0
    iou[present] = tp[present] / union[present]
    return iou


def fwiou(counts: np.ndarray) -> float:
    """Per-class IoU weighted by ground-truth pixel frequency."""
    total = int(counts.sum())
    if total == 0:
        raise DomainError("fwiou of an empty confusion matrix")
    truth = counts.sum(axis=1).astype(np.float64)
    iou = iou_per_class(counts)
    weights = truth / total
    return float(np.sum(np.where(truth > 0, weights * iou, 0.0)))
