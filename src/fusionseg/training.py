"""Training loop, cosine schedule, evaluation, ablation matrix, map export."""

from __future__ import annotations

import json
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import tensor as T
from .config import TrainConfig
from .errors import ConfigurationError, ContractError, DomainError
from .gan import GeneratorNet
from .checkpoint import load_into_params
from .losses import bce_sigmoid_loss, composite_loss, dice_loss
from .metrics import confusion_matrix, fwiou, iou_per_class
from .segnet import AblationConfig, FusionSegNet
from .synthdata import load_split, quantize_u8, write_pgm
from .tensor import AdamW, Tensor


def lr_schedule(epoch: int, config: TrainConfig) -> float:
    """Cosine annealing from lr_init at epoch 0 to lr_min at the last epoch."""
    if not 0 <= epoch < config.epochs:
        raise ContractError(f"epoch {epoch} outside [0,{config.epochs})")
    if config.epochs == 1:
        return config.lr_init
    frac = epoch / (config.epochs - 1)
    return config.lr_min + 0.5 * (config.lr_init - config.lr_min) * (
        1.0 + math.cos(math.pi * frac))


def load_generator_from(path) -> GeneratorNet:
    """Rebuild only the SAR-to-optical generator from a GAN pair checkpoint."""
    if not Path(path).exists():
        raise ConfigurationError(f"use_gan set but no GAN checkpoint at {path}")
    g = GeneratorNet(np.random.Generator(np.random.PCG64(0)))
    load_into_params(path, g.named_params("g_xy"))
    return g


def build_net(config: TrainConfig) -> FusionSegNet:
    generator = None
    if config.ablation.use_gan:
        generator = load_generator_from(config.gan_checkpoint)
    return FusionSegNet(config.ablation, seed=config.seed, generator=generator)


def batch_losses(net, x: np.ndarray, masks: np.ndarray):
    """(dice, bce, composite) losses of ``net(x)``; masks are [B,H,W] in {0,1}."""
    logits = net(Tensor(x))
    target = Tensor(masks[:, None])
    probs = T.sigmoid(logits)
    dice = dice_loss(probs, target)
    bce = bce_sigmoid_loss(logits, target)
    return dice, bce, composite_loss(dice, bce)


def _forward_batches(fn, x: np.ndarray, batch_size: int):
    """``fn`` of ``x`` batch by batch, with no tape, as one array; None if empty."""
    with T.no_grad():
        parts = [fn(Tensor(x[start:start + batch_size])).data
                 for start in range(0, len(x), batch_size)]
    return np.concatenate(parts) if parts else None


def predicted_masks(net, sar: np.ndarray, batch_size: int) -> np.ndarray:
    """Boolean foreground masks [N,H,W] of a nonempty split.

    ``net`` maps an input batch to logits; a non-finite one is a DomainError
    that names the first index of its batch.
    """
    logits = _forward_batches(net, sar, batch_size)
    bad = np.argwhere(~np.isfinite(logits))
    if len(bad):
        start = bad[0, 0] // batch_size * batch_size
        raise DomainError(f"non-finite logits in the batch at index {start}")
    # not logits >= 0: a tiny negative logit rounds to probability 0.5
    return T.sigmoid(Tensor(logits)).data[:, 0] >= 0.5


def evaluate(net, sar: np.ndarray, masks: np.ndarray, batch_size: int = 8):
    """One confusion matrix over a split, and the scores it gives.

    ``net`` is any callable from an input batch to logits: a ``FusionSegNet``
    on SAR images, or its ``body`` on inputs it has stitched already.
    """
    if len(sar) == 0:
        raise DomainError("cannot evaluate an empty split")
    fg = predicted_masks(net, sar, batch_size)
    counts = confusion_matrix(fg.astype(np.int64), masks.astype(np.int64), 2)
    score = fwiou(counts)
    return {"fwiou": score, "fwiou_percent": 100.0 * score,
            "iou_per_class": [float(v) for v in iou_per_class(counts)],
            "confusion": counts.tolist()}


def train(config: TrainConfig, metrics_path=None, checkpoint_path=None,
          best_checkpoint_path=None, log=print):
    """Full segmentation training run; returns (net, metrics records)."""
    sar_train, mask_train, _ = load_split(config.data_dir, "train")
    sar_val, mask_val, _ = load_split(config.data_dir, "val")
    if len(sar_train) == 0:
        raise ConfigurationError("training split is empty")
    net = build_net(config)
    opt = AdamW(net.named_params(), config.weight_decay)
    rng = np.random.Generator(np.random.PCG64(config.seed + 7))
    records = []
    # the generator is frozen and per-image, so one stitch of each split
    # serves every epoch and every batch cut from it
    train_inputs = _forward_batches(net.stitch, sar_train, config.batch_size)
    val_inputs = _forward_batches(net.stitch, sar_val, config.batch_size)
    best_fwiou = -1.0
    with open(metrics_path or os.devnull, "w") as metrics_file:
        for epoch in range(config.epochs):
            lr = lr_schedule(epoch, config)
            order = rng.permutation(len(sar_train))
            dice_sum = bce_sum = comp_sum = 0.0
            n_batches = 0
            for start in range(0, len(order), config.batch_size):
                idx = order[start:start + config.batch_size]
                dice, bce, comp = batch_losses(
                    net.body, train_inputs[idx], mask_train[idx])
                if not np.isfinite(comp.item()):
                    raise DomainError(
                        f"non-finite composite loss at epoch {epoch}")
                comp.backward()
                opt.step(lr)
                dice_sum += dice.item()
                bce_sum += bce.item()
                comp_sum += comp.item()
                n_batches += 1
            val = None
            if val_inputs is not None:
                val = evaluate(net.body, val_inputs, mask_val, config.batch_size)
            else:  # the loss predates the step: a forward catches overflowed weights
                logits = _forward_batches(net.body, train_inputs[idx],
                                          config.batch_size)
                if not np.isfinite(logits).all():
                    raise DomainError(f"non-finite logits after epoch {epoch}")
            record = {
                "epoch": epoch,
                "train_loss": {"dice": dice_sum / n_batches,
                               "bce": bce_sum / n_batches,
                               "composite": comp_sum / n_batches},
                "val_fwiou": val["fwiou"] if val else None,
                "val_iou_per_class": val["iou_per_class"] if val else None,
                "lr": lr,
            }
            records.append(record)
            metrics_file.write(json.dumps(record, sort_keys=True) + "\n")
            metrics_file.flush()
            if log:
                log(f"epoch {epoch}: loss={record['train_loss']['composite']:.4f}"
                    f" val_fwiou={record['val_fwiou']}")
            if checkpoint_path:
                net.save(checkpoint_path)
            if best_checkpoint_path and val and val["fwiou"] > best_fwiou:
                best_fwiou = val["fwiou"]
                net.save(best_checkpoint_path)
    return net, records


ABLATION_ROWS = (
    ("body", AblationConfig(False, False, False)),
    ("gan", AblationConfig(True, False, False)),
    ("gan+att", AblationConfig(True, True, False)),
    ("gan+att+combine", AblationConfig(True, True, True)),
)


def run_ablation(config: TrainConfig, log=print):
    """Train and evaluate the four configurations with identical budgets."""
    sar_test, mask_test, _ = load_split(config.data_dir, "test")
    if len(sar_test) == 0:
        sar_test, mask_test, _ = load_split(config.data_dir, "val")
    if len(sar_test) == 0:
        # before any row trains: evaluate would reject the split only after
        raise ConfigurationError("ablation needs a nonempty test or val split")
    # before any row trains: the GAN rows load it only after the body row
    load_generator_from(config.gan_checkpoint)
    rows = []
    for name, ablation in ABLATION_ROWS:
        cfg = replace(config, ablation=ablation)
        net, _ = train(cfg, log=None)
        result = evaluate(net, sar_test, mask_test, cfg.batch_size)
        rows.append({"config": name,
                     "use_gan": ablation.use_gan,
                     "use_attention": ablation.use_attention,
                     "use_combine": ablation.use_combine,
                     "fwiou": result["fwiou"],
                     "fwiou_percent": result["fwiou_percent"]})
        if log:
            log(f"{name}: fwiou={result['fwiou']:.5f}")
    return rows


def format_ablation_table(rows) -> str:
    header = f"{'Config':<18}{'CycGAN':<8}{'Att':<6}{'Combine':<9}{'FwIoU':>8}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(f"{r['config']:<18}"
                     f"{'x' if r['use_gan'] else '':<8}"
                     f"{'x' if r['use_attention'] else '':<6}"
                     f"{'x' if r['use_combine'] else '':<9}"
                     f"{r['fwiou_percent']:>8.3f}")
    return "\n".join(lines)


def export_maps(net: FusionSegNet, sar: np.ndarray, masks: np.ndarray,
                out_dir, batch_size: int = 8):
    """Thresholded {0,255} prediction masks plus input/truth/pred montages."""
    if len(sar) == 0:
        raise DomainError("cannot export maps of an empty split")
    pred = np.where(predicted_masks(net, sar, batch_size), 255, 0).astype(np.uint8)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for i in range(len(sar)):
        pred_path = out / f"pred_{i:05d}.pgm"
        write_pgm(pred_path, pred[i])
        montage = np.concatenate([
            quantize_u8(sar[i, 0]),
            np.where(masks[i] > 0, 255, 0).astype(np.uint8),
            pred[i]], axis=1)
        write_pgm(out / f"montage_{i:05d}.pgm", montage)
        written.append(str(pred_path))
    return written
