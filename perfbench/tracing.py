"""Span tracing from outside the library: wrap public functions, record spans.

A ``Tracer`` replaces the public functions and methods of each fusionseg
module with wrappers that record one span per call (name, parent span, root
span, start, end). Functions that other modules imported by name are
replaced in every module that holds them, so ``from .tensor import
adamw_step`` in ``training`` is traced too. Nothing inside ``src/`` changes;
``uninstall`` puts the originals back.

Spans stay in memory; ``summarise`` turns them into the per-layer metrics
named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

from fusionseg import (attention, checkpoint, gan, losses, metrics, segnet,
                       synthdata, tensor, training)

ELEMENTWISE = ("add", "mul", "div", "scale", "relu", "sigmoid", "softplus",
               "absolute")
# every public tensor op except reduce_mean, which is scale(reduce_sum(x))
# and would count its two inner ops twice
OTHER_OPS = ("matmul", "transpose2d", "reshape", "softmax_axis",
             "l1_normalize_axis", "concat_channels", "concat_batch",
             "batch_slice", "upsample_nearest", "spatial_mean", "tile_spatial",
             "reduce_sum")
TENSOR_OPS = ("conv2d", "pointwise_conv", "batchnorm2d") + ELEMENTWISE + OTHER_OPS
STAGES = ("segnet.stitch", "segnet.encoder", "segnet.aspp", "segnet.decoder",
          "segnet.forward", "attention.stage", "gan.generator",
          "gan.discriminator", "gan.train_step")


def _conv_gflop(args, out):
    w = args[1].data
    return 2.0 * out.data.size * w.shape[1] * w.shape[2] * w.shape[3] / 1e9


def _batch(args, _out):
    return args[1].data.shape[0]


def _targets():
    """(owner, attribute, span name, work counter) for every traced callable."""
    t = [(tensor, "conv2d", "tensor.conv2d", _conv_gflop),
         (tensor, "pointwise_conv", "tensor.pointwise_conv", _conv_gflop),
         (tensor, "batchnorm2d", "tensor.batchnorm2d", None)]
    t += [(tensor, op, "tensor.elementwise", None) for op in ELEMENTWISE]
    t += [(tensor, op, "tensor.other", None) for op in OTHER_OPS]
    t += [(tensor.Tensor, "backward", "tensor.backward", None),
          (tensor, "adamw_step", "tensor.adamw_step", None),
          (attention.AttentionStage, "__call__", "attention.stage", None),
          (gan.GeneratorNet, "__call__", "gan.generator", _batch),
          (gan.DiscriminatorNet, "__call__", "gan.discriminator", None),
          (gan, "gan_train_step", "gan.train_step", None),
          (segnet, "stitch_channels_input", "segnet.stitch", None),
          (segnet.Encoder, "__call__", "segnet.encoder", None),
          (segnet.Aspp, "__call__", "segnet.aspp", None),
          (segnet.Decoder, "__call__", "segnet.decoder", None),
          (segnet.FusionSegNet, "__call__", "segnet.forward", _batch),
          (training, "train", "training.train", None),
          (training, "batch_losses", "training.forward", None),
          (training, "evaluate", "training.eval", None),
          (synthdata, "make_dataset", "synthdata.make_dataset", None),
          (synthdata, "load_split", "synthdata.load_split", None),
          (checkpoint, "save_checkpoint", "checkpoint.save", None),
          (checkpoint, "load_checkpoint", "checkpoint.load", None)]
    t += [(losses, f, "losses", None)
          for f in ("dice_loss", "bce_sigmoid_loss", "composite_loss")]
    t += [(metrics, f, "metrics", None)
          for f in ("confusion_matrix", "iou_per_class", "fwiou")]
    return t


class Tracer:
    """Records spans while installed; single-threaded (one span stack)."""

    def __init__(self):
        # each span: [name, parent index, root index, start, end]
        self.spans = []
        self.work = Counter()      # computed counts keyed by span name
        self.op_bytes = 0          # bytes of every tensor op output
        self.op_calls = Counter()  # calls per tensor op function
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, work, op):
        spans, stack, counter = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1,
                    stack[0] if stack else idx, counter(), 0.0]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = counter()
            if work is not None:
                self.work[name] += work(args, out)
            if op is not None:
                self.op_calls[op] += 1
                self.op_bytes += out.data.nbytes
            return out

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n.startswith("fusionseg.") and m is not None]
        for owner, attr, name, work in _targets():
            orig = getattr(owner, attr)
            op = attr if owner is tensor and attr in TENSOR_OPS else None
            wrapped = self._wrap(orig, name, work, op)
            holders = [owner] if isinstance(owner, type) else \
                [m for m in modules if getattr(m, attr, None) is orig]
            for holder in holders:
                self._saved.append((holder, attr, orig))
                setattr(holder, attr, wrapped)

    def uninstall(self):
        for holder, attr, orig in reversed(self._saved):
            setattr(holder, attr, orig)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _totals(spans):
    """Per span name: inclusive ms of outermost spans, self ms, call count."""
    child = [0.0] * len(spans)
    for name, parent, _, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    inclusive, self_ms, calls = defaultdict(float), defaultdict(float), Counter()
    for i, (name, parent, _, t0, t1) in enumerate(spans):
        calls[name] += 1
        self_ms[name] += 1e3 * (t1 - t0 - child[i])
        if not _has_ancestor(spans, parent, name):
            inclusive[name] += 1e3 * (t1 - t0)
    return inclusive, self_ms, calls


def _has_ancestor(spans, i, name):
    while i >= 0:
        if spans[i][0] == name:
            return True
        i = spans[i][1]
    return False


def _ms_within(spans, name, ancestor):
    return sum(1e3 * (t1 - t0) for n, parent, _, t0, t1 in spans
               if n == name and _has_ancestor(spans, parent, ancestor))


def summarise(tracer, imgs):
    """Per-layer metrics of the main calls, per image through those calls."""
    spans = tracer.spans
    ms, self_ms, calls = _totals(spans)
    work = tracer.work
    per = 1.0 / max(imgs, 1)
    conv_s = ms["tensor.conv2d"] / 1e3
    train_ms = ms["training.train"]
    phases = {p: _ms_within(spans, n, "training.train")
              for p, n in (("forward", "training.forward"),
                           ("backward", "tensor.backward"),
                           ("optimizer", "tensor.adamw_step"),
                           ("eval", "training.eval"))}
    out = {
        "tensor.conv2d.calls": calls["tensor.conv2d"] * per,
        "tensor.conv2d.fwd_ms": ms["tensor.conv2d"] * per,
        "tensor.conv2d.gflop": work["tensor.conv2d"] * per,
        "tensor.conv2d.gflop_per_s":
            work["tensor.conv2d"] / conv_s if conv_s else 0.0,
        "tensor.pointwise_conv.calls": calls["tensor.pointwise_conv"] * per,
        "tensor.pointwise_conv.fwd_ms": ms["tensor.pointwise_conv"] * per,
        "tensor.pointwise_conv.gflop": work["tensor.pointwise_conv"] * per,
        "tensor.batchnorm2d.fwd_ms": ms["tensor.batchnorm2d"] * per,
        "tensor.elementwise.fwd_ms": ms["tensor.elementwise"] * per,
        "tensor.ops.calls": sum(tracer.op_calls.values()) * per,
        "tensor.ops.mb_out": tracer.op_bytes / 1e6 * per,
        "tensor.backward.ms": ms["tensor.backward"] * per,
        "tensor.adamw_step.calls": calls["tensor.adamw_step"] * per,
        "tensor.adamw_step.ms": ms["tensor.adamw_step"] * per,
        "attention.stage.calls": calls["attention.stage"] * per,
        "attention.stage.ms": ms["attention.stage"] * per,
        "attention.batch_slice.calls": tracer.op_calls["batch_slice"] * per,
        "gan.generator.fwd_ms": ms["gan.generator"] * per,
        "gan.generator.imgs": work["gan.generator"] * per,
        "gan.discriminator.fwd_ms": ms["gan.discriminator"] * per,
        "gan.train_step.ms": ms["gan.train_step"] * per,
        "segnet.stitch.ms": ms["segnet.stitch"] * per,
        "segnet.encoder.ms": ms["segnet.encoder"] * per,
        "segnet.aspp.ms": ms["segnet.aspp"] * per,
        "segnet.decoder.ms": ms["segnet.decoder"] * per,
        "segnet.forward.ms": ms["segnet.forward"] * per,
        "segnet.generator_imgs_per_input_img":
            (work["gan.generator"] / work["segnet.forward"]
             if work["segnet.forward"] else 0.0),
        "losses.ms": ms["losses"] * per,
        "metrics.ms": ms["metrics"] * per,
        "synthdata.load_split.ms": ms["synthdata.load_split"] * per,
        "checkpoint.save.ms": ms["checkpoint.save"] * per,
        "checkpoint.load.ms": ms["checkpoint.load"] * per,
    }
    for phase, value in phases.items():
        out[f"training.phase.{phase}_ms"] = value * per
    out["training.phase.other_ms"] = (train_ms - sum(phases.values())) * per
    for stage in STAGES:
        out[f"{stage}.self_ms"] = self_ms[stage] * per
    return out


def summarise_setup(tracer):
    """Per-layer metrics of one traced set-up, in ms per set-up."""
    ms, _, _ = _totals(tracer.spans)
    return {f"setup.{name}.ms": ms[name]
            for name in ("synthdata.make_dataset", "synthdata.load_split",
                         "checkpoint.save", "checkpoint.load",
                         "gan.train_step")}
