"""Set-up and the three closed-loop workloads, each with its output checks.

Every workload is one client issuing its next call only after the previous
one returned, on the public library API, with inputs made from the seed.
A workload returns a ``Measure``; ``run.py`` turns it into metrics.
"""

from __future__ import annotations

import gc
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fusionseg
from fusionseg import checkpoint, gan, synthdata, training
from fusionseg.config import TrainConfig
from fusionseg.tensor import Tensor

IMAGE_SIZE = 64
BATCH = 8
N_TRAIN, N_VAL, N_TEST = 8, 16, 8
EPOCHS = 8
FULL_MODEL = {"use_gan": True, "use_attention": True, "use_combine": True}
# --seed makes the data; the models keep one init seed, as a deployed config
# would, so quality metrics vary with the inputs and not with the init
MODEL_SEED = 0
SETUP_GAN_ITERATIONS = 4
GAN_ITERATIONS = 20
REQUEST_IMGS = 8
# val_fwiou on seg-infer comes from the first requests only, so it does not
# depend on how many requests fit in the run
QUALITY_REQUESTS = 16
HELD_OUT_BASE = 500_000
# gan-pretrain's val_fwiou: no segmentation runs there, so no change moves it
PLACEHOLDER_FWIOU = 1.0
# nominal time of one HostClock kernel call; sets the scale of reported times
REFERENCE_MS = 50.0
CLOCK_EVERY_S = 0.5
# (batch, repeats) of the HostClock kernel; each takes 50-60 ms on a 2-core
# x86-64 VM, so scaled times stay near the unscaled ones
CLOCK_KERNEL = {"seg-train": (BATCH, 1), "gan-pretrain": (1, 16),
                "seg-infer": (REQUEST_IMGS, 1)}
# host speed drifts within a run too, so a step is scaled by the kernel
# samples taken nearest to it: the ones at its own boundaries and a couple
# more, as one sample alone is noisy
LOCAL_SAMPLES = 4


class HostClock:
    """Host speed, from a fixed numpy kernel run outside the timing.

    The kernel is a conv forward and input-gradient pass written as per-tap
    einsums, the pattern most workload time goes to, and it never touches
    fusionseg. It runs at the workload's batch (CLOCK_KERNEL), so at batch 1
    per-op overhead weighs in it as it does in gan-pretrain.
    Its time moves only with the host: clock changes and neighbours on
    shared cores, which can shift speed by a third from one minute to the
    next on a shared VM. Reported times are multiplied by ``scale()``, which
    maps the median kernel time to REFERENCE_MS.
    """

    def __init__(self, batch: int, repeats: int):
        rng = np.random.default_rng(0)
        self._x = rng.random((batch, 16, 34, 34))
        self._w = rng.random((16, 16, 3, 3))
        self._repeats = repeats
        self.samples = []  # (perf_counter at the end, kernel ms)
        self._due = 0.0

    def sample(self):
        t0 = time.perf_counter()
        x, w = self._x, self._w
        for _ in range(self._repeats):
            out = np.zeros((len(x), 16, 32, 32))
            for a in range(3):
                for b in range(3):
                    out += np.einsum("bchw,oc->bohw",
                                     x[:, :, a:a + 32, b:b + 32], w[:, :, a, b])
            dx = np.zeros_like(x)
            for a in range(3):
                for b in range(3):
                    dx[:, :, a:a + 32, b:b + 32] += np.einsum(
                        "bohw,oc->bchw", out, w[:, :, a, b])
        now = time.perf_counter()
        self.samples.append((now, 1e3 * (now - t0)))

    def between(self, measured_s):
        """Sample once per CLOCK_EVERY_S of measured time, outside the timing."""
        while self._due <= measured_s:
            self.sample()
            self._due += CLOCK_EVERY_S

    def restart(self):
        """Start the schedule again for a phase whose measured time starts at 0."""
        self._due = 0.0

    def scale(self, at=None):
        """REFERENCE_MS over the median kernel ms: of the whole run, or of
        the LOCAL_SAMPLES samples nearest to perf_counter time ``at``."""
        chosen = self.samples if at is None else sorted(
            self.samples, key=lambda s: abs(s[0] - at))[:LOCAL_SAMPLES]
        return REFERENCE_MS / statistics.median(ms for _, ms in chosen)


@dataclass
class Env:
    """What set-up leaves behind for the workload."""

    seed: int
    work: Path
    config: TrainConfig
    net: object
    pair: gan.GanPair
    gan_records: list
    train_sar: np.ndarray
    train_opt: np.ndarray
    test_sar: np.ndarray
    test_opt: np.ndarray
    trained: bool = False


@dataclass
class Measure:
    """Timings, counts and check outcomes of one workload phase."""

    pieces: list = field(default_factory=list)  # (mid time, s) per timed piece
    steps: list = field(default_factory=list)  # (mid time, ms) per step
    imgs: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    pair: gan.GanPair | None = None

    @property
    def wall_s(self):
        return sum(s for _, s in self.pieces)

    def fail(self, steps, why):
        self.failed += steps
        self.problems.append(why)


class CallTimer:
    """Times one main call in pieces, cut at its step boundaries.

    Given a clock, the host-speed kernel runs at a boundary when it is due,
    so each step has kernel samples right beside it. The kernel's own time
    falls between pieces and is left out. Traced calls pass no clock, so the
    kernel never runs inside a traced span.
    """

    def __init__(self, m: Measure, clock: HostClock | None):
        self.m, self.clock = m, clock
        self.pieces = []
        self.start = time.perf_counter()

    def boundary(self):
        self.pieces.append((self.start, time.perf_counter()))
        if self.clock is not None:
            self.clock.between(
                self.m.wall_s + sum(b - a for a, b in self.pieces))
        self.start = time.perf_counter()

    def done(self, startup=True):
        """End the call and add its pieces and steps to the Measure.

        With ``startup`` the boundaries come from a per-step log: the first
        piece also holds the call's start-up and the last only what follows
        the last log, so both count in the call time but are not steps.
        """
        self.pieces.append((self.start, time.perf_counter()))
        self.m.pieces += [((a + b) / 2, b - a) for a, b in self.pieces]
        steps = self.pieces[1:-1] if startup else self.pieces
        self.m.steps += [((a + b) / 2, 1e3 * (b - a)) for a, b in steps]


def _unpaired(optical):
    # the CLI's asymmetric unpaired sets: all SAR, a sixth of the optical
    return optical[:max(1, len(optical) // 6)]


def setup(work: Path, seed: int) -> Env:
    """Dataset on disk, load_split, a short GAN run to a checkpoint, net build."""
    data = work / "data"
    synthdata.make_dataset(synthdata.SceneSpec(image_size=IMAGE_SIZE, seed=seed),
                           data, N_TRAIN, N_VAL, N_TEST, seed)
    train_sar, _, train_opt = synthdata.load_split(data, "train")
    test_sar, _, test_opt = synthdata.load_split(data, "test")
    records = []
    pair = gan.pretrain_gan(train_sar, _unpaired(train_opt),
                            SETUP_GAN_ITERATIONS, MODEL_SEED,
                            checkpoint_path=work / "gan.ckpt",
                            log_fn=lambda _it, r: records.append(r))
    config = TrainConfig.from_dict({
        "epochs": EPOCHS, "batch_size": BATCH, "seed": MODEL_SEED,
        "image_size": IMAGE_SIZE, "data_dir": str(data),
        "gan_checkpoint": str(work / "gan.ckpt"), "ablation": FULL_MODEL})
    return Env(seed, work, config, training.build_net(config), pair, records,
               train_sar, train_opt, test_sar, test_opt)


def prepare_model(env: Env):
    """Train once as `fusionseg train`, load it as `fusionseg eval` does.

    seg-infer serves this model. It runs once per process, outside set-up
    and outside the timing. Training runs in a child interpreter that is
    waited for (and killed if this process is interrupted), so its tape and
    optimizer state stay out of this process's peak RSS and no process
    outlives the benchmark.
    """
    if not env.trained:
        config_path = env.work / "model-config.json"
        config_path.write_text(env.config.to_json())
        ckpt = env.work / "model.ckpt"
        src = str(Path(fusionseg.__file__).resolve().parent.parent)
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        str(config_path), str(ckpt)],
                       env={**os.environ, "PYTHONPATH": src}, check=True)
        env.net.load(ckpt)
        env.trained = True


def between_calls(clock: HostClock, m: Measure):
    """Outside the timing: host-speed samples, then a full garbage collection,
    so each call starts from the same heap and its peak memory and pauses do
    not depend on how many kernel samples ran before it."""
    clock.between(m.wall_s)
    gc.collect()


def _call(tracer, call):
    """Run one main call, traced if a tracer is given; None if it raised.

    ``call`` looks its library function up when it runs, so it finds the
    traced wrapper that the tracer installs.
    """
    with tracer if tracer is not None else nullcontext():
        try:
            return call()
        except Exception:
            traceback.print_exc()
            return None


def cycle_loss_end(records):
    """Mean cycle loss, (cycle_x + cycle_y) / 2, over the last quarter of a run."""
    tail = records[-max(1, len(records) // 4):]
    return float(np.mean([(r["cycle_x"] + r["cycle_y"]) / 2 for r in tail]))


def fwiou_of(counts) -> float:
    """FwIoU from a 2x2 confusion matrix, written apart from fusionseg.metrics."""
    counts = np.asarray(counts, dtype=np.float64)
    tp = np.diag(counts)
    truth, pred = counts.sum(axis=1), counts.sum(axis=0)
    union = truth + pred - tp
    iou = np.divide(tp, union, out=np.ones_like(tp), where=union > 0)
    return float((truth * iou).sum() / counts.sum())


# ---------------------------------------------------------------------------
# seg-train


def _strip_wall(records):
    return [{k: v for k, v in r.items() if k != "wall_ms"} for r in records]


def _check_train(net, records, out):
    if net is None or len(records) != EPOCHS:
        return f"train stopped after {len(records or [])} of {EPOCHS} epochs"
    loss = [v for r in records for v in r["train_loss"].values()]
    if not all(math.isfinite(v) for v in loss):
        return "non-finite train loss"
    first = records[0]["train_loss"]["composite"]
    last = records[-1]["train_loss"]["composite"]
    if not last < first:
        return f"composite loss did not fall: {first} -> {last}"
    if not 0.0 < records[-1]["val_fwiou"] <= 1.0:
        return f"val_fwiou out of (0,1]: {records[-1]['val_fwiou']}"
    stored = checkpoint.load_checkpoint(out / "last.ckpt")
    if any(not np.array_equal(stored[n], p.data) for n, p in net.named_params()):
        return "last.ckpt does not hold the trained parameters"
    if not (out / "best.ckpt").is_file():
        return "best.ckpt missing"
    return None


def seg_train(env: Env, seconds: float, clock: HostClock,
              tracer=None) -> Measure:
    """Repeated identical train() calls on the full model, as `fusionseg train`."""
    m = Measure()
    out = env.work / "train"
    out.mkdir(exist_ok=True)
    reference = None
    while m.wall_s < seconds:
        between_calls(clock, m)
        timer = CallTimer(m, clock if tracer is None else None)
        result = _call(tracer, lambda: training.train(
            env.config, metrics_path=out / "metrics.jsonl",
            checkpoint_path=out / "last.ckpt",
            best_checkpoint_path=out / "best.ckpt",
            log=lambda _msg: timer.boundary()))
        # train() logs once per epoch, before that epoch's checkpoint saves,
        # so a step is the previous epoch's saves and then one epoch
        timer.done()
        m.attempted += EPOCHS
        net, records = result if result is not None else (None, [])
        m.imgs += len(records) * (N_TRAIN + N_VAL)
        problem = _check_train(net, records, out)
        if problem is None and reference is not None \
                and _strip_wall(records) != reference:
            problem = "train() is not deterministic across identical calls"
        if problem:
            m.fail(EPOCHS, problem)
        elif reference is None:
            reference = _strip_wall(records)
            m.quality["val_fwiou"] = records[-1]["val_fwiou"]
    m.quality["cycle_loss_end"] = cycle_loss_end(env.gan_records)
    return m


# ---------------------------------------------------------------------------
# gan-pretrain


def gan_pretrain(env: Env, seconds: float, clock: HostClock,
                 tracer=None) -> Measure:
    """Repeated identical pretrain_gan() calls at batch 1, timed per iteration."""
    m = Measure()
    m.quality["val_fwiou"] = PLACEHOLDER_FWIOU
    reference = None
    while m.wall_s < seconds:
        between_calls(clock, m)
        records = []
        timer = CallTimer(m, clock if tracer is None else None)

        def log_fn(_it, record):
            records.append(record)
            timer.boundary()

        pair = _call(tracer, lambda: gan.pretrain_gan(
            env.train_sar, _unpaired(env.train_opt), GAN_ITERATIONS,
            MODEL_SEED, log_fn=log_fn))
        timer.done()
        m.attempted += GAN_ITERATIONS
        m.imgs += len(records)
        bad = GAN_ITERATIONS - len(records) + sum(
            not all(math.isfinite(v) for v in r.values()) for r in records)
        if bad:
            m.fail(bad, f"{bad} GAN iterations raised or gave a non-finite loss")
        elif reference is not None and records != reference:
            m.fail(GAN_ITERATIONS,
                   "pretrain_gan() is not deterministic across identical calls")
        elif reference is None:
            reference = records
            m.quality["cycle_loss_end"] = cycle_loss_end(records)
        m.pair = pair
    return m


def equilibrium(pair, sar, optical):
    """Mean discriminator score on held-out real images and on translated ones."""
    real = [pair.d_y(Tensor(optical)).data.mean(),
            pair.d_x(Tensor(sar)).data.mean()]
    fake = [pair.d_y(pair.g_xy(Tensor(sar))).data.mean(),
            pair.d_x(pair.g_yx(Tensor(optical))).data.mean()]
    return float(np.mean(real)), float(np.mean(fake))


# ---------------------------------------------------------------------------
# seg-infer


def held_out_request(seed: int, index: int):
    """The index-th request: REQUEST_IMGS fresh scenes, quantised as on disk."""
    spec = synthdata.SceneSpec(image_size=IMAGE_SIZE, seed=seed)
    first = HELD_OUT_BASE + seed * 10**6 + index * REQUEST_IMGS
    samples = [synthdata.generate_sample(spec, first + j)
               for j in range(REQUEST_IMGS)]
    sar = np.stack([synthdata.quantize_u8(s) for s, _, _ in samples])
    masks = np.stack([mask > 127 for _, _, mask in samples])
    return sar[:, None].astype(np.float64) / 255.0, masks.astype(np.float64)


def _check_infer(report, masks):
    if report is None:
        return "evaluate raised"
    counts = np.asarray(report["confusion"])
    if counts.sum() != masks.size:
        return f"confusion total {counts.sum()} != pixel count {masks.size}"
    if not math.isclose(report["fwiou"], fwiou_of(counts), rel_tol=1e-12):
        return "fwiou disagrees with its confusion matrix"
    return None


def seg_infer(env: Env, seconds: float, clock: HostClock,
              tracer=None) -> Measure:
    """evaluate() requests of REQUEST_IMGS held-out images, each seen once."""
    m = Measure()
    prepare_model(env)
    totals = np.zeros((2, 2), dtype=np.int64)
    i = 0
    while m.wall_s < seconds or i < QUALITY_REQUESTS:
        between_calls(clock, m)
        sar, masks = held_out_request(env.seed, i)
        timer = CallTimer(m, None)
        report = _call(tracer, lambda: training.evaluate(
            env.net, sar, masks, REQUEST_IMGS))
        timer.done(startup=False)
        m.attempted += 1
        m.imgs += REQUEST_IMGS
        problem = _check_infer(report, masks)
        if problem is None and i == 0 \
                and not np.isfinite(env.net(Tensor(sar)).data).all():
            problem = "non-finite logits"
        if problem:
            m.fail(1, problem)
        elif i < QUALITY_REQUESTS:
            totals += np.asarray(report["confusion"])
        i += 1
    m.quality["val_fwiou"] = fwiou_of(totals)
    m.quality["cycle_loss_end"] = cycle_loss_end(env.gan_records)
    return m


WORKLOADS = {"seg-train": seg_train, "gan-pretrain": gan_pretrain,
             "seg-infer": seg_infer}


if __name__ == "__main__":
    # child of prepare_model: python3 workloads.py CONFIG_JSON CHECKPOINT
    training.train(TrainConfig.from_json_file(sys.argv[1]),
                   checkpoint_path=Path(sys.argv[2]), log=None)
