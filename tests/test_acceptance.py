"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Heavy artifacts (reference dataset, GAN checkpoint) are shared session-wide.
Reference seeds are pinned: dataset/pipeline seed 11, GAN toy-run seed 42.
"""

import time

import numpy as np
import pytest

from fusionseg import tensor as T
from fusionseg.attention import ExternalAttention
from fusionseg.config import TrainConfig
from fusionseg.gan import GanPair, cycle_loss, disc_loss, ls_loss, pretrain_gan
from fusionseg.losses import bce_sigmoid_loss, composite_loss, dice_loss
from fusionseg.metrics import confusion_matrix, fwiou, iou_per_class
from fusionseg.segnet import AblationConfig
from fusionseg.synthdata import SceneSpec, generate_sample, make_dataset, load_split, read_pgm
from fusionseg.tensor import Tensor
from fusionseg.training import evaluate, export_maps, run_ablation, train
from attention_reference import double_normalize
from gradcheck import grad_check

PIPELINE_SEED = 11
GAN_TOY_SEED = 42
ABLATION_EPOCHS = 6

# deselect with `pytest -m "not acceptance"` for the fast suite
pytestmark = pytest.mark.acceptance


def report(criterion, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion} [{name}]: {status} {detail}")
    assert passed, f"criterion {criterion} ({name}) failed: {detail}"


@pytest.fixture(scope="session")
def ref_dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("refdata") / "data"
    make_dataset(SceneSpec(image_size=64, seed=PIPELINE_SEED), d,
                 200, 40, 40, seed=PIPELINE_SEED)
    return d


@pytest.fixture(scope="session")
def ref_gan_checkpoint(ref_dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("refgan") / "gan.ckpt"
    sar, _, optical = load_split(ref_dataset, "train")
    # unpaired asymmetric sets in the style of the 300:50 split
    pretrain_gan(sar, optical[:33], 500, seed=PIPELINE_SEED,
                 checkpoint_path=path)
    return path


# -- criterion 1: gradient suite ---------------------------------------------

def test_criterion_1_gradient_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    worst = {}

    def check(name, fn, make_leaf, n=100):
        w = 0.0
        for _ in range(n):
            leaf = make_leaf()
            w = max(w, grad_check(fn(leaf), leaf))
        worst[name] = w

    def t_rand(*shape, positive=False, requires_grad=True):
        data = rng.normal(size=shape)
        if positive:
            data = np.abs(data) + 0.05
        return Tensor(data, requires_grad=requires_grad)

    def sq_sum(x):
        return T.reduce_sum(T.mul(x, x))

    check("matmul", lambda leaf: lambda t: sq_sum(
        T.matmul(t, T.transpose2d(t))), lambda: t_rand(3, 2))
    conv_w = [None]
    def conv_fn(leaf):
        w = Tensor(rng.normal(size=(2, 1, 3, 3)) * 0.5)
        return lambda t: sq_sum(T.conv2d(t, w, stride=1, dilation=2, padding=2))
    check("conv2d", conv_fn, lambda: t_rand(1, 1, 6, 6))
    def pw_fn(leaf):
        x = Tensor(rng.normal(size=(1, 3, 3, 3)))
        return lambda t: sq_sum(T.pointwise_conv(x, t))
    check("pointwise", pw_fn, lambda: t_rand(2, 3, 1, 1))
    check("softmax", lambda leaf: lambda t: sq_sum(
        T.mul(T.softmax_axis(t, 0), T.softmax_axis(t, 1))), lambda: t_rand(3, 3))
    check("l1_normalize", lambda leaf: lambda t: sq_sum(
        T.l1_normalize_axis(t, 1)), lambda: t_rand(3, 3, positive=True))
    check("elementwise", lambda leaf: lambda t: T.reduce_sum(
        T.mul(T.sigmoid(t), T.add(T.relu(t), T.scale(t, 0.5, 1.0)))),
        lambda: t_rand(4, 3))
    check("upsample", lambda leaf: lambda t: sq_sum(
        T.upsample_nearest(t, 2)), lambda: t_rand(1, 2, 3, 3))

    def att_fn(leaf):
        att = ExternalAttention(3, 2, rng=rng)
        att.m_k, att.m_v = leaf, Tensor(rng.normal(size=(3, 2)))
        f = Tensor(rng.normal(size=(2, 4)))
        return lambda t: sq_sum(att(f))
    check("attention", att_fn, lambda: t_rand(3, 2))

    def dice_fn(leaf):
        y = Tensor((rng.random(10) > 0.5).astype(float))
        return lambda t: dice_loss(t, y)
    check("dice", dice_fn,
          lambda: Tensor(rng.uniform(0.05, 0.95, 10), requires_grad=True))

    def bce_fn(leaf):
        y = Tensor((rng.random(10) > 0.5).astype(float))
        return lambda t: bce_sigmoid_loss(t, y)
    check("bce", bce_fn, lambda: t_rand(10))

    def gan_fn(leaf):
        real = Tensor(rng.uniform(0.1, 0.9, 6))
        x = Tensor(rng.random(6))
        def f(t):
            fake = T.sigmoid(t)
            loss_d, loss_g = disc_loss(real, fake), ls_loss(fake, 1.0)
            cyc = cycle_loss(Tensor(x.data.reshape(1, 1, 2, 3)),
                             T.reshape(T.sigmoid(t), (1, 1, 2, 3)))
            return T.add(T.add(loss_d, loss_g), cyc)
        return f
    check("gan_losses", gan_fn, lambda: t_rand(6))

    def upsample_conv_fn(leaf):
        w = Tensor(rng.normal(size=(2, 2, 3, 3)) * 0.5)
        return lambda t: sq_sum(T.upsample_conv2d(t, w))
    check("upsample_conv2d", upsample_conv_fn, lambda: t_rand(1, 2, 3, 4))

    elapsed = time.monotonic() - t0
    overall = max(worst.values())
    report(1, "gradient suite", overall < 1e-4 and elapsed < 120,
           f"max_rel_err={overall:.2e} runtime={elapsed:.1f}s per-op={worst}")


# -- criterion 2: metric oracle ----------------------------------------------

def brute_force_fwiou_and_iou(pred, true):
    pred, true = np.asarray(pred).ravel(), np.asarray(true).ravel()
    total = true.size
    fw = 0.0
    ious = []
    for k in (0, 1):
        t_k = np.sum(true == k)
        tp = np.sum((true == k) & (pred == k))
        union = np.sum((true == k) | (pred == k))
        iou = tp / union if union else 1.0
        ious.append(iou)
        if t_k:
            fw += (t_k / total) * iou
    return fw, ious


def test_criterion_2_metric_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        true = rng.integers(0, 2, (16, 16))
        pred = rng.integers(0, 2, (16, 16))
        cm = confusion_matrix(pred, true, 2)
        fw_o, iou_o = brute_force_fwiou_and_iou(pred, true)
        worst = max(worst, abs(fwiou(cm) - fw_o),
                    float(np.abs(iou_per_class(cm) - iou_o).max()))
    worked = abs(fwiou(np.array([[2, 0], [1, 1]])) - 7 / 12)
    report(2, "metric oracle", worst < 1e-12 and worked < 1e-12,
           f"max_dev={worst:.2e} worked_example_dev={worked:.2e}")


# -- criterion 3: loss exactness ---------------------------------------------

def test_criterion_3_loss_exactness():
    d1 = dice_loss(Tensor(np.ones(4)), Tensor(np.ones(4))).item()
    d2 = dice_loss(Tensor(np.zeros(4)), Tensor(np.zeros(4))).item()
    d3 = dice_loss(Tensor(np.full(4, 0.5)), Tensor(np.ones(4))).item()
    comp = composite_loss(Tensor(0.0), Tensor(np.log(2.0))).item()
    bce_vals = [bce_sigmoid_loss(Tensor([z]), Tensor([y])).item()
                for z in (1e6, -1e6, 0.0) for y in (0.0, 1.0)]
    ok = (abs(d1) < 1e-12 and abs(d2) < 1e-12 and abs(d3 - 2 / 7) < 1e-12
          and abs(comp - 3 * np.log(2.0) / 4) < 1e-12
          and all(np.isfinite(v) for v in bce_vals))
    report(3, "loss exactness", ok,
           f"dice=({d1:.1e},{d2:.1e},{abs(d3 - 2/7):.1e}) "
           f"composite_dev={abs(comp - 3 * np.log(2.0) / 4):.1e}")


# -- criterion 4: attention properties ---------------------------------------

def test_criterion_4_attention_properties():
    rng = np.random.default_rng(4)
    row_dev = 0.0
    perm_dev = 0.0
    for _ in range(50):
        n, s = int(rng.integers(2, 10)), int(rng.integers(1, 8))
        a = rng.normal(size=(s, n)) * 10
        out = double_normalize(Tensor(a)).data
        row_dev = max(row_dev, float(np.abs(out.sum(axis=0) - 1).max()))
        assert np.all(out >= 0)
        perm = rng.permutation(n)
        out_p = double_normalize(Tensor(a[:, perm])).data
        perm_dev = max(perm_dev, float(np.abs(out[:, perm] - out_p).max()))
        att = ExternalAttention(s, 3, rng=rng)
        f = rng.normal(size=(3, n))
        ea = att(Tensor(f)).data
        ea_p = att(Tensor(f[:, perm])).data
        perm_dev = max(perm_dev, float(np.abs(ea[:, perm] - ea_p).max()))
        # memory is S x N by construction: the only pairwise product in the
        # module is M_k.F, and the memories themselves are S x d
        weights = T.matmul(att.m_k, Tensor(f))
        assert weights.data.shape == (s, n)
        assert att.m_k.data.shape == (s, 3) and att.m_v.data.shape == (s, 3)
    report(4, "attention properties", row_dev < 1e-9 and perm_dev < 1e-12,
           f"row_sum_dev={row_dev:.2e} perm_dev={perm_dev:.2e}")


# -- criterion 5: GAN desk run -----------------------------------------------

def test_criterion_5_gan_desk_run():
    t0 = time.monotonic()
    spec = SceneSpec(image_size=32)
    xs = np.stack([generate_sample(spec, 100 + i)[0] for i in range(50)])[:, None]
    ys = np.stack([generate_sample(spec, 500 + i)[1] for i in range(10)])[:, None]
    records = []
    pair = pretrain_gan(xs, ys, 500, seed=GAN_TOY_SEED,
                        log_fn=lambda it, r: records.append(r))
    cyc = [(r["cycle_x"] + r["cycle_y"]) / 2 for r in records]
    first10 = float(np.mean(cyc[:10]))
    final = float(np.mean(cyc[-10:]))
    ratio = final / first10
    d_real = float(np.mean([r["d_real"] for r in records[-10:]]))
    d_fake = float(np.mean([r["d_fake"] for r in records[-10:]]))

    # freeze discipline, bitwise: with the discriminator update skipped, a
    # step moves the generators and leaves the discriminators untouched
    from fusionseg.gan import gan_train_step
    probe = GanPair(seed=GAN_TOY_SEED)
    d_before = [p.data.copy() for p in probe.disc_opt.params]
    g_before = [p.data.copy() for p in probe.gen_opt.params]
    probe.disc_opt.step = lambda lr: None
    gan_train_step(probe, Tensor(xs[:1]), Tensor(ys[:1]), 5e-4)
    frozen_ok = all(np.array_equal(b, p.data)
                    for b, p in zip(d_before, probe.disc_opt.params))
    gen_moved = any(not np.array_equal(b, p.data)
                    for b, p in zip(g_before, probe.gen_opt.params))

    elapsed = time.monotonic() - t0
    report(5, "GAN desk run",
           ratio <= 0.5 and frozen_ok and gen_moved and elapsed < 600,
           f"cycle_ratio={ratio:.3f} frozen={frozen_ok} gen_moved={gen_moved}"
           f" d_real={d_real:.3f} d_fake={d_fake:.3f} runtime={elapsed:.0f}s")


# -- criterion 6: end-to-end desk run ----------------------------------------

def test_criterion_6_end_to_end(ref_dataset, ref_gan_checkpoint):
    t0 = time.monotonic()
    cfg = TrainConfig(epochs=20, data_dir=str(ref_dataset),
                      seed=PIPELINE_SEED,
                      gan_checkpoint=str(ref_gan_checkpoint),
                      ablation=AblationConfig(True, True, True))
    net, _ = train(cfg, log=None)
    sar, masks, _ = load_split(ref_dataset, "test")
    result = evaluate(net, sar, masks, cfg.batch_size)
    elapsed = time.monotonic() - t0
    report(6, "end-to-end desk run",
           result["fwiou"] >= 0.95 and elapsed < 1800,
           f"test_fwiou={result['fwiou']:.4f} runtime={elapsed:.0f}s")


# -- criterion 7: ablation harness -------------------------------------------

def test_criterion_7_ablation(ref_dataset, ref_gan_checkpoint):
    cfg = TrainConfig(epochs=ABLATION_EPOCHS, data_dir=str(ref_dataset),
                      seed=PIPELINE_SEED,
                      gan_checkpoint=str(ref_gan_checkpoint))
    rows = run_ablation(cfg, log=None)
    by_name = {r["config"]: r["fwiou"] for r in rows}
    ok = (len(rows) == 4
          and all(0.0 <= r["fwiou"] <= 1.0 for r in rows)
          and by_name["gan+att+combine"] >= by_name["body"])
    report(7, "ablation harness", ok,
           " ".join(f"{r['config']}={r['fwiou']:.4f}" for r in rows))


# -- criterion 8: determinism & formats --------------------------------------

def test_criterion_8_determinism(tmp_path):
    data = tmp_path / "data"
    make_dataset(SceneSpec(image_size=32, seed=8), data, 8, 4, 4, seed=8)
    artifacts = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        out.mkdir()
        cfg = TrainConfig(epochs=2, data_dir=str(data), seed=8,
                          image_size=32)
        net, _ = train(cfg, metrics_path=out / "metrics.jsonl",
                       checkpoint_path=out / "last.ckpt", log=None)
        sar, masks, _ = load_split(data, "test")
        export_maps(net, sar, masks, out / "maps")
        artifacts.append(out)
    a, b = artifacts
    metrics_ok = ((a / "metrics.jsonl").read_bytes()
                  == (b / "metrics.jsonl").read_bytes())
    ckpt_ok = (a / "last.ckpt").read_bytes() == (b / "last.ckpt").read_bytes()
    maps_ok = all((p.read_bytes() == (b / "maps" / p.name).read_bytes())
                  for p in sorted((a / "maps").glob("*.pgm")))
    two_valued = all(set(np.unique(read_pgm(p))) <= {0, 255}
                     for p in sorted((a / "maps").glob("pred_*.pgm")))
    # checkpoint round-trip byte identity
    from fusionseg.checkpoint import load_checkpoint, save_checkpoint
    save_checkpoint(tmp_path / "rt.ckpt",
                    list(load_checkpoint(a / "last.ckpt").items()))
    rt_ok = ((tmp_path / "rt.ckpt").read_bytes()
             == (a / "last.ckpt").read_bytes())
    report(8, "determinism & formats",
           metrics_ok and ckpt_ok and maps_ok and two_valued and rt_ok,
           f"metrics={metrics_ok} ckpt={ckpt_ok} maps={maps_ok} "
           f"two_valued={two_valued} roundtrip={rt_ok}")
