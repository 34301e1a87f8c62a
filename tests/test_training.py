import json
import math
import tracemalloc

import numpy as np
import pytest

from fusionseg import training
from fusionseg.config import TrainConfig
from fusionseg.errors import ConfigurationError, DomainError
from fusionseg.gan import GeneratorNet, pretrain_gan
from fusionseg.segnet import AblationConfig, FusionSegNet
from fusionseg.synthdata import SceneSpec, load_split, make_dataset
from fusionseg.tensor import Tensor
from fusionseg.training import batch_losses, evaluate, export_maps, train

N_TRAIN, N_VAL, BATCH, EPOCHS = 5, 5, 2, 3


@pytest.fixture(scope="module")
def full_config(tmp_path_factory):
    """A full-model config on a tiny set; val is not a multiple of the batch."""
    root = tmp_path_factory.mktemp("train")
    data = root / "data"
    make_dataset(SceneSpec(image_size=32, seed=4), data, N_TRAIN, N_VAL, 0, 4)
    sar, _, optical = load_split(data, "train")
    # trained a few steps, so the generator's output is not the constant 0.5
    # of its zero-initialized last conv
    pretrain_gan(sar, optical, 3, seed=4, checkpoint_path=root / "gan.ckpt")
    return TrainConfig(epochs=EPOCHS, batch_size=BATCH, seed=4, image_size=32,
                       data_dir=str(data), gan_checkpoint=str(root / "gan.ckpt"),
                       ablation=AblationConfig(True, True, True))


def test_generator_runs_once_on_each_split(full_config, monkeypatch):
    calls = []
    forward = GeneratorNet.__call__

    def counted(self, x):
        calls.append(x.data.shape[0])
        return forward(self, x)

    monkeypatch.setattr(GeneratorNet, "__call__", counted)
    train(full_config, log=None)
    # one stitch of each split per call, cut into batches; no epoch re-runs it
    assert len(calls) == math.ceil(N_TRAIN / BATCH) + math.ceil(N_VAL / BATCH)
    assert sum(calls) == N_TRAIN + N_VAL


def test_cached_train_rows_equal_stitching_the_shuffled_batch(full_config,
                                                               monkeypatch):
    inputs = []

    def recorded(model, x, *args):
        inputs.append(x)
        return batch_losses(model, x, *args)

    monkeypatch.setattr(training, "batch_losses", recorded)
    net, _ = train(full_config, log=None)
    sar, _, _ = load_split(full_config.data_dir, "train")
    x = inputs[-2]  # a full batch of the last epoch
    # channel 0 of a combined input is the SAR image itself
    idx = [int(np.flatnonzero((sar[:, 0] == row).all(axis=(1, 2)))[0])
           for row in x[:, 0]]
    assert len(x) == BATCH and idx != list(range(idx[0], idx[0] + BATCH))
    np.testing.assert_allclose(net.body(Tensor(x)).data,
                               net(Tensor(sar[idx])).data, rtol=0, atol=1e-12)


def test_val_record_matches_evaluate_on_the_returned_net(full_config,
                                                         monkeypatch):
    inputs = []

    def recorded(model, x, *args):
        inputs.append(x)
        return evaluate(model, x, *args)

    monkeypatch.setattr(training, "evaluate", recorded)
    net, records = train(full_config, log=None)
    sar_val, mask_val, _ = load_split(full_config.data_dir, "val")
    report = evaluate(net, sar_val, mask_val, BATCH)
    assert records[-1]["val_fwiou"] == report["fwiou"]
    assert records[-1]["val_iou_per_class"] == report["iou_per_class"]
    # thresholded metrics can hide a small change in the stitched input
    for start in range(0, N_VAL, BATCH):
        chunk = slice(start, start + BATCH)
        assert np.array_equal(net.body(Tensor(inputs[-1][chunk])).data,
                              net(Tensor(sar_val[chunk])).data)


def test_evaluate_holds_far_less_than_a_taped_forward():
    rng = np.random.default_rng(0)
    net = FusionSegNet(AblationConfig(True, True, True), seed=0,
                       generator=GeneratorNet(rng))
    sar = rng.random((8, 1, 64, 64))
    masks = np.zeros((8, 64, 64))

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # measured at 64 px: 49.6 MB with the tape, 19.5 MB without
    taped = peak(lambda: net(Tensor(sar)))
    assert peak(lambda: evaluate(net, sar, masks, 8)) < 0.5 * taped


def test_evaluate_thresholds_extreme_logits_without_overflow():
    # exp(800) overflows float64; a RuntimeWarning fails the test suite
    rng = np.random.default_rng(1)
    sar = rng.random((3, 1, 4, 4))
    masks = (rng.random((3, 4, 4)) > 0.5).astype(np.float64)

    def stub(x):
        return Tensor(np.where(x.data > 0.5, 800.0, -800.0))

    report = evaluate(stub, sar, masks, batch_size=2)
    pred = (sar[:, 0] > 0.5).astype(np.int64).ravel()
    true = masks.astype(np.int64).ravel()
    expected = [[int(np.sum((true == t) & (pred == p))) for p in (0, 1)]
                for t in (0, 1)]
    assert report["confusion"] == expected


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_logits_are_a_domain_error(bad, tmp_path):
    # thresholded, a NaN logit would read as background and inf as foreground
    rng = np.random.default_rng(2)
    sar = rng.random((3, 1, 4, 4))
    masks = (rng.random((3, 4, 4)) > 0.5).astype(np.float64)

    def stub(x):
        logits = np.where(x.data > 0.5, 800.0, -800.0)
        if len(x.data) == 1:  # the last batch, which starts at index 2
            logits[0, 0, 1, 1] = bad
        return Tensor(logits)

    with pytest.raises(DomainError, match="index 2"):
        evaluate(stub, sar, masks, batch_size=2)
    with pytest.raises(DomainError, match="index 2"):
        export_maps(stub, sar, masks, tmp_path, batch_size=2)


def test_export_maps_writes_nothing_when_a_later_batch_is_non_finite(tmp_path):
    rng = np.random.default_rng(3)
    sar = rng.random((4, 1, 4, 4))
    masks = (rng.random((4, 4, 4)) > 0.5).astype(np.float64)
    calls = []

    def stub(x):
        calls.append(len(x.data))
        logits = np.where(x.data > 0.5, 800.0, -800.0)
        if len(calls) == 2:  # the second batch, which starts at index 2
            logits[1, 0, 2, 3] = np.nan
        return Tensor(logits)

    maps = tmp_path / "maps"
    with pytest.raises(DomainError, match="at index 2"):
        export_maps(stub, sar, masks, maps, batch_size=2)
    assert calls == [2, 2]
    assert list(maps.glob("*.pgm")) == []


def test_records_equal_the_metrics_file(full_config, tmp_path):
    path = tmp_path / "metrics.jsonl"
    _, records = train(full_config, metrics_path=path, log=None)
    assert [json.loads(line) for line in path.read_text().splitlines()] == records


def test_ablation_without_test_or_val_images_trains_nothing(tmp_path,
                                                           monkeypatch):
    make_dataset(SceneSpec(image_size=32, seed=4), tmp_path, 2, 0, 0, 4)
    calls = []
    real_train = training.train

    def counted(*args, **kwargs):
        calls.append(args)
        return real_train(*args, **kwargs)

    monkeypatch.setattr(training, "train", counted)
    config = TrainConfig(epochs=1, batch_size=2, seed=4, image_size=32,
                         data_dir=str(tmp_path))
    with pytest.raises(ConfigurationError, match="nonempty test or val"):
        training.run_ablation(config, log=None)
    assert len(calls) == 0
