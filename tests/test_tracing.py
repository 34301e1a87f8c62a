"""The benchmark's span tracer still fits the library.

``perfbench/tracing.py`` wraps fusionseg functions by name, so renaming or
deleting one of them breaks the benchmark; this test makes that a tier-1
failure instead.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from fusionseg import tensor as T
from fusionseg.attention import AttentionStage
from fusionseg.gan import GanPair, GeneratorNet, gan_train_step
from fusionseg.layers import BatchNorm2d, Module
from fusionseg.segnet import AblationConfig, FusionSegNet
from fusionseg.tensor import Tensor

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fusionseg_attributes(tracing):
    """Every attribute of every loaded fusionseg module and traced class."""
    owners = [m for n, m in sys.modules.items() if n.startswith("fusionseg")]
    owners += [owner for owner, *_ in tracing._targets() if isinstance(owner, type)]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_tracer_records_one_by_one_convs_as_conv2d():
    tracing = load_tracing()
    before = fusionseg_attributes(tracing)
    stage = AttentionStage(2, 4, 3, s=5, rng=np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).normal(size=(2, 2, 4, 4)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert T.conv2d is not before[(id(T), "conv2d")]
        stage(x)
    finally:
        tracer.uninstall()
    # the lift and the reduce are both 1x1 convolutions
    assert tracer.op_calls["conv2d"] == 2
    assert tracer.op_calls["pointwise_conv"] == 0
    assert [span[0] for span in tracer.spans].count("tensor.conv2d") == 2
    after = fusionseg_attributes(tracing)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_tracer_records_one_adamw_step_per_parameter():
    # training.phase.optimizer_ms is the time inside these spans
    tracing = load_tracing()
    pair = GanPair(seed=0)
    rng = np.random.default_rng(2)
    x, y = (Tensor(rng.uniform(size=(1, 1, 8, 8))) for _ in range(2))
    with tracing.Tracer() as tracer:
        gan_train_step(pair, x, y, 1e-3)
    n_params = len(pair.gen_opt.params) + len(pair.disc_opt.params)
    assert n_params == len(pair.named_params())
    assert [span[0] for span in tracer.spans].count("tensor.adamw_step") == n_params


def modules(m):
    """``m`` and every Module under it, private attributes and lists included."""
    yield m
    for value in vars(m).values():
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, Module):
                yield from modules(v)


def test_tracer_records_every_batch_norm_of_the_full_model():
    # each conv-BN-ReLU block's norm, ReLU fused in, is one batchnorm2d call
    tracing = load_tracing()
    net = FusionSegNet(AblationConfig(True, True, True), seed=3,
                       generator=GeneratorNet(np.random.default_rng(4)))
    x = Tensor(np.random.default_rng(5).uniform(size=(2, 1, 16, 16)))
    with tracing.Tracer() as tracer:
        net(x)
    n_batch_norms = sum(type(m) is BatchNorm2d for m in modules(net))
    names = [span[0] for span in tracer.spans]
    assert n_batch_norms > 0 and names.count("tensor.batchnorm2d") == n_batch_norms
