import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fusionseg.checkpoint import (load_checkpoint, load_into_params,
                                  save_checkpoint)
from fusionseg.errors import ContractError, IOError_
from fusionseg.segnet import AblationConfig, FusionSegNet
from fusionseg.tensor import Tensor


def test_roundtrip_values(tmp_path):
    rng = np.random.default_rng(0)
    named = [("a.w", rng.normal(size=(2, 3))), ("b", rng.normal(size=(4,)))]
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, named)
    loaded = load_checkpoint(path)
    assert list(loaded) == ["a.w", "b"]
    for name, arr in named:
        assert np.array_equal(loaded[name], arr)


def test_save_load_save_byte_identical(tmp_path):
    rng = np.random.default_rng(1)
    named = [("w", rng.normal(size=(3, 3, 3, 3))), ("scalar", np.array(2.5))]
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, named)
    save_checkpoint(p2, list(load_checkpoint(p1).items()))
    assert p1.read_bytes() == p2.read_bytes()


def test_header_layout(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, [("t", np.zeros((2, 2)))])
    raw = path.read_bytes()
    assert raw[:4] == b"DFSG"
    assert raw[4:6] == b"\x01\x00"          # version u16 LE
    assert raw[6:10] == b"\x01\x00\x00\x00"  # tensor count u32 LE


def test_load_into_params(tmp_path):
    src = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, [("p", src.data)])
    dst = Tensor(np.zeros((2, 3)), requires_grad=True)
    load_into_params(path, [("p", dst)])
    assert np.array_equal(dst.data, src.data)


def test_missing_tensor_rejected(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, [("p", np.zeros(2))])
    with pytest.raises(IOError_):
        load_into_params(path, [("q", Tensor(np.zeros(2)))])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_tensor_rejected_on_load(tmp_path, bad):
    net = FusionSegNet(AblationConfig(), seed=0)
    named = [(n, p.data.copy()) for n, p in net.named_params()]
    named[-1][1].flat[0] = bad
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, named)
    with pytest.raises(IOError_, match="non-finite values in 'decoder.head.w'"):
        net.load(path)


def test_repeated_name_rejected_on_save(tmp_path):
    path = tmp_path / "x.ckpt"
    with pytest.raises(ContractError, match="'w' repeated"):
        save_checkpoint(path, [("w", np.zeros(2)), ("w", np.ones(2))])
    assert not path.exists()


def test_repeated_name_rejected_on_load(tmp_path):
    # a second copy of "w" appended to a one-tensor file, count bumped to 2
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, [("w", np.zeros(2))])
    raw = path.read_bytes()
    path.write_bytes(raw[:6] + b"\x02\x00\x00\x00" + raw[10:] + raw[10:])
    with pytest.raises(IOError_, match="repeated tensor 'w'"):
        load_checkpoint(path)


def test_shape_mismatch_rejected(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, [("p", np.zeros(2))])
    with pytest.raises(IOError_, match="shape mismatch for 'p'"):
        load_into_params(path, [("p", Tensor(np.zeros(3)))])


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, [("p", np.zeros(2))])
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + b"\x02\x00" + raw[6:])
    with pytest.raises(IOError_, match="unsupported checkpoint version 2"):
        load_checkpoint(path)


def test_non_utf8_name_rejected(tmp_path):
    # the one-byte name "p" sits after the header and its u16 length
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, [("p", np.zeros(2))])
    raw = path.read_bytes()
    path.write_bytes(raw[:12] + b"\xff" + raw[13:])
    with pytest.raises(IOError_, match="not UTF-8"):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(IOError_):
        load_checkpoint(path)


def small_checkpoint(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, [("a.w", np.arange(6.0).reshape(2, 3)),
                           ("s", np.array(2.5))])
    return path


def test_every_truncation_rejected(tmp_path):
    raw = small_checkpoint(tmp_path).read_bytes()
    path = tmp_path / "cut.ckpt"
    for n in range(len(raw)):
        path.write_bytes(raw[:n])
        with pytest.raises(IOError_):
            load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path):
    path = small_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(IOError_, match="trailing"):
        load_checkpoint(path)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.binary(max_size=64),
                 st.binary(max_size=64).map(lambda b: b"DFSG\x01\x00" + b)))
def test_arbitrary_bytes_load_or_io_error(tmp_path, raw):
    path = tmp_path / "fuzz.ckpt"
    path.write_bytes(raw)
    try:
        assert isinstance(load_checkpoint(path), dict)
    except IOError_:
        pass
