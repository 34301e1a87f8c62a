import math

import numpy as np
import pytest

from fusionseg.errors import DimensionError, DomainError
from fusionseg.losses import bce_sigmoid_loss, composite_loss, dice_loss
from fusionseg.metrics import confusion_matrix, fwiou, iou_per_class
from fusionseg.tensor import Tensor
from gradcheck import grad_check


class TestDiceLoss:
    def test_perfect_overlap(self):
        x = Tensor(np.ones(4))
        assert dice_loss(x, Tensor(np.ones(4))).item() == pytest.approx(0.0, abs=1e-12)

    def test_all_zero(self):
        x = Tensor(np.zeros(4))
        assert dice_loss(x, Tensor(np.zeros(4))).item() == pytest.approx(0.0, abs=1e-12)

    def test_half_probabilities(self):
        x = Tensor(np.full(4, 0.5))
        expected = 1 - (2 * 2 + 1) / (2 + 4 + 1)
        assert dice_loss(x, Tensor(np.ones(4))).item() == pytest.approx(
            expected, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = Tensor(rng.random(16))
            y = Tensor((rng.random(16) > 0.5).astype(float))
            v = dice_loss(x, y).item()
            assert 0.0 <= v < 1.0

    def test_zero_iff_exact_binary_match(self):
        rng = np.random.default_rng(1)
        y = (rng.random(16) > 0.5).astype(float)
        assert dice_loss(Tensor(y), Tensor(y)).item() == pytest.approx(0, abs=1e-12)
        y2 = y.copy()
        y2[0] = 1 - y2[0]
        assert dice_loss(Tensor(y2), Tensor(y)).item() > 1e-3

    def test_rejects_bad_domain(self):
        with pytest.raises(DomainError):
            dice_loss(Tensor([1.5]), Tensor([1.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionError):
            dice_loss(Tensor([0.5, 0.5]), Tensor([1.0]))

    def test_grad_check(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = Tensor(rng.uniform(0.05, 0.95, size=12), requires_grad=True)
            y = Tensor((rng.random(12) > 0.5).astype(float))
            assert grad_check(lambda t: dice_loss(t, y), x) < 1e-4


class TestBceLoss:
    def test_ln2_at_zero(self):
        v = bce_sigmoid_loss(Tensor([0.0]), Tensor([1.0])).item()
        assert v == pytest.approx(math.log(2), abs=1e-12)

    def test_saturation_no_overflow(self):
        v = bce_sigmoid_loss(Tensor([30.0]), Tensor([1.0])).item()
        assert 0 <= v < 1e-12

    def test_closed_form(self):
        v = bce_sigmoid_loss(Tensor([math.log(3.0)]), Tensor([0.0])).item()
        assert v == pytest.approx(math.log(4), abs=1e-12)

    def test_finite_for_huge_logits(self):
        z = Tensor([1e6, -1e6, 0.0])
        y = Tensor([0.0, 1.0, 1.0])
        assert np.isfinite(bce_sigmoid_loss(z, y).item())

    def test_grad_check(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            z = Tensor(rng.normal(size=10) * 3, requires_grad=True)
            y = Tensor((rng.random(10) > 0.5).astype(float))
            assert grad_check(lambda t: bce_sigmoid_loss(t, y), z) < 1e-4


class TestCompositeLoss:
    def test_zero(self):
        assert composite_loss(Tensor(0.0), Tensor(0.0)).item() == 0.0

    def test_ln2_case(self):
        v = composite_loss(Tensor(0.0), Tensor(math.log(2))).item()
        assert v == pytest.approx(3 * math.log(2) / 4, abs=1e-12)

    def test_weights_sum_to_one(self):
        assert composite_loss(Tensor(1.0), Tensor(1.0)).item() == pytest.approx(1.0)


class TestConfusionMatrix:
    def test_perfect_is_diagonal(self):
        m = np.array([[0, 1], [1, 0]])
        cm = confusion_matrix(m, m, 2)
        assert cm.dtype == np.int64
        assert np.array_equal(cm, [[2, 0], [0, 2]])

    def test_worked_example(self):
        cm = confusion_matrix([1, 0, 0, 0], [1, 1, 0, 0], 2)
        assert np.array_equal(cm, [[2, 0], [1, 1]])

    def test_empty(self):
        cm = confusion_matrix(np.zeros((0,)), np.zeros((0,)), 2)
        assert cm.shape == (2, 2) and cm.sum() == 0

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            confusion_matrix([2], [0], 2)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError, match="mask shape mismatch"):
            confusion_matrix(np.zeros((2, 3)), np.zeros((3, 2)), 2)

    def test_additive(self):
        rng = np.random.default_rng(4)
        a_t, a_p = rng.integers(0, 2, (2, 16))
        b_t, b_p = rng.integers(0, 2, (2, 16))
        merged = confusion_matrix(np.concatenate([a_p, b_p]),
                                  np.concatenate([a_t, b_t]), 2)
        summed = confusion_matrix(a_p, a_t, 2) + confusion_matrix(b_p, b_t, 2)
        assert np.array_equal(merged, summed)


def brute_force_fwiou(pred, true):
    """Independent per-pixel oracle: direct frequency-weighted IoU."""
    pred = np.asarray(pred).ravel()
    true = np.asarray(true).ravel()
    total = true.size
    acc = 0.0
    for k in (0, 1):
        t_k = np.sum(true == k)
        if t_k == 0:
            continue
        tp = np.sum((true == k) & (pred == k))
        union = np.sum((true == k) | (pred == k))
        acc += (t_k / total) * (tp / union)
    return acc


class TestFwiou:
    def test_perfect(self):
        m = np.array([[0, 1], [1, 1]])
        assert fwiou(confusion_matrix(m, m, 2)) == 1.0

    def test_worked_example(self):
        cm = np.array([[2, 0], [1, 1]])
        assert fwiou(cm) == pytest.approx(7 / 12, abs=1e-12)

    def test_everything_wrong(self):
        true = np.array([0, 0, 1, 1])
        pred = 1 - true
        assert fwiou(confusion_matrix(pred, true, 2)) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            fwiou(np.zeros((2, 2), dtype=np.int64))

    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            true = rng.integers(0, 2, (16, 16))
            pred = rng.integers(0, 2, (16, 16))
            cm = confusion_matrix(pred, true, 2)
            assert fwiou(cm) == pytest.approx(
                brute_force_fwiou(pred, true), abs=1e-12)

    def test_concatenation_equals_summed_matrix(self):
        rng = np.random.default_rng(6)
        t1, p1 = rng.integers(0, 2, (2, 8, 8))
        t2, p2 = rng.integers(0, 2, (2, 8, 8))
        summed = confusion_matrix(p1, t1, 2) + confusion_matrix(p2, t2, 2)
        concat = confusion_matrix(np.concatenate([p1, p2]),
                                  np.concatenate([t1, t2]), 2)
        assert fwiou(summed) == fwiou(concat)


class TestIouPerClass:
    def test_perfect(self):
        m = np.array([[0, 1], [1, 1]])
        assert np.allclose(iou_per_class(confusion_matrix(m, m, 2)), 1.0)

    def test_worked_example(self):
        cm = np.array([[2, 0], [1, 1]])
        assert np.allclose(iou_per_class(cm), [2 / 3, 1 / 2])

    def test_absent_class_convention(self):
        cm = confusion_matrix([0, 0], [0, 0], 2)
        assert iou_per_class(cm)[1] == 1.0
