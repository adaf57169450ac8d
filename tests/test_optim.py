import numpy as np
import pytest

import edgeprompt.tensor as T
from edgeprompt.errors import ShapeError
from edgeprompt.optim import Adam
from edgeprompt.tensor import Tape, Tensor


def test_zero_gradient_leaves_fresh_parameters_unchanged():
    p = Tensor([[1.0, -2.0]])
    opt = Adam([p])
    opt.step([np.zeros((1, 2))])
    np.testing.assert_array_equal(p.data, [[1.0, -2.0]])


def test_first_step_moves_by_learning_rate():
    # with g=1 the bias-corrected first update is lr * 1/(1 + eps) ~ lr
    p = Tensor([[0.5]])
    opt = Adam([p], lr=0.001)
    opt.step([np.array([[1.0]])])
    assert p.item() == pytest.approx(0.5 - 0.001, abs=1e-8)


def test_hand_traced_two_steps():
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    p = Tensor([[0.0]])
    opt = Adam([p], lr=lr)
    m = v = 0.0
    x = 0.0
    for t, g in enumerate([0.3, -0.7], start=1):
        opt.step([np.array([[g]])])
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    assert p.item() == pytest.approx(x, abs=1e-15)


def test_optimizes_scalar_quadratic():
    # 100 steps on f(w) = w^2 from w=1 with lr 0.1 drives |w| below 0.5
    w = Tensor([[1.0]])
    opt = Adam([w], lr=0.1)
    for _ in range(100):
        with Tape() as tape:
            tape.watch(w)
            loss = T.mul(w, w)
            grads = tape.backward(loss)
            opt.step([grads[w]])
    assert abs(w.item()) < 0.5


def test_step_counter_increments():
    p = Tensor([[1.0]])
    opt = Adam([p])
    for expected in range(1, 4):
        opt.step([np.array([[0.1]])])
        assert opt.step_count == expected


def test_shape_mismatch_rejected():
    p = Tensor([[1.0, 2.0]])
    opt = Adam([p])
    with pytest.raises(ShapeError):
        opt.step([np.zeros((2, 2))])
    with pytest.raises(ShapeError):
        opt.step([])
