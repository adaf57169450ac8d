"""Adam optimizer for tape-watched parameters, and the one guarded
training step that every training loop takes.

The learning rate is the one knob; beta1=0.9, beta2=0.999 and eps=1e-8
are module constants, with no weight decay.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import NonFiniteError, ShapeError
from .tensor import Tape, Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Standard Adam with bias correction, updating parameters in place.

    ``step`` takes one gradient per parameter, aligned with the
    constructor's parameter list.
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads: list[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ShapeError(
                f"Adam.step: {len(grads)} gradients for {len(self.params)} parameters"
            )
        self.step_count += 1
        for i, (p, g) in enumerate(zip(self.params, grads)):
            g = np.asarray(g, dtype=np.float64)
            if g.shape != p.data.shape:
                raise ShapeError(
                    f"Adam.step: gradient shape {g.shape} vs parameter {p.data.shape}"
                )
            self._m[i] = BETA1 * self._m[i] + (1.0 - BETA1) * g
            self._v[i] = BETA2 * self._v[i] + (1.0 - BETA2) * g * g
            m_hat = self._m[i] / (1.0 - BETA1 ** self.step_count)
            v_hat = self._v[i] / (1.0 - BETA2 ** self.step_count)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)


@contextmanager
def overflow_guard(where: str):
    """A numpy overflow inside the block raises ``NonFiniteError``
    prefixed with ``where``, at once and without a warning."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        raise NonFiniteError(f"{where}: {exc}") from exc


def train_step(opt: Adam, loss_fn, where: str) -> tuple[Tensor, float]:
    """One optimizer step on ``loss_fn()``, built on a tape that watches
    ``opt.params``; returns the loss and the gradient's L2 norm.

    An overflow or a NaN met on the way, or a loss or gradient that is
    not finite, raises ``NonFiniteError`` prefixed with ``where`` (say
    "graphcl, epoch 2 of 5") before any parameter changes.
    """
    with overflow_guard(where), Tape() as tape:
        tape.watch(*opt.params)
        try:
            loss = loss_fn()
            grads = tape.backward(loss)
        except NonFiniteError as exc:
            raise NonFiniteError(f"{where}: {exc}") from exc
        grads = [grads[p] for p in opt.params]
        if not (np.isfinite(loss.item()) and all(np.isfinite(g).all() for g in grads)):
            raise NonFiniteError(f"{where}: the loss or a gradient is not finite")
        opt.step(grads)
    return loss, float(np.sqrt(sum(np.sum(g * g) for g in grads)))
