"""Estimator plumbing: parameter introspection and input validation.

The trainable components (pre-trainers, prompt tuner) follow the
scikit-learn estimator conventions (constructor arguments are stored
verbatim, ``get_params``/``set_params`` expose them for composition, and
fitted state lives in trailing-underscore attributes) without depending
on scikit-learn itself.
"""

from __future__ import annotations

import inspect
import os
import tempfile

import numpy as np

from .errors import ConfigError, NotFittedError


class BaseEstimator:
    """get_params/set_params over the subclass's ``__init__`` signature."""

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]

    def get_params(self) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "BaseEstimator":
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ConfigError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


def check_is_fitted(estimator, *attributes: str) -> None:
    for attr in attributes:
        if getattr(estimator, attr, None) is None:
            raise NotFittedError(
                f"{type(estimator).__name__} is not fitted yet; call fit() first"
            )


def check_positive(name: str, value) -> None:
    """``value`` must be a finite number above 0 (not None, NaN or inf)."""
    if value is None or not 0 < value < float("inf"):
        raise ConfigError(f"{name} must be positive and finite, got {value}")


def check_unit_interval(name: str, value) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must be in [0, 1], got {value}")


def seeded_rng(seed, *stream: int) -> np.random.Generator:
    """The generator of one named stream under a user seed; the seed must
    be a non-negative int, else ``ConfigError``."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng([int(seed), *stream])


def atomic_write(path, blob: bytes) -> None:
    """Write ``blob`` to ``path`` by renaming a temporary file beside it
    (making the directory): an interrupted write leaves the old file whole."""
    directory = os.path.dirname(os.fspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
