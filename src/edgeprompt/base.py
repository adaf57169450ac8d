"""Estimator plumbing: parameter introspection and input validation.

The trainable components (pre-trainers, prompt tuner) follow the
scikit-learn estimator conventions (constructor arguments are stored
verbatim, ``get_params``/``set_params`` expose them for composition, and
fitted state lives in trailing-underscore attributes) without depending
on scikit-learn itself.  Each is a dataclass: its fields are its
parameters, declared once and keyword-only, and the generated
``__init__`` and ``repr`` follow them.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile

import numpy as np

from .errors import ConfigError, NotFittedError


class BaseEstimator:
    """get_params/set_params over the subclass's dataclass fields."""

    @classmethod
    def _param_names(cls) -> list[str]:
        return [f.name for f in dataclasses.fields(cls)]

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
