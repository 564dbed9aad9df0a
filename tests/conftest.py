"""Shared fixtures and helpers."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from convmatch.nn import GRUParams


def gru_weights_dict(params: GRUParams) -> dict:
    """GRUParams tensors as plain nested lists for the scalar-loop oracles."""
    return {name: getattr(params, name).values.tolist()
            for name in ("w_z", "w_r", "w_h", "u_z", "u_r", "u_h",
                         "b_z", "b_r", "b_h")}


def params_digest(params) -> str:
    """SHA-1 over every parameter's name, shape and bytes, in registry order."""
    h = hashlib.sha1()
    for name, tensor in params.registry().items():
        h.update(name.encode())
        h.update(repr(tensor.values.shape).encode())
        h.update(tensor.values.tobytes())
    return h.hexdigest()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
