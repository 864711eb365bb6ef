"""Tiny layer library over the autodiff Tensor: linear maps, MLPs, layer norm,
and a parameter registry helper. Initialization is deterministic under the
numpy generator handed in by the caller.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import FormatError


class Linear:
    def __init__(self, rng: np.random.Generator, fan_in: int, fan_out: int):
        scale = np.sqrt(2.0 / max(1, fan_in))
        self.w = Tensor(rng.normal(0.0, scale, size=(fan_in, fan_out)), requires_grad=True)
        self.b = Tensor(np.zeros(fan_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.w, self.b)

    def parameters(self) -> dict[str, Tensor]:
        return {"w": self.w, "b": self.b}


class MLP:
    """Linear layers with relu between them (none after the last)."""

    def __init__(self, rng: np.random.Generator, sizes: list[int]):
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        self.layers = [Linear(rng, sizes[i], sizes[i + 1]) for i in range(len(sizes) - 1)]

    def __call__(self, x: Tensor) -> Tensor:
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = ad.relu(x)
        return x

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        for i, layer in enumerate(self.layers):
            for k, v in layer.parameters().items():
                out[f"l{i}.{k}"] = v
        return out


class LayerNorm:
    def __init__(self, dim: int):
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.bias = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gain, self.bias)

    def parameters(self) -> dict[str, Tensor]:
        return {"gain": self.gain, "bias": self.bias}


def collect_parameters(modules: dict[str, object]) -> dict[str, Tensor]:
    """Merge parameters() of named submodules under dotted prefixes."""
    out: dict[str, Tensor] = {}
    for prefix, module in modules.items():
        for k, v in module.parameters().items():
            out[f"{prefix}.{k}"] = v
    return out


def load_parameters(params: dict[str, Tensor], values: dict[str, np.ndarray], path: str) -> None:
    """Copy the arrays of checkpoint `path` into an existing parameter registry.

    Nothing is copied unless every name and shape matches; otherwise a
    FormatError names the path and the first missing, unexpected or wrongly
    shaped parameter."""
    for name, p in params.items():
        if name not in values:
            raise FormatError(f"checkpoint {path}: missing parameter {name!r}")
        if values[name].shape != p.values.shape:
            raise FormatError(
                f"checkpoint {path}: parameter {name!r} has shape {values[name].shape}, "
                f"the model needs {p.values.shape}"
            )
    for name in values:
        if name not in params:
            raise FormatError(f"checkpoint {path}: unexpected parameter {name!r}")
    for name, p in params.items():
        p.values[...] = values[name]
