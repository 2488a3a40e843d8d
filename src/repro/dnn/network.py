"""A sequential network with weight get/set for fault injection."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.dnn.layers import Dense, ReLU, cross_entropy_grad
from repro.errors import ReproError


class MLP:
    """A multi-layer perceptron classifier.

    ``layer_sizes`` includes the input and output dimensions, e.g.
    ``(16, 64, 64, 10)`` builds two hidden layers.
    """

    def __init__(self, layer_sizes: Sequence[int], seed: int = 0) -> None:
        if len(layer_sizes) < 2:
            raise ReproError("need at least input and output sizes")
        rng = np.random.default_rng(seed)
        self.layers: list = []
        for i, (n_in, n_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
            self.layers.append(Dense(n_in, n_out, rng=rng))
            if i < len(layer_sizes) - 2:
                self.layers.append(ReLU())
        self.layer_sizes = tuple(layer_sizes)

    # --- inference -----------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=np.float32)
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x).argmax(axis=1)

    def accuracy(self, x: np.ndarray, labels: np.ndarray) -> float:
        return float((self.predict(x) == labels).mean())

    # --- training --------------------------------------------------------------

    def train_step(
        self, x: np.ndarray, labels: np.ndarray, learning_rate: float
    ) -> float:
        logits = self.forward(x)
        loss, grad = cross_entropy_grad(logits, labels)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        for layer in self.layers:
            layer.step(learning_rate)
        return loss

    # --- weights as tensors (the fault-injection interface) ---------------------

    @property
    def dense_layers(self) -> list[Dense]:
        return [layer for layer in self.layers if isinstance(layer, Dense)]

    def get_weights(self) -> list[np.ndarray]:
        """Copies of every dense layer's weight matrix (biases excluded —
        biases stay in registers/SRAM in the storage scenarios)."""
        return [layer.weight.copy() for layer in self.dense_layers]

    def set_weights(self, weights: Sequence[np.ndarray]) -> None:
        dense = self.dense_layers
        if len(weights) != len(dense):
            raise ReproError(
                f"expected {len(dense)} weight tensors, got {len(weights)}"
            )
        for layer, new in zip(dense, weights):
            if new.shape != layer.weight.shape:
                raise ReproError(
                    f"weight shape mismatch: {new.shape} vs {layer.weight.shape}"
                )
            layer.weight = np.asarray(new, dtype=np.float32).copy()

    @property
    def n_parameters(self) -> int:
        return sum(layer.parameters for layer in self.dense_layers)
