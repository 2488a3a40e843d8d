"""Trained proxy networks for the paper's fault-study workloads.

The paper injects faults into ResNet18 weights and measures ImageNet-class
accuracy through PyTorch.  Offline, this module supplies the equivalent
integration point: small MLPs trained on a synthetic task, registered under
the workload names the studies use.  What matters for the reproduction is
the *accuracy-versus-error-rate response*, which is a property of the fault
models and the storage encoding, not of the network's absolute size.

Like the paper's pretrained ResNet18, the proxies are not trained in the
loop: the weights and biases of every registered proxy are committed in
``proxy_weights.npz`` beside this module, and :func:`trained_proxy` builds
the network from that file.  :func:`_train` is the recipe that produced
the file and stays as its exactness oracle: ``tests/test_dnn.py`` retrains
every proxy and requires each array to equal the file's bit for bit.
After a deliberate recipe change, regenerate the file (byte-stable, so an
unchanged recipe leaves no diff) and commit it with the change::

    PYTHONPATH=src python -c "import repro.dnn.proxies as p; p.write_weights()"
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.dnn.data import Dataset, gaussian_clusters
from repro.dnn.network import MLP
from repro.errors import ReproError
from repro.faults.injection import accuracy_under_faults
from repro.faults.models import FaultModel


@dataclass(frozen=True)
class TrainedProxy:
    """A trained network plus its evaluation data and clean accuracy."""

    name: str
    network: MLP
    dataset: Dataset
    baseline_accuracy: float

    def evaluate_with_weights(self, weights: Sequence[np.ndarray]) -> float:
        """Task accuracy with the given (possibly corrupted) weights."""
        original = self.network.get_weights()
        try:
            self.network.set_weights(weights)
            return self.network.accuracy(self.dataset.x_test, self.dataset.y_test)
        finally:
            self.network.set_weights(original)

    def accuracy_under_model(
        self, model: FaultModel, trials: int = 5, seed: int = 0
    ) -> float:
        """Mean accuracy across fault-injection trials."""
        return accuracy_under_faults(
            self.evaluate_with_weights,
            self.network.get_weights(),
            model,
            trials=trials,
            seed=seed,
        )


#: Seeds the proxies' dataset, initial weights and batch order.
_SEED = 3

_WEIGHTS_PATH = Path(__file__).with_name("proxy_weights.npz")
#: Every member's timestamp, so the same weights always give the same bytes.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


def _untrained(hidden: tuple[int, ...]) -> tuple[Dataset, MLP]:
    dataset = gaussian_clusters(seed=_SEED)
    sizes = (dataset.n_features, *hidden, dataset.n_classes)
    return dataset, MLP(sizes, seed=_SEED)


def _train(
    name: str,
    hidden: tuple[int, ...],
    epochs: int = 30,
    learning_rate: float = 0.08,
) -> TrainedProxy:
    """The training recipe behind the committed weights."""
    dataset, network = _untrained(hidden)
    n = len(dataset.y_train)
    batch = 64
    rng = np.random.default_rng(_SEED + 1)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            network.train_step(dataset.x_train[idx], dataset.y_train[idx], learning_rate)
    accuracy = network.accuracy(dataset.x_test, dataset.y_test)
    if accuracy < 0.7:
        raise ReproError(f"proxy {name} failed to train (accuracy {accuracy:.2f})")
    return TrainedProxy(
        name=name, network=network, dataset=dataset, baseline_accuracy=accuracy
    )


_PROXY_SHAPES: dict[str, tuple[int, ...]] = {
    "resnet18": (96, 96),
    "resnet26": (96, 96, 64),
    "albert": (128, 96),
}


def _array_keys(name: str, layer_index: int) -> tuple[str, str]:
    """The (weight, bias) keys of one dense layer in the weights file."""
    return f"{name}.weight{layer_index}", f"{name}.bias{layer_index}"


def _load(
    name: str, hidden: tuple[int, ...], path: Path = _WEIGHTS_PATH
) -> TrainedProxy:
    """The proxy with its arrays read from the weights file at ``path``."""
    dataset, network = _untrained(hidden)
    with np.load(path, allow_pickle=False) as archive:
        for index, layer in enumerate(network.dense_layers):
            for attr, key in zip(("weight", "bias"), _array_keys(name, index)):
                expected = getattr(layer, attr)
                if key not in archive.files:
                    raise ReproError(f"proxy {name}: {path.name} has no {key!r}")
                array = archive[key]
                if array.shape != expected.shape or array.dtype != expected.dtype:
                    raise ReproError(
                        f"proxy {name}: {path.name}[{key!r}] is {array.dtype}"
                        f"{list(array.shape)}, expected {expected.dtype}"
                        f"{list(expected.shape)}"
                    )
                setattr(layer, attr, array)
    accuracy = network.accuracy(dataset.x_test, dataset.y_test)
    return TrainedProxy(
        name=name, network=network, dataset=dataset, baseline_accuracy=accuracy
    )


def write_weights(path: Path = _WEIGHTS_PATH) -> None:
    """Retrain every registered proxy and write its arrays to ``path``."""
    with zipfile.ZipFile(path, "w") as archive:
        for name, hidden in sorted(_PROXY_SHAPES.items()):
            network = _train(name, hidden).network
            for index, layer in enumerate(network.dense_layers):
                arrays = (layer.weight, layer.bias)
                for key, array in zip(_array_keys(name, index), arrays):
                    member = zipfile.ZipInfo(f"{key}.npy", date_time=_ZIP_EPOCH)
                    with archive.open(member, "w") as stream:
                        np.lib.format.write_array(stream, array, allow_pickle=False)


@lru_cache(maxsize=None)
def trained_proxy(name: str) -> TrainedProxy:
    """The cached proxy for a workload name, built from the committed weights."""
    try:
        hidden = _PROXY_SHAPES[name]
    except KeyError:
        raise ReproError(
            f"no proxy network registered for {name!r} "
            f"(known: {sorted(_PROXY_SHAPES)})"
        ) from None
    return _load(name, hidden)
