"""Numpy DNN substrate tests: layers, network, data, proxies."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.dnn import (
    MLP,
    Dense,
    ReLU,
    cross_entropy_grad,
    gaussian_clusters,
    softmax,
    trained_proxy,
)
from repro.dnn import proxies
from repro.errors import ReproError


def _file_arrays():
    with np.load(proxies._WEIGHTS_PATH) as archive:
        return {key: archive[key] for key in archive.files}


class TestLayers:
    def test_dense_forward_shape(self):
        layer = Dense(4, 3)
        out = layer.forward(np.ones((5, 4), dtype=np.float32))
        assert out.shape == (5, 3)

    def test_dense_gradient_check(self):
        """Numerical vs analytical gradient on a tiny layer."""
        rng = np.random.default_rng(0)
        layer = Dense(3, 2, rng=rng)
        x = rng.normal(size=(4, 3)).astype(np.float32)
        grad_out = rng.normal(size=(4, 2)).astype(np.float32)

        layer.forward(x)
        layer.backward(grad_out)
        analytical = layer.grad_weight.copy()

        eps = 1e-4
        numerical = np.zeros_like(layer.weight)
        for i in range(3):
            for j in range(2):
                layer.weight[i, j] += eps
                plus = float((layer.forward(x) * grad_out).sum())
                layer.weight[i, j] -= 2 * eps
                minus = float((layer.forward(x) * grad_out).sum())
                layer.weight[i, j] += eps
                numerical[i, j] = (plus - minus) / (2 * eps)
        assert np.allclose(analytical, numerical, atol=1e-2)

    def test_dense_backward_before_forward(self):
        with pytest.raises(ReproError):
            Dense(2, 2).backward(np.zeros((1, 2)))

    def test_relu(self):
        relu = ReLU()
        x = np.array([[-1.0, 0.0, 2.0]])
        assert np.array_equal(relu.forward(x), [[0.0, 0.0, 2.0]])
        grad = relu.backward(np.ones_like(x))
        assert np.array_equal(grad, [[0.0, 0.0, 1.0]])

    def test_softmax_rows_sum_to_one(self):
        probs = softmax(np.random.default_rng(1).normal(size=(6, 4)))
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs >= 0)

    def test_softmax_stability_large_logits(self):
        probs = softmax(np.array([[1000.0, 1000.0]]))
        assert np.allclose(probs, 0.5)

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss, grad = cross_entropy_grad(logits, np.array([0, 1]))
        assert loss < 1e-6
        assert np.allclose(grad, 0.0, atol=1e-6)


class TestMLP:
    def test_construction_validates(self):
        with pytest.raises(ReproError):
            MLP([4])

    def test_training_reduces_loss(self):
        data = gaussian_clusters(n_classes=4, train_per_class=50, test_per_class=20)
        net = MLP((data.n_features, 32, 4), seed=1)
        first = net.train_step(data.x_train, data.y_train, 0.05)
        for _ in range(40):
            last = net.train_step(data.x_train, data.y_train, 0.05)
        assert last < first

    def test_weight_roundtrip(self):
        net = MLP((4, 8, 2), seed=0)
        weights = net.get_weights()
        assert len(weights) == 2
        weights[0][:] = 0.0
        net.set_weights(weights)
        assert np.all(net.dense_layers[0].weight == 0.0)

    def test_get_weights_returns_copies(self):
        net = MLP((4, 8, 2), seed=0)
        weights = net.get_weights()
        weights[0][:] = 99.0
        assert not np.any(net.dense_layers[0].weight == 99.0)

    def test_set_weights_validates_shapes(self):
        net = MLP((4, 8, 2), seed=0)
        with pytest.raises(ReproError):
            net.set_weights([np.zeros((4, 8))])
        with pytest.raises(ReproError):
            net.set_weights([np.zeros((4, 9)), np.zeros((8, 2))])

    def test_parameter_count(self):
        net = MLP((4, 8, 2), seed=0)
        assert net.n_parameters == (4 * 8 + 8) + (8 * 2 + 2)


class TestData:
    def test_deterministic(self):
        a = gaussian_clusters(seed=9)
        b = gaussian_clusters(seed=9)
        assert np.array_equal(a.x_train, b.x_train)
        assert np.array_equal(a.y_test, b.y_test)

    def test_shapes_and_classes(self):
        data = gaussian_clusters(n_classes=5, train_per_class=10, test_per_class=4)
        assert data.x_train.shape == (50, 16)
        assert data.x_test.shape == (20, 16)
        assert set(np.unique(data.y_train)) == set(range(5))

    def test_too_few_classes_rejected(self):
        with pytest.raises(ReproError):
            gaussian_clusters(n_classes=1)


class TestProxies:
    def test_registry_trains_and_caches(self):
        a = trained_proxy("resnet18")
        b = trained_proxy("resnet18")
        assert a is b
        assert a.baseline_accuracy > 0.75

    def test_unknown_proxy_rejected(self):
        with pytest.raises(ReproError):
            trained_proxy("gpt-17")

    def test_evaluate_with_weights_restores_originals(self):
        proxy = trained_proxy("resnet18")
        before = proxy.network.get_weights()
        zeroed = [np.zeros_like(w) for w in before]
        degraded = proxy.evaluate_with_weights(zeroed)
        after = proxy.network.get_weights()
        assert degraded < proxy.baseline_accuracy
        for b, a in zip(before, after):
            assert np.array_equal(b, a)

    def test_accuracy_under_clean_model_matches_baseline(self):
        from repro.faults import FaultModel
        from repro.cells import TechnologyClass

        proxy = trained_proxy("resnet18")
        clean = FaultModel(TechnologyClass.RRAM, 1, 0.0)
        acc = proxy.accuracy_under_model(clean, trials=1)
        # int8 quantization costs at most a sliver of accuracy
        assert acc >= proxy.baseline_accuracy - 0.03

    def test_catastrophic_error_rate_destroys_accuracy(self):
        from repro.faults import FaultModel
        from repro.cells import TechnologyClass

        proxy = trained_proxy("resnet18")
        broken = FaultModel(TechnologyClass.RRAM, 1, 0.4)
        acc = proxy.accuracy_under_model(broken, trials=2)
        assert acc < proxy.baseline_accuracy - 0.2

    @pytest.mark.parametrize("name", sorted(proxies._PROXY_SHAPES))
    def test_weights_file_matches_training_recipe(self, name):
        """The committed arrays are exactly what the recipe trains, bit for bit."""
        trained = proxies._train(name, proxies._PROXY_SHAPES[name])
        arrays = _file_arrays()
        for index, layer in enumerate(trained.network.dense_layers):
            weight_key, bias_key = proxies._array_keys(name, index)
            assert np.array_equal(layer.weight, arrays[weight_key])
            assert np.array_equal(layer.bias, arrays[bias_key])
        assert trained_proxy(name).baseline_accuracy == trained.baseline_accuracy

    def test_trained_proxy_never_trains(self, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained_proxy must not train")

        monkeypatch.setattr(MLP, "train_step", no_training)
        trained_proxy.cache_clear()
        for name in proxies._PROXY_SHAPES:
            assert trained_proxy(name).baseline_accuracy > 0.75

    def test_weights_file_matches_registry(self):
        """One float32 array of the registry's shape per layer, and no extra names."""
        expected = {}
        for name, hidden in proxies._PROXY_SHAPES.items():
            _, network = proxies._untrained(hidden)
            for index, layer in enumerate(network.dense_layers):
                for key, array in zip(
                    proxies._array_keys(name, index), (layer.weight, layer.bias)
                ):
                    expected[key] = (array.shape, np.dtype(np.float32))
        found = {key: (a.shape, a.dtype) for key, a in _file_arrays().items()}
        assert found == expected

    def test_missing_weights_entry_names_the_proxy(self, tmp_path):
        arrays = _file_arrays()
        del arrays["resnet26.bias2"]
        path = tmp_path / "weights.npz"
        np.savez(path, **arrays)
        with pytest.raises(ReproError, match="proxy resnet26.*resnet26.bias2"):
            proxies._load("resnet26", proxies._PROXY_SHAPES["resnet26"], path)

    def test_misshaped_weights_entry_names_the_proxy(self, tmp_path):
        arrays = _file_arrays()
        arrays["albert.weight1"] = arrays["albert.weight1"][:, :-1]
        path = tmp_path / "weights.npz"
        np.savez(path, **arrays)
        with pytest.raises(ReproError, match="proxy albert.*albert.weight1"):
            proxies._load("albert", proxies._PROXY_SHAPES["albert"], path)


class TestBlasThreads:
    """``import repro`` gives OpenBLAS one thread unless the user chose otherwise."""

    _SRC = str(Path(__file__).resolve().parents[1] / "src")

    def _run(self, code, **env):
        base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**base, "PYTHONPATH": self._SRC, **env},
            capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()

    def test_default_is_one_thread(self):
        code = (
            "import os, repro, numpy as np\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
            "a = np.ones((512, 512), dtype=np.float32)\n"
            "a @ a\n"
            "if os.path.isdir('/proc/self/task'):\n"
            "    print(len(os.listdir('/proc/self/task')))\n"
        )
        lines = self._run(code).splitlines()
        assert lines[0] == "1"
        if sys.platform.startswith("linux"):
            assert lines[1:] == ["1"]

    def test_user_setting_is_kept(self):
        code = "import os, repro; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert self._run(code, OPENBLAS_NUM_THREADS="3") == "3"
