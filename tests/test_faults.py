"""Fault model, encoding, and injection tests."""

import numpy as np
import pytest

from repro.cells import TechnologyClass, sram_cell, tentpoles_for
from repro.errors import FaultModelError
from repro.faults import (
    FaultInjector,
    FaultModel,
    accuracy_under_faults,
    cells_to_bits,
    fault_model_for,
    fefet_mlc_error_rate,
    from_bit_array,
    inject_bits,
    inject_trials,
    quantize_int8,
    slice_into_cells,
    to_bit_array,
)


class TestEncodings:
    def test_quantize_roundtrip_peak(self):
        x = np.array([-1.0, 0.5, 1.0], dtype=np.float32)
        q = quantize_int8(x)
        assert q.values[2] == 127
        assert np.allclose(q.dequantize(), x, atol=q.scale)

    def test_quantize_zero_tensor(self):
        q = quantize_int8(np.zeros(4))
        assert q.scale == 1.0
        assert np.all(q.values == 0)

    def test_bit_roundtrip(self):
        values = np.array([-128, -1, 0, 1, 127], dtype=np.int8)
        bits = to_bit_array(values)
        assert bits.size == 5 * 8
        back = from_bit_array(bits, values.shape)
        assert np.array_equal(back, values)

    def test_from_bits_rejects_ragged(self):
        with pytest.raises(FaultModelError):
            from_bit_array(np.zeros(7, dtype=np.uint8), (1,))

    def test_cell_slicing_roundtrip(self):
        bits = np.array([1, 0, 1, 1, 0, 1], dtype=np.uint8)
        levels = slice_into_cells(bits, 2)
        assert list(levels) == [0b10, 0b11, 0b01]
        back = cells_to_bits(levels, 2, 6)
        assert np.array_equal(back, bits)

    def test_cell_slicing_pads(self):
        bits = np.array([1, 1, 1], dtype=np.uint8)
        levels = slice_into_cells(bits, 2)
        assert levels.size == 2
        back = cells_to_bits(levels, 2, 3)
        assert np.array_equal(back, bits)

    def test_bad_bits_per_cell(self):
        with pytest.raises(FaultModelError):
            slice_into_cells(np.zeros(4, dtype=np.uint8), 0)


class TestFaultModels:
    def test_modelled_subset_matches_paper(self):
        for tech in (TechnologyClass.RRAM, TechnologyClass.CTT, TechnologyClass.FEFET):
            cell = tentpoles_for(tech).optimistic
            model = fault_model_for(cell, 1)
            assert model.tech_class is tech

    def test_unmodelled_techs_raise(self):
        stt = tentpoles_for(TechnologyClass.STT).optimistic
        with pytest.raises(FaultModelError):
            fault_model_for(stt, 1)
        with pytest.raises(FaultModelError):
            fault_model_for(sram_cell(16), 1)

    def test_mlc_worse_than_slc(self):
        rram = tentpoles_for(TechnologyClass.RRAM).optimistic
        assert fault_model_for(rram, 2).cell_error_rate > \
            fault_model_for(rram, 1).cell_error_rate

    def test_three_bit_cells_unsupported(self):
        rram = tentpoles_for(TechnologyClass.RRAM).optimistic
        with pytest.raises(FaultModelError):
            fault_model_for(rram, 3)

    def test_fefet_variation_steep_in_area(self):
        small = fefet_mlc_error_rate(2.0)
        medium = fefet_mlc_error_rate(40.0)
        large = fefet_mlc_error_rate(103.0)
        assert small > 100 * medium
        assert medium > 100 * large
        assert small <= 0.5

    def test_fefet_reference_point(self):
        assert fefet_mlc_error_rate(40.0) == pytest.approx(1.5e-4)

    def test_invalid_area_rejected(self):
        with pytest.raises(FaultModelError):
            fefet_mlc_error_rate(0.0)

    def test_model_validates_rate(self):
        with pytest.raises(FaultModelError):
            FaultModel(TechnologyClass.RRAM, 1, cell_error_rate=1.5)


class TestInjection:
    def test_zero_rate_is_identity(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=800).astype(np.uint8)
        out = inject_bits(bits, 0.0, 1, rng)
        assert np.array_equal(out, bits)

    def test_slc_flip_count_statistics(self):
        rng = np.random.default_rng(1)
        bits = np.zeros(100_000, dtype=np.uint8)
        out = inject_bits(bits, 0.01, 1, rng)
        flips = int(out.sum())
        assert 700 < flips < 1300  # ~1000 expected

    def test_mlc_errors_damage_about_one_bit(self):
        """Gray coding: a +-1 level error flips exactly one bit (away from
        the clamped edges)."""
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=200_000).astype(np.uint8)
        out = inject_bits(bits, 0.01, 2, rng)
        flips = int(np.count_nonzero(bits != out))
        cells = 100_000
        expected_errors = cells * 0.01
        assert 0.5 * expected_errors < flips < 1.6 * expected_errors

    def test_injector_reports_flips(self):
        model = FaultModel(TechnologyClass.RRAM, 1, 0.05)
        injector = FaultInjector(model, seed=3)
        weights = np.random.default_rng(4).normal(size=(64, 64)).astype(np.float32)
        result = injector.inject(weights)
        assert result.corrupted.shape == weights.shape
        assert result.n_bit_flips > 0
        assert not np.allclose(result.corrupted, weights)

    def test_injector_preserves_clean_data_at_zero_rate(self):
        model = FaultModel(TechnologyClass.RRAM, 1, 0.0)
        injector = FaultInjector(model, seed=3)
        weights = np.random.default_rng(4).normal(size=(8, 8)).astype(np.float32)
        result = injector.inject(weights)
        q = quantize_int8(weights)
        assert np.allclose(result.corrupted, q.dequantize())
        assert result.n_bit_flips == 0

    def test_injection_deterministic_per_seed(self):
        model = FaultModel(TechnologyClass.RRAM, 1, 0.05)
        weights = np.random.default_rng(4).normal(size=(16, 16)).astype(np.float32)
        a = FaultInjector(model, seed=7).inject(weights)
        b = FaultInjector(model, seed=7).inject(weights)
        assert np.array_equal(a.corrupted, b.corrupted)

    def test_accuracy_under_faults_averages_trials(self):
        model = FaultModel(TechnologyClass.RRAM, 1, 0.0)
        weights = [np.ones((4, 4), dtype=np.float32)]
        calls = []

        def fake_eval(ws):
            calls.append(1)
            return 0.9

        acc = accuracy_under_faults(fake_eval, weights, model, trials=4)
        assert acc == pytest.approx(0.9)
        assert len(calls) == 4

    def test_accuracy_requires_trials(self):
        model = FaultModel(TechnologyClass.RRAM, 1, 0.0)
        with pytest.raises(FaultModelError):
            accuracy_under_faults(lambda w: 1.0, [], model, trials=0)


class TestBatchedTrials:
    def _weights(self):
        rng = np.random.default_rng(4)
        return [rng.normal(size=(16, 16)).astype(np.float32),
                rng.normal(size=(8,)).astype(np.float32)]

    def test_trial_and_tensor_structure(self):
        model = FaultModel(TechnologyClass.RRAM, 1, 0.05)
        weights = self._weights()
        trials = inject_trials(weights, model, trials=3, seed=1)
        assert len(trials) == 3
        for results in trials:
            assert len(results) == len(weights)
            for result, source in zip(results, weights):
                assert result.corrupted.shape == source.shape
                assert result.corrupted.dtype == source.dtype

    def test_zero_rate_identity_across_trials(self):
        model = FaultModel(TechnologyClass.RRAM, 1, 0.0)
        weights = self._weights()
        for results in inject_trials(weights, model, trials=3, seed=1):
            for result, source in zip(results, weights):
                q = quantize_int8(source)
                assert np.allclose(result.corrupted, q.dequantize())
                assert result.n_bit_flips == 0
                assert result.n_cell_errors == 0

    def test_deterministic_per_seed(self):
        model = FaultModel(TechnologyClass.RRAM, 1, 0.05)
        weights = self._weights()
        a = inject_trials(weights, model, trials=2, seed=7)
        b = inject_trials(weights, model, trials=2, seed=7)
        for ra, rb in zip(a, b):
            for x, y in zip(ra, rb):
                assert np.array_equal(x.corrupted, y.corrupted)
                assert x.n_bit_flips == y.n_bit_flips

    def test_trials_are_independent(self):
        model = FaultModel(TechnologyClass.RRAM, 1, 0.1)
        weights = [np.ones((32, 32), dtype=np.float32)]
        first, second = inject_trials(weights, model, trials=2, seed=3)
        assert not np.array_equal(first[0].corrupted, second[0].corrupted)

    def test_flip_statistics_match_rate(self):
        model = FaultModel(TechnologyClass.RRAM, 1, 0.01)
        weights = [np.random.default_rng(0).normal(size=(100, 100))]
        trials = inject_trials(weights, model, trials=4, seed=2)
        flips = [t[0].n_bit_flips for t in trials]
        expected = 100 * 100 * 8 * 0.01  # 800 bits per trial
        assert 0.6 * expected < np.mean(flips) < 1.4 * expected

    def test_mlc_trials_use_gray_drift(self):
        model = FaultModel(TechnologyClass.FEFET, 2, 0.02)
        weights = [np.random.default_rng(1).normal(size=(64, 64))
                   .astype(np.float32)]
        for results in inject_trials(weights, model, trials=2, seed=5):
            result = results[0]
            assert result.n_cell_errors > 0
            # Gray coding keeps bit damage close to one bit per cell error.
            assert result.n_bit_flips <= 2 * result.n_cell_errors

    def test_requires_at_least_one_trial(self):
        model = FaultModel(TechnologyClass.RRAM, 1, 0.0)
        with pytest.raises(FaultModelError):
            inject_trials([np.ones(4)], model, trials=0)

    def test_unsupported_bits_per_cell_rejected(self):
        model = FaultModel(TechnologyClass.RRAM, 4, 0.5)
        with pytest.raises(FaultModelError):
            inject_trials([np.ones((4, 4))], model, trials=1)

    def test_inject_and_inject_trials_report_identical_counters(self):
        model = FaultModel(TechnologyClass.FEFET, 2, 0.05)
        weights = self._weights()[0]
        single = FaultInjector(model, seed=5).inject(weights)
        [[batched]] = inject_trials([weights], model, trials=1, seed=5)
        assert np.array_equal(single.corrupted, batched.corrupted)
        assert single.n_cell_errors == batched.n_cell_errors
        assert single.n_bit_flips == batched.n_bit_flips

    def test_empty_weight_list(self):
        model = FaultModel(TechnologyClass.RRAM, 1, 0.5)
        assert inject_trials([], model, trials=3) == [[], [], []]
