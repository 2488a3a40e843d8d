"""Application-level fault injection (the paper's Ares-derived tool).

Corrupts application data the way the storage would: quantize to the stored
format, slice the bits across cells, flip cell levels with the fault model's
probability, decode, and hand the damaged tensor back to the application.
MLC level errors are modelled as +-1 level excursions over a Gray-coded
mapping, so a single cell error usually damages a single bit — exactly what
multi-level sensing margin analysis predicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import FaultModelError
from repro.faults.encodings import (
    QuantizedTensor,
    cells_to_bits,
    from_bit_array,
    quantize_int8,
    slice_into_cells,
    to_bit_array,
)
from repro.faults.models import FaultModel

_GRAY_2BIT = np.array([0b00, 0b01, 0b11, 0b10], dtype=np.int64)
_GRAY_2BIT_INVERSE = np.argsort(_GRAY_2BIT)

#: Ceiling on the (trials x cells) error matrix drawn in one RNG call by
#: :func:`inject_trials`; larger jobs draw in trial chunks so peak memory
#: stays bounded regardless of the trial count.
_MAX_BATCH_ELEMENTS = 1 << 24


def _corrupt_levels(
    levels: np.ndarray,
    errors: np.ndarray,
    bits_per_cell: int,
    rng: np.random.Generator,
) -> None:
    """Apply the cell-level error process to ``levels`` in place.

    ``errors`` is a boolean mask of the same shape.  1-bit cells flip;
    Gray-coded MLC levels drift +-1 with equal probability (clamped at the
    window edges), so most cell errors cost one bit.
    """
    n_errors = int(np.count_nonzero(errors))
    if not n_errors:
        return
    if bits_per_cell == 1:
        levels[errors] ^= 1
    else:
        gray = _GRAY_2BIT_INVERSE[levels[errors]]
        step = rng.choice([-1, 1], size=n_errors)
        drifted = np.clip(gray + step, 0, (1 << bits_per_cell) - 1)
        levels[errors] = _GRAY_2BIT[drifted]


def inject_bits(
    bits: np.ndarray,
    cell_error_rate: float,
    bits_per_cell: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Corrupt a flat bit array through the cell-level error process."""
    if not 0.0 <= cell_error_rate <= 1.0:
        raise FaultModelError("cell_error_rate must be a probability")
    n_bits = bits.size
    levels = slice_into_cells(bits, bits_per_cell)
    errors = rng.random(levels.size) < cell_error_rate
    if not errors.any():
        return bits.copy()
    corrupted = levels.copy()
    _corrupt_levels(corrupted, errors, bits_per_cell, rng)
    return cells_to_bits(corrupted, bits_per_cell, n_bits)


@dataclass
class InjectionResult:
    """One fault-injection trial's outcome."""

    corrupted: np.ndarray  # same shape/dtype family as the input tensor
    n_cell_errors: int
    n_bit_flips: int


class FaultInjector:
    """Injects storage faults into float tensors via int8 quantization."""

    def __init__(self, model: FaultModel, seed: int = 0) -> None:
        self.model = model
        self._rng = np.random.default_rng(seed)

    def inject(self, tensor: np.ndarray) -> InjectionResult:
        """One trial: quantize, corrupt, dequantize."""
        return inject_trials([tensor], self.model, trials=1, rng=self._rng)[0][0]


def inject_trials(
    tensors: Sequence[np.ndarray],
    model: FaultModel,
    trials: int,
    seed: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> list[list[InjectionResult]]:
    """Corrupt a tensor set across ``trials`` independent trials at once.

    The quantize/bit-slice step runs once per tensor; the error draws for
    every (trial, cell) happen in one batched RNG call over the
    concatenated cell array, replacing the per-trial ``FaultInjector``
    instantiation of the serial path.  Returns one result list (matching
    ``tensors``) per trial; ``n_cell_errors`` counts cells whose stored
    level actually changed.
    """
    if trials < 1:
        raise FaultModelError("need at least one trial")
    if rng is None:
        rng = np.random.default_rng(seed)
    rate = model.cell_error_rate
    bits_per_cell = model.bits_per_cell
    if not 0.0 <= rate <= 1.0:
        raise FaultModelError("cell_error_rate must be a probability")
    if bits_per_cell > 2:
        raise FaultModelError(
            "level drift is modelled for 1- and 2-bit cells only")

    arrays = [np.asarray(t) for t in tensors]
    quantized = [quantize_int8(t) for t in arrays]
    bit_arrays = [to_bit_array(q.values) for q in quantized]
    level_arrays = [slice_into_cells(b, bits_per_cell) for b in bit_arrays]
    if not level_arrays:
        return [[] for _ in range(trials)]
    boundaries = np.cumsum([lv.size for lv in level_arrays])[:-1]
    levels = np.concatenate(level_arrays)
    original_splits = np.split(levels, boundaries)

    # Draw errors for as many trials at once as fits the element budget
    # (all of them, for typical weight sets); huge tensors degrade to
    # per-trial draws from the same generator rather than blowing up peak
    # memory by a factor of ``trials``.
    chunk = max(1, min(trials, _MAX_BATCH_ELEMENTS // max(1, levels.size)))
    out: list[list[InjectionResult]] = []
    while len(out) < trials:
        n_chunk = min(chunk, trials - len(out))
        corrupted = np.broadcast_to(levels, (n_chunk, levels.size)).copy()
        errors = rng.random(corrupted.shape) < rate
        _corrupt_levels(corrupted, errors, bits_per_cell, rng)

        for trial in range(n_chunk):
            per_tensor = np.split(corrupted[trial], boundaries)
            results = []
            for source, q, bits, damaged_levels, original_levels in zip(
                arrays, quantized, bit_arrays, per_tensor, original_splits,
            ):
                damaged_bits = cells_to_bits(
                    damaged_levels, bits_per_cell, bits.size)
                damaged_values = from_bit_array(damaged_bits, q.values.shape)
                damaged = QuantizedTensor(
                    values=damaged_values, scale=q.scale)
                results.append(InjectionResult(
                    corrupted=damaged.dequantize().astype(
                        source.dtype, copy=False),
                    n_cell_errors=int(
                        np.count_nonzero(damaged_levels != original_levels)),
                    n_bit_flips=int(np.count_nonzero(damaged_bits != bits)),
                ))
            out.append(results)
    return out


def accuracy_under_faults(
    evaluate_with_weights: Callable[[Sequence[np.ndarray]], float],
    weights: Sequence[np.ndarray],
    model: FaultModel,
    trials: int = 5,
    seed: int = 0,
) -> float:
    """Mean task accuracy across fault-injection trials.

    ``evaluate_with_weights`` maps a full weight set to a task accuracy;
    this is the integration point with :mod:`repro.dnn` (and, in the paper,
    with PyTorch/snap).  Fault draws are batched through
    :func:`inject_trials` in trial chunks sized to the element budget, so
    corrupted weight copies are evaluated and released chunk by chunk
    instead of all trials being resident at once; only the evaluation
    callback runs per trial.
    """
    if trials < 1:
        raise FaultModelError("need at least one trial")
    total_values = sum(int(np.asarray(w).size) for w in weights)
    chunk = max(1, min(trials, _MAX_BATCH_ELEMENTS // max(1, 8 * total_values)))
    rng = np.random.default_rng(seed)
    accuracies = []
    while len(accuracies) < trials:
        n_chunk = min(chunk, trials - len(accuracies))
        for trial_results in inject_trials(weights, model, n_chunk, rng=rng):
            accuracies.append(
                evaluate_with_weights([r.corrupted for r in trial_results]))
    return float(np.mean(accuracies))
