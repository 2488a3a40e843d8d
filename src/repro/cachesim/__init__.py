"""Cache-simulation substrate: caches, address streams, LLC trace derivation.

Two simulation APIs coexist:

* the reference one-access-at-a-time :class:`Cache` (exact LRU semantics,
  used as ground truth), and
* the vectorized batch engine, :func:`repro.cachesim.batch.simulate_batch`,
  which replays a whole ``(addresses, is_write)`` array pair at once with
  identical :class:`CacheStats` — the fast path behind
  :func:`simulate_llc_traffic` and the write-buffer coalescing study.

Streams (``sequential_batch`` / ``strided_batch`` / ``zipfian_batch`` /
:meth:`WorkloadModel.batch`) return the whole ``(addresses, is_write)``
pair as numpy arrays in one shot.

The package is pure model code and imports nothing from the runtime
package: regenerated LLC traces are cached by the engine's trace phase
(``DSEEngine.llc_traces``).
"""

from repro.cachesim.batch import BatchResult, simulate_batch
from repro.cachesim.cache import Cache, CacheConfig, CacheStats
from repro.cachesim.llc import (
    SYNTHETIC_SUITE,
    LLCTrace,
    simulate_llc_traffic,
)
from repro.cachesim.streams import (
    WorkloadModel,
    sequential_batch,
    strided_batch,
    zipfian_batch,
)

__all__ = [
    "BatchResult",
    "Cache",
    "CacheConfig",
    "CacheStats",
    "WorkloadModel",
    "simulate_batch",
    "sequential_batch",
    "strided_batch",
    "zipfian_batch",
    "LLCTrace",
    "simulate_llc_traffic",
    "SYNTHETIC_SUITE",
]
