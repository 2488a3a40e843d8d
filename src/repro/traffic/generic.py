"""Generic traffic sweep generators (Section IV-B's "generic trafﬁc").

The graph-processing study evaluates memories under a grid of read and write
bandwidths covering the demands of graph kernels: read rates of 1-10 GB/s
and write rates of 1-100 MB/s, per the workload characterization the paper
cites.  These helpers build that grid (and arbitrary custom grids).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import TrafficError
from repro.traffic.base import TrafficPattern

#: The graph-processing envelope the paper sweeps (bytes/second).
GRAPH_READ_BANDWIDTH_RANGE = (1e9, 10e9)
GRAPH_WRITE_BANDWIDTH_RANGE = (1e6, 100e6)


def log_spaced(low: float, high: float, count: int) -> list[float]:
    """``count`` log-spaced values covering [low, high]."""
    if low <= 0 or high <= 0:
        raise TrafficError("log-spaced ranges must be positive")
    if high < low:
        raise TrafficError("range upper bound below lower bound")
    if count < 1:
        raise TrafficError("count must be >= 1")
    if count == 1:
        return [low]
    return list(np.logspace(np.log10(low), np.log10(high), count))


def generic_sweep(
    read_rates: Iterable[float],
    write_rates: Iterable[float],
    access_bytes: int = 8,
    name_prefix: str = "generic",
) -> list[TrafficPattern]:
    """Cross product of read x write access rates (accesses/second)."""
    patterns = []
    for r in read_rates:
        for w in write_rates:
            patterns.append(
                TrafficPattern(
                    name=f"{name_prefix}-r{r:.2e}-w{w:.2e}",
                    reads_per_second=float(r),
                    writes_per_second=float(w),
                    access_bytes=access_bytes,
                    metadata={"kind": "generic"},
                )
            )
    return patterns


def graph_envelope_sweep(
    points_per_axis: int = 5,
    access_bytes: int = 8,
    extend_low_reads: bool = True,
) -> list[TrafficPattern]:
    """The paper's graph-processing traffic grid.

    Read bandwidth spans 1-10 GB/s and write bandwidth 1-100 MB/s; with
    ``extend_low_reads`` the read axis is stretched down two decades so the
    power-versus-read-rate plot (Figure 8, left) covers the light-traffic
    region where FeFET wins.
    """
    read_low, read_high = GRAPH_READ_BANDWIDTH_RANGE
    if extend_low_reads:
        read_low = read_low / 100.0
    reads = [
        bw / access_bytes
        for bw in log_spaced(read_low, read_high, points_per_axis + (4 if extend_low_reads else 0))
    ]
    writes = [
        bw / access_bytes
        for bw in log_spaced(*GRAPH_WRITE_BANDWIDTH_RANGE, points_per_axis)
    ]
    return generic_sweep(reads, writes, access_bytes=access_bytes, name_prefix="graph")

