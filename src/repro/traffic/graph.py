"""Graph-processing workloads: kernels over synthetic social networks.

The paper extracts graph traffic two ways: generic bandwidth envelopes
(:mod:`repro.traffic.generic`) and breadth-first search over SNAP's Facebook
and Wikipedia graphs running on a Graphicionado-style accelerator with an
8 MB scratchpad.  This module counts the kernels' vertex-property accesses
and converts the counts into scratchpad traffic at the accelerator's
throughput.

Substitutions: SNAP datasets are not shipped offline, so the graphs are
synthetic and scale-free with matching vertex/edge scale (preferential
attachment gives the heavy-tailed degree distribution social networks
have).  The Barabási–Albert generator here makes the same random calls as
networkx's ``barabasi_albert_graph`` and so yields the same edges, without
the dependency.  Graphs are stored as a read-only CSR :class:`Graph`; BFS
runs on it one numpy pass per frontier, and the PageRank and unit-weight
SSSP counts follow from the graph's size and BFS.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from repro.errors import TrafficError
from repro.traffic.base import TrafficPattern

#: Scratchpad access granularity (one vertex property record).
GRAPH_ACCESS_BYTES = 8
#: Edge throughput of the Graphicionado-style compute stream, edges/second.
ACCELERATOR_EDGES_PER_SECOND = 2e9


@dataclass(frozen=True)
class AccessCounts:
    """Memory accesses a kernel issued against the vertex-property store."""

    reads: int
    writes: int
    edges_traversed: int

    def __add__(self, other: "AccessCounts") -> "AccessCounts":
        return AccessCounts(
            self.reads + other.reads,
            self.writes + other.writes,
            self.edges_traversed + other.edges_traversed,
        )


@dataclass(frozen=True, eq=False)
class Graph:
    """An undirected graph in compressed sparse row (CSR) form.

    ``indices[indptr[v]:indptr[v + 1]]`` are the neighbors of ``v`` in
    ascending order; each undirected edge is stored once from each end.
    Both arrays are read-only, because cached graphs are shared.
    """

    indptr: np.ndarray  # int64, length n + 1
    indices: np.ndarray  # int32, length 2 * edges

    @classmethod
    def from_edges(cls, n_vertices: int, sources: list[int], targets: list[int]) -> "Graph":
        """CSR adjacency of the undirected edges ``sources[i]--targets[i]``."""
        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(targets, dtype=np.int64)
        rows = np.concatenate([src, dst])
        cols = np.concatenate([dst, src])
        indptr = np.zeros(n_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n_vertices), out=indptr[1:])
        # One sort of row-major keys orders each row's neighbors ascending.
        indices = (np.sort(rows * n_vertices + cols) % n_vertices).astype(np.int32)
        indptr.flags.writeable = False
        indices.flags.writeable = False
        return cls(indptr, indices)

    @property
    def nodes(self) -> range:
        return range(self.number_of_nodes())

    def number_of_nodes(self) -> int:
        return len(self.indptr) - 1

    def number_of_edges(self) -> int:
        return len(self.indices) // 2

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])


def _barabasi_albert_edges(n: int, m: int, seed: int) -> tuple[list[int], list[int]]:
    """Edges of networkx 3.x ``barabasi_albert_graph(n, m, seed=seed)``.

    Makes the same ``random.Random(seed)`` calls: start from a star on
    ``m + 1`` vertices; each new vertex draws ``rng.choice(repeated)`` into
    a set until it holds ``m`` targets, and ``repeated`` grows in that set's
    iteration order.
    """
    rng = random.Random(seed)
    sources = [0] * m
    targets = list(range(1, m + 1))
    repeated = sources + targets
    for source in range(m + 1, n):
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(rng.choice(repeated))
        sources.extend([source] * m)
        targets.extend(chosen)
        repeated.extend(chosen)
        repeated.extend([source] * m)
    return sources, targets


@lru_cache(maxsize=8)
def synthetic_social_graph(n_vertices: int, attachment: int, seed: int = 7) -> Graph:
    """A scale-free graph standing in for a SNAP social network."""
    if not 1 <= attachment < n_vertices:
        raise TrafficError("attachment degree must be in [1, n_vertices)")
    sources, targets = _barabasi_albert_edges(n_vertices, attachment, seed)
    return Graph.from_edges(n_vertices, sources, targets)


def facebook_like_graph() -> Graph:
    """~4k vertices / ~88k edges, the scale of SNAP's ego-Facebook."""
    return synthetic_social_graph(4039, 22)


def wikipedia_like_graph() -> Graph:
    """~7k vertices / ~100k edges, the scale of SNAP's wiki-Vote."""
    return synthetic_social_graph(7115, 15)


# --- kernels with access counting ------------------------------------------


def _neighbors_of(graph: Graph, frontier: np.ndarray) -> np.ndarray:
    """The neighbor lists of every ``frontier`` vertex, concatenated."""
    starts = graph.indptr[frontier]
    lengths = graph.indptr[frontier + 1] - starts
    ends = np.cumsum(lengths)
    positions = np.arange(ends[-1]) + np.repeat(starts - (ends - lengths), lengths)
    return graph.indices[positions]


def bfs_access_counts(graph: Graph, source: int = 0) -> AccessCounts:
    """Run breadth-first search and count vertex-property accesses.

    Per Graphicionado's dataflow: each traversed edge reads the destination
    vertex property; each newly-visited vertex writes its depth; frontier
    management reads each frontier vertex once.  The search is
    level-synchronous, one numpy pass per frontier; the counts do not
    depend on the order neighbors are visited in.
    """
    visited = np.zeros(graph.number_of_nodes(), dtype=bool)
    visited[source] = True
    frontier = np.array([source], dtype=np.int64)
    reads = edges = 0
    writes = 1  # source depth
    while frontier.size:
        neighbors = _neighbors_of(graph, frontier)
        reads += frontier.size + neighbors.size  # frontier records + destination checks
        edges += neighbors.size
        frontier = np.unique(neighbors[~visited[neighbors]])
        visited[frontier] = True
        writes += frontier.size  # depth updates
    return AccessCounts(reads=reads, writes=writes, edges_traversed=edges)


def pagerank_access_counts(
    graph: Graph, iterations: int = 10, damping: float = 0.85
) -> AccessCounts:
    """Count the vertex-property accesses of power-iteration PageRank.

    Each iteration reads the rank of every neighbor once per adjacency
    entry and writes every vertex's rank once.  The counts do not depend on
    the rank values, so no ranks are computed.
    """
    if not 0.0 < damping < 1.0:
        raise TrafficError("damping must be in (0, 1)")
    passes = max(0, iterations)
    entries = passes * len(graph.indices)
    return AccessCounts(
        reads=entries, writes=passes * graph.number_of_nodes(), edges_traversed=entries
    )


def sssp_access_counts(graph: Graph, source: int = 0) -> AccessCounts:
    """Bellman-Ford-style SSSP (unit weights) with access counting.

    Each pass reads every active vertex and each of its neighbors, and
    writes every neighbor whose distance improves.  With unit weights all
    active vertices sit at one distance ``d``, so a pass improves exactly
    the unreached neighbors, each once, to ``d + 1``: the active sets are
    BFS's frontiers and the counts equal BFS's.
    """
    return bfs_access_counts(graph, source)


# --- traffic extraction ------------------------------------------------------


def kernel_traffic(
    name: str,
    counts: AccessCounts,
    edges_per_second: float = ACCELERATOR_EDGES_PER_SECOND,
    access_bytes: int = GRAPH_ACCESS_BYTES,
) -> TrafficPattern:
    """Convert kernel access counts into scratchpad traffic rates.

    The accelerator streams ``edges_per_second``; the kernel's runtime is
    ``edges_traversed / edges_per_second`` and its accesses spread across it.
    """
    if counts.edges_traversed <= 0:
        raise TrafficError(f"{name}: kernel traversed no edges")
    duration = counts.edges_traversed / edges_per_second
    return TrafficPattern.from_totals(
        name=name,
        total_reads=counts.reads,
        total_writes=counts.writes,
        duration=duration,
        access_bytes=access_bytes,
        reads_per_task=counts.reads,
        writes_per_task=counts.writes,
        metadata={"kind": "graph-kernel"},
    )


@lru_cache(maxsize=4)
def facebook_bfs_traffic() -> TrafficPattern:
    """BFS over the Facebook-scale graph (a Figure 8 'pink point')."""
    counts = bfs_access_counts(facebook_like_graph())
    return kernel_traffic("Facebook-Graph-BFS", counts)


@lru_cache(maxsize=4)
def wikipedia_bfs_traffic() -> TrafficPattern:
    """BFS over the Wikipedia-scale graph (a Figure 8 'pink point')."""
    counts = bfs_access_counts(wikipedia_like_graph())
    return kernel_traffic("Wikipedia-BFS", counts)


def graph_kernel_suite() -> Iterator[TrafficPattern]:
    """BFS / PageRank / SSSP over both synthetic graphs."""
    for label, graph in (
        ("facebook", facebook_like_graph()),
        ("wikipedia", wikipedia_like_graph()),
    ):
        yield kernel_traffic(f"{label}-bfs", bfs_access_counts(graph))
        yield kernel_traffic(f"{label}-pagerank", pagerank_access_counts(graph, iterations=3))
        yield kernel_traffic(f"{label}-sssp", sssp_access_counts(graph))
