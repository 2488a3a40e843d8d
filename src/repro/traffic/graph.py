"""Graph-processing workloads: kernel traffic over synthetic social networks.

The paper extracts graph traffic two ways: generic bandwidth envelopes
(:mod:`repro.traffic.generic`) and breadth-first search over SNAP's Facebook
and Wikipedia graphs running on a Graphicionado-style accelerator with an
8 MB scratchpad.  This module counts the kernels' vertex-property accesses
and converts the counts into scratchpad traffic at the accelerator's
throughput.

Substitutions: SNAP datasets are not shipped offline, so the graphs are
synthetic Barabási–Albert graphs (preferential attachment gives the
heavy-tailed degree distribution social networks have) with matching
vertex/edge scale.  Only the vertex count n and the edge count E of such a
graph ever reach a result.  A BA graph with attachment m is connected and
has E = m(n - m) edges, so a full BFS from any source puts every vertex in
exactly one frontier and reads every adjacency entry once: the counts are a
closed form in (n, E), and no graph is built or traversed.  That is a
property of full traversal of a connected graph, and it is what the
Graphicionado traffic needs; a traversal whose counts depend on the graph's
structure is out of scope.  The test suite checks the closed form against
loop kernels run on a networkx-identical BA generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

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


@dataclass(frozen=True)
class SocialGraph:
    """A connected undirected graph, by the only two counts that reach a result."""

    vertices: int
    edges: int


def synthetic_social_graph(n_vertices: int, attachment: int) -> SocialGraph:
    """A Barabási–Albert graph standing in for a SNAP social network.

    The graph starts from a star on ``attachment + 1`` vertices, and each
    later vertex attaches to ``attachment`` distinct earlier ones.  It is
    therefore connected and has ``attachment * (n_vertices - attachment)``
    edges.
    """
    if not 1 <= attachment < n_vertices:
        raise TrafficError("attachment degree must be in [1, n_vertices)")
    return SocialGraph(vertices=n_vertices, edges=attachment * (n_vertices - attachment))


def facebook_like_graph() -> SocialGraph:
    """~4k vertices / ~88k edges, the scale of SNAP's ego-Facebook."""
    return synthetic_social_graph(4039, 22)


def wikipedia_like_graph() -> SocialGraph:
    """~7k vertices / ~100k edges, the scale of SNAP's wiki-Vote."""
    return synthetic_social_graph(7115, 15)


# --- kernel access counts ----------------------------------------------------


def bfs_access_counts(graph: SocialGraph) -> AccessCounts:
    """Count the vertex-property accesses of breadth-first search.

    Per Graphicionado's dataflow: each traversed edge reads the destination
    vertex property; each newly-visited vertex writes its depth; frontier
    management reads each frontier vertex once.  On a connected graph, from
    any source, every vertex is visited once and each undirected edge is
    traversed from both ends.
    """
    adjacency_entries = 2 * graph.edges
    return AccessCounts(
        reads=graph.vertices + adjacency_entries,
        writes=graph.vertices,
        edges_traversed=adjacency_entries,
    )


def pagerank_access_counts(
    graph: SocialGraph, iterations: int = 10, damping: float = 0.85
) -> AccessCounts:
    """Count the vertex-property accesses of power-iteration PageRank.

    Each iteration reads the rank of every neighbor once per adjacency
    entry and writes every vertex's rank once.  The counts do not depend on
    the rank values, so no ranks are computed.
    """
    if not 0.0 < damping < 1.0:
        raise TrafficError("damping must be in (0, 1)")
    passes = max(0, iterations)
    entries = passes * 2 * graph.edges
    return AccessCounts(reads=entries, writes=passes * graph.vertices, edges_traversed=entries)


def sssp_access_counts(graph: SocialGraph) -> AccessCounts:
    """Bellman-Ford-style SSSP (unit weights) with access counting.

    Each pass reads every active vertex and each of its neighbors, and
    writes every neighbor whose distance improves.  With unit weights all
    active vertices sit at one distance ``d``, so a pass improves exactly
    the unreached neighbors, each once, to ``d + 1``: the active sets are
    BFS's frontiers and the counts equal BFS's.
    """
    return bfs_access_counts(graph)


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
