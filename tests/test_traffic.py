"""Traffic substrate tests: patterns, sweeps, DNN, graph, SPEC."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import TrafficError
from repro.traffic import (
    ALBERT,
    MULTI_TASK_IMAGE,
    RESNET26,
    SPEC2017_BENCHMARKS,
    AccessCounts,
    TrafficPattern,
    NVDLAPerformanceModel,
    benchmark_by_name,
    bfs_access_counts,
    continuous_scenarios,
    facebook_bfs_traffic,
    facebook_like_graph,
    generic_sweep,
    graph_envelope_sweep,
    graph_kernel_suite,
    kernel_traffic,
    log_spaced,
    pagerank_access_counts,
    spec2017_suite,
    spec_traffic,
    sssp_access_counts,
    wikipedia_like_graph,
)
from repro.traffic.graph import synthetic_social_graph
from repro.units import mb


#: (vertices, attachment) of the Facebook- and Wikipedia-scale graphs and a
#: small case.
GRAPH_SHAPES = [(4039, 22), (7115, 15), (40, 3)]
#: GRAPH_SHAPES plus the attachment edge cases m = 1 and m = n - 1.
ORACLE_SHAPES = GRAPH_SHAPES + [(10, 1), (10, 9)]
#: The seed the oracle generator and networkx draw the graphs with.
ORACLE_SEED = 7


class TestTrafficPattern:
    def test_derived_quantities(self, simple_traffic):
        t = simple_traffic
        assert t.total_accesses_per_second == pytest.approx(1e7 + 1e5)
        assert t.read_bandwidth == pytest.approx(8e7)
        assert t.write_bandwidth == pytest.approx(8e5)
        assert t.write_bits_per_second == pytest.approx(6.4e6)
        assert 0.98 < t.read_fraction < 1.0

    def test_zero_traffic_read_fraction(self):
        t = TrafficPattern("idle", 0.0, 0.0)
        assert t.read_fraction == 0.0

    def test_negative_rates_rejected(self):
        with pytest.raises(TrafficError):
            TrafficPattern("bad", -1.0, 0.0)

    def test_from_totals(self):
        t = TrafficPattern.from_totals("task", 1000, 100, duration=0.5)
        assert t.reads_per_second == pytest.approx(2000)
        assert t.writes_per_second == pytest.approx(200)

    def test_from_totals_rejects_zero_duration(self):
        with pytest.raises(TrafficError):
            TrafficPattern.from_totals("bad", 1, 1, duration=0.0)

    def test_scaled(self, simple_traffic):
        scaled = simple_traffic.scaled(write_factor=0.5)
        assert scaled.writes_per_second == pytest.approx(5e4)
        assert scaled.reads_per_second == simple_traffic.reads_per_second

    def test_metadata_merge(self, simple_traffic):
        tagged = simple_traffic.with_metadata(suite="unit")
        assert tagged.metadata["suite"] == "unit"


class TestGenericSweeps:
    def test_log_spaced_endpoints(self):
        values = log_spaced(1.0, 1000.0, 4)
        assert values[0] == pytest.approx(1.0)
        assert values[-1] == pytest.approx(1000.0)
        assert len(values) == 4

    def test_log_spaced_rejects_bad_ranges(self):
        with pytest.raises(TrafficError):
            log_spaced(0.0, 10.0, 3)
        with pytest.raises(TrafficError):
            log_spaced(10.0, 1.0, 3)

    def test_generic_sweep_is_cross_product(self):
        patterns = generic_sweep([1e5, 1e6], [1e3, 1e4, 1e5])
        assert len(patterns) == 6

    def test_graph_envelope_covers_cited_ranges(self):
        patterns = graph_envelope_sweep(points_per_axis=3)
        read_bw = [p.read_bandwidth for p in patterns]
        write_bw = [p.write_bandwidth for p in patterns]
        assert max(read_bw) == pytest.approx(10e9, rel=0.01)
        assert min(write_bw) == pytest.approx(1e6, rel=0.01)
        assert max(write_bw) == pytest.approx(100e6, rel=0.01)


class TestDNNTraffic:
    def test_continuous_weights_only_is_read_dominated(self):
        model = NVDLAPerformanceModel(mb(2))
        t = model.continuous_traffic(RESNET26)
        assert t.read_fraction > 0.99
        assert t.reads_per_second == pytest.approx(mb(2) * 3.0 / 64 * 60.0)

    def test_activations_add_writes(self):
        model = NVDLAPerformanceModel(mb(2))
        without = model.continuous_traffic(RESNET26, store_activations=False)
        with_acts = model.continuous_traffic(RESNET26, store_activations=True)
        assert with_acts.writes_per_second > without.writes_per_second
        assert with_acts.reads_per_second > without.reads_per_second

    def test_streaming_weights_generate_writes(self):
        model = NVDLAPerformanceModel(mb(2))
        t = model.continuous_traffic(MULTI_TASK_IMAGE)
        assert t.writes_per_second > 0  # weights beyond 2 MB stream through

    def test_intermittent_reads_all_weights(self):
        model = NVDLAPerformanceModel(mb(32))
        t = model.intermittent_traffic(ALBERT, inferences_per_second=2.0)
        expected_reads = ALBERT.weight_bytes * ALBERT.weight_reuse / 64
        assert t.reads_per_task == pytest.approx(expected_reads)
        assert t.reads_per_second == pytest.approx(2 * expected_reads)
        assert t.writes_per_second == 0.0

    def test_multi_task_combination_sums_footprints(self):
        assert MULTI_TASK_IMAGE.weight_bytes > RESNET26.weight_bytes
        assert MULTI_TASK_IMAGE.task == "multi-task"

    def test_continuous_scenarios_shape(self):
        scenarios = continuous_scenarios(mb(2))
        assert len(scenarios) == 4
        names = {s.name for s in scenarios}
        assert any("weights+acts" in n for n in names)

    def test_invalid_fps_rejected(self):
        model = NVDLAPerformanceModel(mb(2))
        with pytest.raises(TrafficError):
            model.continuous_traffic(RESNET26, fps=0.0)

    def test_albert_has_large_access_count(self):
        """ALBERT's layer sharing makes its per-inference reads >> ResNet's
        (the Figure 7 slope argument)."""
        model = NVDLAPerformanceModel(mb(32))
        albert = model.intermittent_traffic(ALBERT)
        resnet = model.intermittent_traffic(RESNET26)
        assert albert.reads_per_task > 10 * resnet.reads_per_task


class TestGraphTraffic:
    def test_synthetic_graphs_have_expected_scale(self):
        fb = facebook_like_graph()
        assert 3500 < fb.vertices < 4500
        assert fb.edges > 50_000
        wiki = wikipedia_like_graph()
        assert wiki.vertices > fb.vertices

    def test_bfs_visits_whole_component(self):
        graph = facebook_like_graph()
        counts = bfs_access_counts(graph)
        # BA graphs are connected: every vertex written exactly once.
        assert counts.writes == graph.vertices
        # Undirected edges traversed from both endpoints.
        assert counts.edges_traversed == 2 * graph.edges

    def test_paper_graph_counts_are_pinned(self):
        assert bfs_access_counts(facebook_like_graph()) == AccessCounts(180_787, 4_039, 176_748)
        assert bfs_access_counts(wikipedia_like_graph()) == AccessCounts(220_115, 7_115, 213_000)

    def test_pagerank_counts_scale_with_iterations(self):
        graph = wikipedia_like_graph()
        one = pagerank_access_counts(graph, iterations=1)
        three = pagerank_access_counts(graph, iterations=3)
        assert three.reads == pytest.approx(3 * one.reads)
        assert three.writes == pytest.approx(3 * one.writes)

    def test_sssp_reaches_everything(self):
        graph = facebook_like_graph()
        counts = sssp_access_counts(graph)
        assert counts.writes >= graph.vertices

    def test_kernel_traffic_rates(self):
        counts = bfs_access_counts(facebook_like_graph())
        t = kernel_traffic("bfs", counts, edges_per_second=1e9)
        expected_duration = counts.edges_traversed / 1e9
        assert t.duration == pytest.approx(expected_duration)
        assert t.reads_per_second == pytest.approx(counts.reads / expected_duration)

    def test_facebook_bfs_in_generic_envelope(self):
        t = facebook_bfs_traffic()
        assert 1e8 < t.reads_per_second < 1e10
        assert t.writes_per_second < t.reads_per_second

    def test_kernel_suite_complete(self):
        suite = list(graph_kernel_suite())
        assert len(suite) == 6
        kinds = {p.name.split("-")[-1] for p in suite}
        assert kinds == {"bfs", "pagerank", "sssp"}

    def test_graph_rejects_bad_attachment(self):
        with pytest.raises(TrafficError):
            synthetic_social_graph(5, 5)
        with pytest.raises(TrafficError):
            synthetic_social_graph(5, 0)

    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_kernels_match_loop_reference(self, shape):
        n, m = shape
        graph = synthetic_social_graph(n, m)
        sources, targets = _barabasi_albert_edges(n, m, ORACLE_SEED)
        edges = {frozenset(edge) for edge in zip(sources, targets)}
        assert all(len(edge) == 2 for edge in edges)  # no self-loops
        assert len(sources) == len(edges) == m * (n - m) == graph.edges  # no duplicate edges
        assert graph.vertices == n
        assert_kernels_match_reference(graph, AdjacencyGraph(n, sources, targets))

    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_generator_matches_networkx(self, shape):
        nx = pytest.importorskip("networkx")
        reference = nx.barabasi_albert_graph(*shape, seed=ORACLE_SEED)
        assert edge_set(oracle_graph(*shape)) == {frozenset(e) for e in reference.edges()}
        assert_kernels_match_reference(synthetic_social_graph(*shape), reference)

    def test_import_does_not_load_networkx(self):
        code = "import sys, repro.studies.summary; print('networkx' in sys.modules)"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


class TestSpecTraffic:
    def test_suite_size_and_split(self):
        suite = spec2017_suite()
        assert len(suite) == 20
        suites = {p.metadata["suite"] for p in suite}
        assert suites == {"SPECint", "SPECfp"}

    def test_rates_derive_from_mpki(self):
        mcf = benchmark_by_name("mcf_s")
        t = spec_traffic(mcf)
        assert t.reads_per_second == pytest.approx(mcf.llc_read_mpki * 2e10 / 1000)
        assert t.access_bytes == 64

    def test_memory_bound_tops_compute_bound(self):
        mcf = benchmark_by_name("605.mcf_s")
        exchange = benchmark_by_name("648.exchange2_s")
        assert mcf.reads_per_second > 50 * exchange.reads_per_second

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            benchmark_by_name("999.nope")

    def test_rates_span_orders_of_magnitude(self):
        rates = [b.reads_per_second for b in SPEC2017_BENCHMARKS]
        assert max(rates) / min(rates) > 50


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


class AdjacencyGraph:
    """An undirected graph as neighbor lists, for the loop references."""

    def __init__(self, n_vertices: int, sources: list[int], targets: list[int]) -> None:
        self.adjacency: list[list[int]] = [[] for _ in range(n_vertices)]
        for u, v in zip(sources, targets):
            self.adjacency[u].append(v)
            self.adjacency[v].append(u)

    @property
    def nodes(self) -> range:
        return range(len(self.adjacency))

    def number_of_nodes(self) -> int:
        return len(self.adjacency)

    def neighbors(self, v: int) -> list[int]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


def oracle_graph(n: int, m: int) -> AdjacencyGraph:
    """The Barabási–Albert graph ``synthetic_social_graph(n, m)`` stands for."""
    return AdjacencyGraph(n, *_barabasi_albert_edges(n, m, ORACLE_SEED))


def edge_set(graph) -> set:
    return {frozenset((int(u), int(v))) for u in graph.nodes for v in graph.neighbors(u)}


def assert_kernels_match_reference(graph, reference) -> None:
    """The closed-form counts of ``graph`` are what the loops count on ``reference``."""
    for source in (0, graph.vertices - 1):
        assert bfs_access_counts(graph) == reference_bfs(reference, source)
        assert sssp_access_counts(graph) == reference_sssp(reference, source)
    for iterations in (1, 3):
        expected = reference_pagerank(reference, iterations)
        assert pagerank_access_counts(graph, iterations) == expected


# Loop references: the kernels as written over any graph with ``nodes``,
# ``number_of_nodes()``, ``neighbors(v)`` and ``degree(v)`` (the oracle
# adjacency or a networkx graph).


def reference_bfs(graph, source=0) -> AccessCounts:
    visited = {source}
    frontier = [source]
    reads = edges = 0
    writes = 1
    while frontier:
        next_frontier = []
        for u in frontier:
            reads += 1
            for v in graph.neighbors(u):
                edges += 1
                reads += 1
                if v not in visited:
                    visited.add(v)
                    writes += 1
                    next_frontier.append(v)
        frontier = next_frontier
    return AccessCounts(reads=reads, writes=writes, edges_traversed=edges)


def reference_pagerank(graph, iterations, damping=0.85) -> AccessCounts:
    n = graph.number_of_nodes()
    rank = {v: 1.0 / n for v in graph.nodes}
    reads = writes = edges = 0
    for _ in range(iterations):
        new_rank = {}
        for v in graph.nodes:
            acc = 0.0
            for u in graph.neighbors(v):
                edges += 1
                reads += 1
                acc += rank[u] / max(1, graph.degree(u))
            new_rank[v] = (1.0 - damping) / n + damping * acc
            writes += 1
        rank = new_rank
    return AccessCounts(reads=reads, writes=writes, edges_traversed=edges)


def reference_sssp(graph, source=0) -> AccessCounts:
    dist = {v: float("inf") for v in graph.nodes}
    dist[source] = 0.0
    reads = edges = 0
    writes = 1
    active = {source}
    while active:
        next_active = set()
        for u in active:
            reads += 1
            for v in graph.neighbors(u):
                edges += 1
                reads += 1
                if dist[u] + 1.0 < dist[v]:
                    dist[v] = dist[u] + 1.0
                    writes += 1
                    next_active.add(v)
        active = next_active
    return AccessCounts(reads=reads, writes=writes, edges_traversed=edges)

