#!/usr/bin/env python3
"""Graph analytics scratchpad study (Section IV-B / Figure 8).

Derives BFS/PageRank/SSSP scratchpad traffic from the access counts of
the kernels over synthetic social networks (a closed form in each graph's
vertex and edge counts), sweeps the generic graph-bandwidth envelope, and
compares 8 MB eNVM scratchpads on power, latency, and lifetime.

Run:  python examples/graph_analytics.py
"""

from repro.studies import (
    best_lifetime_technology,
    graph_study,
    lowest_power_technology,
    worst_lifetime_technology,
)
from repro.traffic import graph_kernel_suite
from repro.viz import latency_view, lifetime_view, power_view

# Kernel-derived traffic (the study's "pink points").
print("Kernel traffic from graph-kernel access counts:")
for pattern in graph_kernel_suite():
    print(
        f"  {pattern.name:22s} reads/s={pattern.reads_per_second:10.3e} "
        f"writes/s={pattern.writes_per_second:10.3e}"
    )

table = graph_study(points_per_axis=4)
optimistic = table.where(flavor="optimistic")

print("\n" + power_view(optimistic))
print("\n" + latency_view(optimistic))
print("\n" + lifetime_view(optimistic))

print("\nHeadlines:")
print("  lowest power @ 1e6  reads/s :", lowest_power_technology(table, 1e6))
print("  lowest power @ 1.2e9 reads/s:", lowest_power_technology(table, 1.25e9))
print("  best lifetime overall       :", best_lifetime_technology(table))
print("  worst lifetime overall      :", worst_lifetime_technology(table))
