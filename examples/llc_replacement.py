#!/usr/bin/env python3
"""Non-volatile LLC study (Section IV-C / Figures 9-10).

Evaluates 16 MB LLC candidates under SPEC CPU2017 traffic and reports the
per-benchmark power winner, plus array characteristics in isolation.

Run:  python examples/llc_replacement.py
"""

from repro.studies import feasible, llc_arrays, llc_study, winner_per_benchmark
from repro.viz import array_view

# Array characteristics in isolation (Figure 10).
arrays = llc_arrays()
print(array_view(arrays.where(target="ReadEDP")))

sram_write = arrays.where(tech="SRAM", target="ReadEDP")[0]["write_latency_ns"]
beats = sorted(
    {
        r["tech"]
        for r in arrays.where(target="ReadEDP")
        if r["tech"] != "SRAM" and r["write_latency_ns"] < sram_write
    }
)
print(f"\nTechnologies beating SRAM write latency at 16 MB: {beats}")

# System evaluation under SPEC2017 (Figure 9).
table = llc_study()
ok = feasible(table)
print(f"\n{len(ok)}/{len(table)} (array x benchmark) combinations meet bandwidth")

print("\nLowest-power eNVM per benchmark:")
for benchmark, tech in sorted(winner_per_benchmark(table).items()):
    print(f"  {benchmark:20s} -> {tech}")

print("\nLifetime check (write-heavy 619.lbm_s):")
for row in ok.where(workload="619.lbm_s", flavor="optimistic").sort_by("lifetime_years"):
    lifetime = row["lifetime_years"]
    text = "unlimited" if lifetime is None else f"{lifetime:10.2f} y"
    print(f"  {row['cell']:24s} {text}")
