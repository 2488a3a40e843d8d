"""Static analysis of the repo's own runtime invariants.

``nvmexplorer lint`` (and the tier-1 tests wrapping it) statically
enforce the contracts the runtime layers rely on but cannot cheaply
verify at run time:

=============== =======================================================
rule id         invariant
=============== =======================================================
determinism     no wall-clock / unseeded randomness / unordered
                filesystem- or set-iteration anywhere in the package
schema-drift    cache-feeding module sets carry a pinned source digest
                next to their ``*_SCHEMA_TAG``; drift without a tag
                bump fails (``repro/analysis/drift_pins.json``)
atomic-write    persistent stores, the suite's outputs and the pin
                file stage writes to a temp file and ``os.replace()``
                them into place
lock-coverage   ``SweepTelemetry`` counters mutate only under
                ``with self._lock`` (or documented lock-held helpers)
except-safety   no bare ``except:``; interrupt handlers in
                runtime/service code must re-raise
=============== =======================================================

Waive a finding inline with ``# repro: allow[rule-id] reason`` (on the
flagged line, or alone on the line above); a waiver without a reason is
itself a finding, and a waiver that no longer waives anything is
reported (informationally) so it gets removed.  ``nvmexplorer lint``
takes the package ROOT to check and ``--update-pins``; nothing else.
"""

from repro.analysis.engine import (
    Finding,
    LintContext,
    LintResult,
    Rule,
    default_rules,
    run_lint,
)

__all__ = [
    "Finding",
    "LintContext",
    "LintResult",
    "Rule",
    "default_rules",
    "run_lint",
]
