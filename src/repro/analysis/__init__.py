"""Static analysis of the repo's own runtime invariants.

``nvmexplorer lint`` (and the tier-1 tests wrapping it) statically
enforce the contracts the runtime layers rely on but cannot cheaply
verify at run time:

=============== =======================================================
rule id         invariant
=============== =======================================================
determinism     no wall-clock / unseeded randomness / unordered
                filesystem- or set-iteration anywhere in the package
atomic-write    persistent stores and the suite's outputs stage writes
                to a temp file and ``os.replace()`` them into place
lock-coverage   ``SweepTelemetry`` counters mutate only under
                ``with self._lock`` (or documented lock-held helpers)
except-safety   no bare ``except:``; interrupt handlers in
                runtime/service code must re-raise
=============== =======================================================

There are no inline waivers: a finding is fixed in the code, or the rule
that reports it is changed.  ``nvmexplorer lint`` takes the package ROOT
to check; nothing else.
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
