"""Static and runtime analyses of the pipeline's data-flow claims.

The dependency analysis in :mod:`repro.core.dependencies` is only as
good as the registry declarations it consumes.  This package makes
those declarations *checkable* from three independent directions:

- :mod:`repro.analysis.static_conformance` — AST extraction of every
  workspace access in the process modules, diffed against the registry;
- :mod:`repro.analysis.schedule_check` — re-derivation of the §IV
  redundancy elimination and the Fig. 9 stage plan from declarations;
- :mod:`repro.analysis.races` — the symbolic per-unit access model and
  the proof that concurrent units' write sets are pairwise disjoint;
- :mod:`repro.analysis.audit` — cross-check of recorded runtime access
  logs (see :mod:`repro.core.auditing`) against all of the above;
- :mod:`repro.analysis.effects` — static effect inference for arbitrary
  task callables (the custom tasks a pipeline builder wires);
- :mod:`repro.analysis.graphlint` — the graph-level verifier: effect
  conformance, per-region race proofs, ordering/redundancy analysis and
  the happens-before runtime cross-check for any engine pipeline;
- :mod:`repro.analysis.lint` — the ``repro-lint`` CLI combining them
  (``repro-lint graph`` drives the graph verifier).
"""

from repro.analysis.model import ERROR, INFO, WARNING, Finding, Report
from repro.analysis.audit import audit_findings, classify_path, observed_access
from repro.analysis.effects import EffectSet, infer_effects
from repro.analysis.graphlint import (
    happens_before_findings,
    race_findings,
    verify_builder,
    verify_graph,
    verify_policy,
)
from repro.analysis.schedule_check import derive_redundant, schedule_findings
from repro.analysis.static_conformance import analyze_processes, conformance_findings


__all__ = [
    "ERROR",
    "INFO",
    "WARNING",
    "EffectSet",
    "Finding",
    "Report",
    "analyze_processes",
    "audit_findings",
    "classify_path",
    "conformance_findings",
    "derive_redundant",
    "happens_before_findings",
    "infer_effects",
    "observed_access",
    "race_findings",
    "schedule_findings",
    "verify_builder",
    "verify_graph",
    "verify_policy",
]
