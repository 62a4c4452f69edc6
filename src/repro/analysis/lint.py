"""The ``repro-lint`` driver: run every static analysis, report, gate.

Composes the three analyses into one report:

1. static conformance (:mod:`repro.analysis.static_conformance`),
2. schedule re-derivation (:mod:`repro.analysis.schedule_check`),
3. schedule race proof (the race errors of
   :func:`repro.analysis.graphlint.verify_policy` over the paper's
   four schemes),

and optionally the runtime audit cross-check of a recorded workspace
(:mod:`repro.analysis.audit`).  Exit status: 0 when the report is
clean, 1 when it failed (errors always; warnings too under
``--strict``).  Info findings never fail.

The ``graph`` subcommand runs the graph-level verifier
(:mod:`repro.analysis.graphlint`) over registered scheduling policies
instead of the fixed registry plan::

    repro-lint graph                       # verify every policy
    repro-lint graph --policy dag-parallel # just one
    repro-lint graph --audit WS            # + happens-before cross-check
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.analysis.model import Report
from repro.analysis.audit import audit_findings
from repro.analysis.graphlint import race_findings
from repro.analysis.schedule_check import schedule_findings
from repro.analysis.static_conformance import conformance_findings


def run_lint(
    processes_dir: Path | None = None,
    audit_root: Path | None = None,
    stations: list[str] | None = None,
) -> Report:
    """Run all analyses and return the combined report."""
    report = Report()
    report.extend(conformance_findings(processes_dir))
    report.extend(schedule_findings())
    report.extend(race_findings())
    if audit_root is not None:
        report.extend(audit_findings(audit_root, stations))
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Static conformance, schedule and race analysis of the pipeline.",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="fail on warnings too (errors always fail)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit findings as JSON instead of text",
    )
    parser.add_argument(
        "--processes-dir",
        metavar="DIR",
        help="analyze this directory of p*.py modules instead of the "
        "installed repro.core.processes package",
    )
    parser.add_argument(
        "--audit",
        metavar="WORKSPACE",
        help="additionally cross-check the audit logs recorded in this "
        "workspace (a run made with 'repro-process --audit')",
    )
    return parser


def _build_graph_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint graph",
        description="Graph-level verification of engine scheduling policies.",
    )
    parser.add_argument(
        "--policy", action="append", metavar="NAME", dest="policies",
        help="verify this registered policy (repeatable); default: all",
    )
    parser.add_argument(
        "--all-policies", action="store_true",
        help="verify every registered policy (the default when no "
        "--policy is given)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="fail on warnings too (errors always fail)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit findings as JSON instead of text",
    )
    parser.add_argument(
        "--audit",
        metavar="WORKSPACE",
        help="additionally run the happens-before cross-check against the "
        "plan and access logs recorded in this workspace",
    )
    return parser


def run_graph_lint(
    policies: list[str] | None = None, audit_root: Path | None = None
) -> tuple[Report, dict[str, list]]:
    """Verify policies (all registered ones by default) plus, optionally,
    a recorded run's happens-before ordering.  Returns the combined
    report and the findings grouped by policy name."""
    from repro.analysis.graphlint import happens_before_findings, verify_policy
    from repro.engine.policy import policy_names

    names = list(policies) if policies else list(policy_names())
    report = Report()
    by_policy: dict[str, list] = {}
    for name in names:
        findings = verify_policy(name)
        by_policy[name] = findings
        report.extend(findings)
    if audit_root is not None:
        findings = happens_before_findings(audit_root)
        by_policy["<audit>"] = findings
        report.extend(findings)
    return report, by_policy


def main_graph_lint(argv: list[str]) -> int:
    """The ``repro-lint graph`` subcommand."""
    args = _build_graph_parser().parse_args(argv)
    audit_root = Path(args.audit) if args.audit else None
    report, by_policy = run_graph_lint(args.policies, audit_root)
    if args.as_json:
        print(json.dumps(
            [
                {
                    "policy": policy,
                    "check": f.check,
                    "severity": f.severity,
                    "process": f.process,
                    "message": f.message,
                }
                for policy, findings in by_policy.items()
                for f in findings
            ],
            indent=2,
        ))
    else:
        for policy, findings in by_policy.items():
            verdict = "clean" if not any(
                f.severity != "info" for f in findings
            ) else "FINDINGS"
            print(f"[{policy}] {verdict}")
            for finding in findings:
                print(f"  {finding.render()}")
        counts = report.counts()
        print(
            f"{counts['error']} error(s), {counts['warning']} warning(s), "
            f"{counts['info']} info across {len(by_policy)} target(s)"
        )
    return 1 if report.failed(strict=args.strict) else 0


def main_lint(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-lint``."""
    if argv is None:
        import sys

        argv = sys.argv[1:]
    if argv and argv[0] == "graph":
        return main_graph_lint(argv[1:])
    args = _build_parser().parse_args(argv)
    processes_dir = Path(args.processes_dir) if args.processes_dir else None
    audit_root = Path(args.audit) if args.audit else None
    stations = None
    if audit_root is not None:
        input_dir = audit_root / "input"
        if input_dir.is_dir():
            stations = sorted(p.stem for p in input_dir.glob("*.v1"))
    report = run_lint(
        processes_dir=processes_dir, audit_root=audit_root, stations=stations
    )
    if args.as_json:
        print(json.dumps(
            [
                {
                    "check": f.check,
                    "severity": f.severity,
                    "process": f.process,
                    "message": f.message,
                }
                for f in report.findings
            ],
            indent=2,
        ))
    else:
        print(report.render())
    return 1 if report.failed(strict=args.strict) else 0


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    import sys

    sys.exit(main_lint())
