#!/usr/bin/env python3
"""The repository benchmark, one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

generates the workload's inputs from the seed, runs timed passes for
about ``S`` seconds, checks every pass's artifacts against a
``seq-original`` reference run, and prints every end-to-end metric
(``--trace 0``) or every per-layer metric (``--trace 1``) by name and
unit.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 0 only when every pass checked out.

``--smoke`` runs tiny inputs, one pass (the benchmark's own tests use
it).  ``--diff`` traces ``paper-event-seq`` and ``paper-event-par`` on
the same inputs and prints both stage x layer tables and their
difference.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: No pass starts after this many seconds (a run must end within 180 s).
DEADLINE_S = 140.0
#: Input generations per run; ``setup_s`` counts their median.
SYNTH_REPEATS = 3
#: Untimed-trace passes a ``--trace 0`` run makes at least.
MIN_PASSES = 3


@dataclass
class PassRecord:
    seconds: float
    traced: bool
    cpu_s: float
    results: list
    lanes: list | None
    failures: dict


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="paper-event-seq, paper-event-par or catalog-bulletin")
    parser.add_argument("--seed", type=int, default=1, help="input seed")
    parser.add_argument("--seconds", type=float, default=24.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced passes")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one pass")
    parser.add_argument("--diff", action="store_true",
                        help="stage x layer tables of paper-event-par minus paper-event-seq")
    args = parser.parse_args(argv)
    if not args.diff and args.workload is None:
        parser.error("--workload is required")
    return args


def bootstrap() -> None:
    """Import ``repro`` from this checkout's sources, or refuse to run."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {SRC}; run from a checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def one_pass(k, traced, workload, dataset, reference, run_dir, instrumentation) -> PassRecord:
    """Copy inputs, run one timed pass (traced or not), check it."""
    from perfbench import workloads as wl

    pass_dir = run_dir / f"pass-{k}"
    wl.prepare(dataset, pass_dir)
    rec = instrumentation.rec if traced else None
    cpu0 = _cpu_s()
    if traced:
        instrumentation.install()
        rec.active = True
    try:
        outcome = wl.run_pass(workload, dataset, pass_dir, recorder=rec)
    finally:
        if traced:
            rec.active = False
            instrumentation.uninstall()
    cpu = _cpu_s() - cpu0
    lanes = rec.end_pass() if traced else None
    failures = wl.check(workload, outcome, reference)
    shutil.rmtree(pass_dir, ignore_errors=True)
    return PassRecord(outcome.seconds, traced, cpu, [r for _, _, r in outcome.runs],
                      lanes, failures)


def run_passes(workload, dataset, reference, run_dir, args, started, instrumentation,
               trace: bool) -> list[PassRecord]:
    """Timed passes for ``args.seconds``: untraced only, or traced and
    untraced alternating (traced first)."""
    records: list[PassRecord] = []
    loop_start = time.perf_counter()
    k = 0
    while True:
        traced = trace and k % 2 == 0
        records.append(one_pass(k, traced, workload, dataset, reference, run_dir,
                                instrumentation))
        k += 1
        untraced = sum(not r.traced for r in records)
        if trace:
            enough = untraced >= 1 and len(records) - untraced >= 2
        else:
            enough = untraced >= (1 if args.smoke else MIN_PASSES)
        if enough:
            typical = statistics.median(r.seconds for r in records)
            now = time.perf_counter()
            if (args.smoke or now - loop_start + typical > args.seconds
                    or now - started + typical > DEADLINE_S):
                return records


def setup(workload, args, run_dir):
    """Generate inputs (several times), then the reference/warm-up run."""
    from perfbench import workloads as wl

    synth = []
    for _ in range(SYNTH_REPEATS):
        shutil.rmtree(run_dir / "inputs", ignore_errors=True)
        t0 = time.perf_counter()
        dataset = wl.make_inputs(workload, args.seed, run_dir / "inputs", smoke=args.smoke)
        synth.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    reference = wl.reference_run(workload, dataset, run_dir / "reference")
    return dataset, reference, statistics.median(synth), time.perf_counter() - t0


def _failure_counts(workload, dataset, records) -> tuple[int, int]:
    if workload.catalog:
        return len(records) * len(dataset.events), sum(len(r.failures) for r in records)
    return len(records), sum(1 for r in records if r.failures)


def _report_failures(records) -> None:
    for k, record in enumerate(records):
        for event_id, reason in record.failures.items():
            print(f"pass {k}: {event_id}: {reason}")


def per_layer(records, rec, synth_s) -> tuple[dict, list[str], list]:
    """Per-layer metric values, mismatching count metrics, accountings."""
    from perfbench import layers
    from perfbench.workloads import WORKERS

    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    measured = []
    for record in traced:
        metrics = layers.layer_metrics(record.lanes, rec.driver_pid)
        accounting = layers.account(record.lanes, rec.driver_pid)
        metrics["engine.barrier_idle_s"] = accounting.barrier_idle(rec.strategies, WORKERS)
        measured.append((metrics, accounting))
    mismatched = [
        name for name in layers.COUNT_METRICS
        if len({m.get(name, 0) for m, _ in measured}) > 1
    ]
    values: dict[str, float] = {}
    for name, _unit, _better in layers.PER_LAYER:
        if name in layers.COUNT_METRICS:
            values[name] = int(measured[0][0].get(name, 0))
        else:
            values[name] = statistics.median(m.get(name, 0.0) for m, _ in measured)
    program = [layers.result_metrics(r.results) for r in untraced]
    for key in program[0]:
        values[key] = statistics.median(p[key] for p in program)
    plain = statistics.median(r.seconds for r in untraced)
    traced_s = statistics.median(r.seconds for r in traced)
    values["parallel.cpu_s"] = statistics.median(r.cpu_s for r in untraced)
    values["parallel.utilization"] = values["parallel.cpu_s"] / (plain * WORKERS)
    values["synth.generate_s"] = synth_s
    values["trace.overhead_frac"] = (traced_s - plain) / plain
    return values, mismatched, measured


def _median_accounting(records, measured):
    traced = [r for r in records if r.traced]
    order = sorted(range(len(traced)), key=lambda i: traced[i].seconds)
    return measured[order[len(order) // 2]][1]


def print_accounting(accounting, title: str) -> None:
    from perfbench import layers

    for line in layers.render_table(accounting.cells, title):
        print(line)
    accounted = sum(accounting.cells.values())
    print(f"accounted {accounted:.6f} s of the traced pass's {accounting.total:.6f} s "
          f"(layers + untraced)")


def run_workload(args, run_dir: Path, started: float, import_s: float) -> int:
    from perfbench import layers
    from perfbench import workloads as wl
    from perfbench.tracing import Instrumentation, SpanRecorder

    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"known: {sorted(wl.WORKLOADS)}")
    dataset, reference, synth_s, reference_s = setup(workload, args, run_dir)
    setup_s = import_s + synth_s + reference_s
    print(f"workload {workload.name}: {len(dataset.events)} events, {dataset.points} points, "
          f"policy {workload.policy}, seed {args.seed}")
    print(f"setup: imports {import_s:.3f} s + inputs {synth_s:.3f} s (median of "
          f"{SYNTH_REPEATS}) + {wl.REFERENCE_POLICY} reference/warm-up {reference_s:.3f} s")
    instrumentation = None
    if args.trace:
        instrumentation = Instrumentation(SpanRecorder(run_dir / "spool"))
    records = run_passes(workload, dataset, reference, run_dir, args, started,
                         instrumentation, trace=bool(args.trace))
    attempted, failed = _failure_counts(workload, dataset, records)
    _report_failures(records)
    untraced = [r.seconds for r in records if not r.traced]
    print(f"passes: {len(untraced)} untraced, {len(records) - len(untraced)} traced; "
          f"untraced pass times {', '.join(f'{s:.3f}' for s in untraced)} s")
    print(f"error_rate = {failed / attempted} ({failed} of {attempted} "
          f"{'events' if workload.catalog else 'passes'} failed)")
    correct = failed == 0
    if not args.trace:
        values = {
            "pass_s": statistics.median(untraced),
            "points_per_s": dataset.points * len(untraced) / sum(untraced),
            "setup_s": setup_s,
            "peak_rss_mb": _peak_rss_mb(),
        }
        catalog = layers.END_TO_END
    else:
        values, mismatched, measured = per_layer(records, instrumentation.rec, synth_s)
        print_accounting(_median_accounting(records, measured),
                         f"stage x layer wall clock (s), median traced pass of {workload.name}")
        if mismatched:
            correct = False
            print(f"count metrics differ between traced passes: {', '.join(mismatched)}")
        else:
            print(f"exact-count self-check: {len(layers.COUNT_METRICS)} count metrics "
                  f"repeat exactly over {len(measured)} traced passes")
        print(f"trace.overhead_frac = {values['trace.overhead_frac']:.4f}")
        catalog = layers.PER_LAYER
    metrics = {}
    for name, unit, better in catalog:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name} = {values[name]} {unit} ({better} is better)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


def run_diff(args, run_dir: Path) -> int:
    """Trace both paper-event workloads on one input set; print tables."""
    from perfbench import layers
    from perfbench import workloads as wl
    from perfbench.tracing import Instrumentation, SpanRecorder

    seq, par = wl.WORKLOADS["paper-event-seq"], wl.WORKLOADS["paper-event-par"]
    dataset = wl.make_inputs(seq, args.seed, run_dir / "inputs", smoke=args.smoke)
    reference = wl.reference_run(seq, dataset, run_dir / "reference")
    instrumentation = Instrumentation(SpanRecorder(run_dir / "spool"))
    rec = instrumentation.rec
    cells, busy, failed = {}, {}, 0
    for workload in (seq, par):
        record = one_pass(workload.name, True, workload, dataset, reference, run_dir,
                          instrumentation)
        failed += bool(record.failures)
        accounting = layers.account(record.lanes, rec.driver_pid)
        cells[workload.name] = layers.by_fig9(accounting.cells)
        busy[workload.name] = layers.layer_metrics(record.lanes, rec.driver_pid)
        for line in layers.render_table(cells[workload.name],
                                        f"{workload.name}: stage x layer wall clock (s)"):
            print(line)
        print()
    for line in layers.render_diff(cells[seq.name], cells[par.name],
                                   f"{par.name} minus {seq.name} (s)"):
        print(line)
    print()
    print(f"{'busy self time (s)':<26}{seq.name:>18}{par.name:>18}{'difference':>12}")
    for name, unit, _ in layers.PER_LAYER:
        if unit == "s" and (name in busy[seq.name] or name in busy[par.name]):
            a, b = busy[seq.name].get(name, 0.0), busy[par.name].get(name, 0.0)
            print(f"{name:<26}{a:>18.4f}{b:>18.4f}{b - a:>12.4f}")
    ix = [sum(v for (s, _c), v in cells[w.name].items() if s == "IX") for w in (seq, par)]
    print(f"stage IX: {ix[0]:.4f} s under {seq.policy}, {ix[1]:.4f} s under "
          f"{par.policy}; saves {ix[0] - ix[1]:.4f} s")
    _report_failures([record])
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    bootstrap()
    from perfbench import workloads as wl

    wl.load_program()
    import_s = time.perf_counter() - started
    run_dir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    # Everything the run writes stays inside the checkout.
    os.environ["TMPDIR"] = str(run_dir)
    tempfile.tempdir = str(run_dir)
    os.environ.pop("REPRO_LEDGER", None)
    try:
        if args.diff:
            return run_diff(args, run_dir)
        return run_workload(args, run_dir, started, import_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
