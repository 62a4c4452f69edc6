"""The persistent run ledger (``repro-ledger``).

BENCH documents are loose files and traces are per-run artifacts; the
ledger is the memory *across* runs: one SQLite row per finished
pipeline run — policy, backend, workers, end-to-end and per-stage
durations, tracer self-times, measured critical path, quarantine
signature — appended automatically by :func:`repro.run`,
``repro-process`` and ``repro-perf record`` whenever the
``REPRO_LEDGER`` environment variable names a database (or explicitly
via ``--ledger``/the ``ledger=`` API parameter).

``repro-ledger`` reads it back: ``list``/``show`` for history,
``compare`` for any two rows, and ``trend`` — which walks consecutive
comparable runs (same event, policy, backend, worker count) and flags
cross-run regressions with the same noise-aware per-metric-class
thresholds ``repro-perf check`` applies (:data:`~repro.observability.
perf.METRIC_CLASSES`), so a stage going 2x slower between two recorded
runs surfaces without anyone diffing BENCH files by hand.
"""

from __future__ import annotations

import json
import os
import sqlite3
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

#: Environment variable naming the auto-append database.
LEDGER_ENV = "REPRO_LEDGER"

#: Default database filename for the CLI when neither ``--db`` nor the
#: environment variable is set.
DEFAULT_DB = "repro-ledger.sqlite"

_TABLE_SQL = """
CREATE TABLE IF NOT EXISTS runs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    created_utc TEXT NOT NULL,
    source TEXT NOT NULL,
    event_id TEXT,
    workspace TEXT,
    implementation TEXT NOT NULL,
    backend TEXT,
    workers INTEGER,
    total_s REAL NOT NULL,
    stages TEXT NOT NULL,
    stage_self TEXT,
    critical_path_s REAL,
    quarantined INTEGER NOT NULL DEFAULT 0,
    quarantine_signature TEXT,
    speedup REAL,
    extra TEXT
)
"""

_COLUMNS = (
    "created_utc", "source", "event_id", "workspace", "implementation",
    "backend", "workers", "total_s", "stages", "stage_self",
    "critical_path_s", "quarantined", "quarantine_signature", "speedup",
    "extra",
)

#: JSON-encoded columns, decoded on read.
_JSON_COLUMNS = ("stages", "stage_self", "extra")


class RunLedger:
    """One SQLite run-history database (rows are plain dicts)."""

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._connect() as conn:
            conn.execute(_TABLE_SQL)

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path)
        conn.row_factory = sqlite3.Row
        return conn

    def append(self, entry: dict[str, Any]) -> int:
        """Insert one run entry; returns the new row id."""
        values = []
        for col in _COLUMNS:
            value = entry.get(col)
            if col in _JSON_COLUMNS and value is not None:
                value = json.dumps(value, sort_keys=True)
            values.append(value)
        placeholders = ", ".join("?" for _ in _COLUMNS)
        with self._connect() as conn:
            cur = conn.execute(
                f"INSERT INTO runs ({', '.join(_COLUMNS)}) VALUES ({placeholders})",
                values,
            )
            return int(cur.lastrowid)

    @staticmethod
    def _decode(row: sqlite3.Row) -> dict[str, Any]:
        entry = dict(row)
        for col in _JSON_COLUMNS:
            if entry.get(col):
                entry[col] = json.loads(entry[col])
        return entry

    def rows(
        self, *, limit: int | None = None, event_id: str | None = None,
        implementation: str | None = None,
    ) -> list[dict[str, Any]]:
        """All rows (oldest first), optionally filtered."""
        query = "SELECT * FROM runs"
        clauses, params = [], []
        if event_id is not None:
            clauses.append("event_id = ?")
            params.append(event_id)
        if implementation is not None:
            clauses.append("implementation = ?")
            params.append(implementation)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY id"
        with self._connect() as conn:
            rows = [self._decode(r) for r in conn.execute(query, params)]
        return rows[-limit:] if limit else rows

    def get(self, run_id: int) -> dict[str, Any] | None:
        """One row by id, or ``None``."""
        with self._connect() as conn:
            row = conn.execute(
                "SELECT * FROM runs WHERE id = ?", (run_id,)
            ).fetchone()
        return self._decode(row) if row is not None else None

    def __len__(self) -> int:
        with self._connect() as conn:
            return int(conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0])


# -- building entries ----------------------------------------------------


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def run_entry(
    ctx: Any, result: Any, *, source: str = "run", event_id: str | None = None,
    extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Ledger entry for one finished run (context + result)."""
    stage_self: dict[str, float] = {}
    critical_path_s = None
    if result.trace is not None:
        from repro.observability.critpath import critical_path, critical_path_length

        stage_self = {
            k: round(v, 6) for k, v in result.trace.stage_self_times().items()
        }
        critical_path_s = round(
            critical_path_length(critical_path(result.trace)), 6
        )
    quarantined = sorted({r.record for r in result.quarantine})
    return {
        "created_utc": _utc_now(),
        "source": source,
        "event_id": event_id,
        "workspace": str(ctx.workspace.root),
        "implementation": result.implementation,
        "backend": ctx.parallel.backend.value,
        "workers": ctx.parallel.workers,
        "total_s": round(float(result.total_s), 6),
        "stages": {k: round(float(v), 6) for k, v in result.stage_durations.items()},
        "stage_self": stage_self or None,
        "critical_path_s": critical_path_s,
        "quarantined": len(quarantined),
        "quarantine_signature": ",".join(quarantined) or None,
        "speedup": None,
        "extra": extra,
    }


def entries_from_bench(doc: dict[str, Any]) -> list[dict[str, Any]]:
    """Ledger entries for every cell of a BENCH document (min-of-k)."""
    config = doc.get("config") or {}
    entries: list[dict[str, Any]] = []
    for event_id, cell in (doc.get("events") or {}).items():
        for name, entry in (cell.get("implementations") or {}).items():
            entries.append({
                "created_utc": doc.get("created_utc") or _utc_now(),
                "source": "perf-record",
                "event_id": event_id,
                "workspace": None,
                "implementation": name,
                "backend": config.get("backend"),
                "workers": config.get("workers"),
                "total_s": float(entry["total_s"]),
                "stages": entry.get("stages") or {},
                "stage_self": entry.get("stage_self_s") or None,
                "critical_path_s": entry.get("critical_path_s"),
                "quarantined": 0,
                "quarantine_signature": None,
                "speedup": entry.get("speedup_vs_original"),
                "extra": {"runs_s": entry.get("runs_s")},
            })
    return entries


def maybe_append_run(
    ctx: Any, result: Any, *, source: str = "run", event_id: str | None = None,
) -> int | None:
    """Auto-append hook the runner calls after every finished run.

    A no-op unless :data:`LEDGER_ENV` names a database; appending never
    raises — a broken ledger must not fail a pipeline run.
    """
    path = os.environ.get(LEDGER_ENV)
    if not path:
        return None
    try:
        return RunLedger(path).append(
            run_entry(ctx, result, source=source, event_id=event_id)
        )
    except Exception:  # pragma: no cover - ledger failures never fail runs
        import logging

        logging.getLogger("repro.observability").debug(
            "ledger append to %s failed", path, exc_info=True
        )
        return None


# -- comparing / trending ------------------------------------------------


@dataclass(frozen=True)
class LedgerDelta:
    """One metric compared between two ledger rows."""

    older_id: int
    newer_id: int
    metric: str
    metric_class: str
    older: float
    newer: float
    status: str  # "ok" | "improved" | "REGRESSION"

    @property
    def rel_change(self) -> float:
        if self.older == 0:
            return 0.0 if self.newer == 0 else float("inf")
        return (self.newer - self.older) / self.older


def _row_metrics(row: dict[str, Any]) -> list[tuple[str, str, float]]:
    """(metric, metric class, value) rows of one ledger entry, matching
    the classes of :data:`repro.observability.perf.METRIC_CLASSES`."""
    out: list[tuple[str, str, float]] = [
        ("end_to_end_s", "end_to_end_s", float(row["total_s"]))
    ]
    for stage, dur in (row.get("stages") or {}).items():
        out.append((f"stage[{stage}]", "stage_s", float(dur)))
    if row.get("speedup"):
        out.append(("speedup", "speedup", float(row["speedup"])))
    return out


def compare_rows(
    older: dict[str, Any], newer: dict[str, Any]
) -> tuple[list[LedgerDelta], list[LedgerDelta]]:
    """Compare two rows with the perf gate's noise-aware thresholds.

    Returns ``(all deltas, regressions)``; only metrics present in both
    rows are compared.
    """
    from repro.observability.perf import METRIC_CLASSES

    newer_metrics = {m: (c, v) for m, c, v in _row_metrics(newer)}
    deltas: list[LedgerDelta] = []
    for metric, cls_name, old_value in _row_metrics(older):
        if metric not in newer_metrics:
            continue
        _, new_value = newer_metrics[metric]
        thresholds = METRIC_CLASSES[cls_name]
        if thresholds.regressed(old_value, new_value):
            status = "REGRESSION"
        elif thresholds.improved(old_value, new_value):
            status = "improved"
        else:
            status = "ok"
        deltas.append(
            LedgerDelta(
                older_id=int(older.get("id") or 0),
                newer_id=int(newer.get("id") or 0),
                metric=metric, metric_class=cls_name,
                older=old_value, newer=new_value, status=status,
            )
        )
    regressions = [d for d in deltas if d.status == "REGRESSION"]
    return deltas, regressions


def _group_key(row: dict[str, Any]) -> tuple:
    return (
        row.get("event_id"), row.get("implementation"),
        row.get("backend"), row.get("workers"),
    )


def trend(
    rows: Iterable[dict[str, Any]],
) -> list[tuple[dict[str, Any], dict[str, Any], list[LedgerDelta]]]:
    """Regressions between consecutive comparable runs.

    Rows are grouped by (event, implementation, backend, workers) — two
    runs under different configurations are never compared — and each
    consecutive pair within a group is checked.  Returns
    ``(older row, newer row, regressions)`` triples for pairs that
    regressed.
    """
    groups: dict[tuple, list[dict[str, Any]]] = {}
    for row in rows:
        groups.setdefault(_group_key(row), []).append(row)
    flagged = []
    for group in groups.values():
        group.sort(key=lambda r: int(r.get("id") or 0))
        for older, newer in zip(group, group[1:]):
            _, regressions = compare_rows(older, newer)
            if regressions:
                flagged.append((older, newer, regressions))
    return flagged


# -- CLI -----------------------------------------------------------------


def _resolve_db(arg: str | None) -> Path:
    return Path(arg or os.environ.get(LEDGER_ENV) or DEFAULT_DB)


def _render_rows(rows: list[dict[str, Any]]) -> str:
    from repro.bench.report import format_table

    table_rows = [
        (
            str(row["id"]),
            str(row["created_utc"]),
            str(row["source"]),
            str(row.get("event_id") or "-"),
            str(row["implementation"]),
            str(row.get("backend") or "-"),
            str(row.get("workers") or "-"),
            f"{row['total_s']:.3f}",
            str(row.get("quarantined") or 0),
        )
        for row in rows
    ]
    return format_table(
        ("id", "recorded", "source", "event", "policy", "backend", "workers",
         "total s", "quar"),
        table_rows,
    )


def _render_deltas(deltas: list[LedgerDelta]) -> str:
    from repro.bench.report import format_table

    rows = [
        (
            d.metric, f"{d.older:.4g}", f"{d.newer:.4g}",
            f"{d.rel_change:+.1%}", d.status,
        )
        for d in sorted(deltas, key=lambda d: (d.status != "REGRESSION", d.metric))
    ]
    return format_table(("metric", "older", "newer", "delta", "status"), rows)


def _show_row(row: dict[str, Any]) -> str:
    lines = [
        f"run {row['id']} — {row['implementation']} "
        f"({row.get('source')}, recorded {row['created_utc']})",
        f"  event:      {row.get('event_id') or '-'}",
        f"  workspace:  {row.get('workspace') or '-'}",
        f"  backend:    {row.get('backend') or '-'} x{row.get('workers') or '-'}",
        f"  total:      {row['total_s']:.3f} s",
    ]
    if row.get("critical_path_s"):
        lines.append(f"  critpath:   {row['critical_path_s']:.3f} s")
    if row.get("speedup"):
        lines.append(f"  speedup:    {row['speedup']:.2f}x vs seq-original")
    if row.get("quarantined"):
        lines.append(
            f"  quarantined: {row['quarantined']} "
            f"({row.get('quarantine_signature')})"
        )
    stages = row.get("stages") or {}
    if stages:
        lines.append("  stages:")
        self_times = row.get("stage_self") or {}
        for stage, dur in stages.items():
            self_s = self_times.get(stage)
            suffix = f"  (self {self_s:.4f} s)" if self_s is not None else ""
            lines.append(f"    {stage:>6}: {dur:8.4f} s{suffix}")
    return "\n".join(lines)


def main_ledger(argv: list[str] | None = None) -> int:
    """Entry point of ``repro-ledger``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-ledger",
        description="Inspect the persistent run ledger and flag cross-run "
                    "regressions.",
    )
    parser.add_argument(
        "--db", default=None,
        help=f"ledger database (default: ${LEDGER_ENV} or ./{DEFAULT_DB})",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    lst = sub.add_parser("list", help="recorded runs, oldest first")
    lst.add_argument("--limit", type=int, default=None, help="show only the newest N")
    lst.add_argument("--event", default=None, help="filter by catalog event id")
    lst.add_argument("--policy", default=None, help="filter by policy name")
    shw = sub.add_parser("show", help="one run in full")
    shw.add_argument("run_id", type=int)
    cmp_ = sub.add_parser("compare", help="two runs, perf-gate thresholds")
    cmp_.add_argument("older_id", type=int)
    cmp_.add_argument("newer_id", type=int)
    trd = sub.add_parser(
        "trend",
        help="walk consecutive comparable runs; exit 1 on regressions",
    )
    trd.add_argument("--event", default=None, help="filter by catalog event id")
    trd.add_argument("--policy", default=None, help="filter by policy name")
    trd.add_argument(
        "--advisory", action="store_true",
        help="report regressions but always exit 0",
    )
    args = parser.parse_args(argv)

    db = _resolve_db(args.db)
    if not db.exists():
        print(f"no ledger at {db}; record a run with REPRO_LEDGER={db} first",
              file=sys.stderr)
        return 2
    ledger = RunLedger(db)

    if args.command == "list":
        rows = ledger.rows(
            limit=args.limit, event_id=args.event, implementation=args.policy
        )
        if not rows:
            print("ledger is empty")
            return 0
        print(_render_rows(rows))
        return 0

    if args.command == "show":
        row = ledger.get(args.run_id)
        if row is None:
            print(f"no run {args.run_id} in {db}", file=sys.stderr)
            return 2
        print(_show_row(row))
        return 0

    if args.command == "compare":
        older, newer = ledger.get(args.older_id), ledger.get(args.newer_id)
        if older is None or newer is None:
            missing = args.older_id if older is None else args.newer_id
            print(f"no run {missing} in {db}", file=sys.stderr)
            return 2
        deltas, regressions = compare_rows(older, newer)
        if not deltas:
            print("no comparable metrics")
            return 0
        print(_render_deltas(deltas))
        if regressions:
            print(f"{len(regressions)} regression(s) beyond thresholds")
            return 1
        print("OK: all compared metrics within thresholds")
        return 0

    # trend
    rows = ledger.rows(event_id=args.event, implementation=args.policy)
    if len(rows) < 2:
        print("need at least two recorded runs to trend")
        return 0
    flagged = trend(rows)
    if not flagged:
        print(f"OK: no regressions across {len(rows)} recorded runs")
        return 0
    for older, newer, regressions in flagged:
        print(
            f"run {older['id']} -> {newer['id']} "
            f"({newer['implementation']}, {newer.get('event_id') or '-'}, "
            f"{newer.get('backend') or '-'} x{newer.get('workers') or '-'}):"
        )
        print(_render_deltas(regressions))
    verdict = f"{len(flagged)} regressed run pair(s)"
    if args.advisory:
        print(f"ADVISORY: {verdict} (advisory mode, not failing)")
        return 0
    print(f"FAIL: {verdict}", file=sys.stderr)
    return 1


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    sys.exit(main_ledger())
