"""Measured-mode Table I: real wall-clock for all events and
implementations, at a configurable scale.

The model-mode table (:mod:`repro.bench.table1`) reproduces the
paper's numbers; this one documents what the Python pipeline actually
does on the present machine, whatever its core count; on one core the
parallel implementations cannot win.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import measure_implementations, small_response_config
from repro.bench.report import format_table
from repro.core.context import ParallelSettings
from repro.synth.events import PAPER_EVENTS, EventSpec


@dataclass(frozen=True)
class MeasuredTableRow:
    """One measured row: wall seconds per implementation."""

    event_id: str
    n_files: int
    total_points: int
    times_s: dict[str, float]

    @property
    def speedup(self) -> float:
        """seq-original / full-parallel on this machine."""
        return self.times_s["seq-original"] / self.times_s["full-parallel"]


def measured_table(
    *,
    scale: float = 0.02,
    events: tuple[EventSpec, ...] = PAPER_EVENTS,
    workers: int | None = None,
    n_periods: int = 30,
) -> list[MeasuredTableRow]:
    """Measure every event at the given scale (real wall-clock)."""
    rows = []
    for event in events:
        measured = measure_implementations(
            event,
            scale=scale,
            parallel=ParallelSettings(num_workers=workers),
            response_config=small_response_config(n_periods),
        )
        rows.append(
            MeasuredTableRow(
                event_id=measured.event_id,
                n_files=measured.n_files,
                total_points=measured.total_points,
                times_s=measured.times_s,
            )
        )
    return rows


def render_measured_table(rows: list[MeasuredTableRow]) -> str:
    """Paper-style rendering of the measured table."""
    headers = ("Event", "Files", "Points", "SeqOri", "SeqOpt", "PartPar", "FullPar", "SpeedUp")
    body = [
        (
            row.event_id,
            row.n_files,
            row.total_points,
            row.times_s["seq-original"],
            row.times_s["seq-optimized"],
            row.times_s["partial-parallel"],
            row.times_s["full-parallel"],
            f"{row.speedup:.2f}x",
        )
        for row in rows
    ]
    return format_table(headers, body)
