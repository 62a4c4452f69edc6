"""Golden numeric regression tests.

A fixed seeded event processed by the pipeline must keep producing the
same physical numbers.  These values were recorded from the current
implementation and guard against silent numeric drift anywhere in the
chain (synthesis → separation → filtering → integration → FPL/FSL →
response spectra).  Tolerances are tight (1e-5 relative): the chain is
deterministic, so only a genuine behaviour change moves them.

If a change is *intended* to alter numerics (e.g. a better filter
design), update the goldens in the same commit and say why.
"""

import numpy as np
import pytest

from repro.core import RunContext
from repro.engine import policy_by_name
from repro.formats.params import read_filter_params
from repro.formats.response import read_response
from repro.formats.v2 import read_v2
from repro.spectra.response import ResponseSpectrumConfig, default_periods
from repro.synth import EventSpec, generate_event_dataset

GOLD_EVENT = EventSpec("EV-GOLD", "2021-09-09", 5.5, 2, 16_000, seed=777001)

#: (station+comp) -> (signed PGA gal, signed PGV cm/s, FPL Hz).
GOLDEN_TRACES = {
    "ST01l": (51.706199, -1.7429043, 0.988506),
    "ST01t": (-83.619116, -2.9763514, 0.988506),
    "ST01v": (35.030482, 1.6946048, 0.988506),
    "ST02l": (8.8156023, -0.49134172, 0.986301),
    "ST02t": (-7.5107777, 0.50422123, 0.986301),
    "ST02v": (-5.4006876, 0.4240409, 0.986301),
}

GOLDEN_FILE_POINTS = [8_700, 7_300]
GOLDEN_SA_NEAR_1S = 10.112891  # ST01 l, 5% damping, T = 1.1247 s
GOLDEN_SD_MAX = 0.46909195


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    ctx = RunContext.for_directory(
        tmp_path_factory.mktemp("golden") / "ws",
        response_config=ResponseSpectrumConfig(
            periods=default_periods(25), dampings=(0.05,)
        ),
    )
    generate_event_dataset(GOLD_EVENT, ctx.workspace.input_dir)
    policy_by_name("seq-optimized").run(ctx)
    return ctx


class TestGoldenValues:
    def test_event_structure(self):
        assert GOLD_EVENT.file_points() == GOLDEN_FILE_POINTS

    def test_trace_peaks_and_corners(self, golden_run):
        for trace, (pga, pgv, fpl) in GOLDEN_TRACES.items():
            station, comp = trace[:-1], trace[-1]
            rec = read_v2(golden_run.workspace.component_v2(station, comp))
            assert rec.peaks.pga == pytest.approx(pga, rel=1e-5), trace
            assert rec.peaks.pgv == pytest.approx(pgv, rel=1e-5), trace
            assert rec.f_pass_low == pytest.approx(fpl, rel=1e-5), trace

    def test_response_spectrum_values(self, golden_run):
        rec = read_response(golden_run.workspace.component_r("ST01", "l"))
        idx = int(np.argmin(np.abs(rec.periods - 1.0)))
        assert rec.sa[0, idx] == pytest.approx(GOLDEN_SA_NEAR_1S, rel=1e-5)
        assert rec.sd[0].max() == pytest.approx(GOLDEN_SD_MAX, rel=1e-5)

    def test_corner_overrides_count(self, golden_run):
        params = read_filter_params(
            golden_run.workspace.work("filter_corrected.par")
        )
        assert len(params.overrides) == 6

    def test_horizontals_stronger_than_vertical(self, golden_run):
        # A physical sanity constraint the goldens should always obey.
        for station in ("ST01", "ST02"):
            v = abs(GOLDEN_TRACES[f"{station}v"][0])
            h = max(abs(GOLDEN_TRACES[f"{station}l"][0]), abs(GOLDEN_TRACES[f"{station}t"][0]))
            assert h > v
