"""Tests for the legacy-tool emulations (directory-driven programs)."""

import numpy as np
import pytest

from repro.core.tools import (
    correct_component,
    correction_tool,
    fourier_tool,
    max_line,
    read_tool_config,
    write_tool_config,
)
from repro.dsp.fir import DEFAULT_BANDPASS, BandPassSpec
from repro.errors import MissingArtifactError, PipelineError
from repro.formats.common import Header
from repro.formats.fourier import read_fourier
from repro.formats.params import FilterParams, write_filter_params
from repro.formats.v1 import ComponentRecord, write_component_v1
from repro.formats.v2 import read_v2


def make_component(rng, station="ST01", comp="l", n=2000, dt=0.01) -> ComponentRecord:
    header = Header(station=station, component=comp, dt=dt, npts=n, magnitude=5.0)
    acc = rng.normal(size=n) * np.hanning(n) * 20.0 + 1.5  # offset + shaking
    return ComponentRecord(header=header, acceleration=acc)


class TestToolConfig:
    def test_roundtrip(self, tmp_path):
        write_tool_config(tmp_path, params="filter.par", taper=0.05)
        settings = read_tool_config(tmp_path)
        assert settings == {"PARAMS": "filter.par", "TAPER": "0.05"}

    def test_missing_config_is_a_missing_artifact(self, tmp_path):
        with pytest.raises(MissingArtifactError):
            read_tool_config(tmp_path)
        # Still a PipelineError: existing catch-all handlers keep working.
        with pytest.raises(PipelineError):
            read_tool_config(tmp_path)

    def test_undecodable_config_is_a_pipeline_error(self, tmp_path):
        (tmp_path / "tool.cfg").write_bytes(b"PARAMS filter.par\nTAPER 0.\xff5\n")
        with pytest.raises(PipelineError, match="undecodable byte at offset 26"):
            read_tool_config(tmp_path)


class TestCorrectComponent:
    def test_output_structure(self, rng):
        record = make_component(rng)
        corrected = correct_component(record, DEFAULT_BANDPASS)
        n = record.acceleration.shape[0]
        assert corrected.acceleration.shape == (n,)
        assert corrected.velocity.shape == (n,)
        assert corrected.displacement.shape == (n,)
        assert corrected.f_pass_low == DEFAULT_BANDPASS.f_pass_low

    def test_offset_removed(self, rng):
        record = make_component(rng)
        corrected = correct_component(record, DEFAULT_BANDPASS)
        assert abs(corrected.acceleration.mean()) < abs(record.acceleration.mean())

    def test_peaks_consistent_with_series(self, rng):
        corrected = correct_component(make_component(rng), DEFAULT_BANDPASS)
        assert abs(corrected.peaks.pga) == pytest.approx(
            np.abs(corrected.acceleration).max()
        )
        assert abs(corrected.peaks.pgv) == pytest.approx(np.abs(corrected.velocity).max())

    def test_narrower_band_reduces_energy(self, rng):
        record = make_component(rng)
        wide = correct_component(record, DEFAULT_BANDPASS)
        narrow = correct_component(
            record, BandPassSpec(0.5, 1.0, 3.0, 4.0)
        )
        assert np.sum(narrow.acceleration**2) < np.sum(wide.acceleration**2)

    def test_max_line_format(self, rng):
        corrected = correct_component(make_component(rng), DEFAULT_BANDPASS)
        line = max_line(corrected)
        tokens = line.split()
        assert tokens[0] == "ST01"
        assert tokens[1] == "l"
        assert len(tokens) == 8
        float(tokens[2])  # parses


class TestCorrectionTool:
    def prepare(self, tmp_path, rng, n_traces=2):
        write_filter_params(tmp_path / "filter.par", FilterParams(default=DEFAULT_BANDPASS))
        write_tool_config(tmp_path, params="filter.par")
        comps = ["l", "t"]
        for comp in comps[:n_traces]:
            record = make_component(rng, comp=comp)
            write_component_v1(tmp_path / f"ST01{comp}.v1", record)
        return comps[:n_traces]

    def test_processes_all_v1_files(self, tmp_path, rng):
        comps = self.prepare(tmp_path, rng)
        processed = correction_tool(tmp_path)
        assert processed == [f"ST01{c}" for c in sorted(comps)]
        for comp in comps:
            assert (tmp_path / f"ST01{comp}.v2").exists()
            assert (tmp_path / f"ST01{comp}.max").exists()

    def test_v2_content_valid(self, tmp_path, rng):
        self.prepare(tmp_path, rng, n_traces=1)
        correction_tool(tmp_path)
        record = read_v2(tmp_path / "ST01l.v2")
        assert record.header.station == "ST01"
        assert np.all(np.isfinite(record.displacement))

    def test_respects_params_override(self, tmp_path, rng):
        params = FilterParams(default=DEFAULT_BANDPASS)
        params.set_override("ST01", "l", BandPassSpec(0.5, 1.0, 3.0, 4.0))
        write_filter_params(tmp_path / "custom.par", params)
        write_component_v1(tmp_path / "ST01l.v1", make_component(rng))
        write_tool_config(tmp_path, params="custom.par")
        correction_tool(tmp_path)
        record = read_v2(tmp_path / "ST01l.v2")
        assert record.f_pass_low == pytest.approx(1.0)

    def test_missing_params_rejected(self, tmp_path, rng):
        write_component_v1(tmp_path / "ST01l.v1", make_component(rng))
        with pytest.raises(PipelineError):
            correction_tool(tmp_path)

    def test_empty_folder_is_noop(self, tmp_path):
        write_filter_params(tmp_path / "filter.par", FilterParams(default=DEFAULT_BANDPASS))
        write_tool_config(tmp_path, params="filter.par")
        assert correction_tool(tmp_path) == []

    def test_deterministic(self, tmp_path, rng):
        self.prepare(tmp_path, rng, n_traces=1)
        correction_tool(tmp_path)
        first = (tmp_path / "ST01l.v2").read_bytes()
        correction_tool(tmp_path)
        assert (tmp_path / "ST01l.v2").read_bytes() == first


class TestFourierTool:
    def prepare(self, tmp_path, rng):
        write_filter_params(tmp_path / "filter.par", FilterParams(default=DEFAULT_BANDPASS))
        write_tool_config(tmp_path, params="filter.par")
        write_component_v1(tmp_path / "ST01l.v1", make_component(rng))
        correction_tool(tmp_path)

    def test_produces_f_files(self, tmp_path, rng):
        self.prepare(tmp_path, rng)
        processed = fourier_tool(tmp_path)
        assert processed == ["ST01l"]
        record = read_fourier(tmp_path / "ST01l.f")
        assert np.all(np.diff(record.periods) > 0)
        assert np.all(record.velocity >= 0)

    def test_respects_max_period(self, tmp_path, rng):
        self.prepare(tmp_path, rng)
        write_tool_config(tmp_path, taper=0.05, maxperiod=5.0)
        fourier_tool(tmp_path)
        record = read_fourier(tmp_path / "ST01l.f")
        assert record.periods[-1] <= 5.0
