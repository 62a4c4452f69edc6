"""Round-trip tests for the F and R spectra formats."""

import numpy as np
import pytest

from repro.errors import DataBlockError
from repro.formats.common import Header
from repro.formats.fourier import (
    FourierRecord,
    component_f_name,
    read_fourier,
    write_fourier,
)
from repro.formats.response import (
    ResponseRecord,
    component_r_name,
    read_response,
    write_response,
)


def make_header(**kwargs) -> Header:
    base = dict(station="ST02", component="t", dt=0.005, npts=0, magnitude=5.0)
    base.update(kwargs)
    return Header(**base)


def make_fourier(rng, n=25) -> FourierRecord:
    periods = np.geomspace(0.02, 20.0, n)
    return FourierRecord(
        header=make_header(),
        periods=periods,
        acceleration=np.abs(rng.normal(size=n)) + 0.1,
        velocity=np.abs(rng.normal(size=n)) + 0.1,
        displacement=np.abs(rng.normal(size=n)) + 0.1,
    )


class TestFourierFormat:
    def test_roundtrip(self, tmp_path, rng):
        record = make_fourier(rng)
        path = tmp_path / component_f_name("ST02", "t")
        write_fourier(path, record)
        back = read_fourier(path)
        assert np.allclose(back.periods, record.periods, rtol=1e-6)
        assert np.allclose(back.velocity, record.velocity, rtol=1e-6)
        assert back.header.station == "ST02"

    def test_name_helper(self):
        assert component_f_name("ST02", "t") == "ST02t.f"

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(DataBlockError):
            FourierRecord(
                header=make_header(),
                periods=np.ones(5),
                acceleration=np.ones(5),
                velocity=np.ones(4),
                displacement=np.ones(5),
            )

    def test_missing_block_rejected(self, tmp_path, rng):
        path = tmp_path / "x.f"
        write_fourier(path, make_fourier(rng))
        text = path.read_text().replace("SERIES-BLOCK: VELOCITY", "SERIES-BLOCK: OTHER")
        path.write_text(text)
        with pytest.raises(DataBlockError):
            read_fourier(path)

    def test_spectra_property(self, rng):
        record = make_fourier(rng)
        assert set(record.spectra) == {"ACCELERATION", "VELOCITY", "DISPLACEMENT"}


def make_response(rng, n_periods=12, n_damp=3) -> ResponseRecord:
    return ResponseRecord(
        header=make_header(component="v"),
        periods=np.geomspace(0.02, 20.0, n_periods),
        dampings=np.linspace(0.02, 0.2, n_damp),
        sa=np.abs(rng.normal(size=(n_damp, n_periods))),
        sv=np.abs(rng.normal(size=(n_damp, n_periods))),
        sd=np.abs(rng.normal(size=(n_damp, n_periods))),
    )


class TestResponseFormat:
    def test_roundtrip(self, tmp_path, rng):
        record = make_response(rng)
        path = tmp_path / component_r_name("ST02", "v")
        write_response(path, record)
        back = read_response(path)
        assert np.allclose(back.periods, record.periods, rtol=1e-6)
        assert np.allclose(back.dampings, record.dampings, rtol=1e-6)
        assert np.allclose(back.sa, record.sa, rtol=1e-6)
        assert np.allclose(back.sv, record.sv, rtol=1e-6)
        assert np.allclose(back.sd, record.sd, rtol=1e-6)

    def test_name_helper(self):
        assert component_r_name("ST02", "v") == "ST02v.r"

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(DataBlockError):
            ResponseRecord(
                header=make_header(),
                periods=np.ones(5),
                dampings=np.array([0.05]),
                sa=np.ones((1, 5)),
                sv=np.ones((2, 5)),
                sd=np.ones((1, 5)),
            )

    def test_quantity_accessor(self, rng):
        record = make_response(rng)
        assert np.array_equal(record.quantity("SA"), record.sa)
        assert np.array_equal(record.quantity("sv"), record.sv)
        with pytest.raises(DataBlockError):
            record.quantity("XX")

    def test_missing_damping_block_rejected(self, tmp_path, rng):
        path = tmp_path / "x.r"
        write_response(path, make_response(rng))
        text = path.read_text().replace("SERIES-BLOCK: SA1", "SERIES-BLOCK: QQ1")
        path.write_text(text)
        with pytest.raises(DataBlockError):
            read_response(path)

    def test_short_damping_block_rejected(self, tmp_path, rng):
        # SA1 with 6 values against 7 periods: the rows cannot be
        # stacked, which must surface as a typed error naming the block.
        path = tmp_path / "short.r"
        write_response(path, make_response(rng, n_periods=7, n_damp=2))
        lines = path.read_text().splitlines()
        at = lines.index("SERIES-BLOCK: SA1 7")
        lines[at] = "SERIES-BLOCK: SA1 6"
        lines[at + 2] = lines[at + 2][:15]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataBlockError, match="SA1 has 6 values, expected 7"):
            read_response(path)

    def test_single_damping(self, tmp_path, rng):
        record = make_response(rng, n_damp=1)
        path = tmp_path / "y.r"
        write_response(path, record)
        back = read_response(path)
        assert back.sa.shape == (1, 12)
