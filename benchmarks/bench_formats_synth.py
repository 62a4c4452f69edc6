"""Micro-benchmarks of the I/O substrate and the data generator.

The pipeline's Heavy-I/O tag rests on reading/writing fixed-width
records; these benches pin the costs (and catch regressions in the
formatter, which every artifact flows through).
"""

import numpy as np
import pytest

from repro.dsp.peak import PeakValues
from repro.formats import common
from repro.formats.common import (
    COMPONENTS,
    Header,
    block_line_count,
    format_fixed_block,
    parse_fixed_block,
)
from repro.formats.v1 import RawRecord, read_v1, write_v1
from repro.formats.v2 import CorrectedRecord, read_v2, write_v2
from repro.synth.dataset import synthesize_station_record
from repro.synth.events import EventSpec
from repro.synth.network import make_network

RNG = np.random.default_rng(99)
CUT = common._VECTOR_MIN_VALUES
#: Block lengths the pipeline writes: 30-period and 100-period spectra,
#: both sides of the formatter's numpy cut, the largest EV-NOV18 file
#: (12,910 points), the largest interleaved GEM block (2 x 12,910) and
#: the paper's 35,000-point per-file bound (the largest catalog file,
#: EV-MAY19's, holds 32,795).
SIZES = {
    "30": 30,
    "100": 100,
    "cut-1": CUT - 1,
    "cut": CUT,
    "cut+1": CUT + 1,
    "12910": 12_910,
    "25820": 25_820,
    "35k": 35_000,
}
BLOCKS = {name: RNG.normal(size=n) for name, n in SIZES.items()}
#: Three-digit exponents fill all 15 characters of a field and are
#: formatted by ``%`` on either side of the cut.
BLOCKS["35k-e3"] = RNG.normal(size=35_000) * 1e-200


@pytest.mark.parametrize("block", sorted(BLOCKS))
def test_bench_fixed_block_format(benchmark, block):
    values = BLOCKS[block]
    text = benchmark(format_fixed_block, values)
    lines = text.splitlines()
    assert len(lines) == block_line_count(values.size)
    assert len(text) == 15 * values.size + len(lines)


#: The two formatter paths on the same blocks, around the cut: the
#: ``%`` template below it, numpy digit arithmetic from it on.
CROSSOVER = {n: RNG.normal(size=n) for n in (64, 128, 192, CUT, 384)}
PATHS = {"template": common._format_template, "digits": common._format_fields}


@pytest.mark.parametrize("n", sorted(CROSSOVER))
@pytest.mark.parametrize("path", sorted(PATHS))
def test_bench_format_path_crossover(benchmark, path, n):
    values = CROSSOVER[n]
    text = benchmark(PATHS[path], values)
    assert text == format_fixed_block(values)


#: The two parser paths on the same blocks, around the cut: the ``S15``
#: cast below it, digit arithmetic from it on.
PARSE_CUT = common._DIGITS_MIN_VALUES
PARSE_CROSSOVER = {n: RNG.normal(size=n) for n in (128, 256, PARSE_CUT, 512, 1024, 2000)}
PARSE_PATHS = {"cast": common._cast_fields, "digits": common._parse_fields}


@pytest.mark.parametrize("n", sorted(PARSE_CROSSOVER))
@pytest.mark.parametrize("path", sorted(PARSE_PATHS))
def test_bench_parse_path_crossover(benchmark, path, n):
    values = PARSE_CROSSOVER[n]
    text = format_fixed_block(values).replace("\n", "")
    raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(n, 15)
    parsed = benchmark(PARSE_PATHS[path], raw)
    assert np.array_equal(parsed.view(np.uint64), common._cast_fields(raw).view(np.uint64))


@pytest.mark.parametrize("block", sorted(BLOCKS))
def test_bench_fixed_block_parse(benchmark, block):
    values = BLOCKS[block]
    lines = format_fixed_block(values).splitlines()
    parsed = benchmark(parse_fixed_block, lines, len(values))
    assert parsed.shape == values.shape


@pytest.fixture(scope="module")
def station_record():
    header = Header(station="BN01", dt=0.01, npts=0, magnitude=5.0)
    return RawRecord(
        header=header,
        components={c: RNG.normal(size=8_000) for c in COMPONENTS},
    )


def test_bench_v1_write(benchmark, tmp_path, station_record):
    path = tmp_path / "BN01.v1"
    benchmark(write_v1, path, station_record)


def test_bench_v1_read(benchmark, tmp_path, station_record):
    path = tmp_path / "BN01.v1"
    write_v1(path, station_record)
    record = benchmark(read_v1, path)
    assert record.npts == 8_000


def test_bench_v2_roundtrip(benchmark, tmp_path):
    record = CorrectedRecord(
        header=Header(station="BN01", component="l", dt=0.01, npts=0),
        acceleration=RNG.normal(size=8_000),
        velocity=RNG.normal(size=8_000),
        displacement=RNG.normal(size=8_000),
        peaks=PeakValues(1, 0.1, 2, 0.2, 3, 0.3),
        f_stop_low=0.05,
        f_pass_low=0.1,
        f_pass_high=25.0,
        f_stop_high=30.0,
    )
    path = tmp_path / "BN01l.v2"

    def roundtrip():
        write_v2(path, record)
        return read_v2(path)

    back = benchmark(roundtrip)
    assert back.header.npts == 8_000


def test_bench_synthesize_station(benchmark):
    event = EventSpec("BN", "2024-01-01", 5.5, 1, 8_000, seed=1)
    station = make_network(1, seed=1)[0]
    record = benchmark(synthesize_station_record, event, station, 8_000)
    assert record.npts == 8_000
