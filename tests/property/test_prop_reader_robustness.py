"""Fuzz-robustness: corrupted files never crash with foreign exceptions.

Every reader must either parse a file or raise a typed
:class:`~repro.errors.ReproError` — corrupt input from a flaky
instrument or a truncated transfer must surface as a diagnosable
format error, not an IndexError three modules away.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.peak import PeakValues
from repro.errors import ReproError
from repro.formats.common import COMPONENTS, Header
from repro.formats.filelist import read_filelist, read_metadata
from repro.formats.fourier import FourierRecord, read_fourier, write_fourier
from repro.formats.gem import GemSeries, read_gem, write_gem
from repro.formats.params import FilterParams, read_filter_params, write_filter_params
from repro.formats.response import ResponseRecord, read_response, write_response
from repro.formats.v1 import RawRecord, read_v1, write_v1
from repro.formats.v2 import CorrectedRecord, read_v2, write_v2
from repro.dsp.fir import DEFAULT_BANDPASS


def _valid_files(tmp_path):
    """One valid instance of every format, returned as (path, reader)."""
    rng = np.random.default_rng(0)
    header = Header(station="FZ", component="l", dt=0.01, npts=0, magnitude=5.0)
    out = []

    v1 = tmp_path / "FZ.v1"
    write_v1(v1, RawRecord(header=header.copy_for(), components={c: rng.normal(size=12) for c in COMPONENTS}))
    out.append((v1, read_v1))

    v2 = tmp_path / "FZl.v2"
    write_v2(
        v2,
        CorrectedRecord(
            header=header.copy_for(),
            acceleration=rng.normal(size=10),
            velocity=rng.normal(size=10),
            displacement=rng.normal(size=10),
            peaks=PeakValues(1, 0.1, 2, 0.2, 3, 0.3),
            f_stop_low=0.05,
            f_pass_low=0.1,
            f_pass_high=25.0,
            f_stop_high=30.0,
        ),
    )
    out.append((v2, read_v2))

    f = tmp_path / "FZl.f"
    periods = np.geomspace(0.1, 10, 8)
    write_fourier(
        f,
        FourierRecord(
            header=header.copy_for(),
            periods=periods,
            acceleration=np.abs(rng.normal(size=8)) + 0.1,
            velocity=np.abs(rng.normal(size=8)) + 0.1,
            displacement=np.abs(rng.normal(size=8)) + 0.1,
        ),
    )
    out.append((f, read_fourier))

    r = tmp_path / "FZl.r"
    write_response(
        r,
        ResponseRecord(
            header=header.copy_for(),
            periods=periods,
            dampings=np.array([0.05]),
            sa=np.abs(rng.normal(size=(1, 8))),
            sv=np.abs(rng.normal(size=(1, 8))),
            sd=np.abs(rng.normal(size=(1, 8))),
        ),
    )
    out.append((r, read_response))

    gem = tmp_path / "FZl2A.gem"
    write_gem(gem, GemSeries("FZ", "l", "2", "A", np.arange(5.0), rng.normal(size=5)))
    out.append((gem, read_gem))

    par = tmp_path / "filter.par"
    write_filter_params(par, FilterParams(default=DEFAULT_BANDPASS))
    out.append((par, read_filter_params))

    lst = tmp_path / "v1files.lst"
    from repro.formats.filelist import write_filelist

    write_filelist(lst, ["FZ.v1"])
    out.append((lst, read_filelist))

    meta = tmp_path / "x.meta"
    from repro.formats.filelist import MetadataFile, write_metadata

    write_metadata(meta, MetadataFile(purpose="X", entries=[("FZ", "FZl.v2")]))
    out.append((meta, read_metadata))
    return out


@pytest.fixture(scope="module")
def format_corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz-corpus")
    return [(path.read_text(), reader, path.suffix) for path, reader in _valid_files(tmp)]


corruptions = st.sampled_from(["truncate", "delete_line", "mangle_line", "swap_chars", "blank"])


class TestReaderRobustness:
    @given(
        which=st.integers(0, 7),
        corruption=corruptions,
        position=st.floats(0.0, 1.0),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_corrupted_file_never_crashes(
        self, tmp_path_factory, format_corpus, which, corruption, position, data
    ):
        text, reader, suffix = format_corpus[which % len(format_corpus)]
        lines = text.splitlines()
        idx = min(int(position * len(lines)), len(lines) - 1)
        if corruption == "truncate":
            mutated = "\n".join(lines[:idx])
        elif corruption == "delete_line":
            mutated = "\n".join(lines[:idx] + lines[idx + 1 :])
        elif corruption == "mangle_line":
            junk = data.draw(st.text(max_size=30))
            mutated = "\n".join(lines[:idx] + [junk] + lines[idx + 1 :])
        elif corruption == "swap_chars":
            line = lines[idx]
            if len(line) >= 2:
                k = data.draw(st.integers(0, len(line) - 2))
                line = line[:k] + line[k + 1] + line[k] + line[k + 2 :]
            mutated = "\n".join(lines[:idx] + [line] + lines[idx + 1 :])
        else:
            mutated = ""
        path = tmp_path_factory.mktemp("fuzz") / f"mutant{suffix}"
        path.write_text(mutated + "\n")
        try:
            reader(path)
        except ReproError:
            pass  # typed rejection is the contract
        # Silent acceptance is fine too: some mutations are harmless
        # (swapping characters inside a station name, for example).

    @given(
        which=st.integers(0, 7),
        mutations=st.lists(
            st.tuples(
                st.sampled_from(["high_byte", "nul", "repeat_chunk"]),
                st.floats(0.0, 1.0),
                st.integers(0x80, 0xFF),
                st.integers(1, 40),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_corrupted_bytes_never_crash(self, tmp_path_factory, format_corpus, which, mutations):
        # Bytes that are not UTF-8, NULs and duplicated chunks, written
        # as bytes: undecodable input must surface as a typed error.
        text, reader, suffix = format_corpus[which % len(format_corpus)]
        raw = bytearray(text.encode())
        for kind, position, byte, size in mutations:
            at = min(int(position * len(raw)), len(raw) - 1)
            if kind == "high_byte":
                raw[at] = byte
            elif kind == "nul":
                raw[at : at + size] = b"\x00" * size
            else:
                raw[at:at] = raw[at : at + size] * (byte % 8 + 2)
        path = tmp_path_factory.mktemp("fuzz-bytes") / f"mutant{suffix}"
        path.write_bytes(bytes(raw))
        try:
            reader(path)
        except ReproError:
            pass
