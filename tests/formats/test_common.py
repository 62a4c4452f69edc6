"""Unit tests for repro.formats.common."""

import numpy as np
import pytest

from repro.errors import DataBlockError, HeaderError, MissingArtifactError
from repro.formats import common
from repro.formats.common import (
    _VECTOR_MIN_VALUES,
    Header,
    block_line_count,
    format_fixed_block,
    parse_fixed_block,
    parse_header,
    read_lines,
)


def reference_format_fixed_block(values: np.ndarray) -> str:
    """The per-value formatter, the oracle for ``format_fixed_block``."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        return ""
    lines = []
    for start in range(0, values.size, 5):
        chunk = values[start : start + 5]
        lines.append("".join("%15.7E" % v for v in chunk))
    return "\n".join(lines) + "\n"


def reference_parse_fixed_block(
    lines: list[str], count: int, *, path: str = "<memory>"
) -> np.ndarray:
    """The per-field parser, the oracle for ``parse_fixed_block``."""
    values: list[float] = []
    for line in lines:
        line = line.rstrip("\n")
        for start in range(0, len(line), 15):
            fieldtxt = line[start : start + 15].strip()
            if not fieldtxt:
                continue
            try:
                values.append(float(fieldtxt))
            except ValueError as exc:
                raise DataBlockError(f"{path}: bad numeric field {fieldtxt!r}") from exc
    if len(values) != count:
        raise DataBlockError(f"{path}: expected {count} values, found {len(values)}")
    return np.asarray(values, dtype=float)


def parse_outcome(parse, lines: list[str], count: int):
    """``("ok", int64 bit patterns)`` or ``("error", message)`` of one parse."""
    try:
        return "ok", parse(lines, count, path="blk").view(np.int64).tolist()
    except DataBlockError as exc:
        return "error", str(exc)


class TestAgainstReference:
    EDGE_VALUES = np.array(
        [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, -1.0e-200, 1.0e200,
         -9.99999995e99, 1.7976931348623157e308, 123.456, -1.0, 1e-7]
    )

    def test_edge_values_match_reference(self):
        # Padded past the cut, the numpy formatter must splice the same
        # fields in for the values it hands back to ``%``.
        for n in (len(self.EDGE_VALUES), _VECTOR_MIN_VALUES + 3):
            values = np.resize(self.EDGE_VALUES, n)
            text = format_fixed_block(values)
            assert text == reference_format_fixed_block(values)
            # A three-digit exponent fills the whole field: no leading space.
            assert "-1.0000000E-200" in text
            lines = text.splitlines()
            assert parse_outcome(parse_fixed_block, lines, n) == parse_outcome(
                reference_parse_fixed_block, lines, n
            )

    @pytest.mark.parametrize(
        "lines, count",
        [
            (["  1.0000000E+00               2.0000000E+00"], 2),  # blank field skipped
            (["  1.0000000E+00   garbage_data"], 2),
            (["  1.0000000E+00", "  2.0000000E"], 2),  # ragged last line
            (["  1.0000000E+00  2.0"], 2),
            (["  1.0000000E+00  2.000000é+00"], 2),  # non-ASCII
            (["1.0\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"], 1),  # NUL padding
            (["  1.0000000E+00\n", "  2.0000000E+00\n"], 2),  # kept newlines
            (["  1.0000000E+00  2.0000000E+00"], 1),  # too many
            (["  1.0000000E+00  2.0000000E+00"], 3),  # too few
            # float() grammar: underscores, signed NaN, tab padding
            (["            1_0           -NaN\t\t\t\t\t\t\t\t\t\t\t\t\t1."], 3),
        ],
    )
    def test_malformed_blocks_match_reference(self, lines, count):
        assert parse_outcome(parse_fixed_block, lines, count) == parse_outcome(
            reference_parse_fixed_block, lines, count
        )


class TestDigitParser:
    """Blocks of ``_DIGITS_MIN_VALUES`` fields and more are parsed from digits."""

    #: Fields at both exponent guards (|e - 7| <= 22 holds for e in
    #: -15..29), two- and three-digit exponent edges, and signed zeros.
    FIELDS = [
        "%15.7E" % float(f"{m}e{e}")
        for e in (-17, -16, -15, -14, 0, 7, 28, 29, 30, 31, 99, -99, 100, -100, -200)
        for m in ("1.2345678", "-9.9999999", "4.4501477")
    ] + ["  0.0000000E+00", " -0.0000000E+00"]

    def _lines(self, n):
        fields = (self.FIELDS * (n // len(self.FIELDS) + 1))[:n]
        return ["".join(fields[i : i + 5]) for i in range(0, n, 5)], fields

    @pytest.mark.parametrize("n", [common._DIGITS_MIN_VALUES, common._PARSE_CHUNK + 7])
    def test_matches_float_bit_for_bit(self, n):
        lines, fields = self._lines(n)
        got = parse_fixed_block(lines, n)
        want = np.array([float(f) for f in fields])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_negative_zero(self):
        lines, fields = self._lines(common._DIGITS_MIN_VALUES)
        got = parse_fixed_block(lines, len(fields))
        negative_zero = [i for i, f in enumerate(fields) if f == " -0.0000000E+00"]
        assert negative_zero and np.all(np.signbit(got[negative_zero]))
        assert np.all(got[negative_zero] == 0.0)

    def test_fields_parsed_from_digits_and_by_the_cast(self):
        # e = 29 is the last exact power up, 30 goes to the cast.
        raw = np.frombuffer(
            b"  1.2345678E+29  1.2345678E+30  1.2345678E-15  1.2345678E-16", dtype=np.uint8
        ).reshape(4, 15)
        assert common._parse_fields(raw).tolist() == [1.2345678e29, 1.2345678e30, 1.2345678e-15, 1.2345678e-16]

    def test_bad_field_in_a_long_block_names_it(self):
        lines, fields = self._lines(common._DIGITS_MIN_VALUES + 3)
        lines[7] = lines[7][:15] + "  1.00000x0E+00" + lines[7][30:]
        with pytest.raises(DataBlockError, match=r"bad numeric field '1.00000x0E\+00'"):
            parse_fixed_block(lines, common._DIGITS_MIN_VALUES + 3, path="blk")


class TestFixedBlocks:
    def test_roundtrip(self, rng):
        values = rng.normal(size=37) * 1e3
        text = format_fixed_block(values)
        parsed = parse_fixed_block(text.splitlines(), 37)
        assert np.allclose(parsed, values, rtol=1e-6)

    def test_five_per_line(self):
        text = format_fixed_block(np.arange(12.0))
        lines = text.splitlines()
        assert len(lines) == 3
        assert len(lines[0]) == 75  # 5 fields x 15 chars

    def test_empty(self):
        assert format_fixed_block(np.array([])) == ""

    def test_line_count_helper(self):
        assert block_line_count(1) == 1
        assert block_line_count(5) == 1
        assert block_line_count(6) == 2
        assert block_line_count(12) == 3

    def test_count_mismatch_raises(self):
        text = format_fixed_block(np.arange(10.0))
        with pytest.raises(DataBlockError):
            parse_fixed_block(text.splitlines(), 11)

    def test_bad_field_raises(self):
        with pytest.raises(DataBlockError):
            parse_fixed_block(["   garbage_data"], 1)

    def test_negative_and_tiny_values(self):
        values = np.array([-1.234567e-30, 9.87e20, 0.0])
        parsed = parse_fixed_block(format_fixed_block(values).splitlines(), 3)
        assert np.allclose(parsed, values, rtol=1e-6)


class TestHeader:
    def make(self):
        return Header(
            station="ST01",
            component="l",
            event_id="EV-X",
            origin_time="2020-01-01",
            magnitude=5.5,
            dt=0.01,
            npts=100,
            units="GAL",
            extra={"DIST-KM": "12.50"},
        )

    def test_roundtrip(self):
        header = self.make()
        lines = header.lines("V1 COMPONENT") + ["DATA"]
        parsed, idx = parse_header(lines, "V1 COMPONENT")
        assert parsed.station == "ST01"
        assert parsed.component == "l"
        assert parsed.magnitude == pytest.approx(5.5)
        assert parsed.dt == pytest.approx(0.01)
        assert parsed.npts == 100
        assert parsed.extra == {"DIST-KM": "12.50"}
        assert idx == len(lines)

    def test_wrong_banner(self):
        lines = self.make().lines("V1 COMPONENT") + ["DATA"]
        with pytest.raises(HeaderError):
            parse_header(lines, "V2 CORRECTED")

    def test_missing_data_terminator(self):
        lines = self.make().lines("V1 COMPONENT")
        with pytest.raises(HeaderError):
            parse_header(lines, "V1 COMPONENT")

    def test_missing_required_field(self):
        lines = ["OANT STRONG-MOTION V1 COMPONENT", "STATION: X", "DATA"]
        with pytest.raises(HeaderError):
            parse_header(lines, "V1 COMPONENT")

    def test_bad_numeric_field(self):
        lines = [
            "OANT STRONG-MOTION V1 COMPONENT",
            "STATION: X",
            "DT: not-a-number",
            "NPTS: 5",
            "DATA",
        ]
        with pytest.raises(HeaderError):
            parse_header(lines, "V1 COMPONENT")

    def test_malformed_line(self):
        lines = ["OANT STRONG-MOTION V1 COMPONENT", "NO COLON HERE", "DATA"]
        with pytest.raises(HeaderError):
            parse_header(lines, "V1 COMPONENT")

    def test_empty_file(self):
        with pytest.raises(HeaderError):
            parse_header([], "V1 COMPONENT")

    def test_copy_for(self):
        header = self.make()
        clone = header.copy_for(component="t", npts=42)
        assert clone.component == "t"
        assert clone.npts == 42
        assert clone.station == header.station
        clone.extra["NEW"] = "1"
        assert "NEW" not in header.extra  # deep-enough copy


class TestReadLines:
    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingArtifactError) as err:
            read_lines(tmp_path / "nope.v1", process="P3")
        assert "P3" in str(err.value)

    def test_reads_lines(self, tmp_path):
        p = tmp_path / "x.txt"
        p.write_text("a\nb\n")
        assert read_lines(p) == ["a", "b"]
