"""Property-based round-trip tests for the file formats."""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.dsp.peak import PeakValues
from repro.formats import common
from repro.formats.common import COMPONENTS, Header, format_fixed_block, parse_fixed_block
from repro.formats.gem import GemSeries, read_gem, write_gem
from repro.formats.v1 import RawRecord, read_v1, write_v1
from repro.formats.v2 import CorrectedRecord, read_v2, write_v2
from tests.formats.test_common import (
    parse_outcome,
    reference_format_fixed_block,
    reference_parse_fixed_block,
)

# E15.7 fields carry ~7 significant digits; values are drawn within the
# format's representable range.
format_floats = st.floats(
    min_value=-1e30, max_value=1e30, allow_nan=False, allow_infinity=False
)

station_names = st.text(
    alphabet=st.sampled_from("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"), min_size=1, max_size=8
)


def value_arrays(min_size=1, max_size=64):
    return arrays(np.float64, st.integers(min_size, max_size), elements=format_floats)


def assert_close_e15(a, b):
    # E15.7 guarantees 7 significant digits.
    np.testing.assert_allclose(a, b, rtol=2e-7, atol=1e-30)


class TestFixedBlockProperties:
    @given(value_arrays(min_size=0, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, values):
        text = format_fixed_block(values)
        parsed = parse_fixed_block(text.splitlines(), len(values))
        assert_close_e15(parsed, values)


# Every float64, and the values at the edges of the E15.7 field.
any_float64 = st.one_of(
    st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, -1.0e-200, 9.99999995e99, -1e300]),
)

CUT = common._VECTOR_MIN_VALUES
#: Both sides of the formatter's numpy cut and every length modulo 5.
CUT_LENGTHS = [CUT - 1, CUT, CUT + 1, CUT + 2, CUT + 3, CUT + 4]

# Characters a damaged or hand-edited block may hold: numerals, float
# grammar, whitespace Python's str.strip() knows and bytes it does not,
# NUL, and non-ASCII digits and letters.
damaged_chars = st.sampled_from(list("0123456789.eE+-_ nainfNAI\t\n\x0b\x0c\x1c\x00xé١"))
damaged_field = st.text(alphabet=damaged_chars, min_size=15, max_size=15)
# A short numeral padded to the field width with a filler character.
padded_field = st.builds(
    lambda v, fill, left: ("%.4g" % v).ljust(15, fill) if left else ("%.4g" % v).rjust(15, fill),
    any_float64,
    st.sampled_from([" ", "\t", "\x0b", "\x1c", "\x00"]),
    st.booleans(),
)
numeric_field = st.one_of(any_float64.map(lambda v: "%15.7E" % v), padded_field)
block_field = st.one_of(numeric_field, st.just(" " * 15), damaged_field)
block_line = st.one_of(
    st.lists(block_field, max_size=5).map("".join),
    st.text(alphabet=damaged_chars, max_size=80),  # ragged width
)


def field_count(lines):
    """Non-blank 15-character fields, as the per-field parser counts them."""
    return sum(
        1
        for line in lines
        for start in range(0, len(line.rstrip("\n")), 15)
        if line.rstrip("\n")[start : start + 15].strip()
    )


@st.composite
def blocks_with_counts(draw):
    """Damaged lines, or numeric fields cut into lines, and a count."""
    if draw(st.booleans()):
        lines = draw(st.lists(block_line, max_size=6))
    else:
        text = "".join(draw(st.lists(numeric_field, max_size=10)))
        step = draw(st.sampled_from([1, 15]))  # ragged or field-aligned lines
        cuts = sorted(step * i for i in draw(st.lists(st.integers(0, len(text) // step), max_size=4)))
        lines = [text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)])]
    n = field_count(lines)
    count = draw(st.sampled_from([n, n, max(n - 1, 0), n + 1, len("".join(lines)) // 15]))
    return lines, count


class TestFixedBlockMatchesReference:
    @given(
        arrays(
            np.float64,
            st.one_of(st.integers(0, 23), st.sampled_from(CUT_LENGTHS)),
            elements=any_float64,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_format_and_parse_identical(self, values):
        text = format_fixed_block(values)
        assert text == reference_format_fixed_block(values)
        lines = text.splitlines()
        new = parse_fixed_block(lines, len(values))
        ref = reference_parse_fixed_block(lines, len(values))
        assert np.array_equal(new.view(np.int64), ref.view(np.int64))

    @given(blocks_with_counts())
    @settings(max_examples=300, deadline=None)
    def test_malformed_blocks_identical(self, block):
        lines, count = block
        assert parse_outcome(parse_fixed_block, lines, count) == parse_outcome(
            reference_parse_fixed_block, lines, count
        )


# Values aimed at the guards of the numpy formatter.


@st.composite
def exact_ties(draw):
    """Values whose decimal expansion is nine significant digits ending in 5.

    ``n / 2**p`` is written in decimal as ``n * 5**p`` shifted; for odd
    ``n`` with ``n * 5**p`` of nine digits the last one is 5, so the
    value lies exactly halfway between two E15.7 fields.  Scaling by
    ``10**j`` keeps it exact while ``n * 5**j < 2**53``.
    """
    p = draw(st.integers(1, 12))
    low, high = -(-(10**8) // 5**p), (10**9 - 1) // 5**p
    n = 2 * draw(st.integers(low // 2, (high - 1) // 2)) + 1
    j = draw(st.integers(0, max(j for j in range(11) if n * 5**j < 2**53)))
    value = n * 10**j / 2**p
    return -value if draw(st.booleans()) else value


def is_exact_tie(value: float) -> bool:
    digits = Decimal(value).normalize().as_tuple().digits
    return len(digits) == 9 and digits[-1] == 5


#: Decimal ties and decade carries at any exponent: the nearest double
#: lies just above or below the halfway point, or rounds up into the
#: next decade.
decimal_near_ties = st.builds(
    lambda digits, exp: float(f"{digits}5e{exp}"),
    st.integers(10**7, 10**8 - 1).map(lambda d: f"{str(d)[0]}.{str(d)[1:]}"),
    st.integers(-320, 300),
)
decade_carries = st.builds(
    lambda stem, exp: float(f"{stem}e{exp}"),
    st.sampled_from(["9.99999995", "9.999999949999", "9.99999996", "99999999.5",
                     "99999999.49999", "0.999999995", "1", "10"]),
    st.integers(-330, 300),
)
#: Mantissas at the edges of the exact powers of ten (|7 - e| <= 22)
#: and at the two- to three-digit exponent step.
exponent_edges = st.builds(
    lambda mantissa, exp: float(f"{mantissa!r}e{exp}"),
    st.floats(1.0, 10.0, exclude_max=True),
    st.sampled_from([-100, -99, -17, -16, -15, -14, 28, 29, 30, 31, 99, 100]),
)
special_values = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
                     2.2250738585072014e-308, -1.7976931348623157e308]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # subnormals
)
guard_values = st.one_of(
    exact_ties(), decimal_near_ties, decade_carries, exponent_edges, special_values
)

#: Blocks formatted in several numpy passes.
CHUNK_LENGTHS = [common._VECTOR_CHUNK - 1, common._VECTOR_CHUNK + 1, 2 * common._VECTOR_CHUNK + 3]


@st.composite
def guarded_blocks(draw, lengths):
    """A seeded background block with guard values dropped into it."""
    n = draw(st.sampled_from(lengths))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = rng.normal(size=n) * 10.0 ** draw(st.integers(-20, 32))
    aimed = draw(st.lists(guard_values, min_size=1, max_size=40))
    at = draw(st.lists(st.integers(0, n - 1), min_size=len(aimed), max_size=len(aimed)))
    block[at] = aimed
    return block


class TestVectorFormatterMatchesReference:
    @given(st.lists(exact_ties(), min_size=1, max_size=20), st.sampled_from(CUT_LENGTHS))
    @settings(max_examples=100, deadline=None)
    def test_exact_ties(self, ties, n):
        assert all(map(is_exact_tie, ties))
        values = np.resize(ties, n)
        assert format_fixed_block(values) == reference_format_fixed_block(values)

    @given(guarded_blocks(CUT_LENGTHS))
    @settings(max_examples=200, deadline=None)
    def test_guard_values_around_the_cut(self, values):
        assert format_fixed_block(values) == reference_format_fixed_block(values)

    @given(guarded_blocks(CHUNK_LENGTHS))
    @settings(max_examples=10, deadline=None)
    def test_guard_values_across_chunks(self, values):
        assert format_fixed_block(values) == reference_format_fixed_block(values)


# Fields aimed at the digit parser: canonical ones at and past its
# exponent guards (guard_values' exponent_edges hold -17..-14, 28..31,
# +-99 and +-100), signed zeros, three-digit exponents, and fields the
# cast reads but the digit path must hand to it.
parser_fields = st.one_of(
    guard_values.map(lambda v: "%15.7E" % v),
    st.sampled_from([" -0.0000000E+00", "  0.0000000E+00", "-1.0000000E-200"]),
    any_float64.map(lambda v: "%15.7e" % v),  # lowercase exponent
    any_float64.map(lambda v: "%+15.7E" % v),  # explicit plus sign
    any_float64.map(lambda v: "%-15.7E" % v),  # left-aligned
    any_float64.map(lambda v: "%15.6E" % v),  # a digit short
    padded_field,
    st.just(" " * 15),
    damaged_field,
)

PARSE_CUT = common._DIGITS_MIN_VALUES
#: Both sides of the parser's cut, and blocks parsed in several chunks.
PARSE_CUT_LENGTHS = [PARSE_CUT - 1, PARSE_CUT, PARSE_CUT + 1, PARSE_CUT + 4, 2 * PARSE_CUT + 2]
PARSE_CHUNK_LENGTHS = [common._PARSE_CHUNK - 1, common._PARSE_CHUNK + 1, 2 * common._PARSE_CHUNK + 3]


@st.composite
def parser_blocks(draw, lengths):
    """A seeded background block's lines with parser fields dropped in."""
    n = draw(st.sampled_from(lengths))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    text = format_fixed_block(rng.normal(size=n) * 10.0 ** draw(st.integers(-20, 32))).replace("\n", "")
    fields = [text[15 * i : 15 * (i + 1)] for i in range(n)]
    aimed = draw(st.lists(parser_fields, min_size=1, max_size=40))
    at = draw(st.lists(st.integers(0, n - 1), min_size=len(aimed), max_size=len(aimed)))
    for i, field in zip(at, aimed):
        fields[i] = field
    return ["".join(fields[i : i + 5]) for i in range(0, n, 5)]


def cast_outcome(fields, raw):
    """``("ok", uint64 bit patterns)`` or ``("error", None)`` of one field parser."""
    try:
        return "ok", fields(raw).view(np.uint64).tolist()
    except ValueError:
        return "error", None


class TestDigitParserMatchesCast:
    @given(parser_blocks(PARSE_CUT_LENGTHS))
    @settings(max_examples=150, deadline=None)
    def test_fields_match_the_cast_bit_for_bit(self, lines):
        text = "".join(lines)
        if not text.isascii() or "\x00" in text:
            return  # such blocks never reach numpy; the next test covers them
        raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, 15)
        assert cast_outcome(common._parse_fields, raw) == cast_outcome(common._cast_fields, raw)

    @given(parser_blocks(PARSE_CUT_LENGTHS))
    @settings(max_examples=100, deadline=None)
    def test_blocks_around_the_cut_match_reference(self, lines):
        count = len("".join(lines)) // 15
        assert parse_outcome(parse_fixed_block, lines, count) == parse_outcome(
            reference_parse_fixed_block, lines, count
        )

    @given(parser_blocks(PARSE_CHUNK_LENGTHS))
    @settings(max_examples=10, deadline=None)
    def test_blocks_across_chunks_match_reference(self, lines):
        count = len("".join(lines)) // 15
        assert parse_outcome(parse_fixed_block, lines, count) == parse_outcome(
            reference_parse_fixed_block, lines, count
        )


class TestV1Properties:
    @given(station_names, value_arrays(min_size=1, max_size=40), st.floats(1e-3, 0.1))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip(self, tmp_path_factory, station, base, dt):
        components = {c: base * (i + 1) for i, c in enumerate(COMPONENTS)}
        header = Header(station=station, dt=dt, npts=len(base))
        record = RawRecord(header=header, components=components)
        path = tmp_path_factory.mktemp("v1prop") / f"{station}.v1"
        write_v1(path, record)
        back = read_v1(path)
        assert back.header.station == station
        assert back.header.dt == pytest.approx(dt, rel=1e-5)
        for comp in COMPONENTS:
            assert_close_e15(back.components[comp], components[comp])


class TestV2Properties:
    @given(value_arrays(min_size=1, max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip(self, tmp_path_factory, series):
        record = CorrectedRecord(
            header=Header(station="PR", component="l", dt=0.01, npts=len(series)),
            acceleration=series,
            velocity=series * 0.5,
            displacement=series * 0.25,
            peaks=PeakValues(
                float(series[0]), 0.0, float(series[-1]), 0.1, 0.0, 0.2
            ),
            f_stop_low=0.05,
            f_pass_low=0.1,
            f_pass_high=25.0,
            f_stop_high=30.0,
        )
        path = tmp_path_factory.mktemp("v2prop") / "PRl.v2"
        write_v2(path, record)
        back = read_v2(path)
        assert_close_e15(back.acceleration, record.acceleration)
        assert_close_e15(back.velocity, record.velocity)
        assert_close_e15(back.displacement, record.displacement)


class TestGemProperties:
    @given(
        station_names,
        st.sampled_from(["2", "R"]),
        st.sampled_from(["A", "V", "D"]),
        value_arrays(min_size=0, max_size=60),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, tmp_path_factory, station, source, quantity, values):
        series = GemSeries(
            station=station,
            component="t",
            source=source,
            quantity=quantity,
            abscissa=np.arange(len(values), dtype=float),
            values=values,
        )
        path = tmp_path_factory.mktemp("gemprop") / "x.gem"
        write_gem(path, series)
        back = read_gem(path)
        assert back.station == station
        assert back.source == source
        assert back.quantity == quantity
        assert_close_e15(back.values, values)
