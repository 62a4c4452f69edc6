"""Shared pieces of the OANT ASCII formats.

All record files share a key/value header section terminated by a
``DATA`` line, followed by one or more fixed-width numeric blocks.
Numbers are written as Fortran-style ``E15.7`` fields, five per line,
which round-trips float64 values to 7 significant digits — the
precision the legacy Fortran carried.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import DataBlockError, FormatError, HeaderError, MissingArtifactError, ReproError

#: Component codes in pipeline order: longitudinal, transversal, vertical.
COMPONENTS: tuple[str, str, str] = ("l", "t", "v")

#: Human-readable component names keyed by code.
COMPONENT_NAMES: dict[str, str] = {
    "l": "LONGITUDINAL",
    "t": "TRANSVERSAL",
    "v": "VERTICAL",
}

_FIELD_WIDTH = 15
_PER_LINE = 5
_FMT = "%15.7E"
_LINE_FMT = _FMT * _PER_LINE + "\n"
_LINE_WIDTH = _PER_LINE * _FIELD_WIDTH + 1

#: :func:`repro.observability.metrics.record_points`, bound lazily —
#: the formats package is a leaf the observability package sits above.
_record_points = None


def count_points(npts: int, process: str | None = None) -> None:
    """Credit ``npts`` time-series points to the reading pipeline process.

    No-op unless the run carries a metrics registry; the ``process``
    label defaults to the active audit scope's attribution.
    """
    global _record_points
    if _record_points is None:
        from repro.observability.metrics import record_points

        _record_points = record_points
    _record_points(npts, process)


def format_fixed_block(values: np.ndarray) -> str:
    """Render a 1-D array as fixed-width E15.7 lines, 5 values per line.

    A block shorter than ``_VECTOR_MIN_VALUES`` is one ``%`` over a
    template of ``%15.7E`` fields.  A longer one is built with numpy
    digit arithmetic by :func:`_format_fields`, which hands every value
    it cannot convert exactly back to ``%``.  Both give the bytes of a
    per-value ``%15.7E`` loop.
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size < _VECTOR_MIN_VALUES:
        return _format_template(values)
    return "".join(
        _format_fields(values[start : start + _VECTOR_CHUNK])
        for start in range(0, values.size, _VECTOR_CHUNK)
    )


def _format_template(values: np.ndarray) -> str:
    """The block as one ``%`` over a template of ``%15.7E`` fields."""
    full, rest = divmod(values.size, _PER_LINE)
    template = _LINE_FMT * full
    if rest:
        template += _FMT * rest + "\n"
    return template % tuple(values.tolist())


#: Shortest block built with numpy.  The numpy path costs 60-100 µs a
#: block plus 0.06 µs a value, ``%`` 0.35-0.75 µs a value: measured
#: crossovers lie between 128 and 384 values (docs/file_formats.md).
#: ``benchmarks/bench_formats_synth.py`` times both paths.
_VECTOR_MIN_VALUES = 256
#: Values built per numpy pass, a whole number of lines.  It keeps each
#: float64 temporary at 80 KB: longer blocks in one pass ran about
#: twice as slow per value, as their temporaries were mapped fresh.
_VECTOR_CHUNK = 10_000
#: 10**0 .. 10**22, every power of ten a float64 holds exactly.
_EXACT_POW10 = np.array([float(10**k) for k in range(23)])
#: A tie guard: scaled mantissas this close to a half-integer go to ``%``.
_TIE_MARGIN = 1e-6


# A field is " sD.DDDDDDDE+XX".  It is written as three little-endian
# words at byte offsets 0, 7 and 11, each looked up in a table below;
# the first word's last byte is a placeholder the second overwrites.
_DIGITS4 = (
    np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
).astype(np.uint8)
_HEAD_BYTES = np.full((10_000, 8), ord(" "), dtype=np.uint8)
_HEAD_BYTES[:, 2] = _DIGITS4[:, 0]
_HEAD_BYTES[:, 3] = ord(".")
_HEAD_BYTES[:, 4:7] = _DIGITS4[:, 1:]
#: Bytes 0-7, "  D.DDD ", keyed by the mantissa's four high digits.
_HEAD = _HEAD_BYTES.view("<u8").ravel()
#: Added to a head word to turn byte 1 from " " into "-".
_MINUS = np.uint64((ord("-") - ord(" ")) << 8)
#: Bytes 7-10, "DDDD", keyed by the mantissa's four low digits.
_TAIL = _DIGITS4.view("<u4").ravel()
#: Bytes 11-14, "E+XX", keyed by exponent + 99.
_EXPONENT = np.frombuffer(
    "".join("E%+03d" % e for e in range(-99, 100)).encode("ascii"), dtype="<u4"
)


def _format_fields(values: np.ndarray) -> str:
    """Build the E15.7 block of ``values`` from digits; see docs/file_formats.md.

    The eight digits of a field are the mantissa ``|v| * 10**(7 - e)``
    rounded to an integer in [1e7, 1e8).  The scaling multiplies or
    divides by an exact power of ten, one correctly rounded operation,
    so the computed mantissa is within half an ulp (< 1e-8) of the true
    one and rounds the same way unless it lies near a half-integer.
    Those values, and all the others the digit path does not cover
    (non-finite, exponent outside the exact range, mantissa outside
    [1e7, 1e8) after one correction), are formatted by ``%`` and
    spliced in.
    """
    n = values.size
    full, rest = divmod(n, _PER_LINE)
    nlines = full + (rest > 0)
    padded = np.zeros(nlines * _PER_LINE)
    padded[:n] = values
    mag = np.abs(padded)
    regular = (mag > 0.0) & (mag < np.inf)
    zero = mag == 0.0
    mag = np.where(regular, mag, 1.0)
    exp = np.floor(np.log10(mag)).astype(np.int64)
    first = _scale(mag, exp)
    exp += (first >= 1e8).astype(np.int64) - (first < 1e7)
    mantissa = _scale(mag, exp)
    rounded = np.rint(mantissa)
    slow = ~(regular | zero)
    slow |= np.abs(7 - exp) >= _EXACT_POW10.size
    slow |= (mantissa < 1e7) | (mantissa >= 1e8)
    slow |= np.abs(mantissa - rounded) > 0.5 - _TIE_MARGIN
    # A mantissa that rounds up to 1e8 carries into the exponent.
    carry = rounded == 1e8
    rounded[carry] = 1e7
    exp += carry
    # Zeros print as 0.0000000E+00.  Fields that go to ``%`` get the same
    # placeholder, which keeps the integer cast and the lookups in range.
    skip = slow | zero
    rounded[skip] = 0.0
    exp[skip] = 0
    high, low = np.divmod(rounded.astype(np.int64), 10_000)

    buf = np.empty(nlines * _LINE_WIDTH, dtype=np.uint8)
    buf[_LINE_WIDTH - 1 :: _LINE_WIDTH] = ord("\n")
    shape = (nlines, _PER_LINE)
    _field_words(buf, "<u8", 0)[...] = (
        _HEAD.take(high) + np.signbit(padded) * _MINUS
    ).reshape(shape)
    _field_words(buf, "<u4", 7)[...] = _TAIL.take(low).reshape(shape)
    _field_words(buf, "<u4", 11)[...] = _EXPONENT.take(exp + 99).reshape(shape)

    slow_at = np.flatnonzero(slow[:n])
    if slow_at.size:
        text = _FMT * slow_at.size % tuple(values[slow_at].tolist())
        fields = buf.reshape(nlines, _LINE_WIDTH)[:, :-1].reshape(nlines, _PER_LINE, _FIELD_WIDTH)
        fields[slow_at // _PER_LINE, slow_at % _PER_LINE] = np.frombuffer(
            text.encode("ascii"), dtype=np.uint8
        ).reshape(-1, _FIELD_WIDTH)
    if rest:
        # Cut the padding fields off the last line and end it there.
        buf = buf[: buf.size - (_PER_LINE - rest) * _FIELD_WIDTH]
        buf[-1] = ord("\n")
    return buf.tobytes().decode("ascii")


def _scale(mag: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """``mag * 10**(7 - exp)`` in one correctly rounded operation.

    Shifts outside the exact range are clipped here; the caller routes
    those values to ``%``.
    """
    up = _EXACT_POW10.take(7 - exp, mode="clip")
    down = _EXACT_POW10.take(exp - 7, mode="clip")
    return mag * up / down


def _field_words(buf: np.ndarray, dtype: str, offset: int) -> np.ndarray:
    """A (lines, 5) view of the ``dtype`` word at ``offset`` in every field."""
    return np.ndarray(
        (buf.size // _LINE_WIDTH, _PER_LINE),
        dtype=dtype,
        buffer=buf,
        offset=offset,
        strides=(_LINE_WIDTH, _FIELD_WIDTH),
    )


def parse_fixed_block(lines: list[str], count: int, *, path: str = "<memory>") -> np.ndarray:
    """Parse ``count`` fixed-width values from consumed text lines.

    ``lines`` must contain exactly the lines of one block (as produced
    by :func:`format_fixed_block`).  A block whose lines are whole
    15-character fields, ``count`` of them, in ASCII without NUL bytes
    is parsed by numpy: a block shorter than ``_DIGITS_MIN_VALUES`` in
    one ``S15`` to float cast (numpy's cast follows ``float()``; NUL is
    excluded because numpy drops trailing NULs), a longer one from its
    digits by :func:`_parse_fields`, which gives the cast's bits.
    Anything else, and any field the cast rejects, goes through the
    per-field loop, which skips blank fields and names the bad one.
    """
    text = "".join(lines)
    if (
        len(text) == count * _FIELD_WIDTH
        and not any(n % _FIELD_WIDTH for n in set(map(len, lines)))
        and "\x00" not in text
    ):
        try:
            raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(count, _FIELD_WIDTH)
            if count < _DIGITS_MIN_VALUES:
                return _cast_fields(raw)
            values = np.empty(count)
            for start in range(0, count, _PARSE_CHUNK):
                values[start : start + _PARSE_CHUNK] = _parse_fields(raw[start : start + _PARSE_CHUNK])
            return values
        except (UnicodeEncodeError, ValueError):
            pass
    values: list[float] = []
    for line in lines:
        line = line.rstrip("\n")
        for start in range(0, len(line), _FIELD_WIDTH):
            fieldtxt = line[start : start + _FIELD_WIDTH].strip()
            if not fieldtxt:
                continue
            try:
                values.append(float(fieldtxt))
            except ValueError as exc:
                raise DataBlockError(f"{path}: bad numeric field {fieldtxt!r}") from exc
    if len(values) != count:
        raise DataBlockError(f"{path}: expected {count} values, found {len(values)}")
    return np.asarray(values, dtype=float)


#: Shortest block parsed from its digits.  The digit path costs 30-50 µs
#: a block plus about 0.02 µs a value, the cast 0.11-0.18 µs a
#: value: measured crossovers lie between 256 and 448 values
#: (docs/file_formats.md).  ``benchmarks/bench_formats_synth.py`` times
#: both paths.
_DIGITS_MIN_VALUES = 384
#: Fields parsed per numpy pass; it keeps the temporaries near 128 KB.
_PARSE_CHUNK = 8_192
#: A canonical field is " sD.DDDDDDDE±XX".  Less the low byte of its
#: column, each of its digits lies in [0, 9] and each fixed byte is 0;
#: the two sign bytes are checked by :data:`_SIGN` and
#: :data:`_EXPONENT_SIGN` instead.
_FIELD_LOW = np.frombuffer(b"  0.0000000E\x0000", dtype=np.uint8)
_FIELD_SPAN = np.array([0, 255, 9, 0, 9, 9, 9, 9, 9, 9, 9, 0, 255, 9, 9], dtype=np.uint8)
_LOW_TILE = np.tile(_FIELD_LOW, _PARSE_CHUNK)
_SPAN_TILE = np.tile(_FIELD_SPAN, _PARSE_CHUNK)
#: The value's sign keyed by byte 1 (NaN marks a byte that is not one).
_SIGN = np.full(256, np.nan)
_SIGN[[ord(" "), ord("-")]] = 1.0, -1.0
#: The exponent's sign keyed by byte 12 (0 marks a byte that is not one).
_EXPONENT_SIGN = np.zeros(256, dtype=np.int64)
_EXPONENT_SIGN[[ord("+"), ord("-")]] = 1, -1


def _cast_fields(raw: np.ndarray) -> np.ndarray:
    """The ``(n, 15)`` byte fields through numpy's ``S15`` to float cast."""
    return raw.view(f"S{_FIELD_WIDTH}").ravel().astype(float)


def _parse_fields(raw: np.ndarray) -> np.ndarray:
    """Values of the ``(n, 15)`` byte fields, from digits; see docs/file_formats.md.

    A canonical field's value is its 8-digit mantissa ``m`` (below
    2**53) times ``10**(e - 7)``.  With ``|e - 7| <= 22`` the power is
    exact, so one multiply or divide rounds the exact product once,
    correctly (Clinger's fast path), which is what the correctly
    rounded cast gives.  The sign is a last multiply by +-1.0, so
    "-0.0000000E+00" is -0.0.  Every other field (three-digit
    exponents, NAN, blanks, other spellings or spacing, exponents out
    of range) goes through the cast, and a field the cast rejects
    raises ``ValueError``.
    """
    size = raw.size
    d = (raw.reshape(size) - _LOW_TILE[:size]).reshape(raw.shape)
    over = d.reshape(size) > _SPAN_TILE[:size]
    irregular = over.reshape(raw.shape).any(axis=1) if over.any() else np.zeros(len(raw), dtype=bool)
    sign = _SIGN.take(raw[:, 1])
    irregular |= np.isnan(sign)
    exponent_sign = _EXPONENT_SIGN.take(raw[:, 12])
    irregular |= exponent_sign == 0
    shift = exponent_sign * (d[:, 13] * np.int64(10) + d[:, 14]) - 7
    irregular |= np.abs(shift) >= _EXACT_POW10.size
    values = _mantissa(d).astype(float)
    values *= _EXACT_POW10.take(shift, mode="clip")
    values /= _EXACT_POW10.take(-shift, mode="clip")
    values *= sign
    if irregular.any():
        values[irregular] = _cast_fields(raw[irregular])
    return values


def _mantissa(d: np.ndarray) -> np.ndarray:
    """The integer of each field's eight digits, eight bytes at a time.

    The little-endian word at byte 3 holds the "." (0 once its low
    byte is taken off) and digits 4-10; the leading digit is put in
    the "."'s place, so the word's bytes are the eight digits, most
    significant first.  Three multiply-shift steps then fold
    neighbouring digits into pairs, pairs into fours and fours into
    the value.
    """
    word = np.ndarray((len(d),), dtype="<u8", buffer=d, offset=3, strides=(_FIELD_WIDTH,))
    word = word | d[:, 2]
    word *= np.uint64(10 * 2**8 + 1)
    word >>= np.uint64(8)
    word &= np.uint64(0x00FF00FF00FF00FF)
    word *= np.uint64(100 * 2**16 + 1)
    word >>= np.uint64(16)
    word &= np.uint64(0x0000FFFF0000FFFF)
    word *= np.uint64(10_000 * 2**32 + 1)
    word >>= np.uint64(32)
    return word


def block_line_count(count: int) -> int:
    """Number of text lines a ``count``-value fixed block occupies."""
    return (count + _PER_LINE - 1) // _PER_LINE


@dataclass
class Header:
    """Common header of every OANT record file.

    Only ``station`` and ``dt`` are strictly required by the pipeline;
    the event fields carry provenance and are preserved verbatim by
    every processing step so downstream GEM consumers can trace records
    back to their event.
    """

    station: str
    component: str = ""
    event_id: str = ""
    origin_time: str = ""
    magnitude: float = 0.0
    dt: float = 0.0
    npts: int = 0
    units: str = "GAL"
    extra: dict[str, str] = field(default_factory=dict)

    def lines(self, kind: str) -> list[str]:
        """Render the header as key/value lines under a ``kind`` banner."""
        out = [f"OANT STRONG-MOTION {kind}"]
        out.append(f"STATION: {self.station}")
        if self.component:
            name = COMPONENT_NAMES.get(self.component, self.component.upper())
            out.append(f"COMPONENT: {self.component} {name}")
        out.append(f"EVENT: {self.event_id}")
        out.append(f"ORIGIN: {self.origin_time}")
        out.append(f"MAGNITUDE: {self.magnitude:.2f}")
        out.append(f"DT: {self.dt:.9f}")
        out.append(f"NPTS: {self.npts}")
        out.append(f"UNITS: {self.units}")
        for key, value in sorted(self.extra.items()):
            out.append(f"X-{key}: {value}")
        return out

    def copy_for(self, *, component: str | None = None, npts: int | None = None) -> "Header":
        """Clone the header, optionally retargeting component/npts."""
        return Header(
            station=self.station,
            component=self.component if component is None else component,
            event_id=self.event_id,
            origin_time=self.origin_time,
            magnitude=self.magnitude,
            dt=self.dt,
            npts=self.npts if npts is None else npts,
            units=self.units,
            extra=dict(self.extra),
        )


def parse_header(lines: list[str], kind: str, *, path: str = "<memory>") -> tuple[Header, int]:
    """Parse a header; returns (header, index of the line after ``DATA``).

    Raises :class:`HeaderError` when the banner is wrong or a required
    field is missing/unparseable.
    """
    if not lines:
        raise HeaderError(f"{path}: empty file")
    banner = lines[0].strip()
    expected = f"OANT STRONG-MOTION {kind}"
    if banner != expected:
        raise HeaderError(f"{path}: expected banner {expected!r}, got {banner!r}")
    fields: dict[str, str] = {}
    i = 1
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if line == "DATA":
            break
        if not line:
            continue
        if ":" not in line:
            raise HeaderError(f"{path}: malformed header line {line!r}")
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    else:
        raise HeaderError(f"{path}: header not terminated by a DATA line")

    def need(key: str) -> str:
        if key not in fields:
            raise HeaderError(f"{path}: missing header field {key}")
        return fields[key]

    try:
        dt = float(need("DT"))
        npts = int(need("NPTS"))
        magnitude = float(fields.get("MAGNITUDE", "0"))
    except ValueError as exc:
        raise HeaderError(f"{path}: unparseable numeric header field") from exc
    component = fields.get("COMPONENT", "").split()[0] if fields.get("COMPONENT") else ""
    extra = {
        key[2:]: value for key, value in fields.items() if key.startswith("X-")
    }
    header = Header(
        station=need("STATION"),
        component=component,
        event_id=fields.get("EVENT", ""),
        origin_time=fields.get("ORIGIN", ""),
        magnitude=magnitude,
        dt=dt,
        npts=npts,
        units=fields.get("UNITS", "GAL"),
        extra=extra,
    )
    return header, i


def as_path(path: Path | str) -> Path:
    """Coerce to :class:`Path` while preserving Path subclasses.

    Readers and writers must not rebuild incoming paths with
    ``Path(...)``: that would strip the auditing subclass the workspace
    hands out when access recording is enabled.
    """
    return path if isinstance(path, Path) else Path(path)


def read_lines(path: Path | str, *, process: str | None = None) -> list[str]:
    """Read a text file into lines, raising MissingArtifactError if absent."""
    path = as_path(path)
    if not path.exists():
        raise MissingArtifactError(str(path), process)
    return read_text(path).splitlines()


def read_text(path: Path, error: type[ReproError] = FormatError) -> str:
    """The file's text; bytes that do not decode raise ``error``, not ``UnicodeDecodeError``."""
    try:
        return path.read_text()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: undecodable byte at offset {exc.start}") from exc
