"""On-disk session logs: a small CSV dialect for 30-second recordings.

Layout: `# key: value` comment lines first (sample_rate is required,
rotation_angle, full_scale and device are optional, and none may
repeat), then the column header `stage,t,m_x,m_y,m_z`, then one row per
sample, all UTF-8 text; a leading byte-order mark is skipped. The stage
column is `static` or `rotate:<axis>`. Floats are written with repr so a
log round-trips bit-for-bit. The writer formats and writes a stage one
bounded block of rows at a time; the reader normalises line breaks only
when the file holds a ``\\r``. Within a stage, timestamps step by one
sample period; a step over 1.5 periods is dropped samples, and one more
than ``SPACING_TOLERANCE`` of a period off it is a jittered clock; both
are rejected. The device is one line without surrounding whitespace, so
it reads back as written.
"""

from __future__ import annotations

from typing import Iterable, NoReturn, Sequence

import numpy as np

from .model import (
    AXES, CalibrationError, Frozen, ObservationArrays, ProtocolViolation, as_float)

__all__ = [
    "LogParseError",
    "LogSegment",
    "SessionLog",
    "read_session_log",
    "write_session_log",
]

_COLUMNS = "stage,t,m_x,m_y,m_z"
_HEADER_KEYS = ("sample_rate", "rotation_angle", "full_scale", "device")
#: The stage tags, in the order of a session: the still stage, then one
#: turn about each axis.
_STAGES = ("static", *(f"rotate:{axis}" for axis in AXES))
#: One data row: the stage tag as read, the time and the three rates.
_ROW = np.dtype([("stage", object), ("t", float), ("m", float, (3,))])
_OUT_OF_ORDER = "timestamps must increase strictly across the whole log"
#: The most rows the writer formats and writes at once; it bounds the
#: writer's memory whatever the length of a stage.
_WRITE_BLOCK = 4096

#: How far, as a fraction of the sample period, a timestamp step within a
#: stage may stray from ``1 / sample_rate``. A clock off by this much over
#: a whole turn moves the integrated angle, and so the fitted scale, by
#: the same fraction, which is acceptance criterion 2's bound on the
#: median parameter error. Timestamps rounded to the microsecond pass
#: below 1 kHz, and the rounding of ``t = start + i / sample_rate`` (about
#: 1e-6 of a period at 1e6 s and 10 kHz) is far inside it.
SPACING_TOLERANCE = 1e-3


class LogParseError(CalibrationError):
    """The log file does not follow the session-log format."""


def _header_number(key: str, value) -> float | None:
    if value is None:
        return None
    value = as_float(key, value, LogParseError)
    if not 0.0 < value < np.inf:
        raise LogParseError(f"{key} must be positive and finite, got {value}")
    return value


# LogSegment and SessionLog compare by identity: ``==`` on their arrays
# would raise.
class LogSegment(Frozen):
    """A contiguous run of samples sharing one stage tag: ``times`` ``(n,)``
    in seconds and ``samples`` ``(n, 3)`` in deg/s, read-only copies."""

    __slots__ = ("stage", "times", "samples")

    def __init__(self, stage: str, times: np.ndarray, samples: np.ndarray) -> None:
        if stage not in _STAGES:
            raise LogParseError(
                f"unknown stage tag {stage!r}; expected one of {', '.join(_STAGES)}"
            )
        # Owned copies: freezing them leaves the caller's arrays writable.
        times = np.array(times, dtype=float)
        samples = np.array(samples, dtype=float)
        if times.ndim != 1 or samples.shape != (times.size, 3) or times.size == 0:
            raise LogParseError("segment needs matching (n,) times and (n, 3) samples, n >= 1")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(samples))):
            raise LogParseError(f"non-finite values in {stage!r} segment")
        times.setflags(write=False)
        samples.setflags(write=False)
        set_slot = object.__setattr__
        set_slot(self, "stage", stage)
        set_slot(self, "times", times)
        set_slot(self, "samples", samples)

    @property
    def is_static(self) -> bool:
        return self.stage == "static"

    @property
    def axis(self) -> str | None:
        return None if self.is_static else self.stage.split(":", 1)[1]


class SessionLog(Frozen):
    """A parsed recording: header metadata plus the ordered stages."""

    __slots__ = ("sample_rate", "segments", "rotation_angle", "full_scale", "device")

    def __init__(
        self,
        sample_rate: float,
        segments: Iterable[LogSegment],
        rotation_angle: float = 360.0,
        full_scale: float | None = None,
        device: str | None = None,
    ) -> None:
        # An owned tuple: a caller's list mutated later cannot undo the checks.
        segments = tuple(segments)
        sample_rate = _header_number("sample_rate", sample_rate)
        rotation_angle = _header_number("rotation_angle", rotation_angle)
        full_scale = _header_number("full_scale", full_scale)
        if rotation_angle * rotation_angle == np.inf:  # the fit takes its square
            raise LogParseError(
                f"rotation_angle {rotation_angle!r} has a square that is not finite")
        # The header line must read back as the same string.
        if device is not None and (
            not isinstance(device, str)
            or device != device.strip() or "\n" in device or "\r" in device
        ):
            raise LogParseError(
                "device must be one line of text without leading or trailing whitespace, "
                f"got {device!r}"
            )
        if device is not None:
            try:
                device.encode("utf-8")  # a lone surrogate has no encoding
            except UnicodeEncodeError:
                raise LogParseError(f"device must be UTF-8 text, got {device!r}") from None
        statics = [i for i, seg in enumerate(segments) if seg.is_static]
        if len(statics) != 1:
            raise ProtocolViolation(
                f"a session needs exactly one static stage, found {len(statics)}"
            )
        if statics[0] != 0:
            raise ProtocolViolation("the static stage must come before the rotations")
        n_rotations = len(segments) - 1
        if n_rotations < 3:
            raise ProtocolViolation(
                f"a session needs at least 3 rotation stages, found {n_rotations}"
            )
        last = -np.inf
        for seg in segments:
            if seg.times[0] <= last:
                raise LogParseError(_OUT_OF_ORDER)
            if seg.times.size > 1:
                _check_spacing(seg, sample_rate)
            last = seg.times[-1]
        set_slot = object.__setattr__
        set_slot(self, "sample_rate", sample_rate)
        set_slot(self, "segments", segments)
        set_slot(self, "rotation_angle", rotation_angle)
        set_slot(self, "full_scale", full_scale)
        set_slot(self, "device", device)

    @classmethod
    def from_arrays(
        cls,
        static: np.ndarray,
        rotations: Sequence[np.ndarray],
        sample_rate: float,
        *,
        rotation_angle: float = 360.0,
        full_scale: float | None = None,
        device: str | None = None,
    ) -> "SessionLog":
        """Assemble a log from raw sample blocks, tagged in the order of
        ``_STAGES`` (the rotation blocks are the turns about x, y and z), on
        one clock: sample i of the session is at ``i / sample_rate``."""
        if len(rotations) != len(AXES):
            raise CalibrationError(
                f"got {len(rotations)} rotation blocks for {len(AXES)} axis tags"
            )
        sample_rate = _header_number("sample_rate", sample_rate)  # it divides the timestamps
        blocks = [np.asarray(block, dtype=float) for block in (static, *rotations)]
        ends = np.cumsum([block.shape[0] for block in blocks]).tolist()
        segments = [
            LogSegment(stage, np.arange(end - block.shape[0], end) / sample_rate, block)
            for stage, block, end in zip(_STAGES, blocks, ends)
        ]
        return cls(sample_rate, segments, rotation_angle, full_scale, device)

    @property
    def static_segment(self) -> LogSegment:
        return self.segments[0]

    @property
    def rotation_segments(self) -> tuple[LogSegment, ...]:
        return self.segments[1:]

    @property
    def rotation_axes(self) -> tuple[str, ...]:
        return tuple(seg.axis for seg in self.rotation_segments)  # type: ignore[misc]

    def saturated_sample_count(self) -> int:
        """Samples at or beyond full scale on any axis; 0 when unknown."""
        if self.full_scale is None:
            return 0
        count = 0
        for seg in self.segments:
            count += int(np.sum(np.any(np.abs(seg.samples) >= self.full_scale, axis=1)))
        return count

    def session(self) -> ObservationArrays:
        """Build the in-memory observation view the estimator consumes."""
        return ObservationArrays.from_samples(
            self.static_segment.samples, [seg.samples for seg in self.rotation_segments],
            self.sample_rate, self.rotation_angle)


def _check_spacing(seg: LogSegment, sample_rate: float) -> None:
    """Within a stage each timestamp steps by one sample period. A step
    over 1.5 periods is dropped samples (gaps between stages are allowed);
    any other step may stray from the period by ``SPACING_TOLERANCE`` of it."""
    spacing = np.diff(seg.times)
    shortest, longest = spacing.min(), spacing.max()
    if shortest <= 0.0:
        raise LogParseError(_OUT_OF_ORDER)
    if longest * sample_rate > 1.5:
        periods = spacing * sample_rate
        i = int(np.argmax(periods > 1.5))
        raise ProtocolViolation(
            f"{seg.stage!r} stage: {np.rint(periods[i]) - 1:.0f} sample(s) missing "
            f"after t = {float(seg.times[i])!r} s at {float(sample_rate)!r} Hz; "
            "a dropped sample shortens the integrated angle"
        )
    if max(longest * sample_rate - 1.0, 1.0 - shortest * sample_rate) > SPACING_TOLERANCE:
        deviations = np.abs(spacing * sample_rate - 1.0)
        i = int(np.argmax(deviations))
        raise LogParseError(
            f"{seg.stage!r} stage: the step after t = {float(seg.times[i])!r} s is "
            f"{float(deviations[i]):.3g} of a period off 1/sample_rate at "
            f"{float(sample_rate)!r} Hz, beyond the {SPACING_TOLERANCE!r} allowed; "
            "the fit assumes evenly spaced samples"
        )


def _parse_header_value(key: str, value: str, line_number: int):
    if key == "device":
        return value
    # The data rows' grammar: ``float`` alone would also take digit
    # separators (``1_00``) and non-ASCII digits, which numpy's reader refuses.
    if value.isascii() and "_" not in value:
        try:
            return float(value)
        except ValueError:
            pass
    raise LogParseError(
        f"line {line_number}: header {key!r} needs a numeric value, got {value!r}"
    )


def _read_lines(path) -> list[str]:
    """The file's lines, read and decoded once, split at the line breaks of
    a text-mode read (\\r\\n, \\r, \\n) and without them. The bytes and
    the text go on return; an ``io.StringIO`` takes 4 bytes a character."""
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        bad = exc.object  # the input after any byte-order mark
        raise LogParseError(
            f"line {len((bad[: exc.start] + b'_').splitlines())}: byte {bad[exc.start]:#04x} "
            f"is not UTF-8 ({exc.reason}); session logs are UTF-8 text") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def read_session_log(path) -> SessionLog:
    """Parse a session log, held in memory as lines. A byte that is not
    UTF-8 is named first. The header lines are parsed in Python, and the
    data rows go to numpy's C text reader in one pass; each run of one
    stage tag becomes a segment."""
    lines = _read_lines(path)
    header: dict[str, object] = {}
    columns_line = 0
    for line_number, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if ":" not in body:
                raise LogParseError(f"line {line_number}: expected '# key: value', got {line!r}")
            key, _, value = body.partition(":")
            key = key.strip()
            if key not in _HEADER_KEYS:
                raise LogParseError(
                    f"line {line_number}: unknown header key {key!r}; "
                    f"expected one of {', '.join(_HEADER_KEYS)}"
                )
            if key in header:
                raise LogParseError(f"line {line_number}: duplicate header key {key!r}")
            header[key] = _parse_header_value(key, value.strip(), line_number)
            continue
        if line != _COLUMNS:
            raise LogParseError(
                f"line {line_number}: expected column header {_COLUMNS!r}, got {line!r}"
            )
        columns_line = line_number
        break
    if "sample_rate" not in header:
        raise LogParseError("missing required header '# sample_rate: <Hz>'")
    if not columns_line:
        raise LogParseError(f"missing column header line {_COLUMNS!r}")
    # numpy's reader skips empty lines but not whitespace-only ones, and
    # warns on an empty body, so both are settled here.
    rows = [row for row in lines[columns_line:] if row and not row.isspace()]
    if not rows:
        raise LogParseError("log contains no sample rows")
    try:
        data = _load_rows(rows)
    except ValueError:
        _reject_rows(lines, rows, columns_line)

    # The padding around a tag may change from row to row: each run of one
    # spelling is named by its stripped tag, and runs of one stage join.
    tags = data["stage"]
    starts = [0, *(np.flatnonzero(tags[1:] != tags[:-1]) + 1).tolist()]
    stages = [tags[i].strip() for i in starts]
    if any(stage not in _STAGES for stage in stages):
        _reject_rows(lines, rows, columns_line)
    bounds = [i for i, stage, before in zip(starts, stages, [None, *stages]) if stage != before]
    bounds.append(len(data))
    times, samples = data["t"], data["m"]
    segments = tuple(
        LogSegment(tags[first].strip(), times[first:end], samples[first:end])
        for first, end in zip(bounds, bounds[1:])
    )
    return SessionLog(
        sample_rate=header["sample_rate"],  # type: ignore[arg-type]
        segments=segments,
        rotation_angle=header.get("rotation_angle", 360.0),  # type: ignore[arg-type]
        full_scale=header.get("full_scale"),  # type: ignore[arg-type]
        device=header.get("device"),  # type: ignore[arg-type]
    )


def _load_rows(rows) -> np.ndarray:
    """The data rows as an ``(n,)`` record array of ``_ROW``; a row that is
    not five fields, or a field that is not a number, is a ValueError."""
    return np.loadtxt(rows, dtype=_ROW, delimiter=",", comments=None, ndmin=1)


def _rows_read(rows: list[str]) -> bool:
    """Whether ``_load_rows`` takes every row and every stage tag is known."""
    try:
        tags = _load_rows(rows)["stage"]
    except ValueError:
        return False
    return all(tag.strip() in _STAGES for tag in set(tags.tolist()))


def _reject_rows(lines: list[str], rows: list[str], start: int) -> NoReturn:
    """Raise for the first of ``rows``, the lines from ``lines[start]`` on
    that are not blank, that ``_load_rows`` or the tag check refuses,
    naming its line; a comment names itself. Each row is read or refused
    on its own, so the row is found by bisection, which reads about as
    many rows again as the log holds."""
    good, bad = 0, len(rows)  # rows[:good] read, and rows[good:bad] holds a refused row
    while bad - good > 1:
        middle = (good + bad) // 2
        if _rows_read(rows[good:middle]):
            good = middle
        else:
            bad = middle
    line = rows[good]
    parts = line.split(",")
    if len(parts) != 5:
        problem = f"expected 5 comma-separated fields, got {len(parts)}"
    elif parts[0].strip() not in _STAGES:
        problem = f"unknown stage tag {parts[0].strip()!r}"
    elif _rows_read([line]):
        raise LogParseError("sample rows could not be read")
    else:
        problem = f"malformed numeric field in {line.strip()!r}"
    if line.lstrip().startswith("#"):
        problem = "header comments must precede the data"
    # A copy of the row earlier in the data would be refused first: this is its first.
    raise LogParseError(f"line {lines.index(line, start) + 1}: {problem}")


def write_session_log(path, log: SessionLog) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(f"# sample_rate: {log.sample_rate!r}\n")
        handle.write(f"# rotation_angle: {log.rotation_angle!r}\n")
        if log.full_scale is not None:
            handle.write(f"# full_scale: {log.full_scale!r}\n")
        if log.device is not None:
            handle.write(f"# device: {log.device}\n")
        handle.write(_COLUMNS + "\n")
        for seg in log.segments:
            row = seg.stage + ",%r,%r,%r,%r\n"
            # A block at a time: tolist() gives Python floats, whose repr is
            # the shortest string that reads back to the same double, and
            # one % formats the block's rows into one string to write.
            for first in range(0, seg.times.size, _WRITE_BLOCK):
                block = np.column_stack((seg.times[first:first + _WRITE_BLOCK],
                                         seg.samples[first:first + _WRITE_BLOCK]))
                handle.write((row * len(block)) % tuple(block.ravel().tolist()))
