"""On-disk session logs: a small CSV dialect for 30-second recordings.

Layout: `# key: value` comment lines first (sample_rate is required,
rotation_angle, full_scale and device are optional, and none may
repeat), then the column header `stage,t,m_x,m_y,m_z`, then one row per
sample. The stage column is `static` or `rotate:<axis>`. Floats are
written with repr so a log round-trips bit-for-bit. Within a stage,
timestamps step by one sample period; a step over 1.5 periods is
dropped samples, and one more than ``SPACING_TOLERANCE`` of a period off
it is a jittered clock; both are rejected. The device is one line
without surrounding whitespace, so it reads back as written.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NoReturn, Sequence

import numpy as np

from .model import (
    AXES,
    CalibrationError,
    ObservationArrays,
    ProtocolViolation,
    RotationObservation,
    StaticObservation,
)

__all__ = [
    "LogParseError",
    "LogSegment",
    "SessionLog",
    "read_session_log",
    "write_session_log",
]

_COLUMNS = "stage,t,m_x,m_y,m_z"
_HEADER_KEYS = ("sample_rate", "rotation_angle", "full_scale", "device")
_STAGES = ("static", "rotate:x", "rotate:y", "rotate:z")
_OUT_OF_ORDER = "timestamps must increase strictly across the whole log"

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


def _check_header_value(key: str, value: float | None) -> None:
    if value is not None and not 0.0 < value < np.inf:
        raise LogParseError(f"{key} must be positive and finite, got {value}")


@dataclass(frozen=True)
class LogSegment:
    """A contiguous run of samples sharing one stage tag."""

    stage: str
    times: np.ndarray
    samples: np.ndarray

    def __post_init__(self) -> None:
        if self.stage not in _STAGES:
            raise LogParseError(
                f"unknown stage tag {self.stage!r}; expected one of {', '.join(_STAGES)}"
            )
        # Owned copies: freezing them leaves the caller's arrays writable.
        times = np.array(self.times, dtype=float)
        samples = np.array(self.samples, dtype=float)
        if times.ndim != 1 or samples.shape != (times.size, 3) or times.size == 0:
            raise LogParseError("segment needs matching (n,) times and (n, 3) samples, n >= 1")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(samples))):
            raise LogParseError(f"non-finite values in {self.stage!r} segment")
        times.setflags(write=False)
        samples.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "samples", samples)

    @property
    def is_static(self) -> bool:
        return self.stage == "static"

    @property
    def axis(self) -> str | None:
        return None if self.is_static else self.stage.split(":", 1)[1]


@dataclass(frozen=True)
class SessionLog:
    """A parsed recording: header metadata plus the ordered stages."""

    sample_rate: float
    segments: tuple[LogSegment, ...]
    rotation_angle: float = 360.0
    full_scale: float | None = None
    device: str | None = None

    def __post_init__(self) -> None:
        for key in ("sample_rate", "rotation_angle", "full_scale"):
            _check_header_value(key, getattr(self, key))
        angle = float(self.rotation_angle)  # the fit takes its square
        if angle * angle == np.inf:
            raise LogParseError(f"rotation_angle {angle!r} has a square that is not finite")
        # The header line must read back as the same string.
        device = self.device
        if device is not None and (
            not isinstance(device, str)
            or device != device.strip() or "\n" in device or "\r" in device
        ):
            raise LogParseError(
                "device must be one line of text without leading or trailing whitespace, "
                f"got {device!r}"
            )
        statics = [i for i, seg in enumerate(self.segments) if seg.is_static]
        if len(statics) != 1:
            raise ProtocolViolation(
                f"a session needs exactly one static stage, found {len(statics)}"
            )
        if statics[0] != 0:
            raise ProtocolViolation("the static stage must come before the rotations")
        n_rotations = len(self.segments) - 1
        if n_rotations < 3:
            raise ProtocolViolation(
                f"a session needs at least 3 rotation stages, found {n_rotations}"
            )
        last = -np.inf
        for seg in self.segments:
            if seg.times[0] <= last:
                raise LogParseError(_OUT_OF_ORDER)
            if seg.times.size > 1:
                _check_spacing(seg, self.sample_rate)
            last = seg.times[-1]

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
        """Assemble a log from raw sample blocks with continuous timestamps;
        the rotation blocks are the turns about x, y and z, in that order."""
        if len(rotations) != len(AXES):
            raise CalibrationError(
                f"got {len(rotations)} rotation blocks for {len(AXES)} axis tags"
            )
        _check_header_value("sample_rate", sample_rate)  # before it divides the timestamps
        segments = []
        offset = 0
        blocks = [("static", np.asarray(static, dtype=float))]
        blocks += [
            (f"rotate:{axis}", np.asarray(block, dtype=float))
            for axis, block in zip(AXES, rotations)
        ]
        for stage, block in blocks:
            n = block.shape[0]
            times = (offset + np.arange(n)) / sample_rate
            segments.append(LogSegment(stage=stage, times=times, samples=block))
            offset += n
        return cls(
            sample_rate=sample_rate,
            segments=tuple(segments),
            rotation_angle=rotation_angle,
            full_scale=full_scale,
            device=device,
        )

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
        static = StaticObservation.from_samples(self.static_segment.samples, self.sample_rate)
        rotations = tuple(
            RotationObservation.from_samples(
                seg.samples, self.sample_rate, theta_total=self.rotation_angle
            )
            for seg in self.rotation_segments
        )
        return ObservationArrays.from_stages(static, rotations)


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
    try:
        return float(value)
    except ValueError:
        raise LogParseError(
            f"line {line_number}: header {key!r} needs a numeric value, got {value!r}"
        ) from None


def read_session_log(path) -> SessionLog:
    """Parse a session log.

    The header lines are read in Python. The data rows go to numpy's C
    text reader in one pass, each stage tag becoming its index in
    ``_STAGES``, and each run of one tag becomes a segment. When the
    reader refuses a row, a second pass finds it and names its line."""
    header: dict[str, object] = {}
    columns_line = 0
    with open(path, "r", newline="") as handle:
        for line_number, raw_line in enumerate(handle, start=1):
            line = raw_line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if ":" not in body:
                    raise LogParseError(
                        f"line {line_number}: expected '# key: value', got {line!r}"
                    )
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
        rows = (row for row in handle if not row.isspace())
        first = next(rows, None)
        if first is None:
            raise LogParseError("log contains no sample rows")
        try:
            data = np.loadtxt(itertools.chain((first,), rows), delimiter=",", comments=None,
                              ndmin=2, converters={0: _stage_index})
        except ValueError:
            _reject_rows(path, columns_line)
    if data.shape[1] != 5:
        _reject_rows(path, columns_line)

    codes = data[:, 0]
    bounds = [0, *(np.flatnonzero(codes[1:] != codes[:-1]) + 1).tolist(), len(data)]
    segments = tuple(
        LogSegment(_STAGES[int(codes[first])], data[first:end, 1], data[first:end, 2:])
        for first, end in zip(bounds, bounds[1:])
    )
    return SessionLog(
        sample_rate=float(header["sample_rate"]),  # type: ignore[arg-type]
        segments=segments,
        rotation_angle=float(header.get("rotation_angle", 360.0)),  # type: ignore[arg-type]
        full_scale=(
            float(header["full_scale"]) if "full_scale" in header else None  # type: ignore[arg-type]
        ),
        device=header.get("device"),  # type: ignore[arg-type]
    )


def _stage_index(tag: str) -> int:
    return _STAGES.index(tag.strip())


def _is_number(field: str) -> bool:
    """Whether numpy's reader takes the field: a float literal of ASCII
    characters without underscores, with any whitespace around it."""
    field = field.strip()
    if not field.isascii() or "_" in field:
        return False
    try:
        float(field)
    except ValueError:
        return False
    return True


def _reject_rows(path, columns_line: int) -> NoReturn:
    """Raise for the first data row that is not a sample, naming its line;
    a comment names itself."""
    with open(path, "r", newline="") as handle:
        for line_number, line in enumerate(handle, start=1):
            if line_number <= columns_line or line.isspace():
                continue
            parts = line.split(",")
            if len(parts) != 5:
                problem = f"expected 5 comma-separated fields, got {len(parts)}"
            elif parts[0].strip() not in _STAGES:
                problem = f"unknown stage tag {parts[0].strip()!r}"
            elif not all(map(_is_number, parts[1:])):
                problem = f"malformed numeric field in {line.strip()!r}"
            else:
                continue
            if line.lstrip().startswith("#"):
                problem = "header comments must precede the data"
            raise LogParseError(f"line {line_number}: {problem}")
    raise LogParseError("sample rows could not be read")


def write_session_log(path, log: SessionLog) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(f"# sample_rate: {float(log.sample_rate)!r}\n")
        handle.write(f"# rotation_angle: {float(log.rotation_angle)!r}\n")
        if log.full_scale is not None:
            handle.write(f"# full_scale: {float(log.full_scale)!r}\n")
        if log.device is not None:
            handle.write(f"# device: {log.device}\n")
        handle.write(_COLUMNS + "\n")
        for seg in log.segments:
            stage = seg.stage
            # tolist() gives Python floats, whose repr is the shortest
            # string that reads back to the same double.
            handle.writelines(
                f"{stage},{t!r},{x!r},{y!r},{z!r}\n"
                for t, (x, y, z) in zip(seg.times.tolist(), seg.samples.tolist())
            )
