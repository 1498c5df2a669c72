"""On-disk session logs: a small CSV dialect for 30-second recordings.

Layout: `# key: value` comment lines first (sample_rate is required,
rotation_angle, full_scale and device are optional, and none may
repeat), then the column header `stage,t,m_x,m_y,m_z`, then one row per
sample. The stage column is `static` or `rotate:<axis>`. Floats are
written with repr so a log round-trips bit-for-bit. Within a stage,
timestamps step by one sample period; a step over 1.5 periods is
dropped samples and is rejected. The device is one line without
surrounding whitespace, so it reads back as written.
"""

from __future__ import annotations

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
            spacing = np.diff(seg.times)
            if seg.times[0] <= last or (spacing.size and spacing.min() <= 0.0):
                raise LogParseError("timestamps must increase strictly across the whole log")
            # Gaps between stages are allowed; a gap inside one is dropped samples.
            if spacing.size and spacing.max() * self.sample_rate > 1.5:
                periods = spacing * self.sample_rate
                i = int(np.argmax(periods > 1.5))
                raise ProtocolViolation(
                    f"{seg.stage!r} stage: {np.rint(periods[i]) - 1:.0f} sample(s) missing "
                    f"after t = {float(seg.times[i])!r} s at {float(self.sample_rate)!r} Hz; "
                    "a dropped sample shortens the integrated angle"
                )
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
    """Parse a session log in one streaming pass over the file.

    The data rows go into one flat list of floats, and each change of
    stage tag starts a new run; the runs are sliced out of one array at
    the end."""
    header: dict[str, object] = {}
    values: list[float] = []
    runs: list[tuple[str, int]] = []  # (stage, first row) of each run of rows
    stage_now = None
    saw_columns = False
    with open(path, "r", newline="") as handle:
        lines = enumerate(handle, start=1)
        for line_number, raw_line in lines:
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
            saw_columns = True
            break
        # The data rows. float() ignores the whitespace and line ending
        # around a field, so a row is only split; the rarer cases (blank
        # lines, late comments, bad rows) are sorted out on the error path.
        for line_number, line in lines:
            parts = line.split(",")
            if len(parts) != 5:
                if not line.strip():
                    continue
                _reject_row(line, line_number,
                            f"expected 5 comma-separated fields, got {len(parts)}")
            stage = parts[0].strip()
            if stage != stage_now:
                if stage not in _STAGES:
                    _reject_row(line, line_number, f"unknown stage tag {stage!r}")
                stage_now = stage
                runs.append((stage, len(values) // 4))
            try:
                values.extend(map(float, parts[1:]))
            except ValueError:
                raise LogParseError(
                    f"line {line_number}: malformed numeric field in {line.strip()!r}"
                ) from None
    if "sample_rate" not in header:
        raise LogParseError("missing required header '# sample_rate: <Hz>'")
    if not saw_columns:
        raise LogParseError(f"missing column header line {_COLUMNS!r}")
    if not values:
        raise LogParseError("log contains no sample rows")

    data = np.array(values).reshape(-1, 4)
    ends = [first for _, first in runs[1:]] + [len(data)]
    segments = tuple(
        LogSegment(stage, data[first:end, 0], data[first:end, 1:])
        for (stage, first), end in zip(runs, ends)
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


def _reject_row(line: str, line_number: int, problem: str) -> NoReturn:
    """Raise for a data row that is not a sample; a comment names itself."""
    if line.lstrip().startswith("#"):
        problem = "header comments must precede the data"
    raise LogParseError(f"line {line_number}: {problem}")


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
