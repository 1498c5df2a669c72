"""On-disk session logs: a small CSV dialect for 30-second recordings.

Layout: `# key: value` comment lines first (sample_rate is required,
rotation_angle, full_scale and device are optional), then the column
header `stage,t,m_x,m_y,m_z`, then one row per sample. The stage column
is `static` or `rotate:<axis>`. Floats are written with repr so a log
round-trips bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
        times = np.asarray(self.times, dtype=float)
        samples = np.asarray(self.samples, dtype=float)
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
            value = getattr(self, key)
            if value is not None and not 0.0 < value < np.inf:
                raise LogParseError(f"{key} must be positive and finite, got {value}")
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
            if seg.times[0] <= last or np.any(np.diff(seg.times) <= 0.0):
                raise LogParseError("timestamps must increase strictly across the whole log")
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
    header: dict[str, object] = {}
    rows: list[tuple[str, float, float, float, float]] = []
    saw_columns = False
    with open(path, "r", newline="") as handle:
        for line_number, raw_line in enumerate(handle, start=1):
            line = raw_line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if saw_columns:
                    raise LogParseError(
                        f"line {line_number}: header comments must precede the data"
                    )
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
                header[key] = _parse_header_value(key, value.strip(), line_number)
                continue
            if not saw_columns:
                if line != _COLUMNS:
                    raise LogParseError(
                        f"line {line_number}: expected column header {_COLUMNS!r}, got {line!r}"
                    )
                saw_columns = True
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise LogParseError(
                    f"line {line_number}: expected 5 comma-separated fields, got {len(parts)}"
                )
            stage = parts[0].strip()
            if stage not in _STAGES:
                raise LogParseError(
                    f"line {line_number}: unknown stage tag {stage!r}"
                )
            try:
                numbers = [float(p) for p in parts[1:]]
            except ValueError:
                raise LogParseError(
                    f"line {line_number}: malformed numeric field in {line!r}"
                ) from None
            rows.append((stage, *numbers))
    if "sample_rate" not in header:
        raise LogParseError("missing required header '# sample_rate: <Hz>'")
    if not saw_columns:
        raise LogParseError(f"missing column header line {_COLUMNS!r}")
    if not rows:
        raise LogParseError("log contains no sample rows")

    segments = []
    start = 0
    for i in range(1, len(rows) + 1):
        if i == len(rows) or rows[i][0] != rows[start][0]:
            chunk = rows[start:i]
            segments.append(
                LogSegment(
                    stage=chunk[0][0],
                    times=np.array([r[1] for r in chunk]),
                    samples=np.array([r[2:] for r in chunk]),
                )
            )
            start = i
    return SessionLog(
        sample_rate=float(header["sample_rate"]),  # type: ignore[arg-type]
        segments=tuple(segments),
        rotation_angle=float(header.get("rotation_angle", 360.0)),  # type: ignore[arg-type]
        full_scale=(
            float(header["full_scale"]) if "full_scale" in header else None  # type: ignore[arg-type]
        ),
        device=header.get("device"),  # type: ignore[arg-type]
    )


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
            for t, row in zip(seg.times, seg.samples):
                values = ",".join(repr(float(v)) for v in (t, row[0], row[1], row[2]))
                handle.write(f"{seg.stage},{values}\n")
