import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gyrocal.estimator import calibrate
from gyrocal.model import CalibrationError, ProtocolViolation
from gyrocal.session_io import (
    SPACING_TOLERANCE,
    LogParseError,
    LogSegment,
    SessionLog,
    read_session_log,
    write_session_log,
)
from gyrocal.simulator import SimulationConfig, sample_ground_truth, simulate_session

#: The largest rotation angle whose square is finite.
LARGEST_ANGLE = math.sqrt(sys.float_info.max)


def simulated_log(seed=3, noise=0.15, device="unit under test", full_scale=245.0):
    config = SimulationConfig(noise_sigma=noise, rng_seed=seed)
    rng = np.random.default_rng(seed)
    truth = sample_ground_truth(config, rng)
    sim = simulate_session(truth, config, rng)
    log = SessionLog.from_arrays(
        sim.static_raw, list(sim.rotation_raw), config.sample_rate,
        rotation_angle=config.rotation_angle, full_scale=full_scale, device=device)
    return log, sim, truth


def assert_same_log(a, b):
    """Equal headers, and bit-equal segments (-0.0 is not 0.0)."""
    assert (a.sample_rate, a.rotation_angle, a.full_scale, a.device) == (
        b.sample_rate, b.rotation_angle, b.full_scale, b.device)
    assert [s.stage for s in a.segments] == [s.stage for s in b.segments]
    for x, y in zip(a.segments, b.segments):
        assert x.times.tobytes() == y.times.tobytes()
        assert x.samples.tobytes() == y.samples.tobytes()


def data_lines(path):
    """The log's lines, and the index of its first data row."""
    lines = path.read_text().splitlines(keepends=True)
    return lines, lines.index("stage,t,m_x,m_y,m_z\n") + 1


def tiny_log(**overrides):
    static = np.full((4, 3), 0.25)
    turns = [np.zeros((4, 3)) for _ in range(3)]
    for axis, block in enumerate(turns):
        block[:, axis] = 90.0 * 100.0 / 4.0  # integrates to 90 degrees
    kw = dict(sample_rate=100.0, rotation_angle=90.0)
    kw.update(overrides)
    return SessionLog.from_arrays(static, turns, **kw)


class TestSessionLogStructure:
    def test_single_static_stage_required(self):
        seg = LogSegment("static", np.array([0.0, 0.01]), np.zeros((2, 3)))
        rot = LogSegment("rotate:x", np.array([0.02, 0.03]), np.zeros((2, 3)))
        with pytest.raises(ProtocolViolation):
            SessionLog(sample_rate=100.0, segments=(seg, rot, rot, rot, seg))

    def test_static_stage_must_come_first(self):
        times = iter(np.arange(10) * 0.01)

        def seg(stage):
            return LogSegment(stage, np.array([next(times), next(times)]), np.zeros((2, 3)))

        parts = (seg("rotate:x"), seg("static"), seg("rotate:y"), seg("rotate:z"))
        with pytest.raises(ProtocolViolation):
            SessionLog(sample_rate=100.0, segments=parts)

    def test_three_rotations_required(self):
        seg = LogSegment("static", np.array([0.0, 0.01]), np.zeros((2, 3)))
        rot = LogSegment("rotate:x", np.array([0.02, 0.03]), np.zeros((2, 3)))
        with pytest.raises(ProtocolViolation):
            SessionLog(sample_rate=100.0, segments=(seg, rot, rot))

    def test_timestamps_must_increase_across_segments(self):
        seg = LogSegment("static", np.array([0.0, 0.01]), np.zeros((2, 3)))
        rot1 = LogSegment("rotate:x", np.array([0.02, 0.03]), np.zeros((2, 3)))
        rot2 = LogSegment("rotate:y", np.array([0.03, 0.04]), np.zeros((2, 3)))
        rot3 = LogSegment("rotate:z", np.array([0.05, 0.06]), np.zeros((2, 3)))
        with pytest.raises(LogParseError):
            SessionLog(sample_rate=100.0, segments=(seg, rot1, rot2, rot3))

    def test_unknown_stage_tag(self):
        with pytest.raises(LogParseError):
            LogSegment("rotate:w", np.array([0.0, 0.01]), np.zeros((2, 3)))

    def test_axis_tags_exposed(self):
        log = tiny_log()
        assert log.rotation_axes == ("x", "y", "z")

    def test_from_arrays_takes_one_block_per_axis(self):
        static = np.zeros((4, 3))
        with pytest.raises(CalibrationError, match="got 2 rotation blocks for 3 axis tags"):
            SessionLog.from_arrays(static, [np.zeros((4, 3))] * 2, sample_rate=100.0)

    def test_dropped_sample_inside_a_stage_rejected(self):
        log = tiny_log()
        turn = log.segments[2]
        keep = [0, 1, 3]  # the sample at t = 0.10 s is missing
        segments = list(log.segments)
        segments[2] = LogSegment(turn.stage, turn.times[keep], turn.samples[keep])
        with pytest.raises(ProtocolViolation,
                           match=r"'rotate:y' stage: 1 sample\(s\) missing after t = 0\.09 s"):
            SessionLog(sample_rate=100.0, segments=tuple(segments))

    def test_gap_between_stages_allowed(self):
        log = tiny_log()
        shifted = [LogSegment(seg.stage, seg.times + 5.0 * i, seg.samples)
                   for i, seg in enumerate(log.segments)]
        assert len(SessionLog(sample_rate=100.0, segments=tuple(shifted)).segments) == 4

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_jittered_timestamp_just_inside_tolerance_accepted(self, sign):
        assert len(self.jittered(sign * 0.99 * SPACING_TOLERANCE).segments) == 4

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_jittered_timestamp_just_outside_tolerance_rejected(self, sign):
        with pytest.raises(LogParseError, match=(
                r"'rotate:y' stage: the step after t = 0\.1 s is 0\.00101 of a period "
                r"off 1/sample_rate at 100\.0 Hz, beyond the 0\.001 allowed")):
            self.jittered(sign * 1.01 * SPACING_TOLERANCE)

    @staticmethod
    def jittered(shift):
        """``tiny_log`` with the last sample of its second turn, at t = 0.11 s,
        moved ``shift`` periods: the step after t = 0.1 s strays."""
        log = tiny_log()
        turn = log.segments[2]
        times = turn.times.copy()
        times[-1] += shift / 100.0
        segments = list(log.segments)
        segments[2] = LogSegment(turn.stage, times, turn.samples)
        return SessionLog(sample_rate=100.0, segments=tuple(segments))

    def test_far_start_at_high_rate_within_tolerance(self):
        # The property strategy's worst spacing: a clock that starts at 1e6 s
        # and steps at 10 kHz rounds each step by about 1e-6 of a period.
        times = 1e6 + np.arange(16) / 1e4
        segments = tuple(LogSegment(stage, times[i:i + 4], np.zeros((4, 3)))
                         for stage, i in zip(("static", "rotate:x", "rotate:y", "rotate:z"),
                                             range(0, 16, 4)))
        deviation = np.max(np.abs(np.diff(times) * 1e4 - 1.0))
        assert 1e-7 < deviation < SPACING_TOLERANCE / 100
        assert len(SessionLog(sample_rate=1e4, segments=segments).segments) == 4

    @pytest.mark.parametrize("device",
                             ["a\nb", "a\rb", "  padded  ", " lead", "trail\t", "\n", 7])
    def test_device_that_cannot_read_back_rejected(self, device):
        with pytest.raises(LogParseError, match="device must be one line of text"):
            tiny_log(device=device)

    @pytest.mark.parametrize("angle", [1e200, math.nextafter(LARGEST_ANGLE, math.inf)])
    def test_rotation_angle_with_infinite_square_rejected(self, angle):
        # The fit takes theta**2; a finite angle whose square is not would
        # end in an OverflowError instead of an error that names the key.
        with pytest.raises(LogParseError, match=re.escape(
                f"rotation_angle {angle!r} has a square that is not finite")):
            tiny_log(rotation_angle=angle)
        assert tiny_log(rotation_angle=LARGEST_ANGLE).session().theta_sq[0] == LARGEST_ANGLE ** 2

    def test_caller_arrays_stay_writable(self):
        # Each segment freezes its own copy, not the arrays it was given.
        static = np.full((4, 3), 0.25)
        turns = [np.eye(3)[[0, 1, 2, 0]] for _ in range(3)]
        times = np.arange(4) / 100.0
        log = SessionLog.from_arrays(static, turns, sample_rate=100.0)
        segment = LogSegment("static", times, static)
        assert all(a.flags.writeable for a in (static, times, *turns))
        static[0, 0] = turns[0][0, 0] = times[0] = 9.0
        assert log.static_segment.samples[0, 0] == 0.25 and log.segments[1].samples[0, 0] == 1.0
        assert segment.samples[0, 0] == 0.25 and segment.times[0] == 0.0
        for frozen in (log.static_segment.samples, segment.samples, segment.times):
            assert not frozen.flags.writeable

    @pytest.mark.parametrize("rate", [0.0, -100.0, float("nan"), float("inf")])
    @pytest.mark.filterwarnings("error")
    def test_from_arrays_checks_sample_rate_first(self, rate):
        with pytest.raises(LogParseError, match="sample_rate must be positive and finite"):
            tiny_log(sample_rate=rate)


class TestRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        log, _, _ = simulated_log()
        path = tmp_path / "session.csv"
        write_session_log(path, log)
        back = read_session_log(path)
        assert back.sample_rate == log.sample_rate
        assert back.rotation_angle == log.rotation_angle
        assert back.full_scale == log.full_scale
        assert back.device == log.device
        assert len(back.segments) == len(log.segments)
        for a, b in zip(log.segments, back.segments):
            assert a.stage == b.stage
            np.testing.assert_array_equal(a.times, b.times)
            np.testing.assert_array_equal(a.samples, b.samples)

    def test_calibrate_matches_in_memory_bitwise(self, tmp_path):
        log, sim, _ = simulated_log()
        path = tmp_path / "session.csv"
        write_session_log(path, log)
        from_disk = calibrate(read_session_log(path).session(), noise_sigma=0.15)
        in_memory = calibrate(sim.session, noise_sigma=0.15)
        assert from_disk == in_memory

    def test_header_without_optional_fields(self, tmp_path):
        log = tiny_log(full_scale=None, device=None)
        path = tmp_path / "bare.csv"
        write_session_log(path, log)
        back = read_session_log(path)
        assert back.full_scale is None
        assert back.device is None


# Finite doubles, with the edge cases a text format can lose named outright.
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, -1.7976931348623157e308)
finite_floats = st.one_of(st.sampled_from(EDGE_FLOATS),
                          st.floats(allow_nan=False, allow_infinity=False))
positive_floats = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)
angles = st.floats(min_value=5e-324, max_value=LARGEST_ANGLE)
devices = st.text(st.characters(codec="ascii")).filter(
    lambda d: d == d.strip() and "\n" not in d and "\r" not in d)


@st.composite
def session_logs(draw):
    rate = draw(st.floats(min_value=1.0, max_value=1e4))
    counts = draw(st.lists(st.integers(1, 5), min_size=4, max_size=4))
    start = draw(st.one_of(st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308]),
                           st.floats(min_value=-1e6, max_value=1e6)))
    times = start + np.arange(sum(counts)) / rate
    times[0] = start  # keeps the sign of -0.0
    samples = draw(arrays(np.float64, (sum(counts), 3), elements=finite_floats))
    bounds = np.cumsum([0, *counts])
    segments = tuple(
        LogSegment(stage, times[a:b], samples[a:b])
        for stage, a, b in zip(("static", "rotate:x", "rotate:y", "rotate:z"), bounds, bounds[1:])
    )
    return SessionLog(sample_rate=rate, segments=segments,
                      rotation_angle=draw(angles),
                      full_scale=draw(st.none() | positive_floats),
                      device=draw(st.none() | devices))


class TestTextForms:
    @given(session_logs())
    @settings(max_examples=150, deadline=None)
    def test_write_read_is_bit_exact(self, tmp_path_factory, log):
        path = tmp_path_factory.getbasetemp() / "property.csv"
        write_session_log(path, log)
        assert_same_log(read_session_log(path), log)

    def test_write_bytes(self, tmp_path):
        path = tmp_path / "tiny.csv"
        write_session_log(path, tiny_log(full_scale=245.0, device="unit 7"))
        lines = path.read_text().splitlines()
        assert lines[:6] == [
            "# sample_rate: 100.0",
            "# rotation_angle: 90.0",
            "# full_scale: 245.0",
            "# device: unit 7",
            "stage,t,m_x,m_y,m_z",
            "static,0.0,0.25,0.25,0.25",
        ]
        assert lines[9:11] == ["rotate:x,0.04,2250.0,0.0,0.0", "rotate:x,0.05,2250.0,0.0,0.0"]
        assert len(lines) == 5 + 16

    def test_crlf_and_blank_lines(self, tmp_path):
        log, _, _ = simulated_log()
        path = tmp_path / "session.csv"
        write_session_log(path, log)
        lines = path.read_text().splitlines()
        path.write_bytes("\r\n\r\n  \t\r\n".join(lines).encode() + b"\r\n")
        assert_same_log(read_session_log(path), log)

    def test_stage_tag_with_surrounding_spaces(self, tmp_path):
        log = tiny_log()
        path = tmp_path / "log.csv"
        write_session_log(path, log)
        lines, first = data_lines(path)
        lines[first:] = ["  " + line.replace(",", " ,", 1) for line in lines[first:]]
        path.write_text("".join(lines))
        assert_same_log(read_session_log(path), log)

    def test_stage_tag_padded_by_20_spaces(self, tmp_path):
        # Any amount of padding reads back; a fixed-width tag would cut it.
        log = tiny_log()
        path = tmp_path / "log.csv"
        write_session_log(path, log)
        lines, first = data_lines(path)
        pad = " " * 20
        lines[first:] = [pad + line.replace(",", pad + ",", 1) for line in lines[first:]]
        path.write_text("".join(lines))
        assert_same_log(read_session_log(path), log)

    @pytest.mark.parametrize("blank", ["  \n", "\t\n", " \t \f\n", "\n"])
    def test_whitespace_only_lines_between_rows(self, tmp_path, blank):
        log = tiny_log()
        path = tmp_path / "log.csv"
        write_session_log(path, log)
        lines, first = data_lines(path)
        lines[first:] = [blank + line for line in lines[first:]]
        path.write_text("".join(lines) + blank)
        assert_same_log(read_session_log(path), log)

    def test_one_row_body_reaches_the_session_checks(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("# sample_rate: 100\nstage,t,m_x,m_y,m_z\nstatic,0.0,1.5,-0.0,5e-324\n")
        with pytest.raises(ProtocolViolation, match="at least 3 rotation stages, found 0"):
            read_session_log(path)

    def test_dropped_sample_in_file_rejected(self, tmp_path):
        log, _, _ = simulated_log()
        path = tmp_path / "session.csv"
        write_session_log(path, log)
        lines, first = data_lines(path)
        row = first + len(log.segments[0].times) + len(log.segments[1].times) // 2
        dropped = lines.pop(row)
        path.write_text("".join(lines))
        with pytest.raises(ProtocolViolation,
                           match=r"'rotate:x' stage: 1 sample\(s\) missing") as info:
            read_session_log(path)
        assert repr(float(lines[row - 1].split(",")[1])) in str(info.value)
        assert dropped.startswith("rotate:x,")


class TestParseErrors:
    def write(self, tmp_path, text):
        path = tmp_path / "log.csv"
        path.write_text(text)
        return path

    def test_missing_sample_rate(self, tmp_path):
        path = self.write(tmp_path, "stage,t,m_x,m_y,m_z\nstatic,0.0,0,0,0\n")
        with pytest.raises(LogParseError) as info:
            read_session_log(path)
        assert "sample_rate" in str(info.value)

    def test_unknown_header_key(self, tmp_path):
        path = self.write(tmp_path, "# samplerate: 100\nstage,t,m_x,m_y,m_z\n")
        with pytest.raises(LogParseError) as info:
            read_session_log(path)
        assert "line 1" in str(info.value)

    def test_bad_column_header(self, tmp_path):
        path = self.write(tmp_path, "# sample_rate: 100\ntime,x,y,z\n")
        with pytest.raises(LogParseError) as info:
            read_session_log(path)
        assert "line 2" in str(info.value)

    def test_malformed_number_names_line(self, tmp_path):
        path = self.write(
            tmp_path,
            "# sample_rate: 100\nstage,t,m_x,m_y,m_z\nstatic,0.0,0,zero,0\n")
        with pytest.raises(LogParseError) as info:
            read_session_log(path)
        assert "line 3" in str(info.value)

    # Python's float() takes underscores and non-ASCII digits; the log
    # format, read by numpy's text reader, does not.
    @pytest.mark.parametrize("field", ["1_000.5", "\u0661\u0662", "\uff11.5", "0x1p3"])
    def test_number_outside_the_format_names_line(self, tmp_path, field):
        path = self.write(
            tmp_path,
            f"# sample_rate: 100\nstage,t,m_x,m_y,m_z\nstatic,0.0,0,0,0\nstatic,0.01,0,{field},0\n")
        with pytest.raises(LogParseError, match=re.escape(
                f"line 4: malformed numeric field in 'static,0.01,0,{field},0'")):
            read_session_log(path)

    def test_truncated_row_names_line(self, tmp_path):
        path = self.write(
            tmp_path,
            "# sample_rate: 100\nstage,t,m_x,m_y,m_z\nstatic,0.0,0,0,0\nstatic,0.01,0,0\n")
        with pytest.raises(LogParseError) as info:
            read_session_log(path)
        assert "line 4" in str(info.value)

    @pytest.mark.parametrize("rows,count", [
        ("static,0.0,0,0\nstatic,0.01,0,0\n", 4),
        ("static,0.0,0,0,0,0\n", 6),
    ])
    def test_same_wrong_field_count_in_every_row_names_line(self, tmp_path, rows, count):
        # numpy's reader takes any count that every row shares.
        path = self.write(tmp_path, f"# sample_rate: 100\nstage,t,m_x,m_y,m_z\n{rows}")
        with pytest.raises(LogParseError,
                           match=f"line 3: expected 5 comma-separated fields, got {count}"):
            read_session_log(path)

    def test_bad_stage_tag_names_line(self, tmp_path):
        path = self.write(
            tmp_path,
            "# sample_rate: 100\nstage,t,m_x,m_y,m_z\nspin,0.0,0,0,0\n")
        with pytest.raises(LogParseError) as info:
            read_session_log(path)
        assert "line 3" in str(info.value)

    @pytest.mark.parametrize("key", ["sample_rate", "rotation_angle", "full_scale"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_header_value_rejected(self, tmp_path, key, value):
        path = tmp_path / "log.csv"
        write_session_log(path, tiny_log(full_scale=245.0))
        lines = [f"# {key}: {value}" if line.startswith(f"# {key}:") else line
                 for line in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LogParseError, match=key):
            read_session_log(path)

    @pytest.mark.parametrize("key,first,second", [
        ("sample_rate", "100.0", "50.0"),
        ("device", "unit 1", "unit 2"),
        ("rotation_angle", "360.0", "360.0"),
    ])
    def test_repeated_header_key_rejected(self, tmp_path, key, first, second):
        # neither value can be trusted, even when both agree
        path = tmp_path / "log.csv"
        write_session_log(path, tiny_log(full_scale=245.0))
        lines = [line for line in path.read_text().splitlines()
                 if not line.startswith(f"# {key}:")]
        lines[:0] = [f"# {key}: {first}", f"# {key}: {second}"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LogParseError, match=f"line 2: duplicate header key '{key}'"):
            read_session_log(path)

    @pytest.mark.parametrize("comment", ["# device: late", "  # note, with, four, more, commas"])
    def test_comment_after_data_names_line(self, tmp_path, comment):
        path = self.write(
            tmp_path,
            f"# sample_rate: 100\nstage,t,m_x,m_y,m_z\nstatic,0.0,0,0,0\n{comment}\n")
        with pytest.raises(LogParseError,
                           match="line 4: header comments must precede the data"):
            read_session_log(path)

    def test_empty_log_rejected(self, tmp_path):
        path = self.write(tmp_path, "# sample_rate: 100\nstage,t,m_x,m_y,m_z\n")
        with pytest.raises(LogParseError):
            read_session_log(path)

    def test_whitespace_only_body_rejected(self, tmp_path):
        # ... without the warning numpy's reader gives for an empty input
        path = self.write(tmp_path, "# sample_rate: 100\nstage,t,m_x,m_y,m_z\n \n\t\n")
        with pytest.raises(LogParseError, match="log contains no sample rows"):
            read_session_log(path)


class TestSaturation:
    def test_counts_clipped_samples(self):
        static = np.full((4, 3), 0.25)
        turns = [np.zeros((4, 3)) for _ in range(3)]
        for axis, block in enumerate(turns):
            block[:, axis] = 100.0
        turns[0][1, 0] = 245.0  # exactly at full scale
        turns[2][3, 2] = -300.0  # beyond it
        log = SessionLog.from_arrays(static, turns, sample_rate=100.0,
                                     full_scale=245.0)
        assert log.saturated_sample_count() == 2

    def test_zero_when_full_scale_unknown(self):
        log = tiny_log()
        assert log.saturated_sample_count() == 0


class TestSessionConversion:
    def test_session_summaries_match_arrays(self):
        log, sim, _ = simulated_log()
        session = log.session()
        np.testing.assert_allclose(
            session.static_means, np.mean(sim.static_raw, axis=0))
        np.testing.assert_allclose(
            session.sums[0], np.sum(sim.rotation_raw[0], axis=0) / 100.0)
        assert session.theta_sq[0] == 360.0 ** 2
