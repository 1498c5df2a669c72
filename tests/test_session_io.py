import builtins
import copy
import hashlib
import math
import os
import pickle
import re
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from builders import run_python, simulated_log
from gyrocal import session_io
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
from gyrocal.simulator import SimulationConfig

#: The UTF-8 byte-order mark.
BOM = b"\xef\xbb\xbf"

#: The largest rotation angle whose square is finite.
LARGEST_ANGLE = math.sqrt(sys.float_info.max)


def unit_log(path=None):
    """Seed 3 at 0.15 deg/s, logged from a 245 deg/s "unit under test"."""
    return simulated_log(3, path, full_scale=245.0, device="unit under test", noise_sigma=0.15)


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
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
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

    @pytest.mark.parametrize("device", ["\udcb5", "unit \ud800 7"])
    def test_device_without_utf8_form_rejected(self, device):
        # A lone surrogate cannot be written to a UTF-8 log.
        with pytest.raises(LogParseError, match="device must be UTF-8 text"):
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

    def test_segments_list_mutated_later_changes_nothing(self):
        # The log checks and keeps a tuple of its own, not the caller's list.
        segments = list(tiny_log().segments)
        kept = tuple(segments)
        log = SessionLog(100.0, segments, rotation_angle=90.0)
        expected = calibrate(log.session())
        segments[-1] = segments[0]  # a second static stage
        assert type(log.segments) is tuple
        assert all(a is b for a, b in zip(log.segments, kept, strict=True))
        assert calibrate(log.session()) == expected
        segments.clear()
        assert calibrate(log.session()) == expected

    def test_segments_from_a_generator(self):
        segments = tiny_log().segments
        log = SessionLog(100.0, (segment for segment in segments), rotation_angle=90.0)
        assert all(a is b for a, b in zip(log.segments, segments, strict=True))
        assert calibrate(log.session()) == calibrate(tiny_log().session())

    @pytest.mark.parametrize("key", ["sample_rate", "rotation_angle", "full_scale"])
    @pytest.mark.parametrize("value", [True, "100", np.float32(100.0)],
                             ids=["bool", "str", "float32"])
    def test_header_numbers_are_numbers_kept_as_floats(self, key, value):
        if isinstance(value, np.float32):
            kept = getattr(tiny_log(**{key: value}), key)
            assert type(kept) is float and kept == 100.0
            return
        with pytest.raises(LogParseError) as info:
            tiny_log(**{key: value})
        assert str(info.value) == f"{key} must be a number, got {value!r}"

    @pytest.mark.parametrize("rate", [0.0, -100.0, float("nan"), float("inf")])
    @pytest.mark.filterwarnings("error")
    def test_from_arrays_checks_sample_rate_first(self, rate):
        with pytest.raises(LogParseError, match="sample_rate must be positive and finite"):
            tiny_log(sample_rate=rate)

    @given(rate=st.floats(1e-3, 1e4), sizes=st.lists(st.integers(1, 50), min_size=4,
                                                      max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_from_arrays_timestamps_run_on_across_stages(self, rate, sizes):
        # One clock over the whole session: sample i is at i / rate,
        # whichever stage it falls in, and the tags are the table's, in order.
        total = sum(sizes)
        samples = np.arange(3.0 * total).reshape(total, 3)
        static, *turns = np.split(samples, np.cumsum(sizes)[:-1])
        log = SessionLog.from_arrays(static, turns, rate)
        assert tuple(segment.stage for segment in log.segments) == session_io._STAGES
        times = np.concatenate([segment.times for segment in log.segments])
        assert times.tobytes() == (np.arange(total) / rate).tobytes()
        assert np.concatenate([s.samples for s in log.segments]).tobytes() == samples.tobytes()


class TestRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        path = tmp_path / "session.csv"
        log, _, _ = unit_log(path)
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
        path = tmp_path / "session.csv"
        _, sim, _ = unit_log(path)
        from_disk = calibrate(read_session_log(path).session(), noise_sigma=0.15)
        in_memory = calibrate(sim.session, noise_sigma=0.15)
        assert from_disk == in_memory

    @given(rate=st.floats(20.0, 1000.0), still=st.floats(0.2, 2.0), turn=st.floats(0.5, 2.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_view_read_back_equals_simulated_view_bitwise(self, tmp_path_factory, rate, still,
                                                          turn, seed):
        # Any rate, with stages that do not last a whole number of samples.
        assume(not (rate * still).is_integer() and not (rate * turn).is_integer())
        assert SimulationConfig().misalignment_range != (0.0, 0.0)  # coupled axes
        path = tmp_path_factory.getbasetemp() / "simulated.csv"
        _, sim, _ = simulated_log(seed, path, sample_rate=rate, static_duration=still,
                                  rotation_duration=turn, n_test_rates=5)
        view = read_session_log(path).session()
        for name, got, expected in zip(view._fields, view, sim.session, strict=True):
            assert np.shape(got) == np.shape(expected), name
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes(), name

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
        lines = path.read_text(encoding="utf-8").splitlines()
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
        path = tmp_path / "session.csv"
        log, _, _ = unit_log(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_bytes("\r\n\r\n  \t\r\n".join(lines).encode() + b"\r\n")
        assert_same_log(read_session_log(path), log)

    @pytest.mark.parametrize("breaks", [("\r",), ("\n", "\r\n", "\r")], ids=["CR", "mixed"])
    def test_other_line_breaks(self, tmp_path, breaks):
        path = tmp_path / "session.csv"
        unit_log(path)
        original = read_session_log(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_bytes("".join(line + breaks[i % len(breaks)]
                                 for i, line in enumerate(lines)).encode())
        assert_same_log(read_session_log(path), original)

    def test_stage_tag_with_surrounding_spaces(self, tmp_path):
        log = tiny_log()
        path = tmp_path / "log.csv"
        write_session_log(path, log)
        lines, first = data_lines(path)
        lines[first:] = ["  " + line.replace(",", " ,", 1) for line in lines[first:]]
        path.write_text("".join(lines), encoding="utf-8")
        assert_same_log(read_session_log(path), log)

    def test_stage_tag_padded_by_20_spaces(self, tmp_path):
        # Any amount of padding reads back; a fixed-width tag would cut it.
        log = tiny_log()
        path = tmp_path / "log.csv"
        write_session_log(path, log)
        lines, first = data_lines(path)
        pad = " " * 20
        lines[first:] = [pad + line.replace(",", pad + ",", 1) for line in lines[first:]]
        path.write_text("".join(lines), encoding="utf-8")
        assert_same_log(read_session_log(path), log)

    @pytest.mark.parametrize("blank", ["  \n", "\t\n", " \t \f\n", "\n"])
    def test_whitespace_only_lines_between_rows(self, tmp_path, blank):
        log = tiny_log()
        path = tmp_path / "log.csv"
        write_session_log(path, log)
        lines, first = data_lines(path)
        lines[first:] = [blank + line for line in lines[first:]]
        path.write_text("".join(lines) + blank, encoding="utf-8")
        assert_same_log(read_session_log(path), log)

    def test_one_row_body_reaches_the_session_checks(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("# sample_rate: 100\nstage,t,m_x,m_y,m_z\nstatic,0.0,1.5,-0.0,5e-324\n",
                        encoding="utf-8")
        with pytest.raises(ProtocolViolation, match="at least 3 rotation stages, found 0"):
            read_session_log(path)

    def test_dropped_sample_in_file_rejected(self, tmp_path):
        path = tmp_path / "session.csv"
        log, _, _ = unit_log(path)
        lines, first = data_lines(path)
        row = first + len(log.segments[0].times) + len(log.segments[1].times) // 2
        dropped = lines.pop(row)
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ProtocolViolation,
                           match=r"'rotate:x' stage: 1 sample\(s\) missing") as info:
            read_session_log(path)
        assert repr(float(lines[row - 1].split(",")[1])) in str(info.value)
        assert dropped.startswith("rotate:x,")


def per_row_text(log):
    """The text of ``log`` as a writer that formats one f-string a row
    gives it: the oracle of the block writer."""
    head = [f"# sample_rate: {log.sample_rate!r}\n", f"# rotation_angle: {log.rotation_angle!r}\n"]
    if log.full_scale is not None:
        head.append(f"# full_scale: {log.full_scale!r}\n")
    if log.device is not None:
        head.append(f"# device: {log.device}\n")
    rows = [f"{seg.stage},{t!r},{x!r},{y!r},{z!r}\n" for seg in log.segments
            for t, (x, y, z) in zip(seg.times.tolist(), seg.samples.tolist())]
    return "".join([*head, "stage,t,m_x,m_y,m_z\n", *rows])


def pinned_log(name):
    if name == "100 Hz":
        return simulated_log(5, full_scale=245.0, device="unit 5", noise_sigma=0.15)[0]
    if name == "400 Hz":
        return simulated_log(7, sample_rate=400.0, noise_sigma=0.03)[0]
    edges = np.resize(np.array(EDGE_FLOATS), (4, 6, 3))
    return SessionLog.from_arrays(edges[0], list(edges[1:]), 10.0)


#: The sha256 of each ``pinned_log``'s written bytes, recorded from the
#: writer that formatted one f-string a row.
WRITTEN_LOG_PINS = {
    "100 Hz": "8326067b3c86e3fc688f0d850a9eaa090e0f2793f0910548f1174e92630fab6e",
    "400 Hz": "180b482b65c6d564ae1c029accc0fa0160d47eeab6a67830a3d31f3c3202b85f",
    "edge floats": "6fa30a59a8314950d30621d8ebe57a8b353e127c0c491653a5a291274707d7d8",
}

#: The most memory, in bytes, that writing a log may take beyond the log.
WRITER_PEAK_BOUND = 4 * 2 ** 20


class TestBlockWriter:
    @pytest.mark.parametrize("name", sorted(WRITTEN_LOG_PINS))
    def test_written_bytes_are_pinned(self, tmp_path, name):
        path = tmp_path / "pinned.csv"
        write_session_log(path, pinned_log(name))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == WRITTEN_LOG_PINS[name]

    def test_rows_across_block_boundaries(self, tmp_path):
        block = session_io._WRITE_BLOCK
        counts = [5 * block // 2 + 1, 3 * block - 1, 2 * block, block + 1]
        rng = np.random.default_rng(36)
        samples = rng.standard_normal((sum(counts), 3)) * 10.0 ** rng.integers(
            -300, 300, (sum(counts), 3))
        samples[::97] = np.resize(np.array(EDGE_FLOATS), samples[::97].shape)
        static, *turns = np.split(samples, np.cumsum(counts)[:-1])
        log = SessionLog.from_arrays(static, turns, 400.0, full_scale=245.0,
                                     device="unit \u00b5")
        path = tmp_path / "long.csv"
        write_session_log(path, log)
        assert path.read_bytes() == per_row_text(log).encode("utf-8")

    def test_writer_memory_is_bounded(self, tmp_path):
        # The 200,000 rows as Python floats would take tens of MB.
        static = np.random.default_rng(36).standard_normal((200_000, 3))
        log = SessionLog.from_arrays(static, [np.eye(3)[[axis] * 4] for axis in range(3)], 100.0)
        tracemalloc.start()
        try:
            write_session_log(tmp_path / "long.csv", log)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < WRITER_PEAK_BOUND


class TestEncoding:
    DEVICE = "Gyro\u2122 \u00b5"

    def test_round_trip_in_c_locale(self, tmp_path):
        # An ASCII locale does not change how a log is written or read.
        code = textwrap.dedent("""
            import sys
            import numpy as np
            from gyrocal.session_io import SessionLog, read_session_log, write_session_log

            turns = [np.eye(3)[[axis] * 4] * 900.0 for axis in range(3)]
            log = SessionLog.from_arrays(np.zeros((4, 3)), turns, 10.0,
                                         device="Gyro\\u2122 \\u00b5")
            write_session_log(sys.argv[1], log)
            print(ascii(read_session_log(sys.argv[1]).device))
        """)
        path = tmp_path / "session.csv"
        proc = run_python("-c", code, str(path), LC_ALL="C", PYTHONUTF8="0",
                          PYTHONCOERCECLOCALE="0")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "'Gyro\\u2122 \\xb5'\n"
        assert f"# device: {self.DEVICE}\n".encode("utf-8") in path.read_bytes()

    @pytest.mark.parametrize("where", ["device", "first row", "row 1000", "last row"])
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_undecodable_byte_names_line(self, tmp_path, where, newline):
        # The text layer decodes a chunk at a time; the line is still exact.
        path = tmp_path / "session.csv"
        unit_log(path)
        lines = path.read_bytes().splitlines()
        index = {"device": 3, "first row": 5, "row 1000": 1004, "last row": len(lines) - 1}[where]
        lines[index] = lines[index][:-2] + b"\xb5" + lines[index][-2:]
        path.write_bytes(newline.join(lines) + newline)
        with pytest.raises(LogParseError, match=re.escape(
                f"line {index + 1}: byte 0xb5 is not UTF-8 (invalid start byte)")):
            read_session_log(path)

    def test_truncated_sequence_at_end_names_line(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_bytes(b"# sample_rate: 100\n# device: unit \xe2\x84")
        with pytest.raises(LogParseError, match="line 2: byte 0xe2 is not UTF-8"):
            read_session_log(path)

    def test_byte_order_mark_skipped(self, tmp_path):
        # Windows Notepad saves UTF-8 with one; the writer adds none.
        log = tiny_log(device=self.DEVICE)
        path = tmp_path / "log.csv"
        write_session_log(path, log)
        assert path.read_bytes().startswith(b"# sample_rate: ")
        path.write_bytes(BOM + path.read_bytes())
        assert_same_log(read_session_log(path), log)

    @pytest.mark.parametrize("where", ["device", "row 1000"])
    def test_undecodable_byte_after_byte_order_mark_names_line(self, tmp_path, where):
        path = tmp_path / "session.csv"
        unit_log(path)
        lines = path.read_bytes().splitlines()
        index = {"device": 3, "row 1000": 1004}[where]
        lines[index] += b"\xb5"
        path.write_bytes(BOM + b"\n".join(lines) + b"\n")
        with pytest.raises(LogParseError, match=re.escape(
                f"line {index + 1}: byte 0xb5 is not UTF-8 (invalid start byte)")):
            read_session_log(path)

    def test_undecodable_byte_named_before_a_bad_row(self, tmp_path):
        # The bad row is read long before the text layer decodes the last
        # line; the file is still named by its bad byte.
        path = tmp_path / "session.csv"
        unit_log(path)
        lines = path.read_bytes().splitlines()
        lines[5] = b"static,0.0,0,zero,0"
        lines[-1] += b"\xb5"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(LogParseError, match=re.escape(
                f"line {len(lines)}: byte 0xb5 is not UTF-8")):
            read_session_log(path)

    @pytest.mark.parametrize("index", [6, 1004])
    def test_undecodable_byte_named_before_a_bad_header(self, tmp_path, index):
        # Line 1005 lies past the first 8 KB that a text-mode read decodes
        # before the header is parsed; the byte is still named first.
        path = tmp_path / "session.csv"
        unit_log(path)
        lines = path.read_bytes().splitlines()
        lines[1] = b"# colour: red"
        lines[index] += b"\xb5"
        assert len(b"\n".join(lines[:index])) > 8192 or index < 10
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(LogParseError, match=re.escape(
                f"line {index + 1}: byte 0xb5 is not UTF-8")):
            read_session_log(path)


def _opens_of(path, monkeypatch):
    """A list that gains the mode of each ``open`` of ``path``."""
    opens = []
    real_open = builtins.open

    def counting_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, bytes, os.PathLike)) and os.fsdecode(file) == str(path):
            opens.append(mode)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    return opens


@pytest.mark.parametrize("fault", [None, "bad byte", "bad header", "bad row", "unknown tag"])
def test_log_is_opened_once(tmp_path, monkeypatch, fault):
    path = tmp_path / "session.csv"
    write_session_log(path, tiny_log())
    lines, first = data_lines(path)
    edit = {
        None: lambda: None,
        "bad byte": lambda: lines.__setitem__(-1, lines[-1] + "\udcb5"),
        "bad header": lambda: lines.insert(1, "# colour: red\n"),
        "bad row": lambda: lines.__setitem__(first + 9, "rotate:y,0.09,0,zero,0\n"),
        "unknown tag": lambda: lines.__setitem__(first + 9, "spin,0.09,0,0,0\n"),
    }[fault]
    edit()
    path.write_bytes("".join(lines).encode("utf-8", "surrogateescape"))
    opens = _opens_of(path, monkeypatch)
    if fault is None:
        assert_same_log(read_session_log(path), tiny_log())
    else:
        with pytest.raises(LogParseError, match="^line [0-9]+: "):
            read_session_log(path)
    assert len(opens) == 1


class TestParseErrors:
    def write(self, tmp_path, text):
        path = tmp_path / "log.csv"
        path.write_text(text, encoding="utf-8")
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

    # ... nor does it in a header number.
    @pytest.mark.parametrize("value", ["1_00.0", "\u0661\u0660\u0660", "\uff11\uff10\uff10"])
    def test_header_number_outside_the_format_names_line(self, tmp_path, value):
        path = self.write(
            tmp_path, f"# sample_rate: {value}\nstage,t,m_x,m_y,m_z\nstatic,0.0,0,0,0\n")
        with pytest.raises(LogParseError, match=re.escape(
                f"line 1: header 'sample_rate' needs a numeric value, got {value!r}")):
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
                 for line in path.read_text(encoding="utf-8").splitlines()]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
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
        lines = [line for line in path.read_text(encoding="utf-8").splitlines()
                 if not line.startswith(f"# {key}:")]
        lines[:0] = [f"# {key}: {first}", f"# {key}: {second}"]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
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

    def test_late_copy_of_a_header_line_names_its_own_line(self, tmp_path):
        path = self.write(
            tmp_path,
            "# sample_rate: 100\n# device: late\nstage,t,m_x,m_y,m_z\nstatic,0.0,0,0,0\n"
            "# device: late\n")
        with pytest.raises(LogParseError,
                           match="^line 5: header comments must precede the data"):
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


def line_by_line_refusal(path):
    """The reference for a refused row: the message for the first data row
    that numpy's reader refuses on its own, or whose stage tag is unknown,
    asking row by row."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        lines = enumerate(handle.readlines(), start=1)
    for _, line in lines:
        if line.strip() == "stage,t,m_x,m_y,m_z":
            break
    for line_number, line in lines:
        if line.isspace():
            continue
        parts = line.split(",")
        if len(parts) != 5:
            problem = f"expected 5 comma-separated fields, got {len(parts)}"
        elif parts[0].strip() not in ("static", "rotate:x", "rotate:y", "rotate:z"):
            problem = f"unknown stage tag {parts[0].strip()!r}"
        else:
            try:
                np.loadtxt([line], dtype=session_io._ROW, delimiter=",", comments=None)
                continue
            except ValueError:
                problem = f"malformed numeric field in {line.strip()!r}"
        if line.lstrip().startswith("#"):
            problem = "header comments must precede the data"
        return f"line {line_number}: {problem}"
    return None


def _with_field(row, column, value):
    parts = row.split(",")
    parts[column] = value
    return ",".join(parts)


#: Each fault a data row can have: the row it makes of a good row, and
#: the start of the problem a refusal names.
ROW_FAULTS = {
    "field count": (lambda row: row.rsplit(",", 1)[0] + "\n",
                    "expected 5 comma-separated fields, got 4"),
    "unknown tag": (lambda row: _with_field(row, 0, " spin"), "unknown stage tag 'spin'"),
    "bad number": (lambda row: _with_field(row, 3, "zero"), "malformed numeric field in "),
    "late comment": (lambda row: "# device: late\n", "header comments must precede the data"),
}

#: 120 data rows, 30 per stage.
FAULT_LOG = SessionLog.from_arrays(
    np.full((30, 3), 0.25), [np.eye(3)[[axis] * 30] * 1200.0 for axis in range(3)], 100.0)


class TestRowRefusal:
    """A refused log names its first bad row, as asking row by row would."""

    @given(kinds=st.lists(st.sampled_from(sorted(ROW_FAULTS)), min_size=2, max_size=2,
                          unique=True),
           rows=st.lists(st.integers(0, 119), min_size=2, max_size=2, unique=True),
           blank=st.sampled_from(["", "  \n"]))
    @settings(max_examples=150, deadline=None)
    def test_earlier_of_two_faults_named(self, tmp_path_factory, kinds, rows, blank):
        path = tmp_path_factory.getbasetemp() / "two_faults.csv"
        write_session_log(path, FAULT_LOG)
        lines, first = data_lines(path)
        for kind, row in zip(kinds, rows):
            lines[first + row] = ROW_FAULTS[kind][0](lines[first + row])
        lines[first:] = [blank + line for line in lines[first:]]
        path.write_text("".join(lines), encoding="utf-8")
        row = min(rows)
        line_number = first + (2 if blank else 1) * (row + 1)
        problem = ROW_FAULTS[kinds[rows.index(row)]][1]
        with pytest.raises(LogParseError) as info:
            read_session_log(path)
        assert str(info.value).startswith(f"line {line_number}: {problem}")
        assert str(info.value) == line_by_line_refusal(path)

    @pytest.mark.parametrize("row", [0, 1, 59, 118, 119])
    @pytest.mark.parametrize("kind", sorted(ROW_FAULTS))
    def test_one_fault_named_as_row_by_row(self, tmp_path, kind, row):
        path = tmp_path / "one_fault.csv"
        write_session_log(path, FAULT_LOG)
        lines, first = data_lines(path)
        lines[first + row] = ROW_FAULTS[kind][0](lines[first + row])
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(LogParseError, match=f"^line {first + row + 1}: ") as info:
            read_session_log(path)
        assert str(info.value) == line_by_line_refusal(path)


#: Pieces of a mutated measurement field: digits, signs, the characters
#: of exponents, hex literals and digit grouping, whitespace, parts of
#: ``inf`` and ``nan``, and a non-ASCII digit.
FIELD_PIECES = [*"0123456789+-.eE_x ", "\x0c", "i", "in", "inf", "n", "na", "nan", "\u0661"]


class TestOneGrammar:
    """numpy's text reader is the one grammar of a sample field: a field it
    takes reads back as its value, and a field it refuses names its line."""

    @given(field=st.lists(st.sampled_from(FIELD_PIECES), max_size=8).map("".join),
           row=st.integers(0, 15), column=st.integers(2, 4))
    @settings(max_examples=300, deadline=None)
    def test_mutated_field_reads_as_numpy_reads_it(self, tmp_path_factory, field, row, column):
        path = tmp_path_factory.getbasetemp() / "one_grammar.csv"
        write_session_log(path, tiny_log())
        lines, first = data_lines(path)
        parts = lines[first + row].rstrip("\n").split(",")
        parts[column] = field
        lines[first + row] = ",".join(parts) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        try:
            value = np.loadtxt([f"0,{field}"], delimiter=",", comments=None)[1]
        except ValueError:
            with pytest.raises(LogParseError, match=f"^line {first + row + 1}: "):
                read_session_log(path)
            return
        if not np.isfinite(value):
            with pytest.raises(LogParseError, match="non-finite values"):
                read_session_log(path)
            return
        sample = read_session_log(path).segments[row // 4].samples[row % 4, column - 2]
        assert repr(float(sample)) == repr(float(value))


    @given(value=st.lists(st.sampled_from(FIELD_PIECES), max_size=8).map("".join))
    @settings(max_examples=200, deadline=None)
    def test_mutated_header_number_reads_as_numpy_reads_it(self, tmp_path_factory, value):
        path = tmp_path_factory.getbasetemp() / "one_grammar_header.csv"
        write_session_log(path, tiny_log(full_scale=245.0))
        lines, _ = data_lines(path)
        assert lines[2].startswith("# full_scale: ")
        lines[2] = f"# full_scale: {value}\n"
        path.write_text("".join(lines), encoding="utf-8")
        try:
            number = np.loadtxt([f"0,{value}"], delimiter=",", comments=None)[1]
        except ValueError:
            with pytest.raises(LogParseError, match="^line 3: header 'full_scale' needs"):
                read_session_log(path)
            return
        if not 0.0 < number < np.inf:
            with pytest.raises(LogParseError, match="full_scale must be positive and finite"):
                read_session_log(path)
            return
        assert repr(read_session_log(path).full_scale) == repr(float(number))


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


def test_array_holders_compare_by_identity():
    # A generated == would compare the array fields and raise, and a
    # generated hash would hash them.
    log, sim, truth = unit_log()
    twin_log, twin_sim, twin_truth = unit_log()
    for a, b in ((log, twin_log), (log.segments[0], twin_log.segments[0]),
                 (sim, twin_sim), (truth, twin_truth)):
        assert a == a and a != b
        assert a in [b, a] and a not in [b]
        assert len({a, b, a}) == 2


def test_log_records_are_immutable_and_copy_through_the_constructor():
    log, _, _ = unit_log()
    for record, name in ((log, "sample_rate"), (log, "segments"), (log.segments[0], "times")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    for twin in (copy.deepcopy(log), pickle.loads(pickle.dumps(log))):
        assert_same_log(twin, log)
        assert not twin.segments[1].samples.flags.writeable


class TestSessionConversion:
    def test_session_summaries_match_arrays(self):
        log, sim, _ = unit_log()
        session = log.session()
        np.testing.assert_allclose(
            session.static_means, np.mean(sim.static_raw, axis=0))
        np.testing.assert_allclose(
            session.sums[0], np.sum(sim.rotation_raw[0], axis=0) / 100.0)
        assert session.theta_sq[0] == 360.0 ** 2
