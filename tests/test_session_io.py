import numpy as np
import pytest

from gyrocal.estimator import calibrate
from gyrocal.model import CalibrationError, ProtocolViolation
from gyrocal.session_io import (
    LogParseError,
    LogSegment,
    SessionLog,
    read_session_log,
    write_session_log,
)
from gyrocal.simulator import SimulationConfig, sample_ground_truth, simulate_session


def simulated_log(seed=3, noise=0.15, device="unit under test", full_scale=245.0):
    config = SimulationConfig(noise_sigma=noise, rng_seed=seed)
    rng = np.random.default_rng(seed)
    truth = sample_ground_truth(config, rng)
    sim = simulate_session(truth, config, rng)
    log = SessionLog.from_arrays(
        sim.static_raw, list(sim.rotation_raw), config.sample_rate,
        rotation_angle=config.rotation_angle, full_scale=full_scale, device=device)
    return log, sim, truth


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

    def test_truncated_row_names_line(self, tmp_path):
        path = self.write(
            tmp_path,
            "# sample_rate: 100\nstage,t,m_x,m_y,m_z\nstatic,0.0,0,0,0\nstatic,0.01,0,0\n")
        with pytest.raises(LogParseError) as info:
            read_session_log(path)
        assert "line 4" in str(info.value)

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

    def test_empty_log_rejected(self, tmp_path):
        path = self.write(tmp_path, "# sample_rate: 100\nstage,t,m_x,m_y,m_z\n")
        with pytest.raises(LogParseError):
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
