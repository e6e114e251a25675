import json
import struct

import numpy as np
import pytest

from pde_lab import fileio
from pde_lab.errors import FormatError


class TestEnvelope:
    def test_byte_layout(self, tmp_path, small_trajectory):
        """Frozen on-disk layout: magic, u16 version, u32 header length, JSON, payload."""
        path = tmp_path / "t.pdet"
        fileio.write_trajectory(path, small_trajectory)
        blob = path.read_bytes()

        assert blob[:5] == b"PDET1"
        version, header_len = struct.unpack_from("<HI", blob, 5)
        assert version == 1
        header = json.loads(blob[11 : 11 + header_len].decode("utf-8"))
        assert header["kind"] == "trajectory"
        assert header["n_frames"] == 8
        assert header["frame_shape"] == [16]
        assert header["dtype"] == "float32le"

        payload = blob[11 + header_len :]
        assert len(payload) == 8 * 16 * 4
        frames = np.frombuffer(payload, dtype="<f4").reshape(8, 16)
        np.testing.assert_array_equal(frames, small_trajectory.frames)

    def test_write_is_deterministic(self, tmp_path, small_trajectory):
        a, b = tmp_path / "a.pdet", tmp_path / "b.pdet"
        fileio.write_trajectory(a, small_trajectory)
        fileio.write_trajectory(b, small_trajectory)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path, small_trajectory):
        path = tmp_path / "t.pdet"
        fileio.write_trajectory(path, small_trajectory)
        blob = bytearray(path.read_bytes())
        blob[:5] = b"XXXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            fileio.read_trajectory(path)

    def test_bad_version(self, tmp_path, small_trajectory):
        path = tmp_path / "t.pdet"
        fileio.write_trajectory(path, small_trajectory)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<H", blob, 5, 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            fileio.read_trajectory(path)

    def test_truncated_payload(self, tmp_path, small_trajectory):
        path = tmp_path / "t.pdet"
        fileio.write_trajectory(path, small_trajectory)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(FormatError, match="payload"):
            fileio.read_trajectory(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.pdet"
        path.write_bytes(b"PDET1" + struct.pack("<HI", 1, 500) + b"{}")
        with pytest.raises(FormatError, match="truncated"):
            fileio.read_container(path)

    def test_malformed_json(self, tmp_path):
        bad = b"{not json"
        path = tmp_path / "t.pdet"
        path.write_bytes(b"PDET1" + struct.pack("<HI", 1, len(bad)) + bad)
        with pytest.raises(FormatError, match="JSON"):
            fileio.read_container(path)


class TestTrajectory:
    def test_roundtrip(self, tmp_path, small_trajectory):
        path = tmp_path / "t.pdet"
        fileio.write_trajectory(path, small_trajectory)
        back = fileio.read_trajectory(path)
        np.testing.assert_array_equal(back.frames, small_trajectory.frames)
        assert back.snapshot_interval == small_trajectory.snapshot_interval
        assert back.t0 == small_trajectory.t0
        assert back.metadata == small_trajectory.metadata

    def test_times(self, small_trajectory):
        np.testing.assert_allclose(
            small_trajectory.times, 2.0 + 0.5 * np.arange(8)
        )

    def test_frames_coerced_to_float32(self):
        traj = fileio.Trajectory(frames=np.ones((3, 4), dtype=np.float64), snapshot_interval=1.0)
        assert traj.frames.dtype == np.float32

    def test_validation(self):
        with pytest.raises(FormatError):
            fileio.Trajectory(frames=np.ones(5), snapshot_interval=1.0)
        with pytest.raises(FormatError):
            fileio.Trajectory(frames=np.ones((3, 4)), snapshot_interval=0.0)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "h.pdet"
        fileio.write_container(path, "histogram3d", np.zeros((1, 2, 2, 2)), {"edges": []})
        with pytest.raises(FormatError, match="not a trajectory"):
            fileio.read_trajectory(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected(self, tmp_path, small_trajectory, bad):
        small_trajectory.frames[3, 5] = bad
        path = tmp_path / "t.pdet"
        fileio.write_trajectory(path, small_trajectory)
        with pytest.raises(FormatError, match="non-finite"):
            fileio.read_trajectory(path)

    def test_2d_frames(self, tmp_path):
        frames = np.arange(2 * 4 * 6, dtype=np.float32).reshape(2, 4, 6)
        traj = fileio.Trajectory(frames=frames, snapshot_interval=2.0, metadata={"x": 1})
        path = tmp_path / "t.pdet"
        fileio.write_trajectory(path, traj)
        back = fileio.read_trajectory(path)
        assert back.frame_shape == (4, 6)
        np.testing.assert_array_equal(back.frames, frames)


class TestCheckpoint:
    def _sample(self):
        arch = {"n_blocks": 2, "channels": 4, "window": 3}
        extra = {"norm_mean": 0.25, "norm_std": 1.5}
        tensors = {
            "encoder": np.arange(8, dtype=np.float32).reshape(2, 4),
            "blocks.0.query": np.full((4, 4), 0.5, dtype=np.float32),
            "decoder": np.array([[1.0], [2.0], [3.0], [4.0]], dtype=np.float32),
        }
        return arch, extra, tensors

    def test_roundtrip(self, tmp_path):
        arch, extra, tensors = self._sample()
        path = tmp_path / "c.npec"
        fileio.write_checkpoint(path, arch, extra, tensors)
        arch2, extra2, tensors2 = fileio.read_checkpoint(path)
        assert arch2 == arch
        assert extra2 == extra
        assert list(tensors2) == list(tensors)
        for name in tensors:
            np.testing.assert_array_equal(tensors2[name], tensors[name])

    def test_magic(self, tmp_path):
        arch, extra, tensors = self._sample()
        path = tmp_path / "c.npec"
        fileio.write_checkpoint(path, arch, extra, tensors)
        assert path.read_bytes()[:5] == b"NPEC1"

    def test_payload_is_concatenated_blobs(self, tmp_path):
        arch, extra, tensors = self._sample()
        path = tmp_path / "c.npec"
        fileio.write_checkpoint(path, arch, extra, tensors)
        blob = path.read_bytes()
        _, header_len = struct.unpack_from("<HI", blob, 5)
        payload = blob[11 + header_len :]
        expected = b"".join(t.astype("<f4").tobytes() for t in tensors.values())
        assert payload == expected

    def test_trailing_bytes_rejected(self, tmp_path):
        arch, extra, tensors = self._sample()
        path = tmp_path / "c.npec"
        fileio.write_checkpoint(path, arch, extra, tensors)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(FormatError, match="trailing"):
            fileio.read_checkpoint(path)

    def test_truncated_tensor_rejected(self, tmp_path):
        arch, extra, tensors = self._sample()
        path = tmp_path / "c.npec"
        fileio.write_checkpoint(path, arch, extra, tensors)
        path.write_bytes(path.read_bytes()[:-6])
        with pytest.raises(FormatError, match="truncated"):
            fileio.read_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, bad):
        arch, extra, tensors = self._sample()
        tensors["blocks.0.query"][1, 2] = bad
        path = tmp_path / "c.npec"
        fileio.write_checkpoint(path, arch, extra, tensors)
        with pytest.raises(FormatError, match="blocks.0.query.* non-finite"):
            fileio.read_checkpoint(path)

    def test_trajectory_magic_rejected(self, tmp_path, small_trajectory):
        path = tmp_path / "t.pdet"
        fileio.write_trajectory(path, small_trajectory)
        with pytest.raises(FormatError, match="magic"):
            fileio.read_checkpoint(path)

    def test_scalar_tensor(self, tmp_path):
        path = tmp_path / "c.npec"
        fileio.write_checkpoint(path, {}, {}, {"s": np.float32(3.0)})
        _, _, tensors = fileio.read_checkpoint(path)
        assert tensors["s"].shape == ()
        assert tensors["s"] == 3.0
