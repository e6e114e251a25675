"""Binary containers for trajectories, histograms and model checkpoints.

Two container families share the same envelope: a 5-byte magic string, a
little-endian uint16 format version, a little-endian uint32 header length, a
UTF-8 JSON header, then raw little-endian float32 payload.  The byte-exact
layout is documented in ``docs/formats.md``.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from .errors import FormatError

TRAJECTORY_MAGIC = b"PDET1"
CHECKPOINT_MAGIC = b"NPEC1"
FORMAT_VERSION = 1

_ENVELOPE = struct.Struct("<HI")  # version, header byte length


@dataclass
class Trajectory:
    """Uniformly sampled sequence of frames plus provenance metadata.

    ``frames`` has shape ``(n_frames, *frame_shape)`` and is stored as float32.
    Frame ``i`` is sampled at time ``t0 + i * snapshot_interval``.
    """

    frames: np.ndarray
    snapshot_interval: float
    t0: float = 0.0
    metadata: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float32)
        if self.frames.ndim < 2:
            raise FormatError("trajectory frames must have shape (n_frames, *frame_shape)")
        if self.snapshot_interval <= 0:
            raise FormatError("snapshot interval must be positive")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def frame_shape(self) -> tuple[int, ...]:
        return self.frames.shape[1:]

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.snapshot_interval * np.arange(self.n_frames)


def _write_envelope(path: Path, magic: bytes, header: dict, payload: bytes) -> None:
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(_ENVELOPE.pack(FORMAT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        fh.write(payload)


def _read_envelope(path: Path, magic: bytes) -> tuple[dict, bytes]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(magic) + _ENVELOPE.size:
        raise FormatError(f"{path}: truncated container")
    if blob[: len(magic)] != magic:
        raise FormatError(f"{path}: bad magic {blob[:len(magic)]!r}, expected {magic!r}")
    version, header_len = _ENVELOPE.unpack_from(blob, len(magic))
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    start = len(magic) + _ENVELOPE.size
    if len(blob) < start + header_len:
        raise FormatError(f"{path}: truncated header")
    try:
        header = json.loads(blob[start : start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: malformed JSON header: {exc}") from exc
    return header, blob[start + header_len :]


def _require_finite(path, what: str, values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{path}: {what} holds non-finite values")


def write_container(path, kind: str, frames: np.ndarray, header_extra: dict) -> None:
    """Write a PDET1 container with the given frame stack."""
    frames = np.ascontiguousarray(frames, dtype="<f4")
    header = {
        "kind": kind,
        "n_frames": int(frames.shape[0]),
        "frame_shape": [int(s) for s in frames.shape[1:]],
        "dtype": "float32le",
    }
    header.update(header_extra)
    _write_envelope(Path(path), TRAJECTORY_MAGIC, header, frames.tobytes(order="C"))


def read_container(path) -> tuple[dict, np.ndarray]:
    """Read a PDET1 container; returns (header, frames)."""
    header, payload = _read_envelope(Path(path), TRAJECTORY_MAGIC)
    for key in ("kind", "n_frames", "frame_shape", "dtype"):
        if key not in header:
            raise FormatError(f"{path}: header missing key {key!r}")
    if header["dtype"] != "float32le":
        raise FormatError(f"{path}: unsupported dtype {header['dtype']}")
    shape = (int(header["n_frames"]), *(int(s) for s in header["frame_shape"]))
    expected = int(np.prod(shape)) * 4
    if len(payload) != expected:
        raise FormatError(f"{path}: payload has {len(payload)} bytes, expected {expected}")
    frames = np.frombuffer(payload, dtype="<f4").reshape(shape)
    return header, frames.astype(np.float32)


def write_trajectory(path, traj: Trajectory) -> None:
    write_container(
        path,
        "trajectory",
        traj.frames,
        {
            "snapshot_interval": float(traj.snapshot_interval),
            "t0": float(traj.t0),
            "metadata": traj.metadata,
        },
    )


def read_trajectory(path) -> Trajectory:
    header, frames = read_container(path)
    if header["kind"] != "trajectory":
        raise FormatError(f"{path}: container kind {header['kind']!r} is not a trajectory")
    for key in ("snapshot_interval", "t0", "metadata"):
        if key not in header:
            raise FormatError(f"{path}: trajectory header missing {key!r}")
    _require_finite(path, "trajectory payload", frames)
    return Trajectory(
        frames=frames,
        snapshot_interval=float(header["snapshot_interval"]),
        t0=float(header["t0"]),
        metadata=dict(header["metadata"]),
    )


def write_checkpoint(path, arch: dict, extra: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write an NPEC1 checkpoint: arch header plus named float32 blobs."""
    names = list(tensors)
    header = {
        "kind": "checkpoint",
        "arch": arch,
        "extra": extra,
        "tensors": [{"name": n, "shape": [int(s) for s in tensors[n].shape]} for n in names],
    }
    payload = b"".join(np.ascontiguousarray(tensors[n], dtype="<f4").tobytes(order="C") for n in names)
    _write_envelope(Path(path), CHECKPOINT_MAGIC, header, payload)


def read_checkpoint(path) -> tuple[dict, dict, dict[str, np.ndarray]]:
    """Read an NPEC1 checkpoint; returns (arch, extra, tensors)."""
    header, payload = _read_envelope(Path(path), CHECKPOINT_MAGIC)
    if header.get("kind") != "checkpoint":
        raise FormatError(f"{path}: container kind {header.get('kind')!r} is not a checkpoint")
    for key in ("arch", "tensors"):
        if key not in header:
            raise FormatError(f"{path}: checkpoint header missing {key!r}")
    tensors: dict[str, np.ndarray] = {}
    offset = 0
    for entry in header["tensors"]:
        shape = tuple(int(s) for s in entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 4
        if offset + nbytes > len(payload):
            raise FormatError(f"{path}: payload truncated at tensor {entry['name']!r}")
        tensors[entry["name"]] = (
            np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
            .reshape(shape)
            .astype(np.float32)
        )
        _require_finite(path, f"tensor {entry['name']!r}", tensors[entry["name"]])
        offset += nbytes
    if offset != len(payload):
        raise FormatError(f"{path}: {len(payload) - offset} trailing payload bytes")
    return header["arch"], header.get("extra", {}), tensors
