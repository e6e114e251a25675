import numpy as np
import pytest

from pde_lab import cli, fileio

# Run the suite under the allocator settings `cli.main` applies, so the long
# in-process trainings (the acceptance toy pretrain runs 400 epochs) reuse the
# pages they free instead of faulting them in again every step.
cli._keep_freed_memory()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_trajectory():
    """Deterministic 8-frame trajectory on 16 points, metadata included."""
    t = np.arange(8)[:, None]
    x = np.arange(16)[None, :]
    frames = np.sin(2 * np.pi * (x / 16.0 + 0.03 * t)).astype(np.float32)
    return fileio.Trajectory(
        frames=frames,
        snapshot_interval=0.5,
        t0=2.0,
        metadata={"equation": "ks", "domain_length": 16.0, "seed": 7},
    )
