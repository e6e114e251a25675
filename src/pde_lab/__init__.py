"""Laboratory for neural emulation of chaotic and stochastic PDEs.

Pseudo-spectral reference solvers (Kuramoto-Sivashinsky, stochastically
forced beta-plane vorticity), a parameter-conditioned local-attention
emulator trained with a CRPS-plus-spectral objective on a small built-in
reverse-mode tape, and distribution-level diagnostics for judging whether an
emulator reproduces the statistics of the dynamics it was trained on.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    ConfigurationError,
    FormatError,
    IntegrationDivergedError,
    PdeLabError,
    RolloutDivergedError,
    ShapeError,
    TapeReplayedError,
    TrainingAbortedError,
)

from . import (  # noqa: E402, F401
    autodiff,
    beta_plane,
    diagnostics,
    fileio,
    ks,
    model,
    spectral,
    training,
)
