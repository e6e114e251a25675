"""Exception types shared across the package."""


class PdeLabError(Exception):
    """Base class for package-specific errors."""


class ConfigurationError(PdeLabError):
    """Invalid or inconsistent configuration values."""


class ShapeError(PdeLabError):
    """Array shape does not match the plan or the declared contract."""


class IntegrationDivergedError(PdeLabError):
    """Solver state became non-finite during time stepping."""

    def __init__(self, message, step=None, time=None, snapshots_completed=None):
        super().__init__(message)
        self.step = step
        self.time = time
        self.snapshots_completed = snapshots_completed


class RolloutDivergedError(PdeLabError):
    """Autoregressive rollout produced a non-finite or unbounded state."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class TapeReplayedError(PdeLabError):
    """Backward was called a second time on a graph whose tape it already consumed."""


class FormatError(PdeLabError):
    """Container file is malformed or inconsistent with the expected layout."""


class TrainingAbortedError(PdeLabError):
    """Training loop aborted on a non-finite loss."""

    def __init__(self, message, epoch=None, batch=None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch
