"""Exception hierarchy shared across the toolkit."""


class SentiganError(Exception):
    """Base class for all toolkit errors.

    `member` is the index, along the leading member axis, of the lockstep
    group member at fault, or None when the error is not a member's own."""

    def __init__(self, *args, member=None):
        super().__init__(*args)
        self.member = member


class DimensionError(SentiganError):
    """Shape mismatch between an operation's inputs."""

    def __init__(self, what, expected, actual):
        super().__init__(f"{what}: expected {expected}, got {actual}")


class TrainingError(SentiganError):
    """Optimization failure (divergence, non-finite gradients, non-convergence)."""


class DataError(SentiganError):
    """Invalid or inconsistent input data."""


class UsageError(SentiganError):
    """API misuse (missing forward cache, bad arguments)."""
