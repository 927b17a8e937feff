"""Exception types shared across the workbench."""


class RkdlabError(Exception):
    """Base class for all workbench errors."""


class InvalidConfigError(RkdlabError):
    """A configuration value violates its contract."""


class DomainError(RkdlabError):
    """An argument is outside the mathematical domain of an operation."""


class DegenerateGraphError(RkdlabError):
    """A graph has a zero-degree vertex or otherwise cannot define a distribution."""


class NotPsdError(RkdlabError):
    """The normalized adjacency is not positive semi-definite where required."""


class NumericError(RkdlabError):
    """A numerical routine failed to meet its accuracy contract."""


class TrainingDivergedError(RkdlabError):
    """Gradient descent diverged; carries the loss trace for inspection."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class InvalidAugmentationError(RkdlabError):
    """An augmentation map violates class invariance or strictness."""
