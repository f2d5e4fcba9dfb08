"""Shared exception types."""


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


class SolveError(RuntimeError):
    """A linear solve failed to reach its tolerance within budget; `sample`
    indexes the failing sample of a stack solved at once."""

    def __init__(self, message, sample=None):
        super().__init__(message)
        self.sample = sample
