"""Shared exception types."""


class ConfigError(ValueError):
    """Invalid domain, boundary data, or configuration input.

    ``problems`` carries the full list of messages when several issues are
    reported at once.
    """

    def __init__(self, *problems: str):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems) if self.problems else "invalid configuration")


class SolverError(RuntimeError):
    """A linear solve or nonlinear iteration failed to converge.

    ``gap`` is the last convergence measure and ``history`` all of them,
    one per Newton step or sweep.
    """

    def __init__(self, message: str, stats=None, gap: float | None = None,
                 history: list[float] | None = None):
        super().__init__(message)
        self.stats = stats
        self.gap = gap
        self.history = history or []
