"""Exception types shared across the package."""


class NotPositiveDefinite(ValueError):
    """Matrix passed to an SPD routine is not (numerically) positive definite."""


class RankDeficient(ValueError):
    """Design matrix does not have full column rank."""


class DomainError(ValueError):
    """Scalar argument outside its mathematical domain."""


class DimensionError(ValueError):
    """Sample size / dimension combination outside a formula's domain."""


class LeverageOne(ValueError):
    """A leverage value is numerically 1, so a deleted residual is undefined."""


class DegenerateNeighbors(ValueError):
    """Requested more nearest neighbors than available training points."""


class ConfigError(ValueError):
    """Invalid study configuration; ``field`` names the offending entry."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        if field is not None:
            message = f"config field '{field}': {message}"
        super().__init__(message)


class ParseError(ValueError):
    """Malformed input data file; ``row`` is the offending 1-based row."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class ReplicateError(RuntimeError):
    """A Monte Carlo replicate failed; records the seed needed to reproduce it."""

    def __init__(self, replicate: int, seed: int, cause: BaseException):
        self.replicate = replicate
        self.seed = seed
        super().__init__(
            f"replicate {replicate} (master seed {seed}) failed: {cause!r}"
        )
