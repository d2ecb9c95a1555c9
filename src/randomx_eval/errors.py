"""Exception types shared across the package."""


class NumericError(ValueError):
    """A numerical failure on valid input: the CLI exits 3 on it, 2 on any other ValueError."""


class NotPositiveDefinite(NumericError):
    """Matrix passed to an SPD routine is not (numerically) positive definite."""


class RankDeficient(NumericError):
    """Design matrix does not have full column rank."""


class DomainError(NumericError):
    """Scalar argument outside its mathematical domain."""


class DimensionError(ValueError):
    """Sample size / dimension combination outside a formula's domain: an input error."""


class LeverageOne(NumericError):
    """A leverage value is numerically 1, so a deleted residual is undefined."""


class DegenerateNeighbors(NumericError):
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
    """A Monte Carlo replicate failed; ``seed``, ``replicate`` and ``scenario`` reproduce it."""

    def __init__(self, replicate: int, seed: int, cause: BaseException, scenario=None):
        self.replicate = replicate
        self.seed = seed
        self.scenario = scenario
        cell = "" if scenario is None else f" of scenario {scenario!r}"
        super().__init__(f"replicate {replicate}{cell} (master seed {seed}) failed: {cause!r}")
