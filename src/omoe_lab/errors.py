"""Exception types shared across the package."""


class ContractViolation(ValueError):
    """An operation was called with inputs that break its contract."""


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""


class DataLoadError(ValueError):
    """A dataset file could not be parsed; message carries row/column coordinates."""
