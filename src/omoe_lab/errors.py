"""Exception types shared across the package."""


class ContractViolation(ValueError):
    """An operation was called with inputs that break its contract."""


class SingularMatrixError(ContractViolation):
    """SPD factorization hit a non-positive pivot."""

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(f"non-positive pivot at index {pivot_index} during Cholesky factorization")


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""


class DataLoadError(ValueError):
    """A dataset file could not be parsed; message carries row/column coordinates."""
