"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 64, every other
AvMatchError (DataError, ShapeError, ContractError) -> 2.
"""


class AvMatchError(Exception):
    """Base class for all package errors."""


class ShapeError(AvMatchError, ValueError):
    """Tensor or layer received incompatibly shaped operands."""


class ContractError(AvMatchError, ValueError):
    """An operation precondition was violated (empty batch, non-scalar loss, ...)."""


class ConfigError(AvMatchError, ValueError):
    """Invalid configuration value or conflicting options."""


class DataError(AvMatchError, ValueError):
    """Malformed or unusable input data (files, streams, manifests)."""
