"""Exception hierarchy for the pipeline.

Errors are typed where they are raised: a range check raises ``ConfigError``
when a parameter is out of range and ``DataError`` when the data is too small
for the request. Both are also ``ValueError``s, so callers that catch
``ValueError`` keep working. Internal invariants stay plain ``ValueError``.

The CLI maps exception classes to exit codes, only in ``cli.main``:
configuration problems exit with 2, data problems with 3, numeric failures
(non-finite loss) with 4.
"""


class CovertDecodeError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(CovertDecodeError, ValueError):
    """Invalid configuration: unknown keys, bad values, impossible requests."""

    exit_code = 2


class FilterDesignError(ConfigError):
    """The requested filter cannot be realized (bad cutoffs, unstable design)."""


class DataError(CovertDecodeError, ValueError):
    """Input data violates a precondition or is malformed."""

    exit_code = 3


class FileFormatError(DataError):
    """A data file has the wrong magic, version, or layout."""


class EpochingError(DataError):
    """Signal too short for the requested filtering or epoching."""


class DegenerateInputError(DataError):
    """Rank-deficient input (e.g. duplicated channels) where full rank is required."""


class NumericError(CovertDecodeError):
    """Non-finite values appeared where finite arithmetic is required."""

    exit_code = 4
