"""Exception hierarchy shared by the library and the command line tool.

Every error carries an ``exit_code`` so that CLI failures map onto a stable,
scriptable code: 1 I/O and malformed input, 2 excitation failure, 3 not
enough data (rank deficiency, unusable records, inconsistent past windows,
non-unique completions), 4 certification or Riccati failure, 5 undetermined
model order.
"""


class DdltiError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class InputError(DdltiError, ValueError):
    """Rejected input: dimension mismatch, bad argument, parse failure."""


class ParseError(InputError):
    """A data file could not be parsed."""


class DepthTooLargeError(InputError):
    """Requested Hankel depth exceeds the length of a segment."""


class ExcitationError(DdltiError):
    """Input data is not (collectively) persistently exciting enough."""

    exit_code = 2


class InsufficientDataError(DdltiError):
    """Data matrices are rank deficient or carry no usable samples."""

    exit_code = 3


class NoUsableDataError(InsufficientDataError):
    """Every contiguous run of complete samples is shorter than required."""


class InconsistentPastError(InsufficientDataError):
    """A past window cannot be explained by the data dictionary."""


class CertificationError(DdltiError):
    """A computed solution failed its data-side certificate."""

    exit_code = 4


class RiccatiDivergenceError(CertificationError):
    """The Riccati solve broke down, overflowed, stalled, or ran out of doubling steps."""


class OrderUndeterminedError(DdltiError):
    """The model order cannot be decided from the data."""

    exit_code = 5


class OrderInfeasibleError(OrderUndeterminedError):
    """The requested realization order exceeds the numerical rank of the data."""
