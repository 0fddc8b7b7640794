"""Exception types shared across the package."""


class DcaIdsError(Exception):
    """Base class for all package errors."""


class ParseError(DcaIdsError):
    """Malformed input data (bad field count, non-numeric continuous field, ...)."""


class ConfigurationError(DcaIdsError):
    """Invalid parameter or configuration file contents."""


class ReportError(DcaIdsError):
    """Report emission failed (unwritable destination, ...)."""


class WorkerError(DcaIdsError):
    """A worker process died before returning its results (killed by a
    signal, say)."""
