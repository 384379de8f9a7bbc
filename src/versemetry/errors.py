"""Exception types shared across the toolkit."""


class VersemetryError(Exception):
    """Base class for all toolkit errors."""


class CorpusError(VersemetryError):
    """Fatal problem with corpus files: missing data, malformed annotations,
    inconsistent part ranges."""


class AnalysisError(VersemetryError):
    """An analysis was asked to run on degenerate or insufficient input."""


class InputError(VersemetryError, ValueError):
    """A parameter outside its valid range, such as a window width below 1.

    It is a ``ValueError`` too, so callers that catch ``ValueError`` from
    these parameter checks keep working."""
