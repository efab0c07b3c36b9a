"""Exception types shared across the detection post-processing pipeline."""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateInterval(PipelineError):
    """An interval is empty or inverted (start >= end)."""


class InvalidConfig(PipelineError):
    """A configuration object violates its invariants."""


class ParseError(PipelineError):
    """A file, value or class index failed to parse or lies outside its domain.

    An optional line number or key name is appended to the message, as
    ``(line N, key 'k')``, so CLI error messages point at the offending input.
    """

    def __init__(self, message, *, line=None, key=None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if key is not None:
            loc.append(f"key {key!r}")
        super().__init__(f"{message} ({', '.join(loc)})" if loc else message)
