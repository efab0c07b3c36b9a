"""Exception types shared across the detection post-processing pipeline."""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateInterval(PipelineError):
    """An interval is empty or inverted (start >= end)."""


class InvalidOverlap(PipelineError):
    """Window overlap fraction outside [0, 1)."""


class ActionIdOutOfRange(PipelineError):
    """A flat action id lies outside the noun x verb action space."""


class InvalidConfig(PipelineError):
    """A configuration object violates its invariants."""


class ParseError(PipelineError):
    """A file or value failed to parse.

    Carries optional location context (line number or key name) so CLI
    error messages can point at the offending input.
    """

    def __init__(self, message, *, line=None, key=None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if key is not None:
            loc.append(f"key {key!r}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.line = line
        self.key = key


class UnknownKey(ParseError):
    """A configuration file contains a key the pipeline does not define."""


class VocabularyMismatch(ParseError):
    """A class index lies outside the declared vocabulary."""


class SchemaMismatch(PipelineError):
    """A JSON document does not follow the expected schema."""
