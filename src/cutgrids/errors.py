"""Exception taxonomy shared across the package."""


class ArtifactError(Exception):
    """Base class for all domain errors raised by this package."""


class ArgumentError(ArtifactError, ValueError):
    """A caller violated an operation's precondition."""


class NotComposableError(ArtifactError, KeyError):
    """A composite was asked of two arrows that do not compose; a KeyError
    too, so a then-table computed on demand reads as a missing entry."""


class ValidationError(ArtifactError):
    """Structured data failed its well-formedness checks."""


class UnsupportedDimensionError(ArtifactError):
    """The operation is only defined in lower dimensions."""


class OverlapError(ArtifactError):
    """Ambient pieces overlap where disjointness is required."""


class NeighborhoodError(ArtifactError):
    """A requested neighborhood does not fit inside the ambient."""


class UnsupportedFieldError(ArtifactError):
    """The bordism's field datum does not support this operation."""


class NotDirectlyConstructibleError(ArtifactError):
    """The requested construction only exists after a fibrant-style completion."""


class DocumentSyntaxError(ArtifactError):
    """A document failed to parse."""

    def __init__(self, message: str, line=None, column=None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class DocumentEncodingError(ArtifactError, TypeError):
    """A value has no place in a document's JSON tree; a TypeError too, as
    json.dumps raises for a value it cannot write."""


class DocumentValidationError(ValidationError):
    """A parsed document's payload failed semantic validation; the
    full report rides along on ``.report``."""

    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report
