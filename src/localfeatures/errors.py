"""Exception hierarchy shared by every module of the package."""

from __future__ import annotations


class LocalFeaturesError(Exception):
    """Base class for all errors raised by this package. A parser that
    raises an error found while building what it read sets span to the
    source range that error is about."""

    span = None


# ---------------------------------------------------------------------------
# Feature model construction and use
# ---------------------------------------------------------------------------

class FeatureModelError(LocalFeaturesError):
    """A feature model declaration or query is ill-formed. feature and
    constraint name the feature and the cross-tree constraint it is about,
    when there are such."""

    def __init__(self, message: str, feature: str | None = None, constraint=None):
        super().__init__(message)
        self.feature = feature
        self.constraint = constraint


class InvalidFeatureName(FeatureModelError):
    pass


class DuplicateFeatureName(FeatureModelError):
    pass


class DanglingConstraintEndpoint(FeatureModelError):
    pass


class SelfConstraint(FeatureModelError):
    pass


class GroupTooSmall(FeatureModelError):
    pass


class UnknownFeature(FeatureModelError):
    """A selection names a feature the model does not contain."""


class ModelTooLarge(FeatureModelError):
    """Exhaustive enumeration refused beyond the feature-count cap."""


# ---------------------------------------------------------------------------
# Multimodel
# ---------------------------------------------------------------------------

class MultimodelError(LocalFeaturesError):
    pass


class TwinMismatch(MultimodelError):
    """A local feature model and its global copy are not structurally
    identical; model is the local model's name."""

    def __init__(self, message: str, model: str):
        super().__init__(message)
        self.model = model


class UnknownLocalModel(MultimodelError):
    pass


class UnknownMetaclass(MultimodelError):
    pass


class UnknownElement(MultimodelError):
    pass


class EntityNameMismatch(MultimodelError):
    """An element or a viewpoint is listed under a name other than its own."""


class KindMismatch(MultimodelError):
    """No applied-to declaration covers this element kind and local model."""


class InvalidSelection(MultimodelError):
    """A binding's closed selection does not validate against its local model."""


class DuplicateBinding(MultimodelError):
    """The (element, local model) pair is already bound; re-binding requires removal."""


class NotApplicable(MultimodelError):
    """The element is not covered by any applied-to declaration for the model."""


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class ParseError(LocalFeaturesError):
    """A syntax error with a source position, the token kinds expected there,
    and the half-open character range [start, end) of the text it blames."""

    def __init__(self, message: str, line: int, column: int,
                 expected: tuple[str, ...] = (), start: int = 0, end: int = 0):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        self.start = start
        self.end = end

    @classmethod
    def at(cls, message: str, where, expected: tuple[str, ...] = ()) -> ParseError:
        """The error blaming where, a Span."""
        return cls(message, where.line, where.column, expected, where.start, where.end)

    def __str__(self) -> str:
        pos = f"{self.line}:{self.column}"
        if self.expected:
            return f"{pos}: {self.message} (expected {', '.join(self.expected)})"
        return f"{pos}: {self.message}"


class DuplicateFlag(ParseError):
    pass


class MultipleProducts(ParseError):
    pass


class MissingProduct(ParseError):
    def __init__(self, message: str = "specification declares no product"):
        super().__init__(message, 1, 1)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

class UnresolvedErrors(LocalFeaturesError):
    """Emission refused while error-severity diagnostics are present."""


class UnsupportedSchema(LocalFeaturesError):
    """A JSON schema uses a keyword or form the schema compiler does not check."""
