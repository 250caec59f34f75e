"""Exception hierarchy shared by every module of the package."""

from __future__ import annotations

from .syntax import _NO_SPAN, Span


class LocalFeaturesError(Exception):
    """Base class for all errors raised by this package. span is the source
    range an error is about: every ParseError has one, and a parser that
    raises another error, found while building what it read, sets it."""

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
    """A syntax error: its message, the span of the text it blames and the
    token kinds expected there. start, end, line and column are the span's."""

    def __init__(self, message: str, span: Span, expected: tuple[str, ...] = ()):
        super().__init__(message)
        self.message = message
        self.span = span
        self.expected = tuple(expected)
        self.start, self.end, self.line, self.column = span

    def detail(self) -> str:
        """The message, followed by the kinds expected if there are any."""
        if self.expected:
            return f"{self.message} (expected {', '.join(self.expected)})"
        return self.message

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.detail()}"


class DuplicateFlag(ParseError):
    pass


class MultipleProducts(ParseError):
    pass


class MissingProduct(ParseError):
    def __init__(self, message: str = "specification declares no product"):
        super().__init__(message, _NO_SPAN)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

class UnresolvedErrors(LocalFeaturesError):
    """Emission refused while error-severity diagnostics are present."""


class UnsupportedSchema(LocalFeaturesError):
    """A JSON schema uses a keyword or form the schema compiler does not check."""
