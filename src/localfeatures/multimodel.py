"""Multimodels: viewpoint models whose elements can bind subtrees of a
functional model's local feature models.

A functional model pairs one global feature model with named local feature
models. Each local model's tree is repeated inside the global model under a
feature of the same name (the "global copy"); construction checks the two
stay structurally identical. Applied-to declarations state which metaclass of
which viewpoint a local model can bind to. An element of a matching kind may
carry its own closed selection over the local model; elements without one
fall back to the global default, the restriction of the global selection to
the global copy's subtree.
"""

from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple

from .errors import (
    DuplicateBinding,
    InvalidSelection,
    KindMismatch,
    NotApplicable,
    TwinMismatch,
    UnknownElement,
    UnknownLocalModel,
    UnknownMetaclass,
)
from .features import (
    ClosureStep,
    Configuration,
    Feature,
    FeatureModel,
    close_selection,
    close_selection_traced,
    validate_configuration,
)
from .records import LEADING_FIELDS, Record, leading_repr
from .syntax import Span

_new = tuple.__new__  # builds a named tuple without a Python frame for its __new__


class ModelEntity(NamedTuple):
    """An element of a viewpoint model; kind names a metaclass."""

    name: str
    kind: str


class ViewpointModel(Record):
    """One system viewpoint: its metaclass vocabulary and elements."""

    name: str
    metaclasses: frozenset[str]
    entities: dict[str, ModelEntity]
    _fields = ("name", "metaclasses", "entities")
    _compared = 3

    def __init__(self, name: str, metaclasses: frozenset[str],
                 entities: dict[str, ModelEntity] | None = None):
        vars(self).update(name=name, metaclasses=metaclasses,
                          entities={} if entities is None else entities)


class AppliedToDeclaration(NamedTuple):
    """Local model <local_model> may bind elements of <viewpoint>.<metaclass>.
    span is the LOCAL line it was read from, if any."""

    local_model: str
    viewpoint: str
    metaclass: str
    span: Span | None = None

    _compared = 3
    __eq__, __ne__, __hash__ = LEADING_FIELDS
    __repr__ = leading_repr


class LocalBinding(NamedTuple):
    element: str
    local_model: str
    selection: Configuration
    trace: Mapping[str, ClosureStep]

    _compared = 3
    __eq__, __ne__, __hash__ = LEADING_FIELDS
    __repr__ = leading_repr


class FunctionalModel(Record):
    """One global feature model plus the local models repeated inside it."""

    global_model: FeatureModel
    locals: dict[str, FeatureModel]
    _fields = ("global_model", "locals")
    _compared = 2

    def __init__(self, global_model: FeatureModel,
                 locals: dict[str, FeatureModel] | None = None):
        vars(self).update(global_model=global_model,
                          locals={} if locals is None else locals)
        for name, local in self.locals.items():
            if name != local.root.name:
                raise TwinMismatch(
                    f"local model registered as {name!r} has root {local.root.name!r}", name)
            if name not in self.global_model:
                raise TwinMismatch(
                    f"local model {name!r} has no copy in the global model", name)
            _check_twin(self.global_model, local)


def _check_twin(global_model: FeatureModel, local: FeatureModel) -> None:
    copy_root = global_model.feature(local.root.name)
    _check_subtree(copy_root, local.root, local.name, is_root=True)

    names = local.feature_names  # the copy's subtree, now that the trees match
    global_cts = {(c.kind, c.lhs, c.rhs)
                  for c in global_model.constraints
                  if c.lhs in names and c.rhs in names}
    local_cts = {(c.kind, c.lhs, c.rhs) for c in local.constraints}
    if global_cts != local_cts:
        diff = global_cts ^ local_cts
        shown = ", ".join(f"{k} {a} {b}" for k, a, b in sorted(diff))
        raise TwinMismatch(
            f"local model {local.name!r} and its global copy disagree on constraints: {shown}",
            local.name)


def _check_subtree(copy: Feature, local: Feature, model: str, *, is_root: bool = False) -> None:
    if copy.name != local.name:
        raise TwinMismatch(
            f"local model {model!r}: global copy has {copy.name!r} where local has {local.name!r}",
            model)
    if not is_root and copy.kind != local.kind:
        raise TwinMismatch(
            f"local model {model!r}: feature {local.name!r} is {local.kind} locally "
            f"but {copy.kind} in the global copy", model)
    if copy.group != local.group:
        raise TwinMismatch(
            f"local model {model!r}: feature {local.name!r} has group {local.group!r} locally "
            f"but {copy.group!r} in the global copy", model)
    if len(copy.children) != len(local.children):
        copy_only = sorted({c.name for c in copy.children} - {c.name for c in local.children})
        local_only = sorted({c.name for c in local.children} - {c.name for c in copy.children})
        detail = "; ".join(
            part for part in (
                f"only in global copy: {', '.join(copy_only)}" if copy_only else "",
                f"only in local model: {', '.join(local_only)}" if local_only else "",
            ) if part)
        raise TwinMismatch(
            f"local model {model!r}: children of {local.name!r} differ ({detail})", model)
    for cc, lc in zip(copy.children, local.children):
        _check_subtree(cc, lc, model)


class Multimodel:
    """The assembled product model: viewpoints, applied-to declarations,
    per-element local bindings, and the product's global selection.

    Built single-threaded by a resolver; treat as immutable once resolved.
    The global selection is validated against the global model unless the
    caller opts out to keep collecting its own diagnostics.
    """

    def __init__(self,
                 functional: FunctionalModel,
                 viewpoints: dict[str, ViewpointModel] | None = None,
                 global_selection: Configuration | None = None,
                 validate: bool = True):
        self.functional = functional
        self.viewpoints: dict[str, ViewpointModel] = dict(viewpoints or {})
        if global_selection is None:
            global_selection = close_selection(functional.global_model, frozenset())
        self.global_selection: Configuration = frozenset(global_selection)
        if validate:
            report = validate_configuration(functional.global_model, self.global_selection)
            if not report.valid:
                raise InvalidSelection(
                    "global selection is invalid: "
                    + "; ".join(v.message for v in report.violations))
        # (local model, viewpoint, metaclass) -> declaration, in declaration order
        self._applied_to: dict[tuple[str, str, str], AppliedToDeclaration] = {}
        self._bindings: dict[tuple[str, str], LocalBinding] = {}
        self._closures: dict[tuple[str, Configuration], tuple] = {}  # -> selection, trace, report

    # -- structure ----------------------------------------------------------

    @property
    def applied_to(self) -> tuple[AppliedToDeclaration, ...]:
        return tuple(self._applied_to.values())

    @property
    def bindings(self) -> tuple[LocalBinding, ...]:
        return tuple(self._bindings.values())

    def element(self, qualified_name: str) -> ModelEntity:
        return self._locate(qualified_name)[1]

    def _locate(self, qualified_name: str) -> tuple[str, ModelEntity]:
        """The viewpoint and the element a qualified name names."""
        viewpoint, _, name = qualified_name.partition(".")
        vp = self.viewpoints.get(viewpoint)
        entity = None if vp is None else vp.entities.get(name)
        if entity is None:
            raise UnknownElement(f"no element {qualified_name!r} in the multimodel")
        return viewpoint, entity

    # -- construction -------------------------------------------------------

    def declare_applied_to(self, local_model: str, viewpoint: str, metaclass: str) -> Multimodel:
        """Record that a local model applies to a viewpoint metaclass. Idempotent."""
        if local_model not in self.functional.locals:
            raise UnknownLocalModel(f"no local feature model named {local_model!r}")
        vp = self.viewpoints.get(viewpoint)
        if vp is None:
            raise UnknownMetaclass(f"no viewpoint named {viewpoint!r}")
        if metaclass not in vp.metaclasses:
            raise UnknownMetaclass(
                f"viewpoint {viewpoint!r} declares no metaclass {metaclass!r}")
        key = (local_model, viewpoint, metaclass)
        if key not in self._applied_to:
            self._applied_to[key] = AppliedToDeclaration(*key)
        return self

    def bind_local(self, element: str, local_model: str,
                   seeds: Configuration | set[str]) -> Multimodel:
        """Bind an element to the closure of the seeds over a local model.

        The stored selection always contains the local root and must validate
        against the local model. One binding per (element, local model) pair;
        re-binding requires removing the old binding first.
        """
        local = self.functional.locals.get(local_model)
        if local is None:
            raise UnknownLocalModel(f"no local feature model named {local_model!r}")
        viewpoint, entity = self._locate(element)
        if (local_model, viewpoint, entity.kind) not in self._applied_to:
            raise KindMismatch(
                f"local model {local_model!r} is not applied to any metaclass "
                f"matching element {element!r} of kind {entity.kind!r}")
        key = (element, local_model)
        if key in self._bindings:
            raise DuplicateBinding(
                f"element {element!r} is already bound for local model {local_model!r}")
        seeds = frozenset(seeds)
        shared = (local_model, seeds)  # equal clauses share one closure
        if shared not in self._closures:
            selection, trace = close_selection_traced(local, seeds)
            self._closures[shared] = (selection, trace, validate_configuration(local, selection))
        selection, trace, report = self._closures[shared]
        if not report.valid:
            raise InvalidSelection(
                f"selection for {element!r} is invalid against {local_model!r}: "
                + "; ".join(v.message for v in report.violations))
        self._bindings[key] = _new(LocalBinding, (element, local_model, selection, trace))
        return self

    def remove_binding(self, element: str, local_model: str) -> Multimodel:
        try:
            del self._bindings[(element, local_model)]
        except KeyError:
            raise UnknownElement(
                f"no binding of {element!r} for local model {local_model!r}") from None
        return self

    # -- queries ------------------------------------------------------------

    def binding(self, element: str, local_model: str) -> LocalBinding | None:
        return self._bindings.get((element, local_model))

    def global_default(self, local_model: str) -> Configuration:
        """Restriction of the global selection to the local model's global
        copy, whose names are the local model's; always contains the local root."""
        local = self.functional.locals.get(local_model)
        if local is None:
            raise UnknownLocalModel(f"no local feature model named {local_model!r}")
        return (self.global_selection & local.feature_names) | {local.root.name}

    def effective_configuration(self, element: str, local_model: str) -> Configuration:
        """The element's binding if one exists, else the global default."""
        viewpoint, entity = self._locate(element)
        if (local_model, viewpoint, entity.kind) not in self._applied_to:
            raise NotApplicable(
                f"local model {local_model!r} does not apply to element {element!r} "
                f"of kind {entity.kind!r}")
        bound = self._bindings.get((element, local_model))
        if bound is not None:
            return bound.selection
        return self.global_default(local_model)

    def covered_elements(self) -> Iterator[tuple[str, str]]:
        """Yield (qualified element name, local model) for every element
        matched by some applied-to declaration, in declaration order."""
        for decl in self._applied_to.values():
            vp = self.viewpoints.get(decl.viewpoint)
            if vp is None:
                continue
            for entity in vp.entities.values():
                if entity.kind == decl.metaclass:
                    yield f"{vp.name}.{entity.name}", decl.local_model

    def included_features(self) -> tuple[str, ...]:
        """Every feature the derived product includes: the global selection
        plus the effective configuration of every covered element, mapped onto
        the global namespace (names coincide by the twin invariant). Sorted."""
        included = set(self.global_selection)
        for element, local_model in self.covered_elements():
            included |= self.effective_configuration(element, local_model)
        return tuple(sorted(included))
