"""Multimodels: viewpoint models whose elements can bind subtrees of a
functional model's local feature models.

A functional model pairs one global feature model with named local feature
models. Each local model's tree is repeated inside the global model under a
feature of the same name (the "global copy"); construction checks the two
stay structurally identical. Applied-to declarations state which metaclass of
which viewpoint a local model can bind to: the elements it covers. A covered
element may carry one closed selection over the local model, bound once;
elements without one fall back to the global default, the restriction of the
global selection to the global copy's subtree: one object per local model,
computed once, when the global selection is fixed at construction.

Placed elements and bindings grow with the product, so neither is kept as
an object per element, which the cyclic collector would track and walk on
every full collection. A viewpoint stores each element as its kind, in a
dict of strings; a binding is stored as the (selection, trace, report)
closure that every binding of equal seeds over the same local model shares.
Only Multimodel decides which elements share a configuration. ModelEntity
and LocalBinding values are built when they are read: by
ViewpointModel.entities, Multimodel.element(), Multimodel.binding() and
Multimodel.bindings.
"""

from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple

from .errors import (
    DuplicateBinding,
    EntityNameMismatch,
    InvalidSelection,
    KindMismatch,
    TwinMismatch,
    UnknownElement,
    UnknownLocalModel,
    UnknownMetaclass,
)
from .features import (
    ClosureStep,
    Configuration,
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
    """One system viewpoint: its metaclass vocabulary and elements.

    Stored: kinds, each element's name mapped to its metaclass. A dict whose
    keys and values are all strings is never tracked by the cyclic
    collector, however many elements it holds. Built on read: entities,
    a fresh dict of ModelEntity values each time, which equality and repr
    use. Each entity given must be keyed by its own name and be of one of
    the metaclasses (EntityNameMismatch, UnknownMetaclass otherwise).
    """

    name: str
    metaclasses: frozenset[str]
    kinds: dict[str, str]
    _fields = ("name", "metaclasses", "entities")
    _compared = 3

    def __init__(self, name: str, metaclasses: frozenset[str],
                 entities: dict[str, ModelEntity] | None = None):
        kinds: dict[str, str] = {}
        for key, entity in (entities or {}).items():
            if key != entity.name:
                raise EntityNameMismatch(
                    f"viewpoint {name!r} lists element {entity.name!r} under {key!r}")
            if entity.kind not in metaclasses:
                raise UnknownMetaclass(f"viewpoint {name!r} lists element {key!r} "
                                       f"of undeclared metaclass {entity.kind!r}")
            kinds[key] = entity.kind
        vars(self).update(name=name, metaclasses=metaclasses, kinds=kinds)

    @property
    def entities(self) -> dict[str, ModelEntity]:
        return {name: _new(ModelEntity, (name, kind)) for name, kind in self.kinds.items()}


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
    """Raise TwinMismatch unless local's copy in global_model repeats it. The two
    preorders stay aligned up to the first feature whose children differ."""
    model = local.name
    start = global_model.position[local.root.name]
    copies = global_model.features[start:global_model.end[start]]
    for i, (copy, f) in enumerate(zip(copies, local.features)):
        if copy.name != f.name:
            raise TwinMismatch(
                f"local model {model!r}: global copy has {copy.name!r} where local has {f.name!r}",
                model)
        if i and copy.kind != f.kind:
            raise TwinMismatch(
                f"local model {model!r}: feature {f.name!r} is {f.kind} locally "
                f"but {copy.kind} in the global copy", model)
        if copy.group != f.group:
            raise TwinMismatch(
                f"local model {model!r}: feature {f.name!r} has group {f.group!r} locally "
                f"but {copy.group!r} in the global copy", model)
        if len(copy.children) != len(f.children):
            copy_only = sorted({c.name for c in copy.children} - {c.name for c in f.children})
            local_only = sorted({c.name for c in f.children} - {c.name for c in copy.children})
            detail = "; ".join(
                part for part in (
                    f"only in global copy: {', '.join(copy_only)}" if copy_only else "",
                    f"only in local model: {', '.join(local_only)}" if local_only else "",
                ) if part)
            raise TwinMismatch(
                f"local model {model!r}: children of {f.name!r} differ ({detail})", model)

    names = local.feature_names  # the copy's subtree, now that the trees match
    global_cts = {(c.kind, c.lhs, c.rhs)
                  for c in global_model.constraints
                  if c.lhs in names and c.rhs in names}
    local_cts = {(c.kind, c.lhs, c.rhs) for c in local.constraints}
    if global_cts != local_cts:
        diff = global_cts ^ local_cts
        shown = ", ".join(f"{k} {a} {b}" for k, a, b in sorted(diff))
        raise TwinMismatch(
            f"local model {model!r} and its global copy disagree on constraints: {shown}",
            model)


class Multimodel:
    """The assembled product model: viewpoints, applied-to declarations,
    per-element local bindings, and the product's global selection.
    Applied-to declarations are kept as (local model, viewpoint, metaclass)
    keys: the one coverage test that binding and reading both run.

    Built single-threaded by a resolver; treat as immutable once resolved.
    The global selection is fixed at construction, where each local model's
    global default is computed once. It is validated against the global
    model unless the caller opts out to keep collecting its own diagnostics.
    Each viewpoint must be listed under its own name (EntityNameMismatch).
    """

    def __init__(self,
                 functional: FunctionalModel,
                 viewpoints: dict[str, ViewpointModel] | None = None,
                 global_selection: Configuration | None = None,
                 validate: bool = True):
        self.functional = functional
        self.viewpoints: dict[str, ViewpointModel] = dict(viewpoints or {})
        for key, vp in self.viewpoints.items():
            if key != vp.name:
                raise EntityNameMismatch(f"multimodel lists viewpoint {vp.name!r} under {key!r}")
        if global_selection is None:
            global_selection = close_selection(functional.global_model, frozenset())
        self.global_selection: Configuration = frozenset(global_selection)
        if validate:
            report = validate_configuration(functional.global_model, self.global_selection)
            if not report.valid:
                raise InvalidSelection(
                    "global selection is invalid: "
                    + "; ".join(v.message for v in report.violations))
        self._defaults: dict[str, Configuration] = {
            name: (self.global_selection & local.feature_names) | {local.root.name}
            for name, local in functional.locals.items()}
        # (local model, viewpoint, metaclass) of each declaration, in declaration order
        self._applied_to: dict[tuple[str, str, str], None] = {}
        self._closures: dict[tuple[str, Configuration], tuple] = {}  # -> selection, trace, report
        # (element, local model) -> the _closures entry of the seeds it was bound to
        self._bindings: dict[tuple[str, str], tuple] = {}

    # -- structure ----------------------------------------------------------

    @property
    def bindings(self) -> tuple[LocalBinding, ...]:
        """Every binding, in the order the elements were bound."""
        return tuple(_new(LocalBinding, (element, local_model, selection, trace))
                     for (element, local_model), (selection, trace, _) in self._bindings.items())

    def element(self, qualified_name: str) -> ModelEntity:
        _, name, kind = self._locate(qualified_name)
        return _new(ModelEntity, (name, kind))

    def _locate(self, qualified_name: str) -> tuple[str, str, str]:
        """The viewpoint, name and kind of the element a qualified name names."""
        viewpoint, _, name = qualified_name.partition(".")
        vp = self.viewpoints.get(viewpoint)
        kind = None if vp is None else vp.kinds.get(name)
        if kind is None:
            raise UnknownElement(f"no element {qualified_name!r} in the multimodel")
        return viewpoint, name, kind

    def _check_covered(self, element: str, local_model: str) -> None:
        """Raise KindMismatch unless the local model covers the element."""
        viewpoint, _, kind = self._locate(element)
        if (local_model, viewpoint, kind) not in self._applied_to:
            raise KindMismatch(
                f"local model {local_model!r} is not applied to any metaclass "
                f"matching element {element!r} of kind {kind!r}")

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
        self._applied_to[local_model, viewpoint, metaclass] = None
        return self

    def bind_local(self, element: str, local_model: str,
                   seeds: Configuration | set[str]) -> Configuration:
        """Bind an element to the closure of the seeds over a local model and
        return that closed selection, one object for equal seeds over a model.

        The stored selection always contains the local root and must validate
        against the local model. A binding is made once: a second one for the
        same (element, local model) pair is a DuplicateBinding.
        """
        local = self.functional.locals.get(local_model)
        if local is None:
            raise UnknownLocalModel(f"no local feature model named {local_model!r}")
        self._check_covered(element, local_model)
        key = (element, local_model)
        if key in self._bindings:
            raise DuplicateBinding(
                f"element {element!r} is already bound for local model {local_model!r}")
        seeds = frozenset(seeds)
        shared = (local_model, seeds)  # equal clauses share one closure
        if shared not in self._closures:
            selection, trace = close_selection_traced(local, seeds)
            self._closures[shared] = (selection, trace, validate_configuration(local, selection))
        closure = self._closures[shared]
        selection, _, report = closure
        if not report.valid:
            raise InvalidSelection(
                f"selection for {element!r} is invalid against {local_model!r}: "
                + "; ".join(v.message for v in report.violations))
        self._bindings[key] = closure
        return selection

    # -- queries ------------------------------------------------------------

    def binding(self, element: str, local_model: str) -> LocalBinding | None:
        closure = self._bindings.get((element, local_model))
        if closure is None:
            return None
        return _new(LocalBinding, (element, local_model, *closure[:2]))

    def global_default(self, local_model: str) -> Configuration:
        """Restriction of the global selection to the local model's global
        copy, plus the local root: one object, made at construction."""
        default = self._defaults.get(local_model)
        if default is None:
            raise UnknownLocalModel(f"no local feature model named {local_model!r}")
        return default

    def covering(self, viewpoint: str, metaclass: str) -> list[str]:
        """The local models applied to a viewpoint's metaclass, in declaration
        order. Each covers every element of the metaclass."""
        return [local_model for local_model, vp, mc in self._applied_to
                if vp == viewpoint and mc == metaclass]

    def effective_configuration(self, element: str, local_model: str) -> Configuration:
        """The element's binding if one exists, else the global default."""
        self._check_covered(element, local_model)
        closure = self._bindings.get((element, local_model))
        if closure is not None:
            return closure[0]
        return self.global_default(local_model)

    def covered_elements(self) -> Iterator[tuple[str, str]]:
        """Yield (qualified element name, local model) for every element
        matched by some applied-to declaration, in declaration order."""
        for local_model, viewpoint, metaclass in self._applied_to:
            for name, kind in self.viewpoints[viewpoint].kinds.items():
                if kind == metaclass:
                    yield f"{viewpoint}.{name}", local_model

    def included_features(self) -> tuple[str, ...]:
        """Every feature the derived product includes: the global selection
        plus the effective configuration of every covered element, mapped onto
        the global namespace (names coincide by the twin invariant). Sorted."""
        included = set(self.global_selection)
        for element, local_model in self.covered_elements():
            included |= self.effective_configuration(element, local_model)
        return tuple(sorted(included))
