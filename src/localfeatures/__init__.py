"""Variability modeling with element-local feature bindings.

The package covers the whole pipeline: feature models and configuration
semantics (features), viewpoint multimodels with per-element bindings
(multimodel), the product specification DSL and the product line definition
format with parsers and canonical printers (parser, printer, spldef),
specification resolution with diagnostics and provenance (resolver), and
deterministic derivation-config emission (emitter) with a standard-library
schema check (schemacheck). A small CLI fronts it (cli, installed as
``lfc``).
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the module it comes from. The module is imported on
# first use of one of its names (PEP 562), so `import localfeatures` loads
# no submodule and `lfc` loads only the layers its command runs.
_EXPORTS = {
    "emitter": ("emit", "verify_schema"),
    "features": (
        "Configuration", "CrossTreeConstraint", "Feature", "FeatureModel",
        "RuleViolation", "ValidationReport", "build_feature_model",
        "close_selection", "close_selection_traced", "enumerate_configurations",
        "excludes", "mandatory", "optional", "requires", "validate_configuration",
    ),
    "multimodel": (
        "AppliedToDeclaration", "FunctionalModel", "LocalBinding", "ModelEntity",
        "Multimodel", "ViewpointModel",
    ),
    "parser": ("parse", "parse_statement"),
    "printer": ("format_spec",),
    "resolver": ("Diagnostic", "Provenance", "ResolvedProduct", "explain", "resolve"),
    "spldef": ("SplDefinition", "format_spl", "parse_spl_definition"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, "errors"])


def __getattr__(name: str):
    if name == "errors":  # importing a submodule binds it here
        return import_module(".errors", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
