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

from . import errors
from .emitter import derivation_config, emit, verify_schema
from .features import (
    Configuration,
    CrossTreeConstraint,
    Feature,
    FeatureModel,
    RuleViolation,
    ValidationReport,
    build_feature_model,
    close_selection,
    close_selection_traced,
    enumerate_configurations,
    excludes,
    mandatory,
    optional,
    requires,
    validate_configuration,
)
from .multimodel import (
    AppliedToDeclaration,
    FunctionalModel,
    LocalBinding,
    ModelEntity,
    Multimodel,
    ViewpointModel,
)
from .parser import parse, parse_statement
from .printer import format_spec
from .resolver import Diagnostic, Provenance, ResolvedProduct, explain, resolve
from .spldef import SplDefinition, format_spl, parse_spl_definition

__version__ = "0.1.0"

__all__ = [
    "AppliedToDeclaration",
    "Configuration",
    "CrossTreeConstraint",
    "Diagnostic",
    "Feature",
    "FeatureModel",
    "FunctionalModel",
    "LocalBinding",
    "ModelEntity",
    "Multimodel",
    "Provenance",
    "ResolvedProduct",
    "RuleViolation",
    "SplDefinition",
    "ValidationReport",
    "ViewpointModel",
    "build_feature_model",
    "close_selection",
    "close_selection_traced",
    "derivation_config",
    "emit",
    "enumerate_configurations",
    "errors",
    "excludes",
    "explain",
    "format_spec",
    "format_spl",
    "mandatory",
    "optional",
    "parse",
    "parse_spl_definition",
    "parse_statement",
    "requires",
    "resolve",
    "validate_configuration",
    "verify_schema",
]
