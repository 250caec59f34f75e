import os
from importlib import resources
from pathlib import Path

import pytest

import localfeatures
from localfeatures import parse, parse_spl_definition, resolve

FIXTURES = Path(__file__).parent / "fixtures"


def packaged(name: str) -> str:
    return (resources.files("localfeatures") / "data" / name).read_text()


@pytest.fixture(scope="session")
def webeiel_source() -> str:
    return packaged("webeiel.gis")


@pytest.fixture(scope="session")
def gis_spl_source() -> str:
    return packaged("gis.spl")


@pytest.fixture(scope="session")
def webeiel_spec(webeiel_source):
    return parse(webeiel_source, filename="webeiel.gis")


@pytest.fixture(scope="session")
def gis_definition(gis_spl_source):
    return parse_spl_definition(gis_spl_source, filename="gis.spl")


@pytest.fixture(scope="session")
def webeiel_resolved(webeiel_spec, gis_definition):
    return resolve(webeiel_spec, gis_definition)


@pytest.fixture(scope="session")
def ecommerce_source() -> str:
    return (FIXTURES / "ecommerce.spl").read_text()


@pytest.fixture(scope="session")
def ecommerce_definition(ecommerce_source):
    return parse_spl_definition(ecommerce_source, filename="ecommerce.spl")


@pytest.fixture(scope="session")
def ecommerce_on_entities(ecommerce_source):
    """ecommerce.spl with its local model applied to data.Entity. As shipped
    it applies to catalog.Category, which no specification construct places,
    so nothing can bind it; and gis.spl's local models have no group or
    excludes that a closed clause can break. This variant is what reaches
    invalid-selection."""
    source = ecommerce_source.replace(
        "VIEWPOINT catalog (Category, CategoryComposite);",
        "VIEWPOINT data (Entity);\nVIEWPOINT visualization (Map, Layer, LayerInMap);",
    ).replace("APPLIED TO catalog.Category", "APPLIED TO data.Entity")
    return parse_spl_definition(source, filename="ecommerce-entities.spl")


@pytest.fixture(scope="session")
def package_env() -> dict[str, str]:
    """The environment for a child interpreter that imports this package."""
    env = dict(os.environ)
    parent = str(Path(localfeatures.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [parent, env.get("PYTHONPATH")]))
    return env
