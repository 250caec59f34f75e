"""Emitted bytes pinned by digest, and each emitter template against json.dumps.

The digests were recorded from the dict-free writer and agree with the
json.dumps oracle of test_emitter.py; they hold without it, so a change to
the writer and the oracle together still shows here.
"""

import hashlib
import json
from json.encoder import encode_basestring

import pytest

from localfeatures import emit, parse, resolve
from localfeatures import emitter

from generators import scale_spec_text


@pytest.mark.parametrize("source, size, digest", [
    (None, 4874, "89e3994ffd24b030ab04d7d71834215058c1a7f7799d654a711f0c331daf51d8"),
    (3, 364256, "6aef51ff8e488c67b84d91f2f487e9e4f75a0c1002f3920a2126f669b2308294"),
], ids=["webeiel", "scale-3"])
def test_emitted_bytes_are_pinned(source, size, digest, webeiel_resolved, gis_definition):
    # webeiel.gis has both kinds of relationship and a CENTER
    resolved = (webeiel_resolved if source is None
                else resolve(parse(scale_spec_text(source)), gis_definition))
    data = emit(resolved).encode("utf-8")
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


# Each template, where its object sits in the document and its keys, here in
# no particular order. An object at a path of n steps starts on a line that
# json.dumps(indent=2) indents by 2n spaces.
TEMPLATES = {
    "_DOCUMENT": ((), ["schemaVersion", "product", "features", "data", "visualization",
                       "bindings"]),
    "_DATA": (("data",), ["entities"]),
    "_VISUALIZATION": (("visualization",), ["maps", "layers"]),
    "_ENTITY": (("data", "entities", 0), ["properties", "name"]),
    "_PROPERTY": (("data", "entities", 0, "properties", 0), ["name", "type", "flags"]),
    "_RELATED_PROPERTY": (("data", "entities", 0, "properties", 0),
                          ["name", "type", "flags", "relationship"]),
    "_MAPPED_BY": (("data", "entities", 0, "properties", 0, "relationship"), ["mappedBy"]),
    "_CARDINALITIES": (("data", "entities", 0, "properties", 0, "relationship"),
                       ["cardinalities", "bidirectional"]),
    "_LAYER": (("visualization", "layers", 0),
               ["name", "displayName", "entity", "source", "styles"]),
    "_STYLE": (("visualization", "layers", 0, "styles", 0), ["name", "default"]),
    "_MAP": (("visualization", "maps", 0), ["name", "displayName", "layers"]),
    "_CENTERED_MAP": (("visualization", "maps", 0), ["name", "displayName", "center", "layers"]),
    "_LAYER_REF": (("visualization", "maps", 0, "layers", 0), ["layer", "flags"]),
}


@pytest.mark.parametrize("name", TEMPLATES)
def test_each_template_is_what_json_dumps_writes_at_its_depth(name):
    path, keys = TEMPLATES[name]
    values = {key: f"<{key}>" for key in keys}
    expected = json.dumps(values, indent=2, sort_keys=True).replace(
        "\n", "\n" + "  " * len(path))
    if not path:
        expected += "\n"
    template = getattr(emitter, name)
    assert template % tuple(encode_basestring(values[k]) for k in sorted(keys)) == expected


def test_every_template_is_checked():
    names = {name for name, value in vars(emitter).items()
             if name.startswith("_") and name.isupper() and isinstance(value, str)}
    assert names == set(TEMPLATES)
