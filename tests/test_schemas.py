"""The documented input schemas in ``docs/schemas/`` hold for every input that
the package ships and every golden input: the bundled taxonomy, catalog and
fixture spec, the golden taxonomy, catalog and specs, and every golden JSON
corpus that a command reads or ``generate`` writes."""

import json
from pathlib import Path

import jsonschema
import pytest

from influenceops.resources import bundled_data_path

SCHEMAS = Path(__file__).parents[1] / "docs" / "schemas"
GOLDEN = Path(__file__).parent / "golden"

INPUTS = [
    ("taxonomy", bundled_data_path("taxonomy.json")),
    ("catalog", bundled_data_path("catalog.json")),
    ("generator_spec", bundled_data_path("fixture_spec.json")),
    ("taxonomy", GOLDEN / "escaped_taxonomy.json"),
    ("catalog", GOLDEN / "escaped_catalog.json"),
    *(("generator_spec", path) for path in sorted(GOLDEN.glob("*spec*.json"))),
    *(
        ("corpus", GOLDEN / name)
        for name in ("fixture_corpus.json", "lenient_corpus.json", "escaped_ids.json")
    ),
    *(("corpus", path) for path in sorted(GOLDEN.glob("generate_*.json"))),
]


@pytest.mark.parametrize("kind, path", INPUTS, ids=[f"{kind}:{path.name}" for kind, path in INPUTS])
def test_input_validates_against_its_schema(kind, path):
    schema = json.loads((SCHEMAS / f"{kind}.schema.json").read_text(encoding="utf-8"))
    validator = jsonschema.Draft7Validator(schema)
    validator.check_schema(schema)
    document = json.loads(path.read_text(encoding="utf-8"))
    errors = [f"{list(e.absolute_path)}: {e.message}" for e in validator.iter_errors(document)]
    assert errors == []
