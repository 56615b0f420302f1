"""The documented input schemas in ``docs/schemas/`` hold for every input that
the package ships and every golden input: the bundled taxonomy, catalog and
fixture spec, the golden taxonomy, catalog and specs, and every golden JSON
corpus that a command reads or ``generate`` writes. The output schemas of
``classify`` and ``stats`` hold for every ``classify`` and ``stats`` JSON
golden."""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from influenceops import loads_corpus_json, loads_generator_spec, loads_strategy_catalog, loads_taxonomy
from influenceops.errors import (
    DisjointnessViolation,
    DuplicateIncidentId,
    EmptyCorpus,
    InfluenceOpsError,
    PhaseViolation,
    UnknownTechnique,
)
from influenceops.resources import bundled_data_path
from influenceops.strategies import STRATEGY_ORDER

from helpers import schema_validator

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
    validator = schema_validator(kind)
    validator.check_schema(validator.schema)
    document = json.loads(path.read_text(encoding="utf-8"))
    errors = [f"{list(e.absolute_path)}: {e.message}" for e in validator.iter_errors(document)]
    assert errors == []


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("classify*.json")), ids=lambda path: path.name)
def test_classify_golden_validates_against_its_schema(path):
    validator = schema_validator("classify")
    validator.check_schema(validator.schema)
    document = json.loads(path.read_text(encoding="utf-8"))
    assert [f"{list(e.absolute_path)}: {e.message}" for e in validator.iter_errors(document)] == []


def test_classify_schema_refuses_what_classify_never_prints():
    validator = schema_validator("classify")
    row = {"incident_id": "I-1", "strategies": ["NR"], "evidence": {"NR": ["T0115"]}}
    assert validator.is_valid([row, {**row, "strategies": [], "evidence": {}}])
    for bad in ({**row, "incident_id": ""}, {**row, "strategies": ["NR", "NR"]}, {**row, "strategies": ["ZZ"]},
                {**row, "evidence": {"ZZ": ["T0115"]}}, {**row, "evidence": {"NR": []}},
                {**row, "evidence": {"NR": ["T0115", "T0115"]}}, {**row, "extra": 1},
                {k: v for k, v in row.items() if k != "evidence"}):
        assert not validator.is_valid([bad]), bad


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("stats*.json")), ids=lambda path: path.name)
def test_stats_golden_validates_against_its_schema(path):
    validator = schema_validator("report")
    validator.check_schema(validator.schema)
    assert validator.schema["definitions"]["strategy_id"]["enum"] == list(STRATEGY_ORDER)
    document = json.loads(path.read_text(encoding="utf-8"))
    assert [f"{list(e.absolute_path)}: {e.message}" for e in validator.iter_errors(document)] == []


REPORT = json.loads((GOLDEN / "stats.json").read_text(encoding="utf-8"))
REPORT_EDITS = {
    "no graphs block": lambda r: r.pop("graphs"),
    "an extra top-level key": lambda r: r.update(extra=1),
    "a loose ingest mode": lambda r: r["config"].update(ingest_mode="loose"),
    "an unknown id in a pattern row": lambda r: r["patterns"]["rows"][0]["strategies"].append("ZZ"),
    "a probability without its value": lambda r: r["graphs"]["conditional"]["edges"][0]["probability"].pop("value"),
    "a negative count": lambda r: r["prevalence"]["strategies"][0].update(count=-1),
}


@pytest.mark.parametrize("edit", REPORT_EDITS)
def test_report_schema_refuses_what_stats_never_prints(edit):
    validator = schema_validator("report")
    assert validator.is_valid(REPORT)
    report = copy.deepcopy(REPORT)
    REPORT_EDITS[edit](report)
    assert not validator.is_valid(report)


# --- differentials: each loader accepts a document iff its schema does -------------
#
# Documents are drawn by editing a valid one: a value replaced, a key removed or
# a key added, anywhere in it. A loader refuses more than its schema only by one
# of the loader-only rules below. Each is matched on the loader's error and the
# document, and comes with a document that the schema accepts and the rule refuses.
LOADERS = {
    "taxonomy": lambda text, taxonomy: loads_taxonomy(text),
    "catalog": loads_strategy_catalog,
    "generator_spec": lambda text, taxonomy: loads_generator_spec(text),
    "corpus": loads_corpus_json,
}
CATALOG_BASE = json.loads(bundled_data_path("catalog.json").read_text(encoding="utf-8"))
TAXONOMY_BASE = json.loads(bundled_data_path("taxonomy.json").read_text(encoding="utf-8"))
CORPUS_BASE = json.loads((GOLDEN / "fixture_corpus.json").read_text(encoding="utf-8"))[:4]
SPEC_BASES = [json.loads(bundled_data_path("fixture_spec.json").read_text(encoding="utf-8")),
              *(json.loads(p.read_text(encoding="utf-8")) for p in sorted(GOLDEN.glob("*spec*.json")))]


def _values(doc):
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        for value in doc:
            yield from _values(value)
    else:
        yield doc


def _keys(doc):
    if isinstance(doc, dict):
        yield from doc
        doc = list(doc.values())
    if isinstance(doc, list):
        for value in doc:
            yield from _keys(value)


LOADER_ONLY = {
    # draft-07 "integer" admits a number with a zero fraction: JSON Schema
    # cannot tell 7.0 from 7, and the loader reads only JSON integers.
    "integral float": (
        "generator_spec", {"mode": "exact-patterns", "seed": 7.0},
        lambda doc, exc: "must be a non-negative integer" in str(exc) and any(type(v) is float for v in _values(doc)),
    ),
    # Two entries name one pattern when their strategy arrays are permutations
    # of each other, which uniqueItems, comparing arrays in order, cannot see.
    "duplicate pattern": (
        "generator_spec", {"mode": "exact-patterns", "pattern_counts": [{"strategies": ["NR", "NS"], "count": 1},
                                                                        {"strategies": ["NS", "NR"], "count": 2}]},
        lambda doc, exc: ": duplicate pattern [" in str(exc),
    ),
    # A size key with more digits than Python's int() converts (4,300 by default).
    "size key past the int digit limit": (
        "generator_spec", {"mode": "marginal-solver", "size_distribution": {"9" * 5000: 1}},
        lambda doc, exc: str(exc).endswith("is too large"),
    ),
    # jsonschema matches patterns with Python's re, whose $ also matches before
    # a trailing newline, so it lets "1\n" through propertyNames; an ECMA-262
    # validator, as JSON Schema specifies, refuses it as the loader does.
    "$ before a trailing newline": (
        "generator_spec", {"mode": "marginal-solver", "size_distribution": {"1\n": 1}},
        lambda doc, exc: "is not a size in canonical decimal" in str(exc) and any(k.endswith("\n") for k in _keys(doc)),
    ),
    # A catalog names techniques of a taxonomy, each in the phase its role
    # needs and in one pipeline only; a schema sees one document.
    "catalog technique references": (
        "catalog", {"taxonomy_version": "2026.08", "strategies": [{**CATALOG_BASE["strategies"][0],
                                                                   "execution_technique": "T9999"}]},
        lambda doc, exc: isinstance(exc, (UnknownTechnique, PhaseViolation, DisjointnessViolation)),
    ),
    # uniqueItems compares whole strategy objects, not their ids.
    "duplicate strategy ids": (
        "catalog", {"taxonomy_version": "2026.08", "strategies": [CATALOG_BASE["strategies"][0],
                                                                  {**CATALOG_BASE["strategies"][0], "name": "Other"}]},
        lambda doc, exc: str(exc).startswith("duplicate strategy ids in catalog"),
    ),
    # validate_taxonomy: unique ids, parents that exist, four phases with four
    # distinct names, unique technique names per tactic, the table1 counts.
    "taxonomy structure": (
        "taxonomy", {**TAXONOMY_BASE, "phases": TAXONOMY_BASE["phases"][:3]},
        lambda doc, exc: str(exc).startswith("taxonomy document is invalid:\n"),
    ),
    # Technique ids resolve against a taxonomy, which a schema does not see.
    "corpus technique references": (
        "corpus", [{**CORPUS_BASE[0], "techniques": ["T9999"]}],
        lambda doc, exc: isinstance(exc, UnknownTechnique),
    ),
    # No schema keyword makes one property unique across the items of an array.
    "duplicate incident ids": (
        "corpus", [CORPUS_BASE[0], {**CORPUS_BASE[0], "title": "Other"}],
        lambda doc, exc: isinstance(exc, DuplicateIncidentId),
    ),
    # A well-formed document of no incidents, refused as EmptyCorpus, as a
    # header-only CSV corpus is, rather than as a malformed document.
    "empty corpus": (
        "corpus", [],
        lambda doc, exc: isinstance(exc, EmptyCorpus),
    ),
    # As for the spec: draft-07 "integer" admits 2020.0, the loader only 2020.
    "integral float year": (
        "corpus", [{**CORPUS_BASE[0], "year": 2020.0}],
        lambda doc, exc: str(exc).endswith("'year' must be an integer") and any(type(v) is float for v in _values(doc)),
    ),
}


def loader_error(kind, doc, taxonomy):
    """The loader's error for the document, or None when it loads."""
    try:
        LOADERS[kind](json.dumps(doc), taxonomy)
    except InfluenceOpsError as exc:
        return exc
    return None


@pytest.mark.parametrize("rule", LOADER_ONLY)
def test_each_loader_only_rule_refuses_a_document_its_schema_accepts(rule, taxonomy):
    kind, doc, matches = LOADER_ONLY[rule]
    assert schema_validator(kind).is_valid(doc)
    exc = loader_error(kind, doc, taxonomy)
    assert exc is not None and matches(doc, exc)


def assert_loader_agrees_with_schema(kind, doc, taxonomy):
    validator = schema_validator(kind)
    exc = loader_error(kind, doc, taxonomy)
    if exc is None:
        errors = [f"{list(e.absolute_path)}: {e.message}" for e in validator.iter_errors(doc)]
        assert errors == [], "the loader accepts what the schema refuses"
        event("both accept")
    elif validator.is_valid(doc):
        rules = [name for name, (k, _, matches) in LOADER_ONLY.items() if k == kind and matches(doc, exc)]
        assert rules, f"the schema accepts what the loader refuses: {type(exc).__name__}: {exc}"
        event(f"loader-only: {rules[0]}")
    else:
        event("both refuse")


def _containers(doc):
    if isinstance(doc, (dict, list)):
        yield doc
        for value in doc.values() if isinstance(doc, dict) else doc:
            yield from _containers(value)


@st.composite
def edited(draw, base, strings):
    """A copy of ``base`` with one or two edits, each anywhere in it: a value
    replaced, a key or item removed, or one added."""
    scalars = st.none() | st.booleans() | st.integers(-2, 9) | st.sampled_from([7.0, 0.5, -0.0, 10**30]) | strings
    values = scalars | scalars | st.lists(strings, max_size=2) | st.dictionaries(strings, scalars, max_size=2)
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 2))):
        container = draw(st.sampled_from(list(_containers(doc))))
        keys = sorted(container) if isinstance(container, dict) else range(len(container))
        edit = draw(st.sampled_from(["replace", "remove", "add"])) if keys else "add"
        if edit == "add" and isinstance(container, dict):
            container[draw(strings)] = draw(values)
        elif edit == "add":
            container.insert(draw(st.integers(0, len(container))), draw(values))
        elif edit == "remove":
            del container[draw(st.sampled_from(keys))]
        else:
            container[draw(st.sampled_from(keys))] = draw(values)
    return doc


def strings_of(*pools):
    return st.sampled_from(sorted(set().union(*pools))) | st.text(max_size=2)


SPEC_STRINGS = strings_of(["exact-patterns", "marginal-solver", "NR", "NS", "ZZ", "", "1", "01", "1\n", "١",
                           "9" * 5000, "seed", "count", "strategies", "marginals"])
CATALOG_STRINGS = strings_of(
    ["NR", "NS", "ZZ", "", "2026.08", "T9999", "id", "name", "description", "preparation_techniques"],
    *([s["execution_technique"], *s["preparation_techniques"]] for s in CATALOG_BASE["strategies"]),
)
CORPUS_STRINGS = strings_of(
    ["", "T9999", "incident_id", "title", "year", "targets", "techniques"],
    *([entry["incident_id"], *entry["techniques"]] for entry in CORPUS_BASE),
)
TAXONOMY_STRINGS = strings_of(
    ["", "table1", "Plan", "Execute", "profile", "provenance", "parent_id", "name"],
    *([entry["id"], entry["name"]] for key in ("phases", "tactics") for entry in TAXONOMY_BASE[key]),
)


@settings(max_examples=400, deadline=None)
@given(doc=st.sampled_from(SPEC_BASES).flatmap(lambda base: edited(base, SPEC_STRINGS)))
def test_spec_loader_accepts_what_its_schema_accepts(doc, taxonomy):
    assert_loader_agrees_with_schema("generator_spec", doc, taxonomy)


@settings(max_examples=400, deadline=None)
@given(doc=edited(CATALOG_BASE, CATALOG_STRINGS))
def test_catalog_loader_accepts_what_its_schema_accepts(doc, taxonomy):
    assert_loader_agrees_with_schema("catalog", doc, taxonomy)


@settings(max_examples=200, deadline=None)
@given(doc=edited(TAXONOMY_BASE, TAXONOMY_STRINGS))
def test_taxonomy_loader_accepts_what_its_schema_accepts(doc, taxonomy):
    assert_loader_agrees_with_schema("taxonomy", doc, taxonomy)


@settings(max_examples=400, deadline=None)
@given(doc=edited(CORPUS_BASE, CORPUS_STRINGS))
def test_corpus_loader_accepts_what_its_schema_accepts(doc, taxonomy):
    assert_loader_agrees_with_schema("corpus", doc, taxonomy)
