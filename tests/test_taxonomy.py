import json

import pytest

from influenceops import (
    AmbiguousName,
    NotFound,
    ParseError,
    Phase,
    SchemaError,
    Tactic,
    Taxonomy,
    Technique,
    load_bundled_taxonomy,
    loads_taxonomy,
    lookup_technique,
    serialize_taxonomy,
    validate_taxonomy,
)
from influenceops.resources import bundled_data_path

TABLE1_ROWS = {
    "Plan": ["Plan strategy", "Plan objectives", "Target audience analysis"],
    "Prepare": [
        "Develop narratives",
        "Develop content",
        "Establish social assets",
        "Establish legitimacy",
        "Microtarget",
        "Select channels and affordances",
    ],
    "Execute": [
        "Conduct pump priming",
        "Deliver content",
        "Maximize exposure",
        "Drive online harms",
        "Drive offline activity",
        "Persist in the information environment",
    ],
    "Assess": ["Assess effectiveness"],
}


def bundled_doc():
    return json.loads(bundled_data_path("taxonomy.json").read_text(encoding="utf-8"))


def test_bundled_taxonomy_shape(taxonomy):
    assert len(taxonomy.phases) == 4
    assert len(taxonomy.tactics) == 16
    assert validate_taxonomy(taxonomy).ok


def test_bundled_matches_phase_tactic_table(taxonomy):
    by_phase = {}
    for tactic in taxonomy.tactics:
        phase = taxonomy.phase(tactic.phase_id)
        by_phase.setdefault(phase.name, []).append(tactic.name)
    assert by_phase == TABLE1_ROWS


def test_unknown_phase_reference_is_schema_error():
    doc = bundled_doc()
    doc["tactics"][0]["parent_id"] = "execut"
    with pytest.raises(SchemaError):
        loads_taxonomy(json.dumps(doc))


def test_duplicate_technique_id_is_schema_error():
    doc = bundled_doc()
    doc["techniques"].append(dict(doc["techniques"][0]))
    with pytest.raises(SchemaError):
        loads_taxonomy(json.dumps(doc))


def test_missing_field_is_schema_error():
    doc = bundled_doc()
    del doc["techniques"][0]["name"]
    with pytest.raises(SchemaError):
        loads_taxonomy(json.dumps(doc))


def test_malformed_document_is_parse_error():
    with pytest.raises(ParseError):
        loads_taxonomy("{not json")


def test_lone_surrogate_escape_is_parse_error():
    doc = bundled_doc()
    doc["techniques"][0]["name"] = "Narrative \ud800 Release"
    with pytest.raises(ParseError, match="cannot be encoded as UTF-8"):
        loads_taxonomy(json.dumps(doc))


def test_table1_profile_flags_tactic_count_mismatch(taxonomy):
    # TA08 has no techniques in the bundled file, so dropping it leaves
    # referential integrity intact and only the count check fires.
    doc = bundled_doc()
    doc["tactics"] = [t for t in doc["tactics"] if t["id"] != "TA08"]
    fifteen = Taxonomy(
        version="test",
        phases=tuple(Phase(p["id"], p["name"]) for p in doc["phases"]),
        tactics=tuple(Tactic(t["id"], t["name"], t["parent_id"]) for t in doc["tactics"]),
        techniques=tuple(
            Technique(t["id"], t["name"], t["parent_id"]) for t in doc["techniques"]
        ),
        profile="table1",
    )
    report = validate_taxonomy(fifteen)
    assert not report.ok
    assert any("tactic count mismatch" in v.message for v in report.violations)


def test_orphan_technique_violation_names_the_technique(taxonomy):
    broken = Taxonomy(
        version="test",
        phases=taxonomy.phases,
        tactics=taxonomy.tactics,
        techniques=taxonomy.techniques + (Technique("T9000", "Loose End", "TA99"),),
    )
    report = validate_taxonomy(broken)
    assert not report.ok
    assert any("T9000" in v.message and v.code == "orphan-technique" for v in report.violations)


def test_validate_is_pure(taxonomy):
    assert validate_taxonomy(taxonomy) == validate_taxonomy(taxonomy)


def test_round_trip_identity(taxonomy):
    assert loads_taxonomy(serialize_taxonomy(taxonomy)) == taxonomy


def test_lookup_by_name_is_case_insensitive(taxonomy):
    tech = lookup_technique(taxonomy, "post content")
    assert tech.id == "T0115"
    tactic = taxonomy.tactic(tech.tactic_id)
    assert tactic.name == "Deliver content"
    assert taxonomy.phase_of_technique(tech.id).name == "Execute"


def test_lookup_unknown_id_is_not_found(taxonomy):
    with pytest.raises(NotFound):
        lookup_technique(taxonomy, "T9999")


def test_lookup_by_id_returns_that_technique(taxonomy):
    for tech in taxonomy.techniques:
        assert lookup_technique(taxonomy, tech.id) is tech


def test_ambiguous_name_needs_tactic_context(taxonomy):
    clone = Technique("T9001", "Harass", "TA09")  # same name, different tactic
    widened = Taxonomy(
        version="test",
        phases=taxonomy.phases,
        tactics=taxonomy.tactics,
        techniques=taxonomy.techniques + (clone,),
    )
    assert validate_taxonomy(widened).ok
    with pytest.raises(AmbiguousName):
        lookup_technique(widened, "Harass")
    assert lookup_technique(widened, "Harass", tactic_id="TA09") is clone
    assert lookup_technique(widened, "Harass", tactic_id="TA18").id == "T0048"


def test_load_is_deterministic():
    a = load_bundled_taxonomy()
    b = load_bundled_taxonomy()
    assert a == b
