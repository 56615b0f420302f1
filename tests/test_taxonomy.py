import json
from pathlib import Path

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


def test_a_document_is_parsed_once_per_text_and_an_error_every_time():
    text = json.dumps(bundled_doc())
    assert loads_taxonomy(text) is loads_taxonomy(text)
    assert loads_taxonomy(text + "\n") == loads_taxonomy(text)
    for _ in range(2):
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


@pytest.mark.parametrize(
    "path", [bundled_data_path("taxonomy.json"), Path(__file__).parent / "golden" / "escaped_taxonomy.json"]
)
def test_serialized_taxonomy_is_json_dumps_of_its_document(path):
    """Both files hold every field that a taxonomy keeps, in the serializer's order."""
    text = path.read_text(encoding="utf-8")
    expected = json.dumps(json.loads(text), indent=2, ensure_ascii=False) + "\n"
    assert serialize_taxonomy(loads_taxonomy(text)) == expected


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


def small_taxonomy(phases=(("P1", "Plan"), ("P2", "Prepare"), ("P3", "Execute"), ("P4", "Assess")),
                   tactics=(("A1", "P1"),), profile=None):
    """Four phases, one tactic per (id, phase id) pair and one technique under A1."""
    return Taxonomy(
        version="test",
        phases=tuple(Phase(i, name) for i, name in phases),
        tactics=tuple(Tactic(i, f"Tactic {k}", phase_id) for k, (i, phase_id) in enumerate(tactics)),
        techniques=(Technique("T1", "Technique", "A1"),),
        profile=profile,
    )


TABLE1_TACTICS = [(f"A{k}", phase_id) for k, phase_id in enumerate(["P1"] * 3 + ["P2"] * 6 + ["P3"] * 6 + ["P4"], 1)]


@pytest.mark.parametrize("hand_built, violations", [
    pytest.param(small_taxonomy(), "ok", id="valid"),
    pytest.param(small_taxonomy(phases=(("P1", "Plan"), ("P2", "Prepare"), ("P3", "Execute"), ("P1", "Assess"))),
                 "[duplicate-id] duplicate phase id 'P1'", id="duplicate-phase-id"),
    pytest.param(small_taxonomy(phases=(("P1", "Plan"), ("P2", "Prepare"), ("P3", "Execute"), ("P4", "Assessment"))),
                 "[phase-name] phase 'P4' has unknown name 'Assessment'\n"
                 "[phase-name] phase names ['Assessment', 'Execute', 'Plan', 'Prepare']"
                 " != ['Assess', 'Execute', 'Plan', 'Prepare']", id="unknown-phase-name"),
    pytest.param(small_taxonomy(phases=(("P1", "Plan"), ("P2", "Prepare"), ("P3", "Execute"))),
                 "[phase-count] expected 4 phases, found 3", id="phase-count"),
    pytest.param(small_taxonomy(phases=(("P1", "Plan"), ("P2", "Prepare"), ("P3", "Execute"), ("P4", "Plan"))),
                 "[phase-name] phase names ['Execute', 'Plan', 'Plan', 'Prepare']"
                 " != ['Assess', 'Execute', 'Plan', 'Prepare']", id="repeated-phase-name"),
    pytest.param(small_taxonomy(tactics=(("A1", "P1"), ("A1", "P2"))),
                 "[duplicate-id] duplicate tactic id 'A1'", id="duplicate-tactic-id"),
    pytest.param(small_taxonomy(tactics=(("A1", "P1"), ("A2", "P9"))),
                 "[orphan-tactic] tactic 'A2' references unknown phase 'P9'", id="orphan-tactic"),
    pytest.param(small_taxonomy(tactics=TABLE1_TACTICS, profile="table1"), "ok", id="table1"),
    pytest.param(small_taxonomy(tactics=[*TABLE1_TACTICS[:2], ("A3", "P2"), *TABLE1_TACTICS[3:]], profile="table1"),
                 "[tactic-count] tactic count mismatch: phase 'Plan' expects 3 tactics, found 2\n"
                 "[tactic-count] tactic count mismatch: phase 'Prepare' expects 6 tactics, found 7",
                 id="table1-per-phase"),
])
def test_each_taxonomy_rule_reports_its_violations(hand_built, violations):
    report = validate_taxonomy(hand_built)
    assert str(report) == violations
    assert report.ok == (violations == "ok")


@pytest.mark.parametrize("lookup, key, message", [
    ("phase", "P9", "unknown phase id 'P9'"),
    ("tactic", "TA99", "unknown tactic id 'TA99'"),
    ("technique", "t0115", "unknown technique id 't0115'"),
    ("phase_of_technique", "T9999", "unknown technique id 'T9999'"),
])
def test_lookup_of_an_unknown_id_is_not_found(taxonomy, lookup, key, message):
    with pytest.raises(NotFound) as err:
        getattr(taxonomy, lookup)(key)
    assert str(err.value) == message


def test_has_technique_is_an_exact_id_match(taxonomy):
    assert taxonomy.has_technique("T0115")
    assert not taxonomy.has_technique("t0115")
    assert not taxonomy.has_technique("T9999")


@pytest.mark.parametrize("tactics, message", [
    ((("A2", "P1"),), "unknown tactic id 'A1'"),
    ((("A1", "P9"),), "unknown phase id 'P9'"),
])
def test_phase_of_technique_names_the_level_a_hand_built_taxonomy_lacks(tactics, message):
    """T1 sits under tactic A1: with A1 missing, or A1 under a missing phase,
    the lookup is a NotFound for that level, not for the technique."""
    hand_built = small_taxonomy(tactics=tactics)
    assert hand_built.has_technique("T1")
    with pytest.raises(NotFound) as err:
        hand_built.phase_of_technique("T1")
    assert str(err.value) == message
