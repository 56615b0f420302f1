import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from influenceops import (
    DisjointnessViolation,
    EmptyCorpus,
    ParseError,
    PhaseViolation,
    SchemaError,
    StrategyCatalog,
    StrategyDefinition,
    UnknownTechnique,
    check_disjointness,
    classify_corpus,
    classify_incident,
    conditional_probabilities,
    cooccurrence,
    loads_strategy_catalog,
    loads_taxonomy,
    serialize_taxonomy,
)
from influenceops.graphexport import GRAPH_FORMATS, export_graph
from influenceops.report import build_report, report_to_json, report_to_text
from influenceops.resources import bundled_data_path
from influenceops.strategies import ingest_histogram, match_strategies, strategy_mask

from helpers import corpus_from_profiles, corpus_of, incident, profiles_of


GOLDEN = Path(__file__).parent / "golden"


def catalog_doc():
    return json.loads(bundled_data_path("catalog.json").read_text(encoding="utf-8"))


def strategy_entry(doc, strategy_id):
    return next(s for s in doc["strategies"] if s["id"] == strategy_id)


# --- catalog loading ---------------------------------------------------------


def test_bundled_catalog_has_seven_disjoint_strategies(catalog):
    assert catalog.ids() == ("NR", "NS", "NA", "CNR", "NM", "TD", "IP")
    assert check_disjointness(catalog).ok
    for strategy in catalog.strategies:
        assert strategy.preparation_techniques, strategy.id


def test_bundled_catalog_phase_constraints(catalog, taxonomy):
    for strategy in catalog.strategies:
        assert taxonomy.phase_of_technique(strategy.execution_technique).name == "Execute"
        for prep in strategy.preparation_techniques:
            assert taxonomy.phase_of_technique(prep).name == "Prepare"


def test_shared_execution_technique_is_disjointness_violation(taxonomy):
    doc = catalog_doc()
    strategy_entry(doc, "NS")["execution_technique"] = "T0115"  # also NR's
    with pytest.raises(DisjointnessViolation) as err:
        loads_strategy_catalog(json.dumps(doc), taxonomy)
    assert "T0115" in str(err.value)


def test_prepare_phase_execution_technique_is_phase_violation(taxonomy):
    doc = catalog_doc()
    strategy_entry(doc, "NR")["execution_technique"] = "T0085"  # Prepare phase
    with pytest.raises(PhaseViolation):
        loads_strategy_catalog(json.dumps(doc), taxonomy)


def test_execute_phase_preparation_technique_is_phase_violation(taxonomy):
    doc = catalog_doc()
    strategy_entry(doc, "NR")["preparation_techniques"].append("T0117")
    with pytest.raises(PhaseViolation):
        loads_strategy_catalog(json.dumps(doc), taxonomy)


def test_unknown_technique_reference(taxonomy):
    doc = catalog_doc()
    strategy_entry(doc, "TD")["preparation_techniques"].append("T4242")
    with pytest.raises(UnknownTechnique):
        loads_strategy_catalog(json.dumps(doc), taxonomy)


def test_a_catalog_text_is_parsed_once_per_taxonomy_and_an_error_every_time(taxonomy):
    text = json.dumps(catalog_doc())
    first = loads_strategy_catalog(text, taxonomy)
    other = loads_taxonomy(serialize_taxonomy(taxonomy) + " ")  # another text, an equal taxonomy
    assert other == taxonomy and other is not taxonomy
    assert loads_strategy_catalog(text, other) is first
    # A taxonomy without NR's execution technique gets its own result, an error, on every call.
    missing = strategy_entry(catalog_doc(), "NR")["execution_technique"]
    smaller = replace(taxonomy, techniques=tuple(t for t in taxonomy.techniques if t.id != missing))
    for _ in range(2):
        with pytest.raises(UnknownTechnique):
            loads_strategy_catalog(text, smaller)
    assert loads_strategy_catalog(text, taxonomy) is first


def test_lone_surrogate_escape_is_parse_error(taxonomy):
    doc = catalog_doc()
    strategy_entry(doc, "NR")["name"] = "Narrative \ud800 Release"
    with pytest.raises(ParseError, match=r"string 'Narrative \\ud800 Release' cannot be encoded as UTF-8"):
        loads_strategy_catalog(json.dumps(doc), taxonomy)
    # An escaped surrogate pair is one character, which encodes.
    strategy_entry(doc, "NR")["name"] = "Narrative \U0001f600 Release"
    assert "\\ud83d\\ude00" in json.dumps(doc)
    assert loads_strategy_catalog(json.dumps(doc), taxonomy).by_id("NR").name == "Narrative \U0001f600 Release"


def test_unknown_strategy_id_rejected(taxonomy):
    doc = catalog_doc()
    strategy_entry(doc, "TD")["id"] = "XX"
    with pytest.raises(SchemaError):
        loads_strategy_catalog(json.dumps(doc), taxonomy)


def test_catalog_order_is_canonical_regardless_of_document_order(taxonomy):
    doc = catalog_doc()
    doc["strategies"].reverse()
    catalog = loads_strategy_catalog(json.dumps(doc), taxonomy)
    assert catalog.ids() == ("NR", "NS", "NA", "CNR", "NM", "TD", "IP")


def test_hand_built_catalog_with_an_unknown_strategy_id_is_a_schema_error(catalog):
    odd = StrategyDefinition("XX", "Unknown", "T0115", frozenset())
    with pytest.raises(SchemaError, match="unknown strategy id 'XX'"):
        StrategyCatalog((*catalog.strategies[:3], odd), catalog.taxonomy_version)


def test_hand_built_catalog_in_reverse_order_is_canonical(taxonomy, catalog):
    reversed_catalog = StrategyCatalog(catalog.strategies[::-1], catalog.taxonomy_version)
    assert reversed_catalog.strategies == catalog.strategies
    outputs = []
    for built in (catalog, reversed_catalog):
        cc, _ = ingest_histogram(GOLDEN / "fixture_corpus.csv", taxonomy, built)
        graphs = (cooccurrence(cc), conditional_probabilities(cc, 3))
        outputs.append((
            report_to_json(build_report(cc)),
            report_to_text(build_report(cc)),
            [export_graph(graph, fmt) for graph in graphs for fmt in GRAPH_FORMATS],
        ))
    assert outputs[0] == outputs[1]


# --- disjointness checker ----------------------------------------------------


def test_disjointness_violation_names_both_strategies():
    catalog = StrategyCatalog(
        strategies=(
            StrategyDefinition("NR", "A", "E1", frozenset({"P1"})),
            StrategyDefinition("NS", "B", "E2", frozenset({"P1"})),
        ),
        taxonomy_version="test",
    )
    report = check_disjointness(catalog)
    assert len(report.violations) == 1
    message = report.violations[0].message
    assert "P1" in message and "NR" in message and "NS" in message


def test_empty_catalog_is_vacuously_disjoint():
    assert check_disjointness(StrategyCatalog((), "test")).ok


# --- classification ----------------------------------------------------------


def test_post_content_classifies_as_narrative_release(catalog):
    profile = classify_incident(incident(1, {"T0115"}), catalog)
    assert profile.strategies == frozenset({"NR"})
    assert profile.evidence == {"NR": ("T0115",)}


def test_empty_technique_set_is_unmapped(catalog):
    profile = classify_incident(incident(1, set()), catalog)
    assert profile.strategies == frozenset()
    assert profile.evidence == {}


def test_harass_and_flood_classify_as_td_and_ip(catalog):
    profile = classify_incident(incident(1, {"T0048", "T0049"}), catalog)
    assert profile.strategies == frozenset({"TD", "IP"})


def test_preparation_only_incident_does_not_classify(catalog):
    preps = set(catalog.by_id("NR").preparation_techniques)
    profile = classify_incident(incident(1, preps), catalog)
    assert profile.strategies == frozenset()
    assert profile.evidence == {}


def test_evidence_records_matched_preparation_techniques(catalog):
    nr = catalog.by_id("NR")
    some_prep = sorted(nr.preparation_techniques)[0]
    profile = classify_incident(incident(1, {nr.execution_technique, some_prep}), catalog)
    assert profile.evidence["NR"] == (nr.execution_technique, some_prep)


def test_strict_prep_only_removes_strategies(catalog):
    nr = catalog.by_id("NR")
    bare = incident(1, {nr.execution_technique})
    assert classify_incident(bare, catalog, strict_prep=True).strategies == frozenset()
    prepared = incident(2, {nr.execution_technique, sorted(nr.preparation_techniques)[0]})
    assert classify_incident(prepared, catalog, strict_prep=True).strategies == {"NR"}


def test_classification_ignores_metadata(catalog):
    a = incident(1, {"T0115"}, year=2014, title="a")
    b = incident(2, {"T0115"}, year=2024, title="b", targets=("X", "Y"))
    assert (
        classify_incident(a, catalog).strategies
        == classify_incident(b, catalog).strategies
    )


def test_saturated_incident_hits_all_seven(catalog):
    techs = {s.execution_technique for s in catalog.strategies}
    profile = classify_incident(incident(1, techs), catalog)
    assert profile.strategies == frozenset(catalog.ids())
    assert len(profile.strategies) == 7


def test_technique_bits_layout(catalog):
    """Bit i for strategy i's execution technique; bit n + i and one own bit
    from 2n up for each of its preparation techniques."""
    n, bits = len(catalog.strategies), catalog.technique_bits
    own = []
    for i, s in enumerate(catalog.strategies):
        assert bits[s.execution_technique] == 1 << i
        for p in sorted(s.preparation_techniques):
            assert bits[p] & (1 << 2 * n) - 1 == 1 << n + i
            own.append(bits[p] >> 2 * n)
    assert own == [1 << k for k in range(len(own))]
    assert max(bits.values()).bit_length() == 30  # one CPython digit for the bundled catalog


def test_strategy_mask_is_the_rule(catalog):
    bits, n = catalog.technique_bits, len(catalog.strategies)
    nr, ns = catalog.by_id("NR"), catalog.by_id("NS")
    m = bits[nr.execution_technique] | bits[ns.execution_technique] | bits[min(ns.preparation_techniques)]
    assert strategy_mask(m, n, strict_prep=False) == 0b11
    assert strategy_mask(m, n, strict_prep=True) == 0b10
    assert strategy_mask(bits[min(nr.preparation_techniques)], n, strict_prep=False) == 0


def test_matcher_hands_each_strategy_only_its_own_preparation_bits(catalog):
    """``found`` sees, for strategy i, exactly the own bits of i's preparation
    techniques in the mask: no bit of another strategy, and no carry."""
    n, bits = len(catalog.strategies), catalog.technique_bits
    everything = 0
    for m in bits.values():
        everything |= m
    for strict_prep in (False, True):
        calls = []
        list(match_strategies([("I", everything)], catalog, strict_prep, lambda i, m: calls.append((i, m))))
        expected = []
        for i, s in enumerate(catalog.strategies):
            own = 0
            for p in s.preparation_techniques:
                own |= bits[p] >> 2 * n << 2 * n
            expected.append((i, own))
        assert calls == expected


def test_classify_corpus_partitions_and_preserves_order(catalog):
    corpus = corpus_from_profiles(catalog, [("NR",), (), ("TD", "IP")])
    cc = classify_corpus(corpus, catalog)
    profiles = profiles_of(corpus, catalog)
    assert [p.incident_id for p in profiles] == [i.incident_id for i in corpus.incidents]
    assert cc.mapped_count == 2
    assert cc.mapped_count + sum(not p.mapped for p in profiles) == len(corpus)


def test_classify_corpus_rejects_empty(catalog):
    from influenceops import Corpus

    with pytest.raises(EmptyCorpus):
        classify_corpus(Corpus((), "test"), catalog)


def test_fixture_corpus_maps_eighty_of_eighty_one(fixture_cc, fixture_corpus, catalog):
    assert fixture_cc.total_count == 81
    assert fixture_cc.mapped_count == 80
    assert sum(not p.mapped for p in profiles_of(fixture_corpus, catalog)) == 1


EXEC_IDS = ("T0115", "T0118", "T0120", "T0116", "T0114", "T0048", "T0049")


@settings(max_examples=60, deadline=None)
@given(
    base=st.sets(st.sampled_from(EXEC_IDS)),
    extra=st.sets(st.sampled_from(EXEC_IDS + ("T0085", "T0019", "X0001"))),
)
def test_adding_techniques_never_removes_strategies(catalog, base, extra):
    before = classify_incident(incident(1, base), catalog).strategies
    after = classify_incident(incident(1, base | extra), catalog).strategies
    assert before <= after


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sets(st.sampled_from(EXEC_IDS)), min_size=1, max_size=8))
def test_profile_size_bounded_by_seven(catalog, technique_sets):
    for profile in profiles_of(corpus_of(technique_sets), catalog):
        assert len(profile.strategies) <= 7


def test_by_id_unknown_strategy_raises_key_error(catalog):
    assert catalog.by_id("TD").execution_technique == "T0048"
    with pytest.raises(KeyError):
        catalog.by_id("XX")
