"""The strategy-mask histogram and the profiles against the set-based
reference rule (`reference_ingest.classify_incident`) and the oracle."""

import copy
import json
import pickle
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from influenceops import (
    StrategyCatalog,
    classify_corpus,
    classify_incident,
    pattern_frequencies,
    prevalence,
    size_distribution,
)
from influenceops.report import build_report, report_to_json
from influenceops.strategies import STRATEGY_ORDER, ClassifiedCorpus

import oracle
import reference_ingest
from helpers import corpus_of, four_strategy_catalog, histograms, non_disjoint_catalog, schema_validator


def technique_pool(catalog):
    """Execution and preparation ids of the catalog, plus ids outside it."""
    used = set().union(*(s.technique_ids() for s in catalog.strategies))
    return sorted(used | {"T0117", "X0002", "T9999"})


def mask_of(catalog, strategy_ids):
    ids = catalog.ids()
    return sum(1 << ids.index(s) for s in strategy_ids)


def check_histogram(catalog, technique_sets, strict_prep):
    corpus = corpus_of(technique_sets)
    cc = classify_corpus(corpus, catalog, strict_prep)
    reference = [reference_ingest.classify_incident(i, catalog, strict_prep) for i in corpus.incidents]
    expected = Counter(mask_of(catalog, p.strategies) for p in reference)
    assert cc.histogram == expected
    assert cc.total_count == len(technique_sets)
    assert cc.mapped_count == sum(1 for p in reference if p.mapped)

    profiles = [set(p.strategies) for p in reference if p.mapped]
    if not profiles:
        return
    table = cc.superset_sums
    assert len(table) == 2 ** len(catalog.strategies)
    for mask, count in enumerate(table):
        assert count == oracle.containment_count(profiles, catalog.ids_of_mask(mask))


def technique_sets_over(pool):
    return st.lists(st.sets(st.sampled_from(pool)), min_size=1, max_size=15)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), strict_prep=st.booleans())
def test_histogram_matches_profiles_seven_strategies(catalog, data, strict_prep):
    sets = data.draw(technique_sets_over(technique_pool(catalog)))
    check_histogram(catalog, sets, strict_prep)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), strict_prep=st.booleans())
def test_histogram_matches_profiles_four_strategies(catalog, data, strict_prep):
    small = four_strategy_catalog(catalog)
    # The pool keeps the other strategies' techniques: they must set no bit.
    sets = data.draw(technique_sets_over(technique_pool(catalog)))
    check_histogram(small, sets, strict_prep)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), which=st.sampled_from(["bundled", "reversed", "four", "non-disjoint"]),
       strict_prep=st.booleans())
def test_profiles_and_histogram_match_the_set_based_reference(taxonomy, catalog, data, which, strict_prep):
    chosen = {
        "bundled": catalog,
        "reversed": StrategyCatalog(catalog.strategies[::-1], catalog.taxonomy_version),
        "four": four_strategy_catalog(catalog),
        "non-disjoint": non_disjoint_catalog(catalog),
    }[which]
    used = sorted(set().union(*(s.technique_ids() for s in catalog.strategies)))
    others = sorted({t.id for t in taxonomy.techniques} - set(used))
    ids = st.one_of(st.sampled_from(used), st.sampled_from(others), st.sampled_from(["X0002", "T9999", "t0115"]))
    corpus = corpus_of(data.draw(st.lists(st.sets(ids, max_size=12), min_size=1, max_size=12)))
    reference = [reference_ingest.classify_incident(i, chosen, strict_prep) for i in corpus.incidents]

    def as_lists(profiles):
        # Evidence in catalog order, as the reference lists it.
        return [(p.incident_id, p.strategies, list(p.evidence.items())) for p in profiles]

    profiles = [classify_incident(i, chosen, strict_prep) for i in corpus.incidents]
    assert as_lists(profiles) == as_lists(reference)
    cc = classify_corpus(corpus, chosen, strict_prep)
    assert cc.histogram == Counter(mask_of(chosen, p.strategies) for p in reference)


def test_saturated_incident_fills_the_top_bin(catalog):
    techs = set().union(*(s.technique_ids() for s in catalog.strategies))
    for strict_prep in (False, True):
        cc = classify_corpus(corpus_of([techs, set()]), catalog, strict_prep)
        assert cc.histogram == {0b1111111: 1, 0: 1}


def test_strict_prep_needs_the_strategy_own_preparation(catalog):
    nr, ns = catalog.by_id("NR"), catalog.by_id("NS")
    techs = {nr.execution_technique, ns.execution_technique, min(ns.preparation_techniques)}
    cc = classify_corpus(corpus_of([techs]), catalog, strict_prep=True)
    assert cc.histogram == {mask_of(catalog, ["NS"]): 1}


def test_stats_path_builds_no_profiles(catalog):
    cc = classify_corpus(corpus_of([{"T0115"}, set()]), catalog)
    assert (cc.mapped_count, cc.total_count) == (1, 2)
    build_report(cc)


def test_classified_corpus_is_immutable_and_hashable(catalog):
    """The cached superset sums cannot go stale: the histogram refuses writes,
    also to the dict or Counter it was built from, and equal records hash equal."""
    built_from = Counter({0: 1, 0b11: 2})
    cc = ClassifiedCorpus(catalog, built_from, "src")
    assert prevalence(cc).count("NR") == 2
    with pytest.raises(TypeError):
        cc.histogram[0b11] += 5
    with pytest.raises(TypeError):
        cc.histogram[0b1] = 1
    built_from[0b11] += 5
    assert cc.superset_sums[0] == 2 and cc.histogram == {0: 1, 0b11: 2} == Counter({0: 1, 0b11: 2})
    twin = ClassifiedCorpus(catalog, {0b11: 2, 0: 1}, "src")
    assert twin == cc and hash(twin) == hash(cc) and len({cc, twin}) == 1
    assert replace(cc, strict_prep=True) != cc
    for copied in (pickle.loads(pickle.dumps(cc)), copy.deepcopy(cc), replace(cc)):
        assert copied == cc and hash(copied) == hash(cc)
        with pytest.raises(TypeError):
            copied.histogram[0] = 7


def test_classified_corpus_holds_only_non_empty_bins_of_its_catalog(catalog):
    """A zero bin is dropped; a negative count, or a mask with a bit past the
    seven strategies, is refused."""
    cc = ClassifiedCorpus(catalog, {0: 1, 0b11: 2, 0b101: 0}, "s")
    assert cc.histogram == {0: 1, 0b11: 2} and cc == ClassifiedCorpus(catalog, {0: 1, 0b11: 2}, "s")
    assert [row.strategies for row in pattern_frequencies(cc).rows] == [("NR", "NS")]
    with pytest.raises(ValueError, match="negative count -2"):
        ClassifiedCorpus(catalog, {0: 1, 0b11: -2}, "s")
    with pytest.raises(ValueError, match="outside 0..127"):
        ClassifiedCorpus(catalog, {1 << 9: 3}, "s")


def test_size_distribution_and_profile_hold_read_only_mappings(catalog):
    """A write to ``counts`` would change the size fractions after the fact, and
    one to ``evidence`` would add a strategy that ``strategies`` lacks."""
    sd = size_distribution(ClassifiedCorpus(catalog, {1: 2, 3: 1, 0: 1}, "s"))
    profile = classify_incident(corpus_of([{"T0115"}]).incidents[0], catalog)
    with pytest.raises(TypeError):
        sd.counts[1] = 99
    with pytest.raises(TypeError):
        profile.evidence["NS"] = ("T0117",)
    assert sd.fraction_of_all(1) == Fraction(2, 3) and sd.counts == {1: 2, 2: 1}
    assert profile.evidence == {"NR": ("T0115",)} and set(profile.evidence) == profile.strategies
    for record, mapping in ((sd, "counts"), (profile, "evidence")):
        for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), replace(record)):
            assert copied == record
            with pytest.raises(TypeError):
                getattr(copied, mapping)[1] = 0


def drawn_catalog(catalog, which):
    return {
        "bundled": catalog,
        "reversed": StrategyCatalog(catalog.strategies[::-1], catalog.taxonomy_version),
        "four": four_strategy_catalog(catalog),
        "every-other": StrategyCatalog(catalog.strategies[::2], catalog.taxonomy_version),
    }[which]


CATALOGS = st.sampled_from(["bundled", "reversed", "four", "every-other"])


@settings(max_examples=100, deadline=None)
@given(data=st.data(), which=CATALOGS)
def test_pattern_rows_are_in_the_enumeration_order_of_their_members(catalog, data, which):
    """Rows sort by exact count descending, size, then the members' positions
    in STRATEGY_ORDER, read from each mask's bit positions."""
    catalog = drawn_catalog(catalog, which)
    histogram = data.draw(histograms(catalog))
    rows = pattern_frequencies(ClassifiedCorpus(catalog, histogram, "drawn")).rows
    assert {mask_of(catalog, row.strategies): row.exact_count for row in rows} == {m: c for m, c in histogram.items() if m}
    assert list(rows) == sorted(
        rows, key=lambda r: (-r.exact_count, len(r.strategies), tuple(STRATEGY_ORDER.index(s) for s in r.strategies))
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data(), which=CATALOGS, source=st.text(), strict_prep=st.booleans(),
       min_support=st.integers(0, 12) | st.integers(0, 10**7))
def test_report_json_is_json_dumps_of_the_report(catalog, data, which, source, strict_prep, min_support):
    """The report's row templates write what json.dumps(indent=2) writes, and
    the report holds to its documented schema."""
    catalog = drawn_catalog(catalog, which)
    histogram = data.draw(histograms(catalog, st.integers(1, 4) | st.integers(1, 10**6)))
    cc = ClassifiedCorpus(catalog, histogram, source, strict_prep)
    report = build_report(cc, data.draw(st.sampled_from(["strict", "lenient"])), min_support)
    assert report_to_json(report) == json.dumps(report, indent=2, ensure_ascii=False) + "\n"
    errors = [f"{list(e.absolute_path)}: {e.message}" for e in schema_validator("report").iter_errors(report)]
    assert errors == []
