"""The strategy-mask histogram against per-incident classification and the oracle."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from influenceops import StrategyCatalog, classify_corpus, classify_incident
from influenceops.report import build_report

import oracle
from helpers import corpus_of


def technique_pool(catalog):
    """Execution and preparation ids of the catalog, plus ids outside it."""
    used = set().union(*(s.technique_ids() for s in catalog.strategies))
    return sorted(used | {"T0117", "X0002", "T9999"})


def four_strategy_catalog(catalog):
    return StrategyCatalog(catalog.strategies[:4], catalog.taxonomy_version)


def mask_of(catalog, strategy_ids):
    ids = catalog.ids()
    return sum(1 << ids.index(s) for s in strategy_ids)


def check_histogram(catalog, technique_sets, strict_prep):
    corpus = corpus_of(technique_sets)
    cc = classify_corpus(corpus, catalog, strict_prep)
    expected = Counter(
        mask_of(catalog, classify_incident(i, catalog, strict_prep).strategies)
        for i in corpus.incidents
    )
    assert cc.histogram == expected
    assert cc.total_count == len(technique_sets)
    assert cc.mapped_count == sum(1 for p in cc.profiles if p.mapped)

    profiles = [set(p.strategies) for p in cc.profiles if p.mapped]
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
    assert "profiles" not in vars(cc)
    assert len(cc.profiles) == 2


def test_classify_path_builds_no_histogram(catalog):
    cc = classify_corpus(corpus_of([{"T0115"}, set()]), catalog)
    assert [p.mapped for p in cc.profiles] == [True, False]
    assert "histogram" not in vars(cc)
