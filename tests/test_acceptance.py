"""Acceptance gate: the ten release criteria, one test each.

Each test prints a single [PASS] line on success (visible with `pytest -s`);
a failed criterion fails its test. Tolerances are pinned here and nowhere
else. Criterion 8's corpus family is exhaustive for one- and two-incident
corpora over four strategies (pattern multisets enumerated completely) and
densely sampled with seeded randomness above that, where full enumeration
is combinatorially out of reach.
"""

import json
import random
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from influenceops import (
    GeneratorSpec,
    check_disjointness,
    classify_corpus,
    conditional_probabilities,
    cooccurrence,
    generate_corpus,
    load_bundled_catalog,
    mapping_coverage,
    pattern_frequencies,
    possible_combination_count,
    prevalence,
    size_distribution,
)
from influenceops.cli import main
from influenceops.resources import bundled_data_path
from influenceops.strategies import StrategyCatalog, StrategyDefinition

import oracle
from helpers import corpus_from_profiles, profiles_of

_MODULE_T0 = time.perf_counter()

SEVEN = ("NR", "NS", "NA", "CNR", "NM", "TD", "IP")
FOUR = ("NR", "NS", "NA", "CNR")

# Published prevalence percentages, strategy id -> percent.
PUBLISHED_PREVALENCE = {
    "NR": Fraction("97.5"),
    "NM": Fraction("66.2"),
    "IP": Fraction("63.7"),
    "NS": Fraction("48.8"),
    "NA": Fraction("42.5"),
    "CNR": Fraction("32.5"),
    "TD": Fraction("30.0"),
}

# Published share of multi-strategy incidents per profile size (percent of 74).
PUBLISHED_SIZE_SHARES = {4: 33, 5: 20, 3: 19, 2: 15, 6: 8, 7: 5}

EXPECTED_SIZE_COUNTS = {1: 6, 2: 11, 3: 14, 4: 24, 5: 15, 6: 6, 7: 4}


def report(line: str) -> None:
    print(f"[PASS] {line}")


def test_c01_catalog_disjointness(catalog, taxonomy):
    t0 = time.perf_counter()
    assert len(catalog.strategies) == 7
    assert check_disjointness(catalog).ok

    # moving any technique into any second pipeline yields exactly one violation
    mutations = 0
    for donor in catalog.strategies:
        for technique in sorted(donor.technique_ids()):
            for host in catalog.strategies:
                if host.id == donor.id:
                    continue
                mutated = tuple(
                    s
                    if s.id != host.id
                    else StrategyDefinition(
                        s.id,
                        s.name,
                        s.execution_technique,
                        s.preparation_techniques | {technique},
                        s.description,
                    )
                    for s in catalog.strategies
                )
                broken = StrategyCatalog(mutated, catalog.taxonomy_version)
                violations = check_disjointness(broken).violations
                assert len(violations) == 1
                assert technique in violations[0].message
                mutations += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(
        f"criterion 1: bundled catalog disjoint; {mutations} single-technique "
        f"mutations each flagged exactly once ({elapsed:.2f}s)"
    )


def test_c02_fixture_prevalence(fixture_cc):
    t0 = time.perf_counter()
    rep = prevalence(fixture_cc)
    assert rep.denominator == 80
    tolerance = Fraction(1, 10)  # 0.1 percentage points
    for strategy_id, published in PUBLISHED_PREVALENCE.items():
        actual = rep.fraction(strategy_id) * 100
        assert abs(actual - published) <= tolerance, (strategy_id, float(actual))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(
        "criterion 2: fixture prevalence matches published percentages "
        f"within 0.1 pp for all seven strategies ({elapsed:.3f}s)"
    )


def test_c03_multi_strategy_distribution(fixture_cc):
    dist = size_distribution(fixture_cc)
    assert dist.multi_fraction_of_all == Fraction(74, 80)
    assert dist.counts == EXPECTED_SIZE_COUNTS
    tolerance = Fraction(1)  # 1 percentage point
    for size, published in PUBLISHED_SIZE_SHARES.items():
        actual = dist.fraction_of_multi(size) * 100
        assert abs(actual - published) <= tolerance, (size, float(actual))
    report(
        "criterion 3: multi-strategy share exactly 74/80 = 92.5%; size counts "
        "echo the generator spec; per-size shares of 74 within 1 pp of published"
    )


def test_c04_combination_count():
    assert possible_combination_count(7, 2) == 120
    report("criterion 4: possible_combination_count(7, 2) == 120")


def test_c05_pinned_patterns(fixture_cc):
    table = pattern_frequencies(fixture_cc)
    assert table.exact_count({"NR", "IP", "NM"}) == 7
    assert table.exact_count({"NR", "IP", "NM", "NA"}) == 11
    assert table.exact_count({"NS", "NR", "NA", "IP", "NM"}) == 6
    assert 28 <= table.distinct_pattern_count <= 32
    report(
        "criterion 5: pinned pattern exact counts 7/11/6; distinct patterns "
        f"= {table.distinct_pattern_count} (30 +/- 2)"
    )


def test_c06_mapping_coverage(fixture_cc):
    coverage = mapping_coverage(fixture_cc)
    assert coverage.fraction == Fraction(80, 81)
    report("criterion 6: mapping coverage exactly 80/81")


def test_c07_handshake_identity(fixture_cc, catalog):
    rep = prevalence(fixture_cc)
    dist = size_distribution(fixture_cc)
    strategy_total = sum(rep.count(s) for s in SEVEN)
    size_total = sum(k * v for k, v in dist.counts.items())
    assert strategy_total == size_total == 305

    rng = random.Random(4242)
    for trial in range(1000):
        n = rng.randrange(1, 51)
        patterns = []
        unmapped = 0
        for _ in range(n):
            k = rng.randrange(0, 8)
            if k == 0:
                unmapped += 1
            else:
                patterns.append(frozenset(rng.sample(SEVEN, k)))
        if not patterns:
            patterns.append(frozenset({"NR"}))
        spec = GeneratorSpec(
            mode="exact-patterns",
            pattern_counts=dict(Counter(patterns)),
            unmapped_count=unmapped,
            seed=trial,
        )
        cc = classify_corpus(generate_corpus(spec, catalog), catalog)
        rep = prevalence(cc)
        dist = size_distribution(cc)
        assert sum(rep.count(s) for s in SEVEN) == sum(
            k * v for k, v in dist.counts.items()
        )
    report(
        "criterion 7: handshake identity holds (305 on the fixture; exact on "
        "1000 random generated corpora up to 50 incidents)"
    )


def _assert_oracle_equivalence(corpus, catalog, ids):
    cc = classify_corpus(corpus, catalog)
    profiles = [set(p.strategies) for p in profiles_of(corpus, catalog) if p.mapped]

    rep = prevalence(cc)
    for strategy in ids:
        assert rep.count(strategy) == oracle.strategy_count(profiles, strategy)

    graph = cooccurrence(cc)
    for a, b in combinations(ids, 2):
        assert graph.edge_weight(a, b) == oracle.cooc_count(profiles, a, b)

    cond = conditional_probabilities(cc)
    for edge in cond.edges:
        assert edge.probability == oracle.conditional(profiles, edge.source, edge.target)

    table = pattern_frequencies(cc)
    assert table.distinct_pattern_count == len(oracle.distinct_patterns(profiles))
    for row in table.rows:
        assert row.exact_count == oracle.exact_count(profiles, row.strategies)
        assert row.containment_count == oracle.containment_count(profiles, row.strategies)


def test_c08_oracle_equivalence(catalog):
    four_patterns = [()] + [
        combo for k in range(1, 5) for combo in combinations(FOUR, k)
    ]
    checked = 0
    # exhaustive: every 1- and 2-incident pattern multiset over four strategies
    for p in four_patterns:
        if p:
            _assert_oracle_equivalence(corpus_from_profiles(catalog, [p]), catalog, FOUR)
            checked += 1
    for i, p in enumerate(four_patterns):
        for q in four_patterns[i:]:
            if not p and not q:
                continue
            _assert_oracle_equivalence(corpus_from_profiles(catalog, [p, q]), catalog, FOUR)
            checked += 1
    # dense seeded sampling: 4-strategy corpora up to 10 incidents
    rng = random.Random(808)
    for _ in range(500):
        n = rng.randrange(1, 11)
        profiles = [tuple(rng.sample(FOUR, rng.randrange(0, 5))) for _ in range(n)]
        if not any(profiles):
            profiles.append(("NR",))
        _assert_oracle_equivalence(corpus_from_profiles(catalog, profiles), catalog, FOUR)
        checked += 1
    # 500 random seven-strategy corpora
    for _ in range(500):
        n = rng.randrange(1, 13)
        profiles = [tuple(rng.sample(SEVEN, rng.randrange(0, 8))) for _ in range(n)]
        if not any(profiles):
            profiles.append(("NR",))
        _assert_oracle_equivalence(corpus_from_profiles(catalog, profiles), catalog, SEVEN)
        checked += 1
    report(
        f"criterion 8: prevalence, co-occurrence, conditional probabilities, "
        f"and pattern tables match brute force on {checked} corpora"
    )


def test_c09_conditional_graph_algebra(fixture_corpus, catalog):
    corpora = [fixture_corpus]
    rng = random.Random(909)
    for _ in range(200):
        n = rng.randrange(1, 16)
        profiles = [tuple(rng.sample(SEVEN, rng.randrange(0, 8))) for _ in range(n)]
        if not any(profiles):
            profiles.append(("IP",))
        corpora.append(corpus_from_profiles(catalog, profiles))

    edges_checked = 0
    for corpus in corpora:
        cc = classify_corpus(corpus, catalog)
        rep = prevalence(cc)
        graph = conditional_probabilities(cc)
        profiles = [set(p.strategies) for p in profiles_of(corpus, catalog) if p.mapped]
        for edge in graph.edges:
            assert edge.probability * rep.count(edge.source) == oracle.cooc_count(
                profiles, edge.source, edge.target
            )
            edges_checked += 1
        for node in graph.nodes:
            if node.count > 0:
                assert graph.probability(node.strategy_id, node.strategy_id) == 1
    report(
        f"criterion 9: cp(A,B)*count(A) == cooc(A,B) on {edges_checked} edges; "
        "cp(A,A) == 1 whenever count(A) > 0"
    )


def test_c10_determinism(tmp_path):
    spec_path = str(bundled_data_path("fixture_spec.json"))
    corpus_a, corpus_b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (corpus_a, corpus_b):
        assert main(["generate", "--spec", spec_path, "--out", str(path)]) == 0
    assert corpus_a.read_bytes() == corpus_b.read_bytes()

    stats_a, stats_b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (stats_a, stats_b):
        assert main(["stats", "--corpus", str(corpus_a), "--out", str(path)]) == 0
    assert stats_a.read_bytes() == stats_b.read_bytes()

    for kind in ("cooccurrence", "conditional"):
        for fmt in ("dot", "graphml", "json"):
            outputs = []
            for name in ("g1", "g2"):
                path = tmp_path / f"{name}.{fmt}"
                assert (
                    main(
                        ["graph", "--kind", kind, "--format", fmt,
                         "--corpus", str(corpus_a), "--out", str(path)]
                    )
                    == 0
                )
                outputs.append(path.read_bytes())
            assert outputs[0] == outputs[1]

    elapsed = time.perf_counter() - _MODULE_T0
    assert elapsed < 60.0
    report(
        "criterion 10: generate/stats/graph outputs byte-identical across runs; "
        f"acceptance module finished in {elapsed:.1f}s (< 60s)"
    )
