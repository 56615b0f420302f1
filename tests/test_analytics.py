import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from influenceops import (
    ClassifiedCorpus,
    EmptyCorpus,
    InvalidRange,
    NegativeSupport,
    classify_corpus,
    conditional_probabilities,
    cooccurrence,
    mapping_coverage,
    pattern_frequencies,
    possible_combination_count,
    prevalence,
    size_distribution,
)

import oracle
from helpers import classified_from_profiles, corpus_from_profiles, profiles_of

FOUR = ("NR", "NS", "NA", "CNR")
SEVEN = ("NR", "NS", "NA", "CNR", "NM", "TD", "IP")


def mapped_sets(corpus, catalog):
    return [set(p.strategies) for p in profiles_of(corpus, catalog) if p.mapped]


def random_corpus(catalog, rng, ids=SEVEN, max_incidents=10, allow_empty_profiles=True):
    n = rng.randrange(1, max_incidents + 1)
    profiles = []
    for _ in range(n):
        k = rng.randrange(0 if allow_empty_profiles else 1, len(ids) + 1)
        profiles.append(tuple(rng.sample(list(ids), k)))
    if not any(profiles):
        profiles[rng.randrange(n)] = (rng.choice(list(ids)),)
    return corpus_from_profiles(catalog, profiles)


# --- prevalence ------------------------------------------------------------------


def test_prevalence_hand_corpus(hand_cc):
    report = prevalence(hand_cc)
    assert report.denominator == 4
    assert report.count("NR") == 3
    assert report.count("IP") == 2
    assert report.count("NM") == 2
    for other in ("NS", "NA", "CNR", "TD"):
        assert report.count(other) == 0
    assert report.fraction("NR") == Fraction(3, 4)
    # sorted by count desc, ties broken by enumeration order (NM before IP)
    assert [e.strategy_id for e in report.entries[:3]] == ["NR", "NM", "IP"]


def test_prevalence_fixture(fixture_cc):
    report = prevalence(fixture_cc)
    assert report.denominator == 80
    assert report.count("NR") == 78
    assert report.fraction("NR") == Fraction(78, 80)


def test_prevalence_uniform_corpus(catalog):
    cc = classified_from_profiles(catalog, [("NR",)] * 5)
    report = prevalence(cc)
    assert report.fraction("NR") == 1
    assert all(report.count(s) == 0 for s in SEVEN if s != "NR")


def test_prevalence_requires_a_mapped_incident(catalog):
    cc = classified_from_profiles(catalog, [(), ()])
    with pytest.raises(EmptyCorpus):
        prevalence(cc)


def test_every_statistic_of_an_unmapped_corpus_raises_each_time(catalog):
    cc = classified_from_profiles(catalog, [(), ()])
    for statistic in (prevalence, pattern_frequencies, cooccurrence, conditional_probabilities) * 2:
        with pytest.raises(EmptyCorpus):
            statistic(cc)
    assert "superset_sums" not in vars(cc)


def test_superset_sums_are_computed_once_per_corpus(hand_cc):
    assert hand_cc.superset_sums is hand_cc.superset_sums
    assert hand_cc.superset_sums[0] == 4


# --- size distribution -------------------------------------------------------------


def test_size_distribution_hand_corpus(hand_cc):
    dist = size_distribution(hand_cc)
    assert dist.counts == {1: 2, 2: 1, 3: 1}
    assert dist.multi_fraction_of_all == Fraction(2, 4)
    assert dist.fraction_of_all(1) == Fraction(2, 4)
    assert dist.fraction_of_multi(2) == Fraction(1, 2)


def test_size_distribution_fixture(fixture_cc):
    dist = size_distribution(fixture_cc)
    assert dist.multi_fraction_of_all == Fraction(74, 80)
    assert dist.counts == {1: 6, 2: 11, 3: 14, 4: 24, 5: 15, 6: 6, 7: 4}


def test_all_singleton_corpus_has_zero_multi_fraction(catalog):
    cc = classified_from_profiles(catalog, [("NR",), ("TD",)])
    assert size_distribution(cc).multi_fraction_of_all == 0


def test_no_multi_strategy_incident_gives_zero_fraction_of_multi(catalog):
    """No multi-strategy incident gives 0; one such incident is the whole of
    the denominator, so its size gives 1."""
    dist = size_distribution(classified_from_profiles(catalog, [("NR",), ("TD",), ()]))
    assert (dist.multi_total, dist.fraction_of_multi(2), dist.fraction_of_multi(1)) == (0, 0, 0)
    dist = size_distribution(classified_from_profiles(catalog, [("NR",), ("TD", "NR"), ()]))
    assert (dist.multi_total, dist.fraction_of_multi(2), dist.fraction_of_multi(3)) == (1, 1, 0)


@pytest.mark.parametrize("statistic, histogram, message", [
    (size_distribution, {0: 2}, "no mapped incidents: statistics are undefined"),
    (mapping_coverage, {}, "empty corpus has no coverage"),
])
def test_statistic_of_a_degenerate_corpus_is_empty_corpus(catalog, statistic, histogram, message):
    cc = ClassifiedCorpus(catalog, histogram, "src")
    with pytest.raises(EmptyCorpus) as err:
        statistic(cc)
    assert str(err.value) == message


# --- pattern table -----------------------------------------------------------------


def test_identical_profiles_collapse_to_one_row(catalog):
    cc = classified_from_profiles(catalog, [("NR",)] * 3)
    table = pattern_frequencies(cc)
    assert table.distinct_pattern_count == 1
    row = table.rows[0]
    assert row.strategies == ("NR",)
    assert (row.exact_count, row.containment_count) == (3, 3)


def test_containment_dominates_exact(hand_cc):
    table = pattern_frequencies(hand_cc)
    assert table.exact_count({"NR"}) == 1
    assert table.containment_count({"NR"}) == 3
    for row in table.rows:
        assert row.containment_count >= row.exact_count


def test_fixture_pinned_pattern_counts(fixture_cc):
    table = pattern_frequencies(fixture_cc)
    assert table.exact_count({"NR", "IP", "NM"}) == 7
    assert table.exact_count({"NR", "IP", "NM", "NA"}) == 11
    assert table.exact_count({"NS", "NR", "NA", "IP", "NM"}) == 6
    assert table.distinct_pattern_count == 30


def test_pattern_rows_sorted_by_exact_then_size_then_order(catalog):
    cc = classified_from_profiles(
        catalog, [("NR", "NS"), ("NR", "NS"), ("TD",), ("NM", "IP"), ("NM", "IP")]
    )
    table = pattern_frequencies(cc)
    assert [r.strategies for r in table.rows] == [
        ("NR", "NS"),
        ("NM", "IP"),
        ("TD",),
    ]


# --- co-occurrence ------------------------------------------------------------------


def test_single_incident_has_no_edges(catalog):
    cc = classified_from_profiles(catalog, [("NR",)])
    graph = cooccurrence(cc)
    assert graph.edges == ()
    assert graph.node_weight("NR") == 1


def test_cooccurrence_hand_corpus(hand_cc):
    graph = cooccurrence(hand_cc)
    assert graph.edge_weight("NR", "IP") == 2
    assert graph.edge_weight("NR", "NM") == 1
    assert graph.edge_weight("IP", "NM") == 1
    assert len(graph.edges) == 3


def test_fixture_cooccurrence_dominates_containment(fixture_cc):
    graph = cooccurrence(fixture_cc)
    table = pattern_frequencies(fixture_cc)
    contained = table.containment_count({"NR", "IP", "NM"})
    assert contained >= 7
    assert graph.edge_weight("NR", "IP") >= contained


def test_cooccurrence_symmetry_and_bounds(catalog):
    rng = random.Random(11)
    for _ in range(50):
        corpus = random_corpus(catalog, rng)
        graph = cooccurrence(classify_corpus(corpus, catalog))
        profiles = mapped_sets(corpus, catalog)
        n = len(profiles)
        for a, b in combinations(SEVEN, 2):
            weight = graph.edge_weight(a, b)
            assert weight == graph.edge_weight(b, a)
            ca, cb = graph.node_weight(a), graph.node_weight(b)
            assert max(0, ca + cb - n) <= weight <= min(ca, cb)


# --- conditional probabilities -------------------------------------------------------


def test_conditional_hand_corpus(hand_cc):
    graph = conditional_probabilities(hand_cc)
    assert graph.probability("NR", "IP") == Fraction(2, 3)
    assert graph.probability("IP", "NR") == 1


def test_self_conditioning_is_one(fixture_cc, hand_cc):
    for cc in (fixture_cc, hand_cc):
        graph = conditional_probabilities(cc)
        for node in graph.nodes:
            if node.count > 0:
                assert graph.probability(node.strategy_id, node.strategy_id) == 1


def test_conditional_edge_algebra_random(catalog):
    rng = random.Random(23)
    for _ in range(40):
        corpus = random_corpus(catalog, rng)
        graph = conditional_probabilities(classify_corpus(corpus, catalog))
        profiles = mapped_sets(corpus, catalog)
        for edge in graph.edges:
            assert edge.probability * edge.source_count == edge.joint_count
            assert edge.joint_count == oracle.cooc_count(profiles, edge.source, edge.target)


def test_min_support_filters_sources(catalog):
    cc = classified_from_profiles(catalog, [("NR", "IP")] * 3 + [("TD", "NR")])
    graph = conditional_probabilities(cc, min_support=2)
    sources = {e.source for e in graph.edges}
    assert "TD" not in sources  # count(TD)=1 < 2
    assert "NR" in sources and "IP" in sources


def test_negative_support_rejected(hand_cc):
    with pytest.raises(NegativeSupport):
        conditional_probabilities(hand_cc, min_support=-1)


# --- combination count ----------------------------------------------------------------


def test_combination_counts():
    assert possible_combination_count(7, 2) == 120
    assert possible_combination_count(7, 1) == 127
    assert possible_combination_count(3, 2) == 4
    assert possible_combination_count(7, 0) == 128


def test_combination_count_invalid_range():
    with pytest.raises(InvalidRange):
        possible_combination_count(7, 8)
    with pytest.raises(InvalidRange):
        possible_combination_count(-1, 0)


# --- mapping coverage ------------------------------------------------------------------


def test_fixture_coverage(fixture_cc):
    coverage = mapping_coverage(fixture_cc)
    assert (coverage.mapped, coverage.total) == (80, 81)
    assert coverage.fraction == Fraction(80, 81)


def test_full_and_zero_coverage(catalog):
    assert mapping_coverage(classified_from_profiles(catalog, [("NR",)])).fraction == 1
    assert mapping_coverage(classified_from_profiles(catalog, [(), ()])).fraction == 0


# --- consistency invariants --------------------------------------------------------------


def test_consistency_triangle(fixture_cc):
    """Prevalence counts == co-occurrence node weights == cp denominators."""
    report = prevalence(fixture_cc)
    graph = cooccurrence(fixture_cc)
    cond = conditional_probabilities(fixture_cc)
    for strategy in SEVEN:
        assert report.count(strategy) == graph.node_weight(strategy)
    for edge in cond.edges:
        assert edge.source_count == report.count(edge.source)


def test_handshake_identity(fixture_cc):
    report = prevalence(fixture_cc)
    dist = size_distribution(fixture_cc)
    total = sum(report.count(s) for s in SEVEN)
    assert total == 305
    assert total == sum(k * v for k, v in dist.counts.items())


def test_pattern_prevalence_consistency(catalog):
    rng = random.Random(37)
    for _ in range(30):
        cc = classify_corpus(random_corpus(catalog, rng), catalog)
        report = prevalence(cc)
        table = pattern_frequencies(cc)
        for strategy in SEVEN:
            via_patterns = sum(
                row.exact_count for row in table.rows if strategy in row.strategies
            )
            assert via_patterns == report.count(strategy)


@settings(max_examples=40, deadline=None)
@given(
    profiles=st.lists(
        st.sets(st.sampled_from(SEVEN)).map(tuple), min_size=1, max_size=12
    ),
    seed=st.integers(0, 2**16),
)
def test_permutation_invariance(catalog, profiles, seed):
    if not any(profiles):
        profiles = profiles + [("NR",)]
    shuffled = list(profiles)
    random.Random(seed).shuffle(shuffled)
    a = classified_from_profiles(catalog, profiles)
    b = classified_from_profiles(catalog, shuffled)

    assert prevalence(a).entries == prevalence(b).entries
    assert size_distribution(a).counts == size_distribution(b).counts
    assert pattern_frequencies(a).rows == pattern_frequencies(b).rows
    assert cooccurrence(a).edges == cooccurrence(b).edges
    assert conditional_probabilities(a).edges == conditional_probabilities(b).edges


# --- oracle equivalence --------------------------------------------------------------------


def assert_matches_oracle(corpus, catalog, ids):
    cc = classify_corpus(corpus, catalog)
    profiles = mapped_sets(corpus, catalog)

    report = prevalence(cc)
    for strategy in ids:
        assert report.count(strategy) == oracle.strategy_count(profiles, strategy)

    dist = size_distribution(cc)
    assert dist.counts == oracle.size_counts(profiles)

    table = pattern_frequencies(cc)
    assert table.distinct_pattern_count == len(oracle.distinct_patterns(profiles))
    for row in table.rows:
        assert row.exact_count == oracle.exact_count(profiles, row.strategies)
        assert row.containment_count == oracle.containment_count(profiles, row.strategies)
    # Every subset, the empty set and the sets without a row included.
    for pattern in (p for k in range(len(ids) + 1) for p in combinations(ids, k)):
        assert table.exact_count(pattern) == oracle.exact_count(profiles, pattern)
        assert table.containment_count(pattern) == oracle.containment_count(profiles, pattern)

    graph = cooccurrence(cc)
    cond = conditional_probabilities(cc)
    for a, b in combinations(ids, 2):
        assert graph.edge_weight(a, b) == oracle.cooc_count(profiles, a, b)
    for edge in cond.edges:
        assert edge.probability == oracle.conditional(profiles, edge.source, edge.target)
    for a in ids:
        assert graph.node_weight(a) == oracle.strategy_count(profiles, a)
        for b in ids:
            # No self-loops: a strategy's weight with itself is 0.
            assert graph.edge_weight(a, b) == (oracle.cooc_count(profiles, a, b) if a != b else 0)
            if oracle.strategy_count(profiles, a):
                assert cond.probability(a, b) == oracle.conditional(profiles, a, b)
            else:
                with pytest.raises(ZeroDivisionError):
                    cond.probability(a, b)


def test_oracle_equivalence_exhaustive_small_four_strategy(catalog):
    """Every corpus of one or two incidents over four strategies."""
    patterns = [()] + [
        combo for k in range(1, 5) for combo in combinations(FOUR, k)
    ]
    for p in patterns:
        if p:
            assert_matches_oracle(corpus_from_profiles(catalog, [p]), catalog, FOUR)
    for i, p in enumerate(patterns):
        for q in patterns[i:]:
            if not p and not q:
                continue
            assert_matches_oracle(corpus_from_profiles(catalog, [p, q]), catalog, FOUR)


def test_oracle_equivalence_random_four_strategy(catalog):
    rng = random.Random(404)
    for _ in range(300):
        assert_matches_oracle(random_corpus(catalog, rng, ids=FOUR, max_incidents=10), catalog, FOUR)


def test_oracle_equivalence_random_seven_strategy(catalog):
    rng = random.Random(707)
    for _ in range(300):
        assert_matches_oracle(random_corpus(catalog, rng, ids=SEVEN, max_incidents=12), catalog, SEVEN)


# --- accessors on unknown ids --------------------------------------------------------------


def test_accessors_on_unknown_ids(hand_cc):
    with pytest.raises(KeyError):
        prevalence(hand_cc).count("XX")
    with pytest.raises(KeyError):
        pattern_frequencies(hand_cc).row({"NS"})
    with pytest.raises(KeyError):
        pattern_frequencies(hand_cc).row({"XX"})
    graph = cooccurrence(hand_cc)
    with pytest.raises(KeyError):
        graph.node_weight("XX")
    assert graph.edge_weight("NR", "XX") == graph.edge_weight("XX", "NR") == 0
    assert pattern_frequencies(hand_cc).containment_count({"NR", "XX"}) == 0
    cond = conditional_probabilities(hand_cc)
    with pytest.raises(KeyError):
        cond.probability("XX", "NR")
    with pytest.raises(KeyError):
        cond.probability("NR", "XX")
    with pytest.raises(KeyError):
        cond.probability("XX", "XX")
    with pytest.raises(ZeroDivisionError):
        cond.probability("NS", "XX")  # the source's count is checked first


def test_accessor_lookups_on_known_ids(hand_cc):
    table = pattern_frequencies(hand_cc)
    assert table.row(["IP", "NR"]).strategies == ("NR", "IP")
    assert table.exact_count({"NS"}) == 0
    assert table.containment_count({"NR", "NM"}) == 1
    assert table.containment_count(set()) == 4  # the mapped total
    assert table.exact_count(set()) == 0
    with pytest.raises(KeyError) as err:
        table.row(set())
    assert err.value.args == ([],)
    graph = cooccurrence(hand_cc)
    assert graph.edge_weight("NS", "NR") == 0  # both nodes, no edge
    assert graph.edge_weight("IP", "NR") == graph.edge_weight("NR", "IP") == 2
    assert graph.edge_weight("NR", "NR") == 0  # no self-loops
    cond = conditional_probabilities(hand_cc, min_support=3)
    assert cond.probability("NR", "IP") == Fraction(2, 3)
    with pytest.raises(KeyError):
        cond.probability("IP", "NR")  # count(IP) = 2 < min_support
    assert cond.probability("IP", "IP") == 1  # below min_support, but P(s | s) is 1
    with pytest.raises(ZeroDivisionError):
        cond.probability("NS", "NR")  # a node that occurs in no incident
