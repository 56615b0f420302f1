import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from influenceops import (
    GeneratorSpec,
    InfeasibleSpec,
    InfluenceOpsError,
    ParseError,
    SchemaError,
    StrategyCatalog,
    ZeroIncidents,
    classify_corpus,
    corpus_to_csv,
    corpus_to_json,
    generate_corpus,
    load_fixture_spec,
    load_generator_spec,
    load_strategy_catalog,
    load_taxonomy,
    loads_generator_spec,
    prevalence,
    size_distribution,
)

import influenceops
import oracle
from helpers import non_disjoint_catalog, profiles_of
from influenceops.cli import main
from influenceops.generate import (
    MAX_INCIDENTS,
    _YEAR_RANGE,
    _class_patterns,
    _class_takes,
    _document,
    _layout,
    _layout_csv,
    _layout_json,
    _randranges,
    _shuffle,
    _spec,
)
from influenceops.render import CHUNK_ROWS
from influenceops.resources import bundled_data_path

SOLVER_TARGETS_DOC = """
{
  "mode": "marginal-solver",
  "seed": 42,
  "unmapped_count": 1,
  "marginals": {"NR": 78, "NM": 53, "IP": 51, "NS": 39, "NA": 34, "CNR": 26, "TD": 24},
  "size_distribution": {"1": 6, "2": 11, "3": 14, "4": 24, "5": 15, "6": 6, "7": 4}
}
"""


def exact_spec(pattern_counts, seed=42, unmapped=0):
    return GeneratorSpec(
        mode="exact-patterns",
        pattern_counts={frozenset(p): n for p, n in pattern_counts.items()},
        unmapped_count=unmapped,
        seed=seed,
    )


def mapped_profiles(corpus, catalog):
    return [set(p.strategies) for p in profiles_of(corpus, catalog) if p.mapped]


# --- exact mode ----------------------------------------------------------------


def test_exact_mode_construction_recovers_patterns(catalog):
    spec = exact_spec({("NR",): 1, ("NR", "IP"): 2})
    corpus = generate_corpus(spec, catalog)
    assert len(corpus) == 3
    recovered = Counter(frozenset(p) for p in mapped_profiles(corpus, catalog))
    assert recovered == Counter({frozenset({"NR"}): 1, frozenset({"NR", "IP"}): 2})


def test_exact_mode_unmapped_incidents(catalog):
    spec = exact_spec({("NR",): 2}, unmapped=3)
    corpus = generate_corpus(spec, catalog)
    cc = classify_corpus(corpus, catalog)
    assert cc.total_count == 5
    assert cc.mapped_count == 2


def test_zero_incident_spec_rejected(catalog):
    with pytest.raises(ZeroIncidents):
        generate_corpus(exact_spec({}), catalog)


def test_include_preparation_adds_pipelines_without_changing_classification(catalog):
    bare = generate_corpus(exact_spec({("NR", "TD"): 1}), catalog)
    full = generate_corpus(
        replace(exact_spec({("NR", "TD"): 1}), include_preparation=True), catalog
    )
    nr, td = catalog.by_id("NR"), catalog.by_id("TD")
    assert bare.incidents[0].techniques == {nr.execution_technique, td.execution_technique}
    assert full.incidents[0].techniques == (
        {nr.execution_technique, td.execution_technique}
        | nr.preparation_techniques
        | td.preparation_techniques
    )
    assert mapped_profiles(bare, catalog) == mapped_profiles(full, catalog)


@pytest.mark.parametrize("include_preparation, strict_prep", [(False, False), (True, False), (True, True)])
@pytest.mark.parametrize("hand_built", [False, True], ids=["bundled", "non_disjoint"])
def test_a_one_pattern_spec_classifies_back_to_itself(catalog, hand_built, include_preparation, strict_prep):
    """Every non-empty pattern, alone in an exact spec, is what classifying the
    output gives back, also where a preparation technique executes another
    strategy (the non-disjoint catalog: NS prepares with NR's execution)."""
    catalog = non_disjoint_catalog(catalog) if hand_built else catalog
    wrong = []
    for mask in range(1, 1 << len(catalog.strategies)):
        spec = replace(exact_spec({catalog.ids_of_mask(mask): 2}), include_preparation=include_preparation)
        cc = classify_corpus(generate_corpus(spec, catalog), catalog, strict_prep)
        if cc.histogram != {mask: 2}:
            wrong.append((catalog.ids_of_mask(mask), dict(cc.histogram)))
    assert wrong == []


def shared_execution_catalog(catalog):
    """The catalog with NS given NR's execution technique, as only a
    hand-built catalog can have: neither strategy can occur without the other."""
    nr = catalog.by_id("NR")
    return StrategyCatalog(
        tuple(replace(s, execution_technique=nr.execution_technique) if s.id == "NS" else s
              for s in catalog.strategies),
        catalog.taxonomy_version,
    )


@pytest.mark.parametrize("spec", [
    exact_spec({("NS",): 1, ("NR",): 1, ("NR", "NA"): 1, ("NR", "NS"): 1}),
    GeneratorSpec(mode="marginal-solver", marginals={"NR": 2, "NA": 1}, size_distribution={2: 1, 1: 1}),
], ids=["exact", "solver"])
def test_a_pattern_split_from_a_shared_execution_technique_is_refused(catalog, spec):
    """The first pattern in largest-first order that holds NR without NS."""
    with pytest.raises(InfeasibleSpec) as raised:
        generate_corpus(spec, shared_execution_catalog(catalog))
    assert str(raised.value) == ("pattern ['NR', 'NA'] cannot be generated: the execution technique of NR"
                                 " also executes a strategy outside the pattern")


def test_a_pattern_holding_both_strategies_of_a_shared_execution_technique_generates(catalog):
    shared = shared_execution_catalog(catalog)
    spec = exact_spec({("NR", "NS"): 2, ("NR", "NS", "TD"): 1, ("NR",): 0}, unmapped=1)
    cc = classify_corpus(generate_corpus(spec, shared), shared)
    assert cc.histogram == {shared.mask_of(["NR", "NS"]): 2, shared.mask_of(["NR", "NS", "TD"]): 1, 0: 1}


# --- solver mode ---------------------------------------------------------------


def test_solver_satisfies_both_constraint_families(catalog):
    spec = loads_generator_spec(SOLVER_TARGETS_DOC)
    corpus = generate_corpus(spec, catalog)
    assert len(corpus) == 81
    profiles = mapped_profiles(corpus, catalog)
    assert len(profiles) == 80
    for strategy_id, wanted in spec.marginals.items():
        assert oracle.strategy_count(profiles, strategy_id) == wanted
    assert oracle.size_counts(profiles) == spec.size_distribution
    # handshake: 305 on both sides
    assert sum(spec.marginals.values()) == 305
    assert sum(len(p) for p in profiles) == 305


def test_solver_handshake_violation_cites_identity(catalog):
    spec = loads_generator_spec(SOLVER_TARGETS_DOC)
    bad = replace(spec, marginals={**spec.marginals, "TD": 25})
    with pytest.raises(InfeasibleSpec) as err:
        generate_corpus(bad, catalog)
    assert "handshake" in str(err.value)


def test_solver_respects_pinned_minimums(catalog, fixture_spec, fixture_corpus):
    profiles = mapped_profiles(fixture_corpus, catalog)
    for pattern, minimum in fixture_spec.pinned_patterns.items():
        assert oracle.exact_count(profiles, pattern) >= minimum


def test_pinned_pattern_exceeding_marginal_is_infeasible(catalog):
    spec = GeneratorSpec(
        mode="marginal-solver",
        marginals={"NR": 1, "NS": 1},
        size_distribution={2: 1},
        pinned_patterns={frozenset({"NR", "TD"}): 1},
        seed=1,
    )
    with pytest.raises(InfeasibleSpec):
        generate_corpus(spec, catalog)


def test_solver_detects_structurally_impossible_spec(catalog):
    # handshake holds (3+2 = 3+1+1) but a size-3 profile needs three
    # distinct strategies and only two have any budget: NR and NS need 5
    # places, and the incidents hold min(3,2) + 2*min(1,2) = 4 of two strategies
    spec = GeneratorSpec(
        mode="marginal-solver",
        marginals={"NR": 3, "NS": 2},
        size_distribution={3: 1, 1: 2},
        seed=1,
    )
    with pytest.raises(InfeasibleSpec) as err:
        generate_corpus(spec, catalog)
    assert str(err.value) == (
        "Gale-Ryser condition fails at t=2: the 2 largest residual marginals sum to "
        "5 > 4 = sum over sizes of min(k, 2)*count"
    )


@st.composite
def small_solver_specs(draw):
    """Marginal-solver specs of at most six incidents over at most four strategies.

    The targets come from a drawn pattern list, so most are feasible; moving
    one unit of marginal between strategies keeps the handshake identity but
    often breaks feasibility, and pinned minimums may or may not be met.
    """
    strategies = draw(st.lists(st.sampled_from(STRATEGY_IDS), min_size=1, max_size=4, unique=True))
    pattern = st.lists(st.sampled_from(strategies), min_size=1, unique=True).map(frozenset)
    patterns = draw(st.lists(pattern, min_size=1, max_size=6))
    marginals = Counter(s for p in patterns for s in p)
    if draw(st.booleans()):
        source, target = draw(st.sampled_from(sorted(marginals))), draw(st.sampled_from(strategies))
        marginals[source] -= 1
        marginals[target] += 1
    pinned = draw(st.dictionaries(pattern, st.integers(0, 2), max_size=2))
    return GeneratorSpec(
        mode="marginal-solver",
        marginals=dict(marginals),
        size_distribution=dict(Counter(len(p) for p in patterns)),
        pinned_patterns=pinned,
        seed=draw(st.integers(0, 2**32)),
    )


STRATEGY_IDS = ("NR", "NS", "NA", "CNR", "NM", "TD", "IP")


@settings(max_examples=300, deadline=None)
@given(spec=small_solver_specs())
def test_solver_succeeds_iff_a_realisation_exists(catalog, spec):
    realisation = oracle.realisation(spec.marginals, spec.size_distribution, spec.pinned_patterns)
    try:
        corpus = generate_corpus(spec, catalog)
    except InfeasibleSpec:
        assert realisation is None
        return
    assert realisation is not None
    profiles = mapped_profiles(corpus, catalog)
    assert oracle.size_counts(profiles) == spec.size_distribution
    for strategy_id in catalog.ids():
        assert oracle.strategy_count(profiles, strategy_id) == spec.marginals.get(strategy_id, 0)
    for pattern, minimum in spec.pinned_patterns.items():
        assert oracle.exact_count(profiles, pattern) >= minimum


@st.composite
def size_classes(draw):
    """A size class that Ryser's greedy can fill: residual marginals of n
    strategies, c incidents of size k with sum(min(r, c)) >= k*c, and a
    tie-break order."""
    n = draw(st.integers(1, 8))
    c = draw(st.integers(1, 500))
    residual = draw(st.lists(st.integers(0, c + 300), min_size=n, max_size=n))
    fits = min(n, sum(min(r, c) for r in residual) // c)
    assume(fits >= 1)
    return residual, draw(st.integers(1, fits)), c, draw(st.permutations(range(n)))


@settings(max_examples=500, deadline=None)
@given(size_class=size_classes())
def test_the_sweep_takes_what_the_bisection_took(size_class):
    assert _class_takes(*size_class) == oracle.class_takes(*size_class)


@pytest.mark.parametrize("residual, k, c, order", [
    pytest.param([9, 3, 3], 2, 4, [0, 1, 2], id="take_of_c_arc_from_0"),
    pytest.param([9, 3, 3], 2, 4, [1, 0, 2], id="take_of_c_arc_wrapping"),
    pytest.param([2, 1, 3], 1, 5, [2, 0, 1], id="residuals_below_c"),
    pytest.param([6, 6, 6, 6], 2, 5, [3, 1, 0, 2], id="all_residuals_equal"),
    pytest.param([5, 7, 5], 3, 5, [1, 2, 0], id="k_equals_n"),
    pytest.param([9, 5, 5, 5, 1], 2, 4, [4, 3, 1, 0, 2], id="ties_at_the_level"),
])
def test_a_size_class_a_draw_can_miss(residual, k, c, order):
    """The bisection's takes, laid out as c incidents of k strategies each."""
    takes = _class_takes(residual, k, c, order)
    assert takes == oracle.class_takes(residual, k, c, order)
    runs = _class_patterns(takes, c, order)
    assert sum(count for _, count in runs) == c
    assert {mask.bit_count() for mask, _ in runs} == {k}
    assert [sum(count for mask, count in runs if mask >> j & 1) for j in range(len(residual))] == takes


def scaled_fixture_spec(scale, seed=5):
    """The fixture's targets times scale, nothing pinned."""
    fixture = load_fixture_spec()
    return {
        "mode": "marginal-solver",
        "seed": seed,
        "unmapped_count": fixture.unmapped_count * scale,
        "marginals": {s: m * scale for s, m in fixture.marginals.items()},
        "size_distribution": {str(k): c * scale for k, c in fixture.size_distribution.items()},
    }


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_generate_fixture_marginals_times_fifty(catalog, taxonomy, tmp_path, fmt):
    """4,050 unpinned incidents; the solver once recursed per incident here."""
    from influenceops import ingest_corpus

    doc = scaled_fixture_spec(50)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / f"corpus.{fmt}"
    assert main(["generate", "--spec", str(spec_path), "--corpus-format", fmt, "--out", str(out)]) == 0
    corpus, _ = ingest_corpus(out, taxonomy)
    assert len(corpus) == 4050
    cc = classify_corpus(corpus, catalog)
    assert cc.total_count - cc.mapped_count == doc["unmapped_count"]
    profiles = mapped_profiles(corpus, catalog)
    assert oracle.size_counts(profiles) == {int(k): c for k, c in doc["size_distribution"].items()}
    for strategy_id, wanted in doc["marginals"].items():
        assert oracle.strategy_count(profiles, strategy_id) == wanted


def test_spec_over_the_incident_limit_is_refused(catalog, tmp_path, capsys):
    spec = exact_spec({("NR",): MAX_INCIDENTS}, unmapped=1)
    with pytest.raises(SchemaError):
        generate_corpus(spec, catalog)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"mode": "exact-patterns", "unmapped_count": 10**30}), encoding="utf-8")
    assert main(["generate", "--spec", str(spec_path)]) == 1
    assert "SchemaError" in capsys.readouterr().err


def test_solver_randomized_feasible_specs(catalog):
    """Aggregates of any realizable pattern multiset must be solvable."""
    rng = random.Random(20260811)
    ids = list(catalog.ids())
    for _ in range(150):
        n_incidents = rng.randrange(1, 30)
        patterns = [
            frozenset(rng.sample(ids, rng.randrange(1, 8))) for _ in range(n_incidents)
        ]
        marginals = Counter(s for p in patterns for s in p)
        sizes = Counter(len(p) for p in patterns)
        spec = GeneratorSpec(
            mode="marginal-solver",
            marginals=dict(marginals),
            size_distribution=dict(sizes),
            seed=rng.randrange(2**32),
        )
        corpus = generate_corpus(spec, catalog)
        profiles = mapped_profiles(corpus, catalog)
        assert oracle.size_counts(profiles) == dict(sizes)
        for strategy_id in ids:
            assert oracle.strategy_count(profiles, strategy_id) == marginals.get(strategy_id, 0)


# --- determinism ---------------------------------------------------------------


def test_generation_is_deterministic(catalog, fixture_spec):
    a = generate_corpus(fixture_spec, catalog)
    b = generate_corpus(fixture_spec, catalog)
    assert corpus_to_csv(a) == corpus_to_csv(b)


def test_seed_changes_layout_but_not_aggregates(catalog):
    spec = loads_generator_spec(SOLVER_TARGETS_DOC)
    other = replace(spec, seed=7)
    a, b = generate_corpus(spec, catalog), generate_corpus(other, catalog)
    assert corpus_to_csv(a) != corpus_to_csv(b)
    for corpus in (a, b):
        cc = classify_corpus(corpus, catalog)
        assert prevalence(cc).count("NR") == 78
        assert size_distribution(cc).counts[4] == 24


def test_exact_mode_is_order_insensitive(catalog):
    forward = exact_spec({("NR",): 2, ("TD", "IP"): 1})
    backward = GeneratorSpec(
        mode="exact-patterns",
        pattern_counts={frozenset({"TD", "IP"}): 1, frozenset({"NR"}): 2},
        unmapped_count=0,
        seed=42,
    )
    assert corpus_to_csv(generate_corpus(forward, catalog)) == corpus_to_csv(
        generate_corpus(backward, catalog)
    )


# --- spec parsing --------------------------------------------------------------


def test_spec_parse_errors():
    with pytest.raises(ParseError):
        loads_generator_spec("{nope")
    with pytest.raises(SchemaError):
        loads_generator_spec('{"mode": "telepathy"}')
    with pytest.raises(SchemaError):
        loads_generator_spec(
            '{"mode": "marginal-solver", "marginals": {"NR": -1}, "size_distribution": {}}'
        )
    with pytest.raises(SchemaError):
        loads_generator_spec(
            '{"mode": "exact-patterns",'
            ' "pattern_counts": [{"strategies": ["NR", "NR"], "count": 1}]}'
        )


def test_spec_lone_surrogate_escape_is_parse_error():
    doc = {"mode": "marginal-solver", "marginals": {"N\ud800R": 1}, "size_distribution": {"1": 1}}
    with pytest.raises(ParseError, match="cannot be encoded as UTF-8"):
        loads_generator_spec(json.dumps(doc))


@pytest.mark.parametrize("value", ['"no"', "0", "1", "null", "[]"])
def test_spec_include_preparation_must_be_boolean(value):
    with pytest.raises(SchemaError, match="include_preparation"):
        loads_generator_spec('{"mode": "exact-patterns", "include_preparation": %s}' % value)
    assert loads_generator_spec('{"mode": "exact-patterns", "include_preparation": true}').include_preparation


@pytest.mark.parametrize("key", ["01", "1_0", " 1", "+1", "1.0", "\u0661", "one", ""])
def test_spec_size_key_must_be_canonical_decimal(key):
    doc = {"mode": "marginal-solver", "size_distribution": {key: 1}}
    with pytest.raises(SchemaError, match="canonical decimal"):
        loads_generator_spec(json.dumps(doc))


def test_spec_keys_naming_one_size_twice_are_rejected():
    with pytest.raises(SchemaError):
        loads_generator_spec('{"mode": "marginal-solver", "size_distribution": {"1": 1, "01": 2}}')
    with pytest.raises(SchemaError, match="twice"):
        loads_generator_spec('{"mode": "marginal-solver", "size_distribution": {"1": 1, "1": 2}}')
    assert loads_generator_spec(
        '{"mode": "marginal-solver", "size_distribution": {"1": 1, "10": 2}}'
    ).size_distribution == {1: 1, 10: 2}


def test_spec_with_unknown_strategy_id_rejected(catalog):
    spec = exact_spec({("NR", "ZZ"): 1})
    with pytest.raises(SchemaError):
        generate_corpus(spec, catalog)


def test_fixture_spec_document_round_trips(fixture_spec):
    assert fixture_spec.mode == "marginal-solver"
    assert fixture_spec.unmapped_count == 1
    assert sum(fixture_spec.marginals.values()) == 305
    assert sum(k * v for k, v in fixture_spec.size_distribution.items()) == 305
    assert len(fixture_spec.pinned_patterns) == 30
    assert sum(fixture_spec.pinned_patterns.values()) == 80


def test_zero_count_size_above_strategy_count_is_ignored(catalog):
    spec = loads_generator_spec(
        '{"mode": "marginal-solver", "marginals": {"NR": 5}, "size_distribution": {"1": 5, "9": 0}}'
    )
    corpus = generate_corpus(spec, catalog)
    assert len(corpus) == 5
    assert size_distribution(classify_corpus(corpus, catalog)).counts == {1: 5}


def test_positive_count_size_above_strategy_count_is_refused(catalog):
    """Sizes 9 and 8, the least size above the seven strategies: the second
    would otherwise fall through to a later check with another message."""
    for size in (9, 8):
        spec = loads_generator_spec(json.dumps({
            "mode": "marginal-solver", "marginals": {"NR": 5, "NS": size}, "size_distribution": {"1": 5, str(size): 1},
        }))
        with pytest.raises(InfeasibleSpec) as raised:
            generate_corpus(spec, catalog)
        assert str(raised.value) == f"size_distribution requests profiles of size {size} > 7 strategies"


def test_negative_seed_is_refused_however_the_spec_was_made(catalog):
    spec = exact_spec({frozenset({"NR"}): 2})
    with pytest.raises(SchemaError, match="generator spec: field 'seed' must be a non-negative integer"):
        generate_corpus(replace(spec, seed=-3), catalog)
    assert len(generate_corpus(replace(spec, seed=0), catalog)) == 2


def test_negative_counts_are_refused_however_the_spec_was_made(catalog):
    # -2 unmapped used to offset the total: 3 incidents laid out after a check of 1.
    spec = GeneratorSpec(mode="exact-patterns", pattern_counts={frozenset({"NR"}): 3}, unmapped_count=-2)
    with pytest.raises(SchemaError, match="generator spec: field 'unmapped_count' must be a non-negative integer"):
        generate_corpus(spec, catalog)
    solver = GeneratorSpec(mode="marginal-solver", marginals={"NR": 1}, size_distribution={1: 1})
    for edit, message in [
        ({"pattern_counts": {frozenset({"NR", "NS"}): -1}}, r"pattern_counts\[0\]: field 'count' must be"),
        ({"pinned_patterns": {frozenset({"NR"}): -1}}, r"pinned_patterns\[0\]: field 'min_count' must be"),
        ({"marginals": {"NR": 2, "NS": -1}}, "marginals: field 'NS' must be"),
        ({"size_distribution": {1: 2, 2: -1}}, "size_distribution: field '2' must be"),
        ({"unmapped_count": True}, "field 'unmapped_count' must be"),
    ]:
        with pytest.raises(SchemaError, match=message):
            generate_corpus(replace(solver, **edit), catalog)


def test_a_hand_built_spec_is_held_to_the_loaders_rules(catalog):
    """A mode, a size and an include_preparation that a spec file cannot hold
    are refused in the loader's words, before the solver runs. A typo'd mode
    used to run the solver, and a size of 0 to add incidents without a
    technique."""
    for spec, doc, message in [
        (GeneratorSpec(mode="typo", pattern_counts={frozenset({"NR"}): 3}), {"mode": "typo"},
         "generator spec: field 'mode' must be 'exact-patterns' or 'marginal-solver', not 'typo'"),
        (GeneratorSpec(mode="marginal-solver", size_distribution={0: 5}),
         {"mode": "marginal-solver", "size_distribution": {"0": 5}}, "size_distribution: size 0 must be >= 1"),
        (GeneratorSpec(mode="marginal-solver", marginals={"NR": 1}, size_distribution={0: 2, 1: 1}),
         {"mode": "marginal-solver", "marginals": {"NR": 1}, "size_distribution": {"0": 2, "1": 1}},
         "size_distribution: size 0 must be >= 1"),
        (replace(exact_spec({frozenset({"NR"}): 2}), include_preparation=1),
         {"mode": "exact-patterns", "include_preparation": 1},
         "generator spec: field 'include_preparation' must be true or false"),
    ]:
        for refuse in (lambda: generate_corpus(spec, catalog), lambda: loads_generator_spec(json.dumps(doc))):
            with pytest.raises(SchemaError) as raised:
                refuse()
            assert str(raised.value) == message


def test_an_empty_pattern_of_a_hand_built_spec_is_refused(catalog):
    """An empty pattern is refused in a hand-built spec as in a file. It used to
    add its incidents to the unmapped ones, which is what unmapped_count is for."""
    spec = exact_spec({(): 2, ("NR",): 1}, unmapped=3)
    doc = {"mode": "exact-patterns", "pattern_counts": [{"strategies": [], "count": 2}]}
    for refuse in (lambda: generate_corpus(spec, catalog), lambda: loads_generator_spec(json.dumps(doc))):
        with pytest.raises(SchemaError) as raised:
            refuse()
        assert str(raised.value) == "pattern_counts[0]: field 'strategies' must not be empty"
    assert len(generate_corpus(replace(spec, pattern_counts={frozenset({"NR"}): 1}), catalog)) == 4


@pytest.mark.parametrize("spec, message", [
    (GeneratorSpec(mode="marginal-solver", marginals={"NR": 1}, size_distribution={"2": 1}),
     "size_distribution: key \"'2'\" is not a size in canonical decimal"),
    (GeneratorSpec(mode="marginal-solver", marginals={"NR": 1}, size_distribution={True: 1}),
     "size_distribution: key 'True' is not a size in canonical decimal"),
    (GeneratorSpec(mode="marginal-solver", marginals={"NR": 1}, size_distribution={1.0: 1}),
     "size_distribution: key '1.0' is not a size in canonical decimal"),
    (GeneratorSpec(mode="marginal-solver", marginals={1: 1}, size_distribution={1: 1}),
     "generator spec references unknown strategy ids: 1"),
    (GeneratorSpec(mode="exact-patterns", pattern_counts={("NR",): 1}),
     "pattern_counts[0]: field 'strategies' must be an array of strings"),
    (GeneratorSpec(mode="exact-patterns", pattern_counts={"NR": 1}),
     "pattern_counts[0]: field 'strategies' must be an array of strings"),
    (GeneratorSpec(mode="exact-patterns", pattern_counts={frozenset({1}): 1}),
     "pattern_counts[0]: field 'strategies' must be an array of strings"),
    (GeneratorSpec(mode="exact-patterns", pattern_counts=[({"NR"}, 1)]),
     "generator spec: field 'pattern_counts' must be an array"),
    (GeneratorSpec(mode="marginal-solver", marginals=None),
     "generator spec: field 'marginals' must be an object"),
], ids=["size-str", "size-bool", "size-float", "marginal-int", "pattern-tuple", "pattern-str", "pattern-int-id",
        "patterns-list", "marginals-none"])
def test_a_hand_built_spec_that_no_file_can_state_is_refused(catalog, spec, message):
    """A size that is not an int, an id that is not a string, a pattern that
    is not a frozenset and a table that is not a dict are SchemaErrors, not
    TypeErrors or AttributeErrors; True and 1.0 are not taken for size 1."""
    with pytest.raises(SchemaError) as raised:
        generate_corpus(spec, catalog)
    assert str(raised.value) == message


# --- the generate command against the library ------------------------------------

GOLDEN = Path(__file__).parent / "golden"
ESCAPED_FILES = [
    "--taxonomy", str(GOLDEN / "escaped_taxonomy.json"), "--catalog", str(GOLDEN / "escaped_catalog.json"),
]


@pytest.fixture(scope="module")
def escaped_catalog():
    taxonomy = load_taxonomy(GOLDEN / "escaped_taxonomy.json")
    return load_strategy_catalog(GOLDEN / "escaped_catalog.json", taxonomy)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("generate")


@st.composite
def spec_documents(draw, ids):
    """Spec documents over the strategy ids ``ids``, of either mode. Solver
    targets are read off a drawn incidence, so most are feasible; some are
    perturbed, and some describe zero or too many incidents."""
    patterns = st.frozensets(st.sampled_from(ids), min_size=1).map(sorted)
    counts = st.sampled_from(range(7))
    drawn = draw(st.lists(st.tuples(patterns, counts), max_size=6, unique_by=lambda p: tuple(p[0])))
    doc = {
        "mode": draw(st.sampled_from(["marginal-solver", "exact-patterns"])),
        "seed": draw(st.integers(0, 2**40)),
        "unmapped_count": draw(st.integers(0, 3)),
        "include_preparation": draw(st.booleans()),
    }
    if doc["mode"] == "exact-patterns":
        doc["pattern_counts"] = [{"strategies": p, "count": c} for p, c in drawn]
    else:
        marginals = dict.fromkeys(ids, 0)
        sizes = Counter()
        for pattern, c in drawn:
            sizes[len(pattern)] += c
            for s in pattern:
                marginals[s] += c
        doc["pinned_patterns"] = [
            {"strategies": p, "min_count": draw(st.integers(0, c))} for p, c in drawn if draw(st.booleans())
        ]
        if draw(st.sampled_from([False] * 4 + [True])):
            s = draw(st.sampled_from(ids))
            marginals[s] = max(0, marginals[s] + draw(st.sampled_from([-1, 1])))
        doc["marginals"] = marginals
        doc["size_distribution"] = {str(k): c for k, c in sizes.items()}
    if draw(st.sampled_from([False] * 9 + [True])):
        doc["unmapped_count"] = MAX_INCIDENTS + draw(st.integers(1, 3))
    return doc


@pytest.mark.parametrize("path", [bundled_data_path("fixture_spec.json"), *sorted(GOLDEN.glob("*_spec.json"))],
                         ids=lambda path: path.name)
def test_a_golden_spec_is_the_spec_of_its_document(path):
    """A valid spec is checked as itself: ``_document`` keeps all that ``_spec`` reads."""
    spec = load_generator_spec(path)
    assert _spec(_document(spec)) == spec


ESCAPED_IDS = [s["id"] for s in json.loads((GOLDEN / "escaped_catalog.json").read_text(encoding="utf-8"))["strategies"]]


@settings(max_examples=200, deadline=None)
@given(spec=small_solver_specs() | st.sampled_from([STRATEGY_IDS, ESCAPED_IDS]).flatmap(spec_documents).map(
    lambda doc: loads_generator_spec(json.dumps(doc))))
def test_a_drawn_spec_is_the_spec_of_its_document(spec):
    assert _spec(_document(spec)) == spec


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.data(),
    escaped=st.booleans(),
    fmt=st.sampled_from(["csv", "json"]),
    seed=st.none() | st.integers(-3, 2**40),
    to_file=st.booleans(),
)
def test_generate_command_writes_what_the_library_generates(
    catalog, escaped_catalog, scratch, data, escaped, fmt, seed, to_file
):
    """main(["generate", ...]) writes corpus_to_csv/corpus_to_json of
    generate_corpus byte for byte, and fails as it fails, writing nothing."""
    cat = escaped_catalog if escaped else catalog
    doc = data.draw(spec_documents(cat.ids()))
    spec_path = scratch / "spec.json"
    spec_path.write_text(json.dumps(doc), encoding="utf-8")
    spec = loads_generator_spec(json.dumps(doc))
    if seed is not None:
        spec = replace(spec, seed=seed)
    try:
        corpus = generate_corpus(spec, cat)
    except InfluenceOpsError as exc:
        expected, error = None, f"{type(exc).__name__}: {exc}\n"
    else:
        expected, error = (corpus_to_json if fmt == "json" else corpus_to_csv)(corpus), ""
    event(f"{doc['mode']}: {error.split(':')[0] or 'generated'}")

    argv = ["generate", "--spec", str(spec_path), "--corpus-format", fmt, *(ESCAPED_FILES if escaped else [])]
    if seed is not None:
        argv += ["--seed", str(seed)]
    out = scratch / "out"
    out.unlink(missing_ok=True)
    if to_file:
        argv += ["--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main(argv)
    assert stderr.getvalue() == error
    if expected is None:
        assert rc == 1 and stdout.getvalue() == "" and not out.exists()
    else:
        assert rc == 0
        written = out.read_bytes() if to_file else stdout.getvalue().encode("utf-8")
        assert written == expected.encode("utf-8")


@pytest.mark.parametrize("rows", [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_generate_output_across_chunk_boundaries(catalog, tmp_path, capsysbinary, rows, fmt):
    """Each golden is shorter than one chunk. At and around the chunk sizes,
    stdout and --out both hold corpus_to_csv/corpus_to_json of generate_corpus,
    and the command wrote it in as many chunks as the rows fill."""
    counts = [(["NR"], rows // 2), (["NS", "TD"], rows // 4)]
    doc = {"mode": "exact-patterns", "seed": rows, "include_preparation": True, "unmapped_count": rows - rows // 2 -
           rows // 4, "pattern_counts": [{"strategies": ids, "count": c} for ids, c in counts if c]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc), encoding="utf-8")
    spec = loads_generator_spec(json.dumps(doc))
    write, chunks = (corpus_to_json, _layout_json) if fmt == "json" else (corpus_to_csv, _layout_csv)
    expected = write(generate_corpus(spec, catalog)).encode("utf-8")
    assert len(list(chunks(_layout(spec, catalog)))) == -(-rows // CHUNK_ROWS)
    argv = ["generate", "--spec", str(spec_path), "--corpus-format", fmt]
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == expected
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out").read_bytes() == expected


def test_generate_holds_less_than_half_of_its_output_at_once(tmp_path):
    """The fixture spec's targets x250 (20,250 incidents) as JSON: the traced
    peak of the command stays under half the bytes it writes, because the
    rows are rendered and written a chunk at a time."""
    import tracemalloc

    fixture = json.loads(bundled_data_path("fixture_spec.json").read_text(encoding="utf-8"))
    doc = {"mode": "marginal-solver", "seed": 7, "unmapped_count": fixture["unmapped_count"] * 250,
           **{key: {k: c * 250 for k, c in fixture[key].items()} for key in ("marginals", "size_distribution")}}
    spec_path, out = tmp_path / "spec.json", tmp_path / "corpus.json"
    spec_path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["generate", "--spec", str(spec_path), "--corpus-format", "json", "--out", str(out)]
    assert main(argv) == 0  # the parser is built once per process
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size / 2, (peak, out.stat().st_size)


def test_the_layout_makes_no_object_per_incident(catalog):
    """The fixture spec's targets x250 (20,250 incidents): the traced peak of
    _layout stays under 24 bytes per incident. That is a list slot per
    incident for its shared technique set, a byte for its year offset and the
    year draw's transient words; a tuple or a year int per incident would
    take more. The layout's len() is its incident count."""
    import tracemalloc

    spec = loads_generator_spec(json.dumps(scaled_fixture_spec(250, seed=7)))
    incidents = 81 * 250
    assert len(_layout(spec, catalog)) == incidents
    tracemalloc.start()
    try:
        layout = _layout(spec, catalog)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(layout) == incidents
    assert peak < 24 * incidents, peak / incidents


# sha256 of generate's output for the fixture spec's targets x50 (4,050
# incidents), with the spec's seed and with a --seed: the year draws take
# several rounds of generator words, and the shuffle is 50 times the golden's.
SCALED_SHA256 = {
    (None, "csv"): "744581f0118305a647d1cabc553e91da2fefb3de66b7ff2aa695a92e59299a29",
    (None, "json"): "4a27dc09e4a4bbcbacebe64dc78cdefe684b39f858d6c7c5368a3e90f68410dc",
    (2024, "csv"): "5c2dd155f61857de21f3a7c31fcc655170224188363c26242a0811a16ea087e7",
    (2024, "json"): "0b9417f017dea84ba8ccae8db77018a4fd9a4e44cd12ba56728b16dc9fa418c2",
}


@pytest.mark.parametrize("seed, fmt", list(SCALED_SHA256))
def test_generate_bytes_at_fifty_times_the_fixture(tmp_path, seed, fmt):
    spec_path, out = tmp_path / "spec.json", tmp_path / "corpus"
    spec_path.write_text(json.dumps(scaled_fixture_spec(50, seed=7)), encoding="utf-8")
    argv = ["generate", "--spec", str(spec_path), "--corpus-format", fmt, "--out", str(out)]
    assert main(argv if seed is None else [*argv, "--seed", str(seed)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SCALED_SHA256[seed, fmt]


def test_generate_errors_match_the_library(catalog, scratch, capsys):
    """Zero-incident, over-limit, infeasible and negative-seed specs: the same
    error as generate_corpus, exit 1, and no --out file."""
    docs = [
        ({"mode": "exact-patterns", "pattern_counts": [{"strategies": ["NR"], "count": 0}]}, None),
        ({"mode": "marginal-solver"}, None),
        ({"mode": "exact-patterns", "pattern_counts": [{"strategies": ["NR"], "count": MAX_INCIDENTS}],
          "unmapped_count": 1}, None),
        ({"mode": "marginal-solver", "marginals": {"NR": 2, "NS": 1}, "size_distribution": {"2": 1, "1": 1},
          "unmapped_count": MAX_INCIDENTS}, None),
        ({"mode": "marginal-solver", "marginals": {"NR": 3}, "size_distribution": {"1": 2}}, None),
        ({"mode": "marginal-solver", "marginals": {"NR": 2, "NS": 0}, "size_distribution": {"2": 1}}, None),
        ({"mode": "exact-patterns", "pattern_counts": [{"strategies": ["NR"], "count": 2}]}, -1),
    ]
    kinds = set()
    for doc, seed in docs:
        spec = loads_generator_spec(json.dumps(doc))
        with pytest.raises(InfluenceOpsError) as caught:
            generate_corpus(spec if seed is None else replace(spec, seed=seed), catalog)
        kinds.add(type(caught.value))
        spec_path = scratch / "bad-spec.json"
        spec_path.write_text(json.dumps(doc), encoding="utf-8")
        out = scratch / "never.csv"
        argv = ["generate", "--spec", str(spec_path), "--out", str(out)]
        assert main(argv if seed is None else [*argv, "--seed", str(seed)]) == 1
        assert capsys.readouterr().err == f"{type(caught.value).__name__}: {caught.value}\n"
        assert not out.exists()
    assert kinds == {ZeroIncidents, SchemaError, InfeasibleSpec}


def test_solver_errors_do_not_depend_on_the_hash_seed(tmp_path):
    """An over-pinned spec names the strategy that runs out first in catalog
    order, in a fresh process under each hash seed."""
    doc = {
        "mode": "marginal-solver",
        "marginals": {"NR": 1, "NS": 1, "NA": 1, "CNR": 1},
        "size_distribution": {"2": 2},
        "pinned_patterns": [{"strategies": ["NR", "NS"], "min_count": 2}],
    }
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    src = str(Path(influenceops.__file__).parents[1])
    errors = set()
    for seed in range(8):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)}
        result = subprocess.run([sys.executable, "-m", "influenceops.cli", "generate", "--spec", str(spec)],
                                capture_output=True, env=env)
        errors.add((result.returncode, result.stdout, result.stderr))
    assert errors == {
        (1, b"", b"InfeasibleSpec: pinned patterns consume more of strategy 'NR' than its marginal allows\n")
    }


# Lengths and widths on either side of each power of two, where the number of
# bits drawn per number changes.
_EDGE_SIZES = sorted({0, 1, 2} | {2**p + d for p in range(1, 12) for d in (-1, 0, 1)})


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    length=st.one_of(st.sampled_from(_EDGE_SIZES), st.integers(0, 3000)),
    # _randranges takes widths below 256, whose draws are bytes.
    width=st.one_of(st.just(_YEAR_RANGE[1] + 1 - _YEAR_RANGE[0]),
                    st.sampled_from([w for w in _EDGE_SIZES[1:] if w < 256]), st.integers(1, 255)),
    first=st.one_of(st.just(_YEAR_RANGE[0]), st.integers(-(2**40), 2**40)),
)
def test_inlined_draws_are_the_draws_of_random_py(seed, length, width, first):
    """generate's shuffle and year draws, held to random.Random on every Python
    the package supports: the same results and the same generator state."""
    a, b = random.Random(seed), random.Random(seed)
    items = list(range(length))
    expected = items[:]
    a.shuffle(expected)
    _shuffle(items, b.getrandbits)
    assert items == expected
    assert a.getstate() == b.getstate()

    expected = [a.randrange(first, first + width) for _ in range(length)]
    assert [first + offset for offset in _randranges(b.getrandbits, width, length)] == expected
    assert a.getstate() == b.getstate()
