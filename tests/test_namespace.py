"""The package namespace: its 75 public names resolve, list and star-import
as the objects their submodules define, though each submodule is imported
only on first use."""

import sys

import pytest

import influenceops

# Submodule -> the public names the package takes from it; the nine
# submodules are public names too.
NAMES = {
    "analytics": (
        "ConditionalGraph", "CooccurrenceGraph", "MappingCoverage", "PatternTable", "PrevalenceReport",
        "SizeDistribution", "conditional_probabilities", "cooccurrence", "mapping_coverage", "pattern_frequencies",
        "possible_combination_count", "prevalence", "size_distribution",
    ),
    "corpus": (
        "Corpus", "CorpusSummary", "Incident", "IngestionReport", "corpus_summary", "corpus_to_csv", "corpus_to_json",
        "ingest_corpus", "loads_corpus_csv", "loads_corpus_json",
    ),
    "documents": (),
    "errors": (
        "AmbiguousName", "DisjointnessViolation", "DuplicateIncidentId", "EmptyCorpus", "InfeasibleSpec",
        "InfluenceOpsError", "InvalidRange", "NegativeSupport", "NotFound", "ParseError", "PhaseViolation",
        "SchemaError", "UnknownFormat", "UnknownTechnique", "ZeroIncidents",
    ),
    "generate": ("GeneratorSpec", "generate_corpus", "load_generator_spec", "loads_generator_spec"),
    "render": (),
    "resources": ("load_bundled_catalog", "load_bundled_taxonomy", "load_fixture_spec"),
    "strategies": (
        "STRATEGY_ORDER", "ClassifiedCorpus", "StrategyCatalog", "StrategyDefinition", "StrategyProfile",
        "check_disjointness", "classify_corpus", "classify_incident", "load_strategy_catalog", "loads_strategy_catalog",
    ),
    "taxonomy": (
        "Phase", "Tactic", "Taxonomy", "Technique", "ValidationReport", "Violation", "load_taxonomy",
        "loads_taxonomy", "lookup_technique", "serialize_taxonomy", "validate_taxonomy",
    ),
}
OWNER = {name: module for module, names in NAMES.items() for name in (module, *names)}


@pytest.mark.parametrize("name", sorted(OWNER))
def test_each_name_resolves_to_what_its_submodule_defines(name):
    value = getattr(influenceops, name)
    bound = {}
    exec(f"from influenceops import {name}", bound)
    assert bound[name] is value
    assert name in dir(influenceops)
    module = sys.modules[f"influenceops.{OWNER[name]}"]
    assert value is (module if name == OWNER[name] else vars(module)[name])


def test_star_import_binds_the_same_names():
    bound = {}
    exec("from influenceops import *", bound)
    assert bound.keys() - {"__builtins__"} == OWNER.keys() and len(OWNER) == 75
    assert influenceops.__version__ == "0.1.0"


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(influenceops, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        influenceops.no_such_name
    with pytest.raises(ImportError):
        from influenceops import no_such_name  # noqa: F401


def test_an_import_error_in_a_submodule_propagates(monkeypatch):
    """A failed import is not turned into AttributeError, which hasattr and
    getattr with a default would swallow."""
    monkeypatch.delitem(vars(influenceops), "prevalence", raising=False)
    monkeypatch.setitem(sys.modules, "influenceops.analytics", None)
    with pytest.raises(ImportError, match="influenceops.analytics"):
        influenceops.prevalence
