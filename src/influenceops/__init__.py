"""Seven-strategy model of influence operations in social networks.

Loads a phase/tactic/technique taxonomy and a catalog of seven disjoint
strategy pipelines, classifies DISARM-tagged incident corpora into strategy
sets, and computes prevalence, combination, co-occurrence, and conditional
probability statistics with exact arithmetic.

Every public name loads on first use (PEP 562): ``import influenceops``
imports no submodule, and ``from influenceops import X`` imports only the
submodule that defines ``X``, with what that submodule imports. Loading the
bundled taxonomy and catalog therefore imports neither ``analytics`` nor
``generate``.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it. Each submodule's own name maps
# to itself, so ``influenceops.analytics`` resolves without a separate
# ``import influenceops.analytics``.
_OWNERS = {
    name: module
    for module, names in {
        "analytics": (
            "ConditionalGraph",
            "CooccurrenceGraph",
            "MappingCoverage",
            "PatternTable",
            "PrevalenceReport",
            "SizeDistribution",
            "conditional_probabilities",
            "cooccurrence",
            "mapping_coverage",
            "pattern_frequencies",
            "possible_combination_count",
            "prevalence",
            "size_distribution",
        ),
        "corpus": (
            "Corpus",
            "CorpusSummary",
            "Incident",
            "IngestionReport",
            "corpus_summary",
            "corpus_to_csv",
            "corpus_to_json",
            "ingest_corpus",
            "loads_corpus_csv",
            "loads_corpus_json",
        ),
        "documents": (),
        "errors": (
            "AmbiguousName",
            "DisjointnessViolation",
            "DuplicateIncidentId",
            "EmptyCorpus",
            "InfeasibleSpec",
            "InfluenceOpsError",
            "InvalidRange",
            "NegativeSupport",
            "NotFound",
            "ParseError",
            "PhaseViolation",
            "SchemaError",
            "UnknownFormat",
            "UnknownTechnique",
            "ZeroIncidents",
        ),
        "generate": ("GeneratorSpec", "generate_corpus", "load_generator_spec", "loads_generator_spec"),
        "render": (),
        "resources": ("load_bundled_catalog", "load_bundled_taxonomy", "load_fixture_spec"),
        "strategies": (
            "STRATEGY_ORDER",
            "ClassifiedCorpus",
            "StrategyCatalog",
            "StrategyDefinition",
            "StrategyProfile",
            "check_disjointness",
            "classify_corpus",
            "classify_incident",
            "load_strategy_catalog",
            "loads_strategy_catalog",
        ),
        "taxonomy": (
            "Phase",
            "Tactic",
            "Taxonomy",
            "Technique",
            "ValidationReport",
            "Violation",
            "load_taxonomy",
            "loads_taxonomy",
            "lookup_technique",
            "serialize_taxonomy",
            "validate_taxonomy",
        ),
    }.items()
    for name in (module, *names)
}

__all__ = sorted(_OWNERS)


def __getattr__(name: str):
    try:
        owner = _OWNERS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = import_module(f".{owner}", __name__)
    value = module if owner == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _OWNERS.keys())
