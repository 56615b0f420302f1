"""Small constructors, and the schema validator, shared by the test modules."""

import json
from dataclasses import replace
from functools import cache
from pathlib import Path

from influenceops import Corpus, Incident, StrategyCatalog, classify_corpus, classify_incident

SCHEMAS = Path(__file__).parents[1] / "docs" / "schemas"


@cache
def schema_validator(kind):
    """A draft-07 validator of ``docs/schemas/<kind>.schema.json``."""
    import jsonschema

    return jsonschema.Draft7Validator(json.loads((SCHEMAS / f"{kind}.schema.json").read_text(encoding="utf-8")))


def incident(n, techniques, year=2020, title=None, targets=()):
    return Incident(
        incident_id=f"I-{n:03d}",
        title=title if title is not None else f"Incident {n}",
        year=year,
        targets=tuple(targets),
        techniques=frozenset(techniques),
    )


def corpus_of(techniques_per_incident, source="test"):
    incidents = tuple(
        incident(n, techs) for n, techs in enumerate(techniques_per_incident, start=1)
    )
    return Corpus(incidents, source)


def corpus_from_profiles(catalog, profiles, source="test"):
    """Corpus whose incidents carry exactly the execution techniques of the
    given strategy-id sets, so classification recovers the profiles."""
    rows = []
    for pattern in profiles:
        rows.append({catalog.by_id(s).execution_technique for s in pattern})
    return corpus_of(rows, source)


def classified_from_profiles(catalog, profiles, source="test"):
    return classify_corpus(corpus_from_profiles(catalog, profiles, source), catalog)


def profiles_of(corpus, catalog, strict_prep=False):
    """Each incident's strategies and evidence, in corpus order."""
    return [classify_incident(i, catalog, strict_prep) for i in corpus.incidents]


def non_disjoint_catalog(catalog):
    """The catalog with two techniques of two roles each, as only a hand-built
    catalog can have: NS also prepares with NR's execution technique, and NA
    also prepares with NS's first preparation technique."""
    nr, ns = catalog.by_id("NR"), catalog.by_id("NS")
    extra = {"NS": nr.execution_technique, "NA": min(ns.preparation_techniques)}
    return StrategyCatalog(
        tuple(
            replace(s, preparation_techniques=s.preparation_techniques | {extra[s.id]}) if s.id in extra else s
            for s in catalog.strategies
        ),
        catalog.taxonomy_version,
    )
