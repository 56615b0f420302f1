"""Per-incident strategies and evidence for ``classify``, streamed.

``classify`` prints, in corpus order, each incident's strategies and the
technique ids behind them. It builds no Incident, Corpus or
StrategyProfile. Each checked row is reduced to a technique mask, with one
bit per catalog technique, and only (incident id, mask) pairs are kept.
The output is then put together from pieces that incidents share: one
evidence block per strategy and subset of its preparation techniques (42
for the bundled catalog) and one strategy list per strategy mask (at most
128).

Rows go through the same row parsers and ``RowChecker`` as
``ingest_corpus``, so every input fails with the same error. The output is
the same text as ``json.dumps(doc, indent=2, ensure_ascii=False)`` of the
per-incident documents built from ``classify_corpus(...).profiles``, or the
same ``id: NR+NS`` lines with ``--pretty``.
"""

from __future__ import annotations

import json
from pathlib import Path

from .corpus import IngestionReport, RowChecker, read_corpus_rows, technique_table
from .strategies import STRATEGY_ORDER, StrategyCatalog
from .taxonomy import Taxonomy

# The string escaping of json.dumps(..., ensure_ascii=False).
_encode = json.JSONEncoder(ensure_ascii=False).encode


def _catalog_techniques(catalog: StrategyCatalog) -> tuple[str, ...]:
    """Distinct technique ids of the catalog; bit k of a technique mask is the k-th."""
    return tuple(dict.fromkeys(t for s in catalog.strategies for t in sorted(s.technique_ids())))


def ingest_technique_masks(
    path: str | Path, taxonomy: Taxonomy, catalog: StrategyCatalog, mode: str = "strict"
) -> tuple[list[tuple[str, int]], IngestionReport]:
    """(incident id, technique mask) per incident of a corpus file, in file order.

    Bit k of a mask is set when the incident carries the k-th catalog
    technique. Same checks, errors and ingestion report as ``ingest_corpus``.
    """
    table = technique_table(taxonomy)
    for k, technique_id in enumerate(_catalog_techniques(catalog)):
        # An id outside the taxonomy stays unknown, so its bit is never set.
        if technique_id in table:
            table[technique_id] = 1 << k
    rows, source = read_corpus_rows(path)
    checker = RowChecker(table, mode, source)
    mask = checker.mask
    pairs = [(row[0], mask(row[0], row[4])) for row in rows]
    return pairs, checker.finish()


class _Memo(dict):
    """A dict that computes a missing key's value once, with ``compute(key)``."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


def _matches(pairs, catalog: StrategyCatalog, strict_prep: bool):
    """(incident id, strategy mask, evidence blocks) per pair.

    Bit i of a strategy mask is ``catalog.strategies[i]``. The evidence
    blocks are JSON object members, in canonical strategy order.
    """
    bit = {t: 1 << k for k, t in enumerate(_catalog_techniques(catalog))}
    order = sorted(range(len(catalog.strategies)),
                   key=lambda i: STRATEGY_ORDER.index(catalog.strategies[i].id))
    strategies = []
    for i in order:
        s = catalog.strategies[i]
        preps = sorted(s.preparation_techniques)

        def block(matched, s=s, preps=preps):
            # The execution technique, then the matched preparation techniques.
            ids = (s.execution_technique, *(p for p in preps if matched & bit[p]))
            return f'{_encode(s.id)}: [\n        ' + ",\n        ".join(map(_encode, ids)) + "\n      ]"

        strategies.append((1 << i, bit[s.execution_technique], sum(bit[p] for p in preps), _Memo(block)))

    for incident_id, tm in pairs:
        sm = 0
        blocks = []
        for strategy_bit, execution_bit, prep_bits, blocks_of in strategies:
            if tm & execution_bit:
                matched = tm & prep_bits
                if matched or not strict_prep:
                    sm |= strategy_bit
                    blocks.append(blocks_of[matched])
        yield incident_id, sm, blocks


def classification_json(
    pairs: list[tuple[str, int]], catalog: StrategyCatalog, strict_prep: bool = False
) -> str:
    """The ``classify`` JSON document of ``ingest_technique_masks`` pairs."""

    def strategy_list(sm):
        ids = catalog.ids_of_mask(sm)
        return "[\n      " + ",\n      ".join(map(_encode, ids)) + "\n    ]" if ids else "[]"

    lists = _Memo(strategy_list)
    rows = []
    for incident_id, sm, blocks in _matches(pairs, catalog, strict_prep):
        evidence = "{\n      " + ",\n      ".join(blocks) + "\n    }" if blocks else "{}"
        rows.append(f'  {{\n    "incident_id": {_encode(incident_id)},\n    "strategies": {lists[sm]},\n'
                    f'    "evidence": {evidence}\n  }}')
    return "[\n" + ",\n".join(rows) + "\n]\n" if rows else "[]\n"


def classification_text(
    pairs: list[tuple[str, int]], catalog: StrategyCatalog, strict_prep: bool = False
) -> str:
    """The ``classify --pretty`` lines of ``ingest_technique_masks`` pairs."""
    names = _Memo(lambda sm: "+".join(catalog.ids_of_mask(sm)) or "(unmapped)")
    lines = [f"{incident_id}: {names[sm]}" for incident_id, sm, _ in _matches(pairs, catalog, strict_prep)]
    return "\n".join(lines) + "\n"
