"""Per-incident strategies and evidence for ``classify``, streamed.

``classify`` prints, in corpus order, each incident's strategies and the
technique ids behind them. It builds no Incident, Corpus or
StrategyProfile. Each checked row is reduced to a technique mask over
``catalog.technique_bits`` (bit i for strategy i's execution technique, bit
n + i and an own bit from 2n up for each of its preparation techniques),
and only (incident id, mask) pairs are kept for
``strategies.match_strategies``, the matcher of ``classify_incident``. The
output is put together from pieces that incidents share: one evidence block
per strategy and subset of its preparation techniques (42 for the bundled
catalog), memoised by the matcher, and one strategy list per strategy mask,
each list written by ``render.json_block`` at its depth. Only the row around
them is a hand-written template. ``--pretty`` needs no evidence: it reads
each incident's strategy mask with ``strategies.strategy_mask``.

The masks come from the same scan of the corpus file as ``ingest_corpus``
(``corpus.scan_corpus``), which resolves the technique ids against the
taxonomy for both, so every input fails with the same error and the same
technique ids are unknown. Strategies are rendered in catalog
order, which is the canonical order. The output is the same text as
``json.dumps(doc, indent=2, ensure_ascii=False)`` of the per-incident
documents built from ``classify_incident`` of each incident, or the same
``id: NR+NS`` lines with ``--pretty`` (ids as ``_pretty_id`` writes them).
It is rendered in chunks of ``render.CHUNK_ROWS`` incidents
(``classification_json_chunks``, ``classification_text_chunks``), which the
command writes as they come, so that it holds one chunk of the text at a
time; ``classification_json`` and ``classification_text`` join them.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from json.encoder import encode_basestring, encode_basestring_ascii
from pathlib import Path

from .corpus import IngestionReport, scan_corpus
from .render import chunked, json_block
from .strategies import StrategyCatalog, _Memo, match_strategies, strategy_mask
from .taxonomy import Taxonomy


def ingest_technique_masks(
    path: str | Path, taxonomy: Taxonomy, catalog: StrategyCatalog, mode: str = "strict"
) -> tuple[Iterable[tuple[str, int]], IngestionReport]:
    """(incident id, technique mask) per incident of a corpus file, in file order.

    A mask is the OR of its techniques' bits in the layout of
    ``catalog.technique_bits``. Same checks, errors and ingestion report as
    ``ingest_corpus``.
    """
    masks, report = scan_corpus(path, taxonomy, catalog.technique_bits, mode)
    return masks.items(), report


def classification_json_chunks(
    pairs: Iterable[tuple[str, int]], catalog: StrategyCatalog, strict_prep: bool = False
) -> Iterator[str]:
    """The ``classify`` JSON document of ``ingest_technique_masks`` pairs, in
    chunks of ``render.CHUNK_ROWS`` incidents."""

    def block(i, matched):
        strategy_id, ids = catalog.evidence_item(i, matched)
        return f"{encode_basestring(strategy_id)}: {json_block(list(ids), 3)}"

    def rows():
        lists = _Memo(lambda sm: json_block(list(catalog.ids_of_mask(sm)), 2))
        for incident_id, sm, blocks in match_strategies(pairs, catalog, strict_prep, block):
            evidence = "{\n      " + ",\n      ".join(blocks) + "\n    }" if blocks else "{}"
            yield (f'  {{\n    "incident_id": {encode_basestring(incident_id)},\n    "strategies": {lists[sm]},\n'
                   f'    "evidence": {evidence}\n  }}')

    return chunked(rows(), "[\n", ",\n", "\n]\n", "[]\n")


def classification_json(
    pairs: Iterable[tuple[str, int]], catalog: StrategyCatalog, strict_prep: bool = False
) -> str:
    """The ``classify`` JSON document of ``ingest_technique_masks`` pairs."""
    return "".join(classification_json_chunks(pairs, catalog, strict_prep))


def _pretty_id(incident_id: str) -> str:
    """The id, or when it is not printable or starts with a double quote, its
    ``json.dumps`` (ASCII escapes): one line, no control character, and
    apart from any plain id."""
    if incident_id.isprintable() and not incident_id.startswith('"'):
        return incident_id
    return encode_basestring_ascii(incident_id)


def classification_text_chunks(
    pairs: Iterable[tuple[str, int]], catalog: StrategyCatalog, strict_prep: bool = False
) -> Iterator[str]:
    """The ``classify --pretty`` lines of ``ingest_technique_masks`` pairs, one
    per incident: its id (see ``_pretty_id``), then its strategies; in chunks
    of ``render.CHUNK_ROWS`` lines."""
    n = len(catalog.strategies)
    names = _Memo(lambda sm: "+".join(catalog.ids_of_mask(sm)) or "(unmapped)")
    lines = (f"{_pretty_id(incident_id)}: {names[strategy_mask(tm, n, strict_prep)]}" for incident_id, tm in pairs)
    return chunked(lines, "", "\n", "\n", "\n")


def classification_text(
    pairs: Iterable[tuple[str, int]], catalog: StrategyCatalog, strict_prep: bool = False
) -> str:
    """The ``classify --pretty`` text of ``ingest_technique_masks`` pairs."""
    return "".join(classification_text_chunks(pairs, catalog, strict_prep))
