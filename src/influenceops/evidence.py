"""Per-incident strategies and evidence for ``classify``, streamed.

``classify`` prints, in corpus order, each incident's strategies and the
technique ids behind them. It builds no Incident, Corpus or
StrategyProfile. Each checked row is reduced to a technique mask over
``catalog.technique_bits`` (bit i for strategy i's execution technique, bit
n + i and an own bit from 2n up for each of its preparation techniques),
and only (incident id, mask) pairs are kept.

A JSON row is one f-string of six pieces, each looked up, not built: the
escaped id; per strategy mask, the strategy list and the opening of
``evidence``; the evidence of the catalog's first ceil(n/2) strategies; a
separator; the evidence of the rest; a closing. The catalog is split in two
halves, and each half's evidence is memoised on its key: the half's matched
strategies and the own bits of their preparation techniques in the row
(``catalog.own_bits``). The memo is bounded by the catalog, not the corpus:
a half has at most the product of 1 + 2^|prep_i| over its strategies i as
keys, 2,125 and 135 for the bundled catalog, where one memo per whole row
would take a key per distinct row. An entry is the join of evidence blocks,
one per strategy and subset of its preparation techniques (42 for the
bundled catalog); each block and strategy list is ``render.json_block`` at
its depth. The renderer inlines the rule, ``strategies.strategy_mask``, in
its loop; ``classify_incident`` applies it through
``strategies.match_strategies``. ``--pretty`` needs no evidence: it reads
each incident's strategy mask with ``strategy_mask``.

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
from .strategies import StrategyCatalog, _Memo, strategy_mask
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
    n, own_bits = len(catalog.strategies), catalog.own_bits
    shift, low = (n if strict_prep else 0), (1 << n) - 1
    first = (1 << (n + 1) // 2) - 1  # the first half: strategies 0 .. ceil(n/2) - 1

    def cut(half):
        """The bits of half's strategies and the own bits of their preparation techniques."""
        bits = half
        for i in range(n):
            if half >> i & 1:
                bits |= own_bits[i]
        return bits

    def block(item):
        strategy_id, ids = catalog.evidence_item(*item)
        return f"{encode_basestring(strategy_id)}: {json_block(list(ids), 3)}"

    def pieces(sm):
        a, b = sm & first, sm & ~first
        opening, closing = ("{\n      ", "\n    }\n  }") if sm else ("{", "}\n  }")
        strategies = json_block(list(catalog.ids_of_mask(sm)), 2)
        return (f',\n    "strategies": {strategies},\n    "evidence": {opening}', cut(a),
                ",\n      " if a and b else "", cut(b), closing)

    blocks = _Memo(block)  # per (strategy i, own bits of i in the row)
    # A half's key is tm & cut(half): the half's matched strategies and their own bits in the row.
    # The two halves share the memo: their keys differ in the strategy bits, or are both 0.
    halves = _Memo(lambda key: ",\n      ".join(blocks[i, key & own_bits[i]] for i in range(n) if key >> i & 1))
    of_mask = _Memo(pieces)  # per strategy mask: the row's text before, between and after the halves

    def rows():
        for incident_id, tm in pairs:
            sm = tm & tm >> shift & low  # strategy_mask(tm, n, strict_prep), inlined in this loop
            head, cut_a, separator, cut_b, closing = of_mask[sm]
            yield (f'  {{\n    "incident_id": {encode_basestring(incident_id)}{head}'
                   f"{halves[tm & cut_a]}{separator}{halves[tm & cut_b]}{closing}")

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
