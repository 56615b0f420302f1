"""Incident corpora: ingestion, validation, serialization, and summaries.

Two on-disk forms are supported and round-trip losslessly, with two
exceptions. CSV joins ``targets`` and ``techniques`` with ``|`` and drops
empty items when it reads them, so a list item that is empty or holds
``|`` does not read back (``["US|EU", ""]`` reads back as ``("US", "EU")``),
and a taxonomy technique id holding ``|`` cannot be referenced from CSV
(``corpus_to_csv`` and ``generate`` write it unquoted). And Python 3.10's
csv reader refuses NUL in a field: a ParseError.

* CSV with header ``incident_id,title,year,targets,techniques`` where
  ``targets`` and ``techniques`` are ``|``-separated inside one RFC 4180
  quoted field.
* JSON: an array of incident objects mirroring the same fields.

Technique ids are resolved against a taxonomy at ingestion. In strict mode
any unknown id aborts the whole ingest; in lenient mode unknown ids are
dropped per incident and reported, because hand-tagged datasets contain
typos. A resulting Corpus is immutable and shareable across workers.

Each format has one scan (``_scan_csv``, ``_scan_json``, both behind
``scan_corpus``) that does every parse, shape and domain check (duplicate
ids, unknown technique ids), ORs the bits that a table gives each row's
technique ids, and returns ``{incident_id: mask}`` in file order with the
ingestion report. ``_known`` is the one statement of the lenient rule: the
OR over the known ids, and the unknown ids to drop. Only this module builds
a table, with ``technique_table``: its keys are exactly the taxonomy's
technique ids, so every consumer knows the same ids. The three consumers
pass the taxonomy and differ only in their bits and in what they keep:
``strategies.ingest_histogram`` (``validate``, ``stats``, ``graph``) counts
strategy masks, ``evidence.ingest_technique_masks`` (``classify``) keeps
masks over ``StrategyCatalog.technique_bits``, and the library loaders pass
no bits and a list that the scan fills with each checked row's ``Incident``,
known ids only. So all three raise the same error on every input.

A CSV ``year`` must be an integer in canonical decimal (``str(int(text)) ==
text``), so that it is written back as read. ``corpus_to_csv`` and
``corpus_to_json`` are plain references that no command calls; the tests
hold ``generate``'s row templates to them.

A CSV file is parsed as it is read. A JSON document goes through one
``documents.decode_json``, whose object hook checks each object's shape as
it is decoded and leaves a small record in its place, so the decoded array
holds one (id, mask) record per incident and never the incident. A syntax
error anywhere is raised first, with ``json.loads``' own message; then the
first shape error in document order; then the first domain error, which is
held until the whole document has been read. A file that is not UTF-8, an
over-long CSV field, JSON nested too deeply and an ``incident_id`` that
cannot be encoded as UTF-8 (a lone surrogate escape such as ``\\ud800``) are
each a ParseError.
"""

from __future__ import annotations

import csv
import io
import re
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path

from . import documents
from .errors import (
    DuplicateIncidentId,
    EmptyCorpus,
    InfluenceOpsError,
    ParseError,
    UnknownTechnique,
)
from .render import json_text
from .taxonomy import Taxonomy

CSV_HEADER = ("incident_id", "title", "year", "targets", "techniques")


@dataclass(frozen=True)
class Incident:
    incident_id: str
    title: str
    year: int
    targets: tuple[str, ...] = ()
    techniques: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Corpus:
    incidents: tuple[Incident, ...]
    source: str = ""

    def __len__(self) -> int:
        return len(self.incidents)


@dataclass(frozen=True)
class DroppedTechnique:
    incident_id: str
    technique_id: str


@dataclass(frozen=True)
class IngestionReport:
    mode: str
    dropped: tuple[DroppedTechnique, ...] = ()

    def warnings(self) -> tuple[str, ...]:
        return tuple(
            f"incident {d.incident_id!r}: dropped unknown technique {d.technique_id!r}"
            for d in self.dropped
        )


@dataclass(frozen=True)
class CorpusSummary:
    incident_count: int
    year_min: int
    year_max: int
    technique_counts: tuple[tuple[str, int], ...]


def technique_table(taxonomy: Taxonomy, bits: Mapping[str, int]) -> dict[str, int]:
    """The table that ``scan_corpus`` reads: every taxonomy technique id, with
    its bits from ``bits`` or 0, and no other key. An id that ``bits`` names
    but the taxonomy lacks is thus unknown, on every ingest path."""
    return {t.id: bits.get(t.id, 0) for t in taxonomy.techniques}


def scan_corpus(
    path: str | Path, taxonomy: Taxonomy, bits: Mapping[str, int], mode: str = "strict",
    incidents: list[Incident] | None = None,
) -> tuple[dict[str, int], IngestionReport]:
    """{incident id: mask} of a .csv or .json corpus file, detected by
    extension, in file order, and the ingestion report.

    The scan reads ``technique_table(taxonomy, bits)``, with ``bits`` from
    ``StrategyCatalog.technique_bits``, whole or cut, or empty: an id that the
    taxonomy lacks is unknown, which lenient mode drops and records and strict
    mode rejects. A row's mask is the OR of the bits of its known ids. Given
    ``incidents``, the scan appends to it an ``Incident`` with the known ids
    of each row that passes its domain checks.
    """
    path = Path(path)
    source = str(path)
    table = technique_table(taxonomy, bits)
    is_json = path.suffix.lower() == ".json"
    try:
        # csv.reader reads line ends itself, so that one inside a quoted field is kept as it is.
        with path.open(encoding="utf-8", newline=None if is_json else "") as lines:
            if is_json:
                return _scan_json(lines.read(), source, table, mode, incidents)
            return _scan_csv(lines, source, table, mode, incidents)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{source}: corpus file is not valid UTF-8: {exc.reason}") from None


def _is_strict(mode: str) -> bool:
    if mode not in ("strict", "lenient"):
        raise ValueError(f"mode must be 'strict' or 'lenient', got {mode!r}")
    return mode == "strict"


def _duplicate(source: str, incident_id: str) -> DuplicateIncidentId:
    return DuplicateIncidentId(f"{source}: duplicate incident_id {incident_id!r}")


def _unknown(source: str, number: int, incident_id: str, technique_id: str) -> UnknownTechnique:
    return UnknownTechnique(
        f"{source}: incident {number} ({incident_id!r}) references unknown technique {technique_id!r}"
    )


def _known(technique_ids: list[str], bits: Mapping[str, int]) -> tuple[int, list[str]]:
    """The OR of the bits of the known ids, and the unknown ids in order."""
    m = 0
    unknown = []
    for technique_id in technique_ids:
        b = bits.get(technique_id)
        if b is None:
            unknown.append(technique_id)
        else:
            m |= b
    return m, unknown


def _scanned(
    masks: dict[str, int], dropped: list[DroppedTechnique], error: InfluenceOpsError | None,
    mode: str, source: str,
) -> tuple[dict[str, int], IngestionReport]:
    """Raise the held domain error or EmptyCorpus; otherwise the scan's result."""
    if error is not None:
        raise error
    if not masks:
        raise EmptyCorpus(f"{source}: corpus document contains no incidents")
    return masks, IngestionReport(mode, tuple(dropped))


def _scan_csv(
    lines: Iterable[str], source: str, bits: Mapping[str, int], mode: str, incidents: list[Incident] | None
) -> tuple[dict[str, int], IngestionReport]:
    """The scan of a CSV document read line by line; blank lines are skipped
    but counted in row numbers."""
    strict = _is_strict(mode)
    masks: dict[str, int] = {}
    dropped: list[DroppedTechnique] = []
    error: InfluenceOpsError | None = None
    reader = csv.reader(lines)
    years: dict[str, int] = {}  # a corpus has few distinct years: each text is checked once
    n = -1  # the header is row 0
    try:
        header = next(reader, None)
        n = 0
        if header is None:
            raise EmptyCorpus(f"{source}: empty CSV document")
        if tuple(header) != CSV_HEADER:
            raise ParseError(
                f"{source}: bad CSV header {header!r}, expected {','.join(CSV_HEADER)}"
            )
        width = len(CSV_HEADER)
        for n, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != width:
                raise ParseError(f"{source}: row {n}: expected {width} fields, got {len(row)}")
            incident_id, title, year_text, targets_text, techniques_text = row
            if not incident_id:
                raise ParseError(f"{source}: row {n}: empty incident_id")
            year = years.get(year_text)
            if year is None:
                try:
                    year = years[year_text] = int(year_text)
                    if str(year) != year_text:  # int() also takes "02020", " 2021", "2_020", "٢٠٢٢"
                        raise ValueError
                except ValueError:
                    raise ParseError(
                        f"{source}: row {n}: year {year_text!r} is not an integer in canonical decimal"
                    ) from None
            # "|"-separated lists; empty items are dropped.
            techniques = techniques_text.split("|")
            if "" in techniques:
                techniques = [t for t in techniques if t]
            # After the first domain error only parse errors are looked for.
            if error is not None:
                continue
            if incident_id in masks:
                error = _duplicate(source, incident_id)
                continue
            m = 0
            unknown: list[str] | tuple[()] = ()
            try:
                for technique_id in techniques:
                    m |= bits[technique_id]
            except KeyError:
                if strict:
                    error = _unknown(source, len(masks) + 1, incident_id, technique_id)
                    continue
                m, unknown = _known(techniques, bits)
                dropped += [DroppedTechnique(incident_id, t) for t in unknown]
            masks[incident_id] = m
            if incidents is not None:
                incidents.append(Incident(incident_id, title, year, tuple(filter(None, targets_text.split("|"))),
                                          frozenset(techniques).difference(unknown)))
    except csv.Error as exc:
        # Raised for the row after the last one read, e.g. a field over csv.field_size_limit().
        raise ParseError(f"{source}: row {n + 1}: {exc}") from None
    return _scanned(masks, dropped, error, mode, source)


def _strings(value: object) -> bool:
    """Whether a decoded JSON value is an array of strings."""
    if type(value) is not list:
        return False
    try:
        "".join(value)
    except TypeError:
        return False
    return True


def _scan_json(
    text: str, source: str, bits: Mapping[str, int], mode: str, incidents: list[Incident] | None
) -> tuple[dict[str, int], IngestionReport]:
    """The scan of a JSON document: one ``json.loads`` whose object hook
    checks each object's shape, then one loop over the decoded array.

    The hook puts in each object's place either (incident_id, mask, unknown
    ids, Incident or None) or a ParseError that holds the shape reason (not a
    str, which an array of strings would take), so the decoded array holds
    one small record per incident and never the incident's dict. The hook also runs on every object nested in an incident, so
    it does no domain work: a record there fails the enclosing incident's own
    check, or sits unread under a key that ingest never reads. The loop does
    the rest in document order.
    """
    strict = _is_strict(mode)

    def incident(entry: dict) -> tuple | ParseError:
        # JSON decodes to exact dict, list, str and int, and bool is not int.
        incident_id = entry.get("incident_id")
        if type(incident_id) is not str or not incident_id:
            return ParseError("missing or empty 'incident_id'")
        if not incident_id.isascii():
            # A \ud800 escape decodes to a lone surrogate, which no output can encode.
            try:
                incident_id.encode("utf-8")
            except UnicodeEncodeError:
                return ParseError("'incident_id' cannot be encoded as UTF-8")
        title = entry.get("title", "")
        if type(title) is not str:
            return ParseError("'title' must be a string")
        year = entry.get("year")
        if type(year) is not int:
            return ParseError("'year' must be an integer")
        targets = entry.get("targets", [])
        techniques = entry.get("techniques", [])
        if not _strings(targets):
            return ParseError("'targets' must be an array of strings")
        if not _strings(techniques):
            return ParseError("'techniques' must be an array of strings")
        m = 0
        unknown: list[str] | tuple[()] = ()
        try:
            for technique_id in techniques:
                m |= bits[technique_id]
        except KeyError:
            m, unknown = _known(techniques, bits)
        return incident_id, m, unknown, None if incidents is None else Incident(
            incident_id, title, year, tuple(targets), frozenset(techniques).difference(unknown))

    doc = documents.decode_json(text, f"{source}: corpus document", object_hook=incident)
    if type(doc) is not list:
        raise ParseError(f"{source}: corpus JSON must be an array of incident objects")
    masks: dict[str, int] = {}
    dropped: list[DroppedTechnique] = []
    error: InfluenceOpsError | None = None
    for n, record in enumerate(doc, start=1):
        if type(record) is not tuple:
            reason = record if type(record) is ParseError else "must be an object"
            raise ParseError(f"{source}: incident {n}: {reason}")
        incident_id, m, unknown, kept = record
        # After the first domain error only shape errors are looked for.
        if error is not None:
            continue
        if incident_id in masks:
            error = _duplicate(source, incident_id)
            continue
        if unknown:
            if strict:
                error = _unknown(source, n, incident_id, unknown[0])
                continue
            dropped += [DroppedTechnique(incident_id, t) for t in unknown]
        masks[incident_id] = m
        if kept is not None:
            incidents.append(kept)
    return _scanned(masks, dropped, error, mode, source)


def loads_corpus_csv(
    text: str, taxonomy: Taxonomy, mode: str = "strict", source: str = "<csv>"
) -> tuple[Corpus, IngestionReport]:
    incidents: list[Incident] = []
    _, report = _scan_csv(io.StringIO(text), source, technique_table(taxonomy, {}), mode, incidents)
    return Corpus(tuple(incidents), source), report


def loads_corpus_json(
    text: str, taxonomy: Taxonomy, mode: str = "strict", source: str = "<json>"
) -> tuple[Corpus, IngestionReport]:
    incidents: list[Incident] = []
    _, report = _scan_json(text, source, technique_table(taxonomy, {}), mode, incidents)
    return Corpus(tuple(incidents), source), report


def ingest_corpus(
    path: str | Path, taxonomy: Taxonomy, mode: str = "strict"
) -> tuple[Corpus, IngestionReport]:
    """Load a corpus from a .csv or .json file, detected by extension."""
    incidents: list[Incident] = []
    _, report = scan_corpus(path, taxonomy, {}, mode, incidents)
    return Corpus(tuple(incidents), str(Path(path))), report


_needs_quotes = re.compile('[,"\r\n]').search


def _csv_field(text: str) -> str:
    """One CSV field as csv.writer writes it on Python 3.13: quoted when it
    holds a comma, a double quote, "\\r" or "\\n". (Before 3.13, with "\\n" line
    ends, csv.writer leaves a lone "\\r" unquoted, which no reader reads back.)"""
    if _needs_quotes(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def corpus_to_csv(corpus: Corpus) -> str:
    """Serialize with sorted technique ids and LF line endings (byte-stable)."""
    lines = [",".join(CSV_HEADER)]
    lines += [
        f"{_csv_field(incident.incident_id)},{_csv_field(incident.title)},{incident.year},"
        f"{_csv_field('|'.join(incident.targets))},{_csv_field('|'.join(sorted(incident.techniques)))}"
        for incident in corpus.incidents
    ]
    return "\n".join(lines) + "\n"


def corpus_to_json(corpus: Corpus) -> str:
    """The incidents as a JSON array, byte for byte as
    ``json.dumps(doc, indent=2, ensure_ascii=False) + "\\n"`` writes it,
    with sorted technique ids."""
    return json_text([
        {"incident_id": incident.incident_id, "title": incident.title, "year": incident.year,
         "targets": list(incident.targets), "techniques": sorted(incident.techniques)}
        for incident in corpus.incidents
    ])


def corpus_summary(corpus: Corpus) -> CorpusSummary:
    """Incident count, year range, and technique frequencies (count desc, id asc)."""
    if not corpus.incidents:
        raise EmptyCorpus("cannot summarize an empty corpus")
    counts: Counter[str] = Counter()
    for incident in corpus.incidents:
        counts.update(incident.techniques)
    ordered = tuple(sorted(counts.items(), key=lambda item: (-item[1], item[0])))
    years = [incident.year for incident in corpus.incidents]
    return CorpusSummary(len(corpus.incidents), min(years), max(years), ordered)
