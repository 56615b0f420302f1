"""Incident corpora: ingestion, validation, serialization, and summaries.

Two on-disk forms are supported and round-trip losslessly (except NUL in a
CSV field on Python 3.10, whose csv reader refuses it: a ParseError):

* CSV with header ``incident_id,title,year,targets,techniques`` where
  ``targets`` and ``techniques`` are ``|``-separated inside one RFC 4180
  quoted field.
* JSON: an array of incident objects mirroring the same fields.

Technique ids are resolved against a taxonomy at ingestion. In strict mode
any unknown id aborts the whole ingest; in lenient mode unknown ids are
dropped per incident and reported, because hand-tagged datasets contain
typos. A resulting Corpus is immutable and shareable across workers.

Each format has one scan (``_scan_csv``, ``_scan_json``, both behind
``scan_corpus``): a single loop that does every parse, shape and domain
check (duplicate ids, unknown technique ids), ORs the bits that a table
gives each row's technique ids, and returns ``{incident_id: mask}`` in file
order with the ingestion report. ``technique_table`` builds every such
table: its keys are exactly the taxonomy's technique ids, so every consumer
knows the same ids. The three consumers differ only in the table's bits and
in what they keep: ``strategies.ingest_histogram`` (``validate``,
``stats``, ``graph``) counts strategy masks, ``evidence.ingest_technique_masks``
(``classify``) keeps per-technique masks, and the library ``ingest_corpus``
also passes a list that the scan collects full rows into, which it keeps as
``Incident`` objects. So all three raise the same error on every input.

A CSV file is parsed as it is read. A JSON document is decoded one array
element at a time, so no document-sized list of incidents is built. Where
the text stops being a well-formed array, or an element fails a shape
check, the whole text goes through ``documents.decode_json`` first, so that
a syntax error anywhere is raised first, with ``json.loads``' own message.
Parse errors win over the first domain error, which is held until the
whole document has been read. A file that is not UTF-8, an over-long CSV
field, JSON nested too deeply and an ``incident_id`` that cannot be encoded
as UTF-8 (a lone surrogate escape such as ``\\ud800``) are each a
ParseError.
"""

from __future__ import annotations

import csv
import io
import json
import re
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cache
from json.decoder import WHITESPACE
from json.encoder import encode_basestring
from pathlib import Path

from . import documents
from .errors import (
    DuplicateIncidentId,
    EmptyCorpus,
    InfluenceOpsError,
    ParseError,
    UnknownTechnique,
)
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


# incident_id, title, year, targets, technique ids
Row = tuple[str, str, int, list[str], list[str]]


def technique_table(taxonomy: Taxonomy, bits: Mapping[str, int]) -> dict[str, int]:
    """The table that ``scan_corpus`` reads: every taxonomy technique id, with
    its bits from ``bits`` or 0, and no other key. An id that ``bits`` names
    but the taxonomy lacks is thus unknown, on every ingest path."""
    return {t.id: bits.get(t.id, 0) for t in taxonomy.techniques}


def scan_corpus(
    path: str | Path, bits: Mapping[str, int], mode: str = "strict", rows: list[Row] | None = None
) -> tuple[dict[str, int], IngestionReport]:
    """{incident id: mask} of a .csv or .json corpus file, detected by
    extension, in file order, and the ingestion report.

    ``bits`` is a ``technique_table``: of strategy bits, of one bit per
    catalog technique for ``classify``, or of none. A missing key is an
    unknown id, which lenient mode drops and records and strict mode
    rejects. A row's mask is the OR of the bits of its known ids. Given
    ``rows``, the scan also appends each row to it, as (incident_id, title,
    year, targets, technique ids).
    """
    path = Path(path)
    source = str(path)
    is_json = path.suffix.lower() == ".json"
    try:
        # csv.reader reads line ends itself, so that one inside a quoted field is kept as it is.
        with path.open(encoding="utf-8", newline=None if is_json else "") as lines:
            if is_json:
                return _scan_json(lines.read(), source, bits, mode, rows)
            return _scan_csv(lines, source, bits, mode, rows)
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


def _drop_unknown(
    incident_id: str, technique_ids: list[str], bits: Mapping[str, int], dropped: list[DroppedTechnique]
) -> int:
    """OR of the bits of the known ids; each unknown id is recorded as dropped."""
    m = 0
    for technique_id in technique_ids:
        b = bits.get(technique_id)
        if b is None:
            dropped.append(DroppedTechnique(incident_id, technique_id))
        else:
            m |= b
    return m


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
    lines: Iterable[str], source: str, bits: Mapping[str, int], mode: str, rows: list[Row] | None
) -> tuple[dict[str, int], IngestionReport]:
    """The scan of a CSV document read line by line; blank lines are skipped
    but counted in row numbers."""
    strict = _is_strict(mode)
    masks: dict[str, int] = {}
    dropped: list[DroppedTechnique] = []
    error: InfluenceOpsError | None = None
    reader = csv.reader(lines)
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
            try:
                year = int(year_text)
            except ValueError:
                raise ParseError(f"{source}: row {n}: year {year_text!r} is not an integer") from None
            # "|"-separated lists; empty items are dropped.
            techniques = techniques_text.split("|")
            if "" in techniques:
                techniques = [t for t in techniques if t]
            if rows is not None:
                targets = targets_text.split("|")
                if "" in targets:
                    targets = [t for t in targets if t]
                rows.append((incident_id, title, year, targets, techniques))
            # After the first domain error only parse errors are looked for.
            if error is not None:
                continue
            if incident_id in masks:
                error = _duplicate(source, incident_id)
                continue
            m = 0
            try:
                for technique_id in techniques:
                    m |= bits[technique_id]
            except KeyError:
                if strict:
                    error = _unknown(source, len(masks) + 1, incident_id, technique_id)
                    continue
                m = _drop_unknown(incident_id, techniques, bits, dropped)
            masks[incident_id] = m
    except csv.Error as exc:
        # Raised for the row after the last one read, e.g. a field over csv.field_size_limit().
        raise ParseError(f"{source}: row {n + 1}: {exc}") from None
    return _scanned(masks, dropped, error, mode, source)


_decode = json.JSONDecoder().raw_decode
_skip_whitespace = WHITESPACE.match
_comma = re.compile(f"{WHITESPACE.pattern},{WHITESPACE.pattern}").match


def _strings(value: object) -> bool:
    """Whether a decoded JSON value is an array of strings."""
    if type(value) is not list:
        return False
    try:
        "".join(value)
    except TypeError:
        return False
    return True


def _document_error(text: str, source: str, message: str) -> ParseError:
    """The shape error ``message``, unless the whole text has a syntax error:
    then ``documents.decode_json`` raises that, with json.loads' own message."""
    documents.decode_json(text, f"{source}: corpus document")
    return ParseError(f"{source}: {message}")


def _scan_json(
    text: str, source: str, bits: Mapping[str, int], mode: str, rows: list[Row] | None
) -> tuple[dict[str, int], IngestionReport]:
    """The scan of a JSON document, decoded one array element at a time.

    What the loop cannot read as an array of elements (a top level that is
    not an array, an element that does not decode, a bad delimiter, data
    after the closing bracket) is raised by ``_document_error``: json.loads
    fails on such a text too, so its error is raised, and only a valid
    document that is not an array gets the shape error.
    """
    strict = _is_strict(mode)
    masks: dict[str, int] = {}
    dropped: list[DroppedTechnique] = []
    error: InfluenceOpsError | None = None
    not_an_array = "corpus JSON must be an array of incident objects"
    i = _skip_whitespace(text).end()
    if not text.startswith("[", i):
        raise _document_error(text, source, not_an_array)
    i = _skip_whitespace(text, i + 1).end()
    more = not text.startswith("]", i)
    n = 0
    while more:  # i is at the next element
        try:
            entry, i = _decode(text, i)
        except ValueError:  # JSONDecodeError, or an integer too long to convert
            raise _document_error(text, source, not_an_array) from None
        except RecursionError:
            raise ParseError(f"{source}: corpus document is nested too deeply") from None
        comma = _comma(text, i)
        if comma is not None:
            i = comma.end()
        else:
            i = _skip_whitespace(text, i).end()
            if not text.startswith("]", i):
                raise _document_error(text, source, not_an_array)
            more = False
        n += 1
        # JSON decodes to exact dict, list, str and int, and bool is not int.
        if type(entry) is not dict:
            raise _document_error(text, source, f"incident {n}: must be an object")
        incident_id = entry.get("incident_id")
        if type(incident_id) is not str or not incident_id:
            raise _document_error(text, source, f"incident {n}: missing or empty 'incident_id'")
        if not incident_id.isascii():
            # A \ud800 escape decodes to a lone surrogate, which no output can encode.
            try:
                incident_id.encode("utf-8")
            except UnicodeEncodeError:
                raise _document_error(
                    text, source, f"incident {n}: 'incident_id' cannot be encoded as UTF-8"
                ) from None
        title = entry.get("title", "")
        if type(title) is not str:
            raise _document_error(text, source, f"incident {n}: 'title' must be a string")
        year = entry.get("year")
        if type(year) is not int:
            raise _document_error(text, source, f"incident {n}: 'year' must be an integer")
        targets = entry.get("targets", [])
        techniques = entry.get("techniques", [])
        if not _strings(targets):
            raise _document_error(text, source, f"incident {n}: 'targets' must be an array of strings")
        if not _strings(techniques):
            raise _document_error(text, source, f"incident {n}: 'techniques' must be an array of strings")
        if rows is not None:
            rows.append((incident_id, title, year, targets, techniques))
        # After the first domain error only syntax and shape errors are looked for.
        if error is not None:
            continue
        if incident_id in masks:
            error = _duplicate(source, incident_id)
            continue
        m = 0
        try:
            for technique_id in techniques:
                m |= bits[technique_id]
        except KeyError:
            if strict:
                error = _unknown(source, n, incident_id, technique_id)
                continue
            m = _drop_unknown(incident_id, techniques, bits, dropped)
        masks[incident_id] = m
    # i is at the closing bracket.
    if _skip_whitespace(text, i + 1).end() != len(text):
        raise _document_error(text, source, not_an_array)
    return _scanned(masks, dropped, error, mode, source)


def _corpus(rows: list[Row], known: Mapping[str, int], source: str) -> Corpus:
    """The scanned rows as incidents, each with its known technique ids."""
    return Corpus(
        tuple(
            Incident(incident_id, title, year, tuple(targets), frozenset(t for t in technique_ids if t in known))
            for incident_id, title, year, targets, technique_ids in rows
        ),
        source,
    )


def loads_corpus_csv(
    text: str, taxonomy: Taxonomy, mode: str = "strict", source: str = "<csv>"
) -> tuple[Corpus, IngestionReport]:
    known = technique_table(taxonomy, {})
    rows: list[Row] = []
    _, report = _scan_csv(io.StringIO(text), source, known, mode, rows)
    return _corpus(rows, known, source), report


def loads_corpus_json(
    text: str, taxonomy: Taxonomy, mode: str = "strict", source: str = "<json>"
) -> tuple[Corpus, IngestionReport]:
    known = technique_table(taxonomy, {})
    rows: list[Row] = []
    _, report = _scan_json(text, source, known, mode, rows)
    return _corpus(rows, known, source), report


def ingest_corpus(
    path: str | Path, taxonomy: Taxonomy, mode: str = "strict"
) -> tuple[Corpus, IngestionReport]:
    """Load a corpus from a .csv or .json file, detected by extension."""
    known = technique_table(taxonomy, {})
    rows: list[Row] = []
    _, report = scan_corpus(path, known, mode, rows)
    return _corpus(rows, known, str(Path(path))), report


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
    techniques_field = cache(lambda techniques: _csv_field("|".join(sorted(techniques))))
    lines = [",".join(CSV_HEADER)]
    lines += [
        f"{_csv_field(incident.incident_id)},{_csv_field(incident.title)},{incident.year},"
        f"{_csv_field('|'.join(incident.targets))},{techniques_field(incident.techniques)}"
        for incident in corpus.incidents
    ]
    return "\n".join(lines) + "\n"


# One incident of json.dumps(doc, indent=2, ensure_ascii=False) for a list of incident objects.
_JSON_INCIDENT = (
    '  {\n    "incident_id": %s,\n    "title": %s,\n    "year": %s,\n'
    '    "targets": %s,\n    "techniques": %s\n  }'
)


def _json_string_list(items: Iterable[str]) -> str:
    """A list of strings as json.dumps writes it three levels deep at indent=2."""
    encoded = [encode_basestring(item) for item in items]
    if not encoded:
        return "[]"
    return "[\n      " + ",\n      ".join(encoded) + "\n    ]"


def corpus_to_json(corpus: Corpus) -> str:
    """The incidents as a JSON array, byte for byte as
    ``json.dumps(doc, indent=2, ensure_ascii=False) + "\\n"`` writes it,
    with sorted technique ids."""
    if not corpus.incidents:
        return "[]\n"
    techniques_block = cache(lambda techniques: _json_string_list(sorted(techniques)))
    body = ",\n".join(
        _JSON_INCIDENT
        % (
            encode_basestring(incident.incident_id),
            encode_basestring(incident.title),
            int.__repr__(incident.year),
            _json_string_list(incident.targets),
            techniques_block(incident.techniques),
        )
        for incident in corpus.incidents
    )
    return "[\n" + body + "\n]\n"


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
