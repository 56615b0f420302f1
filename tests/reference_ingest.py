"""The ingest pipeline that each format's fused scan in ``influenceops.corpus``
replaced, and the set-based classification rule that the package's mask
matcher replaced, kept as independent references for the tests.

A row parser per format (``_csv_rows``, ``_json_rows``) does every parse and
shape check and yields rows; ``RowChecker`` does the domain checks (duplicate
ids, unknown technique ids); ``_build_corpus`` keeps the rows as incidents. A
JSON document is parsed whole with ``json.loads`` before its rows are read.
The package shares no ingest code with this module, so the tests hold its
scans, and the commands built on them, to the same results and the same
errors on every document.

``classify_incident`` states the rule over technique-id sets: a strategy
matches iff its execution technique is present (and, under ``strict_prep``,
one of its preparation techniques). The package states it once, over bit
masks of ``StrategyCatalog.technique_bits``, as ``strategies.strategy_mask``,
and the tests hold the profiles, the histograms and the ``classify`` output
to this function.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Iterator, Mapping
from pathlib import Path

from influenceops.corpus import (
    CSV_HEADER,
    Corpus,
    DroppedTechnique,
    Incident,
    IngestionReport,
    technique_table,
)
from influenceops.documents import decode_json
from influenceops.errors import (
    DuplicateIncidentId,
    EmptyCorpus,
    InfluenceOpsError,
    ParseError,
    UnknownTechnique,
)
from influenceops.strategies import StrategyCatalog, StrategyProfile
from influenceops.taxonomy import Taxonomy

# incident_id, title, year, targets, technique ids
Row = tuple[str, str, int, list[str], list[str]]


def _csv_rows(lines: Iterable[str], source: str) -> Iterator[Row]:
    """Checked rows of a CSV document read line by line; blank lines are skipped."""
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
                if str(year) != year_text:  # int() also takes "02020", " 2021", "2_020", "٢٠٢٢"
                    raise ValueError
            except ValueError:
                raise ParseError(f"{source}: row {n}: year {year_text!r} is not an integer in canonical decimal") from None
            # "|"-separated lists; empty items are dropped.
            targets = targets_text.split("|")
            if "" in targets:
                targets = [t for t in targets if t]
            techniques = techniques_text.split("|")
            if "" in techniques:
                techniques = [t for t in techniques if t]
            yield incident_id, title, year, targets, techniques
    except csv.Error as exc:
        # Raised for the row after the last one read, e.g. a field over csv.field_size_limit().
        raise ParseError(f"{source}: row {n + 1}: {exc}") from None


def _json_rows(text: str, source: str) -> Iterator[Row]:
    """Checked rows of a JSON document."""
    doc = decode_json(text, f"{source}: corpus document")
    if not isinstance(doc, list):
        raise ParseError(f"{source}: corpus JSON must be an array of incident objects")

    for n, entry in enumerate(doc, start=1):
        if not isinstance(entry, dict):
            raise ParseError(f"{source}: incident {n}: must be an object")
        incident_id = entry.get("incident_id")
        if not isinstance(incident_id, str) or not incident_id:
            raise ParseError(f"{source}: incident {n}: missing or empty 'incident_id'")
        if not incident_id.isascii():
            # A \ud800 escape decodes to a lone surrogate, which no output can encode.
            try:
                incident_id.encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError(
                    f"{source}: incident {n}: 'incident_id' cannot be encoded as UTF-8"
                ) from None
        title = entry.get("title", "")
        if not isinstance(title, str):
            raise ParseError(f"{source}: incident {n}: 'title' must be a string")
        year = entry.get("year")
        if not isinstance(year, int) or isinstance(year, bool):
            raise ParseError(f"{source}: incident {n}: 'year' must be an integer")
        targets = entry.get("targets", [])
        techniques = entry.get("techniques", [])
        for key, value in (("targets", targets), ("techniques", techniques)):
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                raise ParseError(f"{source}: incident {n}: {key!r} must be an array of strings")
        yield incident_id, title, year, targets, techniques


def _file_rows(path: Path, source: str) -> Iterator[Row]:
    # A CSV file is parsed as it is read, and csv.reader reads its line ends;
    # JSON has to be read whole.
    is_json = path.suffix.lower() == ".json"
    try:
        with path.open(encoding="utf-8", newline=None if is_json else "") as lines:
            if is_json:
                yield from _json_rows(lines.read(), source)
            else:
                yield from _csv_rows(lines, source)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{source}: corpus file is not valid UTF-8: {exc.reason}") from None


def read_corpus_rows(path: str | Path) -> tuple[Iterator[Row], str]:
    """Checked rows of a .csv or .json corpus file, detected by extension, and
    the source name that error messages and reports use."""
    path = Path(path)
    return _file_rows(path, str(path)), str(path)


class RowChecker:
    """The domain checks of ingestion: duplicate ids and unknown technique ids.

    ``bits`` maps every known technique id to the bits it sets (bits of
    ``StrategyCatalog.technique_bits``, or none); a missing key is an unknown
    id. The first
    domain error is held rather than raised, and ``finish`` raises it, so that
    a parse error anywhere in the document wins over it.
    """

    def __init__(self, bits: Mapping[str, int], mode: str, source: str) -> None:
        if mode not in ("strict", "lenient"):
            raise ValueError(f"mode must be 'strict' or 'lenient', got {mode!r}")
        self.bits = bits
        self.mode = mode
        self.source = source
        self.count = 0
        self.seen: set[str] = set()
        self.dropped: list[DroppedTechnique] = []
        self.error: InfluenceOpsError | None = None

    def mask(self, incident_id: str, technique_ids: list[str]) -> int | None:
        """OR of the bits of the row's known techniques; None once an error is held.

        Lenient mode drops and records unknown ids; strict mode holds an error.
        """
        self.count += 1
        if self.error is not None:
            return None
        if incident_id in self.seen:
            self.error = DuplicateIncidentId(f"{self.source}: duplicate incident_id {incident_id!r}")
            return None
        self.seen.add(incident_id)
        bits = self.bits
        m = 0
        for technique_id in technique_ids:
            try:
                m |= bits[technique_id]
            except KeyError:
                if self.mode == "strict":
                    self.error = UnknownTechnique(
                        f"{self.source}: incident {self.count} ({incident_id!r}) references "
                        f"unknown technique {technique_id!r}"
                    )
                    return None
                self.dropped.append(DroppedTechnique(incident_id, technique_id))
        return m

    def finish(self) -> IngestionReport:
        """Raise EmptyCorpus or the held error; otherwise report what was dropped."""
        if not self.count:
            raise EmptyCorpus(f"{self.source}: corpus document contains no incidents")
        if self.error is not None:
            raise self.error
        return IngestionReport(self.mode, tuple(self.dropped))


def _build_corpus(
    rows: Iterable[Row], taxonomy: Taxonomy, mode: str, source: str
) -> tuple[Corpus, IngestionReport]:
    known = technique_table(taxonomy, {})
    checker = RowChecker(known, mode, source)
    incidents: list[Incident] = []
    for incident_id, title, year, targets, technique_ids in rows:
        if checker.mask(incident_id, technique_ids) is not None:
            kept = frozenset(t for t in technique_ids if t in known)
            incidents.append(Incident(incident_id, title, year, tuple(targets), kept))
    report = checker.finish()
    return Corpus(tuple(incidents), source), report


def ingest_corpus(
    path: str | Path, taxonomy: Taxonomy, mode: str = "strict"
) -> tuple[Corpus, IngestionReport]:
    """Load a corpus from a .csv or .json file, detected by extension."""
    rows, source = read_corpus_rows(path)
    return _build_corpus(rows, taxonomy, mode, source)


def loads_corpus_csv(
    text: str, taxonomy: Taxonomy, mode: str = "strict", source: str = "<csv>"
) -> tuple[Corpus, IngestionReport]:
    return _build_corpus(_csv_rows(io.StringIO(text), source), taxonomy, mode, source)


def loads_corpus_json(
    text: str, taxonomy: Taxonomy, mode: str = "strict", source: str = "<json>"
) -> tuple[Corpus, IngestionReport]:
    return _build_corpus(_json_rows(text, source), taxonomy, mode, source)


def classify_incident(
    incident: Incident, catalog: StrategyCatalog, strict_prep: bool = False
) -> StrategyProfile:
    """Infer the incident's strategy set from its technique ids.

    A strategy matches iff its execution technique is present (strict mode
    also demands one of its preparation techniques). Evidence lists the
    execution technique first, then any matched preparation techniques.
    Depends only on the incident's technique set and the catalog.
    """
    matched: list[str] = []
    evidence: dict[str, tuple[str, ...]] = {}
    for strategy in catalog.strategies:
        if strategy.execution_technique not in incident.techniques:
            continue
        preps = sorted(strategy.preparation_techniques & incident.techniques)
        if strict_prep and not preps:
            continue
        matched.append(strategy.id)
        evidence[strategy.id] = (strategy.execution_technique, *preps)
    return StrategyProfile(incident.incident_id, frozenset(matched), evidence)
