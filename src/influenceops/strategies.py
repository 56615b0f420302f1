"""Strategy catalog and incident classification.

The catalog materializes seven influence strategies as disjoint technique
pipelines: one execution technique (Execute phase) plus a set of preparation
techniques (Prepare phase). An incident is classified into a strategy exactly
when it carries that strategy's execution technique; preparation techniques
found in the incident are recorded as supporting evidence only. An optional
strict mode additionally requires at least one preparation technique, which
can only ever shrink a profile.

A classified corpus reduces to a histogram over strategy masks, where bit i
stands for ``catalog.strategies[i]``: with seven strategies there are at most
128 bins, and every corpus statistic is a function of them. Per-incident
profiles with their evidence are computed only when asked for.

``_technique_bits`` is the one table from technique id to strategy bits. The
histogram of a materialised corpus and ``ingest_histogram``, which folds a
corpus file's rows straight into the histogram without building incidents,
both read it. A ClassifiedCorpus built from a histogram has every statistic
but no profiles.

The ``classify`` command does not use this module's profiles either: it
streams rows into per-technique masks and renders them (``evidence.py``).
``classify_corpus``, ``classify_incident`` and ``ClassifiedCorpus.profiles``
remain the library API and the reference that its output is tested against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .corpus import (
    Corpus,
    Incident,
    IngestionReport,
    RowChecker,
    read_corpus_rows,
    technique_table,
)
from .documents import parse_json, read_text
from .errors import (
    DisjointnessViolation,
    EmptyCorpus,
    PhaseViolation,
    SchemaError,
    UnknownTechnique,
)
from .taxonomy import Taxonomy, ValidationReport, Violation

# Canonical display and tie-breaking order of the seven strategies.
STRATEGY_ORDER = ("NR", "NS", "NA", "CNR", "NM", "TD", "IP")


@dataclass(frozen=True)
class StrategyDefinition:
    id: str
    name: str
    execution_technique: str
    preparation_techniques: frozenset[str]
    description: str = ""

    def technique_ids(self) -> frozenset[str]:
        return self.preparation_techniques | {self.execution_technique}


@dataclass(frozen=True)
class StrategyCatalog:
    strategies: tuple[StrategyDefinition, ...]
    taxonomy_version: str

    def __post_init__(self) -> None:
        ids = [s.id for s in self.strategies]
        if len(set(ids)) != len(ids):
            raise SchemaError(f"duplicate strategy ids in catalog: {ids}")

    @cached_property
    def _by_id(self) -> dict[str, StrategyDefinition]:
        return {s.id: s for s in self.strategies}

    def by_id(self, strategy_id: str) -> StrategyDefinition:
        return self._by_id[strategy_id]

    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.strategies)

    def order_index(self, strategy_id: str) -> int:
        return STRATEGY_ORDER.index(strategy_id)

    def sort_ids(self, strategy_ids) -> tuple[str, ...]:
        """Order a set of strategy ids by the canonical enumeration."""
        return tuple(sorted(strategy_ids, key=STRATEGY_ORDER.index))

    def ids_of_mask(self, mask: int) -> tuple[str, ...]:
        """Canonically ordered ids of the strategies whose bits are set in mask."""
        return self.sort_ids(s.id for i, s in enumerate(self.strategies) if mask >> i & 1)


@dataclass(frozen=True)
class StrategyProfile:
    """Strategies inferred for one incident, with the matching technique ids."""

    incident_id: str
    strategies: frozenset[str]
    evidence: dict[str, tuple[str, ...]]

    @property
    def mapped(self) -> bool:
        return bool(self.strategies)


@dataclass(frozen=True)
class ClassifiedCorpus:
    """A corpus classified against a catalog.

    Built by ``classify_corpus`` over a materialised corpus, or by
    ``ingest_histogram`` from a histogram alone, with ``corpus`` None: that
    one has every statistic but no per-incident profiles.
    """

    corpus: Corpus | None
    catalog: StrategyCatalog
    strict_prep: bool = False

    @classmethod
    def from_histogram(
        cls,
        histogram: dict[int, int],
        total_count: int,
        source: str,
        catalog: StrategyCatalog,
        strict_prep: bool = False,
    ) -> ClassifiedCorpus:
        cc = cls(None, catalog, strict_prep)
        # Fill the cached properties that would otherwise read the incidents.
        vars(cc).update(histogram=histogram, total_count=total_count, source=source)
        return cc

    def __len__(self) -> int:
        return self.total_count

    @cached_property
    def histogram(self) -> dict[int, int]:
        """Incident count per strategy mask; mask 0 counts the unmapped incidents.

        Bit i of a mask is ``catalog.strategies[i]``. Only non-empty bins are
        present. Computed on first use, without building any profile.
        """
        get = _technique_bits(self.catalog, self.strict_prep).get
        raw: Counter[int] = Counter()
        for incident in self.corpus.incidents:
            m = 0
            for technique_id in incident.techniques:
                m |= get(technique_id, 0)
            raw[m] += 1
        return _fold_masks(raw, self.catalog, self.strict_prep)

    @cached_property
    def profiles(self) -> tuple[StrategyProfile, ...]:
        """Per-incident strategies and evidence, in corpus order."""
        if self.corpus is None:
            raise ValueError("a corpus classified from a histogram has no profiles")
        return tuple(
            classify_incident(incident, self.catalog, self.strict_prep)
            for incident in self.corpus.incidents
        )

    @property
    def mapped_profiles(self) -> tuple[StrategyProfile, ...]:
        return tuple(p for p in self.profiles if p.mapped)

    @property
    def unmapped_profiles(self) -> tuple[StrategyProfile, ...]:
        return tuple(p for p in self.profiles if not p.mapped)

    @cached_property
    def superset_sums(self) -> tuple[int, ...]:
        """table[m] = number of mapped incidents whose strategy mask contains m.

        table[0] is the mapped total, table[1 << i] the count of strategy i and
        table[1 << i | 1 << j] the joint count of strategies i and j. Raises
        EmptyCorpus, on every access, when no incident is mapped.
        """
        n = len(self.catalog.strategies)
        table = [0] * (1 << n)
        for mask, count in self.histogram.items():
            if mask:
                table[mask] = count
        # In-place zeta transform: after step i, table[m] sums the bins that
        # agree with m outside bits 0..i and contain m within them.
        for i in range(n):
            bit = 1 << i
            for m in range(1 << n):
                if not m & bit:
                    table[m] += table[m | bit]
        if not table[0]:
            raise EmptyCorpus("no mapped incidents: statistics are undefined")
        return tuple(table)

    @property
    def mapped_count(self) -> int:
        return self.total_count - self.histogram.get(0, 0)

    @cached_property
    def total_count(self) -> int:
        return len(self.corpus)

    @cached_property
    def source(self) -> str:
        return self.corpus.source


def _technique_bits(
    catalog: StrategyCatalog, strict_prep: bool = False, taxonomy: Taxonomy | None = None
) -> dict[str, int]:
    """Technique id -> the bits it contributes to an incident's raw mask.

    An execution technique sets bit i of each strategy i it executes. In
    strict mode a preparation technique sets bit i + n, n being the number
    of strategies. Given a taxonomy, every one of its techniques is a key,
    with 0 for those of no strategy, so that a missing key is an unknown id.
    """
    n = len(catalog.strategies)
    bits = technique_table(taxonomy) if taxonomy is not None else {}
    for i, strategy in enumerate(catalog.strategies):
        owned = [(strategy.execution_technique, 1 << i)]
        if strict_prep:
            owned.extend((p, 1 << (i + n)) for p in strategy.preparation_techniques)
        for technique_id, bit in owned:
            bits[technique_id] = bits.get(technique_id, 0) | bit
    return bits


def _fold_masks(raw: Counter[int], catalog: StrategyCatalog, strict_prep: bool) -> Counter[int]:
    """Histogram of strategy masks from the counts of raw masks, which are
    ORs of ``_technique_bits`` values."""
    # In strict mode preparation bits sit n places above execution bits,
    # so m & m >> n keeps the strategies that have both; otherwise the
    # shift is 0 and the mask is m itself.
    shift = len(catalog.strategies) if strict_prep else 0
    histogram: Counter[int] = Counter()
    for m, count in raw.items():
        histogram[m & m >> shift] += count
    return histogram


def ingest_histogram(
    path: str | Path,
    taxonomy: Taxonomy,
    catalog: StrategyCatalog,
    mode: str = "strict",
    strict_prep: bool = False,
) -> tuple[ClassifiedCorpus, IngestionReport]:
    """Ingest and classify a corpus file straight into its mask histogram.

    Same checks, errors and ingestion report as ``ingest_corpus`` followed by
    ``classify_corpus``, but no incident is built: for a CSV file, memory is
    the incident-id set plus the histogram. The result has no profiles.
    """
    rows, source = read_corpus_rows(path)
    checker = RowChecker(_technique_bits(catalog, strict_prep, taxonomy), mode, source)
    mask = checker.mask
    raw = Counter(mask(row[0], row[4]) for row in rows)
    report = checker.finish()
    histogram = _fold_masks(raw, catalog, strict_prep)
    return ClassifiedCorpus.from_histogram(histogram, checker.count, source, catalog, strict_prep), report


def check_disjointness(catalog: StrategyCatalog) -> ValidationReport:
    """Report every technique shared by two or more strategy pipelines.

    An empty catalog is vacuously disjoint. Each violation names the shared
    technique and all strategies it appears in.
    """
    owners: dict[str, list[str]] = {}
    for strategy in catalog.strategies:
        for technique_id in sorted(strategy.technique_ids()):
            owners.setdefault(technique_id, []).append(strategy.id)

    violations = [
        Violation(
            "shared-technique",
            f"technique {technique_id!r} appears in strategies {', '.join(ids)}",
        )
        for technique_id, ids in sorted(owners.items())
        if len(ids) > 1
    ]
    return ValidationReport(tuple(violations))


def loads_strategy_catalog(text: str, taxonomy: Taxonomy) -> StrategyCatalog:
    """Parse a catalog JSON document and verify it against the taxonomy.

    Raises UnknownTechnique for unresolvable references, PhaseViolation when
    an execution technique is outside the Execute phase or a preparation
    technique outside the Prepare phase, and DisjointnessViolation when a
    technique appears in two pipelines.
    """
    doc = parse_json(text, "catalog document")
    if not isinstance(doc, dict) or not isinstance(doc.get("strategies"), list):
        raise SchemaError("catalog document must be an object with a 'strategies' array")
    taxonomy_version = doc.get("taxonomy_version")
    if not isinstance(taxonomy_version, str):
        raise SchemaError("catalog: missing or non-string 'taxonomy_version'")

    strategies: list[StrategyDefinition] = []
    for i, entry in enumerate(doc["strategies"]):
        where = f"strategies[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: must be an object")
        for key in ("id", "name", "execution_technique"):
            if not isinstance(entry.get(key), str) or not entry.get(key):
                raise SchemaError(f"{where}: missing or empty field {key!r}")
        preps = entry.get("preparation_techniques")
        if not isinstance(preps, list) or not all(isinstance(p, str) for p in preps):
            raise SchemaError(f"{where}: 'preparation_techniques' must be an array of ids")
        strategy_id = entry["id"]
        if strategy_id not in STRATEGY_ORDER:
            raise SchemaError(
                f"{where}: unknown strategy id {strategy_id!r}; "
                f"expected one of {', '.join(STRATEGY_ORDER)}"
            )

        exec_id = entry["execution_technique"]
        if not taxonomy.has_technique(exec_id):
            raise UnknownTechnique(
                f"{where}: execution technique {exec_id!r} not in taxonomy"
            )
        exec_phase = taxonomy.phase_of_technique(exec_id).name
        if exec_phase != "Execute":
            raise PhaseViolation(
                f"strategy {strategy_id}: execution technique {exec_id!r} "
                f"belongs to phase {exec_phase!r}, expected 'Execute'"
            )
        for prep_id in preps:
            if not taxonomy.has_technique(prep_id):
                raise UnknownTechnique(
                    f"{where}: preparation technique {prep_id!r} not in taxonomy"
                )
            prep_phase = taxonomy.phase_of_technique(prep_id).name
            if prep_phase != "Prepare":
                raise PhaseViolation(
                    f"strategy {strategy_id}: preparation technique {prep_id!r} "
                    f"belongs to phase {prep_phase!r}, expected 'Prepare'"
                )

        strategies.append(
            StrategyDefinition(
                id=strategy_id,
                name=entry["name"],
                execution_technique=exec_id,
                preparation_techniques=frozenset(preps),
                description=entry.get("description", ""),
            )
        )

    # Canonical enumeration order regardless of document order.
    strategies.sort(key=lambda s: STRATEGY_ORDER.index(s.id))
    catalog = StrategyCatalog(tuple(strategies), taxonomy_version)
    report = check_disjointness(catalog)
    if not report.ok:
        raise DisjointnessViolation(str(report))
    return catalog


def load_strategy_catalog(path: str | Path, taxonomy: Taxonomy) -> StrategyCatalog:
    return loads_strategy_catalog(read_text(path, "catalog file"), taxonomy)


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


def classify_corpus(
    corpus: Corpus, catalog: StrategyCatalog, strict_prep: bool = False
) -> ClassifiedCorpus:
    """Classify every incident, preserving corpus order.

    Incidents with at least one strategy are "mapped", the rest "unmapped".
    The mask histogram and the profiles are computed lazily, on first use.
    """
    if not corpus.incidents:
        raise EmptyCorpus("cannot classify an empty corpus")
    return ClassifiedCorpus(corpus, catalog, strict_prep)
