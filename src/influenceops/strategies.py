"""Strategy catalog and incident classification.

The catalog materializes seven influence strategies as disjoint technique
pipelines: one execution technique (Execute phase) plus a set of preparation
techniques (Prepare phase). An incident is classified into a strategy exactly
when it carries that strategy's execution technique; preparation techniques
found in the incident are recorded as supporting evidence only. An optional
strict mode additionally requires at least one preparation technique, which
can only ever shrink a profile.

A catalog holds its strategies in ``STRATEGY_ORDER``, however it was built,
so bit i of a strategy mask, ``catalog.strategies[i]``, is also the i-th
strategy in display order. A classified corpus is its histogram over
strategy masks: with seven strategies there are at most 128 bins, and every
corpus statistic is a function of them.

The rule is stated once, as ``strategy_mask``, over technique masks in the
one bit layout of ``catalog.technique_bits``. ``match_strategies`` applies
it per incident for ``classify_incident`` and the ``classify`` command
(``evidence.py``). ``classify_corpus`` and ``ingest_histogram``
(``validate``, ``stats``, ``graph``) apply it once per distinct mask. The
tests hold every path to a set-based reference.

``corpus`` is imported by ``ingest_histogram``, where it is first used, so
that loading a catalog imports neither the corpus scanner nor ``render``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, partial
from pathlib import Path
from types import MappingProxyType

from .documents import nonempty_string, objects, parse_object, read_text, strings, typed
from .errors import (
    DisjointnessViolation,
    EmptyCorpus,
    PhaseViolation,
    SchemaError,
    UnknownTechnique,
)
from .taxonomy import Taxonomy, ValidationReport, Violation

# For annotations only: type checkers read any name TYPE_CHECKING as true.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .corpus import Corpus, Incident, IngestionReport

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
        unknown = [i for i in ids if i not in STRATEGY_ORDER]
        if unknown:
            raise SchemaError(f"unknown strategy id {unknown[0]!r}; expected one of {', '.join(STRATEGY_ORDER)}")
        # Canonical enumeration order, whatever order the strategies came in.
        ordered = tuple(sorted(self.strategies, key=lambda s: STRATEGY_ORDER.index(s.id)))
        object.__setattr__(self, "strategies", ordered)

    @cached_property
    def _by_id(self) -> dict[str, StrategyDefinition]:
        return {s.id: s for s in self.strategies}

    def by_id(self, strategy_id: str) -> StrategyDefinition:
        return self._by_id[strategy_id]

    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.strategies)

    def ids_of_mask(self, mask: int) -> tuple[str, ...]:
        """Canonically ordered ids of the strategies whose bits are set in mask."""
        return tuple(s.id for i, s in enumerate(self.strategies) if mask >> i & 1)

    @cached_property
    def _bits(self) -> dict[str, int]:
        return {s.id: 1 << i for i, s in enumerate(self.strategies)}

    def mask_of(self, ids: Iterable[str]) -> int:
        """The strategy mask of ids, the inverse of ``ids_of_mask``; raises
        KeyError on an id the catalog lacks."""
        mask = 0
        for strategy_id in ids:
            mask |= self._bits[strategy_id]
        return mask

    @cached_property
    def technique_bits(self) -> dict[str, int]:
        """Technique id -> its bits in a technique mask. For n strategies, strategy
        i's execution technique sets bit i, and each of its preparation techniques
        bit n + i and an own bit 2n + k, k in order of first occurrence."""
        n, bits, own = len(self.strategies), {}, {}
        for i, s in enumerate(self.strategies):
            bits[s.execution_technique] = bits.get(s.execution_technique, 0) | 1 << i
            for p in sorted(s.preparation_techniques):
                bits[p] = bits.get(p, 0) | 1 << n + i | 1 << 2 * n + own.setdefault(p, len(own))
        return bits

    def evidence_item(self, i: int, matched: int) -> tuple[str, tuple[str, ...]]:
        """(strategy id, evidence ids) of strategy i: its execution technique,
        then its preparation techniques whose own bits are in ``matched``, sorted."""
        s, bits = self.strategies[i], self.technique_bits
        return s.id, (s.execution_technique, *(p for p in sorted(s.preparation_techniques) if matched & bits[p]))


@dataclass(frozen=True)
class StrategyProfile:
    """Strategies inferred for one incident, with the matching technique ids
    (a read-only copy of the evidence it is given)."""

    incident_id: str
    strategies: frozenset[str]
    evidence: Mapping[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "evidence", MappingProxyType(dict(self.evidence)))

    def __reduce__(self):
        # A mappingproxy does not pickle: pickle and deepcopy rebuild from a dict.
        return StrategyProfile, (self.incident_id, self.strategies, dict(self.evidence))

    @property
    def mapped(self) -> bool:
        return bool(self.strategies)


@dataclass(frozen=True)
class ClassifiedCorpus:
    """A corpus classified against a catalog: incident count per strategy
    mask (bit i is ``catalog.strategies[i]``, mask 0 unmapped, only non-empty
    bins), held as a read-only copy, so the cached ``superset_sums`` cannot
    go stale. Zero bins are dropped; a negative count, or a mask with a bit
    past the catalog's strategies, raises ValueError. Per-incident profiles
    come from ``classify_incident``.
    """

    catalog: StrategyCatalog
    histogram: Mapping[int, int]
    source: str
    strict_prep: bool = False

    def __post_init__(self) -> None:
        bins = 1 << len(self.catalog.strategies)
        histogram = {}
        for mask, count in self.histogram.items():
            if not 0 <= mask < bins:
                raise ValueError(f"strategy mask {mask} is outside 0..{bins - 1}")
            if count < 0:
                raise ValueError(f"strategy mask {mask} has negative count {count}")
            if count:
                histogram[mask] = count
        object.__setattr__(self, "histogram", MappingProxyType(histogram))

    def __hash__(self) -> int:
        return hash((self.catalog, frozenset(self.histogram.items()), self.source, self.strict_prep))

    def __reduce__(self):
        # A mappingproxy does not pickle: pickle and deepcopy rebuild from a dict.
        return ClassifiedCorpus, (self.catalog, dict(self.histogram), self.source, self.strict_prep)

    def __len__(self) -> int:
        return self.total_count

    @property
    def total_count(self) -> int:
        return sum(self.histogram.values())

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


@cache
def pattern_order(mask: int) -> tuple[int, tuple[int, ...]]:
    """The canonical order of strategy masks: size, then member bit positions. A
    catalog is in enumeration order, so bit positions compare as the members'
    enumeration positions do."""
    return mask.bit_count(), tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def strategy_mask(m: int, n: int, strict_prep: bool) -> int:
    """Bit i is set iff technique mask m holds strategy i's execution technique
    and, under ``strict_prep``, one of its preparation techniques."""
    return m & (m >> n if strict_prep else m) & (1 << n) - 1


def _histogram(masks: Iterable[int], n: int, strict_prep: bool) -> Counter[int]:
    """Incident count per strategy mask, the rule applied once per distinct mask."""
    histogram: Counter[int] = Counter()
    for m, count in Counter(masks).items():
        histogram[strategy_mask(m, n, strict_prep)] += count
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
    ``classify_corpus``, but no incident is built: memory is the incident-id
    to mask table and the histogram, and for JSON the file's text.
    """
    from .corpus import scan_corpus

    path = Path(path)
    n = len(catalog.strategies)
    # The rule reads only the bits below n, or 2n: cut to them, masks take few values.
    low = (1 << (2 * n if strict_prep else n)) - 1
    bits = {t: b & low for t, b in catalog.technique_bits.items()}
    masks, report = scan_corpus(path, taxonomy, bits, mode)
    histogram = _histogram(masks.values(), n, strict_prep)
    return ClassifiedCorpus(catalog, histogram, str(path), strict_prep), report


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


def _check_technique(taxonomy: Taxonomy, where: str, strategy_id: str, role: str, technique: str, phase: str):
    """Raise unless the taxonomy has the technique, in the phase its role needs."""
    if not taxonomy.has_technique(technique):
        raise UnknownTechnique(f"{where}: {role} technique {technique!r} not in taxonomy")
    found = taxonomy.phase_of_technique(technique).name
    if found != phase:
        raise PhaseViolation(
            f"strategy {strategy_id}: {role} technique {technique!r} "
            f"belongs to phase {found!r}, expected {phase!r}"
        )


@lru_cache(maxsize=16)
def loads_strategy_catalog(text: str, taxonomy: Taxonomy) -> StrategyCatalog:
    """Parse a catalog JSON document and verify it against the taxonomy.

    One shared catalog per (text, taxonomy), the taxonomy compared by value;
    an error is not cached.

    Raises UnknownTechnique for unresolvable references, PhaseViolation when
    an execution technique is outside the Execute phase or a preparation
    technique outside the Prepare phase, and DisjointnessViolation when a
    technique appears in two pipelines.
    """
    doc = parse_object(text, "catalog document")
    taxonomy_version = typed(doc, "taxonomy_version", "catalog", str)

    def strategy(entry: dict, where: str) -> StrategyDefinition:
        strategy_id, name, exec_id = (
            nonempty_string(entry, key, where) for key in ("id", "name", "execution_technique")
        )
        preps = strings(entry, "preparation_techniques", where)
        if len(set(preps)) != len(preps):
            raise SchemaError(f"{where}: repeated preparation technique in {sorted(preps)}")
        description = typed(entry, "description", where, str, "")
        _check_technique(taxonomy, where, strategy_id, "execution", exec_id, "Execute")
        for prep_id in preps:
            _check_technique(taxonomy, where, strategy_id, "preparation", prep_id, "Prepare")
        return StrategyDefinition(strategy_id, name, exec_id, frozenset(preps), description)

    strategies = objects(doc, "strategies", "catalog", strategy)
    catalog = StrategyCatalog(strategies, taxonomy_version)
    report = check_disjointness(catalog)
    if not report.ok:
        raise DisjointnessViolation(str(report))
    return catalog


def load_strategy_catalog(path: str | Path, taxonomy: Taxonomy) -> StrategyCatalog:
    return loads_strategy_catalog(read_text(path, "catalog file"), taxonomy)


class _Memo(dict):
    """A dict that computes a missing key's value once, with ``compute(key)``."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


def match_strategies(
    pairs: Iterable[tuple[str, int]], catalog: StrategyCatalog, strict_prep: bool, found
) -> Iterator[tuple[str, int, list]]:
    """(incident id, strategy mask, [found(i, matched) per matched strategy i])
    per (incident id, technique mask) pair; ``matched`` is the own bits of i's
    preparation techniques in the mask. ``found`` runs once per (i, matched);
    incidents share its values."""
    n, bits = len(catalog.strategies), catalog.technique_bits
    shift, low, own = (n if strict_prep else 0), (1 << n) - 1, -1 << 2 * n
    # Own bits are masked before the sum: bit n + i, once per technique, would carry.
    strategies = [(sum(bits[p] & own for p in s.preparation_techniques), _Memo(partial(found, i)))
                  for i, s in enumerate(catalog.strategies)]
    members = _Memo(lambda sm: [strategies[i] for i in range(n) if sm >> i & 1])
    for incident_id, tm in pairs:
        sm = tm & tm >> shift & low  # strategy_mask(tm, n, strict_prep), inlined in this loop
        yield incident_id, sm, [found_of[tm & prep_bits] for prep_bits, found_of in members[sm]]


def _technique_masks(incidents: Iterable[Incident], catalog: StrategyCatalog) -> Iterator[tuple[str, int]]:
    get = catalog.technique_bits.get
    for incident in incidents:
        m = 0
        for technique_id in incident.techniques:
            m |= get(technique_id, 0)
        yield incident.incident_id, m


def classify_incident(
    incident: Incident, catalog: StrategyCatalog, strict_prep: bool = False
) -> StrategyProfile:
    """Infer the incident's strategy set from its technique ids.

    A strategy matches iff its execution technique is present (strict mode
    also demands one of its preparation techniques). Evidence lists the
    execution technique first, then any matched preparation techniques.
    Depends only on the incident's technique set and the catalog.
    """
    pairs = _technique_masks([incident], catalog)
    [(incident_id, _, items)] = match_strategies(pairs, catalog, strict_prep, catalog.evidence_item)
    evidence = dict(items)
    return StrategyProfile(incident_id, frozenset(evidence), evidence)


def classify_corpus(
    corpus: Corpus, catalog: StrategyCatalog, strict_prep: bool = False
) -> ClassifiedCorpus:
    """Classify every incident into the corpus's mask histogram.

    Incidents with at least one strategy are "mapped", the rest "unmapped".
    Only the mask histogram is kept; ``classify_incident`` gives an
    incident's strategies with their evidence.
    """
    if not corpus.incidents:
        raise EmptyCorpus("cannot classify an empty corpus")
    masks = (m for _, m in _technique_masks(corpus.incidents, catalog))
    histogram = _histogram(masks, len(catalog.strategies), strict_prep)
    return ClassifiedCorpus(catalog, histogram, corpus.source, strict_prep)
