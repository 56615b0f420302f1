"""Corpus statistics over classified incidents.

Every statistic is computed with exact integer arithmetic; ratios are
`fractions.Fraction` values. Decimal rendering happens only at the report
layer. All functions are pure over the strategy-mask histogram of an
immutable ClassifiedCorpus (at most 2**n bins for n strategies), never over
per-incident profiles, and all sorted outputs break ties by the canonical
strategy enumeration order, so results are independent of incident order
and stable across runs.

Strategy, pair and pattern containment counts all come from one table: the
superset-sum (zeta) transform of the histogram over the subset lattice
(Yates 1937; Bjorklund, Husfeldt, Kaski and Koivisto, STOC 2007), which
takes n * 2**(n-1) additions. It is ``ClassifiedCorpus.superset_sums``,
computed once per classified corpus. The builders read ``table[1 << i]``
and ``table[1 << i | 1 << j]``, and the accessors read the same table: each
result holds its classified corpus, and looks up ``table[catalog.mask_of(ids)]``,
or the histogram for an exact count, with no lookup of its own.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from types import MappingProxyType

from .errors import EmptyCorpus, InvalidRange, NegativeSupport
from .strategies import ClassifiedCorpus, pattern_order


def _containment(cc: ClassifiedCorpus, ids) -> int:
    """Mapped incidents whose strategy set contains ids; KeyError on an unknown id."""
    return cc.superset_sums[cc.catalog.mask_of(ids)]


@dataclass(frozen=True)
class PrevalenceEntry:
    strategy_id: str
    name: str
    count: int
    denominator: int

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.count, self.denominator)


@dataclass(frozen=True)
class PrevalenceReport:
    entries: tuple[PrevalenceEntry, ...]
    denominator: int
    classified: ClassifiedCorpus = field(compare=False, repr=False)

    def count(self, strategy_id: str) -> int:
        return _containment(self.classified, (strategy_id,))

    def fraction(self, strategy_id: str) -> Fraction:
        return Fraction(self.count(strategy_id), self.denominator)


@dataclass(frozen=True)
class SizeDistribution:
    """Mapped incidents per strategy count k >= 1, held as a read-only copy."""

    counts: Mapping[int, int]
    mapped_total: int
    multi_total: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", MappingProxyType(dict(self.counts)))

    def __reduce__(self):
        # A mappingproxy does not pickle: pickle and deepcopy rebuild from a dict.
        return SizeDistribution, (dict(self.counts), self.mapped_total, self.multi_total)

    @property
    def multi_fraction_of_all(self) -> Fraction:
        return Fraction(self.multi_total, self.mapped_total)

    def fraction_of_all(self, size: int) -> Fraction:
        return Fraction(self.counts.get(size, 0), self.mapped_total)

    def fraction_of_multi(self, size: int) -> Fraction:
        if self.multi_total == 0:
            return Fraction(0)
        return Fraction(self.counts.get(size, 0), self.multi_total)


@dataclass(frozen=True)
class PatternRow:
    strategies: tuple[str, ...]
    exact_count: int
    containment_count: int


@dataclass(frozen=True)
class PatternTable:
    rows: tuple[PatternRow, ...]
    classified: ClassifiedCorpus = field(compare=False, repr=False)

    @property
    def distinct_pattern_count(self) -> int:
        return len(self.rows)

    def row(self, strategies) -> PatternRow:
        wanted = frozenset(strategies)
        cc = self.classified
        with suppress(KeyError):
            mask = cc.catalog.mask_of(wanted)
            # Mask 0 is the unmapped bin, which has no row.
            if mask and mask in cc.histogram:
                return PatternRow(cc.catalog.ids_of_mask(mask), cc.histogram[mask], cc.superset_sums[mask])
        raise KeyError(sorted(wanted))

    def exact_count(self, strategies) -> int:
        try:
            return self.row(strategies).exact_count
        except KeyError:
            return 0

    def containment_count(self, strategies) -> int:
        with suppress(KeyError):
            return _containment(self.classified, strategies)
        return 0


@dataclass(frozen=True)
class CooccurrenceNode:
    strategy_id: str
    name: str
    count: int


@dataclass(frozen=True)
class CooccurrenceEdge:
    a: str
    b: str
    weight: int


@dataclass(frozen=True)
class CooccurrenceGraph:
    nodes: tuple[CooccurrenceNode, ...]
    edges: tuple[CooccurrenceEdge, ...]
    classified: ClassifiedCorpus = field(compare=False, repr=False)

    def node_weight(self, strategy_id: str) -> int:
        return _containment(self.classified, (strategy_id,))

    def edge_weight(self, a: str, b: str) -> int:
        """Joint count of a and b; 0 for a == b (no self-loops) or an unknown id."""
        if a != b:
            with suppress(KeyError):
                return _containment(self.classified, (a, b))
        return 0


@dataclass(frozen=True)
class ConditionalEdge:
    """Directed edge source -> target: P(target | source) as an exact pair."""

    source: str
    target: str
    joint_count: int
    source_count: int

    @property
    def probability(self) -> Fraction:
        return Fraction(self.joint_count, self.source_count)


@dataclass(frozen=True)
class ConditionalGraph:
    nodes: tuple[CooccurrenceNode, ...]
    edges: tuple[ConditionalEdge, ...]
    min_support: int
    classified: ClassifiedCorpus = field(compare=False, repr=False)

    def probability(self, source: str, target: str) -> Fraction:
        """P(target | source), defined for any pair including source==target.

        Raises KeyError for a source that is not a node, or for a pair
        without an edge (a source below min_support, or an unknown target),
        and ZeroDivisionError for a source in no mapped incident, whatever
        the target. P(source | source) is 1 even for a source below
        min_support.
        """
        count = _containment(self.classified, (source,))
        if count == 0:
            raise ZeroDivisionError(f"strategy {source!r} occurs in no mapped incident")
        if source == target:
            return Fraction(1)
        if count >= support_threshold(self.min_support):
            with suppress(KeyError):
                return Fraction(_containment(self.classified, (source, target)), count)
        raise KeyError((source, target))


@dataclass(frozen=True)
class MappingCoverage:
    mapped: int
    total: int

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.mapped, self.total)


def prevalence(cc: ClassifiedCorpus) -> PrevalenceReport:
    """Per-strategy incident counts over mapped incidents only.

    Entries are sorted by count descending, ties by enumeration order.
    """
    table = cc.superset_sums
    denominator = table[0]
    entries = (PrevalenceEntry(s.id, s.name, table[1 << i], denominator) for i, s in enumerate(cc.catalog.strategies))
    # A stable sort of entries in enumeration order.
    return PrevalenceReport(tuple(sorted(entries, key=lambda e: -e.count)), denominator, cc)


def size_distribution(cc: ClassifiedCorpus) -> SizeDistribution:
    """How many mapped incidents combine k strategies, for each k >= 1."""
    counts: Counter[int] = Counter()
    for mask, count in cc.histogram.items():
        if mask:
            counts[mask.bit_count()] += count
    if not counts:
        raise EmptyCorpus("no mapped incidents: statistics are undefined")
    multi = sum(c for size, c in counts.items() if size >= 2)
    return SizeDistribution(dict(sorted(counts.items())), sum(counts.values()), multi)


def pattern_frequencies(cc: ClassifiedCorpus) -> PatternTable:
    """Distinct strategy sets with exact-match and superset (containment) counts.

    Rows are sorted by exact count descending, then pattern size ascending,
    then enumeration order of the member ids.
    """
    table = cc.superset_sums
    histogram = cc.histogram
    masks = sorted((mask for mask in histogram if mask), key=lambda mask: (-histogram[mask], pattern_order(mask)))
    return PatternTable(
        tuple(PatternRow(cc.catalog.ids_of_mask(mask), histogram[mask], table[mask]) for mask in masks), cc
    )


def _nodes(cc: ClassifiedCorpus) -> tuple[CooccurrenceNode, ...]:
    table = cc.superset_sums
    return tuple(CooccurrenceNode(s.id, s.name, table[1 << i]) for i, s in enumerate(cc.catalog.strategies))


def cooccurrence(cc: ClassifiedCorpus) -> CooccurrenceGraph:
    """Undirected strategy graph weighted by joint incident counts.

    Node weight is the strategy's mapped-incident count; zero-weight edges
    are omitted. Emission order follows the strategy enumeration.
    """
    table = cc.superset_sums
    ids = cc.catalog.ids()
    edges = tuple(
        CooccurrenceEdge(ids[i], ids[j], table[1 << i | 1 << j])
        for i, j in combinations(range(len(ids)), 2)
        if table[1 << i | 1 << j] > 0
    )
    return CooccurrenceGraph(_nodes(cc), edges, cc)


def support_threshold(min_support: int) -> int:
    """The source count a conditional edge needs, max(min_support, 1); raises
    NegativeSupport on a negative min_support."""
    if min_support < 0:
        raise NegativeSupport(f"min_support must be >= 0, got {min_support}")
    return max(min_support, 1)


def conditional_probabilities(cc: ClassifiedCorpus, min_support: int = 1) -> ConditionalGraph:
    """Directed graph of P(target | source) = joint / source count.

    An edge source->target (source != target) is present iff the source
    strategy's incident count reaches max(min_support, 1); weights are exact
    rationals carried as integer pairs.
    """
    threshold = support_threshold(min_support)
    table = cc.superset_sums
    ids = cc.catalog.ids()
    edges = tuple(
        ConditionalEdge(ids[i], ids[j], table[1 << i | 1 << j], table[1 << i])
        for i in range(len(ids))
        if table[1 << i] >= threshold
        for j in range(len(ids))
        if i != j
    )
    return ConditionalGraph(_nodes(cc), edges, min_support, cc)


def possible_combination_count(n_strategies: int, min_size: int) -> int:
    """Number of strategy subsets with at least min_size members."""
    if n_strategies < 0 or min_size < 0 or min_size > n_strategies:
        raise InvalidRange(
            f"require 0 <= min_size <= n_strategies, got ({n_strategies}, {min_size})"
        )
    return sum(comb(n_strategies, k) for k in range(min_size, n_strategies + 1))


def mapping_coverage(cc: ClassifiedCorpus) -> MappingCoverage:
    """Mapped over total incidents as an exact rational with both integers."""
    if not cc.total_count:
        raise EmptyCorpus("empty corpus has no coverage")
    return MappingCoverage(cc.mapped_count, cc.total_count)
