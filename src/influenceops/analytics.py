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
computed once per classified corpus.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb

from .errors import EmptyCorpus, InvalidRange, NegativeSupport
from .strategies import ClassifiedCorpus


@dataclass(frozen=True)
class PrevalenceEntry:
    strategy_id: str
    name: str
    count: int
    fraction: Fraction


@dataclass(frozen=True)
class PrevalenceReport:
    entries: tuple[PrevalenceEntry, ...]
    denominator: int

    @cached_property
    def _counts(self) -> dict[str, int]:
        return {entry.strategy_id: entry.count for entry in self.entries}

    def count(self, strategy_id: str) -> int:
        return self._counts[strategy_id]

    def fraction(self, strategy_id: str) -> Fraction:
        return Fraction(self.count(strategy_id), self.denominator)


@dataclass(frozen=True)
class SizeDistribution:
    counts: dict[int, int]
    mapped_total: int
    multi_total: int

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

    @property
    def distinct_pattern_count(self) -> int:
        return len(self.rows)

    @cached_property
    def _rows_by_set(self) -> dict[frozenset[str], PatternRow]:
        return {frozenset(row.strategies): row for row in self.rows}

    def row(self, strategies) -> PatternRow:
        wanted = frozenset(strategies)
        try:
            return self._rows_by_set[wanted]
        except KeyError:
            raise KeyError(sorted(wanted)) from None

    def exact_count(self, strategies) -> int:
        try:
            return self.row(strategies).exact_count
        except KeyError:
            return 0

    def containment_count(self, strategies) -> int:
        try:
            return self.row(strategies).containment_count
        except KeyError:
            wanted = frozenset(strategies)
            return sum(
                row.exact_count for row in self.rows if wanted <= frozenset(row.strategies)
            )


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

    @cached_property
    def _node_counts(self) -> dict[str, int]:
        return {node.strategy_id: node.count for node in self.nodes}

    @cached_property
    def _edge_weights(self) -> dict[tuple[str, str], int]:
        weights = {(edge.a, edge.b): edge.weight for edge in self.edges}
        weights.update({(b, a): w for (a, b), w in weights.items()})
        return weights

    def node_weight(self, strategy_id: str) -> int:
        return self._node_counts[strategy_id]

    def edge_weight(self, a: str, b: str) -> int:
        return self._edge_weights.get((a, b), 0)


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

    @cached_property
    def _node_counts(self) -> dict[str, int]:
        return {node.strategy_id: node.count for node in self.nodes}

    @cached_property
    def _edges_by_pair(self) -> dict[tuple[str, str], ConditionalEdge]:
        return {(edge.source, edge.target): edge for edge in self.edges}

    def probability(self, source: str, target: str) -> Fraction:
        """P(target | source), defined for any pair including source==target.

        Raises KeyError for a source that is not a node, or for a pair
        without an edge (a source below min_support, or an unknown target).
        """
        if self._node_counts[source] == 0:
            raise ZeroDivisionError(f"strategy {source!r} occurs in no mapped incident")
        if source == target:
            return Fraction(1)
        try:
            return self._edges_by_pair[(source, target)].probability
        except KeyError:
            raise KeyError((source, target)) from None


@dataclass(frozen=True)
class MappingCoverage:
    mapped: int
    total: int

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.mapped, self.total)


def _strategy_counts(cc: ClassifiedCorpus, table: tuple[int, ...]) -> dict[str, int]:
    return {s.id: table[1 << i] for i, s in enumerate(cc.catalog.strategies)}


def _joint_counts(cc: ClassifiedCorpus, table: tuple[int, ...]) -> dict[tuple[str, str], int]:
    """Joint incident count of every ordered pair of distinct strategies."""
    strategies = cc.catalog.strategies
    return {
        (a.id, b.id): table[1 << i | 1 << j]
        for i, a in enumerate(strategies)
        for j, b in enumerate(strategies)
        if i != j
    }


def prevalence(cc: ClassifiedCorpus) -> PrevalenceReport:
    """Per-strategy incident counts over mapped incidents only.

    Entries are sorted by count descending, ties by enumeration order.
    """
    table = cc.superset_sums
    counts = _strategy_counts(cc, table)
    denominator = table[0]
    entries = tuple(
        PrevalenceEntry(s.id, s.name, counts[s.id], Fraction(counts[s.id], denominator))
        # A stable sort of the catalog, which is in enumeration order.
        for s in sorted(cc.catalog.strategies, key=lambda s: -counts[s.id])
    )
    return PrevalenceReport(entries, denominator)


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
    order = cc.catalog.order_index
    rows = [
        PatternRow(cc.catalog.ids_of_mask(mask), count, table[mask])
        for mask, count in cc.histogram.items()
        if mask
    ]
    rows.sort(key=lambda r: (-r.exact_count, len(r.strategies), tuple(order(s) for s in r.strategies)))
    return PatternTable(tuple(rows))


def _nodes(cc: ClassifiedCorpus, counts: dict[str, int]) -> tuple[CooccurrenceNode, ...]:
    return tuple(
        CooccurrenceNode(s.id, s.name, counts[s.id]) for s in cc.catalog.strategies
    )


def cooccurrence(cc: ClassifiedCorpus) -> CooccurrenceGraph:
    """Undirected strategy graph weighted by joint incident counts.

    Node weight is the strategy's mapped-incident count; zero-weight edges
    are omitted. Emission order follows the strategy enumeration.
    """
    table = cc.superset_sums
    joint = _joint_counts(cc, table)
    edges = tuple(
        CooccurrenceEdge(a, b, joint[(a, b)])
        for a, b in combinations(cc.catalog.ids(), 2)
        if joint[(a, b)] > 0
    )
    return CooccurrenceGraph(_nodes(cc, _strategy_counts(cc, table)), edges)


def conditional_probabilities(cc: ClassifiedCorpus, min_support: int = 1) -> ConditionalGraph:
    """Directed graph of P(target | source) = joint / source count.

    An edge source->target (source != target) is present iff the source
    strategy's incident count reaches max(min_support, 1); weights are exact
    rationals carried as integer pairs.
    """
    if min_support < 0:
        raise NegativeSupport(f"min_support must be >= 0, got {min_support}")
    table = cc.superset_sums
    counts = _strategy_counts(cc, table)
    joint = _joint_counts(cc, table)
    ids = cc.catalog.ids()
    threshold = max(min_support, 1)
    edges = tuple(
        ConditionalEdge(source, target, joint[(source, target)], counts[source])
        for source in ids
        for target in ids
        if source != target and counts[source] >= threshold
    )
    return ConditionalGraph(_nodes(cc, counts), edges, min_support)


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
