"""Synthetic corpus generation from aggregate targets.

Two modes:

* ``exact-patterns``: the spec lists strategy-set patterns with exact
  incident counts; generation is direct construction.
* ``marginal-solver``: the spec gives per-strategy incident counts
  (marginals), a profile-size distribution, and optional pinned patterns
  with minimum counts. A deterministic backtracking search finds a pattern
  multiset satisfying all constraint families exactly.

Synthetic incidents carry only the execution techniques of their pattern's
strategies (minimal witnesses), so classifying the output recovers the
requested patterns; ``include_preparation`` adds each strategy's full
pipeline. Identical spec + seed produces a byte-identical corpus: the seed
drives only tie-breaking among equally attractive branches and the synthetic
metadata (ordering, years).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

from .corpus import Corpus, Incident
from .documents import parse_json, read_text
from .errors import InfeasibleSpec, SchemaError, ZeroIncidents
from .strategies import StrategyCatalog

EXACT_MODE = "exact-patterns"
SOLVER_MODE = "marginal-solver"

_YEAR_RANGE = (2014, 2024)
_NODE_BUDGET = 500_000


@dataclass(frozen=True)
class GeneratorSpec:
    mode: str
    pattern_counts: dict[frozenset[str], int] = field(default_factory=dict)
    marginals: dict[str, int] = field(default_factory=dict)
    size_distribution: dict[int, int] = field(default_factory=dict)
    pinned_patterns: dict[frozenset[str], int] = field(default_factory=dict)
    unmapped_count: int = 0
    seed: int = 0
    include_preparation: bool = False


def _parse_pattern_entries(entries: object, count_key: str, where: str) -> dict[frozenset[str], int]:
    if not isinstance(entries, list):
        raise SchemaError(f"{where}: must be an array of pattern objects")
    patterns: dict[frozenset[str], int] = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}[{i}]: must be an object")
        ids = entry.get("strategies")
        if not isinstance(ids, list) or not ids or not all(isinstance(s, str) for s in ids):
            raise SchemaError(f"{where}[{i}]: 'strategies' must be a non-empty array of ids")
        pattern = frozenset(ids)
        if len(pattern) != len(ids):
            raise SchemaError(f"{where}[{i}]: repeated strategy id in pattern {sorted(ids)}")
        count = entry.get(count_key)
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise SchemaError(f"{where}[{i}]: {count_key!r} must be a non-negative integer")
        if pattern in patterns:
            raise SchemaError(f"{where}[{i}]: duplicate pattern {sorted(ids)}")
        patterns[pattern] = count
    return patterns


def _non_negative_int(value: object, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise SchemaError(f"{where}: must be a non-negative integer")
    return value


def loads_generator_spec(text: str) -> GeneratorSpec:
    doc = parse_json(text, "generator spec")
    if not isinstance(doc, dict):
        raise SchemaError("generator spec must be a JSON object")

    mode = doc.get("mode")
    if mode not in (EXACT_MODE, SOLVER_MODE):
        raise SchemaError(f"generator spec: mode must be {EXACT_MODE!r} or {SOLVER_MODE!r}")

    marginals: dict[str, int] = {}
    if "marginals" in doc:
        if not isinstance(doc["marginals"], dict):
            raise SchemaError("generator spec: 'marginals' must be an object")
        for key, value in doc["marginals"].items():
            marginals[key] = _non_negative_int(value, f"marginals[{key!r}]")

    size_distribution: dict[int, int] = {}
    if "size_distribution" in doc:
        if not isinstance(doc["size_distribution"], dict):
            raise SchemaError("generator spec: 'size_distribution' must be an object")
        for key, value in doc["size_distribution"].items():
            try:
                size = int(key)
            except ValueError:
                raise SchemaError(f"size_distribution: key {key!r} is not an integer") from None
            if size < 1:
                raise SchemaError(f"size_distribution: size {size} must be >= 1")
            size_distribution[size] = _non_negative_int(value, f"size_distribution[{key!r}]")

    return GeneratorSpec(
        mode=mode,
        pattern_counts=_parse_pattern_entries(doc.get("pattern_counts", []), "count", "pattern_counts"),
        marginals=marginals,
        size_distribution=size_distribution,
        pinned_patterns=_parse_pattern_entries(doc.get("pinned_patterns", []), "min_count", "pinned_patterns"),
        unmapped_count=_non_negative_int(doc.get("unmapped_count", 0), "unmapped_count"),
        seed=_non_negative_int(doc.get("seed", 0), "seed"),
        include_preparation=bool(doc.get("include_preparation", False)),
    )


def load_generator_spec(path: str | Path) -> GeneratorSpec:
    return loads_generator_spec(read_text(path, "generator spec file"))


def _canonical_pattern_key(catalog: StrategyCatalog):
    def key(pattern: frozenset[str]) -> tuple:
        return (-len(pattern), tuple(catalog.order_index(s) for s in catalog.sort_ids(pattern)))

    return key


def _check_strategy_ids(spec: GeneratorSpec, catalog: StrategyCatalog) -> None:
    known = set(catalog.ids())
    referenced: set[str] = set(spec.marginals)
    for pattern in (*spec.pattern_counts, *spec.pinned_patterns):
        referenced |= pattern
    unknown = sorted(referenced - known)
    if unknown:
        raise SchemaError(f"generator spec references unknown strategy ids: {', '.join(unknown)}")


def _solve_pattern_multiset(
    spec: GeneratorSpec, catalog: StrategyCatalog, rng: random.Random
) -> list[frozenset[str]]:
    """Backtracking search for a pattern multiset meeting every target exactly.

    Incidents are assigned largest size first; at each step candidate
    strategy subsets are ordered by total remaining marginal (most loaded
    first, the Gale-Ryser greedy), with seed-driven tie-breaking. Strategies
    whose remaining marginal equals the number of remaining incidents are
    forced into every candidate.
    """
    ids = catalog.ids()
    index = {s: i for i, s in enumerate(ids)}
    n = len(ids)

    marginals = [spec.marginals.get(s, 0) for s in ids]
    slots: dict[int, int] = dict(spec.size_distribution)

    total_marginal = sum(marginals)
    total_weighted = sum(k * c for k, c in slots.items())
    if total_marginal != total_weighted:
        raise InfeasibleSpec(
            "handshake identity violated: sum of marginals "
            f"({total_marginal}) != sum over sizes of k*count ({total_weighted})"
        )
    for k in slots:
        if k > n:
            raise InfeasibleSpec(f"size_distribution requests profiles of size {k} > {n} strategies")

    # Pre-allocate pinned patterns (minimum counts), consuming their targets.
    residual = list(marginals)
    chosen: list[frozenset[str]] = []
    for pattern in sorted(spec.pinned_patterns, key=_canonical_pattern_key(catalog)):
        count = spec.pinned_patterns[pattern]
        size = len(pattern)
        slots[size] = slots.get(size, 0) - count
        if slots[size] < 0:
            raise InfeasibleSpec(
                f"pinned patterns need {-slots[size]} more incidents of size {size} "
                "than the size distribution provides"
            )
        for s in pattern:
            residual[index[s]] -= count
            if residual[index[s]] < 0:
                raise InfeasibleSpec(
                    f"pinned patterns consume more of strategy {s!r} than its marginal allows"
                )
        chosen.extend([pattern] * count)

    sizes_desc = sorted(
        (k for k, c in slots.items() for _ in range(c)), reverse=True
    )
    incidents_left = len(sizes_desc)
    for i, r in enumerate(residual):
        if r > incidents_left:
            raise InfeasibleSpec(
                f"marginal for strategy {ids[i]!r} exceeds the remaining "
                f"incident count ({r} > {incidents_left})"
            )

    assignment: list[tuple[int, ...]] = []
    budget = [_NODE_BUDGET]

    def feasible(depth: int) -> bool:
        remaining = len(sizes_desc) - depth
        if remaining == 0:
            return all(r == 0 for r in residual)
        active = sum(1 for r in residual if r > 0)
        forced = sum(1 for r in residual if r == remaining)
        # Largest remaining slot needs that many distinct active strategies;
        # forced strategies must fit into the smallest remaining slot.
        if active < sizes_desc[depth]:
            return False
        if forced > sizes_desc[-1]:
            return False
        return all(r <= remaining for r in residual)

    def search(depth: int) -> bool:
        if depth == len(sizes_desc):
            return all(r == 0 for r in residual)
        if budget[0] <= 0:
            return False
        budget[0] -= 1

        k = sizes_desc[depth]
        remaining = len(sizes_desc) - depth
        forced = tuple(i for i in range(n) if residual[i] == remaining)
        if len(forced) > k:
            return False
        free = [i for i in range(n) if residual[i] > 0 and residual[i] < remaining]
        need = k - len(forced)
        if need > len(free):
            return False

        candidates = []
        for extra in combinations(free, need):
            members = forced + extra
            score = sum(residual[i] for i in members)
            candidates.append((-score, rng.random(), members))
        candidates.sort()

        for _, _, members in candidates:
            for i in members:
                residual[i] -= 1
            assignment.append(members)
            if feasible(depth + 1) and search(depth + 1):
                return True
            assignment.pop()
            for i in members:
                residual[i] += 1
        return False

    if not search(0):
        if budget[0] <= 0:
            raise InfeasibleSpec(
                f"search exhausted ({_NODE_BUDGET} nodes) without satisfying "
                "marginals, size distribution, and pinned patterns"
            )
        raise InfeasibleSpec(
            "no pattern multiset satisfies the marginals, size distribution, "
            "and pinned patterns simultaneously"
        )

    chosen.extend(frozenset(ids[i] for i in members) for members in assignment)
    return chosen


def generate_corpus(spec: GeneratorSpec, catalog: StrategyCatalog | None = None) -> Corpus:
    """Build a synthetic corpus realizing the spec's targets.

    Pure function of the spec (including its seed): identical inputs yield an
    identical corpus, incident by incident.
    """
    if catalog is None:
        from .resources import load_bundled_catalog

        catalog = load_bundled_catalog()
    _check_strategy_ids(spec, catalog)

    rng = random.Random(spec.seed)
    if spec.mode == EXACT_MODE:
        patterns = [
            pattern
            for pattern in sorted(spec.pattern_counts, key=_canonical_pattern_key(catalog))
            for _ in range(spec.pattern_counts[pattern])
        ]
    else:
        patterns = _solve_pattern_multiset(spec, catalog, rng)
        patterns.sort(key=_canonical_pattern_key(catalog))

    total = len(patterns) + spec.unmapped_count
    if total == 0:
        raise ZeroIncidents("generator spec describes zero incidents")

    technique_sets: list[frozenset[str]] = []
    for pattern in patterns:
        techniques: set[str] = set()
        for strategy_id in pattern:
            strategy = catalog.by_id(strategy_id)
            techniques.add(strategy.execution_technique)
            if spec.include_preparation:
                techniques |= strategy.preparation_techniques
        technique_sets.append(frozenset(techniques))
    technique_sets.extend([frozenset()] * spec.unmapped_count)

    rng.shuffle(technique_sets)
    incidents = tuple(
        Incident(
            incident_id=f"SYN-{i:04d}",
            title=f"Synthetic incident {i:04d}",
            year=rng.randrange(_YEAR_RANGE[0], _YEAR_RANGE[1] + 1),
            targets=(),
            techniques=techniques,
        )
        for i, techniques in enumerate(technique_sets, start=1)
    )
    return Corpus(incidents, source=f"generated(seed={spec.seed})")
