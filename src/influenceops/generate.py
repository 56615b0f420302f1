"""Synthetic corpus generation from aggregate targets.

Two modes:

* ``exact-patterns``: the spec lists strategy-set patterns with exact
  incident counts; generation is direct construction.
* ``marginal-solver``: the spec gives per-strategy incident counts
  (marginals), a profile-size distribution, and optional pinned patterns
  with minimum counts. Once the pinned minimums are taken out, the rest is
  the bipartite degree-sequence problem. The Gale-Ryser test decides it, and
  when it holds Ryser's greedy builds a pattern -> count table meeting every
  target exactly, with no search; when it fails, ``InfeasibleSpec`` names
  the violated inequality.

Synthetic incidents carry only the execution techniques of their pattern's
strategies (minimal witnesses), so classifying the output recovers the
requested patterns; ``include_preparation`` adds each strategy's full
pipeline. Identical spec + seed produces a byte-identical corpus: the seed
drives only the greedy's tie-breaking and the synthetic metadata (ordering,
years). Work is per distinct pattern except for the layout: one shuffle of
the incidents and one year drawn per incident.

``_layout`` checks the spec and gives each incident's technique set and year.
``generate_corpus`` builds its Corpus from it; the ``generate`` command writes
the bytes of ``corpus_to_csv``/``corpus_to_json`` straight from it, building no
Incident (``_layout_csv``, ``_layout_json``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import CSV_HEADER, _JSON_INCIDENT, Corpus, Incident, _csv_field, _json_string_list
from .documents import parse_json, read_text
from .errors import InfeasibleSpec, SchemaError, ZeroIncidents
from .strategies import StrategyCatalog

EXACT_MODE = "exact-patterns"
SOLVER_MODE = "marginal-solver"

_YEAR_RANGE = (2014, 2024)
# Incident i, numbered from 1; neither needs CSV quoting or JSON escaping.
_ID = "SYN-%04d"
_TITLE = "Synthetic incident %04d"
# 12,500 times the reference corpus; a larger count is refused rather than
# left to exhaust memory.
MAX_INCIDENTS = 1_000_000


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


def _object_without_repeated_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError(f"generator spec: key {key!r} appears twice in one object")
            seen.add(key)
    return obj


def loads_generator_spec(text: str) -> GeneratorSpec:
    doc = parse_json(text, "generator spec", object_pairs_hook=_object_without_repeated_keys)
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
            # Canonical decimal only, so that no two keys name one size.
            if not (key.isascii() and key.isdigit()) or (key[0] == "0" and key != "0"):
                raise SchemaError(f"size_distribution: key {key!r} is not a size in canonical decimal")
            try:
                size = int(key)
            except ValueError:  # more digits than int() converts
                raise SchemaError(f"size_distribution: key {key!r} is too large") from None
            if size < 1:
                raise SchemaError(f"size_distribution: size {size} must be >= 1")
            size_distribution[size] = _non_negative_int(value, f"size_distribution[{key!r}]")

    include_preparation = doc.get("include_preparation", False)
    if not isinstance(include_preparation, bool):
        raise SchemaError("generator spec: 'include_preparation' must be true or false")
    if not isinstance(doc.get("notes", ""), str):
        raise SchemaError("generator spec: 'notes' must be a string")

    return GeneratorSpec(
        mode=mode,
        pattern_counts=_parse_pattern_entries(doc.get("pattern_counts", []), "count", "pattern_counts"),
        marginals=marginals,
        size_distribution=size_distribution,
        pinned_patterns=_parse_pattern_entries(doc.get("pinned_patterns", []), "min_count", "pinned_patterns"),
        unmapped_count=_non_negative_int(doc.get("unmapped_count", 0), "unmapped_count"),
        seed=_non_negative_int(doc.get("seed", 0), "seed"),
        include_preparation=include_preparation,
    )


def load_generator_spec(path: str | Path) -> GeneratorSpec:
    return loads_generator_spec(read_text(path, "generator spec file"))


def _canonical_pattern_key(catalog: StrategyCatalog):
    def key(pattern: frozenset[str]) -> tuple:
        return (-len(pattern), tuple(sorted(map(catalog.order_index, pattern))))

    return key


def _check_strategy_ids(spec: GeneratorSpec, catalog: StrategyCatalog) -> None:
    known = set(catalog.ids())
    referenced: set[str] = set(spec.marginals)
    for pattern in (*spec.pattern_counts, *spec.pinned_patterns):
        referenced |= pattern
    unknown = sorted(referenced - known)
    if unknown:
        raise SchemaError(f"generator spec references unknown strategy ids: {', '.join(unknown)}")


def _gale_ryser(residual: list[int], slots: dict[int, int]) -> None:
    """Raise InfeasibleSpec unless some 0-1 incidents x strategies matrix has
    ``slots[k]`` rows of sum k and column sums ``residual``.

    The sums agree (the handshake identity), so by Gale (1957) and Ryser (1957)
    such a matrix exists iff for every t the t largest residual marginals sum to
    at most sum over sizes of min(k, t) * count.
    """
    top = 0
    for t, r in enumerate(sorted(residual, reverse=True), start=1):
        top += r
        capacity = sum(min(k, t) * c for k, c in slots.items())
        if top > capacity:
            raise InfeasibleSpec(
                f"Gale-Ryser condition fails at t={t}: the {t} largest residual "
                f"marginals sum to {top} > {capacity} = sum over sizes of "
                f"min(k, {t})*count"
            )


def _class_takes(residual: list[int], k: int, c: int, order: list[int]) -> list[int]:
    """How many of c incidents of size k each strategy joins under Ryser's greedy.

    Giving each incident in turn the k strategies with the largest residual
    marginals lowers the largest marginals towards a common level: strategy j
    joins min(max(r_j - level, 0), c) incidents, for the largest level at
    which that totals at least k*c. The surplus is taken back one each from
    the strategies at the level, in ``order`` (the seeded tie-break). What
    is left is majorized by what any other filling of the class leaves, so
    the Gale-Ryser inequalities, which bound sums of the largest marginals,
    keep holding for the remaining classes.
    """
    def taken(level: int) -> int:
        return sum(min(max(r - level, 0), c) for r in residual)

    need = k * c
    low, high = min(residual) - c, max(residual)  # taken(low) = n*c >= need > 0 = taken(high)
    while high - low > 1:
        mid = (low + high) // 2
        if taken(mid) >= need:
            low = mid
        else:
            high = mid
    takes = [min(max(r - low - 1, 0), c) for r in residual]
    extra = need - sum(takes)
    for j in order:
        if extra and residual[j] - c <= low < residual[j]:
            takes[j] += 1
            extra -= 1
    return takes


def _class_patterns(takes: list[int], c: int, order: list[int]) -> list[tuple[list[int], int]]:
    """c incidents in which strategy j occurs takes[j] <= c times, as (members, count) runs.

    McNaughton's wrap-around rule: lay the strategies end to end, in
    ``order``, over the incidents taken cyclically. No strategy wraps onto an
    incident twice, every incident gets sum(takes) / c of them, and
    incidents between two arc ends are identical, so there are at most
    len(takes) runs.
    """
    arcs = []
    cuts = {0}
    start = 0
    for j in order:
        if takes[j]:
            arcs.append((j, start, takes[j]))
            start = (start + takes[j]) % c
            cuts.add(start)
    bounds = sorted(cuts)
    return [
        (sorted(j for j, first, length in arcs if (a - first) % c < length), b - a)
        for a, b in zip(bounds, bounds[1:] + [c])
    ]


def _solve_pattern_counts(
    spec: GeneratorSpec, catalog: StrategyCatalog, rng: random.Random
) -> dict[frozenset[str], int]:
    """A pattern -> count table meeting every target of a marginal-solver spec exactly.

    After the pinned minimums are taken out, what is left is the bipartite
    degree-sequence problem: incidents of given sizes against strategies of
    given residual marginals. The Gale-Ryser test decides it without search.
    When it holds, Ryser's greedy (each incident takes its most-loaded
    strategies) never fails; it runs over the size classes, largest first,
    a whole class at a time, with a seeded shuffle of the strategies per
    class for tie-breaking. The rng is not drawn from when every slot is
    pinned.
    """
    ids = catalog.ids()
    index = {s: i for i, s in enumerate(ids)}
    n = len(ids)

    residual = [spec.marginals.get(s, 0) for s in ids]
    slots: dict[int, int] = dict(spec.size_distribution)

    total_marginal = sum(residual)
    total_weighted = sum(k * c for k, c in slots.items())
    if total_marginal != total_weighted:
        raise InfeasibleSpec(
            "handshake identity violated: sum of marginals "
            f"({total_marginal}) != sum over sizes of k*count ({total_weighted})"
        )
    for k, c in slots.items():
        if k > n and c:
            raise InfeasibleSpec(f"size_distribution requests profiles of size {k} > {n} strategies")

    # Pinned patterns take their minimum counts out of the targets.
    counts: dict[frozenset[str], int] = {}
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
        if count:
            counts[pattern] = count

    incidents_left = sum(slots.values())
    for i, r in enumerate(residual):
        if r > incidents_left:
            raise InfeasibleSpec(
                f"marginal for strategy {ids[i]!r} exceeds the remaining "
                f"incident count ({r} > {incidents_left})"
            )
    _gale_ryser(residual, slots)

    for k in sorted(slots, reverse=True):
        c = slots[k]
        if not c:
            continue
        order = list(range(n))
        rng.shuffle(order)
        takes = _class_takes(residual, k, c, order)
        for j, taken in enumerate(takes):
            residual[j] -= taken
        for members, count in _class_patterns(takes, c, order):
            pattern = frozenset(ids[j] for j in members)
            counts[pattern] = counts.get(pattern, 0) + count
    return counts


def _layout(spec: GeneratorSpec, catalog: StrategyCatalog) -> list[tuple[frozenset[str], int]]:
    """Every check of the spec, then the technique set (one per pattern,
    shared) and year of each incident in output order, numbered from 1."""
    _check_strategy_ids(spec, catalog)

    # The spec file's rule, also for a seed set by the CLI or the library:
    # random.Random would seed -3 like 3.
    rng = random.Random(_non_negative_int(spec.seed, "seed"))
    if spec.mode == EXACT_MODE:
        counts = spec.pattern_counts
    else:
        counts = _solve_pattern_counts(spec, catalog, rng)

    total = sum(counts.values()) + spec.unmapped_count
    if total == 0:
        raise ZeroIncidents("generator spec describes zero incidents")
    if total > MAX_INCIDENTS:
        raise SchemaError(
            f"generator spec describes {total} incidents; at most {MAX_INCIDENTS} can be generated"
        )

    technique_sets: list[frozenset[str]] = []
    for pattern in sorted(counts, key=_canonical_pattern_key(catalog)):
        techniques: set[str] = set()
        for strategy_id in pattern:
            strategy = catalog.by_id(strategy_id)
            techniques.add(strategy.execution_technique)
            if spec.include_preparation:
                techniques |= strategy.preparation_techniques
        technique_sets += [frozenset(techniques)] * counts[pattern]
    technique_sets += [frozenset()] * spec.unmapped_count

    rng.shuffle(technique_sets)
    randrange = rng.randrange
    first_year, last_year = _YEAR_RANGE
    return [(techniques, randrange(first_year, last_year + 1)) for techniques in technique_sets]


def generate_corpus(spec: GeneratorSpec, catalog: StrategyCatalog | None = None) -> Corpus:
    """Build a synthetic corpus realizing the spec's targets.

    Pure function of the spec (including its seed): identical inputs yield an
    identical corpus, incident by incident.
    """
    if catalog is None:
        from .resources import load_bundled_catalog

        catalog = load_bundled_catalog()
    incidents = tuple(
        Incident(_ID % i, _TITLE % i, year, (), techniques)
        for i, (techniques, year) in enumerate(_layout(spec, catalog), start=1)
    )
    return Corpus(incidents, source=f"generated(seed={spec.seed})")


def _text(layout: list[tuple[frozenset[str], int]], head: str, row: str, sep: str, tail: str, render) -> str:
    """head, ``row % (i, i, year, render(techniques))`` for each incident i of a
    non-empty layout joined by ``sep``, then tail. Each distinct technique set
    is rendered once; rows are joined 4096 at a time, not listed all at once."""
    rendered = {t: render(t) for t in {t for t, _ in layout}}
    chunks = [
        sep.join([row % (i, i, year, rendered[t]) for i, (t, year) in enumerate(layout[k:k + 4096], k + 1)])
        for k in range(0, len(layout), 4096)
    ]
    chunks[0] = head + chunks[0]
    chunks[-1] += tail
    return sep.join(chunks)


def _layout_csv(layout: list[tuple[frozenset[str], int]]) -> str:
    """``corpus_to_csv`` of the layout's corpus, without building it. Ids,
    titles and years need no quoting; the incidents have no targets."""
    return _text(
        layout, ",".join(CSV_HEADER) + "\n", f"{_ID},{_TITLE},%d,,%s", "\n", "\n",
        lambda t: _csv_field("|".join(sorted(t))),
    )


def _layout_json(layout: list[tuple[frozenset[str], int]]) -> str:
    """``corpus_to_json`` of the layout's corpus, without building it. Ids and
    titles need no escaping; the incidents have no targets."""
    row = _JSON_INCIDENT % (f'"{_ID}"', f'"{_TITLE}"', "%d", _json_string_list(()), "%s")
    return _text(layout, "[\n", row, ",\n", "\n]\n", lambda t: _json_string_list(sorted(t)))
