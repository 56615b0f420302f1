"""Synthetic corpus generation from aggregate targets.

Two modes:

* ``exact-patterns``: the spec lists strategy-set patterns with exact
  incident counts; generation is direct construction.
* ``marginal-solver``: the spec gives per-strategy incident counts
  (marginals), a profile-size distribution, and optional pinned patterns
  with minimum counts. Once the pinned minimums are taken out, the rest is
  the bipartite degree-sequence problem. The Gale-Ryser test decides it, and
  when it holds Ryser's greedy builds a mask -> count table meeting every
  target exactly, with no search; when it fails, ``InfeasibleSpec`` names
  the violated inequality.

Past the spec parser a pattern is a strategy mask; mask 0 is unmapped. The
incidents of mask m carry the techniques whose ``catalog.technique_bits``
meet m, its strategies' execution techniques (minimal witnesses), or meet
``m | m << n`` under ``include_preparation``, adding their preparation
techniques, but no technique that also executes a strategy outside m. That
inverts ``strategies.strategy_mask``: under the default rule, classifying
the output gives back the masks for any catalog, also a hand-built one where
a strategy prepares with another's execution technique. Where two strategies
share an execution technique, neither can occur without the other, and a
pattern holding one alone is refused with ``InfeasibleSpec``. Identical spec +
seed produces a byte-identical corpus, and no error depends on the hash
seed: the seed drives only the greedy's tie-breaking and the synthetic
metadata (ordering, years). Work is per distinct mask except for the layout:
one shuffle of the incidents and one year drawn per incident. The draws are
random.py's (``Random.shuffle`` and ``Random.randrange``), inlined over
``getrandbits`` in ``_shuffle`` and ``_randranges``. The shuffle is one step
of a Python loop per incident; the years take no Python-level step per
incident, because they are read a byte each from whole generator words, in
the order in which CPython's ``getrandbits`` packs the words.
``test_inlined_draws_are_the_draws_of_random_py``, run on each supported
Python, holds both to ``random.Random``, results and generator state.

``_layout`` checks the spec and gives the incidents' technique sets and year
offsets as two sequences (``_Layout``), with no object made per incident.
``generate_corpus`` builds its Corpus from it; the ``generate`` command writes
the bytes of ``corpus_to_csv``/``corpus_to_json`` straight from it, building no
Incident (``_layout_csv``, ``_layout_json``): a JSON row fills a ``json_block``
template, and the rows are rendered in chunks of ``render.CHUNK_ROWS`` as the
command writes them, so the text is never held whole.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import partial
from itertools import count, islice
from pathlib import Path

from .corpus import CSV_HEADER, Corpus, Incident, _csv_field
from .documents import natural, objects, parse_object, read_text, require, strings, typed
from .errors import InfeasibleSpec, SchemaError, ZeroIncidents
from .render import SLOT, chunked, json_block
from .strategies import StrategyCatalog, pattern_order

EXACT_MODE = "exact-patterns"
SOLVER_MODE = "marginal-solver"

_YEAR_RANGE = (2014, 2024)
# Incident i, numbered from 1; neither needs CSV quoting or JSON escaping.
_ID = "SYN-%04d"
_TITLE = "Synthetic incident %04d"
_JSON_ROW = json_block({"incident_id": _ID, "title": _TITLE, "year": SLOT, "targets": [], "techniques": SLOT}, 1)
_JSON_HEAD, _JSON_SEP, _JSON_TAIL = json_block([SLOT, SLOT], 0).split(SLOT)
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


def _patterns(doc: dict, key: str, count_key: str) -> dict[frozenset[str], int]:
    """The spec's array of pattern objects ``key``, as pattern -> count: a
    pattern names at least one strategy, none twice, and no two entries name
    one pattern."""
    seen: set[frozenset[str]] = set()

    def entry(e: dict, where: str) -> tuple[frozenset[str], int]:
        ids = strings(e, "strategies", where)
        if not ids:
            raise SchemaError(f"{where}: field 'strategies' must not be empty")
        pattern = frozenset(ids)
        if len(pattern) != len(ids):
            raise SchemaError(f"{where}: repeated strategy id in pattern {sorted(ids)}")
        count = natural(require(e, count_key, where), count_key, where)
        if pattern in seen:
            raise SchemaError(f"{where}: duplicate pattern {sorted(ids)}")
        seen.add(pattern)
        return pattern, count

    return dict(objects(doc, key, "generator spec", entry, ()))


def loads_generator_spec(text: str) -> GeneratorSpec:
    return _spec(parse_object(text, "generator spec"))


def _spec(doc: dict) -> GeneratorSpec:
    """The spec that the parsed spec document ``doc`` states: every rule of a
    spec, in one wording, whether it came from a file or was made in code
    (``_document``)."""
    mode = typed(doc, "mode", "generator spec", str)
    if mode not in (EXACT_MODE, SOLVER_MODE):
        raise SchemaError(f"generator spec: field 'mode' must be {EXACT_MODE!r} or {SOLVER_MODE!r}, not {mode!r}")

    marginals = {
        name: natural(value, name, "marginals")
        for name, value in typed(doc, "marginals", "generator spec", dict, {}).items()
    }
    size_distribution: dict[int, int] = {}
    for key, value in typed(doc, "size_distribution", "generator spec", dict, {}).items():
        # Canonical decimal only, so that no two keys name one size.
        if not (key.isascii() and key.isdigit()) or (key[0] == "0" and key != "0"):
            raise SchemaError(f"size_distribution: key {key!r} is not a size in canonical decimal")
        try:
            size = int(key)
        except ValueError:  # more digits than int() converts
            raise SchemaError(f"size_distribution: key {key!r} is too large") from None
        if size < 1:
            raise SchemaError(f"size_distribution: size {size} must be >= 1")
        size_distribution[size] = natural(value, key, "size_distribution")

    include_preparation = typed(doc, "include_preparation", "generator spec", bool, False)
    typed(doc, "notes", "generator spec", str, "")

    return GeneratorSpec(
        mode=mode,
        pattern_counts=_patterns(doc, "pattern_counts", "count"),
        marginals=marginals,
        size_distribution=size_distribution,
        pinned_patterns=_patterns(doc, "pinned_patterns", "min_count"),
        unmapped_count=natural(doc.get("unmapped_count", 0), "unmapped_count", "generator spec"),
        seed=natural(doc.get("seed", 0), "seed", "generator spec"),
        include_preparation=include_preparation,
    )


def _document(spec: GeneratorSpec) -> dict:
    """``spec`` as the document that ``_spec`` reads, so that a spec made in code
    meets a spec file's rules in its words. A table that is not a dict, a
    pattern that is not a frozenset and a size that is not an int are each
    written as its repr, which the loader refuses."""
    def table(value, write):
        return write(value.items()) if isinstance(value, dict) else repr(value)

    def patterns(key: str):
        return lambda items: [{"strategies": list(p) if isinstance(p, frozenset) else repr(p), key: c}
                              for p, c in items]

    return {"mode": spec.mode, "seed": spec.seed, "unmapped_count": spec.unmapped_count,
            "include_preparation": spec.include_preparation,
            "marginals": table(spec.marginals, lambda items: {str(name): c for name, c in items}),
            "size_distribution": table(spec.size_distribution,
                                       lambda items: {str(k) if type(k) is int else repr(k): c for k, c in items}),
            "pattern_counts": table(spec.pattern_counts, patterns("count")),
            "pinned_patterns": table(spec.pinned_patterns, patterns("min_count"))}


def load_generator_spec(path: str | Path) -> GeneratorSpec:
    return loads_generator_spec(read_text(path, "generator spec file"))


def _largest_first(mask: int) -> tuple:
    """Strategy masks by size descending, then in the canonical pattern order."""
    return -mask.bit_count(), pattern_order(mask)


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

    The level comes from one sweep down the 2n breakpoints, so the cost per
    class is one sort of 2n pairs, whatever c is: the total taken at a level,
    sum(min(max(r_j - level, 0), c)), is piecewise linear in the level, and
    its slope steps up by one at each r_j and down by one at each r_j - c.
    """
    need = k * c
    # Walk down from max(residual), adding slope * (level - at) per segment,
    # until a segment reaches need; the last breakpoint, min(residual) - c,
    # has n*c >= need taken, so one does.
    events = sorted([(r, 1) for r in residual] + [(r - c, -1) for r in residual], reverse=True)
    level, total, slope = events[0][0], 0, 0
    for at, step in events:
        gained = total + slope * (level - at)
        if gained >= need:
            break
        level, total, slope = at, gained, slope + step
    # The largest level at which at least need is taken: level less the
    # ceiling of (need - total) / slope, written as a floor division.
    low = level + (total - need) // slope
    takes = [min(max(r - low - 1, 0), c) for r in residual]
    extra = need - sum(takes)
    for j in order:
        if extra and residual[j] - c <= low < residual[j]:
            takes[j] += 1
            extra -= 1
    return takes


def _class_patterns(takes: list[int], c: int, order: list[int]) -> list[tuple[int, int]]:
    """c incidents in which strategy j occurs takes[j] <= c times, as (mask, count) runs.

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
        (sum(1 << j for j, first, length in arcs if (a - first) % c < length), b - a)
        for a, b in zip(bounds, bounds[1:] + [c])
    ]


def _shuffle(items: list, getrandbits) -> None:
    """``random.Random.shuffle(items)`` for the Random whose ``getrandbits``
    this is, drawing the same bits: Durstenfeld's (1964) Fisher-Yates with
    random.py's ``_randbelow_with_getrandbits`` inlined. Position i swaps
    with a draw of (i + 1).bit_length() bits, redrawn while it exceeds i."""
    top = len(items) - 1
    while top > 0:
        bits = (top + 1).bit_length()
        bottom = (1 << (bits - 1)) - 1  # the least i with (i + 1).bit_length() == bits
        for i in range(top, bottom - 1, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            items[i], items[j] = items[j], items[i]
        top = bottom - 1


def _randranges(getrandbits, width: int, count: int) -> Iterable[int]:
    """``random.Random.randrange(width)`` drawn count times, for the Random
    whose ``getrandbits`` this is and width >= 1, drawing the same bits:
    random.py draws k = width.bit_length() bits until a draw falls below
    width.

    A k-bit draw is the top k bits of one 32-bit generator word. Below width
    256 (k <= 8), each round draws the count - len(out) words still needed
    with one ``getrandbits`` call, which CPython fills from its least
    significant word up, so the words' top bytes, in draw order, are every
    fourth byte of its little-endian bytes. One ``bytes.translate`` drops
    the bytes of rejected draws and shifts the rest down to k bits. A round
    accepts at most one number per word, so no round draws a word that the
    one-at-a-time loop would not. The word order is CPython's, and
    ``test_inlined_draws_are_the_draws_of_random_py``, run on each Python
    that CI runs (3.10-3.13), is what holds it.
    Wider widths are one chain of C-level iterators, which stops after the
    last accepted draw."""
    k = width.bit_length()
    if k > 8:
        # getrandbits never returns the sentinel -1, so the draws never end.
        return islice(filter(width.__gt__, iter(partial(getrandbits, k), -1)), count)
    shift = 8 - k
    table = bytes(b >> shift for b in range(256))
    rejected = bytes(range(width << shift, 256))
    out = bytearray()
    while len(out) < count:
        need = count - len(out)
        out += getrandbits(32 * need).to_bytes(4 * need, "little")[3::4].translate(table, rejected)
    return out


def _solve_pattern_counts(
    spec: GeneratorSpec, pinned: dict[int, int], catalog: StrategyCatalog, rng: random.Random
) -> Counter[int]:
    """A strategy mask -> count table meeting every target of a marginal-solver
    spec exactly, with ``pinned`` the spec's pinned minimums by mask.

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
    counts = Counter(pinned)
    for mask in sorted(pinned, key=_largest_first):
        count = pinned[mask]
        size = mask.bit_count()
        slots[size] = slots.get(size, 0) - count
        if slots[size] < 0:
            raise InfeasibleSpec(
                f"pinned patterns need {-slots[size]} more incidents of size {size} "
                "than the size distribution provides"
            )
        for j in range(n):
            if mask >> j & 1:
                residual[j] -= count
                if residual[j] < 0:
                    raise InfeasibleSpec(
                        f"pinned patterns consume more of strategy {ids[j]!r} than its marginal allows"
                    )

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
        _shuffle(order, rng.getrandbits)
        takes = _class_takes(residual, k, c, order)
        for j, taken in enumerate(takes):
            residual[j] -= taken
        for mask, count in _class_patterns(takes, c, order):
            counts[mask] += count
    return counts


@dataclass(frozen=True)
class _Layout:
    """The incidents in output order, numbered from 1: incident i has
    technique set ``technique_sets[i - 1]`` (one per strategy mask, shared)
    and year ``_YEAR_RANGE[0] + year_offsets[i - 1]``. Its len() is the
    incident count."""
    technique_sets: list[frozenset[str]]
    year_offsets: bytearray  # _randranges of a width below 256

    def __len__(self) -> int:
        return len(self.technique_sets)

    def rows(self) -> Iterator[tuple[int, frozenset[str], int]]:
        """(i, technique set, year offset) per incident, made as it is read."""
        return zip(count(1), self.technique_sets, self.year_offsets)


def _layout(spec: GeneratorSpec, catalog: StrategyCatalog) -> _Layout:
    """Every check of the spec, then the layout of its incidents.

    The seeded draws are those of ``rng.shuffle(technique_sets)`` and of
    ``rng.randrange(2014, 2025)`` per incident, inlined (``_shuffle``,
    ``_randranges``) and held to ``random.Random`` by a named test. No
    Python code runs per incident outside the shuffle, and no object is
    made per incident: the sets are shared and the year offsets are bytes."""
    spec = _spec(_document(spec))
    _check_strategy_ids(spec, catalog)
    exact = spec.mode == EXACT_MODE
    patterns = spec.pattern_counts if exact else spec.pinned_patterns
    counts = Counter({catalog.mask_of(pattern): count for pattern, count in patterns.items()})

    rng = random.Random(spec.seed)
    if not exact:
        counts = _solve_pattern_counts(spec, counts, catalog, rng)
    # Mask 0 is the unmapped incidents.
    counts[0] += spec.unmapped_count

    total = sum(counts.values())
    if total == 0:
        raise ZeroIncidents("generator spec describes zero incidents")
    if total > MAX_INCIDENTS:
        raise SchemaError(
            f"generator spec describes {total} incidents; at most {MAX_INCIDENTS} can be generated"
        )

    n, bits = len(catalog.strategies), catalog.technique_bits.items()
    technique_sets: list[frozenset[str]] = []
    for mask in sorted(counts, key=_largest_first):
        # Bit i is strategy i's execution technique, bit n + i its preparation techniques.
        wanted = mask | mask << n if spec.include_preparation else mask
        # A technique that also executes a strategy outside the mask would add it.
        outside = (1 << n) - 1 & ~mask
        techniques = [(t, b) for t, b in bits if b & wanted and not b & outside]
        # A strategy whose execution technique executes one outside the mask
        # too cannot be given without it.
        missing = mask
        for _, b in techniques:
            missing &= ~b
        if missing and counts[mask]:
            raise InfeasibleSpec(
                f"pattern {list(catalog.ids_of_mask(mask))} cannot be generated: the execution technique of "
                f"{', '.join(catalog.ids_of_mask(missing))} also executes a strategy outside the pattern"
            )
        technique_sets += [frozenset(t for t, _ in techniques)] * counts[mask]

    _shuffle(technique_sets, rng.getrandbits)
    first_year, last_year = _YEAR_RANGE
    # randrange(first_year, last_year + 1) is first_year + randrange(width).
    offsets = _randranges(rng.getrandbits, last_year + 1 - first_year, len(technique_sets))
    return _Layout(technique_sets, offsets)


def generate_corpus(spec: GeneratorSpec, catalog: StrategyCatalog | None = None) -> Corpus:
    """Build a synthetic corpus realizing the spec's targets.

    Pure function of the spec (including its seed): identical inputs yield an
    identical corpus, incident by incident.
    """
    if catalog is None:
        from .resources import load_bundled_catalog

        catalog = load_bundled_catalog()
    first_year = _YEAR_RANGE[0]
    incidents = tuple(
        Incident(_ID % i, _TITLE % i, first_year + offset, (), techniques)
        for i, techniques, offset in _layout(spec, catalog).rows()
    )
    return Corpus(incidents, source=f"generated(seed={spec.seed})")


def _text(layout: _Layout, row: str, render, head: str, sep: str, tail: str, empty: str) -> Iterator[str]:
    """The document of ``row % (i, i, str(year), render(techniques))`` for
    each incident i of the layout, laid out by ``render.chunked``, so that one
    chunk of rows is held at a time. Each year and each distinct technique set
    is rendered once."""
    rendered = {t: render(t) for t in set(layout.technique_sets)}
    first_year, last_year = _YEAR_RANGE
    years = tuple(map(str, range(first_year, last_year + 1)))
    rows = (row % (i, i, years[offset], rendered[t]) for i, t, offset in layout.rows())
    return chunked(rows, head, sep, tail, empty)


def _layout_csv(layout: _Layout) -> Iterator[str]:
    """``corpus_to_csv`` of the layout's corpus in chunks, without building it.
    Ids, titles and years need no quoting; the incidents have no targets."""
    header = ",".join(CSV_HEADER) + "\n"
    return _text(layout, f"{_ID},{_TITLE},%s,,%s", lambda t: _csv_field("|".join(sorted(t))),
                 header, "\n", "\n", header)


def _layout_json(layout: _Layout) -> Iterator[str]:
    """``corpus_to_json`` of the layout's corpus in chunks, without building it.
    Ids and titles need no escaping; the incidents have no targets."""
    return _text(layout, _JSON_ROW, lambda t: json_block(sorted(t), 2),
                 _JSON_HEAD, _JSON_SEP, _JSON_TAIL + "\n", "[]\n")
