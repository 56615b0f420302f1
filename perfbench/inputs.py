"""Seeded benchmark inputs and the ground truth behind them.

Nothing here imports influenceops. The strategy model below restates the
bundled catalog, so expectations computed from it are independent of the
code under test. Every input is a pure function of the seed: the same seed
writes byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

# (id, name, execution technique, preparation techniques), canonical order.
STRATEGIES = (
    ("NR", "Narrative Release", "T0115", ("X0001", "T0085", "T0086", "T0101")),
    ("NS", "Narrative Support", "T0118", ("T0003", "T0084")),
    ("NA", "Narrative Amplification", "T0120", ("T0015", "T0016")),
    ("CNR", "Counter-Narrative Reaction", "T0116", ("T0004", "T0023")),
    ("NM", "Narrative Manipulation", "T0114", ("T0022", "T0007", "T0098")),
    ("TD", "Target Degradation", "T0048", ("T0078",)),
    ("IP", "Information Pollution", "T0049", ("T0019", "T0090")),
)
ORDER = tuple(s[0] for s in STRATEGIES)
NAMES = {s[0]: s[1] for s in STRATEGIES}
EXECUTION = {s[0]: s[2] for s in STRATEGIES}
PREPARATION = {s[0]: s[3] for s in STRATEGIES}
TAXONOMY_VERSION = "2026.08"

# Taxonomy techniques that belong to no strategy pipeline.
OFF_CATALOG = ("T0117", "X0002", "X0003")

# The reference fixture: strategy marginals over its 80 mapped incidents,
# its profile-size distribution and its one unmapped incident.
FIXTURE_MARGINALS = {"NR": 78, "NS": 39, "NA": 34, "CNR": 26, "NM": 53, "TD": 24, "IP": 51}
FIXTURE_MAPPED = 80
FIXTURE_SIZES = {1: 6, 2: 11, 3: 14, 4: 24, 5: 15, 6: 6, 7: 4}
FIXTURE_UNMAPPED = 1

PREP_RATE = 0.4  # each own preparation technique of a present strategy
STRAY_PREP_RATE = 0.08  # one preparation technique of an absent strategy
OFF_CATALOG_RATE = 0.15
TARGETS = ("US", "EU", "UA", "TW", "FR", "DE", "IN", "BR", "MD", "GE")
TITLE_WORDS = ("Doppelgänger", "Spamouflage", "Ghostwriter", "Secondary Infektion", "Endless Mayfly")
YEARS = (2014, 2024)


@dataclass(frozen=True, slots=True)
class Incident:
    """One generated incident and the ids it carries, in file order."""

    incident_id: str
    title: str
    year: int
    targets: tuple[str, ...]
    techniques: tuple[str, ...]  # every id written, unknown ones included
    unknown: tuple[str, ...]  # ids absent from the taxonomy

    def known(self) -> frozenset[str]:
        return frozenset(t for t in self.techniques if t not in self.unknown)


def strategy_set(techniques: frozenset[str], strict_prep: bool = False) -> tuple[str, ...]:
    """Strategies of one incident in canonical order: the execution technique
    is present, and under strict_prep one of the strategy's preparations."""
    return tuple(
        sid
        for sid in ORDER
        if EXECUTION[sid] in techniques
        and (not strict_prep or any(p in techniques for p in PREPARATION[sid]))
    )


def evidence(techniques: frozenset[str], strict_prep: bool = False) -> dict[str, list[str]]:
    return {
        sid: [EXECUTION[sid], *sorted(p for p in PREPARATION[sid] if p in techniques)]
        for sid in strategy_set(techniques, strict_prep)
    }


def _all_strategy_sets() -> list[tuple[str, ...]]:
    return [
        tuple(sid for bit, sid in enumerate(ORDER) if mask >> bit & 1)
        for mask in range(1, 1 << len(ORDER))
    ]


def _draw_strategies(rng: random.Random) -> tuple[str, ...]:
    while True:
        chosen = tuple(
            sid for sid in ORDER if rng.random() * FIXTURE_MAPPED < FIXTURE_MARGINALS[sid]
        )
        if chosen:
            return chosen


def _title(rng: random.Random, n: int) -> str:
    word = rng.choice(TITLE_WORDS)
    return rng.choice(
        (f"Incident {n}", f'Operation "{word}", wave {n % 7}', f"{word} – phase {n % 5}")
    )


def make_incidents(
    seed: int, n: int, prefix: str, unknown_rate: float = 0.0, cover_all: bool = False
) -> list[Incident]:
    """n incidents whose strategy prevalence follows the fixture marginals.

    round(n/81) incidents are unmapped. With cover_all, each of the 127
    non-empty strategy sets occurs at least once. round(n*unknown_rate)
    incidents carry one technique id that is not in the taxonomy.
    """
    rng = random.Random(seed)
    unmapped = round(n * FIXTURE_UNMAPPED / (FIXTURE_MAPPED + FIXTURE_UNMAPPED))
    sets: list[tuple[str, ...]] = [()] * unmapped
    if cover_all:
        sets.extend(_all_strategy_sets())
    while len(sets) < n:
        sets.append(_draw_strategies(rng))
    rng.shuffle(sets)
    with_unknown = set(rng.sample(range(n), round(n * unknown_rate)))

    incidents = []
    for i, present in enumerate(sets):
        techniques = []
        for sid in ORDER:
            if sid in present:
                techniques.append(EXECUTION[sid])
                techniques.extend(p for p in PREPARATION[sid] if rng.random() < PREP_RATE)
            elif rng.random() < STRAY_PREP_RATE:
                techniques.append(rng.choice(PREPARATION[sid]))
        techniques.extend(t for t in OFF_CATALOG if rng.random() < OFF_CATALOG_RATE)
        unknown: tuple[str, ...] = ()
        if i in with_unknown:
            unknown = (f"T9{rng.randrange(1000):03d}",)
            techniques.append(unknown[0])
        rng.shuffle(techniques)
        targets = tuple(rng.sample(TARGETS, rng.randrange(4)))
        incidents.append(
            Incident(
                f"{prefix}-{i + 1:06d}",
                _title(rng, i + 1),
                rng.randint(*YEARS),
                targets,
                tuple(techniques),
                unknown,
            )
        )
    return incidents


def corpus_csv(incidents: list[Incident]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("incident_id", "title", "year", "targets", "techniques"))
    for inc in incidents:
        writer.writerow(
            (inc.incident_id, inc.title, inc.year, "|".join(inc.targets), "|".join(inc.techniques))
        )
    return out.getvalue()


def corpus_json(incidents: list[Incident]) -> str:
    doc = [
        {
            "incident_id": inc.incident_id,
            "title": inc.title,
            "year": inc.year,
            "targets": list(inc.targets),
            "techniques": list(inc.techniques),
        }
        for inc in incidents
    ]
    return json.dumps(doc, indent=1, ensure_ascii=False) + "\n"


def write_corpus(path: Path, incidents: list[Incident]) -> None:
    text = corpus_json(incidents) if path.suffix == ".json" else corpus_csv(incidents)
    path.write_text(text, encoding="utf-8", newline="")


def scaled_spec(scale: int, seed: int) -> dict:
    """Marginal-solver spec: the fixture's targets times scale, nothing pinned."""
    return {
        "mode": "marginal-solver",
        "seed": seed,
        "unmapped_count": FIXTURE_UNMAPPED * scale,
        "marginals": {sid: FIXTURE_MARGINALS[sid] * scale for sid in ORDER},
        "size_distribution": {str(k): v * scale for k, v in FIXTURE_SIZES.items()},
    }


def small_sizes(count: int, low: int = 20, high: int = 500) -> list[int]:
    """count corpus sizes spread geometrically from low to high."""
    return [round(low * (high / low) ** (i / (count - 1))) for i in range(count)]
