"""Taxonomy data model: phases, tactics, techniques.

A taxonomy is a three-level tree (phase -> tactic -> technique) loaded from
a versioned JSON document. The loader is the one place that checks a
document, so a `Taxonomy` obtained from `load_taxonomy` is always valid and
nothing re-checks it; `validate_taxonomy` also checks hand-built objects and
returns violations as data instead of raising. Instances are immutable and
safe for concurrent reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .documents import parse_json, read_text
from .errors import AmbiguousName, NotFound, SchemaError

PHASE_NAMES = ("Plan", "Prepare", "Execute", "Assess")

# Expected tactics per phase when a document declares the "table1" profile.
TABLE1_TACTIC_COUNTS = {"Plan": 3, "Prepare": 6, "Execute": 6, "Assess": 1}
TABLE1_PROFILE = "table1"


@dataclass(frozen=True)
class Phase:
    id: str
    name: str


@dataclass(frozen=True)
class Tactic:
    id: str
    name: str
    phase_id: str


@dataclass(frozen=True)
class Technique:
    id: str
    name: str
    tactic_id: str


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """List of rule violations; empty means the checked object is valid."""

    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(f"[{v.code}] {v.message}" for v in self.violations)


@dataclass(frozen=True)
class Taxonomy:
    version: str
    phases: tuple[Phase, ...]
    tactics: tuple[Tactic, ...]
    techniques: tuple[Technique, ...]
    profile: str | None = None
    provenance: str | None = None

    @cached_property
    def _phases_by_id(self) -> dict[str, Phase]:
        return {p.id: p for p in self.phases}

    @cached_property
    def _tactics_by_id(self) -> dict[str, Tactic]:
        return {t.id: t for t in self.tactics}

    @cached_property
    def _techniques_by_id(self) -> dict[str, Technique]:
        return {t.id: t for t in self.techniques}

    def phase(self, phase_id: str) -> Phase:
        try:
            return self._phases_by_id[phase_id]
        except KeyError:
            raise NotFound(f"unknown phase id {phase_id!r}") from None

    def tactic(self, tactic_id: str) -> Tactic:
        try:
            return self._tactics_by_id[tactic_id]
        except KeyError:
            raise NotFound(f"unknown tactic id {tactic_id!r}") from None

    def technique(self, technique_id: str) -> Technique:
        try:
            return self._techniques_by_id[technique_id]
        except KeyError:
            raise NotFound(f"unknown technique id {technique_id!r}") from None

    def has_technique(self, technique_id: str) -> bool:
        return technique_id in self._techniques_by_id

    def phase_of_technique(self, technique_id: str) -> Phase:
        tech = self.technique(technique_id)
        return self.phase(self.tactic(tech.tactic_id).phase_id)


def validate_taxonomy(taxonomy: Taxonomy) -> ValidationReport:
    """Check every structural invariant and report each violation.

    Pure function: violations are returned as data, never raised. An empty
    report means the taxonomy is valid. When the taxonomy declares the
    "table1" profile, the per-phase tactic counts are checked as well.
    """
    violations: list[Violation] = []

    def bad(code: str, message: str) -> None:
        violations.append(Violation(code, message))

    seen_phase_ids: set[str] = set()
    for phase in taxonomy.phases:
        if phase.id in seen_phase_ids:
            bad("duplicate-id", f"duplicate phase id {phase.id!r}")
        seen_phase_ids.add(phase.id)
        if phase.name not in PHASE_NAMES:
            bad("phase-name", f"phase {phase.id!r} has unknown name {phase.name!r}")

    if len(taxonomy.phases) != 4:
        bad("phase-count", f"expected 4 phases, found {len(taxonomy.phases)}")
    else:
        names = sorted(p.name for p in taxonomy.phases)
        if names != sorted(PHASE_NAMES):
            bad("phase-name", f"phase names {names} != {sorted(PHASE_NAMES)}")

    seen_tactic_ids: set[str] = set()
    for tactic in taxonomy.tactics:
        if tactic.id in seen_tactic_ids:
            bad("duplicate-id", f"duplicate tactic id {tactic.id!r}")
        seen_tactic_ids.add(tactic.id)
        if tactic.phase_id not in seen_phase_ids:
            bad(
                "orphan-tactic",
                f"tactic {tactic.id!r} references unknown phase {tactic.phase_id!r}",
            )

    seen_technique_ids: set[str] = set()
    names_in_tactic: set[tuple[str, str]] = set()
    for tech in taxonomy.techniques:
        if tech.id in seen_technique_ids:
            bad("duplicate-id", f"duplicate technique id {tech.id!r}")
        seen_technique_ids.add(tech.id)
        if tech.tactic_id not in seen_tactic_ids:
            bad(
                "orphan-technique",
                f"technique {tech.id!r} references unknown tactic {tech.tactic_id!r}",
            )
        name_key = (tech.tactic_id, tech.name.lower())
        if name_key in names_in_tactic:
            bad(
                "duplicate-name",
                f"technique name {tech.name!r} repeated within tactic {tech.tactic_id!r}",
            )
        names_in_tactic.add(name_key)

    if taxonomy.profile == TABLE1_PROFILE and not violations:
        expected_total = sum(TABLE1_TACTIC_COUNTS.values())
        if len(taxonomy.tactics) != expected_total:
            bad(
                "tactic-count",
                f"tactic count mismatch: profile {TABLE1_PROFILE!r} expects "
                f"{expected_total} tactics, found {len(taxonomy.tactics)}",
            )
        else:
            by_phase_name = {p.id: p.name for p in taxonomy.phases}
            for phase_name, expected in TABLE1_TACTIC_COUNTS.items():
                got = sum(
                    1 for t in taxonomy.tactics if by_phase_name[t.phase_id] == phase_name
                )
                if got != expected:
                    bad(
                        "tactic-count",
                        f"tactic count mismatch: phase {phase_name!r} expects "
                        f"{expected} tactics, found {got}",
                    )

    return ValidationReport(tuple(violations))


def _require(entry: dict, key: str, where: str) -> object:
    if key not in entry:
        raise SchemaError(f"{where}: missing required field {key!r}")
    return entry[key]


def _str_field(entry: dict, key: str, where: str) -> str:
    value = _require(entry, key, where)
    if not isinstance(value, str) or not value:
        raise SchemaError(f"{where}: field {key!r} must be a non-empty string")
    return value


def _entries(doc: dict, key: str, build) -> tuple:
    """The array ``doc[key]``, each entry an object built by ``build(entry, where)``."""
    built = []
    for i, entry in enumerate(doc[key]):
        where = f"{key}[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: must be an object")
        built.append(build(entry, where))
    return tuple(built)


def _phase(entry: dict, where: str) -> Phase:
    return Phase(_str_field(entry, "id", where), _str_field(entry, "name", where))


def _child(cls):
    """The builder of a tactic or technique entry, from its id, name and parent id."""
    return lambda e, w: cls(_str_field(e, "id", w), _str_field(e, "name", w), _str_field(e, "parent_id", w))


def loads_taxonomy(text: str) -> Taxonomy:
    """Parse a taxonomy JSON document and return a validated Taxonomy."""
    doc = parse_json(text, "taxonomy document")
    if not isinstance(doc, dict):
        raise SchemaError("taxonomy document must be a JSON object")

    version = _str_field(doc, "version", "taxonomy")
    for key in ("phases", "tactics", "techniques"):
        if not isinstance(_require(doc, key, "taxonomy"), list):
            raise SchemaError(f"taxonomy: field {key!r} must be an array")

    profile = doc.get("profile")
    if profile is not None and not isinstance(profile, str):
        raise SchemaError("taxonomy: field 'profile' must be a string")
    if profile not in (None, TABLE1_PROFILE):
        raise SchemaError(f"taxonomy: field 'profile' must be {TABLE1_PROFILE!r}, not {profile!r}")
    provenance = doc.get("provenance")
    if provenance is not None and not isinstance(provenance, str):
        raise SchemaError("taxonomy: field 'provenance' must be a string")

    taxonomy = Taxonomy(
        version=version,
        phases=_entries(doc, "phases", _phase),
        tactics=_entries(doc, "tactics", _child(Tactic)),
        techniques=_entries(doc, "techniques", _child(Technique)),
        profile=profile,
        provenance=provenance,
    )
    report = validate_taxonomy(taxonomy)
    if not report.ok:
        raise SchemaError(f"taxonomy document is invalid:\n{report}")
    return taxonomy


def load_taxonomy(path: str | Path) -> Taxonomy:
    return loads_taxonomy(read_text(path, "taxonomy file"))


def serialize_taxonomy(taxonomy: Taxonomy) -> str:
    """Render a taxonomy back to its JSON document form (round-trip safe)."""
    doc: dict = {"version": taxonomy.version}
    if taxonomy.profile is not None:
        doc["profile"] = taxonomy.profile
    if taxonomy.provenance is not None:
        doc["provenance"] = taxonomy.provenance
    doc["phases"] = [{"id": p.id, "name": p.name} for p in taxonomy.phases]
    doc["tactics"] = [
        {"id": t.id, "name": t.name, "parent_id": t.phase_id} for t in taxonomy.tactics
    ]
    doc["techniques"] = [
        {"id": t.id, "name": t.name, "parent_id": t.tactic_id} for t in taxonomy.techniques
    ]
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def lookup_technique(
    taxonomy: Taxonomy, key: str, tactic_id: str | None = None
) -> Technique:
    """Find a technique by id (byte-exact) or by case-insensitive exact name.

    Name matches may be narrowed with `tactic_id`; without it, a name shared
    by techniques under different tactics raises AmbiguousName.
    """
    if taxonomy.has_technique(key):
        return taxonomy.technique(key)

    wanted = key.lower()
    matches = [t for t in taxonomy.techniques if t.name.lower() == wanted]
    if tactic_id is not None:
        matches = [t for t in matches if t.tactic_id == tactic_id]
    if not matches:
        raise NotFound(f"no technique with id or name {key!r}")
    if len(matches) > 1:
        tactics = ", ".join(sorted(t.tactic_id for t in matches))
        raise AmbiguousName(
            f"technique name {key!r} is ambiguous across tactics: {tactics}"
        )
    return matches[0]
