"""Access to the data files bundled with the package.

They live in the package's ``data`` directory (shipped as ``data/*.json``),
whose path is computed once at import; the package is not zipped.
"""

from __future__ import annotations

from pathlib import Path

from .generate import GeneratorSpec, loads_generator_spec
from .strategies import StrategyCatalog, loads_strategy_catalog
from .taxonomy import Taxonomy, loads_taxonomy


_DATA = Path(__file__).parent / "data"


def _read(name: str) -> str:
    return (_DATA / name).read_text(encoding="utf-8")


def bundled_data_path(name: str) -> Path:
    """Filesystem path of a bundled data file."""
    return _DATA / name


def load_bundled_taxonomy() -> Taxonomy:
    return loads_taxonomy(_read("taxonomy.json"))


def load_bundled_catalog(taxonomy: Taxonomy | None = None) -> StrategyCatalog:
    if taxonomy is None:
        taxonomy = load_bundled_taxonomy()
    return loads_strategy_catalog(_read("catalog.json"), taxonomy)


def load_fixture_spec() -> GeneratorSpec:
    """Generator spec for the synthetic 81-incident reference corpus."""
    return loads_generator_spec(_read("fixture_spec.json"))
