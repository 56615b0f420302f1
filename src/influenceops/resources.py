"""Access to the data files bundled with the package.

They live in the package's ``data`` directory (shipped as ``data/*.json``),
whose path is computed once at import; the package is not zipped.
"""

from __future__ import annotations

from pathlib import Path

from .strategies import StrategyCatalog, load_strategy_catalog
from .taxonomy import Taxonomy, load_taxonomy

# Type checkers read any name TYPE_CHECKING as true. Not importing ``typing``
# (nor ``generate``) keeps the bundled-input loaders' import small: with this
# module, the package, ``taxonomy``, ``strategies``, ``documents`` and ``errors``.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .generate import GeneratorSpec


_DATA = Path(__file__).parent / "data"


def bundled_data_path(name: str) -> Path:
    """Filesystem path of a bundled data file."""
    return _DATA / name


def load_bundled_taxonomy() -> Taxonomy:
    return load_taxonomy(_DATA / "taxonomy.json")


def load_bundled_catalog(taxonomy: Taxonomy | None = None) -> StrategyCatalog:
    if taxonomy is None:
        taxonomy = load_bundled_taxonomy()
    return load_strategy_catalog(_DATA / "catalog.json", taxonomy)


def load_fixture_spec() -> GeneratorSpec:
    """Generator spec for the synthetic 81-incident reference corpus."""
    from .generate import load_generator_spec

    return load_generator_spec(_DATA / "fixture_spec.json")
