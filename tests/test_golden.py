"""Byte-for-byte regression of CLI outputs against committed golden files.

`fixture_corpus.csv` is the bundled fixture spec's generated corpus;
`prep_corpus.csv` is the same corpus with some preparation techniques added,
so that `--strict-prep` drops some assignments and `--min-support 3` drops a
source. Each golden file is the output of the argv listed beside it.
"""

from pathlib import Path

import pytest

from influenceops.cli import main

GOLDEN = Path(__file__).parent / "golden"
# Relative to the tests directory: the stats report records the corpus path.
FIXTURE = "golden/fixture_corpus.csv"
PREP = "golden/prep_corpus.csv"

CASES = {
    "stats.json": ["stats", "--corpus", FIXTURE],
    "stats_pretty.txt": ["stats", "--corpus", FIXTURE, "--pretty"],
    "stats_strict_prep.json": ["stats", "--corpus", PREP, "--strict-prep"],
    "stats_strict_prep_pretty.txt": ["stats", "--corpus", PREP, "--strict-prep", "--pretty"],
    "classify.json": ["classify", "--corpus", FIXTURE],
    "classify_strict_prep.json": ["classify", "--corpus", PREP, "--strict-prep"],
    "classify_strict_prep_pretty.txt": ["classify", "--corpus", PREP, "--strict-prep", "--pretty"],
    **{
        f"cooccurrence.{fmt}": ["graph", "--corpus", FIXTURE, "--kind", "cooccurrence", "--format", fmt]
        for fmt in ("dot", "graphml", "json")
    },
    **{
        f"conditional_min{support}.{fmt}": [
            "graph", "--corpus", FIXTURE, "--kind", "conditional", "--format", fmt,
            "--min-support", str(support),
        ]
        for fmt in ("dot", "graphml", "json")
        for support in (1, 3)
    },
    **{
        f"conditional_strict_prep_min3.{fmt}": [
            "graph", "--corpus", PREP, "--strict-prep", "--kind", "conditional", "--format", fmt,
            "--min-support", "3",
        ]
        for fmt in ("dot", "graphml", "json")
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_bytes(name, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN.parent)
    out = tmp_path / name
    assert main([*CASES[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_strict_prep_on_fixture_has_no_mapped_incident(capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN.parent)
    assert main(["stats", "--corpus", FIXTURE, "--strict-prep"]) == 1
    assert "EmptyCorpus" in capsys.readouterr().err
