"""Byte-for-byte regression of CLI outputs against committed golden files.

`fixture_corpus.csv` is the bundled fixture spec's generated corpus and
`fixture_corpus.json` the same corpus as JSON; `prep_corpus.csv` is the same
corpus with some preparation techniques added, so that `--strict-prep` drops
some assignments and `--min-support 3` drops a source. `lenient_corpus.csv`
and `lenient_corpus.json` hold the same seven incidents with unknown technique
ids, one of them repeated in an incident. Each golden file is the output of
the argv listed beside it.
"""

from pathlib import Path

import pytest

from influenceops.cli import main

GOLDEN = Path(__file__).parent / "golden"
# Relative to the tests directory: the stats report records the corpus path.
FIXTURE = "golden/fixture_corpus.csv"
FIXTURE_JSON = "golden/fixture_corpus.json"
PREP = "golden/prep_corpus.csv"
LENIENT = "golden/lenient_corpus"

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
    "stats_json_corpus.json": ["stats", "--corpus", FIXTURE_JSON],
    "stats_json_corpus_pretty.txt": ["stats", "--corpus", FIXTURE_JSON, "--pretty"],
    **{
        f"{kind}_json_corpus.{fmt}": ["graph", "--corpus", FIXTURE_JSON, "--kind", kind, "--format", fmt]
        for kind in ("cooccurrence", "conditional")
        for fmt in ("dot", "graphml", "json")
    },
    "stats_lenient_json_corpus.json": ["stats", "--lenient", "--corpus", f"{LENIENT}.json"],
}

# Commands that print to stdout rather than through --out.
STDOUT_CASES = {
    f"validate_lenient_{fmt}.txt": ["validate", "--lenient", "--corpus", f"{LENIENT}.{fmt}"]
    for fmt in ("csv", "json")
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_bytes(name, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN.parent)
    out = tmp_path / name
    assert main([*CASES[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(STDOUT_CASES))
def test_stdout_matches_golden_bytes(name, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN.parent)
    assert main(STDOUT_CASES[name]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / name).read_bytes()


def test_strict_prep_on_fixture_has_no_mapped_incident(capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN.parent)
    assert main(["stats", "--corpus", FIXTURE, "--strict-prep"]) == 1
    assert "EmptyCorpus" in capsys.readouterr().err
