"""Byte-for-byte regression of CLI outputs against committed golden files.

`fixture_corpus.csv` is the bundled fixture spec's generated corpus and
`fixture_corpus.json` the same corpus as JSON; `prep_corpus.csv` is the same
corpus with some preparation techniques added, so that `--strict-prep` drops
some assignments and `--min-support 3` drops a source. `lenient_corpus.csv`
and `lenient_corpus.json` hold the same seven incidents with unknown technique
ids, one of them repeated in an incident. `escaped_ids.json` has incident ids
with non-ASCII text, quotes, backslashes and control characters. Each golden
file is the output of the argv listed beside it. `generate_exact_prep.*` is
generated from `exact_prep_spec.json`, an exact-patterns spec with
`include_preparation`; the bundled fixture spec generates `fixture_corpus.*`,
and with `--seed 8` it generates `generate_fixture_seed8.*`.
`generate_escaped_prep.*` is generated from `escaped_prep_spec.json` over
`escaped_taxonomy.json` and `escaped_catalog.json`, whose technique ids need
CSV quoting (commas, double quotes) and JSON escaping (non-ASCII text, double
quotes, backslashes). `generate_unpinned.*` is generated from
`unpinned_spec.json`, the fixture spec's targets times 3 with nothing pinned:
the one golden whose patterns the solver's seeded tie-break decides.
"""

from pathlib import Path

import pytest

from influenceops.cli import main
from influenceops.resources import bundled_data_path

GOLDEN = Path(__file__).parent / "golden"
# Relative to the tests directory: the stats report records the corpus path.
FIXTURE = "golden/fixture_corpus.csv"
FIXTURE_JSON = "golden/fixture_corpus.json"
PREP = "golden/prep_corpus.csv"
LENIENT = "golden/lenient_corpus"
ESCAPED = "golden/escaped_ids.json"
FIXTURE_SPEC = str(bundled_data_path("fixture_spec.json"))
EXACT_PREP_SPEC = "golden/exact_prep_spec.json"
UNPINNED_SPEC = "golden/unpinned_spec.json"
ESCAPED_PREP = [
    "--spec", "golden/escaped_prep_spec.json",
    "--taxonomy", "golden/escaped_taxonomy.json", "--catalog", "golden/escaped_catalog.json",
]

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
    "classify_json_corpus.json": ["classify", "--corpus", FIXTURE_JSON],
    "classify_pretty.txt": ["classify", "--corpus", FIXTURE, "--pretty"],
    **{
        f"classify_lenient_{fmt}{suffix}": ["classify", "--lenient", "--corpus", f"{LENIENT}.{fmt}", *flags]
        for fmt in ("csv", "json")
        for suffix, flags in ((".json", []), ("_pretty.txt", ["--pretty"]))
    },
    "classify_escaped_ids.json": ["classify", "--corpus", ESCAPED],
    "classify_escaped_ids_pretty.txt": ["classify", "--corpus", ESCAPED, "--pretty"],
    **{
        f"fixture_corpus.{fmt}": ["generate", "--spec", FIXTURE_SPEC, "--corpus-format", fmt]
        for fmt in ("csv", "json")
    },
    **{
        f"generate_exact_prep.{fmt}": ["generate", "--spec", EXACT_PREP_SPEC, "--corpus-format", fmt]
        for fmt in ("csv", "json")
    },
    **{
        f"generate_fixture_seed8.{fmt}": ["generate", "--spec", FIXTURE_SPEC, "--seed", "8", "--corpus-format", fmt]
        for fmt in ("csv", "json")
    },
    **{
        f"generate_unpinned.{fmt}": ["generate", "--spec", UNPINNED_SPEC, "--corpus-format", fmt]
        for fmt in ("csv", "json")
    },
    **{
        f"generate_escaped_prep.{fmt}": ["generate", *ESCAPED_PREP, "--corpus-format", fmt]
        for fmt in ("csv", "json")
    },
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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_seed_flag_equal_to_the_spec_seed_changes_no_byte(fmt, capsys, monkeypatch):
    """The fixture spec records seed 7, so --seed 7 writes fixture_corpus.*."""
    monkeypatch.chdir(GOLDEN.parent)
    assert main(["generate", "--spec", FIXTURE_SPEC, "--seed", "7", "--corpus-format", fmt]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / f"fixture_corpus.{fmt}").read_bytes()


def test_strict_prep_on_fixture_has_no_mapped_incident(capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN.parent)
    assert main(["stats", "--corpus", FIXTURE, "--strict-prep"]) == 1
    assert "EmptyCorpus" in capsys.readouterr().err


def test_commands_in_one_process_match_their_goldens(tmp_path, monkeypatch, capsys):
    """main() shares one parser across calls, and no flag or environment
    variable of one call leaks into the next."""
    from influenceops.cli import build_parser

    monkeypatch.chdir(GOLDEN.parent)
    monkeypatch.delenv("INFLUENCEOPS_TAXONOMY", raising=False)
    sequence = [
        "stats_strict_prep.json",
        "stats_pretty.txt",
        "classify_strict_prep_pretty.txt",
        "stats_lenient_json_corpus.json",
        "classify_lenient_json.json",
        "stats.json",
        "conditional_min3.json",
        "classify.json",
    ]
    for i, name in enumerate(sequence):
        out = tmp_path / f"{i}-{name}"
        assert main([*CASES[name], "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / name).read_bytes(), name
    assert build_parser() is build_parser()

    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    monkeypatch.setenv("INFLUENCEOPS_TAXONOMY", str(broken))
    capsys.readouterr()
    assert main(["validate"]) == 1
    assert "ParseError" in capsys.readouterr().err
    monkeypatch.delenv("INFLUENCEOPS_TAXONOMY")
    out = tmp_path / "again-stats.json"
    assert main([*CASES["stats.json"], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "stats.json").read_bytes()

