import json

import pytest

from influenceops.cli import main
from influenceops.resources import bundled_data_path

from helpers import corpus_from_profiles
from influenceops import corpus_to_csv

FIXTURE_SPEC = str(bundled_data_path("fixture_spec.json"))


@pytest.fixture(scope="module")
def fixture_corpus_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "fixture.csv"
    rc = main(["generate", "--spec", FIXTURE_SPEC, "--out", str(path)])
    assert rc == 0
    return str(path)


@pytest.fixture()
def hand_corpus_csv(tmp_path, catalog):
    corpus = corpus_from_profiles(
        catalog, [("NR",), ("NR", "IP"), ("NM",), ("NR", "NM", "IP")]
    )
    path = tmp_path / "hand.csv"
    path.write_text(corpus_to_csv(corpus), encoding="utf-8")
    return str(path)


# --- validate ---------------------------------------------------------------


def test_validate_bundled_inputs(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "taxonomy: ok" in out
    assert "catalog: ok" in out


def test_validate_with_corpus(fixture_corpus_csv, capsys):
    assert main(["validate", "--corpus", fixture_corpus_csv]) == 0
    assert "corpus: ok (81 incidents)" in capsys.readouterr().out


def test_validate_shared_technique_catalog(tmp_path, capsys):
    doc = json.loads(bundled_data_path("catalog.json").read_text(encoding="utf-8"))
    ns = next(s for s in doc["strategies"] if s["id"] == "NS")
    ns["execution_technique"] = "T0115"
    path = tmp_path / "broken_catalog.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", "--catalog", str(path)]) == 1
    err = capsys.readouterr().err
    assert "DisjointnessViolation" in err


def test_missing_file_is_io_failure(capsys):
    assert main(["validate", "--corpus", "/nonexistent/corpus.csv"]) == 2
    assert "I/O error" in capsys.readouterr().err


# --- stats ------------------------------------------------------------------


def test_stats_fixture_report(fixture_corpus_csv, tmp_path):
    out = tmp_path / "report.json"
    assert main(["stats", "--corpus", fixture_corpus_csv, "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    top = report["prevalence"]["strategies"][0]
    assert top["id"] == "NR"
    assert top["share"]["percent"] == "97.5"
    assert report["coverage"]["mapped"] == 80
    assert report["size_distribution"]["multi_share"]["percent"] == "92.5"
    assert report["patterns"]["distinct"] == 30
    assert report["tool"]["name"] == "influenceops"
    assert report["config"]["ingest_mode"] == "strict"


def test_stats_hand_corpus_matches_hand_enumeration(hand_corpus_csv, capsys):
    assert main(["stats", "--corpus", hand_corpus_csv]) == 0
    report = json.loads(capsys.readouterr().out)
    shares = {row["id"]: row for row in report["prevalence"]["strategies"]}
    assert shares["NR"]["count"] == 3
    assert shares["NR"]["share"]["percent"] == "75.0"
    assert shares["IP"]["count"] == 2
    assert shares["NM"]["count"] == 2
    assert report["size_distribution"]["counts"] == {"1": 2, "2": 1, "3": 1}


def test_stats_empty_corpus_fails_domain(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("incident_id,title,year,targets,techniques\n", encoding="utf-8")
    assert main(["stats", "--corpus", str(path)]) == 1
    assert "EmptyCorpus" in capsys.readouterr().err


def test_stats_pretty_renders_tables(fixture_corpus_csv, capsys):
    assert main(["stats", "--corpus", fixture_corpus_csv, "--pretty"]) == 0
    out = capsys.readouterr().out
    assert "Narrative Release" in out
    assert "97.5" in out
    assert "92.5" in out


def test_stats_is_byte_deterministic(fixture_corpus_csv, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["stats", "--corpus", fixture_corpus_csv, "--out", str(a)]) == 0
    assert main(["stats", "--corpus", fixture_corpus_csv, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# --- classify ----------------------------------------------------------------


def test_classify_outputs_profiles(hand_corpus_csv, capsys):
    assert main(["classify", "--corpus", hand_corpus_csv]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["strategies"] == ["NR"]
    assert doc[1]["strategies"] == ["NR", "IP"]
    assert doc[3]["strategies"] == ["NR", "NM", "IP"]
    assert doc[0]["evidence"]["NR"] == ["T0115"]


def test_classify_strict_prep_empties_bare_profiles(hand_corpus_csv, capsys):
    assert main(["classify", "--corpus", hand_corpus_csv, "--strict-prep"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(entry["strategies"] == [] for entry in doc)


def test_lenient_ingestion_flag(tmp_path, capsys):
    path = tmp_path / "typo.csv"
    path.write_text(
        "incident_id,title,year,targets,techniques\n"
        "INC-1,x,2020,,T0115|T0115;typo\n",
        encoding="utf-8",
    )
    assert main(["classify", "--corpus", str(path)]) == 1
    assert "UnknownTechnique" in capsys.readouterr().err
    assert main(["classify", "--corpus", str(path), "--lenient"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["strategies"] == ["NR"]


# --- graph --------------------------------------------------------------------


def test_graph_dot_output(hand_corpus_csv, capsys):
    assert main(["graph", "--kind", "cooccurrence", "--corpus", hand_corpus_csv]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph cooccurrence {")


def test_graph_conditional_json(hand_corpus_csv, capsys):
    assert (
        main(["graph", "--kind", "conditional", "--format", "json", "--corpus", hand_corpus_csv])
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    edge = next(e for e in doc["edges"] if e["source"] == "NR" and e["target"] == "IP")
    assert (edge["probability"]["numerator"], edge["probability"]["denominator"]) == (2, 3)


def test_graph_unknown_format(hand_corpus_csv, capsys):
    assert (
        main(["graph", "--kind", "cooccurrence", "--format", "png", "--corpus", hand_corpus_csv])
        == 1
    )
    assert "UnknownFormat" in capsys.readouterr().err


def test_graph_byte_deterministic(fixture_corpus_csv, tmp_path):
    for kind in ("cooccurrence", "conditional"):
        for fmt in ("dot", "graphml", "json"):
            a, b = tmp_path / "a.txt", tmp_path / "b.txt"
            for path in (a, b):
                rc = main(
                    ["graph", "--kind", kind, "--format", fmt,
                     "--corpus", fixture_corpus_csv, "--out", str(path)]
                )
                assert rc == 0
            assert a.read_bytes() == b.read_bytes()


# --- generate -----------------------------------------------------------------


def test_generate_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["generate", "--spec", FIXTURE_SPEC, "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_seed_override_changes_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["generate", "--spec", FIXTURE_SPEC, "--out", str(a)]) == 0
    assert main(["generate", "--spec", FIXTURE_SPEC, "--seed", "99", "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_generate_json_output(tmp_path):
    out = tmp_path / "c.json"
    assert main(
        ["generate", "--spec", FIXTURE_SPEC, "--corpus-format", "json", "--out", str(out)]
    ) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert len(doc) == 81


def test_generate_infeasible_spec(tmp_path, capsys):
    spec = {
        "mode": "marginal-solver",
        "marginals": {"NR": 3},
        "size_distribution": {"1": 2},
        "seed": 1,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["generate", "--spec", str(path)]) == 1
    err = capsys.readouterr().err
    assert "InfeasibleSpec" in err and "handshake" in err


def test_generate_exact_spec_feeds_through_stats(tmp_path, capsys):
    spec = {
        "mode": "exact-patterns",
        "seed": 5,
        "pattern_counts": [
            {"strategies": ["NR"], "count": 2},
            {"strategies": ["IP", "NR"], "count": 3},
        ],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    corpus_path = tmp_path / "c.csv"
    assert main(["generate", "--spec", str(spec_path), "--out", str(corpus_path)]) == 0
    assert main(["stats", "--corpus", str(corpus_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    rows = {tuple(r["strategies"]): r["exact"] for r in report["patterns"]["rows"]}
    assert rows == {("NR",): 2, ("NR", "IP"): 3}


# --- environment overrides ------------------------------------------------------


def test_env_var_taxonomy_override(tmp_path, monkeypatch, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    monkeypatch.setenv("INFLUENCEOPS_TAXONOMY", str(broken))
    assert main(["validate"]) == 1
    assert "ParseError" in capsys.readouterr().err


def test_explicit_flag_beats_env_var(monkeypatch):
    monkeypatch.setenv("INFLUENCEOPS_TAXONOMY", "/nonexistent.json")
    taxonomy_path = str(bundled_data_path("taxonomy.json"))
    assert main(["validate", "--taxonomy", taxonomy_path]) == 0


def test_generate_rejects_a_negative_seed_like_the_spec(tmp_path, capsys):
    out = tmp_path / "neg.csv"
    assert main(["generate", "--spec", FIXTURE_SPEC, "--seed", "-3", "--out", str(out)]) == 1
    assert "SchemaError: seed: must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()
    spec = tmp_path / "neg_spec.json"
    doc = json.loads(bundled_data_path("fixture_spec.json").read_text(encoding="utf-8"))
    spec.write_text(json.dumps({**doc, "seed": -3}), encoding="utf-8")
    assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 1
    assert "SchemaError: seed: must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


def test_generate_accepts_seed_zero(tmp_path):
    zero, default = tmp_path / "zero.csv", tmp_path / "default.csv"
    spec = tmp_path / "no_seed.json"
    doc = json.loads(bundled_data_path("fixture_spec.json").read_text(encoding="utf-8"))
    doc.pop("seed", None)
    spec.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["generate", "--spec", FIXTURE_SPEC, "--seed", "0", "--out", str(zero)]) == 0
    assert main(["generate", "--spec", str(spec), "--out", str(default)]) == 0
    assert zero.read_bytes() == default.read_bytes()


def test_catalog_with_a_lone_surrogate_is_a_parse_error(tmp_path, hand_corpus_csv, capsys):
    doc = json.loads(bundled_data_path("catalog.json").read_text(encoding="utf-8"))
    doc["strategies"][0]["name"] = "Narrative \ud800 Release"
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "g.dot"
    for argv in (["stats"], ["graph", "--kind", "cooccurrence", "--format", "dot"]):
        assert main([*argv, "--catalog", str(catalog), "--corpus", hand_corpus_csv, "--out", str(out)]) == 1
        assert "ParseError" in capsys.readouterr().err
        assert not out.exists()


UNREAD_FLAGS = [
    (["validate"], ["--out", "F"]),
    (["validate"], ["--pretty"]),
    (["validate"], ["--strict-prep"]),
    (["graph", "--kind", "cooccurrence"], ["--pretty"]),
    (["generate", "--spec", FIXTURE_SPEC], ["--corpus", "c.csv"]),
    (["generate", "--spec", FIXTURE_SPEC], ["--corpus", "json"]),  # not --corpus-format
    (["generate", "--spec", FIXTURE_SPEC], ["--strict"]),
    (["generate", "--spec", FIXTURE_SPEC], ["--lenient"]),
    (["generate", "--spec", FIXTURE_SPEC], ["--strict-prep"]),
    (["generate", "--spec", FIXTURE_SPEC], ["--pretty"]),
]


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS, ids=[" ".join(c[:1] + f) for c, f in UNREAD_FLAGS])
def test_a_flag_the_command_does_not_read_is_a_usage_error(tmp_path, monkeypatch, capsys, command, flag):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main([*command, *flag])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_parser_is_not_built_at_import():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import influenceops

    code = "import influenceops.cli as c; print(c.build_parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(influenceops.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "0"


# --- a corpus path that is not UTF-8 ----------------------------------------


def run_cli(argv, cwd):
    """The CLI in a process of its own, whose stdout bytes are what it wrote."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import influenceops

    env = {**os.environ, "PYTHONPATH": str(Path(influenceops.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "influenceops.cli", *argv], cwd=cwd, capture_output=True, env=env)


@pytest.fixture()
def non_utf8_corpus(tmp_path):
    """A copy of the fixture corpus named c<0xff>.csv, as Python holds that name."""
    import os
    from pathlib import Path

    name = os.fsdecode(b"c\xff.csv")
    try:
        (tmp_path / name).write_bytes((Path(__file__).parent / "golden" / "fixture_corpus.csv").read_bytes())
    except (OSError, UnicodeEncodeError):
        pytest.skip("this file system takes no file name that is not UTF-8")
    return name


def test_stats_of_a_non_utf8_corpus_path_prints_utf8(tmp_path, non_utf8_corpus):
    result = run_cli(["stats", "--corpus", non_utf8_corpus], tmp_path)
    assert (result.returncode, result.stderr) == (0, b"")
    report = json.loads(result.stdout.decode("utf-8"))
    assert report["config"]["corpus_source"] == "c\\xff.csv"


def test_stats_out_of_a_non_utf8_corpus_path_is_the_stdout_bytes(tmp_path, non_utf8_corpus):
    printed = run_cli(["stats", "--corpus", non_utf8_corpus], tmp_path)
    written = run_cli(["stats", "--corpus", non_utf8_corpus, "--out", "out.json"], tmp_path)
    assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
    assert (tmp_path / "out.json").read_bytes() == printed.stdout


def test_report_escapes_a_lone_surrogate_in_its_source(catalog):
    from influenceops.report import build_report, report_to_json
    from influenceops.strategies import ClassifiedCorpus

    def source_of(source):
        text = report_to_json(build_report(ClassifiedCorpus(catalog, {1: 1}, 1, source)))
        return json.loads(text.encode("utf-8"))["config"]["corpus_source"]

    assert source_of("c\ud800.csv") == "c\\ud800.csv"
    assert source_of("c\udcff\ud800.csv") == "c\\udcff\\ud800.csv"
    assert source_of("dir/été 😀,\\x.csv") == "dir/été 😀,\\x.csv"
