import argparse
import contextlib
import errno
import io
import json
import os
import stat
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from influenceops.cli import build_parser, main
from influenceops.errors import UnknownFormat
from influenceops.graphexport import GRAPH_FORMATS, export_graph
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


def test_graph_unknown_format(hand_corpus_csv, tmp_path, capsys):
    """Refused in export_graph's words, before the corpus is read."""
    with pytest.raises(UnknownFormat) as raised:
        export_graph(None, "png")
    for corpus in (hand_corpus_csv, str(tmp_path / "absent.csv")):
        assert main(["graph", "--kind", "cooccurrence", "--format", "png", "--corpus", corpus]) == 1
        assert capsys.readouterr().err == f"UnknownFormat: {raised.value}\n"


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
    assert "SchemaError: generator spec: field 'seed' must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()
    spec = tmp_path / "neg_spec.json"
    doc = json.loads(bundled_data_path("fixture_spec.json").read_text(encoding="utf-8"))
    spec.write_text(json.dumps({**doc, "seed": -3}), encoding="utf-8")
    assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 1
    assert "SchemaError: generator spec: field 'seed' must be a non-negative integer" in capsys.readouterr().err
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
    (["graph", "--kind", "cooccurrence", "--corpus", "c.csv"], ["--pretty"]),
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


CORPUS_USAGE_ERRORS = [
    (["classify"], "the following arguments are required: --corpus"),
    (["stats"], "the following arguments are required: --corpus"),
    (["graph", "--kind", "cooccurrence"], "the following arguments are required: --corpus"),
    (["validate", "--corpus", ""], "argument --corpus: expected a path, got an empty string"),
    (["classify", "--corpus", ""], "argument --corpus: expected a path, got an empty string"),
    (["stats", "--corpus", ""], "argument --corpus: expected a path, got an empty string"),
]


@pytest.mark.parametrize("argv, message", CORPUS_USAGE_ERRORS, ids=[" ".join(a) for a, _ in CORPUS_USAGE_ERRORS])
def test_a_missing_or_empty_corpus_is_a_usage_error(tmp_path, monkeypatch, capsys, argv, message):
    # A taxonomy that fails to load shows that nothing is loaded first.
    (tmp_path / "taxonomy.json").write_text("{", encoding="utf-8")
    monkeypatch.setenv("INFLUENCEOPS_TAXONOMY", str(tmp_path / "taxonomy.json"))
    out = tmp_path / "out.json"
    if argv[0] != "validate":
        argv = [*argv, "--out", str(out)]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


EMPTY_PATHS = [
    ["validate", "--taxonomy", ""],
    ["validate", "--catalog", ""],
    ["generate", "--spec", ""],
    ["generate", "--spec", FIXTURE_SPEC, "--out", ""],
    ["classify", "--corpus", "golden/fixture_corpus.json", "--out", ""],
    ["stats", "--taxonomy", "", "--corpus", "golden/fixture_corpus.csv"],
    ["graph", "--kind", "conditional", "--catalog", "", "--corpus", "golden/fixture_corpus.csv"],
]


@pytest.mark.parametrize("argv", EMPTY_PATHS, ids=[" ".join(a) for a in EMPTY_PATHS])
def test_an_empty_path_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    """Every path flag refuses "" as --corpus does: exit 2, nothing loaded,
    no file written. An empty environment variable still means unset."""
    # A taxonomy that fails to load shows that nothing is loaded first.
    (tmp_path / "taxonomy.json").write_text("{", encoding="utf-8")
    monkeypatch.setenv("INFLUENCEOPS_TAXONOMY", str(tmp_path / "taxonomy.json"))
    monkeypatch.setenv("INFLUENCEOPS_CATALOG", "")
    argv = [str(Path(__file__).parent / value) if value.startswith("golden/") else value for value in argv]
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    flag = argv[argv.index("") - 1]
    assert excinfo.value.code == 2
    assert f"argument {flag}: expected a path, got an empty string" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["taxonomy.json"]
    monkeypatch.setenv("INFLUENCEOPS_TAXONOMY", "")
    assert main(["validate"]) == 0
    assert capsys.readouterr().out == "taxonomy: ok\ncatalog: ok\n"


@pytest.mark.parametrize("support", ["1", "50", "-5"])
def test_min_support_with_a_cooccurrence_graph_is_a_usage_error(tmp_path, hand_corpus_csv, capsys, support):
    out = tmp_path / "g.dot"
    with pytest.raises(SystemExit) as excinfo:
        main(["graph", "--kind", "cooccurrence", "--min-support", support, "--corpus", hand_corpus_csv,
              "--out", str(out)])
    assert excinfo.value.code == 2
    assert "argument --min-support: not allowed with --kind cooccurrence" in capsys.readouterr().err
    assert not out.exists()
    # The conditional graph reads the flag: a negative threshold is a domain error.
    assert main(["graph", "--kind", "conditional", "--min-support", "-5", "--corpus", hand_corpus_csv]) == 1
    assert "NegativeSupport" in capsys.readouterr().err


@pytest.mark.parametrize("pretty", [[], ["--pretty"]], ids=["json", "pretty"])
def test_stats_checks_min_support_after_the_corpus_with_or_without_graphs(tmp_path, hand_corpus_csv, capsys, pretty):
    """--pretty builds no graph, yet refuses a negative --min-support as the
    report does, and only once the corpus has a mapped incident."""
    assert main(["stats", *pretty, "--min-support", "-5", "--corpus", hand_corpus_csv]) == 1
    assert capsys.readouterr().err == "NegativeSupport: min_support must be >= 0, got -5\n"
    unmapped = tmp_path / "unmapped.csv"
    unmapped.write_text("incident_id,title,year,targets,techniques\nU-1,x,2020,,T0003\n", encoding="utf-8")
    assert main(["stats", *pretty, "--min-support", "-5", "--corpus", str(unmapped)]) == 1
    assert capsys.readouterr().err.startswith("EmptyCorpus: ")


def test_each_call_reads_the_taxonomy_and_catalog_files_again(tmp_path, hand_corpus_csv, capsys):
    """Parsed documents are shared per text, so a file rewritten at the same
    path between two calls in one process is seen by the second."""
    taxonomy, catalog = tmp_path / "taxonomy.json", tmp_path / "catalog.json"
    taxonomy_text = bundled_data_path("taxonomy.json").read_text(encoding="utf-8")
    catalog_doc = json.loads(bundled_data_path("catalog.json").read_text(encoding="utf-8"))
    nr = next(s for s in catalog_doc["strategies"] if s["id"] == "NR")
    catalog.write_text(json.dumps(catalog_doc), encoding="utf-8")
    argv = ["stats", "--pretty", "--taxonomy", str(taxonomy), "--catalog", str(catalog), "--corpus", hand_corpus_csv]

    taxonomy.write_text(taxonomy_text, encoding="utf-8")
    assert main(argv) == 0
    assert f"  NR   {nr['name']:<26}" in capsys.readouterr().out
    without = json.loads(taxonomy_text)
    without["techniques"] = [t for t in without["techniques"] if t["id"] != nr["execution_technique"]]
    taxonomy.write_text(json.dumps(without), encoding="utf-8")
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("UnknownTechnique: ")
    taxonomy.write_text(taxonomy_text, encoding="utf-8")

    nr["name"] = "Renamed release"
    catalog.write_text(json.dumps(catalog_doc), encoding="utf-8")
    assert main(argv) == 0
    assert f"  NR   {'Renamed release':<26}" in capsys.readouterr().out
    catalog.write_text("{", encoding="utf-8")
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("ParseError: ")


def test_parser_is_not_built_at_import():
    import subprocess
    import sys

    import influenceops

    code = "import influenceops.cli as c; print(c.build_parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(influenceops.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "0"


def package_modules_after(code):
    """The ``influenceops`` modules that a fresh interpreter holds after ``code``."""
    import subprocess
    import sys

    import influenceops

    code += "\nimport sys; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'influenceops'))"
    env = {**os.environ, "PYTHONPATH": str(Path(influenceops.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return set(out.stdout.split())


def test_loading_the_bundled_inputs_imports_no_analytics_generator_or_cli():
    loaded = package_modules_after("import influenceops; influenceops.load_bundled_catalog()")
    unused = {"analytics", "generate", "report", "graphexport", "evidence", "cli"}
    assert "influenceops.resources" in loaded
    assert not loaded & {f"influenceops.{m}" for m in unused}


def test_importing_the_cli_loads_every_module_a_command_runs():
    """Runners import the CLI before timing a command, so no command may
    import a module of its own on first use."""
    modules = ("analytics", "cli", "corpus", "documents", "errors", "evidence", "generate", "graphexport", "render",
               "report", "resources", "strategies", "taxonomy")
    assert package_modules_after("import influenceops.cli") == {"influenceops", *(f"influenceops.{m}" for m in modules)}


# --- a corpus path that is not UTF-8 ----------------------------------------


def run_cli(argv, cwd, env=None, **kwargs):
    """The CLI in a process of its own, whose stdout bytes are what it wrote;
    ``env`` adds to the environment."""
    import subprocess
    import sys

    import influenceops

    env = {**os.environ, "PYTHONPATH": str(Path(influenceops.__file__).parents[1]), **(env or {})}
    return subprocess.run([sys.executable, "-m", "influenceops.cli", *argv], cwd=cwd, capture_output=True, env=env,
                          **kwargs)


@pytest.fixture()
def non_utf8_corpus(tmp_path):
    """A copy of the fixture corpus named c<0xff>.csv, as Python holds that name."""
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


# --- stdout ---------------------------------------------------------------------


@pytest.mark.parametrize("encoding", ["ascii", "latin-1", "utf-8"])
def test_stdout_is_utf8_whatever_its_encoding(tmp_path, encoding):
    golden = Path(__file__).parent / "golden"
    env = {"PYTHONIOENCODING": encoding}
    result = run_cli(["classify", "--pretty", "--corpus", str(golden / "escaped_ids.json")], tmp_path, env)
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == (golden / "classify_escaped_ids_pretty.txt").read_bytes()
    corpus = "incident_id,title,year,targets,techniques\nÉTÉ-1,x,2020,,T0115|Xé9\n"
    (tmp_path / "c.csv").write_text(corpus, encoding="utf-8")
    result = run_cli(["validate", "--lenient", "--corpus", "c.csv"], tmp_path, env)
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout.decode("utf-8") == (
        "taxonomy: ok\ncatalog: ok\ncorpus: ok (1 incidents)\n"
        "corpus: warning: incident 'ÉTÉ-1': dropped unknown technique 'Xé9'\n"
    )
    (tmp_path / "é.csv").write_bytes((golden / "fixture_corpus.csv").read_bytes())
    result = run_cli(["stats", "--corpus", "é.csv"], tmp_path, env)
    assert (result.returncode, result.stderr) == (0, b"")
    assert run_cli(["stats", "--corpus", "é.csv", "--out", "stats.json"], tmp_path, env).returncode == 0
    assert result.stdout == (tmp_path / "stats.json").read_bytes()
    assert json.loads(result.stdout.decode("utf-8"))["config"]["corpus_source"] == "é.csv"


CLOSED_STDOUT = f"I/O error: [Errno {errno.EBADF}] {os.strerror(errno.EBADF)}: '<stdout>'\n"


def test_a_closed_stdout_is_an_io_error(tmp_path):
    result = run_cli(["validate"], tmp_path, preexec_fn=lambda: os.close(1))  # as the shell's >&- does
    assert (result.returncode, result.stdout, result.stderr) == (2, b"", CLOSED_STDOUT.encode())


@pytest.mark.parametrize("command", [["validate"], ["classify"], ["stats"], ["stats", "--pretty"],
                                     ["graph", "--kind", "cooccurrence"]], ids=" ".join)
def test_every_command_refuses_a_missing_stdout(hand_corpus_csv, monkeypatch, capsys, command):
    argv = command if command == ["validate"] else [*command, "--corpus", hand_corpus_csv]
    monkeypatch.setattr("sys.stdout", None)
    assert main(argv) == 2
    assert capsys.readouterr().err == CLOSED_STDOUT


def test_report_escapes_a_lone_surrogate_in_its_source(catalog):
    from influenceops.report import build_report, report_to_json
    from influenceops.strategies import ClassifiedCorpus

    def source_of(source):
        text = report_to_json(build_report(ClassifiedCorpus(catalog, {1: 1}, source)))
        return json.loads(text.encode("utf-8"))["config"]["corpus_source"]

    assert source_of("c\ud800.csv") == "c\\ud800.csv"
    assert source_of("c\udcff\ud800.csv") == "c\\udcff\\ud800.csv"
    assert source_of("dir/été 😀,\\x.csv") == "dir/été 😀,\\x.csv"


# --- --out --------------------------------------------------------------------


def test_out_replaces_a_regular_file_and_keeps_its_permission_bits(fixture_corpus_csv, tmp_path, capsys):
    out = tmp_path / ("r" * 250 + ".json")  # the longest name most file systems take
    out.write_bytes(b"old report\n")
    out.chmod(0o640)
    assert main(["stats", "--corpus", fixture_corpus_csv]) == 0
    printed = capsys.readouterr().out
    assert main(["stats", "--corpus", fixture_corpus_csv, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == printed
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert list(tmp_path.iterdir()) == [out]


def test_a_failed_replace_leaves_out_as_it_was(fixture_corpus_csv, tmp_path, monkeypatch, capsys):
    def disk_full(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    out = tmp_path / "report.json"
    out.write_bytes(b"old report\n")
    monkeypatch.setattr(os, "replace", disk_full)
    assert main(["stats", "--corpus", fixture_corpus_csv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"I/O error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert out.read_bytes() == b"old report\n"
    assert list(tmp_path.iterdir()) == [out]


def test_a_write_cut_short_by_the_file_size_limit_leaves_out_as_it_was(tmp_path):
    resource = pytest.importorskip("resource")
    corpus = Path(__file__).parent / "golden" / "fixture_corpus.csv"
    out = tmp_path / "report.json"
    out.write_bytes(b"old report\n")

    def limit_file_size():  # the report is ~22 kB; CPython ignores SIGXFSZ, so the write fails with EFBIG
        resource.setrlimit(resource.RLIMIT_FSIZE, (4096, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))

    result = run_cli(["stats", "--corpus", str(corpus), "--out", "report.json"], tmp_path, preexec_fn=limit_file_size)
    assert result.returncode == 2 and result.stderr.startswith(b"I/O error: ")
    assert out.read_bytes() == b"old report\n"
    assert list(tmp_path.iterdir()) == [out]


def test_out_through_a_symlink_updates_its_target_and_keeps_the_link(fixture_corpus_csv, tmp_path, capsys):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_bytes(b"old report\n")
    link.symlink_to(target.name)
    assert main(["stats", "--corpus", fixture_corpus_csv]) == 0
    printed = capsys.readouterr().out
    assert main(["stats", "--corpus", fixture_corpus_csv, "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_text(encoding="utf-8") == printed
    assert sorted(tmp_path.iterdir()) == [link, target]


def test_out_in_a_missing_directory_names_the_out_path(fixture_corpus_csv, tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main(["stats", "--corpus", fixture_corpus_csv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"I/O error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{out}'\n"
    assert list(tmp_path.iterdir()) == []


def test_out_to_dev_null(fixture_corpus_csv):
    assert main(["stats", "--corpus", fixture_corpus_csv, "--out", os.devnull]) == 0


# --- every flag, valid, boundary and hostile values ----------------------------


@pytest.fixture(scope="module")
def flag_files(tmp_path_factory, fixture_corpus_csv):
    """(valid, hostile) values of each path flag; --out values are relative to ``out_dir``."""
    root = tmp_path_factory.mktemp("flags")
    golden = Path(__file__).parent / "golden"
    garbage = root / "garbage.json"
    garbage.write_bytes(b'{"version": [\xff')
    hostile = [os.devnull, "", str(root), str(root / "missing.json"), str(garbage), os.fsdecode(b"m\xff.json")]
    corpora = [*(str(golden / name) for name in ("prep_corpus.csv", "fixture_corpus.json", "lenient_corpus.csv",
                                                 "escaped_ids.json")),
               fixture_corpus_csv]
    surrogate = root / os.fsdecode(b"c\xff.csv")
    try:
        surrogate.write_bytes(Path(fixture_corpus_csv).read_bytes())
        corpora.append(str(surrogate))
    except (OSError, UnicodeEncodeError):
        pass  # this file system takes no file name that is not UTF-8
    out_dir = root / "out"
    out_dir.mkdir()
    return {
        "taxonomy": ([str(bundled_data_path("taxonomy.json"))], hostile),
        "catalog": ([str(bundled_data_path("catalog.json"))], hostile),
        "corpus": (corpora, hostile),
        "spec": ([FIXTURE_SPEC, str(golden / "exact_prep_spec.json")], hostile),
        "out": (["new.json", "existing.json", os.devnull, os.fsdecode(b"o\xff.json")],
                ["", ".", "missing/new.json", str(root)]),
        "out_dir": out_dir,
    }


HOSTILE = st.sampled_from(["", "x", os.devnull, "\udcff", "-1", "--corpus"])
INTS = st.one_of(st.integers(0, 100), st.sampled_from([2**63, 10**40])).map(str)
HOSTILE_INTS = st.one_of(st.integers(-(10**40), -1).map(str), st.sampled_from(["1.5", "1e3", "0x10"]), HOSTILE)


def flag_values(action, files):
    """Strategies of the (valid and boundary, hostile) values of a flag."""
    if action.dest in files:
        valid, hostile = files[action.dest]
        return st.sampled_from(valid), st.one_of(st.sampled_from(hostile), HOSTILE)
    if action.type is int:
        return INTS, HOSTILE_INTS
    choices = action.choices or (GRAPH_FORMATS if action.dest == "fmt" else None)
    if choices:
        return st.sampled_from(sorted(choices)), HOSTILE
    raise AssertionError(f"no values for {action.option_strings}: give the new flag some here")


@st.composite
def argvs(draw, files):
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    command = draw(st.sampled_from(sorted(commands)))
    argv = [command]
    exclusive = {a for group in commands[command]._mutually_exclusive_groups for a in group._group_actions}
    for action in commands[command]._actions:
        # Hypothesis leans to 0, so 0 stands for the common case.
        if isinstance(action, argparse._HelpAction):
            wanted = draw(st.integers(0, 19)) == 19
        elif action in exclusive:
            wanted = draw(st.integers(0, 3)) == 3
        else:
            wanted = action.required or draw(st.integers(0, 3)) < 3
        if not wanted:
            continue
        argv.append(draw(st.sampled_from(action.option_strings)))
        if action.nargs != 0:
            valid, hostile = flag_values(action, files)
            argv.append(draw(hostile if draw(st.integers(0, 3)) == 3 else valid))
    return argv


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_flag_exits_with_a_code_and_no_traceback(flag_files, data):
    """Each subcommand and flag of the parser, with valid, boundary and hostile
    values, exits 0, 1 or 2, prints UTF-8 to a stdout of any encoding and no
    traceback, and on failure leaves the --out directory as it was. Now and
    then stdout is closed, as Python leaves it for a process started with
    ``>&-``."""
    out_dir = flag_files["out_dir"]
    for path in out_dir.iterdir():
        path.unlink()
    (out_dir / "existing.json").write_bytes(b"old\n")
    argv = data.draw(argvs(flag_files), label="argv")
    # The stdout that PYTHONIOENCODING gives the process.
    encoding = data.draw(st.sampled_from(["ascii", "latin-1", "utf-8"]), label="PYTHONIOENCODING")
    closed = data.draw(st.integers(0, 19), label="stdout closed") == 19
    stdout, stderr = None if closed else io.TextIOWrapper(io.BytesIO(), encoding=encoding), io.StringIO()
    cwd = os.getcwd()
    os.chdir(out_dir)  # --out values are relative to it
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse: usage error or --help
                rc = exc.code
    finally:
        os.chdir(cwd)
    assert rc in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
    if stdout is not None:
        stdout.flush()
        stdout.buffer.getvalue().decode("utf-8")  # raises unless stdout is valid UTF-8
    assert not [p for p in out_dir.iterdir() if p.suffix == ".tmp"]
    if rc:
        assert sorted(p.name for p in out_dir.iterdir()) == ["existing.json"]
        assert (out_dir / "existing.json").read_bytes() == b"old\n"


def test_perfbench_finds_every_name_it_traces_but_the_seven_dead_ones():
    """The benchmark's tracer wraps the functions that perfbench/spans.py names
    by looking each one up in its module, and skips a name it does not find, so
    a renamed function would drop out of the trace unseen. Only the seven names
    that no module defines any more may be missing."""
    import importlib
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", Path(__file__).parents[1] / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = {
        f"{module_name.removeprefix('influenceops.')}.{name}"
        for module_name, names in spans.WRAPPED.items()
        for name in names
        if getattr(importlib.import_module(module_name), name, None) is None
    }
    assert missing == {
        "cli.validate_taxonomy", "cli.check_disjointness", "cli.classify_corpus",
        "report.fraction_payload", "report.percent_string",
        "graphexport.decimal_string", "graphexport.fraction_payload",
    }
