"""The ingest paths against an independent reference, and the loaders
against malformed and arbitrary input.

`reference_ingest` is the row-parser pipeline that the package's scans
replaced; it parses a JSON document whole before it reads a row. On every
document, `ingest_histogram`, which scans straight into the mask histogram,
must agree with `classify_corpus` of the reference's corpus: the same
histogram, counts and ingestion report, or the same exception and message.
The library `ingest_corpus`, `loads_corpus_csv` and `loads_corpus_json` must
build the reference's incidents and report, or raise its error. `classify`
renders per-technique masks; its output must be the bytes of the
reference's set-based profiles (`reference_ingest.classify_incident`)
rendered as the command did before it streamed, or the same error.
"""

import contextlib
import csv
import io
import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_ingest
from influenceops import (
    DuplicateIncidentId,
    InfluenceOpsError,
    ParseError,
    UnknownTechnique,
    classify_corpus,
    ingest_corpus,
    loads_corpus_csv,
    loads_corpus_json,
)
from influenceops.cli import main
from influenceops.corpus import CSV_HEADER, DroppedTechnique
from influenceops.evidence import classification_json, classification_text, ingest_technique_masks
from influenceops.resources import bundled_data_path
from influenceops.strategies import (
    STRATEGY_ORDER,
    ClassifiedCorpus,
    StrategyCatalog,
    ingest_histogram,
    loads_strategy_catalog,
    match_strategies,
)

MODES = [(mode, strict_prep) for mode in ("strict", "lenient") for strict_prep in (False, True)]

# Execution and preparation ids of several strategies (two preparation ids of
# NR and of NM), a taxonomy id of no strategy (T0117), and ids outside the taxonomy.
TECHNIQUES = ["T0115", "T0118", "T0114", "T0049", "X0001", "T0085", "T0003", "T0022", "T0007", "T0117",
              "T9999", "t0115"]
# Unique in valid documents; some need escaping in JSON output.
IDS = ["I-1", "I-2", "I-3", "I-4", "I-5", "É-6 «été» 😀", 'Q-"7"', "B-\\8", "C-\x07\t9\x7f\u2028"]
# A lone surrogate, which a JSON document can hold as a \ud800 escape but no output can encode.
SURROGATE_ID = "S-\ud800"
TEXT = st.text(alphabet="ab ,|\"\n\r\t'é", max_size=6)


def materialised(path, taxonomy, catalog, mode, strict_prep):
    """The reference's corpus, classified incident by incident."""
    corpus, report = reference_ingest.ingest_corpus(path, taxonomy, mode)
    return classify_corpus(corpus, catalog, strict_prep), report


def library(path, taxonomy, catalog, mode, strict_prep):
    """The library's corpus, classified incident by incident."""
    corpus, report = ingest_corpus(path, taxonomy, mode)
    return classify_corpus(corpus, catalog, strict_prep), report


def outcome(ingest, path, taxonomy, catalog, mode, strict_prep):
    try:
        cc, report = ingest(path, taxonomy, catalog, mode, strict_prep)
    except InfluenceOpsError as exc:
        return type(exc), str(exc)
    return dict(cc.histogram), cc.total_count, cc.mapped_count, cc.source, report


def corpus_outcome(load, document, taxonomy, mode):
    try:
        corpus, report = load(document, taxonomy, mode)
    except InfluenceOpsError as exc:
        return type(exc), str(exc)
    return corpus.incidents, corpus.source, report


def check_paths_agree(path, taxonomy, catalog, text=None):
    """Every ingest path against the reference on one corpus file; given the
    file's text, the library's text loaders too."""
    for mode, strict_prep in MODES:
        expected = outcome(materialised, path, taxonomy, catalog, mode, strict_prep)
        assert outcome(ingest_histogram, path, taxonomy, catalog, mode, strict_prep) == expected
        if isinstance(expected[0], dict):
            # Against per-incident classification, which shares no code with the fold.
            cc, _ = materialised(path, taxonomy, catalog, mode, strict_prep)
            ids = catalog.ids()
            masks = Counter(sum(1 << ids.index(s) for s in p.strategies) for p in cc.profiles)
            assert expected[0] == dict(masks)
    json_file = path.suffix == ".json"
    loads, reference_loads = ((loads_corpus_json, reference_ingest.loads_corpus_json) if json_file
                              else (loads_corpus_csv, reference_ingest.loads_corpus_csv))
    for mode in ("strict", "lenient"):
        expected = corpus_outcome(reference_ingest.ingest_corpus, path, taxonomy, mode)
        assert corpus_outcome(ingest_corpus, path, taxonomy, mode) == expected
        if text is not None:
            assert corpus_outcome(loads, text, taxonomy, mode) == corpus_outcome(reference_loads, text, taxonomy, mode)


def csv_text(header, rows, newline="\n", blank_before=()):
    """The CSV document, with a blank line before each row numbered in blank_before."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=newline)
    writer.writerow(header)
    for n, row in enumerate(rows):
        if n in blank_before:
            out.write(newline)
        writer.writerow(row)
    return out.getvalue()


techniques = st.lists(st.sampled_from(TECHNIQUES), max_size=6)


def rarely(draw):
    """True for about one row in eight, so that a malformed document mixes
    parse errors with duplicate and unknown ids."""
    return draw(st.integers(0, 7)) == 0


@st.composite
def csv_rows(draw, valid):
    incident_id = "" if not valid and rarely(draw) else draw(st.sampled_from(IDS))
    year = draw(st.integers(1990, 2030))
    if not valid and rarely(draw):
        year = draw(st.sampled_from(["x", "", "20.5", "2_020", " 2021"]))
    # A trailing "|" leaves an empty item, which is skipped.
    row = [incident_id, draw(TEXT), year, "|".join(draw(st.lists(TEXT, max_size=2))),
           "|".join(draw(techniques)) + draw(st.sampled_from(["", "", "|"]))]
    if not valid and rarely(draw):
        row = row[: draw(st.integers(0, 4))] + draw(st.lists(TEXT, max_size=2))
    return row


@st.composite
def json_entries(draw, valid):
    incident_id = draw(st.sampled_from(IDS))
    if not valid and rarely(draw):
        incident_id = draw(st.sampled_from(["", SURROGATE_ID]))
    entry = {
        "incident_id": incident_id,
        "title": draw(TEXT),
        "year": draw(st.integers(1990, 2030)),
        "targets": draw(st.lists(TEXT, max_size=2)),
        "techniques": draw(techniques),
    }
    if not valid and rarely(draw):
        key = draw(st.sampled_from(sorted(entry)))
        entry[key] = draw(st.sampled_from([None, True, 3, "2020", ["T0115", 7], {}]))
    if not valid and rarely(draw):
        return draw(st.sampled_from([[], "I-1", 1, None]))
    return entry


def csv_documents(valid):
    # Blank lines count in the row numbers of errors; CRLF is read as LF.
    header = st.just(CSV_HEADER) if valid else st.sampled_from([CSV_HEADER] * 9 + [("id", "name")])
    unique = (lambda row: row[0]) if valid else None
    return st.builds(csv_text, header, st.lists(csv_rows(valid), max_size=8, unique_by=unique),
                     st.sampled_from(["\n", "\r\n"]), st.sets(st.integers(0, 8), max_size=3))


# Whitespace runs around brackets and delimiters.
SPACE = st.sampled_from(["", "", " ", "\n  ", "\r\n\t \n"])
# Syntax damage to a document that is otherwise an array of elements.
DAMAGE = ["trailing comma", "missing comma", "} for ]", "data after ]", "truncated", "BOM",
          "not an array"]


@st.composite
def json_documents(draw, valid):
    unique = (lambda entry: entry["incident_id"]) if valid else None
    items = [json_text(entry) for entry in draw(st.lists(json_entries(valid), max_size=8, unique_by=unique))]
    if not valid and draw(st.booleans()):
        # Shape, domain and syntax errors mixed, in any order.
        damage = draw(st.sampled_from(DAMAGE))
        if damage == "trailing comma":
            items.append("")
        elif damage == "missing comma" and len(items) > 1:
            k = draw(st.integers(1, len(items) - 1))
            items[k - 1:k + 1] = [items[k - 1] + draw(SPACE) + items[k]]
        text = make_array(draw, items)
        if damage == "} for ]":
            text = text.rstrip()[:-1] + "}"
        elif damage == "data after ]":
            text += draw(st.sampled_from(["x", " []", ",", "\n{}", " 1"]))
        elif damage == "truncated":
            text = text[:draw(st.integers(0, len(text) - 1))]
        elif damage == "BOM":
            text = "\ufeff" + text
        elif damage == "not an array":
            text = draw(st.sampled_from(["{}", '"corpus"', "1", '{"incident_id": "I-1"}']))
            text += draw(st.sampled_from(["", " x", " ]", ",", " [1]"]))
        return text
    return make_array(draw, items)


def make_array(draw, items):
    text = draw(SPACE) + "[" + draw(SPACE)
    for k, item in enumerate(items):
        if k:
            text += draw(SPACE) + "," + draw(SPACE)
        text += item
    return text + draw(SPACE) + "]" + draw(SPACE)


def json_text(doc):
    text = json.dumps(doc, ensure_ascii=False)
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate: write it as an escape
        return json.dumps(doc)
    return text


DOCUMENTS = st.one_of(
    *(st.tuples(st.just(suffix), make(valid))
      for suffix, make in ((".csv", csv_documents), (".json", json_documents))
      for valid in (True, False))
)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=DOCUMENTS)
def test_streaming_path_agrees_with_materialised_path(taxonomy, catalog, scratch, doc):
    suffix, text = doc
    path = scratch / f"corpus{suffix}"
    path.write_text(text, encoding="utf-8")
    check_paths_agree(path, taxonomy, catalog, text)


@pytest.mark.parametrize(
    "name, text, error",
    [
        # Parse errors anywhere win over the first duplicate-id or unknown-technique error.
        ("late-parse.csv", "I-1,a,2020,,T0115\nI-1,b,2020,,T9999\nI-3,c,x,,T0115\n", ParseError),
        ("late-short.csv", "I-1,a,2020,,T9999\nI-2,b\n", ParseError),
        # The first domain error in row order wins; duplicate is checked before techniques.
        ("dup-first.csv", "I-1,a,2020,,T0115\nI-1,b,2020,,T9999\nI-3,c,2020,,T9999\n", DuplicateIncidentId),
        ("unknown-first.csv", "I-1,a,2020,,T9999\nI-1,b,2020,,T0115\n", UnknownTechnique),
        ("late-parse.json", '[{"incident_id": "I-1", "year": 1, "techniques": ["T9999"]}, 7]', ParseError),
        ("dup.json", '[{"incident_id": "I-1", "year": 1}, {"incident_id": "I-1", "year": 2}]',
         DuplicateIncidentId),
        # A syntax error after the first shape error (and a domain error) still wins.
        ("syntax-trailing-comma.json", '[{"incident_id": "I-1", "year": 1}, 7, {"incident_id": "I-1"},]',
         ParseError),
        ("syntax-missing-comma.json", '[{"incident_id": "I-1", "year": "x"}, {"incident_id": "I-2"} 7]',
         ParseError),
        ("syntax-brace.json", '[{"incident_id": "I-1", "year": 1, "techniques": ["T9999"]}, {"year": 1}}',
         ParseError),
        ("syntax-after-array.json", '[{"incident_id": "I-1", "year": 1, "title": 2}] x', ParseError),
        ("syntax-truncated.json", '[{"incident_id": "", "year": 1}, {"incident_id": "I-2", "ye', ParseError),
        ("syntax-top-level.json", '{"incident_id": "I-1", "year": 1} [', ParseError),
        ("shape-top-level.json", ' "corpus" ', ParseError),
        ("syntax-bom.json", '\ufeff[{"incident_id": "I-1", "year": 1}]', ParseError),
        # Row numbers count blank lines and CRLF ends a row.
        ("blank-lines.csv", "I-1,a,2020,,T0115|\r\n\r\n\nI-2,b,2020,,T9999\r\n\nI-3,c\r\n", ParseError),
    ],
)
def test_error_order_on_mixed_documents(taxonomy, catalog, tmp_path, name, text, error):
    if name.endswith(".csv"):
        text = ",".join(CSV_HEADER) + "\n" + text
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error) as err:
        ingest_histogram(path, taxonomy, catalog)
    if name.startswith("syntax-"):
        assert "corpus document is not valid JSON: " in str(err.value)
    if name == "blank-lines.csv":
        assert "row 6: expected 5 fields, got 2" in str(err.value)
    check_paths_agree(path, taxonomy, catalog, text)


@pytest.mark.parametrize(
    "name, data, where",
    [
        ("title.csv", b"incident_id,title,year,targets,techniques\nI-1,bad \xff\xfe,2020,,T0115\n",
         "not valid UTF-8"),
        ("title.json", b'[{"incident_id": "I-1", "title": "\xff\xfe", "year": 2020}]', "not valid UTF-8"),
        ("field.csv", b"incident_id,title,year,targets,techniques\nI-1,a,2020,,T0115\nI-2,"
         + b"x" * 200_000 + b",2020,,T0115\n", "row 2: field larger than field limit"),
        ("nested.json", b"[" * 100_000, "nested too deeply"),
        pytest.param(
            "digits.json", b'[{"incident_id": "I-1", "year": ' + b"9" * 5000 + b"}]", "not valid JSON",
            marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit"),
        ),
    ],
)
def test_unreadable_documents_are_parse_errors(taxonomy, catalog, tmp_path, name, data, where):
    path = tmp_path / name
    path.write_bytes(data)
    for ingest in (ingest_histogram, materialised, library):
        with pytest.raises(ParseError) as err:
            ingest(path, taxonomy, catalog, "strict", False)
        assert str(err.value).startswith(f"{path}: ")
        assert where in str(err.value)


def test_deeply_nested_element_is_a_parse_error(tmp_path, capsys):
    """An element nested past the recursion limit, under a key that ingest
    never reads, is a ParseError (exit 1), never a traceback; near the limit
    a document either loads or is that same error."""
    limit = sys.getrecursionlimit()
    path = tmp_path / "deep.json"
    for depth in [*range(limit - 60, limit + 60, 8), 100_000]:
        path.write_text('[{"incident_id": "I-1", "year": 2020, "techniques": ["T0115"], "notes": '
                        + "[" * depth + "]" * depth + "}]", encoding="utf-8")
        rc = main(["stats", "--corpus", str(path), "--out", str(tmp_path / "out.json")])
        err = capsys.readouterr().err
        if depth == 100_000 or rc:
            assert (rc, err) == (1, f"ParseError: {path}: corpus document is nested too deeply\n"), depth


@pytest.mark.parametrize("field, value", [
    ("incident_id", 7), ("incident_id", ["I-1"]), ("title", None), ("title", ["a"]),
    ("year", True), ("year", False), ("year", 2020.0), ("year", "2020"), ("year", None),
    ("targets", "EU"), ("targets", {"EU": 1}), ("targets", ["EU", None]), ("techniques", "T0115"),
    ("techniques", {"T0115": 1}), ("techniques", ["T0115", 7]), ("techniques", ["T0115", ["T0049"]]),
])
def test_each_wrong_json_type_is_the_reference_shape_error(taxonomy, catalog, tmp_path, field, value):
    entry = {"incident_id": "I-2", "title": "b", "year": 2020, "targets": ["EU"], "techniques": ["T0115"]}
    entry[field] = value
    text = json.dumps([{"incident_id": "I-1", "year": 2020}, entry])
    path = tmp_path / "shape.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=f"incident 2: .*'{field}'"):
        ingest_histogram(path, taxonomy, catalog)
    check_paths_agree(path, taxonomy, catalog, text)


def test_histogram_built_corpus_has_statistics_but_no_profiles(catalog):
    cc = ClassifiedCorpus(catalog, {0: 1, 0b11: 2}, 3, "src")
    assert (len(cc), cc.total_count, cc.mapped_count, cc.source) == (3, 3, 2, "src")
    with pytest.raises(ValueError):
        cc.profiles


def test_catalog_technique_outside_the_taxonomy_is_unknown_on_every_path(taxonomy, catalog, tmp_path):
    # NR executes, and NS prepares with, ids that the taxonomy lacks.
    hand_built = StrategyCatalog(
        tuple(
            replace(s, execution_technique="T9999") if s.id == "NR"
            else replace(s, preparation_techniques=s.preparation_techniques | {"T4242"}) if s.id == "NS"
            else s
            for s in catalog.strategies
        ),
        catalog.taxonomy_version,
    )
    ns = hand_built.by_id("NS").execution_technique
    path = tmp_path / "outside.csv"
    path.write_text(
        ",".join(CSV_HEADER) + f"\nI-1,a,2020,,T0115\nI-2,b,2020,,T9999|{ns}|T4242\nI-3,c,2020,,{ns}\n",
        encoding="utf-8",
    )

    def histograms(mode, strict_prep):
        cc, report = ingest_histogram(path, taxonomy, hand_built, mode, strict_prep)
        corpus, corpus_report = ingest_corpus(path, taxonomy, mode)
        pairs, pairs_report = ingest_technique_masks(path, taxonomy, hand_built, mode)
        from_pairs = Counter(sm for _, sm, _ in match_strategies(pairs, hand_built, strict_prep, lambda i, m: None))
        return (
            (dict(cc.histogram), report.dropped),
            (dict(classify_corpus(corpus, hand_built, strict_prep).histogram), corpus_report.dropped),
            (dict(from_pairs), pairs_report.dropped),
        )

    for strict_prep in (False, True):
        messages = set()
        for ingest in (
            lambda: ingest_histogram(path, taxonomy, hand_built, "strict", strict_prep),
            lambda: ingest_corpus(path, taxonomy, "strict"),
            lambda: ingest_technique_masks(path, taxonomy, hand_built, "strict"),
        ):
            with pytest.raises(UnknownTechnique) as excinfo:
                ingest()
            messages.add(str(excinfo.value))
        assert messages == {f"{path}: incident 2 ('I-2') references unknown technique 'T9999'"}
        first, *others = histograms("lenient", strict_prep)
        assert all(other == first for other in others)
        assert first[1] == (DroppedTechnique("I-2", "T9999"), DroppedTechnique("I-2", "T4242"))
    # NR's execution technique is never known, so NR never matches.
    ns_bit = 1 << hand_built.ids().index("NS")
    assert histograms("lenient", False)[0][0] == {0: 1, ns_bit: 2}
    assert histograms("lenient", True)[0][0] == {0: 3}


def canonical(strategy_ids):
    """The ids in the canonical enumeration order, whatever the catalog's."""
    return [s for s in STRATEGY_ORDER if s in strategy_ids]


def reference_classify(path, taxonomy, catalog, mode, strict_prep, pretty):
    """The `classify` output rendered from the reference's set-based profiles
    of the reference's corpus, as the command did before it streamed."""
    corpus, _ = reference_ingest.ingest_corpus(path, taxonomy, mode)
    profiles = [reference_ingest.classify_incident(i, catalog, strict_prep) for i in corpus.incidents]
    if pretty:
        lines = [
            f"{p.incident_id}: {'+'.join(canonical(p.strategies)) or '(unmapped)'}"
            for p in profiles
        ]
        return "\n".join(lines) + "\n"
    doc = [
        {
            "incident_id": p.incident_id,
            "strategies": canonical(p.strategies),
            "evidence": {sid: list(p.evidence[sid]) for sid in canonical(p.strategies)},
        }
        for p in profiles
    ]
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


@pytest.fixture(scope="module")
def catalog_files(taxonomy, scratch):
    """Catalog name -> (catalog file, catalog): the bundled seven strategies, and
    four of them listed out of canonical order."""
    bundled = bundled_data_path("catalog.json")
    doc = json.loads(bundled.read_text(encoding="utf-8"))
    doc["strategies"] = doc["strategies"][3::-1]
    four = scratch / "four_strategies.json"
    four.write_text(json.dumps(doc), encoding="utf-8")
    return {
        name: (str(path), loads_strategy_catalog(path.read_text(encoding="utf-8"), taxonomy))
        for name, path in (("seven", bundled), ("four", four))
    }


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=DOCUMENTS, which=st.sampled_from(["seven", "four"]), mode=st.sampled_from(MODES),
       pretty=st.booleans())
def test_classify_output_matches_library_rendering(taxonomy, catalog_files, scratch, doc, which, mode, pretty):
    suffix, text = doc
    path = scratch / f"classify{suffix}"
    path.write_text(text, encoding="utf-8")
    catalog_path, catalog = catalog_files[which]
    ingest_mode, strict_prep = mode
    try:
        expected = reference_classify(path, taxonomy, catalog, ingest_mode, strict_prep, pretty)
    except InfluenceOpsError as exc:
        expected = None
        error = f"{type(exc).__name__}: {exc}\n"
    out = scratch / "classify.out"
    out.unlink(missing_ok=True)
    argv = ["classify", f"--{ingest_mode}", "--catalog", catalog_path, "--corpus", str(path), "--out", str(out)]
    argv += ["--strict-prep"] * strict_prep + ["--pretty"] * pretty
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        rc = main(argv)
    if expected is None:
        assert (rc, stderr.getvalue()) == (1, error)
        assert not out.exists()
    else:
        assert rc == 0
        assert out.read_bytes() == expected.encode("utf-8")


def test_classify_rendering_does_not_depend_on_catalog_order(taxonomy, catalog):
    reordered = StrategyCatalog(catalog.strategies[::-1], catalog.taxonomy_version)
    path = Path(__file__).parent / "golden" / "prep_corpus.csv"
    pairs, _ = ingest_technique_masks(path, taxonomy, reordered)
    for strict_prep in (False, True):
        for pretty, render in ((False, classification_json), (True, classification_text)):
            expected = reference_classify(path, taxonomy, reordered, "strict", strict_prep, pretty)
            assert render(pairs, reordered, strict_prep) == expected


def test_classify_rendering_of_no_incident(catalog):
    assert classification_json([], catalog) == json.dumps([], indent=2) + "\n"
    assert classification_text([], catalog) == "\n"


def test_lone_surrogate_id_is_a_parse_error(taxonomy, catalog, tmp_path, capsys):
    path = tmp_path / "surrogate.json"
    path.write_text('[{"incident_id": "I-1", "year": 2020},\n'
                    ' {"incident_id": "I-\\ud800", "year": 2020, "techniques": ["T0115"]}]',
                    encoding="utf-8")
    for ingest in (ingest_histogram, materialised, library):
        with pytest.raises(ParseError, match=r"surrogate.json: incident 2: 'incident_id' cannot be encoded"):
            ingest(path, taxonomy, catalog, "strict", False)
    out = tmp_path / "out.json"
    assert main(["classify", "--corpus", str(path), "--out", str(out)]) == 1
    assert "ParseError" in capsys.readouterr().err
    assert not out.exists()


def test_streaming_commands_build_no_incident(monkeypatch, tmp_path, taxonomy):
    import influenceops.corpus as corpus_module
    import influenceops.strategies as strategies_module

    path = tmp_path / "c.csv"
    path.write_text(",".join(CSV_HEADER) + "\nI-1,a,2020,,T0115|T0085\n", encoding="utf-8")

    def no_object(*args, **kwargs):
        raise AssertionError("an Incident or a StrategyProfile was built")

    monkeypatch.setattr(corpus_module, "Incident", no_object)
    monkeypatch.setattr(strategies_module, "StrategyProfile", no_object)
    out = ["--out", str(tmp_path / "o")]  # validate takes no --out: it prints
    for argv in (["stats", *out], ["graph", "--kind", "cooccurrence", *out], ["validate"],
                 ["classify", *out], ["classify", "--strict-prep", "--pretty", *out]):
        assert main([*argv, "--corpus", str(path)]) == 0
    with pytest.raises(AssertionError):
        ingest_corpus(path, taxonomy)


def test_generate_builds_no_incident(monkeypatch, tmp_path, catalog):
    """The generate command builds no Incident; the library generate_corpus
    does, which shows that the patch takes effect."""
    import influenceops.corpus as corpus_module
    import influenceops.generate as generate_module

    def no_object(*args, **kwargs):
        raise AssertionError("an Incident was built")

    monkeypatch.setattr(corpus_module, "Incident", no_object)
    monkeypatch.setattr(generate_module, "Incident", no_object)
    spec = str(bundled_data_path("fixture_spec.json"))
    golden = Path(__file__).parent / "golden"
    for fmt in ("csv", "json"):
        out = tmp_path / f"o.{fmt}"
        assert main(["generate", "--spec", spec, "--corpus-format", fmt, "--out", str(out)]) == 0
        assert out.read_bytes() == (golden / f"fixture_corpus.{fmt}").read_bytes()
    with pytest.raises(AssertionError):
        generate_module.generate_corpus(generate_module.load_generator_spec(spec), catalog)


@st.composite
def corpus_bytes(draw):
    header = ",".join(CSV_HEADER).encode()
    prefix = draw(st.sampled_from([b"", header + b"\n", b"[", b'[{"incident_id": "I-1", ',
                                   b'[{"year": 1, "incident_id": "I-\\ud800']))
    return prefix + draw(st.binary(max_size=200)) + draw(st.sampled_from([b"", b'"}]']))


@settings(max_examples=300, deadline=None)
@given(data=corpus_bytes(), suffix=st.sampled_from([".csv", ".json"]),
       command=st.sampled_from(["stats", "validate", "classify"]))
def test_loader_fuzz_exits_with_a_code(scratch, data, suffix, command):
    path = scratch / f"fuzz{suffix}"
    path.write_bytes(data)
    # --out encodes the output as UTF-8, as a UTF-8 stdout would. validate
    # takes no --out; it prints the corpus's strings only through repr(),
    # which escapes a lone surrogate.
    out = [] if command == "validate" else ["--out", str(scratch / "fuzz.out")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main([command, "--lenient", "--corpus", str(path), *out]) in (0, 1, 2)
        assert main([command, "--corpus", str(path), *out]) in (0, 1, 2)


def document_argv(flag, path, out):
    if flag == "--spec":
        return ["generate", "--spec", path, "--out", out]
    return ["validate", flag, path]


@st.composite
def document_bytes(draw):
    prefix = draw(st.sampled_from([
        b"", b"{", b"[", b'{"version": "1", "phases": [', b'{"taxonomy_version": "2026.08", "strategies": [',
        b'{"mode": "exact-patterns", "patterns": [', b'{"mode": "marginal-solver", "marginals": {"NR": ',
    ]))
    return prefix + draw(st.binary(max_size=200))


@settings(max_examples=300, deadline=None)
@given(data=document_bytes(), flag=st.sampled_from(["--taxonomy", "--catalog", "--spec"]))
def test_document_loader_fuzz_exits_with_a_code(scratch, data, flag):
    path = scratch / "document.json"
    path.write_bytes(data)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(document_argv(flag, str(path), str(scratch / "document.out"))) in (0, 1, 2)


@pytest.mark.parametrize("flag, what", [("--taxonomy", "taxonomy"), ("--catalog", "catalog"),
                                        ("--spec", "generator spec")])
@pytest.mark.parametrize("data, where", [
    pytest.param(b'{"version": "\xff\xfe"}', "file is not valid UTF-8", id="not-utf8"),
    pytest.param(b"[" * 100_000, "is nested too deeply", id="nested"),
    pytest.param(b'{"version": ' + b"9" * 5000 + b"}", "is not valid JSON", id="digits",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")),
])
def test_unreadable_documents_exit_with_parse_error(tmp_path, capsys, flag, what, data, where):
    path = tmp_path / "document.json"
    path.write_bytes(data)
    assert main(document_argv(flag, str(path), str(tmp_path / "out"))) == 1
    err = capsys.readouterr().err
    assert err.startswith("ParseError: ") and what in err and where in err


EXTRA_TACTIC = {"id": "TA99", "name": "Extra tactic", "parent_id": "P01"}


@pytest.mark.parametrize("flag, name, edit, message", [
    pytest.param("--catalog", "catalog.json", lambda doc: doc["strategies"][0].update(description={"not": "a string"}),
                 "strategies[0]: 'description' must be a string", id="catalog-description"),
    # A misspelt profile used to switch the Table 1 tactic counts off.
    pytest.param("--taxonomy", "taxonomy.json",
                 lambda doc: doc.update(profile="tabel1", tactics=[*doc["tactics"], EXTRA_TACTIC]),
                 "taxonomy: field 'profile' must be 'table1', not 'tabel1'", id="taxonomy-profile"),
    pytest.param("--spec", "fixture_spec.json", lambda doc: doc.update(notes=["not", "a string"]),
                 "generator spec: 'notes' must be a string", id="spec-notes"),
])
def test_a_schema_field_of_the_wrong_type_is_a_schema_error(tmp_path, capsys, flag, name, edit, message):
    doc = json.loads(bundled_data_path(name).read_text(encoding="utf-8"))
    edit(doc)
    path = tmp_path / "document.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(document_argv(flag, str(path), str(out))) == 1
    assert capsys.readouterr().err == f"SchemaError: {message}\n"
    assert not out.exists()
