"""The streaming ingest path against the materialised one, and the corpus loaders
against malformed and arbitrary input.

`ingest_histogram` folds rows straight into the mask histogram; it must agree
with `classify_corpus(ingest_corpus(...))` on every document: the same
histogram, counts and ingestion report, or the same exception and message.
"""

import contextlib
import csv
import io
import json
import sys
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from influenceops import (
    DuplicateIncidentId,
    InfluenceOpsError,
    ParseError,
    UnknownTechnique,
    classify_corpus,
    ingest_corpus,
)
from influenceops.cli import main
from influenceops.corpus import CSV_HEADER
from influenceops.strategies import ClassifiedCorpus, ingest_histogram

MODES = [(mode, strict_prep) for mode in ("strict", "lenient") for strict_prep in (False, True)]

# Execution and preparation ids of several strategies, a taxonomy id of no
# strategy (T0117), and ids outside the taxonomy.
TECHNIQUES = ["T0115", "T0118", "T0114", "T0049", "X0001", "T0003", "T0022", "T0117", "T9999", "t0115"]
IDS = ["I-1", "I-2", "I-3", "I-4", "I-5", "I-6", "I-7", "I-8"]  # unique in valid documents
TEXT = st.text(alphabet="ab ,|\"\n\r\t'é", max_size=6)


def materialised(path, taxonomy, catalog, mode, strict_prep):
    corpus, report = ingest_corpus(path, taxonomy, mode)
    return classify_corpus(corpus, catalog, strict_prep), report


def outcome(ingest, path, taxonomy, catalog, mode, strict_prep):
    try:
        cc, report = ingest(path, taxonomy, catalog, mode, strict_prep)
    except InfluenceOpsError as exc:
        return type(exc), str(exc)
    return dict(cc.histogram), cc.total_count, cc.mapped_count, cc.source, report


def check_paths_agree(path, taxonomy, catalog):
    for mode, strict_prep in MODES:
        expected = outcome(materialised, path, taxonomy, catalog, mode, strict_prep)
        assert outcome(ingest_histogram, path, taxonomy, catalog, mode, strict_prep) == expected
        if isinstance(expected[0], dict):
            # Against per-incident classification, which shares no code with the fold.
            cc, _ = materialised(path, taxonomy, catalog, mode, strict_prep)
            ids = catalog.ids()
            masks = Counter(sum(1 << ids.index(s) for s in p.strategies) for p in cc.profiles)
            assert expected[0] == dict(masks)


def csv_text(header, rows):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
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
    row = [incident_id, draw(TEXT), year, "|".join(draw(st.lists(TEXT, max_size=2))),
           "|".join(draw(techniques))]
    if not valid and rarely(draw):
        row = row[: draw(st.integers(0, 4))] + draw(st.lists(TEXT, max_size=2))
    return row


@st.composite
def json_entries(draw, valid):
    entry = {
        "incident_id": "" if not valid and rarely(draw) else draw(st.sampled_from(IDS)),
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
    header = st.just(CSV_HEADER) if valid else st.sampled_from([CSV_HEADER] * 9 + [("id", "name")])
    unique = (lambda row: row[0]) if valid else None
    return st.builds(csv_text, header, st.lists(csv_rows(valid), max_size=8, unique_by=unique))


def json_documents(valid):
    unique = (lambda entry: entry["incident_id"]) if valid else None
    doc = st.lists(json_entries(valid), max_size=8, unique_by=unique)
    if not valid:
        doc = st.one_of(doc, st.sampled_from([{}, "corpus", 1]))
    return doc.map(lambda d: json.dumps(d, ensure_ascii=False))


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
    check_paths_agree(path, taxonomy, catalog)


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
    ],
)
def test_error_order_on_mixed_documents(taxonomy, catalog, tmp_path, name, text, error):
    if name.endswith(".csv"):
        text = ",".join(CSV_HEADER) + "\n" + text
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error):
        ingest_histogram(path, taxonomy, catalog)
    check_paths_agree(path, taxonomy, catalog)


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
    for ingest in (ingest_histogram, materialised):
        with pytest.raises(ParseError) as err:
            ingest(path, taxonomy, catalog, "strict", False)
        assert str(err.value).startswith(f"{path}: ")
        assert where in str(err.value)


def test_histogram_built_corpus_has_statistics_but_no_profiles(catalog):
    cc = ClassifiedCorpus.from_histogram({0: 1, 0b11: 2}, 3, "src", catalog)
    assert (len(cc), cc.total_count, cc.mapped_count, cc.source) == (3, 3, 2, "src")
    with pytest.raises(ValueError):
        cc.profiles


def test_stats_graph_and_validate_build_no_incident(monkeypatch, tmp_path):
    import influenceops.corpus as corpus_module

    path = tmp_path / "c.csv"
    path.write_text(",".join(CSV_HEADER) + "\nI-1,a,2020,,T0115\n", encoding="utf-8")

    def no_incident(*args, **kwargs):
        raise AssertionError("an Incident was built")

    monkeypatch.setattr(corpus_module, "Incident", no_incident)
    for argv in (["stats"], ["graph", "--kind", "cooccurrence"], ["validate"]):
        assert main([*argv, "--corpus", str(path), "--out", str(tmp_path / "o")]) == 0
    with pytest.raises(AssertionError):
        main(["classify", "--corpus", str(path), "--out", str(tmp_path / "o")])


@st.composite
def corpus_bytes(draw):
    header = ",".join(CSV_HEADER).encode()
    prefix = draw(st.sampled_from([b"", header + b"\n", b"[", b'[{"incident_id": "I-1", ']))
    return prefix + draw(st.binary(max_size=200))


@settings(max_examples=300, deadline=None)
@given(data=corpus_bytes(), suffix=st.sampled_from([".csv", ".json"]),
       command=st.sampled_from(["stats", "validate"]))
def test_loader_fuzz_exits_with_a_code(scratch, data, suffix, command):
    path = scratch / f"fuzz{suffix}"
    path.write_bytes(data)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main([command, "--lenient", "--corpus", str(path)]) in (0, 1, 2)
        assert main([command, "--corpus", str(path)]) in (0, 1, 2)
