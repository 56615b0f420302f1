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
rendered as the command did before it streamed, or the same error, and
its JSON must hold to `docs/schemas/classify.schema.json`.
"""

import contextlib
import csv
import io
import json
import random
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_ingest
from helpers import non_disjoint_catalog, profiles_of
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
from influenceops.evidence import (
    classification_json,
    classification_json_chunks,
    classification_text,
    classification_text_chunks,
    ingest_technique_masks,
)
from influenceops.render import CHUNK_ROWS
from influenceops.resources import bundled_data_path
from influenceops.strategies import (
    STRATEGY_ORDER,
    ClassifiedCorpus,
    StrategyCatalog,
    ingest_histogram,
    loads_strategy_catalog,
    match_strategies,
)

CLASSIFY_SCHEMA = jsonschema.Draft7Validator(json.loads(
    (Path(__file__).parents[1] / "docs" / "schemas" / "classify.schema.json").read_text(encoding="utf-8")))
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
    return cc, report


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
        if isinstance(expected[0], ClassifiedCorpus):
            # Against per-incident classification, which shares no code with the fold.
            corpus, _ = reference_ingest.ingest_corpus(path, taxonomy, mode)
            ids = catalog.ids()
            profiles = profiles_of(corpus, catalog, strict_prep)
            masks = Counter(sum(1 << ids.index(s) for s in p.strategies) for p in profiles)
            assert expected[0].histogram == masks
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
        year = draw(st.sampled_from(["x", "", "20.5", "2_020", " 2021", "02020", "+2021", "٢٠٢٢", "-0"]))
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
    if rarely(draw):
        # A key that ingest never reads: an object under it is no incident,
        # even one that repeats an id or names an unknown technique.
        nested = st.sampled_from([{}, nested_incident(draw)])
        entry["notes"] = draw(st.one_of(nested, st.lists(nested, max_size=2)))
    if not valid and rarely(draw):
        key = draw(st.sampled_from(sorted(entry)))
        entry[key] = draw(st.sampled_from([None, True, 3, "2020", ["T0115", 7], {}, nested_incident(draw),
                                           ["EU", nested_incident(draw)]]))
    if not valid and rarely(draw):
        return draw(st.sampled_from([[], "I-1", 1, None]))
    return entry


def nested_incident(draw):
    """An object that would pass as an incident at the top level."""
    return {"incident_id": draw(st.sampled_from(IDS)), "year": 2020, "techniques": draw(techniques)}


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
        # An object where a string belongs fails the enclosing incident, even one shaped like an incident.
        ("nested-title.json", '[{"incident_id": "I-1", "year": 1, "techniques": ["T9999"]},'
         ' {"incident_id": "I-2", "year": 1, "title": {"incident_id": "I-3", "year": 1}}]', ParseError),
        ("nested-targets.json", '[{"incident_id": "I-1", "year": 1, "targets": ["EU", {"incident_id": "I-2",'
         ' "year": 1}]}, {"incident_id": "I-1", "year": 2}]', ParseError),
        ("nested-empty-in-targets.json", '[{"incident_id": "I-1", "year": 1, "targets": [{}]}]', ParseError),
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
    if name.startswith("nested-"):
        assert str(err.value).endswith(("incident 2: 'title' must be a string",
                                        "incident 1: 'targets' must be an array of strings"))
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
        # int() takes each of these years, which corpus_to_csv would write back otherwise.
        *(
            (f"year-{kind}.csv", f"{','.join(CSV_HEADER)}\nI-1,a,2020,,\nI-2,b,{year},,T0115\n".encode(),
             f"row 2: year {year!r} is not an integer in canonical decimal")
            for kind, year in [("underscore", "2_020"), ("sign-and-spaces", " +2021 "), ("arabic-indic", "٢٠٢٢"),
                               ("leading-zero", "02020"), ("minus-zero", "-0")]
        ),
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
    cc = ClassifiedCorpus(catalog, {0: 1, 0b11: 2}, "src")
    assert (len(cc), cc.total_count, cc.mapped_count, cc.source) == (3, 3, 2, "src")


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


def test_a_technique_with_two_roles_is_classified_alike_on_every_path(taxonomy, catalog, tmp_path):
    hand_built = non_disjoint_catalog(catalog)
    nr, ns, na = (hand_built.by_id(s) for s in ("NR", "NS", "NA"))
    shared = min(catalog.by_id("NS").preparation_techniques)
    # Every subset of the three execution techniques, the two shared
    # preparation techniques and one preparation technique of NS and of NA alone.
    pool = [nr.execution_technique, ns.execution_technique, na.execution_technique, shared,
            max(ns.preparation_techniques - {shared, nr.execution_technique}),
            max(na.preparation_techniques - {shared})]
    rows = ["|".join(t for k, t in enumerate(pool) if m >> k & 1) for m in range(1 << len(pool))]
    path = tmp_path / "two_roles.csv"
    path.write_text(
        ",".join(CSV_HEADER) + "\n" + "".join(f"I-{m},t,2020,,{row}\n" for m, row in enumerate(rows)),
        encoding="utf-8",
    )
    corpus, _ = ingest_corpus(path, taxonomy)
    ids = hand_built.ids()
    for strict_prep in (False, True):
        reference = [reference_ingest.classify_incident(i, hand_built, strict_prep) for i in corpus.incidents]
        expected = Counter(sum(1 << ids.index(s) for s in p.strategies) for p in reference)
        pairs, _ = ingest_technique_masks(path, taxonomy, hand_built)
        from_pairs = Counter(sm for _, sm, _ in match_strategies(pairs, hand_built, strict_prep, lambda i, m: None))
        assert ingest_histogram(path, taxonomy, hand_built, "strict", strict_prep)[0].histogram == expected
        assert classify_corpus(corpus, hand_built, strict_prep).histogram == expected
        assert from_pairs == expected
        for pretty in (False, True):
            render = classification_text if pretty else classification_json
            pairs, _ = ingest_technique_masks(path, taxonomy, hand_built)
            assert render(pairs, hand_built, strict_prep) == reference_classify(
                path, taxonomy, hand_built, "strict", strict_prep, pretty
            )
    # NS matches under strict_prep with NR's execution technique as its preparation.
    only = corpus.incidents[0b011]
    assert reference_ingest.classify_incident(only, hand_built, True).evidence == {
        "NS": (ns.execution_technique, nr.execution_technique)
    }


def canonical(strategy_ids):
    """The ids in the canonical enumeration order, whatever the catalog's."""
    return [s for s in STRATEGY_ORDER if s in strategy_ids]


def pretty_id(incident_id):
    """An id as `classify --pretty` prints it: quoted with ASCII escapes when
    it is not printable or starts with a double quote."""
    if incident_id.isprintable() and not incident_id.startswith('"'):
        return incident_id
    return json.dumps(incident_id)


def reference_classify(path, taxonomy, catalog, mode, strict_prep, pretty):
    """The `classify` output rendered from the reference's set-based profiles
    of the reference's corpus, as the command did before it streamed."""
    corpus, _ = reference_ingest.ingest_corpus(path, taxonomy, mode)
    profiles = [reference_ingest.classify_incident(i, catalog, strict_prep) for i in corpus.incidents]
    if pretty:
        lines = [
            f"{pretty_id(p.incident_id)}: {'+'.join(canonical(p.strategies)) or '(unmapped)'}"
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
        if not pretty:
            assert list(CLASSIFY_SCHEMA.iter_errors(json.loads(out.read_text(encoding="utf-8")))) == []


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


@pytest.mark.parametrize("rows", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS])
@pytest.mark.parametrize("pretty", [False, True], ids=["json", "pretty"])
def test_classify_output_across_chunk_boundaries(taxonomy, catalog, tmp_path, capsysbinary, rows, pretty):
    """Each golden is shorter than one chunk. At and around the chunk sizes,
    stdout and --out both hold the library's text, which is the reference's
    rendering, and the library renders it in as many chunks as the rows fill.
    With no row the library's text is one chunk, and the command's
    EmptyCorpus leaves stdout empty and --out as it was."""
    rng = random.Random(rows)
    path = tmp_path / "corpus.csv"
    path.write_text("".join([",".join(CSV_HEADER) + "\n"] + [
        f"I-{k},t,2020,,{'|'.join(rng.sample(TECHNIQUES[:10], rng.randint(0, 4)))}\n" for k in range(rows)
    ]), encoding="utf-8")
    pairs = ingest_technique_masks(path, taxonomy, catalog)[0] if rows else []  # a file of no row is refused
    render, chunks = (classification_text, classification_text_chunks) if pretty else \
        (classification_json, classification_json_chunks)
    expected = render(pairs, catalog)
    assert len(list(chunks(pairs, catalog))) == max(1, -(-rows // CHUNK_ROWS))
    argv = ["classify", "--corpus", str(path)] + ["--pretty"] * pretty
    out = tmp_path / "out"
    out.write_bytes(b"old\n")
    if rows == 0:
        assert expected == ("\n" if pretty else "[]\n")
        assert main(argv) == main([*argv, "--out", str(out)]) == 1
        assert capsysbinary.readouterr().out == b""
        assert out.read_bytes() == b"old\n"
        return
    assert expected == reference_classify(path, taxonomy, catalog, "strict", False, pretty)
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == expected.encode("utf-8")
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == expected.encode("utf-8")


def test_the_classify_memo_is_bounded_by_the_catalog(catalog):
    """The classify JSON of 4N incidents, each of a different strategy set and
    matched preparation techniques, peaks within 10% of the traced peak for N
    of them: its memos are bounded by the catalog, not by the corpus. A memo
    per whole row, or a half's key that keeps another half's own bits, grows
    with the rows. Each chunk is dropped as it comes; the pairs are built first."""
    import tracemalloc
    from functools import reduce
    from operator import or_

    n, bits = 5_000, catalog.technique_bits
    # Per strategy, its technique masks: absent, or present with one subset of its preparation techniques.
    choices = []
    for s in catalog.strategies:
        preps = sorted(s.preparation_techniques)
        subsets = ([p for k, p in enumerate(preps) if m >> k & 1] for m in range(1 << len(preps)))
        choices.append([0] + [reduce(or_, map(bits.get, subset), bits[s.execution_technique]) for subset in subsets])
    space = 1
    for c in choices:
        space *= len(c)

    def technique_mask(key):
        tm = 0
        for c in choices:
            key, digit = divmod(key, len(c))
            tm |= c[digit]
        return tm

    pairs = [(f"I-{k}", technique_mask(key)) for k, key in enumerate(random.Random(3).sample(range(space), 4 * n))]

    def peak(pairs):
        tracemalloc.start()
        try:
            for _ in classification_json_chunks(pairs, catalog):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(pairs[:10])  # loads what any first call loads
    few, many = peak(pairs[:n]), peak(pairs)
    assert many < 1.1 * few, (few, many)


@pytest.mark.parametrize(
    "incident_id, printed",
    [
        ("I-1", "I-1"),
        ('Q-"7"', 'Q-"7"'),
        ("É-6 «été»", "É-6 «été»"),
        ('"I-1"', '"\\"I-1\\""'),
        ("I\u00a01", '"I\\u00a01"'),
        ("C-\x07\t\n\x7f\x85\u2028", '"C-\\u0007\\t\\n\\u007f\\u0085\\u2028"'),
    ],
)
def test_classify_pretty_quotes_ids_that_are_not_printable(catalog, incident_id, printed):
    assert classification_text([(incident_id, 0)], catalog) == f"{printed}: (unmapped)\n"


def test_classify_pretty_prints_one_line_per_incident(capsys, monkeypatch):
    monkeypatch.chdir(Path(__file__).parent)
    assert main(["classify", "--pretty", "--corpus", "golden/escaped_ids.json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert all(line.isprintable() for line in lines)


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


def test_json_corpus_scan_keeps_no_incident_object(taxonomy, catalog):
    """A JSON corpus scan holds no incident dict past its own checks: its
    peak allocation stays under a third of json.loads' on the same text."""
    import random
    import tracemalloc

    from influenceops.corpus import _scan_json, technique_table

    rng = random.Random(5)
    ids = [t.id for t in taxonomy.techniques]
    text = json.dumps([
        {"incident_id": f"INC-{k:05d}", "title": f"Operation {rng.random():.6f}", "year": rng.randint(2010, 2024),
         "targets": rng.sample(["US", "EU", "UA", "DE", "FR"], 2), "techniques": rng.sample(ids, rng.randint(1, 6))}
        for k in range(5000)
    ], indent=2)
    bits = technique_table(taxonomy, catalog.technique_bits)

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    whole = peak(lambda: json.loads(text))
    scan = peak(lambda: _scan_json(text, "<json>", bits, "strict", None))
    assert scan < whole / 3, (scan, whole)


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
                 "strategies[0]: field 'description' must be a string", id="catalog-description"),
    # A misspelt profile used to switch the Table 1 tactic counts off.
    pytest.param("--taxonomy", "taxonomy.json",
                 lambda doc: doc.update(profile="tabel1", tactics=[*doc["tactics"], EXTRA_TACTIC]),
                 "taxonomy: field 'profile' must be 'table1', not 'tabel1'", id="taxonomy-profile"),
    pytest.param("--spec", "fixture_spec.json", lambda doc: doc.update(notes=["not", "a string"]),
                 "generator spec: field 'notes' must be a string", id="spec-notes"),
    # Taxonomy loader: the document, its fields and its entries.
    pytest.param("--taxonomy", "taxonomy.json", ["not", "an object"],
                 "taxonomy document must be a JSON object", id="taxonomy-not-object"),
    pytest.param("--taxonomy", "taxonomy.json", lambda doc: doc.update(version=""),
                 "taxonomy: field 'version' must be a non-empty string", id="taxonomy-version"),
    pytest.param("--taxonomy", "taxonomy.json", lambda doc: doc.update(tactics={"TA01": "Plan strategy"}),
                 "taxonomy: field 'tactics' must be an array", id="taxonomy-tactics"),
    pytest.param("--taxonomy", "taxonomy.json", lambda doc: doc.update(profile=1),
                 "taxonomy: field 'profile' must be a string", id="taxonomy-profile-type"),
    # null used to read as an absent profile; the schema refuses it.
    pytest.param("--taxonomy", "taxonomy.json", lambda doc: doc.update(profile=None),
                 "taxonomy: field 'profile' must be a string", id="taxonomy-profile-null"),
    pytest.param("--taxonomy", "taxonomy.json", lambda doc: doc.update(provenance=["a", "b"]),
                 "taxonomy: field 'provenance' must be a string", id="taxonomy-provenance"),
    pytest.param("--taxonomy", "taxonomy.json", lambda doc: doc["phases"].__setitem__(2, "Execute"),
                 "phases[2]: must be an object", id="taxonomy-entry"),
    pytest.param("--taxonomy", "taxonomy.json", lambda doc: doc["techniques"][1].update(parent_id=9),
                 "techniques[1]: field 'parent_id' must be a non-empty string", id="taxonomy-entry-field"),
    pytest.param("--taxonomy", "taxonomy.json", lambda doc: doc["phases"][3].update(id="P01"),
                 "taxonomy document is invalid:\n[duplicate-id] duplicate phase id 'P01'\n"
                 "[orphan-tactic] tactic 'TA12' references unknown phase 'P04'", id="taxonomy-invalid"),
    # A key twice in one object: the last value used to win silently, except in a spec.
    pytest.param("--taxonomy", "taxonomy.json", b'{"version": "1", "version": "2"}',
                 "taxonomy document: key 'version' appears twice in one object", id="taxonomy-repeated-key"),
    pytest.param("--catalog", "catalog.json",
                 b'{"taxonomy_version": "2026.08", "strategies": [{"id": "NR", "name": "Narrative Release",'
                 b' "execution_technique": "T0115", "execution_technique": "T0049"}]}',
                 "catalog document: key 'execution_technique' appears twice in one object", id="catalog-repeated-key"),
    pytest.param("--spec", "fixture_spec.json", b'{"mode": "exact-patterns", "seed": 1, "seed": 2}',
                 "generator spec: key 'seed' appears twice in one object", id="spec-repeated-key"),
    # Catalog loader.
    pytest.param("--catalog", "catalog.json", [{"taxonomy_version": "2026.08", "strategies": []}],
                 "catalog document must be a JSON object", id="catalog-not-object"),
    pytest.param("--catalog", "catalog.json", lambda doc: doc.update(strategies={"NR": {}}),
                 "catalog: field 'strategies' must be an array", id="catalog-no-strategies"),
    pytest.param("--catalog", "catalog.json", lambda doc: doc.update(taxonomy_version=2026.08),
                 "catalog: field 'taxonomy_version' must be a string", id="catalog-version"),
    pytest.param("--catalog", "catalog.json", lambda doc: doc["strategies"].__setitem__(1, "NS"),
                 "strategies[1]: must be an object", id="catalog-entry"),
    pytest.param("--catalog", "catalog.json", lambda doc: doc["strategies"][0].update(name=""),
                 "strategies[0]: field 'name' must be a non-empty string", id="catalog-name"),
    pytest.param("--catalog", "catalog.json", lambda doc: doc["strategies"][2].update(preparation_techniques="T0085"),
                 "strategies[2]: field 'preparation_techniques' must be an array of strings", id="catalog-preparation"),
    pytest.param("--catalog", "catalog.json", lambda doc: doc["strategies"][0]["preparation_techniques"].append("T0085"),
                 "strategies[0]: repeated preparation technique in ['T0085', 'T0085', 'T0086', 'T0101', 'X0001']",
                 id="catalog-repeated-preparation"),
    pytest.param("--catalog", "catalog.json", lambda doc: doc["strategies"].append(doc["strategies"][0]),
                 "duplicate strategy ids in catalog: ['NR', 'NS', 'NA', 'CNR', 'NM', 'TD', 'IP', 'NR']",
                 id="catalog-duplicate-id"),
    # Generator-spec loader.
    pytest.param("--spec", "fixture_spec.json", "marginal-solver",
                 "generator spec must be a JSON object", id="spec-not-object"),
    pytest.param("--spec", "fixture_spec.json", lambda doc: doc.update(mode="marginal"),
                 "generator spec: field 'mode' must be 'exact-patterns' or 'marginal-solver', not 'marginal'",
                 id="spec-mode"),
    pytest.param("--spec", "fixture_spec.json", lambda doc: doc["marginals"].update(NR=-1),
                 "marginals: field 'NR' must be a non-negative integer", id="spec-marginal-value"),
    pytest.param("--spec", "fixture_spec.json", lambda doc: doc.update(pinned_patterns={"NR": 4}),
                 "generator spec: field 'pinned_patterns' must be an array", id="spec-patterns"),
    pytest.param("--spec", "fixture_spec.json",
                 lambda doc: doc.update(pattern_counts=[{"strategies": ["NR"], "count": 1}, 7]),
                 "pattern_counts[1]: must be an object", id="spec-pattern-entry"),
    pytest.param("--spec", "fixture_spec.json", lambda doc: doc["pinned_patterns"][0].update(strategies=[]),
                 "pinned_patterns[0]: field 'strategies' must not be empty", id="spec-pattern-strategies"),
    pytest.param("--spec", "fixture_spec.json", lambda doc: doc["pinned_patterns"][3].update(min_count=True),
                 "pinned_patterns[3]: field 'min_count' must be a non-negative integer", id="spec-pattern-count"),
    pytest.param("--spec", "fixture_spec.json",
                 lambda doc: doc["pinned_patterns"][1].update(strategies=["NR", "IP", "NA", "NM", "TD", "NS", "CNR"]),
                 "pinned_patterns[1]: duplicate pattern ['CNR', 'IP', 'NA', 'NM', 'NR', 'NS', 'TD']",
                 id="spec-duplicate-pattern"),
    pytest.param("--spec", "fixture_spec.json", lambda doc: doc.update(marginals=[["NR", 78]]),
                 "generator spec: field 'marginals' must be an object", id="spec-marginals"),
    pytest.param("--spec", "fixture_spec.json", lambda doc: doc.update(size_distribution=[6, 11]),
                 "generator spec: field 'size_distribution' must be an object", id="spec-size-distribution"),
    pytest.param("--spec", "fixture_spec.json", lambda doc: doc["size_distribution"].update({"0": 1}),
                 "size_distribution: size 0 must be >= 1", id="spec-size-0"),
    pytest.param("--spec", "fixture_spec.json", lambda doc: doc["size_distribution"].update({"9" * 5000: 1}),
                 f"size_distribution: key {'9' * 5000!r} is too large", id="spec-size-too-large",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")),
])
def test_a_schema_field_of_the_wrong_type_is_a_schema_error(tmp_path, capsys, flag, name, edit, message):
    doc = json.loads(bundled_data_path(name).read_text(encoding="utf-8"))
    if callable(edit):
        edit(doc)
    else:  # the whole document
        doc = edit
    path = tmp_path / "document.json"
    if isinstance(doc, bytes):  # its text, which json.dumps could not give
        path.write_bytes(doc)
    else:
        path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(document_argv(flag, str(path), str(out))) == 1
    assert capsys.readouterr().err == f"SchemaError: {message}\n"
    assert not out.exists()
