import csv
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from influenceops import (
    Corpus,
    DuplicateIncidentId,
    EmptyCorpus,
    Incident,
    ParseError,
    UnknownTechnique,
    corpus_summary,
    corpus_to_csv,
    corpus_to_json,
    ingest_corpus,
    loads_corpus_csv,
    loads_corpus_json,
    loads_taxonomy,
)
from influenceops.resources import bundled_data_path

from helpers import corpus_of, incident

CSV_OK = (
    "incident_id,title,year,targets,techniques\n"
    "INC-1,Election push,2016,Country A|Country B,T0115|T0049\n"
    "INC-2,Referendum op,2020,Country C,T0114\n"
)


def test_csv_ingest_two_rows(taxonomy):
    corpus, report = loads_corpus_csv(CSV_OK, taxonomy)
    assert len(corpus) == 2
    assert corpus.incidents[0].incident_id == "INC-1"
    assert corpus.incidents[0].targets == ("Country A", "Country B")
    assert corpus.incidents[0].techniques == {"T0115", "T0049"}
    assert corpus.incidents[1].year == 2020
    assert report.dropped == ()


def test_strict_mode_rejects_unknown_technique(taxonomy):
    bad = CSV_OK.replace("T0114", "T0115;typo")
    with pytest.raises(UnknownTechnique) as err:
        loads_corpus_csv(bad, taxonomy, mode="strict")
    assert "T0115;typo" in str(err.value)
    assert "incident 2" in str(err.value)


def test_lenient_mode_drops_unknown_technique_with_warning(taxonomy):
    bad = CSV_OK.replace("T0114", "T0115;typo")
    corpus, report = loads_corpus_csv(bad, taxonomy, mode="lenient")
    assert len(corpus) == 2
    assert corpus.incidents[1].techniques == frozenset()
    assert len(report.dropped) == 1
    assert report.dropped[0].technique_id == "T0115;typo"
    assert "INC-2" in report.warnings()[0]


def test_duplicate_incident_id_rejected(taxonomy):
    dup = CSV_OK.replace("INC-2", "INC-1")
    with pytest.raises(DuplicateIncidentId):
        loads_corpus_csv(dup, taxonomy)


def test_header_only_document_is_empty_corpus(taxonomy):
    with pytest.raises(EmptyCorpus):
        loads_corpus_csv("incident_id,title,year,targets,techniques\n", taxonomy)


def test_wrong_header_is_parse_error(taxonomy):
    with pytest.raises(ParseError):
        loads_corpus_csv("id,name\nx,y\n", taxonomy)


def test_non_integer_year_is_parse_error(taxonomy):
    bad = CSV_OK.replace("2016", "sixteen")
    with pytest.raises(ParseError):
        loads_corpus_csv(bad, taxonomy)


def test_json_ingest_and_errors(taxonomy):
    text = corpus_to_json(corpus_of([{"T0115"}, set()]))
    corpus, _ = loads_corpus_json(text, taxonomy)
    assert len(corpus) == 2
    with pytest.raises(ParseError):
        loads_corpus_json("{}", taxonomy)
    with pytest.raises(ParseError):
        loads_corpus_json('[{"incident_id": "x", "year": "2020"}]', taxonomy)


@pytest.mark.parametrize("loads", [loads_corpus_csv, loads_corpus_json])
def test_an_unknown_ingest_mode_is_a_value_error(taxonomy, loads):
    text = CSV_OK if loads is loads_corpus_csv else corpus_to_json(corpus_of([{"T0115"}]))
    with pytest.raises(ValueError) as err:
        loads(text, taxonomy, mode="Lenient")
    assert str(err.value) == "mode must be 'strict' or 'lenient', got 'Lenient'"


def test_csv_round_trip(taxonomy):
    corpus, _ = loads_corpus_csv(CSV_OK, taxonomy)
    again, _ = loads_corpus_csv(corpus_to_csv(corpus), taxonomy)
    assert again.incidents == corpus.incidents
    # serialization itself is stable
    assert corpus_to_csv(again) == corpus_to_csv(corpus)


def test_csv_round_trip_with_quoting(taxonomy):
    tricky = Corpus(
        (
            Incident(
                incident_id='I-"quoted"',
                title="Commas, pipes and\nnewlines",
                year=2021,
                targets=("A,B",),
                techniques=frozenset({"T0115"}),
            ),
        ),
        "test",
    )
    again, _ = loads_corpus_csv(corpus_to_csv(tricky), taxonomy)
    assert again.incidents == tricky.incidents


_LINE_ENDS = ("a\rb", "a\r", "a\r\nb", "a\nb")


def _line_ends_corpus():
    return Corpus(
        tuple(
            Incident(f"I-{i}", text, 2020, (text, "B"), frozenset({"T0115", "T0049"}))
            for i, text in enumerate(_LINE_ENDS)
        ),
        "test",
    )


def test_csv_round_trip_keeps_line_ends(taxonomy, tmp_path):
    """Titles and targets holding "\r" or "\n" read back exactly, from text and from a file."""
    corpus = _line_ends_corpus()
    text = corpus_to_csv(corpus)
    path = tmp_path / "c.csv"
    path.write_text(text, encoding="utf-8", newline="")
    for again, _ in (loads_corpus_csv(text, taxonomy), ingest_corpus(path, taxonomy)):
        assert again.incidents == corpus.incidents


def test_csv_quotes_line_ends_on_every_python():
    """Every field holding "\r" or "\n" is quoted, so each version writes these bytes."""
    assert corpus_to_csv(_line_ends_corpus()).encode("utf-8") == (
        b"incident_id,title,year,targets,techniques\n"
        b'I-0,"a\rb",2020,"a\rb|B",T0049|T0115\n'
        b'I-1,"a\r",2020,"a\r|B",T0049|T0115\n'
        b'I-2,"a\r\nb",2020,"a\r\nb|B",T0049|T0115\n'
        b'I-3,"a\nb",2020,"a\nb|B",T0049|T0115\n'
    )


def test_csv_round_trip_of_nul(taxonomy):
    """NUL in a title, a target and a technique id: read back exactly from
    Python 3.11 on; 3.10's csv reader refuses NUL, which is a typed error."""
    doc = json.loads(bundled_data_path("taxonomy.json").read_text(encoding="utf-8"))
    doc["techniques"].append({"id": "T\x00NUL", "name": "NUL technique", "parent_id": "TA09"})
    with_nul = loads_taxonomy(json.dumps(doc))
    corpus = Corpus((Incident("I-1", "a\x00b", 2020, ("E\x00U",), frozenset({"T0115", "T\x00NUL"})),), "<csv>")
    text = corpus_to_csv(corpus)
    assert text == "incident_id,title,year,targets,techniques\nI-1,a\x00b,2020,E\x00U,T\x00NUL|T0115\n"
    if sys.version_info < (3, 11):
        with pytest.raises(ParseError, match="row 1: line contains NUL"):
            loads_corpus_csv(text, with_nul)
    else:
        again, _ = loads_corpus_csv(text, with_nul)
        assert again == corpus


def test_csv_cannot_hold_an_empty_list_item_or_one_with_a_pipe(taxonomy):
    """CSV joins a list with "|" and drops empty items when it reads one, so
    such items do not round-trip: what CSV reads back is pinned here."""
    json_text = '[{"incident_id": "I-1", "year": 2020, "targets": ["US|EU", ""], "techniques": ["T0115"]}]'
    corpus, _ = loads_corpus_json(json_text, taxonomy)
    assert corpus.incidents[0].targets == ("US|EU", "")
    text = corpus_to_csv(corpus)
    assert text == "incident_id,title,year,targets,techniques\nI-1,,2020,US|EU|,T0115\n"
    again, _ = loads_corpus_csv(text, taxonomy)
    assert again.incidents[0].targets == ("US", "EU")

    # A taxonomy technique id holding "|" is written unquoted and read back as
    # two ids, so CSV cannot reference it; JSON can.
    doc = json.loads(bundled_data_path("taxonomy.json").read_text(encoding="utf-8"))
    doc["techniques"].append({"id": "T|X", "name": "Pipe technique", "parent_id": "TA09"})
    with_pipe = loads_taxonomy(json.dumps(doc))
    corpus = Corpus((Incident("I-1", "a", 2020, (), frozenset({"T|X"})),), "<csv>")
    text = corpus_to_csv(corpus)
    assert text == "incident_id,title,year,targets,techniques\nI-1,a,2020,,T|X\n"
    with pytest.raises(UnknownTechnique, match="references unknown technique 'T'"):
        loads_corpus_csv(text, with_pipe)
    assert loads_corpus_json(corpus_to_json(corpus), with_pipe)[0].incidents == corpus.incidents


def test_json_round_trip(taxonomy):
    corpus, _ = loads_corpus_csv(CSV_OK, taxonomy)
    again, _ = loads_corpus_json(corpus_to_json(corpus), taxonomy)
    assert again.incidents == corpus.incidents


def test_ingest_corpus_detects_format_by_extension(taxonomy, tmp_path):
    csv_path = tmp_path / "c.csv"
    csv_path.write_text(CSV_OK, encoding="utf-8")
    corpus, _ = ingest_corpus(csv_path, taxonomy)
    json_path = tmp_path / "c.json"
    json_path.write_text(corpus_to_json(corpus), encoding="utf-8")
    again, _ = ingest_corpus(json_path, taxonomy)
    assert again.incidents == corpus.incidents


def test_summary_counts_and_year_range():
    corpus = Corpus(
        (
            incident(1, {"T0115"}, year=2016),
            incident(2, {"T0115", "T0049"}, year=2020),
            incident(3, {"T0115"}, year=2024),
        ),
        "test",
    )
    summary = corpus_summary(corpus)
    assert summary.incident_count == 3
    assert (summary.year_min, summary.year_max) == (2016, 2024)
    # most frequent technique heads the table; ties broken by id
    assert summary.technique_counts[0] == ("T0115", 3)
    assert summary.technique_counts[1] == ("T0049", 1)


def test_summary_of_empty_corpus_raises():
    with pytest.raises(EmptyCorpus):
        corpus_summary(Corpus((), "test"))


# --- serialisers against the standard library ------------------------------------

# Non-ASCII and astral text, quotes, backslashes, control characters, CSV
# delimiters and the "|" list separator.
_text = st.text(alphabet=st.sampled_from('aZ09 é€😀"\\,|\n\r\t\x00\x1f\x7f\u2028')) | st.text()
_incidents = st.builds(
    Incident,
    incident_id=_text,
    title=_text,
    year=st.integers(-(10**6), 10**6),
    targets=st.lists(_text, max_size=3).map(tuple),
    techniques=st.frozensets(_text, max_size=4),
)
_corpora = st.lists(_incidents, max_size=6).map(lambda incidents: Corpus(tuple(incidents)))


@settings(max_examples=300, deadline=None)
@given(corpus=_corpora)
def test_corpus_to_json_matches_json_dumps(corpus):
    doc = [
        {
            "incident_id": incident.incident_id,
            "title": incident.title,
            "year": incident.year,
            "targets": list(incident.targets),
            "techniques": sorted(incident.techniques),
        }
        for incident in corpus.incidents
    ]
    assert corpus_to_json(corpus) == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


@settings(max_examples=300, deadline=None)
@given(corpus=_corpora)
def test_corpus_to_csv_matches_csv_writer(corpus):
    def line(fields):
        # csv.writer as Python 3.13 writes with "\n" line ends, on every
        # version: "\r\n" line ends make each version quote every field
        # holding "\r" or "\n". NUL is quoted by no version, but 3.10's
        # writer refuses it, so it goes through a stand-in (no text() draws
        # a surrogate).
        out = io.StringIO()
        csv.writer(out, lineterminator="\r\n").writerow(
            [f.replace("\0", "\udfff") if isinstance(f, str) else f for f in fields]
        )
        return out.getvalue()[:-2].replace("\udfff", "\0") + "\n"

    expected = line(["incident_id", "title", "year", "targets", "techniques"]) + "".join(
        line(
            [
                incident.incident_id,
                incident.title,
                incident.year,
                "|".join(incident.targets),
                "|".join(sorted(incident.techniques)),
            ]
        )
        for incident in corpus.incidents
    )
    assert corpus_to_csv(corpus) == expected


def test_serialisers_on_an_empty_corpus():
    assert corpus_to_json(Corpus(())) == "[]\n"
    assert corpus_to_csv(Corpus(())) == "incident_id,title,year,targets,techniques\n"
