"""The paper's workflow as a property: the spec read off a report gives back the report.

A report's ``patterns.rows`` and ``coverage`` are its whole histogram, so an
``exact-patterns`` spec of them, generated, written as a corpus file and
scanned again, gives back the same report. A ``marginal-solver`` spec of its
prevalence and size counts gives back those blocks, whatever the solver
chooses, and the whole report once every row is pinned at its exact count.
Each spec is built from the report's JSON text, as a user would build it.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from influenceops import corpus_to_csv, corpus_to_json, generate_corpus, loads_generator_spec
from influenceops.report import build_report, report_to_json
from influenceops.strategies import ClassifiedCorpus, ingest_histogram

from helpers import four_strategy_catalog, histograms

WRITERS = {"csv": corpus_to_csv, "json": corpus_to_json}
# Small counts, for many ties in the solver, and some larger ones.
COUNTS = st.integers(1, 4) | st.integers(1, 60)
# Each corpus format under each rule: (format, strict_prep, include_preparation).
# A strict-prep scan needs the preparation techniques.
RUNS = [(fmt, strict_prep, include_preparation) for fmt in WRITERS
        for strict_prep, include_preparation in [(False, False), (False, True), (True, True)]]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("roundtrip")


@pytest.fixture(scope="module", params=["bundled", "four"])
def chosen(request, catalog):
    return catalog if request.param == "bundled" else four_strategy_catalog(catalog)


def report_of(histogram, catalog, path, strict_prep):
    """The report's JSON text of a drawn histogram, as if it were scanned from ``path``."""
    return report_to_json(build_report(ClassifiedCorpus(catalog, histogram, str(path), strict_prep)))


def round_trip(spec_doc, taxonomy, catalog, path, strict_prep):
    """The report's JSON text of the corpus that the spec generates, written to
    ``path`` and scanned again."""
    corpus = generate_corpus(loads_generator_spec(json.dumps(spec_doc)), catalog)
    path.write_text("".join(WRITERS[path.suffix[1:]](corpus)), encoding="utf-8")
    cc, _ = ingest_histogram(path, taxonomy, catalog, "strict", strict_prep)
    return report_to_json(build_report(cc))


def marginal_spec(report, seed, include_preparation, pinned):
    """The solver spec of the report's prevalence and size counts, with every
    pattern row pinned at its exact count if ``pinned``."""
    return {
        "mode": "marginal-solver", "seed": seed, "include_preparation": include_preparation,
        "unmapped_count": report["coverage"]["total"] - report["coverage"]["mapped"],
        "marginals": {entry["id"]: entry["count"] for entry in report["prevalence"]["strategies"]},
        "size_distribution": report["size_distribution"]["counts"],
        "pinned_patterns": [{"strategies": row["strategies"], "min_count": row["exact"]}
                            for row in report["patterns"]["rows"]] if pinned else [],
    }


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_the_exact_spec_of_a_report_gives_back_the_report(taxonomy, chosen, scratch, data, seed):
    histogram = data.draw(histograms(chosen, COUNTS))
    for fmt, strict_prep, include_preparation in RUNS:
        path = scratch / f"corpus.{fmt}"
        text = report_of(histogram, chosen, path, strict_prep)
        report = json.loads(text)
        spec = {
            "mode": "exact-patterns", "seed": seed, "include_preparation": include_preparation,
            "unmapped_count": report["coverage"]["total"] - report["coverage"]["mapped"],
            "pattern_counts": [{"strategies": row["strategies"], "count": row["exact"]}
                               for row in report["patterns"]["rows"]],
        }
        assert round_trip(spec, taxonomy, chosen, path, strict_prep) == text, (fmt, strict_prep, include_preparation)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_the_marginal_spec_of_a_report_pinning_every_row_gives_back_the_report(taxonomy, chosen, scratch, data,
                                                                                seed):
    histogram = data.draw(histograms(chosen, COUNTS))
    for fmt, strict_prep, include_preparation in RUNS:
        path = scratch / f"corpus.{fmt}"
        text = report_of(histogram, chosen, path, strict_prep)
        spec = marginal_spec(json.loads(text), seed, include_preparation, pinned=True)
        assert round_trip(spec, taxonomy, chosen, path, strict_prep) == text, (fmt, strict_prep, include_preparation)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_the_marginal_spec_of_a_report_gives_back_its_marginals(taxonomy, chosen, scratch, data, seed):
    """Without pins the solver may choose other patterns, and so other
    ``patterns`` and ``graphs`` blocks, but never other marginals."""
    histogram = data.draw(histograms(chosen, COUNTS))
    for fmt, strict_prep, include_preparation in RUNS:
        path = scratch / f"corpus.{fmt}"
        report = json.loads(report_of(histogram, chosen, path, strict_prep))
        spec = marginal_spec(report, seed, include_preparation, pinned=False)
        again = json.loads(round_trip(spec, taxonomy, chosen, path, strict_prep))
        for block in ("coverage", "prevalence", "size_distribution"):
            assert again[block] == report[block], (block, fmt, strict_prep, include_preparation)
