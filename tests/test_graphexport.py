import io
import json

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from influenceops import (
    UnknownFormat,
    conditional_probabilities,
    cooccurrence,
)
from influenceops.graphexport import _xml_escape, _xml_quoteattr, export_graph

from helpers import classified_from_profiles


def test_single_node_dot_graph(catalog):
    cc = classified_from_profiles(catalog, [("NR",)])
    text = export_graph(cooccurrence(cc), "dot")
    assert text.startswith("graph cooccurrence {")
    assert text.rstrip().endswith("}")
    assert text.count("{") == text.count("}")
    assert 'NR [label="Narrative Release\\n1"]' in text
    assert "--" not in text  # no edges


def test_dot_edges_carry_weights(hand_cc):
    text = export_graph(cooccurrence(hand_cc), "dot")
    assert 'NR -- IP [label="2", weight=2];' in text
    assert 'NR -- NM [label="1", weight=1];' in text


def test_conditional_dot_is_directed(hand_cc):
    text = export_graph(conditional_probabilities(hand_cc), "dot")
    assert text.startswith("digraph conditional {")
    assert 'NR -> IP [label="2/3 = 0.6667"];' in text


def test_conditional_json_serializes_exact_fractions(hand_cc):
    doc = json.loads(export_graph(conditional_probabilities(hand_cc), "json"))
    edge = next(
        e for e in doc["edges"] if e["source"] == "NR" and e["target"] == "IP"
    )
    assert edge["probability"]["numerator"] == 2
    assert edge["probability"]["denominator"] == 3
    assert edge["probability"]["value"] == "0.6667"
    assert edge["joint_count"] == 2
    assert edge["source_count"] == 3


def test_cooccurrence_json_nodes_and_edges(hand_cc):
    doc = json.loads(export_graph(cooccurrence(hand_cc), "json"))
    assert [n["id"] for n in doc["nodes"]] == ["NR", "NS", "NA", "CNR", "NM", "TD", "IP"]
    weights = {(e["source"], e["target"]): e["weight"] for e in doc["edges"]}
    assert weights == {("NR", "NM"): 1, ("NR", "IP"): 2, ("NM", "IP"): 1}


def test_graphml_round_trip_preserves_weights(hand_cc):
    text = export_graph(cooccurrence(hand_cc), "graphml")
    graph = nx.read_graphml(io.BytesIO(text.encode("utf-8")))
    assert not graph.is_directed()
    assert graph.nodes["NR"]["count"] == 3
    assert graph.nodes["NR"]["name"] == "Narrative Release"
    assert graph.edges[("NR", "IP")]["weight"] == 2


def test_conditional_graphml_round_trip(hand_cc):
    text = export_graph(conditional_probabilities(hand_cc), "graphml")
    graph = nx.read_graphml(io.BytesIO(text.encode("utf-8")))
    assert graph.is_directed()
    edge = graph.edges[("NR", "IP")]
    assert edge["joint_count"] == 2
    assert edge["source_count"] == 3
    assert edge["probability"] == pytest.approx(2 / 3)


def test_exports_are_deterministic(fixture_cc):
    for kind in (cooccurrence(fixture_cc), conditional_probabilities(fixture_cc)):
        for fmt in ("dot", "graphml", "json"):
            assert export_graph(kind, fmt) == export_graph(kind, fmt)


def test_unknown_format_rejected(hand_cc):
    with pytest.raises(UnknownFormat):
        export_graph(cooccurrence(hand_cc), "svg")


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from("ab&<>\"'\n\r\t ;#é\x00")) | st.text())
def test_xml_helpers_match_saxutils(text):
    from xml.sax.saxutils import escape, quoteattr

    assert _xml_escape(text) == escape(text)
    assert _xml_quoteattr(text) == quoteattr(text)


def test_package_does_not_import_xml():
    """xml.sax.saxutils drags in urllib.request, http.client and email."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import influenceops

    code = "import sys, influenceops.cli; print(any(m.startswith('xml') for m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(influenceops.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
