import io
import json
import re
from dataclasses import replace

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from influenceops import (
    ClassifiedCorpus,
    SchemaError,
    StrategyCatalog,
    UnknownFormat,
    conditional_probabilities,
    cooccurrence,
)
from influenceops.cli import main
from influenceops.graphexport import _NOT_XML, _xml_escape, export_graph
from influenceops.resources import bundled_data_path

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


def dot_label(text: str) -> str:
    """A quoted DOT label as Graphviz reads it (an escString): a backslash
    escapes the character after it, and \\n, \\l and \\r are line breaks."""
    return re.sub(r"\\(.)", lambda m: "\n" if m.group(1) in "nlr" else m.group(1), text, flags=re.DOTALL)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(alphabet=st.sampled_from('a \\"\nlré'), min_size=1), min_size=7, max_size=7))
def test_dot_labels_read_back(catalog, hand_cc, names):
    """Each strategy's name and count read back from its DOT node label."""
    strategies = tuple(replace(s, name=name) for s, name in zip(catalog.strategies, names))
    cc = ClassifiedCorpus(StrategyCatalog(strategies, catalog.taxonomy_version), hand_cc.histogram, "names")
    for graph in (cooccurrence(cc), conditional_probabilities(cc)):
        labels = re.findall(r'^  (\w+) \[label="((?:[^"\\]|\\.)*)"\];$', export_graph(graph, "dot"),
                            re.MULTILINE | re.DOTALL)
        assert {node: dot_label(label) for node, label in labels} == {
            node.strategy_id: f"{node.name}\n{node.count}" for node in graph.nodes
        }


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
    from xml.sax.saxutils import escape

    assert _xml_escape(text) == escape(text)


def is_xml_char(c):
    """XML 1.0's Char production."""
    return c in "\t\n\r" or "\x20" <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd" or c >= "\U00010000"


def test_the_refused_characters_are_those_outside_xml_char():
    """Every code point below U+10000, and both ends of the range above it."""
    for code_point in [*range(0x10000), 0x10000, 0x10FFFF]:
        c = chr(code_point)
        assert bool(_NOT_XML.fullmatch(c)) is not is_xml_char(c), f"U+{code_point:04X}"


NAME_CHARS = "a &<>\"'\n\r\t]é\x00\x01\x0b\x0c\x1f\x7f\x85\ud800\udfff\ufffd\ufffe\uffff\U0001f600"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet=st.sampled_from(NAME_CHARS), min_size=1) | st.text(min_size=1),
                min_size=7, max_size=7))
# Seven names XML can hold, which the draws above seldom give all at once.
@example(names=["Narrative\rRelease", "a & b", "<a>", "\"'", "a\n\tb", "]]>", "é\U0001f600"])
def test_graphml_names_read_back_or_are_refused(catalog, hand_cc, names):
    """Each drawn name reads back exactly from the GraphML, or the export is
    refused naming the first strategy whose name XML cannot hold."""
    strategies = tuple(replace(s, name=name) for s, name in zip(catalog.strategies, names))
    cc = ClassifiedCorpus(StrategyCatalog(strategies, catalog.taxonomy_version), hand_cc.histogram, "names")
    for graph in (cooccurrence(cc), conditional_probabilities(cc)):
        bad = [(node.strategy_id, c) for node in graph.nodes for c in node.name if not is_xml_char(c)]
        if bad:
            with pytest.raises(SchemaError) as raised:
                export_graph(graph, "graphml")
            strategy_id, c = bad[0]
            assert str(raised.value).startswith(f"strategy {strategy_id!r}: name holds U+{ord(c):04X},")
            continue
        parsed = nx.read_graphml(io.BytesIO(export_graph(graph, "graphml").encode("utf-8")))
        assert {n: data["name"] for n, data in parsed.nodes(data=True)} == {
            node.strategy_id: node.name for node in graph.nodes
        }


@pytest.mark.parametrize("name, code_point", [("Narrative\x01Release", "0001"), ("Narrative\x0bRelease", "000B")])
def test_graph_refuses_a_name_graphml_cannot_hold(tmp_path, capsys, name, code_point):
    """A typed error before anything is written; JSON still holds the name. (The
    catalog loader already refuses a lone surrogate.)"""
    doc = json.loads(bundled_data_path("catalog.json").read_text(encoding="utf-8"))
    doc["strategies"][0]["name"] = name
    catalog_path, corpus_path = tmp_path / "catalog.json", tmp_path / "corpus.csv"
    catalog_path.write_text(json.dumps(doc), encoding="utf-8")
    corpus_path.write_text("incident_id,title,year,targets,techniques\nX-1,t,2020,,T0115\n", encoding="utf-8")
    argv = ["graph", "--kind", "cooccurrence", "--catalog", str(catalog_path), "--corpus", str(corpus_path)]
    out = tmp_path / "graph.graphml"
    assert main([*argv, "--format", "graphml", "--out", str(out)]) == 1
    assert main([*argv, "--format", "graphml"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"SchemaError: strategy 'NR': name holds U+{code_point}, which XML 1.0 cannot hold\n" * 2
    assert not out.exists()
    assert main([*argv, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["nodes"][0]["name"] == name


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
