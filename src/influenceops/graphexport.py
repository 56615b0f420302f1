"""Serialize strategy graphs to DOT, GraphML, and JSON.

Writers are hand-rolled so output is byte-identical across platforms and
library versions: nodes are emitted in strategy enumeration order and edges
in (source, target) enumeration order. No plotting here; these documents
feed external renderers.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .analytics import ConditionalGraph, CooccurrenceGraph
from .errors import UnknownFormat
from .render import decimal_string, fraction_payload

GRAPH_FORMATS = ("dot", "graphml", "json")


def _xml_escape(text: str) -> str:
    """Escape &, < and > for XML character data."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _xml_quoteattr(text: str) -> str:
    """Escape text for an XML attribute value and wrap it in quotes.

    Newline, carriage return and tab become character references. Double
    quotes are used unless the value contains one and no single quote;
    with both kinds present, double quotes are escaped as &quot;.
    """
    text = _xml_escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"{}"'.format(text.replace('"', "&quot;"))


def _dot_quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


def _dot_nodes(nodes) -> list[str]:
    lines = ["  node [shape=box];"]
    for node in nodes:
        label = f"{node.name}\n{node.count}"
        lines.append(f"  {node.strategy_id} [label={_dot_quote(label)}];")
    return lines


def cooccurrence_to_dot(graph: CooccurrenceGraph) -> str:
    lines = ["graph cooccurrence {"]
    lines.extend(_dot_nodes(graph.nodes))
    for edge in graph.edges:
        lines.append(f"  {edge.a} -- {edge.b} [label={_dot_quote(str(edge.weight))}, weight={edge.weight}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def conditional_to_dot(graph: ConditionalGraph) -> str:
    lines = ["digraph conditional {"]
    lines.extend(_dot_nodes(graph.nodes))
    for edge in graph.edges:
        label = f"{edge.joint_count}/{edge.source_count} = {decimal_string(edge.probability, 4)}"
        lines.append(f"  {edge.source} -> {edge.target} [label={_dot_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _graphml_header(keys: list[tuple[str, str, str, str]]) -> list[str]:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
    ]
    for key_id, domain, name, attr_type in keys:
        lines.append(
            f'  <key id="{key_id}" for="{domain}" attr.name="{name}" attr.type="{attr_type}"/>'
        )
    return lines


def _graphml_node(node, key_name: str, key_count: str) -> str:
    return (
        f"    <node id={_xml_quoteattr(node.strategy_id)}>"
        f'<data key="{key_name}">{_xml_escape(node.name)}</data>'
        f'<data key="{key_count}">{node.count}</data>'
        "</node>"
    )


def cooccurrence_to_graphml(graph: CooccurrenceGraph) -> str:
    lines = _graphml_header(
        [("name", "node", "name", "string"), ("count", "node", "count", "int"),
         ("weight", "edge", "weight", "int")]
    )
    lines.append('  <graph id="cooccurrence" edgedefault="undirected">')
    for node in graph.nodes:
        lines.append(_graphml_node(node, "name", "count"))
    for edge in graph.edges:
        lines.append(
            f"    <edge source={_xml_quoteattr(edge.a)} target={_xml_quoteattr(edge.b)}>"
            f'<data key="weight">{edge.weight}</data></edge>'
        )
    lines.extend(["  </graph>", "</graphml>"])
    return "\n".join(lines) + "\n"


def conditional_to_graphml(graph: ConditionalGraph) -> str:
    lines = _graphml_header(
        [("name", "node", "name", "string"), ("count", "node", "count", "int"),
         ("probability", "edge", "probability", "double"),
         ("joint_count", "edge", "joint_count", "int"),
         ("source_count", "edge", "source_count", "int")]
    )
    lines.append('  <graph id="conditional" edgedefault="directed">')
    for node in graph.nodes:
        lines.append(_graphml_node(node, "name", "count"))
    for edge in graph.edges:
        lines.append(
            f"    <edge source={_xml_quoteattr(edge.source)} target={_xml_quoteattr(edge.target)}>"
            f'<data key="probability">{decimal_string(edge.probability, 6)}</data>'
            f'<data key="joint_count">{edge.joint_count}</data>'
            f'<data key="source_count">{edge.source_count}</data></edge>'
        )
    lines.extend(["  </graph>", "</graphml>"])
    return "\n".join(lines) + "\n"


def cooccurrence_to_json(graph: CooccurrenceGraph) -> str:
    doc = {
        "kind": "cooccurrence",
        "nodes": [
            {"id": n.strategy_id, "name": n.name, "count": n.count} for n in graph.nodes
        ],
        "edges": [
            {"source": e.a, "target": e.b, "weight": e.weight} for e in graph.edges
        ],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def conditional_to_json(graph: ConditionalGraph) -> str:
    doc = {
        "kind": "conditional",
        "min_support": graph.min_support,
        "nodes": [
            {"id": n.strategy_id, "name": n.name, "count": n.count} for n in graph.nodes
        ],
        "edges": [
            {
                "source": e.source,
                "target": e.target,
                "joint_count": e.joint_count,
                "source_count": e.source_count,
                "probability": fraction_payload(Fraction(e.joint_count, e.source_count)),
            }
            for e in graph.edges
        ],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def export_graph(graph: CooccurrenceGraph | ConditionalGraph, fmt: str) -> str:
    """Render a graph in one of GRAPH_FORMATS; raises UnknownFormat otherwise."""
    if fmt not in GRAPH_FORMATS:
        raise UnknownFormat(f"unknown graph format {fmt!r}; expected one of {', '.join(GRAPH_FORMATS)}")
    directed = isinstance(graph, ConditionalGraph)
    if fmt == "dot":
        return conditional_to_dot(graph) if directed else cooccurrence_to_dot(graph)
    if fmt == "graphml":
        return conditional_to_graphml(graph) if directed else cooccurrence_to_graphml(graph)
    return conditional_to_json(graph) if directed else cooccurrence_to_json(graph)
