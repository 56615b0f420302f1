"""Serialize strategy graphs to DOT, GraphML, and JSON.

Writers are hand-rolled so output is byte-identical across platforms and
library versions: nodes are emitted in strategy enumeration order and edges
in (source, target) enumeration order. There is one writer per format, for
both graph kinds. The JSON view is ``graph_document``, the node/edge document
whose parts the report's ``graphs`` block also embeds; a conditional edge's
probability there is a ``render.ratio_payload`` of its two counts, and in
DOT and GraphML labels the decimal of the same two counts, with no
``Fraction`` built. GraphML refuses, with SchemaError, a strategy name
holding a character that XML 1.0 cannot hold. No plotting here; these
documents feed external renderers.
"""

from __future__ import annotations

import re

from .analytics import ConditionalGraph, CooccurrenceGraph
from .errors import SchemaError, UnknownFormat
from .render import _decimal, json_text, ratio_payload

# A character outside XML 1.0's Char production: no document can hold it, not
# even as a character reference. Written as the five ranges outside Char, which
# compile several times faster than the negated class of Char.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _xml_escape(text: str) -> str:
    """Escape &, < and > for XML character data."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _xml_text(text: str, strategy_id: str) -> str:
    """Strategy ``strategy_id``'s name as XML character data that reads back as
    ``text``: a carriage return, which a parser would read as a newline, is
    written as a reference. Raises SchemaError on a character XML cannot hold."""
    bad = _NOT_XML.search(text)
    if bad:
        raise SchemaError(f"strategy {strategy_id!r}: name holds U+{ord(bad.group()):04X}, which XML 1.0 cannot hold")
    return _xml_escape(text).replace("\r", "&#13;")


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


def graph_document(graph: CooccurrenceGraph | ConditionalGraph) -> dict:
    """The graph as a JSON-ready document of its kind, nodes and edges.

    A conditional graph also records its ``min_support``, and its edges carry
    the exact probability as a ``ratio_payload`` of joint and source count.
    """
    nodes = [{"id": n.strategy_id, "name": n.name, "count": n.count} for n in graph.nodes]
    if isinstance(graph, CooccurrenceGraph):
        edges = [{"source": e.a, "target": e.b, "weight": e.weight} for e in graph.edges]
        return {"kind": "cooccurrence", "nodes": nodes, "edges": edges}
    edges = [
        {
            "source": e.source,
            "target": e.target,
            "joint_count": e.joint_count,
            "source_count": e.source_count,
            "probability": ratio_payload(e.joint_count, e.source_count),
        }
        for e in graph.edges
    ]
    return {"kind": "conditional", "min_support": graph.min_support, "nodes": nodes, "edges": edges}


def _dot(graph: CooccurrenceGraph | ConditionalGraph) -> str:
    directed = isinstance(graph, ConditionalGraph)
    lines = ["digraph conditional {" if directed else "graph cooccurrence {", "  node [shape=box];"]
    for node in graph.nodes:
        label = f"{node.name}\n{node.count}"
        lines.append(f"  {node.strategy_id} [label={_dot_quote(label)}];")
    for edge in graph.edges:
        if directed:
            label = f"{edge.joint_count}/{edge.source_count} = {_decimal(edge.joint_count, edge.source_count, 4)}"
            lines.append(f"  {edge.source} -> {edge.target} [label={_dot_quote(label)}];")
        else:
            lines.append(f"  {edge.a} -- {edge.b} [label={_dot_quote(str(edge.weight))}, weight={edge.weight}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _graphml(graph: CooccurrenceGraph | ConditionalGraph) -> str:
    directed = isinstance(graph, ConditionalGraph)
    if directed:
        kind, edge_keys = "conditional", [("probability", "double"), ("joint_count", "int"), ("source_count", "int")]
    else:
        kind, edge_keys = "cooccurrence", [("weight", "int")]
    keys = [("name", "node", "string"), ("count", "node", "int")]
    keys += [(name, "edge", attr_type) for name, attr_type in edge_keys]
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        *(f'  <key id="{name}" for="{domain}" attr.name="{name}" attr.type="{attr_type}"/>'
          for name, domain, attr_type in keys),
        f'  <graph id="{kind}" edgedefault="{"directed" if directed else "undirected"}">',
    ]
    for node in graph.nodes:
        lines.append(
            f"    <node id={_xml_quoteattr(node.strategy_id)}>"
            f'<data key="name">{_xml_text(node.name, node.strategy_id)}</data>'
            f'<data key="count">{node.count}</data>'
            "</node>"
        )
    for edge in graph.edges:
        if directed:
            source, target = edge.source, edge.target
            values = (_decimal(edge.joint_count, edge.source_count, 6), edge.joint_count, edge.source_count)
        else:
            source, target, values = edge.a, edge.b, (edge.weight,)
        data = "".join(f'<data key="{key}">{value}</data>' for (key, _), value in zip(edge_keys, values))
        lines.append(f"    <edge source={_xml_quoteattr(source)} target={_xml_quoteattr(target)}>{data}</edge>")
    lines.extend(["  </graph>", "</graphml>"])
    return "\n".join(lines) + "\n"


_WRITERS = {"dot": _dot, "graphml": _graphml, "json": lambda graph: json_text(graph_document(graph))}
GRAPH_FORMATS = tuple(_WRITERS)


def _writer(fmt: str):
    """The writer of ``fmt``, one of GRAPH_FORMATS; raises UnknownFormat otherwise."""
    if fmt not in _WRITERS:
        raise UnknownFormat(f"unknown graph format {fmt!r}; expected one of {', '.join(GRAPH_FORMATS)}")
    return _WRITERS[fmt]


def export_graph(graph: CooccurrenceGraph | ConditionalGraph, fmt: str) -> str:
    """Render a graph in one of GRAPH_FORMATS; raises UnknownFormat otherwise."""
    return _writer(fmt)(graph)
