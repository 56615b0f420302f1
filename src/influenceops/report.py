"""Aggregate analytics report: the machine-readable output behind the figures.

The JSON document is self-describing: it embeds the denominators, the tool,
taxonomy and catalog versions, and the configuration used, so downstream
renderings never have to guess what a share was computed against. Its
``graphs`` block embeds parts of ``graphexport.graph_document``, the same
node/edge document as the graph JSON view, and ``report_to_json`` writes it
with ``render.json_text`` and ``json_block`` templates of its repeated rows.
Every share and conditional probability in it is a ``render.ratio_payload``
of two counts the analytics return, built here and in ``graph_document``,
not from the analytics' Fractions.

``_tables`` is the report without its ``graphs`` block: everything
``report_to_text`` reads, so ``stats --pretty`` builds no graph.
"""

from __future__ import annotations

from functools import cache
from json.encoder import encode_basestring

from . import __version__
from .analytics import (
    conditional_probabilities,
    cooccurrence,
    mapping_coverage,
    pattern_frequencies,
    prevalence,
    size_distribution,
    support_threshold,
)
from .graphexport import graph_document
from .render import SLOT, Rendered, json_block, json_text, ratio_payload
from .strategies import ClassifiedCorpus


def _escaped(source: str) -> str:
    """The corpus path as UTF-8 text: a byte that is not UTF-8, which Python
    holds as a lone surrogate, as ``\\xff``, any other lone surrogate as
    ``\\ud800``; a UTF-8 path is unchanged."""
    try:
        return source.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")
    except UnicodeEncodeError:
        return source.encode("utf-8", "backslashreplace").decode("utf-8")


def build_report(
    cc: ClassifiedCorpus, ingest_mode: str = "strict", min_support: int = 1
) -> dict:
    report = _tables(cc, ingest_mode, min_support)
    codoc = graph_document(cooccurrence(cc))
    conddoc = graph_document(conditional_probabilities(cc, min_support))
    report["graphs"] = {
        "cooccurrence": {"nodes": codoc["nodes"], "edges": codoc["edges"]},
        "conditional": {"min_support": conddoc["min_support"], "edges": conddoc["edges"]},
    }
    return report


def _tables(cc: ClassifiedCorpus, ingest_mode: str, min_support: int) -> dict:
    """``build_report`` without its ``graphs`` block; raises the same errors."""
    coverage = mapping_coverage(cc)
    prev = prevalence(cc)
    sizes = size_distribution(cc)
    patterns = pattern_frequencies(cc)
    support_threshold(min_support)  # the conditional graph's check, in its turn
    mapped, multi = sizes.mapped_total, sizes.multi_total

    return {
        "tool": {"name": "influenceops", "version": __version__},
        "taxonomy_version": cc.catalog.taxonomy_version,
        "catalog_strategies": list(cc.catalog.ids()),
        "config": {
            "corpus_source": _escaped(cc.source),
            "ingest_mode": ingest_mode,
            "strict_prep": cc.strict_prep,
            "min_support": min_support,
        },
        "coverage": {
            "mapped": coverage.mapped,
            "total": coverage.total,
            "fraction": ratio_payload(coverage.mapped, coverage.total, percent=True),
        },
        "prevalence": {
            "denominator": prev.denominator,
            "strategies": [
                {
                    "id": entry.strategy_id,
                    "name": entry.name,
                    "count": entry.count,
                    "share": ratio_payload(entry.count, prev.denominator, percent=True),
                }
                for entry in prev.entries
            ],
        },
        "size_distribution": {
            "denominator_all": mapped,
            "denominator_multi": multi,
            "counts": {str(k): v for k, v in sizes.counts.items()},
            "multi_share": ratio_payload(multi, mapped, percent=True),
            "shares_of_all": {str(k): ratio_payload(v, mapped, percent=True) for k, v in sizes.counts.items()},
            # A size of 2 or more exists only when multi > 0.
            "shares_of_multi": {
                str(k): ratio_payload(v, multi, percent=True) for k, v in sizes.counts.items() if k >= 2
            },
        },
        "patterns": {
            "distinct": patterns.distinct_pattern_count,
            "rows": [
                {
                    "strategies": list(row.strategies),
                    "exact": row.exact_count,
                    "containment": row.containment_count,
                }
                for row in patterns.rows
            ],
        },
    }


def report_to_json(report: dict) -> str:
    """``render.json_text`` of a ``build_report`` document. Its pattern rows and
    conditional edges, most of its lines, fill ``json_block`` templates, with
    each pattern's strategy list and each pair's ids rendered once."""
    patterns, graphs = report["patterns"], report["graphs"]
    conditional = graphs["conditional"]
    return json_text({
        **report,
        "patterns": {**patterns, "rows": [_pattern_row(row) for row in patterns["rows"]]},
        "graphs": {**graphs, "conditional": {**conditional, "edges": [_edge(e) for e in conditional["edges"]]}},
    })


_PATTERN_ROW = json_block({"strategies": SLOT, "exact": SLOT, "containment": SLOT}, 3)
_EDGE = json_block({"source": SLOT, "target": SLOT, "joint_count": SLOT, "source_count": SLOT,
                    "probability": {"numerator": SLOT, "denominator": SLOT, "value": SLOT}}, 4)


@cache
def _strategy_list(strategies: tuple[str, ...]) -> str:
    return json_block(list(strategies), 4)


_quoted = cache(encode_basestring)


def _pattern_row(row: dict) -> Rendered:
    return Rendered(_PATTERN_ROW % (_strategy_list(tuple(row["strategies"])), row["exact"], row["containment"]))


def _edge(edge: dict) -> Rendered:
    p = edge["probability"]
    return Rendered(_EDGE % (_quoted(edge["source"]), _quoted(edge["target"]), edge["joint_count"],
                             edge["source_count"], p["numerator"], p["denominator"], encode_basestring(p["value"])))


def report_to_text(report: dict) -> str:
    """Human-readable rendering of the report (same numbers, table form)."""
    lines: list[str] = []
    cov = report["coverage"]
    lines.append(
        f"Coverage: {cov['mapped']}/{cov['total']} incidents mapped "
        f"({cov['fraction']['percent']}%)"
    )
    lines.append("")

    prev = report["prevalence"]
    lines.append(f"Strategy prevalence (over {prev['denominator']} mapped incidents):")
    for row in prev["strategies"]:
        lines.append(
            f"  {row['id']:<4} {row['name']:<26} {row['count']:>4}  {row['share']['percent']:>5}%"
        )
    lines.append("")

    sizes = report["size_distribution"]
    lines.append(
        f"Strategies per incident ({sizes['denominator_all']} mapped, "
        f"{sizes['denominator_multi']} multi-strategy):"
    )
    for k in sorted(sizes["counts"], key=int):
        share = sizes["shares_of_all"][k]["percent"]
        lines.append(f"  {k} strategies: {sizes['counts'][k]:>4}  ({share}% of mapped)")
    lines.append(
        f"  multi-strategy share: {sizes['multi_share']['percent']}% "
        f"({sizes['denominator_multi']}/{sizes['denominator_all']})"
    )
    lines.append("")

    patterns = report["patterns"]
    lines.append(f"Distinct strategy patterns: {patterns['distinct']}")
    for row in patterns["rows"]:
        name = "+".join(row["strategies"])
        lines.append(f"  {name:<24} exact {row['exact']:>3}  containment {row['containment']:>3}")
    return "\n".join(lines) + "\n"
