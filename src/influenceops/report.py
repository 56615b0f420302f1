"""Aggregate analytics report: the machine-readable output behind the figures.

The JSON document is self-describing: it embeds the denominators, the tool,
taxonomy and catalog versions, and the configuration used, so downstream
renderings never have to guess what a share was computed against.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import __version__
from .analytics import (
    conditional_probabilities,
    cooccurrence,
    mapping_coverage,
    pattern_frequencies,
    prevalence,
    size_distribution,
)
from .render import fraction_payload, percent_string
from .strategies import ClassifiedCorpus


def build_report(
    cc: ClassifiedCorpus, ingest_mode: str = "strict", min_support: int = 1
) -> dict:
    coverage = mapping_coverage(cc)
    prev = prevalence(cc)
    sizes = size_distribution(cc)
    patterns = pattern_frequencies(cc)
    cograph = cooccurrence(cc)
    condgraph = conditional_probabilities(cc, min_support)

    return {
        "tool": {"name": "influenceops", "version": __version__},
        "taxonomy_version": cc.catalog.taxonomy_version,
        "catalog_strategies": list(cc.catalog.ids()),
        "config": {
            "corpus_source": cc.source,
            "ingest_mode": ingest_mode,
            "strict_prep": cc.strict_prep,
            "min_support": min_support,
        },
        "coverage": {
            "mapped": coverage.mapped,
            "total": coverage.total,
            "fraction": fraction_payload(coverage.fraction, percent=True),
        },
        "prevalence": {
            "denominator": prev.denominator,
            "strategies": [
                {
                    "id": entry.strategy_id,
                    "name": entry.name,
                    "count": entry.count,
                    "share": fraction_payload(entry.fraction, percent=True),
                }
                for entry in prev.entries
            ],
        },
        "size_distribution": {
            "denominator_all": sizes.mapped_total,
            "denominator_multi": sizes.multi_total,
            "counts": {str(k): v for k, v in sizes.counts.items()},
            "multi_share": fraction_payload(sizes.multi_fraction_of_all, percent=True),
            "shares_of_all": {
                str(k): fraction_payload(sizes.fraction_of_all(k), percent=True)
                for k in sizes.counts
            },
            "shares_of_multi": {
                str(k): fraction_payload(sizes.fraction_of_multi(k), percent=True)
                for k in sizes.counts
                if k >= 2
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
        "graphs": {
            "cooccurrence": {
                "nodes": [
                    {"id": n.strategy_id, "name": n.name, "count": n.count}
                    for n in cograph.nodes
                ],
                "edges": [
                    {"source": e.a, "target": e.b, "weight": e.weight}
                    for e in cograph.edges
                ],
            },
            "conditional": {
                "min_support": condgraph.min_support,
                "edges": [
                    {
                        "source": e.source,
                        "target": e.target,
                        "joint_count": e.joint_count,
                        "source_count": e.source_count,
                        "probability": fraction_payload(e.probability),
                    }
                    for e in condgraph.edges
                ],
            },
        },
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, ensure_ascii=False) + "\n"


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
