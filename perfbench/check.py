"""Output checker: every CLI output against ground truth from inputs.py.

Expected statistics come from a plain Counter over strategy sets and exact
Fractions, rendered with the decimal module; nothing here imports
influenceops. Each check parses the output and compares its content, so a
count that is off by one or a byte that changes a value fails.
"""

from __future__ import annotations

import csv
import io
import json
import re
import xml.etree.ElementTree as ET
from collections import Counter
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from itertools import combinations

from inputs import (
    EXECUTION,
    FIXTURE_MARGINALS,
    FIXTURE_SIZES,
    FIXTURE_UNMAPPED,
    NAMES,
    ORDER,
    TAXONOMY_VERSION,
    YEARS,
)


class CheckFailed(Exception):
    pass


def decimal_text(value: Fraction, places: int) -> str:
    with localcontext() as ctx:
        ctx.prec = 80
        q = Decimal(value.numerator) / Decimal(value.denominator)
        return format(q.quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_EVEN), "f")


def _share(count: int, denominator: int) -> dict:
    f = Fraction(count, denominator)
    return {"numerator": f.numerator, "denominator": f.denominator, "percent": decimal_text(f * 100, 1)}


def _probability(joint: int, source: int) -> dict:
    f = Fraction(joint, source)
    return {"numerator": f.numerator, "denominator": f.denominator, "value": decimal_text(f, 4)}


def _first_difference(expected, actual, path="$"):
    if type(expected) is not type(actual):
        return f"{path}: expected {expected!r}, got {actual!r}"
    if isinstance(expected, dict):
        for key in sorted(set(expected) | set(actual), key=str):
            if key not in expected or key not in actual:
                return f"{path}.{key}: present on one side only"
            found = _first_difference(expected[key], actual[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return f"{path}: expected {len(expected)} items, got {len(actual)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = _first_difference(e, a, f"{path}[{i}]")
            if found:
                return found
        return None
    return None if expected == actual else f"{path}: expected {expected!r}, got {actual!r}"


def require_equal(expected, actual, what: str) -> None:
    found = _first_difference(expected, actual)
    if found:
        raise CheckFailed(f"{what}: {found}")


class Expected:
    """Every statistic the CLI reports, from the incidents' strategy sets."""

    def __init__(self, sets: list[tuple[str, ...]]):
        self.total = len(sets)
        mapped = [s for s in sets if s]
        self.mapped = len(mapped)
        self.counts = Counter(sid for s in mapped for sid in s)
        self.exact = Counter(mapped)
        self.sizes = Counter(len(s) for s in mapped)
        self.joint = Counter(pair for s in mapped for pair in combinations(s, 2))

    def pair(self, a: str, b: str) -> int:
        return self.joint[(a, b)] if ORDER.index(a) < ORDER.index(b) else self.joint[(b, a)]

    def nodes(self) -> list[dict]:
        return [{"id": sid, "name": NAMES[sid], "count": self.counts[sid]} for sid in ORDER]

    def cooccurrence_edges(self) -> list[tuple[str, str, int]]:
        return [(a, b, self.joint[(a, b)]) for a, b in combinations(ORDER, 2) if self.joint[(a, b)]]

    def conditional_edges(self, min_support: int) -> list[tuple[str, str, int, int]]:
        threshold = max(min_support, 1)
        return [
            (s, t, self.pair(s, t), self.counts[s])
            for s in ORDER
            for t in ORDER
            if s != t and self.counts[s] >= threshold
        ]

    def pattern_rows(self) -> list[dict]:
        rows = [
            {
                "strategies": list(p),
                "exact": c,
                "containment": sum(n for q, n in self.exact.items() if set(p) <= set(q)),
            }
            for p, c in self.exact.items()
        ]
        rows.sort(key=lambda r: (-r["exact"], len(r["strategies"]), [ORDER.index(s) for s in r["strategies"]]))
        return rows

    def prevalence_rows(self) -> list[dict]:
        ranked = sorted(ORDER, key=lambda sid: (-self.counts[sid], ORDER.index(sid)))
        return [
            {"id": sid, "name": NAMES[sid], "count": self.counts[sid], "share": _share(self.counts[sid], self.mapped)}
            for sid in ranked
        ]

    def report(self, source: str, ingest_mode: str, strict_prep: bool, min_support: int) -> dict:
        multi = sum(v for k, v in self.sizes.items() if k >= 2)
        sizes = sorted(self.sizes)
        return {
            "taxonomy_version": TAXONOMY_VERSION,
            "catalog_strategies": list(ORDER),
            "config": {
                "corpus_source": source,
                "ingest_mode": ingest_mode,
                "strict_prep": strict_prep,
                "min_support": min_support,
            },
            "coverage": {"mapped": self.mapped, "total": self.total, "fraction": _share(self.mapped, self.total)},
            "prevalence": {"denominator": self.mapped, "strategies": self.prevalence_rows()},
            "size_distribution": {
                "denominator_all": self.mapped,
                "denominator_multi": multi,
                "counts": {str(k): self.sizes[k] for k in sizes},
                "multi_share": _share(multi, self.mapped),
                "shares_of_all": {str(k): _share(self.sizes[k], self.mapped) for k in sizes},
                "shares_of_multi": {str(k): _share(self.sizes[k], multi) for k in sizes if k >= 2},
            },
            "patterns": {"distinct": len(self.exact), "rows": self.pattern_rows()},
            "graphs": {
                "cooccurrence": {
                    "nodes": self.nodes(),
                    "edges": [{"source": a, "target": b, "weight": w} for a, b, w in self.cooccurrence_edges()],
                },
                "conditional": {
                    "min_support": min_support,
                    "edges": [
                        {
                            "source": s,
                            "target": t,
                            "joint_count": j,
                            "source_count": n,
                            "probability": _probability(j, n),
                        }
                        for s, t, j, n in self.conditional_edges(min_support)
                    ],
                },
            },
        }


def _json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{what}: not valid JSON: {exc}") from None


def check_stats_json(text: str, exp: Expected, **config) -> None:
    doc = _json(text, "stats")
    if not isinstance(doc, dict) or doc.get("tool", {}).get("name") != "influenceops":
        raise CheckFailed("stats: missing tool block")
    doc = {k: v for k, v in doc.items() if k != "tool"}
    require_equal(exp.report(**config), doc, "stats")


_TEXT_PATTERNS = (
    ("coverage", re.compile(r"Coverage: (\d+)/(\d+) incidents mapped \(([\d.]+)%\)")),
    ("prevalence_head", re.compile(r"Strategy prevalence \(over (\d+) mapped incidents\):")),
    ("sizes_head", re.compile(r"Strategies per incident \((\d+) mapped, (\d+) multi-strategy\):")),
    ("size", re.compile(r"\s+(\d+) strategies:\s+(\d+)\s+\(([\d.]+)% of mapped\)")),
    ("multi", re.compile(r"\s+multi-strategy share: ([\d.]+)% \((\d+)/(\d+)\)")),
    ("distinct", re.compile(r"Distinct strategy patterns: (\d+)")),
    ("pattern", re.compile(r"\s+([A-Z+]+)\s+exact\s+(\d+)\s+containment\s+(\d+)")),
    ("strategy", re.compile(r"\s+([A-Z]+)\s+(\S.*?)\s+(\d+)\s+([\d.]+)%")),
)


def check_stats_text(text: str, exp: Expected) -> None:
    """The --pretty report, parsed line by line into the same numbers."""
    parsed: dict[str, list] = {name: [] for name, _ in _TEXT_PATTERNS}
    for line in text.splitlines():
        if not line:
            continue
        for name, pattern in _TEXT_PATTERNS:
            match = pattern.fullmatch(line)
            if match:
                parsed[name].append(match.groups())
                break
        else:
            raise CheckFailed(f"stats --pretty: unrecognised line {line!r}")
    multi = sum(v for k, v in exp.sizes.items() if k >= 2)
    expected = {
        "coverage": [(str(exp.mapped), str(exp.total), _share(exp.mapped, exp.total)["percent"])],
        "prevalence_head": [(str(exp.mapped),)],
        "strategy": [
            (r["id"], r["name"], str(r["count"]), r["share"]["percent"]) for r in exp.prevalence_rows()
        ],
        "sizes_head": [(str(exp.mapped), str(multi))],
        "size": [
            (str(k), str(exp.sizes[k]), _share(exp.sizes[k], exp.mapped)["percent"]) for k in sorted(exp.sizes)
        ],
        "multi": [(_share(multi, exp.mapped)["percent"], str(multi), str(exp.mapped))],
        "distinct": [(str(len(exp.exact)),)],
        "pattern": [
            ("+".join(r["strategies"]), str(r["exact"]), str(r["containment"])) for r in exp.pattern_rows()
        ],
    }
    require_equal(expected, parsed, "stats --pretty")


_DOT_NODE = re.compile(r'\s+(\w+) \[label="(.*)"\];')
_DOT_EDGE = re.compile(r'\s+(\w+) (--|->) (\w+) \[label="([^"]*)"(?:, weight=(\d+))?\];')


def check_dot(text: str, exp: Expected, kind: str, min_support: int = 1) -> None:
    lines = text.splitlines()
    head = "graph cooccurrence {" if kind == "cooccurrence" else "digraph conditional {"
    if not lines or lines[0] != head or lines[-1] != "}":
        raise CheckFailed(f"dot: expected a {head!r} ... '}}' document")
    nodes, edges = [], []
    for line in lines[1:-1]:
        if line == "  node [shape=box];":
            continue
        edge = _DOT_EDGE.fullmatch(line)
        node = None if edge else _DOT_NODE.fullmatch(line)
        if edge:
            edges.append(edge.groups())
        elif node:
            nodes.append(node.groups())
        else:
            raise CheckFailed(f"dot: unrecognised line {line!r}")
    expected_nodes = [(n["id"], f"{n['name']}\\n{n['count']}") for n in exp.nodes()]
    if kind == "cooccurrence":
        expected_edges = [(a, "--", b, str(w), str(w)) for a, b, w in exp.cooccurrence_edges()]
    else:
        expected_edges = [
            (s, "->", t, f"{j}/{n} = {decimal_text(Fraction(j, n), 4)}", None)
            for s, t, j, n in exp.conditional_edges(min_support)
        ]
    require_equal({"nodes": expected_nodes, "edges": expected_edges}, {"nodes": nodes, "edges": edges}, "dot")


def check_graphml(text: str, exp: Expected, kind: str, min_support: int = 1) -> None:
    ns = "{http://graphml.graphdrawing.org/xmlns}"
    if not text.startswith('<?xml version="1.0" encoding="UTF-8"?>\n'):
        raise CheckFailed("graphml: missing XML 1.0 UTF-8 declaration")
    try:
        root = ET.fromstring(text.encode("utf-8"))
    except (ET.ParseError, LookupError) as exc:
        raise CheckFailed(f"graphml: not well-formed: {exc}") from None
    keys = {k.get("id"): k.get("attr.name") for k in root.iter(f"{ns}key")}
    graph = root.find(f"{ns}graph")
    if graph is None:
        raise CheckFailed("graphml: no graph element")

    def data(element) -> dict:
        return {keys.get(d.get("key")): d.text for d in element.findall(f"{ns}data")}

    nodes = [{"id": n.get("id"), **data(n)} for n in graph.findall(f"{ns}node")]
    edges = [{"source": e.get("source"), "target": e.get("target"), **data(e)} for e in graph.findall(f"{ns}edge")]
    expected_nodes = [{"id": n["id"], "name": n["name"], "count": str(n["count"])} for n in exp.nodes()]
    if kind == "cooccurrence":
        direction = "undirected"
        expected_edges = [
            {"source": a, "target": b, "weight": str(w)} for a, b, w in exp.cooccurrence_edges()
        ]
    else:
        direction = "directed"
        expected_edges = [
            {
                "source": s,
                "target": t,
                "probability": decimal_text(Fraction(j, n), 6),
                "joint_count": str(j),
                "source_count": str(n),
            }
            for s, t, j, n in exp.conditional_edges(min_support)
        ]
    require_equal(
        {"edgedefault": direction, "nodes": expected_nodes, "edges": expected_edges},
        {"edgedefault": graph.get("edgedefault"), "nodes": nodes, "edges": edges},
        "graphml",
    )


def check_graph_json(text: str, exp: Expected, kind: str, min_support: int = 1) -> None:
    expected: dict = {"kind": kind}
    if kind == "cooccurrence":
        expected["nodes"] = exp.nodes()
        expected["edges"] = [{"source": a, "target": b, "weight": w} for a, b, w in exp.cooccurrence_edges()]
    else:
        expected["min_support"] = min_support
        expected["nodes"] = exp.nodes()
        expected["edges"] = [
            {"source": s, "target": t, "joint_count": j, "source_count": n, "probability": _probability(j, n)}
            for s, t, j, n in exp.conditional_edges(min_support)
        ]
    require_equal(expected, _json(text, "graph json"), "graph json")


def check_classify(text: str, expected: list[dict]) -> None:
    require_equal(expected, _json(text, "classify"), "classify")


_WARNING = re.compile(r"corpus: warning: incident '(.+)': dropped unknown technique '(.+)'")


def check_validate(text: str, incidents: int, dropped: Counter) -> None:
    lines = text.splitlines()
    head = ["taxonomy: ok", "catalog: ok", f"corpus: ok ({incidents} incidents)"]
    if lines[:3] != head:
        raise CheckFailed(f"validate: expected {head}, got {lines[:3]}")
    warnings = Counter()
    for line in lines[3:]:
        match = _WARNING.fullmatch(line)
        if not match:
            raise CheckFailed(f"validate: unrecognised line {line!r}")
        warnings[match.groups()] += 1
    if warnings != dropped:
        raise CheckFailed(
            f"validate: {sum(warnings.values())} drop warnings, expected {sum(dropped.values())}"
            + ("" if sum(warnings.values()) != sum(dropped.values()) else " (different ids)")
        )


def _generated_rows(text: str, fmt: str) -> list[tuple[str, int, list[str]]]:
    if fmt == "json":
        return [(d["incident_id"], d["year"], d["techniques"]) for d in _json(text, "generate")]
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["incident_id", "title", "year", "targets", "techniques"]:
        raise CheckFailed("generate: bad CSV header")
    return [(r[0], int(r[2]), [t for t in r[4].split("|") if t]) for r in rows[1:] if r]


def check_generated(text: str, fmt: str, scale: int) -> int:
    """Reclassify a generated corpus and hold it to its spec; return its size."""
    try:
        rows = _generated_rows(text, fmt)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckFailed(f"generate: malformed {fmt} corpus: {exc!r}") from None
    executions = set(EXECUTION.values())
    marginals, sizes, ids = Counter(), Counter(), set()
    unmapped = 0
    for incident_id, year, techniques in rows:
        if not executions.issuperset(techniques) or len(set(techniques)) != len(techniques):
            raise CheckFailed(f"generate: {incident_id} carries {techniques}")
        if not YEARS[0] <= year <= YEARS[1] or incident_id in ids:
            raise CheckFailed(f"generate: {incident_id} has year {year} or a repeated id")
        ids.add(incident_id)
        present = [sid for sid in ORDER if EXECUTION[sid] in techniques]
        marginals.update(present)
        if present:
            sizes[len(present)] += 1
        else:
            unmapped += 1
    require_equal(
        {
            "marginals": {sid: FIXTURE_MARGINALS[sid] * scale for sid in ORDER},
            "sizes": {str(k): v * scale for k, v in FIXTURE_SIZES.items()},
            "unmapped": FIXTURE_UNMAPPED * scale,
        },
        {
            "marginals": {sid: marginals[sid] for sid in ORDER},
            "sizes": {str(k): sizes[k] for k in sorted(sizes)},
            "unmapped": unmapped,
        },
        f"generate x{scale}",
    )
    return len(rows)
