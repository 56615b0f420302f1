"""Spans around the calls that the CLI makes into each layer.

The tracer replaces the functions that influenceops.cli, .report and
.graphexport import by wrappers that record a span per call: name, start,
end, parent span and command id, plus counts read from the call's result.
Spans stay in memory until the run ends. A span's self time is its
duration minus the durations of its children; calls are nested and run in
one thread, so the self times of one command's spans sum to its root span.
"""

from __future__ import annotations

import gc
import importlib
import os
from collections import defaultdict
from time import perf_counter_ns

# module -> {imported name: span name}
WRAPPED = {
    "influenceops.cli": {
        "build_parser": "cli.build_parser",
        "load_taxonomy": "taxonomy.load",
        "validate_taxonomy": "taxonomy.validate",
        "load_strategy_catalog": "strategies.catalog_load",
        "check_disjointness": "strategies.disjointness",
        "classify_corpus": "strategies.classify",
        "ingest_corpus": "corpus.ingest",
        "corpus_to_csv": "corpus.serialize",
        "corpus_to_json": "corpus.serialize",
        "cooccurrence": "analytics.cooccurrence",
        "conditional_probabilities": "analytics.conditional",
        "build_report": "report.build",
        "report_to_json": "report.to_json",
        "report_to_text": "report.to_text",
        "export_graph": "graphexport.export",
        "load_generator_spec": "generate.spec_load",
        "generate_corpus": "generate.generate",
    },
    "influenceops.report": {
        "mapping_coverage": "analytics.coverage",
        "prevalence": "analytics.prevalence",
        "size_distribution": "analytics.size_distribution",
        "pattern_frequencies": "analytics.pattern_frequencies",
        "cooccurrence": "analytics.cooccurrence",
        "conditional_probabilities": "analytics.conditional",
        "fraction_payload": "render",
        "percent_string": "render",
    },
    "influenceops.graphexport": {
        "decimal_string": "render",
        "fraction_payload": "render",
    },
}


def _ingest_counts(args, result):
    corpus, ingestion = result
    return {
        "corpus.in_bytes": os.path.getsize(args[0]),
        "corpus.incidents": len(corpus),
        "corpus.techniques_dropped": len(ingestion.dropped),
    }


def _classify_counts(args, result):
    return {
        "strategies.profiles": result.total_count,
        "strategies.mapped": result.mapped_count,
        "strategies.assignments": sum(len(p.strategies) for p in result.profiles),
    }


COUNTERS = {
    "corpus.ingest": _ingest_counts,
    "strategies.classify": _classify_counts,
    "analytics.pattern_frequencies": lambda args, r: {"analytics.distinct_patterns": r.distinct_pattern_count},
    "graphexport.export": lambda args, r: {"graphexport.out_bytes": len(r.encode("utf-8"))},
    "generate.generate": lambda args, r: {"generate.incidents": len(r)},
}

# Span name -> name of its self-time metric, where it is not "<span>_s".
TIME_METRICS = {"cli.main": "cli.self_s", "report.build": "report.build_self_s", "render": "render.s"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, command, counts]
        self.command = 0
        self.gc_pause_ns = 0
        self.gc_gen2 = 0
        self._stack: list[int] = []
        self._gc_start = 0
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.command, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter_ns()
                span[5] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            span[2] = perf_counter_ns()
            if counter:
                span[5] = counter(args, result)
            return result

        return traced

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter_ns()
        else:
            self.gc_pause_ns += perf_counter_ns() - self._gc_start
            self.gc_gen2 += info["generation"] == 2

    def install(self) -> list[str]:
        """Patch every wrapped name; return the names the package lacks."""
        missing = []
        for module_name, names in WRAPPED.items():
            module = importlib.import_module(module_name)
            for attr, span_name in names.items():
                original = getattr(module, attr, None)
                if original is None:
                    missing.append(f"{module_name}.{attr}")
                    continue
                self._patched.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original))
        gc.callbacks.append(self._on_gc)
        return missing

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_times(spans: list[list]) -> list[int]:
    """Duration of each span minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


LAYER_METRICS = (
    "cli.main_s", "cli.self_s", "cli.build_parser_s", "cli.commands", "cli.out_bytes",
    "taxonomy.load_s", "taxonomy.validate_s",
    "strategies.catalog_load_s", "strategies.disjointness_s", "strategies.classify_s",
    "strategies.profiles", "strategies.mapped", "strategies.assignments",
    "corpus.ingest_s", "corpus.in_bytes", "corpus.incidents", "corpus.techniques_dropped",
    "corpus.serialize_s",
    "analytics.coverage_s", "analytics.prevalence_s", "analytics.size_distribution_s",
    "analytics.pattern_frequencies_s", "analytics.cooccurrence_s", "analytics.conditional_s",
    "analytics.distinct_patterns",
    "report.build_self_s", "report.to_json_s", "report.to_text_s",
    "render.calls", "render.s",
    "graphexport.export_s", "graphexport.out_bytes",
    "generate.spec_load_s", "generate.generate_s", "generate.incidents", "generate.specs_failed",
    "gc.pause_s", "gc.gen2_collections",
)


def layer_metrics(spans: list[list], commands: int, out_bytes: int, gc_pause_ns: int, gc_gen2: int) -> dict:
    """Per-layer metrics as means per CLI command; cli.commands is the count.

    Times are self times, so the layer times other than cli.main_s add up
    to cli.main_s.
    """
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        name, start, end, parent, _, counts = span
        totals[TIME_METRICS.get(name, f"{name}_s")] += own / 1e9
        if name == "cli.main":
            totals["cli.main_s"] += (end - start) / 1e9
        elif name == "render":
            totals["render.calls"] += 1
        for key, value in (counts or {}).items():
            if key == "error":
                totals["generate.specs_failed"] += name == "generate.generate"
            else:
                totals[key] += value
    totals["cli.out_bytes"] += out_bytes
    totals["gc.pause_s"] += gc_pause_ns / 1e9
    totals["gc.gen2_collections"] += gc_gen2
    per_command = {name: totals.get(name, 0.0) / max(commands, 1) for name in LAYER_METRICS}
    per_command["cli.commands"] = commands
    return per_command
