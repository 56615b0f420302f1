"""Command-line interface: validate, classify, stats, graph, generate.

Exit codes: 0 success, 1 domain or validation failure, 2 I/O failure.
All outputs are UTF-8 and byte-identical across runs for identical inputs
and configuration. Default taxonomy and catalog are the bundled files,
overridable with --taxonomy/--catalog or the INFLUENCEOPS_TAXONOMY and
INFLUENCEOPS_CATALOG environment variables.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .analytics import conditional_probabilities, cooccurrence
from .corpus import corpus_to_csv, corpus_to_json
from .errors import InfluenceOpsError, UnknownFormat
from .evidence import classification_json, classification_text, ingest_technique_masks
from .generate import generate_corpus, load_generator_spec
from .graphexport import GRAPH_FORMATS, export_graph
from .report import build_report, report_to_json, report_to_text
from .resources import bundled_data_path
from .strategies import check_disjointness, load_strategy_catalog
# validate, stats and graph ingest straight into the mask histogram; perfbench
# times the ingest layer by wrapping this name.
from .strategies import ingest_histogram as ingest_corpus
from .taxonomy import load_taxonomy, validate_taxonomy

ENV_TAXONOMY = "INFLUENCEOPS_TAXONOMY"
ENV_CATALOG = "INFLUENCEOPS_CATALOG"

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2


def _default_path(env_var: str, bundled_name: str) -> str:
    return os.environ.get(env_var) or str(bundled_data_path(bundled_name))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; no default reads the environment."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--taxonomy",
        default=None,
        help=f"taxonomy JSON path (default: bundled, or ${ENV_TAXONOMY})",
    )
    common.add_argument(
        "--catalog",
        default=None,
        help=f"strategy catalog JSON path (default: bundled, or ${ENV_CATALOG})",
    )
    common.add_argument("--corpus", default=None, help="incident corpus (.csv or .json)")
    mode = common.add_mutually_exclusive_group()
    mode.add_argument(
        "--strict", dest="ingest_mode", action="store_const", const="strict",
        help="fail ingestion on any unknown technique id (default)",
    )
    mode.add_argument(
        "--lenient", dest="ingest_mode", action="store_const", const="lenient",
        help="drop unknown technique ids per incident and report them",
    )
    common.set_defaults(ingest_mode="strict")
    common.add_argument(
        "--strict-prep", action="store_true",
        help="require a preparation technique in addition to the execution technique",
    )
    common.add_argument("--out", default=None, help="write output to this file instead of stdout")
    common.add_argument("--pretty", action="store_true", help="human-readable output")

    parser = argparse.ArgumentParser(
        prog="influenceops",
        description="Model influence-operation strategies and analyze incident corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "validate", parents=[common],
        help="validate taxonomy, catalog, and (optionally) a corpus",
    )

    sub.add_parser("classify", parents=[common], help="classify each incident into strategies")

    stats = sub.add_parser("stats", parents=[common], help="full analytics report for a corpus")
    stats.add_argument("--min-support", type=int, default=1,
                       help="conditional-graph source-count threshold (default 1)")

    graph = sub.add_parser("graph", parents=[common], help="export a strategy graph")
    graph.add_argument("--kind", choices=("cooccurrence", "conditional"), required=True)
    graph.add_argument("--format", dest="fmt", default="dot",
                       help=f"output format: {', '.join(GRAPH_FORMATS)}")
    graph.add_argument("--min-support", type=int, default=1,
                       help="conditional-graph source-count threshold (default 1)")

    generate = sub.add_parser(
        "generate", parents=[common], help="generate a synthetic corpus from a spec"
    )
    generate.add_argument("--spec", required=True, help="generator spec JSON path")
    generate.add_argument("--seed", type=int, default=None,
                          help="override the seed recorded in the spec")
    generate.add_argument("--corpus-format", choices=("csv", "json"), default="csv",
                          help="output document format (default csv)")

    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="")


def _load_inputs(args):
    taxonomy_path = args.taxonomy or _default_path(ENV_TAXONOMY, "taxonomy.json")
    catalog_path = args.catalog or _default_path(ENV_CATALOG, "catalog.json")
    taxonomy = load_taxonomy(taxonomy_path)
    catalog = load_strategy_catalog(catalog_path, taxonomy)
    return taxonomy, catalog


def _require_corpus(args):
    if not args.corpus:
        raise InfluenceOpsError("this command needs --corpus")
    return args.corpus


def _classified(args, taxonomy, catalog):
    """The corpus as a mask histogram, for the commands that need no incident."""
    return ingest_corpus(
        _require_corpus(args), taxonomy, catalog, args.ingest_mode, args.strict_prep
    )


def cmd_validate(args) -> int:
    taxonomy, catalog = _load_inputs(args)
    taxonomy_report = validate_taxonomy(taxonomy)
    catalog_report = check_disjointness(catalog)
    failed = False
    for label, report in (("taxonomy", taxonomy_report), ("catalog", catalog_report)):
        if report.ok:
            print(f"{label}: ok")
        else:
            failed = True
            print(f"{label}: INVALID\n{report}")
    if args.corpus:
        cc, ingestion = _classified(args, taxonomy, catalog)
        print(f"corpus: ok ({cc.total_count} incidents)")
        for warning in ingestion.warnings():
            print(f"corpus: warning: {warning}")
    return EXIT_DOMAIN if failed else EXIT_OK


def cmd_classify(args) -> int:
    taxonomy, catalog = _load_inputs(args)
    pairs, _ = ingest_technique_masks(_require_corpus(args), taxonomy, catalog, args.ingest_mode)
    render = classification_text if args.pretty else classification_json
    _emit(render(pairs, catalog, args.strict_prep), args.out)
    return EXIT_OK


def cmd_stats(args) -> int:
    taxonomy, catalog = _load_inputs(args)
    cc, _ = _classified(args, taxonomy, catalog)
    report = build_report(cc, ingest_mode=args.ingest_mode, min_support=args.min_support)
    _emit(report_to_text(report) if args.pretty else report_to_json(report), args.out)
    return EXIT_OK


def cmd_graph(args) -> int:
    if args.fmt not in GRAPH_FORMATS:
        raise UnknownFormat(
            f"unknown graph format {args.fmt!r}; expected one of {', '.join(GRAPH_FORMATS)}"
        )
    taxonomy, catalog = _load_inputs(args)
    cc, _ = _classified(args, taxonomy, catalog)
    if args.kind == "cooccurrence":
        graph = cooccurrence(cc)
    else:
        graph = conditional_probabilities(cc, args.min_support)
    _emit(export_graph(graph, args.fmt), args.out)
    return EXIT_OK


def cmd_generate(args) -> int:
    _, catalog = _load_inputs(args)
    spec = load_generator_spec(args.spec)
    if args.seed is not None:
        from dataclasses import replace

        spec = replace(spec, seed=args.seed)
    corpus = generate_corpus(spec, catalog)
    text = corpus_to_json(corpus) if args.corpus_format == "json" else corpus_to_csv(corpus)
    _emit(text, args.out)
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "classify": cmd_classify,
    "stats": cmd_stats,
    "graph": cmd_graph,
    "generate": cmd_generate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InfluenceOpsError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
