"""Command-line interface: validate, classify, stats, graph, generate.

Exit codes: 0 success, 1 domain or validation failure, 2 I/O failure or usage error.
All outputs are UTF-8, on stdout too whatever its encoding, and
byte-identical across runs for identical inputs and configuration. A closed
stdout is an I/O failure. Default taxonomy and catalog are the bundled files,
overridable with --taxonomy/--catalog or the INFLUENCEOPS_TAXONOMY and
INFLUENCEOPS_CATALOG environment variables; an empty variable counts as
unset. Every path flag (--taxonomy, --catalog, --corpus, --spec, --out)
refuses an empty string as a usage error, before anything is loaded.

``validate`` reports what loading established: each loader raises on any rule
it checks. A command writes its output in chunks, as it renders them, and only
after every check, so a typed error writes nothing. ``--out`` replaces a
regular or absent file through a temporary file beside it, so a failed write
leaves it as it was, and writes any other path (a symlink, a FIFO, a device) in
place. A write to stdout that fails part-way (a full disk, a closed pipe) is an
I/O failure too, and leaves stdout with what was written before it.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import stat
import sys
from collections.abc import Iterable

from .analytics import conditional_probabilities, cooccurrence
from .errors import InfluenceOpsError
from .evidence import classification_json_chunks, classification_text_chunks, ingest_technique_masks
# generate writes its text straight from the incident layout; the aliases
# keep the names that perfbench wraps to time generation and serialization.
# corpus_to_csv and corpus_to_json now only set up the generator of chunks, so
# the corpus.serialize span times that alone: the rows are rendered as _emit
# writes them, which shows in cli.self_s until the package has a stage timer
# of its own that times rendering where it happens.
from .generate import _layout as generate_corpus, _layout_csv as corpus_to_csv
from .generate import _layout_json as corpus_to_json, load_generator_spec
from .graphexport import GRAPH_FORMATS, _writer, export_graph
from .report import _tables, build_report, report_to_json, report_to_text
from .resources import bundled_data_path
from .strategies import load_strategy_catalog
# validate, stats and graph scan the corpus file straight into the mask
# histogram. The alias keeps the name that perfbench wraps to time ingest.
from .strategies import ingest_histogram as ingest_corpus
from .taxonomy import load_taxonomy

ENV_TAXONOMY = "INFLUENCEOPS_TAXONOMY"
ENV_CATALOG = "INFLUENCEOPS_CATALOG"

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2


def _default_path(env_var: str, bundled_name: str) -> str:
    return os.environ.get(env_var) or str(bundled_data_path(bundled_name))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; no default reads the environment.

    Each subcommand takes only the flags it reads, from these parents, and
    no abbreviation of a flag (``generate --corpus`` would be taken for
    ``--corpus-format``).
    """
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--taxonomy", type=_path, help=f"taxonomy JSON path (default: bundled, or ${ENV_TAXONOMY})")
    inputs.add_argument("--catalog", type=_path,
                        help=f"strategy catalog JSON path (default: bundled, or ${ENV_CATALOG})")
    corpus, optional_corpus = argparse.ArgumentParser(add_help=False), argparse.ArgumentParser(add_help=False)
    for flags in (corpus, optional_corpus):
        flags.add_argument("--corpus", required=flags is corpus, type=_path, help="incident corpus (.csv or .json)")
        mode = flags.add_mutually_exclusive_group()
        mode.add_argument("--strict", dest="ingest_mode", action="store_const", const="strict",
                          help="fail ingestion on any unknown technique id (default)")
        mode.add_argument("--lenient", dest="ingest_mode", action="store_const", const="lenient",
                          help="drop unknown technique ids per incident and report them")
        flags.set_defaults(ingest_mode="strict")
    strict_prep = argparse.ArgumentParser(add_help=False)
    strict_prep.add_argument("--strict-prep", action="store_true",
                             help="require a preparation technique in addition to the execution technique")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=_path, help="write output to this file instead of stdout")
    pretty = argparse.ArgumentParser(add_help=False)
    pretty.add_argument("--pretty", action="store_true", help="human-readable output")

    parser = argparse.ArgumentParser(
        prog="influenceops",
        description="Model influence-operation strategies and analyze incident corpora.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", required=True)
    add_command = functools.partial(commands.add_parser, allow_abbrev=False)

    add_command("validate", parents=[inputs, optional_corpus],
                help="validate taxonomy, catalog, and (optionally) a corpus")
    add_command("classify", parents=[inputs, corpus, strict_prep, out, pretty],
                help="classify each incident into strategies")

    stats = add_command("stats", parents=[inputs, corpus, strict_prep, out, pretty],
                        help="full analytics report for a corpus")
    stats.add_argument("--min-support", type=int, default=1,
                       help="conditional-graph source-count threshold (default 1)")

    graph = add_command("graph", parents=[inputs, corpus, strict_prep, out], help="export a strategy graph")
    graph.add_argument("--kind", choices=("cooccurrence", "conditional"), required=True)
    graph.add_argument("--format", dest="fmt", default="dot",
                       help=f"output format: {', '.join(GRAPH_FORMATS)}")
    graph.add_argument("--min-support", type=int,
                       help="conditional-graph source-count threshold (default 1); --kind conditional only")

    generate = add_command("generate", parents=[inputs, out], help="generate a synthetic corpus from a spec")
    generate.add_argument("--spec", required=True, type=_path, help="generator spec JSON path")
    generate.add_argument("--seed", type=int, default=None,
                          help="override the seed recorded in the spec")
    generate.add_argument("--corpus-format", choices=("csv", "json"), default="csv",
                          help="output document format (default csv)")

    return parser


def _path(value: str) -> str:
    if not value:
        raise argparse.ArgumentTypeError("expected a path, got an empty string")
    return value


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write the chunks of one output as UTF-8, each as it comes, to ``out``, or
    else to stdout whatever its encoding.

    A command passes its chunks only after every check and scan, so only an
    OSError can stop the writing part-way. Stdout is then left with what was
    written; ``out`` is left as it was (see the module docstring).
    """
    if out is None:
        if sys.stdout is None:  # the process was started with stdout closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF), "<stdout>")
        buffer = getattr(sys.stdout, "buffer", None)
        if buffer is None:  # a text-only stream, such as io.StringIO
            for chunk in chunks:
                sys.stdout.write(chunk)
            return
        # Straight to the file under the buffer, so that a failed write leaves
        # no bytes behind for the interpreter to fail on again at exit.
        sys.stdout.flush()
        _write(getattr(buffer, "raw", buffer), chunks)
        return
    try:
        mode = os.lstat(out).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(out, "wb", buffering=0) as file:
            _write(file, chunks)
        return
    temporary = os.path.join(os.path.dirname(out), f".influenceops-{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the path the user gave, not the temporary file
        raise OSError(exc.errno, exc.strerror, out) from None
    try:
        with open(fd, "wb", buffering=0) as file:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))  # the replaced file's permission bits
            _write(file, chunks)
        os.replace(temporary, out)
    except BaseException:
        os.unlink(temporary)
        raise


def _write(file, chunks: Iterable[str]) -> None:
    """Write each chunk whole: a write that stops part-way is repeated with the
    rest, so that what stopped it is raised, and a stream that would block
    is an error."""
    for chunk in chunks:
        data = memoryview(chunk.encode("utf-8"))
        while data:
            written = file.write(data)
            if written is None:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            data = data[written:]


def _load_inputs(args):
    taxonomy_path = args.taxonomy or _default_path(ENV_TAXONOMY, "taxonomy.json")
    catalog_path = args.catalog or _default_path(ENV_CATALOG, "catalog.json")
    taxonomy = load_taxonomy(taxonomy_path)
    catalog = load_strategy_catalog(catalog_path, taxonomy)
    return taxonomy, catalog


def cmd_validate(args) -> int:
    taxonomy, catalog = _load_inputs(args)  # each loader raises on any rule it checks
    lines = ["taxonomy: ok", "catalog: ok"]
    if args.corpus:
        cc, ingestion = ingest_corpus(args.corpus, taxonomy, catalog, args.ingest_mode)
        lines += [f"corpus: ok ({cc.total_count} incidents)", *(f"corpus: warning: {w}" for w in ingestion.warnings())]
    _emit(("\n".join(lines) + "\n",), None)
    return EXIT_OK


def cmd_classify(args) -> int:
    taxonomy, catalog = _load_inputs(args)
    pairs, _ = ingest_technique_masks(args.corpus, taxonomy, catalog, args.ingest_mode)
    render = classification_text_chunks if args.pretty else classification_json_chunks
    _emit(render(pairs, catalog, args.strict_prep), args.out)
    return EXIT_OK


def cmd_stats(args) -> int:
    taxonomy, catalog = _load_inputs(args)
    cc, _ = ingest_corpus(args.corpus, taxonomy, catalog, args.ingest_mode, args.strict_prep)
    if args.pretty:  # the text tables read no graph
        text = report_to_text(_tables(cc, args.ingest_mode, args.min_support))
    else:
        text = report_to_json(build_report(cc, ingest_mode=args.ingest_mode, min_support=args.min_support))
    _emit((text,), args.out)
    return EXIT_OK


def cmd_graph(args) -> int:
    _writer(args.fmt)  # an unknown format fails before anything is loaded
    taxonomy, catalog = _load_inputs(args)
    cc, _ = ingest_corpus(args.corpus, taxonomy, catalog, args.ingest_mode, args.strict_prep)
    if args.kind == "cooccurrence":
        graph = cooccurrence(cc)
    else:
        graph = conditional_probabilities(cc, 1 if args.min_support is None else args.min_support)
    _emit((export_graph(graph, args.fmt),), args.out)
    return EXIT_OK


def cmd_generate(args) -> int:
    _, catalog = _load_inputs(args)
    spec = load_generator_spec(args.spec)
    if args.seed is not None:
        from dataclasses import replace

        spec = replace(spec, seed=args.seed)
    write = corpus_to_json if args.corpus_format == "json" else corpus_to_csv
    _emit(write(generate_corpus(spec, catalog)), args.out)
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "classify": cmd_classify,
    "stats": cmd_stats,
    "graph": cmd_graph,
    "generate": cmd_generate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "graph" and args.kind == "cooccurrence" and args.min_support is not None:
        parser.error("argument --min-support: not allowed with --kind cooccurrence")
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
