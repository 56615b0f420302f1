"""Every CLI output on drawn corpora, held to the benchmark's output checker.

``perfbench/check.py`` computes each expected statistic from a Counter over
strategy sets and exact Fractions, renders each decimal with the decimal
module, and never imports the package. ``perfbench/inputs.py`` restates the
bundled catalog and draws the corpora. Both are loaded by path, as they
are, so this is the check of every decimal the CLI prints that shares no
code with it. It covers the bundled catalog only; ``test_roundtrip.py``
covers a smaller one.
"""

from __future__ import annotations

import importlib.util
import io
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from influenceops.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up while it runs
    spec.loader.exec_module(module)
    return module


def _load_checker():
    """inputs.py and check.py, loaded by path; check.py's ``from inputs import``
    gets the inputs loaded here. Whatever held those two names in sys.modules
    before holds them again after."""
    saved = {name: sys.modules.get(name) for name in ("inputs", "check")}
    try:
        return _load("inputs"), _load("check")
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


inputs, check = _load_checker()


def run(argv: list[str]) -> tuple[int, str, str]:
    """main's exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _classify_rows(incidents, strict_prep: bool) -> list[dict]:
    return [
        {
            "incident_id": inc.incident_id,
            "strategies": list(inputs.strategy_set(inc.known(), strict_prep)),
            "evidence": inputs.evidence(inc.known(), strict_prep),
        }
        for inc in incidents
    ]


# max_examples=120: 10 commands on each of 123 corpora of up to 300 incidents
# take about 4 s on a shared 2-vCPU VM (Python 3.11).
@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    size=st.integers(1, 300),
    unknown_rate=st.just(0.0) | st.floats(0, 0.2),
    cover_all=st.booleans(),
    fmt=st.sampled_from(["csv", "json"]),
    strict_prep=st.booleans(),
    lenient=st.booleans(),
    min_support=st.integers(0, 3) | st.integers(0, 120),
)
# Three cases the draws seldom reach: one incident that --strict-prep leaves
# unmapped; unknown ids under strict ingestion; and --min-support 0 on a
# corpus where --strict-prep leaves strategies with no incident.
@example(seed=52, size=1, unknown_rate=0.0, cover_all=False, fmt="csv", strict_prep=True, lenient=False,
         min_support=1)
@example(seed=0, size=20, unknown_rate=0.1, cover_all=False, fmt="json", strict_prep=False, lenient=False,
         min_support=1)
@example(seed=0, size=20, unknown_rate=0.1, cover_all=False, fmt="json", strict_prep=True, lenient=True,
         min_support=0)
def test_every_output_is_the_checkers(seed, size, unknown_rate, cover_all, fmt, strict_prep, lenient, min_support):
    incidents = inputs.make_incidents(seed, size, "P", unknown_rate, cover_all)
    dropped = Counter((inc.incident_id, u) for inc in incidents for u in inc.unknown)
    exp = check.Expected([inputs.strategy_set(inc.known(), strict_prep) for inc in incidents])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"corpus.{fmt}"
        inputs.write_corpus(path, incidents)
        corpus = ["--corpus", str(path), *(["--lenient"] if lenient else [])]
        flags = [*corpus, *(["--strict-prep"] if strict_prep else [])]
        support = ["--min-support", str(min_support)]
        validate = run(["validate", *corpus])
        classify = run(["classify", *flags])
        stats = [run(["stats", *flags, *support, *pretty]) for pretty in ([], ["--pretty"])]
        graphs = [
            (kind, graph_fmt, run(["graph", "--kind", kind, "--format", graph_fmt, *flags,
                                   *(support if kind == "conditional" else [])]))
            for kind in ("cooccurrence", "conditional")
            for graph_fmt in ("dot", "graphml", "json")
        ]

    if dropped and not lenient:
        # Strict ingestion refuses the first unknown technique id.
        for code, out, err in [validate, classify, *stats, *(result for _, _, result in graphs)]:
            assert (code, out) == (1, "")
            assert err.startswith("UnknownTechnique: ") and err.count("\n") == 1
        return

    code, out, err = validate
    assert (code, err) == (0, "")
    check.check_validate(out, len(incidents), dropped)
    code, out, err = classify
    assert (code, err) == (0, "")
    check.check_classify(out, _classify_rows(incidents, strict_prep))

    if not exp.mapped:
        for code, out, err in [*stats, *(result for _, _, result in graphs)]:
            assert (code, out) == (1, "")
            assert err.startswith("EmptyCorpus: ") and err.count("\n") == 1
        return

    (code, out, err), (pretty_code, pretty, pretty_err) = stats
    assert (code, err, pretty_code, pretty_err) == (0, "", 0, "")
    check.check_stats_json(out, exp, source=str(path), ingest_mode="lenient" if lenient else "strict",
                           strict_prep=strict_prep, min_support=min_support)
    check.check_stats_text(pretty, exp)
    writers = {"dot": check.check_dot, "graphml": check.check_graphml, "json": check.check_graph_json}
    for kind, graph_fmt, (code, out, err) in graphs:
        assert (code, err) == (0, "")
        writers[graph_fmt](out, exp, kind, min_support)  # a cooccurrence check reads no min_support
