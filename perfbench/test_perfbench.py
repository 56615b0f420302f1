"""Tests of the benchmark itself: inputs, checker and spans.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import io
import json
import re
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import check
import inputs
import run
import runner
import speed
from spans import layer_metrics, self_times

sys.path.insert(0, str(run.SRC))

from influenceops.cli import main  # noqa: E402


def _cli(tmp_path: Path, argv: list[str]) -> str:
    out = tmp_path / "out.txt"
    assert main([*argv, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


@pytest.fixture()
def corpus(tmp_path):
    incidents = inputs.make_incidents(3, 400, "T", cover_all=True)
    path = tmp_path / "c.csv"
    inputs.write_corpus(path, incidents)
    return path, check.Expected([inputs.strategy_set(inc.known()) for inc in incidents])


def _digit_mutants(text: str, skip=()):
    """Every copy of text with one digit changed, outside the spans in skip."""
    for m in re.finditer(r"\d", text):
        if not any(a <= m.start() < b for a, b in skip):
            digit = str((int(m.group()) + 1) % 10)
            yield text[: m.start()] + digit + text[m.end():]


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for name in ("a", "b", "c"):
        (tmp_path / name).mkdir()
    run.generate_scaled(tmp_path / "a", 11)
    run.generate_scaled(tmp_path / "b", 11)
    run.generate_scaled(tmp_path / "c", 12)
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert all((tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes() for f in files)
    assert any((tmp_path / "a" / f).read_bytes() != (tmp_path / "c" / f).read_bytes() for f in files)

    def corpora(seed):
        incidents = inputs.make_incidents(seed, 2000, "X", unknown_rate=0.05, cover_all=True)
        return inputs.corpus_csv(incidents), inputs.corpus_json(incidents)

    assert corpora(5) == corpora(5)
    assert corpora(5)[0] != corpora(6)[0]


def test_inputs_cover_every_strategy_set_and_inject_unknown_ids():
    incidents = inputs.make_incidents(1, 3000, "X", unknown_rate=0.05, cover_all=True)
    sets = Counter(inputs.strategy_set(inc.known()) for inc in incidents)
    assert len([s for s in sets if s]) == 127
    assert sets[()] == round(3000 / 81)
    assert sum(len(inc.unknown) for inc in incidents) == 150
    assert all(u.startswith("T9") for inc in incidents for u in inc.unknown)


def test_decimal_text_rounds_half_even():
    assert check.decimal_text(Fraction(1, 8), 2) == "0.12"
    assert check.decimal_text(Fraction(3, 8), 2) == "0.38"
    assert check.decimal_text(Fraction(2, 3), 4) == "0.6667"
    assert check.decimal_text(Fraction(0), 6) == "0.000000"
    assert check.decimal_text(Fraction(100), 1) == "100.0"


def test_checker_accepts_real_outputs_and_flags_a_count_off_by_one(tmp_path, corpus):
    path, exp = corpus
    config = dict(source=str(path), ingest_mode="strict", strict_prep=False, min_support=1)
    text = _cli(tmp_path, ["stats", "--corpus", str(path)])
    check.check_stats_json(text, exp, **config)

    doc = json.loads(text)
    doc["prevalence"]["strategies"][2]["count"] += 1
    with pytest.raises(check.CheckFailed, match="count"):
        check.check_stats_json(json.dumps(doc), exp, **config)
    doc = json.loads(text)
    doc["patterns"]["rows"][-1]["containment"] -= 1
    with pytest.raises(check.CheckFailed, match="containment"):
        check.check_stats_json(json.dumps(doc), exp, **config)


def test_checker_flags_every_changed_digit(tmp_path, corpus):
    path, exp = corpus
    corpus_args = ["--corpus", str(path)]
    outputs = {
        "stats": (_cli(tmp_path, ["stats", *corpus_args]), lambda t: check.check_stats_json(
            t, exp, source=str(path), ingest_mode="strict", strict_prep=False, min_support=1)),
        "pretty": (_cli(tmp_path, ["stats", "--pretty", *corpus_args]), lambda t: check.check_stats_text(t, exp)),
        "dot": (_cli(tmp_path, ["graph", "--kind", "conditional", "--format", "dot", *corpus_args]),
                lambda t: check.check_dot(t, exp, "conditional")),
        "graphml": (_cli(tmp_path, ["graph", "--kind", "conditional", "--format", "graphml",
                                    "--min-support", "100", *corpus_args]),
                    lambda t: check.check_graphml(t, exp, "conditional", 100)),
        "json": (_cli(tmp_path, ["graph", "--kind", "cooccurrence", "--format", "json", *corpus_args]),
                 lambda t: check.check_graph_json(t, exp, "cooccurrence")),
    }
    for name, (text, checker) in outputs.items():
        checker(text)
        # The tool version is not checked: a release may change it.
        skip = [m.span() for m in re.finditer(r'"tool": \{[^}]*\}', text)]
        mutants = list(_digit_mutants(text, skip))
        assert len(mutants) > 50, name
        for mutant in mutants:
            with pytest.raises(check.CheckFailed):
                checker(mutant)


def test_checker_flags_changed_classify_and_validate_outputs(tmp_path):
    incidents = inputs.make_incidents(4, 300, "V", unknown_rate=0.05)
    path = tmp_path / "v.json"
    inputs.write_corpus(path, incidents)
    expected = [
        {
            "incident_id": inc.incident_id,
            "strategies": list(inputs.strategy_set(inc.known(), strict_prep=True)),
            "evidence": inputs.evidence(inc.known(), strict_prep=True),
        }
        for inc in incidents
    ]
    text = _cli(tmp_path, ["classify", "--lenient", "--strict-prep", "--corpus", str(path)])
    check.check_classify(text, expected)
    with pytest.raises(check.CheckFailed):
        check.check_classify(text.replace('"T0', '"T1', 1), expected)

    dropped = Counter((inc.incident_id, u) for inc in incidents for u in inc.unknown)
    assert sum(dropped.values()) == 15
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(["validate", "--lenient", "--corpus", str(path)]) == 0
    text = buf.getvalue()
    check.check_validate(text, 300, dropped)
    with pytest.raises(check.CheckFailed):
        check.check_validate(text.rsplit("corpus: warning", 1)[0], 300, dropped)


def test_checker_holds_generated_corpus_to_its_spec(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(inputs.scaled_spec(2, 9)), encoding="utf-8")
    for fmt in ("json", "csv"):
        text = _cli(tmp_path, ["generate", "--spec", str(spec), "--corpus-format", fmt])
        assert check.check_generated(text, fmt, 2) == 162
        with pytest.raises(check.CheckFailed):
            check.check_generated(text, fmt, 3)
    rows = text.splitlines()
    assert check.check_generated("\n".join(rows), "csv", 2) == 162
    with pytest.raises(check.CheckFailed):
        check.check_generated("\n".join(rows[:-1]), "csv", 2)


def test_span_self_times_sum_to_each_root_span(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    inputs.write_corpus(tmp_path / "c.csv", inputs.make_incidents(2, 200, "S"))
    (tmp_path / "spec.json").write_text(json.dumps(inputs.scaled_spec(1, 3)), encoding="utf-8")
    (tmp_path / "keep").mkdir()
    argvs = [
        ["validate", "--corpus", "c.csv"],
        ["stats", "--pretty", "--corpus", "c.csv", "--out", "o"],
        ["graph", "--kind", "conditional", "--format", "graphml", "--corpus", "c.csv", "--out", "o"],
        ["generate", "--spec", "spec.json", "--out", "o"],
        ["stats", "--corpus", "missing.csv", "--out", "o"],
    ]
    plan = {
        "src": str(run.SRC),
        "trace": True,
        "commands": [
            {"argv": a, "out": "o" if "--out" in a else None, "keep": f"keep/{i}"} for i, a in enumerate(argvs)
        ],
        "seconds": 0,
    }
    result = runner.execute(plan)
    assert [run.Run(*r).rc for r in result["runs"]] == [0, 0, 0, 0, 2]

    spans = result["spans"]
    own = self_times(spans)
    for command in range(len(argvs)):
        ids = [i for i, s in enumerate(spans) if s[4] == command]
        roots = [i for i in ids if spans[i][3] == -1]
        assert [spans[i][0] for i in roots] == ["cli.main"]
        root = spans[roots[0]]
        assert sum(own[i] for i in ids) == root[2] - root[1]
        assert all(o >= 0 for o in (own[i] for i in ids))

    metrics = layer_metrics(spans, len(argvs), 0, 0, 0)
    layers = sum(v for k, v in metrics.items() if k.endswith("_s") and k not in ("cli.main_s", "gc.pause_s"))
    assert layers + metrics["render.s"] == pytest.approx(metrics["cli.main_s"])
    assert metrics["cli.commands"] == 5 and metrics["generate.incidents"] == 81 / 5
    assert metrics["corpus.incidents"] == 3 * 200 / 5

    from influenceops import cli

    assert cli.build_report.__module__ == "influenceops.report"  # wrappers were removed


def test_reference_kernel_runs_for_the_time_asked():
    started = time.perf_counter_ns()
    pass_ns = speed.reference_ns(20_000_000)
    assert time.perf_counter_ns() - started >= 20_000_000
    assert 0 < pass_ns <= time.perf_counter_ns() - started
    assert speed.at_reference_speed(10.0, 2 * speed.REFERENCE_PASS_NS) == 5.0


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(run.HERE).glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-session", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".perfbench_work").exists()
