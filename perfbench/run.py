#!/usr/bin/env python3
"""Benchmark of the influenceops CLI on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
Inputs are written from the seed before anything is timed. Each workload
is a closed loop with one client: commands run through cli.main one after
another in a runner process (runner.py), and every output is checked
against ground truth that check.py computes without the package. Times
are scaled to reference speed (speed.py), because the speed of a shared
machine drifts during and between runs. With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced pass
and the tracing overhead against an untraced pass of the same length.
README.md in this directory describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from random import Random
from time import perf_counter
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import inputs  # noqa: E402
from spans import layer_metrics  # noqa: E402
from speed import at_reference_speed  # noqa: E402

CHILD_TIMEOUT_S = 150
LEAD_NS = 1_000_000_000  # reference kernel before a pass's first command
SETUP_PROBES = 15
SETUP_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[2])
from speed import reference_ns
t = time.perf_counter_ns()
sys.path.insert(0, sys.argv[1])
import influenceops
taxonomy = influenceops.load_bundled_taxonomy()
influenceops.load_bundled_catalog(taxonomy)
t = time.perf_counter_ns() - t
print(t, reference_ns(t), influenceops.__file__)
"""


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


@dataclass
class Command:
    label: str  # stable across runs and checkouts; names the output in the hash manifest
    argv: list[str]
    check: Callable[[str], int]  # raises check.CheckFailed; returns incidents credited
    uses_out: bool = True  # writes through --out rather than stdout


@dataclass
class Workload:
    commands: list[Command]
    fresh_process: bool  # one runner process per command, as a shell user runs the CLI
    round: int = 0  # commands between stop checks; 0 means all of them
    min_commands: int = 1


def bulk_stats(run_dir: Path, seed: int) -> Workload:
    incidents = inputs.make_incidents(seed, 50_000, "BS", cover_all=True)
    inputs.write_corpus(run_dir / "bulk.csv", incidents)
    exp = check.Expected([inputs.strategy_set(inc.known()) for inc in incidents])
    n = len(incidents)

    def stats(text):
        check.check_stats_json(text, exp, source="bulk.csv", ingest_mode="strict", strict_prep=False, min_support=1)
        return n

    def dot(text):
        check.check_dot(text, exp, "cooccurrence")
        return n

    def graphml(text):
        check.check_graphml(text, exp, "conditional", 100)
        return n

    corpus = ["--corpus", "bulk.csv"]
    return Workload(
        [
            Command("stats", ["stats", *corpus], stats),
            Command("graph-cooccurrence-dot", ["graph", "--kind", "cooccurrence", "--format", "dot", *corpus], dot),
            Command(
                "graph-conditional-graphml",
                ["graph", "--kind", "conditional", "--format", "graphml", "--min-support", "100", *corpus],
                graphml,
            ),
        ],
        fresh_process=True,
    )


def classify_lenient(run_dir: Path, seed: int) -> Workload:
    incidents = inputs.make_incidents(seed, 50_000, "CL", unknown_rate=0.05, cover_all=True)
    inputs.write_corpus(run_dir / "lenient.json", incidents)
    dropped = Counter((inc.incident_id, u) for inc in incidents for u in inc.unknown)
    expected = [
        {
            "incident_id": inc.incident_id,
            "strategies": list(inputs.strategy_set(inc.known(), strict_prep=True)),
            "evidence": inputs.evidence(inc.known(), strict_prep=True),
        }
        for inc in incidents
    ]
    n = len(incidents)

    def validate(text):
        check.check_validate(text, n, dropped)
        return n

    def classify(text):
        check.check_classify(text, expected)
        return n

    corpus = ["--lenient", "--corpus", "lenient.json"]
    return Workload(
        [
            Command("validate-lenient", ["validate", *corpus], validate, uses_out=False),
            Command("classify-lenient-strict-prep", ["classify", "--strict-prep", *corpus], classify),
        ],
        fresh_process=True,
    )


SMALL_CORPORA = 300


def small_session(run_dir: Path, seed: int) -> Workload:
    sizes = inputs.small_sizes(SMALL_CORPORA)
    Random(seed).shuffle(sizes)
    commands = []
    for j, size in enumerate(sizes):
        name = f"small{j:03d}.{'csv' if j % 2 == 0 else 'json'}"
        incidents = inputs.make_incidents(seed * 10_007 + j, size, f"SS{j:03d}")
        inputs.write_corpus(run_dir / name, incidents)
        exp = check.Expected([inputs.strategy_set(inc.known()) for inc in incidents])

        def validate(text, exp=exp, size=size):
            check.check_validate(text, size, Counter())
            return size

        def stats(text, exp=exp, size=size, name=name):
            check.check_stats_json(text, exp, source=name, ingest_mode="strict", strict_prep=False, min_support=1)
            return size

        def pretty(text, exp=exp, size=size):
            check.check_stats_text(text, exp)
            return size

        def dot(text, exp=exp, size=size):
            check.check_dot(text, exp, "conditional")
            return size

        def graph_json(text, exp=exp, size=size):
            check.check_graph_json(text, exp, "cooccurrence")
            return size

        corpus = ["--corpus", name]
        commands += [
            Command(f"{name} validate", ["validate", *corpus], validate, uses_out=False),
            Command(f"{name} stats", ["stats", *corpus], stats),
            Command(f"{name} stats-pretty", ["stats", "--pretty", *corpus], pretty),
            Command(f"{name} graph-conditional-dot", ["graph", "--kind", "conditional", "--format", "dot", *corpus], dot),
            Command(
                f"{name} graph-cooccurrence-json", ["graph", "--kind", "cooccurrence", "--format", "json", *corpus], graph_json
            ),
        ]
    # p99 needs at least 10 samples beyond it.
    return Workload(commands, fresh_process=False, round=1, min_commands=1000)


SCALES = (1, 2, 3, 4, 5, 6, 8, 10, 15, 20, 25, 30, 40, 50)
SPEC_SEEDS = 3


def generate_scaled(run_dir: Path, seed: int) -> Workload:
    rng = Random(seed)
    commands = []
    for scale in SCALES:
        for r in range(SPEC_SEEDS):
            spec = f"spec-x{scale}-{r}.json"
            text = json.dumps(inputs.scaled_spec(scale, rng.randrange(1 << 31)), indent=2) + "\n"
            (run_dir / spec).write_text(text, encoding="utf-8")
            for fmt in ("csv", "json"):
                commands.append(
                    Command(
                        f"generate x{scale} #{r} {fmt}",
                        ["generate", "--spec", spec, "--corpus-format", fmt],
                        lambda text, fmt=fmt, scale=scale: check.check_generated(text, fmt, scale),
                    )
                )
    # Whole rounds only, so that every run attempts the same mix of specs.
    return Workload(commands, fresh_process=False)


WORKLOADS = {
    "bulk-stats": bulk_stats,
    "classify-lenient": classify_lenient,
    "small-session": small_session,
    "generate-scaled": generate_scaled,
}


class Run(NamedTuple):
    """One command run, as runner.py records it."""

    index: int  # into Workload.commands
    ns: int  # wall time of main()
    pass_ns: float  # reference kernel pass time around it: after it and after the run before
    rc: int | None
    error: str | None  # type of the exception main() raised
    sha: str | None  # of the output, None if there was none
    out_bytes: int
    stderr: str

    @property
    def ms(self) -> float:
        """Latency at reference speed."""
        return at_reference_speed(self.ns, self.pass_ns) / 1e6


@dataclass
class PassResult:
    records: list[Run] = field(default_factory=list)
    last_pass_ns: float | None = None  # kernel pass time after the latest command
    maxrss_kb: int = 0
    processes: int = 0
    spans: list = field(default_factory=list)
    gc_pause_ns: int = 0
    gc_gen2: int = 0


def _spawn_runner(run_dir: Path, plan: dict, tag: str) -> dict:
    plan_path, result_path = run_dir / f"plan-{tag}.json", run_dir / f"result-{tag}.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "runner.py"), plan_path.name, result_path.name],
            cwd=run_dir,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"runner did not finish within {CHILD_TIMEOUT_S} s") from None
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"runner exited with code {proc.returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    plan_path.unlink()
    result_path.unlink()
    return result


def _absorb(into: PassResult, result: dict, index: int | None) -> None:
    """Add a runner's records. Each command's speed is the mean of the kernel
    runs after it and before it, so a drift during the command cancels."""
    into.last_pass_ns = result["lead_pass_ns"] or into.last_pass_ns
    for record in result["runs"]:
        if index is not None:
            record[0] = index
        after = record[2]
        record[2] = (after + (into.last_pass_ns or after)) / 2
        into.last_pass_ns = after
        into.records.append(Run(*record))
    into.maxrss_kb = max(into.maxrss_kb, result["maxrss_kb"])
    into.processes += 1
    into.spans.extend(result.get("spans", ()))
    into.gc_pause_ns += result.get("gc_pause_ns", 0)
    into.gc_gen2 += result.get("gc_gen2", 0)


def run_pass(wl: Workload, run_dir: Path, seconds: float, trace: bool, shas: dict[int, str], first_id: int = 0) -> PassResult:
    """Run the workload's commands for about `seconds`; shas maps command
    index to the hash of its first output and gains the ones first seen."""
    plans = []
    for i, cmd in enumerate(wl.commands):
        argv = cmd.argv + (["--out", f"out-{i}"] if cmd.uses_out else [])
        plans.append({"argv": argv, "out": f"out-{i}" if cmd.uses_out else None, "keep": f"keep/{i}"})
    base = {"src": str(SRC), "trace": trace}
    result = PassResult()
    if not wl.fresh_process:
        commands = [dict(p, sha=shas.get(i)) for i, p in enumerate(plans)]
        plan = dict(base, commands=commands, seconds=seconds, round=wl.round or len(plans),
                    min_commands=wl.min_commands, first_id=first_id, lead_ns=LEAD_NS)
        _absorb(result, _spawn_runner(run_dir, plan, "session"), None)
        for r in result.records:
            if r.sha is not None:
                shas.setdefault(r.index, r.sha)
        return result

    # One command at a time: after the first round, the next command starts
    # only if its last duration still fits in the time left.
    started, durations = perf_counter(), {}
    while True:
        i = len(result.records) % len(plans)
        if len(durations) == len(plans) and perf_counter() - started + durations[i] > seconds:
            return result
        plan = dict(base, commands=[dict(plans[i], sha=shas.get(i))], seconds=0, round=1,
                    min_commands=1, first_id=first_id + len(result.records),
                    lead_ns=0 if result.records else LEAD_NS)
        t = perf_counter()
        _absorb(result, _spawn_runner(run_dir, plan, str(i)), i)
        durations[i] = perf_counter() - t
        if result.records[-1].sha is not None:
            shas.setdefault(i, result.records[-1].sha)


def check_outputs(wl: Workload, run_dir: Path) -> tuple[dict[int, int], dict[int, str]]:
    """Check every kept output; return incidents credited and failures by command."""
    credited: dict[int, int] = {}
    failures: dict[int, str] = {}
    for path in sorted((run_dir / "keep").iterdir()):
        index = int(path.name.split(".")[0])
        if "." in path.name:
            failures[index] = "output bytes differ between runs of the same command"
            continue
        try:
            credited[index] = wl.commands[index].check(path.read_text(encoding="utf-8"))
        except (check.CheckFailed, UnicodeDecodeError) as exc:
            failures[index] = str(exc)[:500]
    return credited, failures


def measure_setup() -> float:
    """Median seconds, at reference speed, for a fresh interpreter to import
    the package and load the bundled taxonomy and catalog; the first probe
    warms the .pyc cache."""
    samples = []
    for n in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE)],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed:\n{proc.stderr}")
        ns, pass_ns, module = proc.stdout.split(maxsplit=2)
        if not Path(module.strip()).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"setup probe imported {module.strip()}, not the package under {SRC}")
        if n:
            samples.append(at_reference_speed(int(ns), float(pass_ns)) / 1e9)
    return statistics.median(samples)


def summarize(records: list[Run], credited: dict[int, int], failures: dict[int, str], raw: bool = False) -> dict:
    """End-to-end figures of a pass, at reference speed unless raw.

    Every command of the workload counts once, with its mean latency and
    the mean incidents it was credited, so a pass that ends inside a round
    keeps the workload's mix.
    """
    def ok(r: Run) -> bool:
        return r.rc == 0 and r.error is None and r.sha is not None and r.index not in failures

    def ms(r: Run) -> float:
        return r.ns / 1e6 if raw else r.ms

    by_command = defaultdict(list)
    for r in records:
        by_command[r.index].append(r)
    incidents = sum(
        statistics.fmean(credited.get(i, 0) if ok(r) else 0 for r in rs) for i, rs in by_command.items()
    )
    latencies = sorted(statistics.fmean(map(ms, rs)) for rs in by_command.values())
    seconds = sum(latencies) / 1e3
    return {
        "attempted": len(records),
        "distinct": len(by_command),
        "failed": sum(not ok(r) for r in records),
        "incidents_per_s": incidents / seconds,
        "cmd_p50_ms": latencies[math.ceil(0.50 * len(latencies)) - 1],
        "cmd_p99_ms": latencies[math.ceil(0.99 * len(latencies)) - 1],
        "ok_ratio": sum(map(ok, records)) / len(records),
    }


def record_hashes(name: str, seed: int, wl: Workload, records: list) -> list[str]:
    """Write the sha256 of each command's output; return the commands whose
    bytes differ from the previous run of this workload on this seed."""
    hashes = {}
    for r in records:
        if r.sha is not None:
            hashes.setdefault(wl.commands[r.index].label, r.sha)
    manifest = WORK / "sha256" / f"{name}-seed{seed}.json"
    previous = json.loads(manifest.read_text(encoding="utf-8")) if manifest.exists() else {}
    manifest.parent.mkdir(parents=True, exist_ok=True)
    manifest.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return sorted(label for label, sha in hashes.items() if label in previous and previous[label] != sha)


UNITS = {
    "setup_s": "s",
    "incidents_per_s": "incidents/s",
    "cmd_p50_ms": "ms",
    "cmd_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
    "trace.incidents_per_s": "incidents/s",
    "trace.overhead_pct": "%",
}


# Metrics reported at reference speed; the table also shows them by wall clock.
WALL_METRICS = ("incidents_per_s", "cmd_p50_ms", "cmd_p99_ms")


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return "s" if metric.endswith("_s") or metric == "render.s" else "bytes" if metric.endswith("_bytes") else "count"


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = WORK / f"{name}-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "keep").mkdir(parents=True)
    try:
        wl = WORKLOADS[name](run_dir, seed)
        if trace:  # the floor on commands serves cmd_p99_ms, which traced runs do not report
            wl = replace(wl, min_commands=1)
        setup_s = None if trace else measure_setup()
        shas: dict[int, str] = {}
        passes = [run_pass(wl, run_dir, seconds / 2 if trace else seconds, False, shas)]
        if trace:
            passes.append(run_pass(wl, run_dir, seconds / 2, True, shas, len(passes[0].records)))
        credited, failures = check_outputs(wl, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    records = [r for p in passes for r in p.records]
    changed = record_hashes(name, seed, wl, records)
    summary = summarize(records, credited, failures)
    for index, message in sorted(failures.items()):
        print(f"CHECK FAILED {wl.commands[index].label}: {message}", file=sys.stderr)
    errors = Counter(r.error or f"exit {r.rc}" for r in records if r.rc != 0 or r.error)
    stderr_of = {r.error or f"exit {r.rc}": r.stderr for r in records if r.stderr}
    for error, count in sorted(errors.items()):
        print(f"failed: {count} x {error} {stderr_of.get(error, '').strip()[-200:]}", file=sys.stderr)
    if changed:
        print(f"output bytes differ from the previous run on seed {seed}: {', '.join(changed)}", file=sys.stderr)

    if trace:
        untraced, traced = passes
        metrics = layer_metrics(
            traced.spans, len(traced.records), sum(r.out_bytes for r in traced.records), traced.gc_pause_ns, traced.gc_gen2
        )
        plain_ips = summarize(untraced.records, credited, failures)["incidents_per_s"]
        traced_ips = summarize(traced.records, credited, failures)["incidents_per_s"]
        metrics["trace.incidents_per_s"] = traced_ips
        metrics["trace.overhead_pct"] = 100 * (plain_ips - traced_ips) / plain_ips if plain_ips else 0.0
    else:
        metrics = {
            "setup_s": setup_s,
            "incidents_per_s": summary["incidents_per_s"],
            "cmd_p50_ms": summary["cmd_p50_ms"],
            "cmd_p99_ms": summary["cmd_p99_ms"],
            "peak_rss_mb": passes[0].maxrss_kb / 1024,
            "ok_ratio": summary["ok_ratio"],
        }
    samples = {
        "setup_s": SETUP_PROBES,
        "peak_rss_mb": passes[0].processes,
        "cmd_p50_ms": summary["distinct"],
        "cmd_p99_ms": summary["distinct"],
    }
    wall = summarize(records, credited, failures, raw=True)
    for metric, value in metrics.items():
        n = samples.get(metric, len(passes[-1].records))
        measured = f"  (wall clock: {wall[metric]:.6g})" if metric in WALL_METRICS and not trace else ""
        print(f"{name:<17} {metric:<32} {value:>14.6g} {unit_of(metric):<12} n={n}{measured}")
    print(f"{name:<17} {'failed_ratio':<32} {1 - summary['ok_ratio']:>14.6g} {'1':<12} n={summary['attempted']}")
    return {
        "correct": not failures,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m: {"value": v, "unit": unit_of(m)} for m, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    if not (SRC / "influenceops" / "__init__.py").is_file():
        print(f"perfbench: no influenceops package under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
