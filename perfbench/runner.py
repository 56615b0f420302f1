"""Run CLI commands in this process through influenceops.cli.main.

    python3 runner.py PLAN.json RESULT.json

The plan names the package's source directory and a list of commands. They
run one after another, each starting when the previous one returns, and
cycle until the plan's time is spent, checked at the end of each round.
Each command's wall time covers main() alone. After it, the reference
kernel of speed.py runs for half as long as the command took; with lead_ns
in the plan, the kernel also runs that long before the first command. The command's
output, the --out file or else what it wrote to stdout, is hashed after
the clock stops. The first output of each command is kept for the checker,
unless the plan already gives its hash, and any later output with other
bytes is kept beside it.
The result file, written when the run ends, holds one record per command
run, this process's peak resident memory and, with tracing on, the spans.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter_ns

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402
from speed import reference_ns  # noqa: E402


def import_cli(src: str):
    sys.path.insert(0, src)
    import influenceops
    import influenceops.cli

    if not Path(influenceops.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"runner: imported {influenceops.__file__}, not the package under {src}")
    return influenceops.cli


def _output(cmd: dict, captured: str) -> bytes | None:
    if cmd.get("out") is None:
        return captured.encode("utf-8")
    try:
        return Path(cmd["out"]).read_bytes()
    except FileNotFoundError:
        return None


def _keep(cmd: dict, data: bytes, suffix: str) -> None:
    Path(cmd["keep"] + suffix).write_bytes(data)
    if cmd.get("out") is not None:
        os.unlink(cmd["out"])


def execute(plan: dict) -> dict:
    cli = import_cli(plan["src"])
    tracer = Tracer() if plan.get("trace") else None
    main = cli.main
    if tracer:
        missing = tracer.install()
        if missing:
            print(f"runner: not traced, absent from the package: {', '.join(missing)}", file=sys.stderr)
        main = tracer.wrap("cli.main", cli.main)

    commands = plan["commands"]
    round_size = plan.get("round", len(commands))
    deadline_ns = plan.get("seconds", 0) * 1e9
    min_commands = plan.get("min_commands", round_size)
    first_id = plan.get("first_id", 0)
    shas = {i: cmd["sha"] for i, cmd in enumerate(commands) if cmd.get("sha")}
    runs = []
    lead_pass_ns = reference_ns(plan["lead_ns"]) if plan.get("lead_ns") else None
    started = perf_counter_ns()
    try:
        while True:
            n = len(runs)
            cmd = commands[n % len(commands)]
            stdout, stderr = io.StringIO(), io.StringIO()
            error = None
            if tracer:
                tracer.command = first_id + n
            with redirect_stdout(stdout), redirect_stderr(stderr):
                t0 = perf_counter_ns()
                try:
                    rc = main(list(cmd["argv"]))
                except SystemExit as exc:
                    rc, error = exc.code, "SystemExit"
                except Exception as exc:  # an uncaught exception is a failed command
                    rc, error = None, type(exc).__name__
                t1 = perf_counter_ns()
            pass_ns = reference_ns((t1 - t0) // 2)
            data = _output(cmd, stdout.getvalue())
            sha = None if data is None else hashlib.sha256(data).hexdigest()
            key = n % len(commands)
            if sha is not None and key not in shas:
                shas[key] = sha
                _keep(cmd, data, "")
            elif sha is not None and sha != shas[key]:
                _keep(cmd, data, f".{first_id + n}")
            elif cmd.get("out") is not None and data is not None:
                os.unlink(cmd["out"])
            runs.append([key, t1 - t0, pass_ns, rc, error, sha, len(data or b""), stderr.getvalue()[-300:]])

            done = len(runs)
            if done % round_size == 0 and done >= min_commands:
                elapsed = perf_counter_ns() - started
                if elapsed * (done + round_size) / done > deadline_ns:
                    break
    finally:
        if tracer:
            tracer.uninstall()

    result = {
        "runs": runs,
        "lead_pass_ns": lead_pass_ns,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        result["gc_pause_ns"] = tracer.gc_pause_ns
        result["gc_gen2"] = tracer.gc_gen2
        result["spans"] = tracer.spans
    return result


if __name__ == "__main__":
    plan_path, result_path = sys.argv[1:3]
    outcome = execute(json.loads(Path(plan_path).read_text(encoding="utf-8")))
    Path(result_path).write_text(json.dumps(outcome), encoding="utf-8")
