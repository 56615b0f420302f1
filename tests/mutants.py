"""Mutation check: each rule site in MUTANTS, changed, must fail its tests.

    python tests/mutants.py

Each mutant replaces one exact source text in a file of ``src/influenceops``
and runs the test files named with it, with ``-x``, against that copy of
``src/`` in a temporary directory; the checkout is never written. A mutant
that every test passes has survived: the tests cannot tell the rule from its
mutant. The tool exits non-zero if a mutant survives, if a source text no
longer occurs exactly once (so the table cannot go stale in silence), or if
the tests fail without any mutant. An equivalent mutant, one that no input
can tell apart, is listed with the reason and is not run. Standard library
only; pytest collects nothing here (classical mutation analysis: DeMillo,
Lipton and Sayward, "Hints on test data selection", 1978).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "influenceops"


class Mutant(NamedTuple):
    name: str
    file: str  # under src/influenceops
    source: str  # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # relative to the checkout
    equivalent: str = ""  # why no input tells it apart; not run


GENERATE = ("tests/test_generate.py",)
RENDER = ("tests/test_render.py",)
GRAPHEXPORT = ("tests/test_graphexport.py",)
TAXONOMY = ("tests/test_taxonomy.py",)
EVIDENCE = ("tests/test_ingest_paths.py",)

MUTANTS = (
    Mutant("sweep stop test reaches need only strictly", "generate.py",
           "if gained >= need:", "if gained > need:", GENERATE),
    Mutant("sweep level by floor, not ceiling", "generate.py",
           "low = level + (total - need) // slope", "low = level - (need - total) // slope", GENERATE),
    Mutant("sweep starts above max(residual)", "generate.py",
           "level, total, slope = events[0][0], 0, 0", "level, total, slope = events[0][0] + 1, 0, 0", GENERATE,
           "the slope is 0 above the first breakpoint, so the first segment adds nothing"),
    Mutant("Gale-Ryser refuses a tight inequality", "generate.py",
           "if top > capacity:", "if top >= capacity:", GENERATE),
    Mutant("Gale-Ryser bound written with +1", "generate.py",
           "if top > capacity:", "if top >= capacity + 1:", GENERATE,
           "top and capacity are ints, so > and >= + 1 agree"),
    Mutant("tie-break skips a strategy full at the level", "generate.py",
           "residual[j] - c <= low < residual[j]", "residual[j] - c < low < residual[j]", GENERATE),
    Mutant("tie-break takes a strategy with nothing above the level", "generate.py",
           "residual[j] - c <= low < residual[j]", "residual[j] - c <= low <= residual[j]", GENERATE),
    Mutant("size above n refuses size n", "generate.py",
           "if k > n and c:", "if k >= n and c:", GENERATE),
    Mutant("size above n lets size n + 1 through", "generate.py",
           "if k > n and c:", "if k > n + 1 and c:", GENERATE),
    Mutant("shared execution technique not checked", "generate.py",
           "if missing and counts[mask]:", "if False:", GENERATE),
    Mutant("shared execution check refuses a pattern of no incidents", "generate.py",
           "if missing and counts[mask]:", "if missing:", GENERATE),
    Mutant("word draws accept the first rejected byte", "generate.py",
           "rejected = bytes(range(width << shift, 256))", "rejected = bytes(range((width << shift) + 1, 256))",
           GENERATE),
    Mutant("each word round draws count words", "generate.py",
           "need = count - len(out)", "need = count", GENERATE),
    Mutant("word draws keep one bit too many", "generate.py",
           "shift = 8 - k", "shift = 7 - k", GENERATE),
    Mutant("fraction_of_multi is 0 with one multi-strategy incident", "analytics.py",
           "if self.multi_total == 0:", "if self.multi_total <= 1:", ("tests/test_analytics.py",)),
    Mutant("strict preparation reads the previous strategy's preparation bit", "strategies.py",
           "m >> n if strict_prep else m", "m >> n - 1 if strict_prep else m", ("tests/test_strategies.py",)),
    Mutant("decimal ties round half up", "render.py",
           "doubled == denominator and whole & 1", "doubled == denominator", RENDER),
    Mutant("decimal without its zero padding", "render.py",
           "rjust(places + 1", "rjust(places", RENDER),
    Mutant("ratio_payload without its reduction", "render.py",
           "common = gcd(numerator, denominator)", "common = 1", RENDER),
    Mutant("XML escape of & after <", "graphexport.py",
           'text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")',
           'text.replace(">", "&gt;").replace("<", "&lt;").replace("&", "&amp;")', GRAPHEXPORT),
    Mutant("DOT quote without its backslash escape", "graphexport.py",
           r'escaped = text.replace("\\", "\\\\")', "escaped = text", GRAPHEXPORT),
    Mutant("XML text without its &#13;", "graphexport.py",
           r'_xml_escape(text).replace("\r", "&#13;")', "_xml_escape(text)", GRAPHEXPORT),
    Mutant("duplicate-id check skips the technique level", "taxonomy.py",
           "if entry.id in seen:", 'if entry.id in seen and level != "technique":', TAXONOMY),
    Mutant("orphan technique looked up among the phase ids", "taxonomy.py",
           'tech.tactic_id not in ids["tactic"]', 'tech.tactic_id not in ids["phase"]', TAXONOMY),
    Mutant("technique name key keeps its case", "taxonomy.py",
           "(tech.tactic_id, tech.name.lower())", "(tech.tactic_id, tech.name)", TAXONOMY),
    Mutant("table1 per-phase count flags only too few tactics", "taxonomy.py",
           "if per_phase[phase_name] != expected:", "if per_phase[phase_name] < expected:", TAXONOMY),
    Mutant("classify's own-bits union carries a shared own bit", "evidence.py",
           "bits |= own_bits[i]", "bits += own_bits[i]", EVIDENCE),
    Mutant("classify's first-half key keeps the second half's own bits", "evidence.py",
           "cut(a),", "a | cut(sm) & ~low,", EVIDENCE),
    Mutant("classify's first half holds every strategy", "evidence.py",
           "first = (1 << (n + 1) // 2) - 1", "first = (1 << n) - 1", EVIDENCE),
    Mutant("classify's separator between halves when either is non-empty", "evidence.py",
           "if a and b else", "if a or b else", EVIDENCE),
    Mutant("CSV field with a lone \\r left unquoted", "corpus.py",
           """re.compile('[,"\\r\\n]')""", """re.compile('[,"\\n]')""", ("tests/test_corpus.py",)),
)


def mutate(mutant: Mutant) -> str:
    """The mutated text of the mutant's file; ValueError unless its source
    text occurs exactly once there."""
    text = (PACKAGE / mutant.file).read_text(encoding="utf-8")
    found = text.count(mutant.source)
    if found != 1:
        raise ValueError(f"source text occurs {found} times in {mutant.file}, not once")
    return text.replace(mutant.source, mutant.replacement)


def run_tests(work: Path, tests, mutant: Mutant | None = None) -> tuple[int, str]:
    """pytest's exit code for the test files against a copy of src/ under
    work, with the mutant applied, and the first test it names as failed;
    work is also the working directory, so that hypothesis keeps no example
    database between runs."""
    src = work / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant is not None:
        (src / "influenceops" / mutant.file).write_text(mutate(mutant), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
               *(str(ROOT / t) for t in tests)]
    run = subprocess.run(command, cwd=work, env=env, capture_output=True, text=True)
    failed = [line.split(" - ")[0].split("::", 1)[-1] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return run.returncode, failed[0] if failed else ""


def main() -> int:
    bad = 0
    for mutant in MUTANTS:
        try:
            mutate(mutant)
        except ValueError as e:
            print(f"{'STALE':<10} {mutant.name}: {e}")
            bad += 1
    if bad:
        return 1

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tests = sorted({t for m in MUTANTS if not m.equivalent for t in m.tests})
        if tests and run_tests(Path(tmp) / "unmutated", tests)[0] != 0:
            print(f"the tests fail without a mutant: {' '.join(tests)}")
            return 1
        for i, mutant in enumerate(MUTANTS):
            if mutant.equivalent:
                print(f"EQUIVALENT {mutant.name}: {mutant.equivalent}")
                continue
            began = time.perf_counter()
            code, failed = run_tests(Path(tmp) / str(i), mutant.tests, mutant)
            # 1: a test failed; 2: collection failed (the mutant does not import).
            verdict = {0: "SURVIVED", 1: "killed", 2: "killed"}.get(code, f"ERROR {code}")
            print(f"{verdict:<10} {mutant.name} ({time.perf_counter() - began:.1f} s) {failed}".rstrip(), flush=True)
            bad += verdict != "killed"
    print(f"{len(MUTANTS)} mutants, {bad} not killed, {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
