#!/usr/bin/env python3
"""Raise-deletion mutation sweep: every check in the library must fail a test.

For each ``raise`` statement in the given source files, a mutant replaces
that statement with ``pass`` and the test suite runs against it. A mutant
the suite passes is a survivor: its check could be deleted without any
test noticing, so the check is either true by construction or untested.

The sweep works on a copy of ``src/``, ``tests/``, ``perfbench/`` and
``pyproject.toml`` in a temporary directory, so an interrupted run never
leaves a mutant in the checkout. Each mutant runs
``python -m pytest -q -x -p no:cacheprovider --hypothesis-seed=0`` with
one BLAS thread and a time limit; the fixed hypothesis seed makes the
fuzzed tests draw the same examples for every mutant. The unmutated copy
must pass first, or every mutant would count as killed.

Usage::

    python tools/raise_sweep.py                          # every src/moelab/*.py
    python tools/raise_sweep.py src/moelab/replay.py ...

Prints one ``SURVIVED file:line: source`` line per survivor and a
``file: survivors/total`` tally per file; exits 1 if any mutant survives.
Uses the standard library only.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ["src", "tests", "perfbench", "pyproject.toml"]
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
          "--hypothesis-seed=0"]
TIMEOUT_S = 600


def mutants(source: str):
    """Yield ``(line, raise source, mutated source)`` for each ``raise``.

    The statement's text is replaced by ``pass``; the lines it spanned
    beyond the first are left blank, so line numbers do not move.
    """
    lines = source.splitlines(keepends=True)
    raises = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Raise)]
    for node in sorted(raises, key=lambda n: n.lineno):
        first, last = node.lineno - 1, node.end_lineno - 1
        head = lines[first][: node.col_offset]
        tail = lines[last][node.end_col_offset :]
        mutated = lines[:first] + [head + "pass" + tail] + ["\n"] * (last - first) + lines[last + 1 :]
        yield node.lineno, ast.get_source_segment(source, node).splitlines()[0], "".join(mutated)


def run_suite(workdir: Path) -> int | None:
    """The suite's exit code in ``workdir``, or None past the time limit."""
    env = dict(
        os.environ,
        PYTHONPATH=str(workdir / "src"),
        PYTHONDONTWRITEBYTECODE="1",  # a mutant of equal size and mtime must not load a stale .pyc
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    try:
        return subprocess.run(PYTEST, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def main(argv: list[str]) -> int:
    files = [Path(a).resolve() for a in argv] or sorted((ROOT / "src" / "moelab").glob("*.py"))
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="raise-sweep-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, work / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, work / name)
        if run_suite(work) != 0:
            print("the unmutated suite fails; no mutant can be judged", file=sys.stderr)
            return 2
        survivors = 0
        for path in files:
            rel = path.relative_to(ROOT)
            target = work / rel
            original = path.read_text()
            found = killed = 0
            try:
                for line, text, mutated in mutants(original):
                    found += 1
                    target.write_text(mutated)
                    code = run_suite(work)
                    if code == 0:
                        print(f"SURVIVED {rel}:{line}: {text.strip()}", flush=True)
                    else:
                        killed += 1
                        if code is None:
                            print(f"TIMEOUT {rel}:{line}: killed after {TIMEOUT_S} s", flush=True)
            finally:
                target.write_text(original)
            survivors += found - killed
            print(f"{rel}: {found - killed}/{found}", flush=True)
    print(f"{survivors} survivors; {time.monotonic() - started:.0f} s", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
