"""The benchmark's tracer resolves every library function it wraps, and
its workloads' determinism digests are pinned.

``perfbench/spans.py`` wraps public functions of seven moelab modules by
name, and constructing its ``Tracer`` looks each one up. A library
function that is removed or renamed without the table following it
therefore fails here, not only in a traced benchmark run.

Each benchmark workload hashes its outputs over its input pool. A change
meant to be bit-identical must leave those digests as they are, so they
are pinned here for the default seed and the held-out seed.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACED = ["core", "routing", "epsim", "precision", "rlloss", "replay", "expansion"]

# sha256 over fingerprint(op(j)) for j in the pool, as the harness computes it.
DIGESTS = {
    "0 expand-balance": "730e7b257640a4e38795dcf49f5c6d10ca84b6235086836c1236a33b2f13ba54",
    "0 precision-divergence": "29095a1860b6881e6f4c2c716de5f62b46758bfe140f585451ed1c8c40249a64",
    "0 replay-rl-step": "9713360e844ab42cac3b14165312052e4bd67ff5e5b6bd52608297a0a64a4114",
    "7 expand-balance": "71cca08f9dc49d7284cd3a852f672d8a2f61c5e4b3bb9585138c0e70eefa229c",
    "7 precision-divergence": "7358acf5b325a6199c56146d5737f74ff1392bec2f3dd1b8e4ce1651420fb5e3",
    "7 replay-rl-step": "a27b6604de63620eb9c7d6ddd26c72c454ce25dab7ff6e15818f544c1b84322d",
}

DIGEST_SCRIPT = """
import hashlib
import workloads
for seed in (0, 7):
    for name, workload in workloads.WORKLOADS.items():
        w = workload(seed)
        h = hashlib.sha256()
        for j in range(w.pool):
            h.update(w.fingerprint(w.op(j)))
        print(seed, name, h.hexdigest())
"""


def test_tracer_resolves_every_wrapped_name():
    for name in TRACED:
        importlib.import_module(f"moelab.{name}")
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert sorted(spans.LAYERS) == sorted(f"moelab.{name}" for name in TRACED)
    assert spans.Tracer()._patches


def test_workload_digests_are_pinned():
    # The digests hold on one BLAS thread, as the benchmark pins it: with
    # two, replay-rl-step's matrix products round differently.
    env = dict(
        os.environ,
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]),
        PYTHONDONTWRITEBYTECODE="1",  # import the benchmark without writing into it
    )
    run = subprocess.run(
        [sys.executable, "-c", DIGEST_SCRIPT], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    got = dict(line.rsplit(" ", 1) for line in run.stdout.splitlines())
    assert got == DIGESTS
