"""Golden CLI corpus: small argvs pinned to the sha256 of every byte they write.

Each case runs one subcommand in-process and hashes its CSV plus any
binary file it writes (checkpoint, routing trace). The digests are the
outputs of a known-good commit, so a change meant to keep outputs
unchanged must keep every digest. The digests depend
on the platform's libm and BLAS; a mismatch on a new platform means
re-recording the corpus there from a known-good commit, not editing one
digest.
"""

import hashlib
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from moelab.cli import run

ALL_POLICIES = "ref64,mixed_fp8,mixed_fp8_bf16head,all_bf16,fp32head,bf16head"

# name -> (argv with {file} placeholders, the files besides the CSV it writes)
CASES = {
    "balance-grouped": (
        ["balance-sim", "--mode", "grouped", "--trials", "3", "--tokens", "1024", "--seed", "5"],
        [],
    ),
    "balance-plain": (
        ["balance-sim", "--mode", "plain_topk", "--trials", "3", "--tokens", "1024", "--seed", "5"],
        [],
    ),
    "balance-scaled-grouped": (
        ["balance-sim", "--mode", "grouped", "--experts", "1024", "--k", "8", "--groups", "8",
         "--devices", "8", "--tokens", "4096", "--trials", "1", "--seed", "5"],
        [],
    ),
    "balance-scaled-plain": (
        ["balance-sim", "--mode", "plain_topk", "--experts", "1024", "--k", "8", "--groups", "8",
         "--devices", "8", "--tokens", "4096", "--trials", "1", "--seed", "5"],
        [],
    ),
    "replay-grouped": (
        ["replay-verify", "--mode", "grouped", "--tokens", "64", "--layers", "3", "--seed", "3",
         "--record-trace", "{trace}"],
        ["trace"],
    ),
    "replay-plain": (
        ["replay-verify", "--mode", "plain_topk", "--tokens", "64", "--layers", "3",
         "--experts", "32", "--k", "4", "--groups", "4", "--seed", "3",
         "--record-trace", "{trace}"],
        ["trace"],
    ),
    "precision-default": (
        ["precision-sweep", "--policies", "mixed_fp8,all_bf16,fp32head,bf16head",
         "--trials", "3", "--samples", "65536", "--seed", "11"],
        [],
    ),
    "precision-rest": (
        ["precision-sweep", "--policies", "ref64,mixed_fp8_bf16head",
         "--trials", "3", "--samples", "65536", "--seed", "11"],
        [],
    ),
    "precision-samples-7": (
        ["precision-sweep", "--policies", ALL_POLICIES, "--trials", "3", "--samples", "7",
         "--seed", "11"],
        [],
    ),
    "precision-samples-1000": (
        ["precision-sweep", "--policies", ALL_POLICIES, "--trials", "3", "--samples", "1000",
         "--seed", "11"],
        [],
    ),
    "expand": (
        ["expand", "--input", "{layer}", "--output", "{expanded}", "--factor", "2",
         "--groups", "4", "--calib-tokens", "256", "--seed", "2"],
        ["expanded"],
    ),
    "gradcheck-ste": (["gradcheck-ste", "--trials", "100", "--seed", "9"], []),
    "gradcheck-rl": (["gradcheck-rl", "--trials", "40", "--seed", "9"], []),
    "gradcheck-rl-batch": (["gradcheck-rl", "--batch", "{batch}"], []),
    "plan-patches": (["plan-patches", "--len", "5000", "--rate", "250"], []),
}

DIGESTS = {
    "balance-grouped": {
        "csv": "0cea0763aaebb1ef5dee4537b12c2466c760e1e9ccf0368329a7d4aeedeb3b6d",
    },
    "balance-plain": {
        "csv": "0960b31cfa628427f7ef6e34d5c4de2df35acf30eb4b02e2e8b852127307d836",
    },
    "balance-scaled-grouped": {
        "csv": "2d704495e735df550b50ba7be5247f5452b5bdc59e232781c42db1fb9bfdb929",
    },
    "balance-scaled-plain": {
        "csv": "8e60d841d0be4e4c988e7ea8ab500c0deb524ab414d3d2c1dd7149b4642979a5",
    },
    "expand": {
        "csv": "7574a5ef53b34de0c5183083c457e805e9a9c685c09b4d484b53821ed9d8ed99",
        "expanded": "5c8f63bf916b6d76c5f3a39e2faf36c17391a6c56797ba14ac213ce8139b60fd",
    },
    "gradcheck-rl": {
        "csv": "c98f4297ea5ad2c8f7d6bdb3282ec3061b11a9af6b12936bb2e098353eb67294",
    },
    "gradcheck-rl-batch": {
        "csv": "5e73d802644544cd41f3bf06d124b23ccb992d0a7874f87955dbbdc4dca798f1",
    },
    "gradcheck-ste": {
        "csv": "4f3a83748134a317f48e9930cb48d40ce0cae9336bf942373ac77a9122bbe40a",
    },
    "plan-patches": {
        "csv": "89ab94c794078aead29f9cf826b3dc1390d6a65abf120d0cbe391c05804230dc",
    },
    "precision-default": {
        "csv": "aa85983db8e8494f38e11f01dd79a87a62c5e7eb173e5554138d853ec50e9fc8",
    },
    "precision-samples-7": {
        "csv": "da619c93d7105835f97d1c3a5cfa4900f12fb8dd76f94eec09c5e7c2d34184fb",
    },
    "precision-samples-1000": {
        "csv": "ab39c90508fc8f2086f133422d9ef96c5ac34db36b1dcfbbcfea9a94845c61e7",
    },
    "precision-rest": {
        "csv": "35e7aa217a0530ae43c9559e014ff341848ed622eb8d7f7da64b4b4e1ab2733e",
    },
    "replay-grouped": {
        "csv": "c44242396fb51606a419d43f41e387cccffe8980915660b261cca925268d9bcf",
        "trace": "939060c36851d1b711f3b38ae77caf00ef74e555fa795976656882815adc7e4f",
    },
    "replay-plain": {
        "csv": "b7608bcd1709ac9734b5397ef35e185113c0a14f18e88f3f90c5343ba3f31c15",
        "trace": "b6281fe2aa0003ae9b41f99d2749d95fa4d93637b44c557092549fa70c9f48ff",
    },
}


def _write_layer(path, n=8, d=6, hidden=12):
    """A MOEC checkpoint built from the documented layout, not save_layer."""
    vals = np.arange(n * d + 2 * n * hidden * d, dtype=np.float64)
    weights = np.cos(vals * 0.37) * (1.0 + (vals % 5))
    path.write_bytes(struct.pack("<4sHIII", b"MOEC", 1, n, d, hidden)
                     + weights.astype("<f8").tobytes())


def _write_batch(path, lengths=(3, 5, 2, 7, 4)):
    """A rollout file built from the documented layout, not dump_batch: per
    response one line of reward, token count, then the train, rollout, new
    and old log-prob blocks. One train log-prob is -inf (ratio 0, masked)."""
    lines = []
    for i, n in enumerate(lengths):
        t = np.arange(4 * n, dtype=np.float64) + 10.0 * i
        blocks = -np.abs(np.sin(t * 0.71)) * (0.2 + (t % 3)) - 1e-3
        fields = [repr(float(i % 3) - 0.5), str(n)] + [repr(float(v)) for v in blocks]
        if i == 1:
            fields[2] = "-inf"
        lines.append(" ".join(fields))
    path.write_text("\n".join(lines) + "\n")


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_case(tmp_path, name):
    argv, outputs = CASES[name]
    _write_layer(tmp_path / "layer")
    _write_batch(tmp_path / "batch")
    files = {key: tmp_path / key for key in ("layer", "trace", "expanded", "batch")}
    argv = [a.format(**files) for a in argv] + ["--out", str(tmp_path / "out.csv")]
    assert run(argv) == 0
    got = {"csv": _digest(tmp_path / "out.csv")}
    got.update({key: _digest(files[key]) for key in outputs})
    return got


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_digests(tmp_path, name):
    assert run_case(tmp_path, name) == DIGESTS[name]


def test_corpus_holds_at_two_blas_threads():
    # Identical argv must give identical bytes on any machine, so the corpus
    # reruns in a fresh process with two BLAS threads, where a multi-row
    # matrix product may split and round its work differently.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OMP_NUM_THREADS="2", OPENBLAS_NUM_THREADS="2", MKL_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         "-k", "not two_blas_threads"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"{len(CASES)} passed" in proc.stdout

