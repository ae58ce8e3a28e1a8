import io
import os
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

try:
    import resource
except ImportError:  # not POSIX
    resource = None

from moelab import cli
from moelab.cli import run
from moelab.core import Rng
from moelab.expansion import load_layer, save_layer
from moelab.replay import RoutingTrace, load_trace, save_trace
from moelab.rlloss import MaskConfig, RolloutBatch, dump_batch, rl_loss
from moelab.routing import ExpertBank, MoeLayerSpec


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = run(argv + ["--out", str(out)])
    return code, out.read_text()


class TestBalanceSim:
    def test_grouped_row_is_perfectly_balanced(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "b.csv",
            ["balance-sim", "--mode", "grouped", "--devices", "8", "--k", "8",
             "--tokens", "100", "--seed", "1"],
        )
        assert code == 0
        header, row = text.strip().split("\n")
        assert header == "mode,T,seed,max_over_mean,cv,balance_loss"
        fields = row.split(",")
        assert fields[:3] == ["grouped", "100", "1"]
        assert float(fields[3]) == 1.0
        assert float(fields[4]) == 0.0

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["balance-sim", "--mode", "plain_topk", "--devices", "8", "--k", "8",
                "--tokens", "64", "--trials", "5", "--seed", "3", "--groups", "1"]
        _, first = run_to_file(tmp_path, "a.csv", argv)
        _, second = run_to_file(tmp_path, "b.csv", argv)
        assert first == second
        assert first.count("\n") == 6

    def test_trial_seeds_increment(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "c.csv",
            ["balance-sim", "--trials", "3", "--seed", "10"],
        )
        assert code == 0
        seeds = [line.split(",")[2] for line in text.strip().split("\n")[1:]]
        assert seeds == ["10", "11", "12"]


class TestGradchecks:
    def test_ste_passes_and_reports(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "g.csv", ["gradcheck-ste", "--n", "8", "--trials", "100", "--seed", "7"]
        )
        assert code == 0
        header, row = text.strip().split("\n")
        assert header == "trials,n,k,max_rel_err,unselected_nonzero"
        assert float(row.split(",")[3]) <= 1e-6

    def test_ste_fails_with_impossible_tolerance(self, tmp_path, capsys):
        code, _ = run_to_file(
            tmp_path, "g.csv",
            ["gradcheck-ste", "--trials", "10", "--tol", "1e-30", "--seed", "7"],
        )
        assert code == 1

    def test_rl_passes(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "r.csv", ["gradcheck-rl", "--trials", "25", "--seed", "5"]
        )
        assert code == 0
        assert float(text.strip().split("\n")[1].split(",")[2]) <= 1e-6

    def test_rl_batch_evaluation_matches_library(self, tmp_path):
        rng = Rng(31)
        lens = [3, 2]
        mk = lambda: [-np.abs(rng.normal(l)) - 0.01 for l in lens]
        batch = RolloutBatch(
            logp_train=mk(), logp_rollout=mk(), logp_new=mk(), logp_old=mk(),
            rewards=np.array([1.0, 0.0]),
        )
        path = tmp_path / "batch.txt"
        with open(path, "w") as fp:
            dump_batch(batch, fp)
        code, text = run_to_file(
            tmp_path, "loss.csv", ["gradcheck-rl", "--batch", str(path)]
        )
        assert code == 0
        got = float(text.strip().split("\n")[1].split(",")[0])
        assert got == rl_loss(batch, MaskConfig()).loss

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_rl_batch_nonfinite_reward_is_module_error(self, tmp_path, capsys, bad):
        path = tmp_path / "batch.txt"
        path.write_text(f"1.0 1 -0.5 -0.5 -0.5 -0.5\n{bad} 1 -0.5 -0.5 -0.5 -0.5\n")
        code = run(["gradcheck-rl", "--batch", str(path), "--out", str(tmp_path / "l.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("moelab gradcheck-rl: ")
        assert "response 1" in err


    def test_rl_batch_neg_inf_new_logp_is_module_error(self, tmp_path, capsys):
        # layout: reward, length, then train, rollout, new and old blocks
        path = tmp_path / "batch.txt"
        path.write_text("1.0 2 -0.5 -0.5 -0.5 -0.5 -0.5 -inf -0.5 -0.5\n0.0 1 -0.5 -0.5 -0.5 -0.5\n")
        out = tmp_path / "l.csv"
        code = run(["gradcheck-rl", "--batch", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("moelab gradcheck-rl: ")
        assert "logp_new[0] has a -inf log-probability at token 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "1e308 1 -0.5 -0.5 -0.5 -0.5\n1e308 1 -0.5 -0.5 -0.5 -0.5\n",
        "1e308 1 -0.5 -0.5 -1e308 -0.5\n-1e308 1 -0.5 -0.5 -1e308 -0.5\n",
    ])
    def test_rl_batch_overflowing_loss_is_module_error(self, tmp_path, capsys, text):
        path = tmp_path / "batch.txt"
        path.write_text(text)
        out = tmp_path / "l.csv"
        code = run(["gradcheck-rl", "--batch", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and "loss is not finite at response 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("x 1 -0.5 -0.5 -0.5 -0.5", "could not convert string to float: 'x'"),
        ("1.0 1.5 -0.5 -0.5 -0.5 -0.5", "invalid literal for int() with base 10: '1.5'"),
        ("1.0 -1 -0.5 -0.5", "negative token count -1"),
        ("1.0 1 -0.5 y -0.5 -0.5", "could not convert string to float: 'y'"),
    ], ids=["reward", "fractional-count", "negative-count", "log-prob"])
    def test_rl_batch_parse_error_names_line(self, tmp_path, capsys, line, message):
        path = tmp_path / "batch.txt"
        path.write_text(f"1.0 1 -0.5 -0.5 -0.5 -0.5\n{line}\n")
        out = tmp_path / "l.csv"
        code = run(["gradcheck-rl", "--batch", str(path), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"moelab gradcheck-rl: rollout record line 2: {message}\n"
        assert not out.exists()


class TestExpand:
    def test_checkpoint_round_trip(self, tmp_path):
        rng = Rng(17)
        spec = MoeLayerSpec(num_experts=8, active_k=2, num_groups=1, model_dim=6, hidden_dim=12)
        bank = ExpertBank.random(rng, spec)
        w = rng.normal_matrix(8, 6)
        src = tmp_path / "layer.bin"
        with open(src, "wb") as fp:
            save_layer(fp, w, bank)

        dst = tmp_path / "expanded.bin"
        code, text = run_to_file(
            tmp_path, "e.csv",
            ["expand", "--input", str(src), "--output", str(dst),
             "--factor", "4", "--groups", "8", "--noise", "0", "--seed", "2"],
        )
        assert code == 0
        row = text.strip().split("\n")[1].split(",")
        assert row[0] == "8" and row[1] == "32" and float(row[2]) == 4.0

        with open(dst, "rb") as fp:
            new_w, new_bank = load_layer(fp)
        assert new_bank.num_experts == 32
        assert new_bank.param_count == 4 * bank.param_count
        # zero noise: every expanded expert is a bitwise copy of some source
        sources = {tuple(bank.w_in[i].ravel()) for i in range(8)}
        for e in range(32):
            assert tuple(new_bank.w_in[e].ravel()) in sources

    def test_missing_input_is_module_error(self, tmp_path):
        code = run(["expand", "--input", str(tmp_path / "nope.bin"),
                    "--output", str(tmp_path / "out.bin")])
        assert code == 1

    @pytest.mark.parametrize("dims", [(0xFFFFFFFF,) * 3, (2**20, 2**10, 2**10)])
    def test_oversized_header_is_module_error(self, tmp_path, capsys, dims):
        crafted = tmp_path / "crafted.bin"
        crafted.write_bytes(struct.pack("<4sHIII", b"MOEC", 1, *dims))
        code = run(["expand", "--input", str(crafted), "--output", str(tmp_path / "out.bin")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("moelab expand: ")
        assert not (tmp_path / "out.bin").exists()

    @pytest.mark.parametrize("defect", ["trailing bytes", "non-finite checkpoint weight"])
    def test_malformed_payload_is_module_error(self, tmp_path, capsys, defect):
        rng = Rng(18)
        spec = MoeLayerSpec(num_experts=4, active_k=1, num_groups=1, model_dim=3, hidden_dim=5)
        buf = io.BytesIO()
        save_layer(buf, rng.normal_matrix(4, 3), ExpertBank.random(rng, spec))
        data = bytearray(buf.getvalue())
        if defect == "trailing bytes":
            data += bytes(8)
        else:  # the first expert weight, past the 4x3 router
            struct.pack_into("<d", data, 18 + 8 * 12, float("nan"))
        crafted = tmp_path / "crafted.bin"
        crafted.write_bytes(bytes(data))
        code = run(["expand", "--input", str(crafted), "--output", str(tmp_path / "out.bin")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("moelab expand: ") and defect in err
        assert not (tmp_path / "out.bin").exists()


    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_nonfinite_noise_is_module_error(self, tmp_path, capsys, noise):
        rng = Rng(19)
        spec = MoeLayerSpec(num_experts=4, active_k=1, num_groups=1, model_dim=3, hidden_dim=5)
        src, dst = tmp_path / "layer.bin", tmp_path / "out.bin"
        with open(src, "wb") as fp:
            save_layer(fp, rng.normal_matrix(4, 3), ExpertBank.random(rng, spec))
        code = run(["expand", "--input", str(src), "--output", str(dst), "--groups", "4",
                    "--noise", noise, "--out", str(tmp_path / "e.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and "noise scale must be finite and >= 0" in err
        assert not dst.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--k", "0"], "k must satisfy 1 <= k <= 4, got 0"),
        (["--factor", "0"], "expansion factor must be >= 1"),
        (["--calib-tokens", "-1"], "matrix shape must be nonnegative, got (-1, 3)"),
    ])
    def test_bad_argument_is_module_error(self, tmp_path, capsys, flags, message):
        rng = Rng(19)
        spec = MoeLayerSpec(num_experts=4, active_k=1, num_groups=1, model_dim=3, hidden_dim=5)
        src, dst = tmp_path / "layer.bin", tmp_path / "out.bin"
        with open(src, "wb") as fp:
            save_layer(fp, rng.normal_matrix(4, 3), ExpertBank.random(rng, spec))
        code = run(["expand", "--input", str(src), "--output", str(dst), "--groups", "4",
                    *flags, "--out", str(tmp_path / "e.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and message in err
        assert not dst.exists()

    def test_overflowing_noise_is_module_error(self, tmp_path, capsys):
        rng = Rng(19)
        spec = MoeLayerSpec(num_experts=4, active_k=1, num_groups=1, model_dim=3, hidden_dim=5)
        src, dst = tmp_path / "layer.bin", tmp_path / "out.bin"
        with open(src, "wb") as fp:
            save_layer(fp, rng.normal_matrix(4, 3), ExpertBank.random(rng, spec))
        code = run(["expand", "--input", str(src), "--output", str(dst), "--groups", "4",
                    "--noise", "1e308", "--out", str(tmp_path / "e.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and "perturbed router row 1 is not finite" in err
        assert not dst.exists()


class TestReplayVerify:
    def test_record_then_replay_from_file(self, tmp_path):
        trace_path = tmp_path / "trace.bin"
        argv = ["replay-verify", "--tokens", "16", "--layers", "3", "--seed", "4"]
        code, text = run_to_file(
            tmp_path, "rv1.csv", argv + ["--record-trace", str(trace_path)]
        )
        assert code == 0
        assert trace_path.exists()
        code2, text2 = run_to_file(
            tmp_path, "rv2.csv", argv + ["--replay-trace", str(trace_path)]
        )
        assert code2 == 0
        row = text2.strip().split("\n")[1].split(",")
        assert row[-1] == "0"  # no mismatches

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_replay_from_a_named_pipe_matches_the_file(self, tmp_path):
        trace_path, fifo = tmp_path / "trace.bin", tmp_path / "trace.fifo"
        argv = ["replay-verify", "--tokens", "16", "--layers", "3", "--seed", "4"]
        assert run_to_file(tmp_path, "rec.csv", argv + ["--record-trace", str(trace_path)])[0] == 0
        from_file = run_to_file(tmp_path, "file.csv", argv + ["--replay-trace", str(trace_path)])
        os.mkfifo(fifo)
        feed = threading.Thread(target=fifo.write_bytes, args=(trace_path.read_bytes(),), daemon=True)
        feed.start()
        from_fifo = run_to_file(tmp_path, "fifo.csv", argv + ["--replay-trace", str(fifo)])
        feed.join(timeout=5)
        assert from_fifo == from_file
        assert from_file[0] == 0

    WIDE = ["replay-verify", "--experts", "65536", "--groups", "1", "--tokens", "1",
            "--layers", "1", "--dim", "1", "--perturb", "0"]

    def test_k_beyond_the_trace_header_is_module_error(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert run(self.WIDE + ["--k", "65536", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "moelab replay-verify: trace k 65536 does not fit its u16 header field\n"
        assert not out.exists()

    def test_widest_k_the_trace_header_holds(self, tmp_path):
        code, text = run_to_file(tmp_path, "o.csv", self.WIDE + ["--k", "65535"])
        assert (code, text) == (0, "tokens,layers,k,checked,mismatches\n1,1,65535,1,0\n")

    def test_corrupt_trace_is_module_error(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"XXXX" + bytes(32))
        code = run(["replay-verify", "--replay-trace", str(bad)])
        assert code == 1

    @staticmethod
    def replay_error(tmp_path, capsys, trace_path, flags):
        """Replay ``trace_path`` at seed 3; the one stderr line of a run that
        exits 1 without writing its CSV."""
        out = tmp_path / "o.csv"
        code = run(["replay-verify", "--seed", "3", "--replay-trace", str(trace_path),
                    "--out", str(out)] + flags)
        err = capsys.readouterr().err
        assert code == 1 and not out.exists()
        assert err.count("\n") == 1 and err.startswith("moelab replay-verify: ")
        return err[len("moelab replay-verify: "):-1]

    @pytest.fixture
    def trace_64(self, tmp_path):
        """A 64 x 4 x 8 trace recorded at seed 3 over 64 experts."""
        path = tmp_path / "t64.bin"
        argv = ["replay-verify", "--seed", "3", "--tokens", "64", "--record-trace", str(path)]
        assert run(argv + ["--out", str(tmp_path / "rec.csv")]) == 0
        return path

    @pytest.mark.parametrize("flags, run_shape", [
        (["--tokens", "32"], (32, 4, 8)),
        (["--tokens", "128"], (128, 4, 8)),
        (["--tokens", "64", "--layers", "5"], (64, 5, 8)),
        (["--tokens", "64", "--k", "16"], (64, 4, 16)),
    ], ids=["more_tokens", "fewer_tokens", "fewer_layers", "other_k"])
    def test_trace_of_another_shape_is_rejected(self, tmp_path, capsys, trace_64, flags,
                                                run_shape):
        assert self.replay_error(tmp_path, capsys, trace_64, flags) == (
            f"trace shape (tokens, layers, k) = (64, 4, 8) differs from the run's {run_shape}")

    def test_trace_beyond_the_run_experts_names_its_entry(self, tmp_path, capsys, trace_64):
        flags = ["--tokens", "64", "--experts", "32", "--groups", "8"]
        assert self.replay_error(tmp_path, capsys, trace_64, flags) == (
            "trace entry for token 0, layer 0 references expert 63 but only 32 experts exist")

    def test_first_entry_beyond_the_experts_is_found_layer_by_layer(self, tmp_path, capsys):
        # Token 0 of layer 1 comes first token by token, token 1 of layer 0
        # layer by layer, the order in which the layers replay.
        path = tmp_path / "t.bin"
        flags = ["--tokens", "4", "--layers", "2", "--experts", "32", "--groups", "8"]
        assert run(["replay-verify", "--seed", "3", "--record-trace", str(path),
                    "--out", str(tmp_path / "rec.csv")] + flags) == 0
        indices = load_trace(path).indices.astype(np.int64)
        indices[0, 1, -1], indices[1, 0, -1] = 40, 50
        save_trace(path, RoutingTrace(indices=indices))
        assert self.replay_error(tmp_path, capsys, path, flags) == (
            "trace entry for token 1, layer 0 references expert 50 but only 32 experts exist")

    @pytest.mark.parametrize("seed", [57, 58, 61])
    def test_zero_mass_on_replayed_selection_exits_1(self, tmp_path, capsys, seed):
        # The perturbed router underflows to zero mass on a recorded
        # selection; seeds found by sweeping 0-199 at --perturb 50.
        out = tmp_path / "o.csv"
        assert run(["replay-verify", "--perturb", "50", "--seed", str(seed),
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "moelab replay-verify: zero probability mass on the selected set\n"
        assert not out.exists()

    def test_perturb_50_replays_at_seed_0(self, tmp_path):
        code, text = run_to_file(tmp_path, "o.csv", ["replay-verify", "--perturb", "50"])
        assert code == 0 and text.splitlines()[1].endswith(",0")


class TestPlanPatches:
    def test_long_signal_within_budget(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "p.csv",
            ["plan-patches", "--len", "1000000", "--rate", "100", "--fmax", "4096"],
        )
        assert code == 0
        n_frames = int(text.strip().split("\n")[1].split(",")[-1])
        assert 1 <= n_frames <= 4096


class TestPrecisionSweep:
    def test_rows_and_determinism(self, tmp_path):
        argv = ["precision-sweep", "--policies", "fp32head,bf16head",
                "--trials", "3", "--seed", "11", "--samples", "4096"]
        code, a = run_to_file(tmp_path, "s1.csv", argv)
        _, b = run_to_file(tmp_path, "s2.csv", argv)
        assert code == 0
        assert a == b
        lines = a.strip().split("\n")
        assert lines[0] == "policy,seed,kl_k1,max_abs_logit_diff"
        assert len(lines) == 1 + 6

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_nonpositive_samples_is_module_error(self, tmp_path, capsys, samples):
        code = run(["precision-sweep", "--policies", "mixed_fp8", "--trials", "1",
                    "--samples", samples, "--seed", "1", "--out", str(tmp_path / "p.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("moelab precision-sweep: ")
        assert "samples must be at least 1" in err

    def test_unknown_policy_is_module_error(self):
        code = run(["precision-sweep", "--policies", "fp13"])
        assert code == 1


class TestArgumentHoles:
    """Bad arguments fail with one typed line and exit 1, or as usage errors
    with exit 2, and write no CSV. Each case once escaped as a traceback,
    printed a numpy warning block, named the wrong limit, or exited 0 with a
    vacuous result."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["gradcheck-ste", "--taus", ""], "temperatures must be finite, positive"),
            (["gradcheck-ste", "--taus", "0"], "temperatures must be finite, positive"),
            (["gradcheck-ste", "--n", "0"], "need n >= 2 and 1 <= k <= n"),
            (["gradcheck-ste", "--n", "1", "--k", "1"], "need n >= 2 and 1 <= k <= n"),
            (["gradcheck-ste", "--trials", "0"], "trials must be at least 1"),
            (["gradcheck-rl", "--trials", "0"], "trials must be at least 1"),
            (["gradcheck-rl", "--maxlen", "0"], "maxlen must be at least 1"),
            (["gradcheck-rl", "--vocab", "1"], "vocab must be at least 2"),
            (["replay-verify", "--perturb", "inf"], "perturb must be finite and >= 0"),
            (["replay-verify", "--perturb", "1e308"], "non-finite router logit"),
            (["balance-sim", "--experts", "0"], "num_experts must be positive, got 0"),
            (["balance-sim", "--trials", "0"], "trials must be at least 1"),
            (["balance-sim", "--trials", "-1"], "trials must be at least 1"),
            (["precision-sweep", "--trials", "-1"], "trials must be at least 1"),
            (["precision-sweep", "--policies", ""], "need at least one policy"),
            (["plan-patches", "--len", "10", "--rate", "inf"], "positive and finite"),
            (["gradcheck-ste", "--taus", "1e300", "--tol", "0"],
             "finite-difference gradient is zero at temperature 1e+300"),
            (["gradcheck-ste", "--taus", "1e-310"], "finite-difference oracle failure"),
            (["balance-sim", "--mode", "plain_topk", "--experts", "10", "--groups", "4",
              "--k", "4", "--devices", "2"], "num_groups must divide num_experts (10), got 4"),
            (["balance-sim", "--tokens", "-1"], "matrix shape must be nonnegative, got (-1, 16)"),
            (["replay-verify", "--dim", "0"], "model_dim and hidden_dim must be positive"),
            (["replay-verify", "--tokens", "0"],
             "trace must cover at least one token, layer, and expert"),
            (["replay-verify", "--layers", "0"], "need at least one (router, spec) layer"),
            (["replay-verify", "--tokens", "-1"], "matrix shape must be nonnegative, got (-1, 16)"),
            (["gradcheck-rl", "--group", "1"], "group must be at least 2, got 1"),
            (["gradcheck-rl", "--group", "-1"], "group must be at least 2, got -1"),
        ],
    )
    def test_module_error_is_one_line(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o.csv"
        code = run(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith(f"moelab {argv[0]}: ")
        assert message in err
        assert not out.exists()

    # An oversized size argument (--samples 100000000000 and the like) ends
    # in numpy's MemoryError; the library call raises it here instead. One
    # without a message is named by its type.
    @pytest.mark.parametrize("command, function", [
        ("precision-sweep", "precision_sweep"),
        ("balance-sim", "balance_trials"),
        ("replay-verify", "replay_verify"),
        ("gradcheck-rl", "gradcheck_rl"),
        ("gradcheck-ste", "gradcheck_ste"),
        ("expand", "expand_checkpoint"),
    ])
    def test_memory_error_is_one_line(self, tmp_path, capsys, monkeypatch, command, function):
        out = tmp_path / "o.csv"
        required = {"expand": ["--input", "in.bin", "--output", str(tmp_path / "x.bin")]}
        alloc = "Unable to allocate 745. GiB for an array"
        for message, shown in [(alloc, alloc), ("", "MemoryError")]:
            def allocate(*args, **kwargs):
                raise MemoryError(message)

            monkeypatch.setattr(cli, function, allocate)
            assert run([command, "--out", str(out), *required.get(command, [])]) == 1
            err = capsys.readouterr().err
            assert err == f"moelab {command}: {shown}\n"
            assert not out.exists()

    # The same sizes for real, in a child process whose address space is
    # capped at 1 GiB: each must be refused at its first allocation.
    @pytest.mark.skipif(resource is None, reason="needs the POSIX resource module")
    @pytest.mark.parametrize("argv", [
        ["expand", "--factor", "4294967297"],
        ["gradcheck-rl", "--group", "4294967297", "--trials", "1"],
    ], ids=["expand", "gradcheck-rl"])
    def test_oversized_run_is_refused_under_a_memory_cap(self, tmp_path, argv):
        if argv[0] == "expand":  # 8 experts, so the default 8 groups divide any factor
            rng = Rng(3)
            spec = MoeLayerSpec(num_experts=8, active_k=2, num_groups=1, model_dim=4, hidden_dim=8)
            with open(tmp_path / "layer.bin", "wb") as fp:
                save_layer(fp, rng.normal_matrix(8, 4), ExpertBank.random(rng, spec))
            argv = argv + ["--input", str(tmp_path / "layer.bin"), "--output", str(tmp_path / "out.bin")]
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))

        def cap():  # runs in the child only
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run([sys.executable, "-m", "moelab.cli", *argv, "--out", "-"],
                              env=env, preexec_fn=cap, capture_output=True, text=True, timeout=5)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith(f"moelab {argv[0]}: Unable to allocate ")
        assert not (tmp_path / "out.bin").exists()

    @pytest.mark.parametrize("command", ["gradcheck-ste", "gradcheck-rl"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-6"])
    def test_nonfinite_or_negative_tolerance_is_usage_error(self, tmp_path, capsys, command, tol):
        out = tmp_path / "o.csv"
        assert run([command, "--trials", "1", f"--tol={tol}", "--out", str(out)]) == 2
        assert "argument --tol: invalid _tolerance value" in capsys.readouterr().err
        assert not out.exists()

    def test_tolerance_from_config_is_module_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol = nan\n")
        assert run(["gradcheck-ste", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "tolerance must be finite and >= 0" in err

    def test_zero_filled_trace_is_rejected_at_its_header(self, tmp_path, capsys):
        zeros = tmp_path / "zeros.bin"
        zeros.write_bytes(bytes(1 << 16))
        assert run(["replay-verify", "--replay-trace", str(zeros),
                    "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "bad trace magic" in err


class TestUsageAndConfig:
    def test_unknown_flag_exits_2(self, capsys):
        assert run(["balance-sim", "--bogus", "1"]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()

    def test_config_supplies_defaults_and_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tokens = 50\nmode = grouped\n# comment line\ndevices = 8\n")
        code, text = run_to_file(
            tmp_path, "cfg.csv",
            ["balance-sim", "--config", str(cfg), "--tokens", "70", "--seed", "2"],
        )
        assert code == 0
        row = text.strip().split("\n")[1].split(",")
        assert row[0] == "grouped"  # from config
        assert row[1] == "70"  # flag overrides config

    def test_config_keys_are_the_long_flag_names(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("len = 7\nrate = 50\n")
        code, text = run_to_file(tmp_path, "p.csv", ["plan-patches", "--len", "5", "--config", str(cfg)])
        assert code == 0
        assert text.split("\n")[1].split(",")[:2] == ["5", "50.0"]  # the flag wins

    def test_unknown_config_key_is_module_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp_factor = 9\n")
        assert run(["balance-sim", "--config", str(cfg)]) == 1


class TestOneLineRejections:
    def test_mask_bounds_out_of_order_is_module_error(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert run(["gradcheck-rl", "--alpha", "2", "--beta", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "moelab gradcheck-rl: need 0 < alpha < beta, got (2.0, 1.0)\n"
        )
        assert not out.exists()

    def test_config_line_without_equals_is_module_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed 3\n")
        out = tmp_path / "o.csv"
        assert run(["balance-sim", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"moelab balance-sim: {cfg}:1: expected 'key = value'\n"
        assert not out.exists()
