"""Command-line front end: seeded experiments with CSV output.

Subcommands, and the library code each one runs
    balance-sim      dispatch balance trials: epsim.balance_trials
    gradcheck-ste    router gradient check: routing.gradcheck_ste
    gradcheck-rl     loss gradient check: rlloss.gradcheck_rl (--batch: evaluate_batch)
    expand           checkpoint expansion: the moelab.expansion pipeline
    precision-sweep  engine divergence per policy: precision.precision_sweep
    replay-verify    forced-replay check: replay.replay_verify
    plan-patches     adaptive patch plan: timeseries.plan_patches

The experiments return CSV rows as dicts keyed by the header; this module
parses arguments and config files, writes the rows and picks the exit
code. Every run's randomness flows from --seed, so identical argv produce
byte-identical CSV. A config file of ``key = value`` lines (keys named
like the long flags) supplies defaults; explicit flags win. Exit codes:
0 success, 1 failed check or module error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from moelab.core import Rng
from moelab.epsim import balance_trials
from moelab.expansion import (
    activation_stats,
    expand_layer,
    load_layer,
    plan_expansion,
    save_layer,
)
from moelab.precision import POLICIES, precision_sweep
from moelab.replay import replay_verify
from moelab.rlloss import MaskConfig, evaluate_batch, gradcheck_rl, load_batch
from moelab.routing import MoeLayerSpec, gradcheck_ste
from moelab.timeseries import plan_patches

__all__ = ["main", "run"]


def _write_rows(path: str, rows: list[dict[str, object]]) -> None:
    """CSV of ``rows`` under their keys; ``str`` writes a float's shortest round-trip form."""
    lines = [",".join(rows[0])]
    for row in rows:
        lines.append(",".join(map(str, row.values())))
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fp:
            fp.write(text)


def _names(text: str) -> list[str]:
    """A comma-separated option value as a list, empty items dropped."""
    return [t for t in text.split(",") if t]


def _floats(text: str) -> list[float]:
    return [float(t) for t in _names(text)]


def _tolerance(text: str) -> float:
    """A finite tolerance >= 0; ``worst > nan`` is false, so NaN would pass every check."""
    tol = float(text)
    if not 0.0 <= tol < float("inf"):
        raise ValueError(f"tolerance must be finite and >= 0, got {text}")
    return tol


def _add_common(sub: argparse.ArgumentParser, handler) -> None:
    sub.set_defaults(handler=handler)
    sub.add_argument("--seed", type=int, default=0, help="base seed for all randomness")
    sub.add_argument("--out", default="-", help="CSV output path, - for stdout")
    sub.add_argument("--config", default=None, help="key = value file of flag defaults")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moelab", description="sparse-routing laboratory experiments"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("balance-sim", help="expert-parallel load-balance trials")
    p.add_argument("--mode", choices=["plain_topk", "grouped"], default="grouped")
    p.add_argument("--devices", type=int, default=8)
    p.add_argument("--experts", type=int, default=64)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--groups", type=int, default=None,
                   help="expert groups (default: devices in grouped mode, 1 otherwise)")
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--tokens", type=int, default=256)
    p.add_argument("--trials", type=int, default=1)
    _add_common(p, _cmd_balance_sim)

    p = subs.add_parser("gradcheck-ste", help="router gradient vs finite differences")
    p.add_argument("--n", type=int, default=8, help="number of experts")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--taus", type=_floats, default="0.5,1.0,2.0",
                   help="comma-separated temperatures")
    p.add_argument("--tol", type=_tolerance, default=1e-6)
    _add_common(p, _cmd_gradcheck_ste)

    p = subs.add_parser("gradcheck-rl", help="loss gradient vs finite differences")
    p.add_argument("--group", type=int, default=4)
    p.add_argument("--vocab", type=int, default=5)
    p.add_argument("--maxlen", type=int, default=4)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--alpha", type=float, default=0.5,
                   help="mask lower bound (demo default, not a reported value)")
    p.add_argument("--beta", type=float, default=2.0,
                   help="mask upper bound (demo default, not a reported value)")
    p.add_argument("--tol", type=_tolerance, default=1e-6)
    p.add_argument("--batch", default=None,
                   help="evaluate the loss on a serialized rollout batch instead")
    _add_common(p, _cmd_gradcheck_rl)

    p = subs.add_parser("expand", help="expand a layer checkpoint")
    p.add_argument("--input", required=True, help="source layer checkpoint")
    p.add_argument("--output", required=True, help="expanded checkpoint destination")
    p.add_argument("--factor", type=int, default=4)
    p.add_argument("--groups", type=int, default=8)
    p.add_argument("--strategy", choices=["grouped_top", "differentiated"],
                   default="grouped_top")
    p.add_argument("--noise", type=float, default=1e-3,
                   help="router-row perturbation relative to row norm")
    p.add_argument("--calib-tokens", type=int, default=256)
    p.add_argument("--k", type=int, default=2, help="top-k used for activation tallies")
    _add_common(p, _cmd_expand)

    p = subs.add_parser("precision-sweep", help="engine-divergence trials per policy")
    p.add_argument("--policies", type=_names, default="mixed_fp8,all_bf16,fp32head,bf16head",
                   help=f"comma-separated from {sorted(POLICIES)}")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--samples", type=int, default=65536)
    _add_common(p, _cmd_precision_sweep)

    p = subs.add_parser("replay-verify", help="trace round-trip and forced replay check")
    p.add_argument("--tokens", type=int, default=32)
    p.add_argument("--layers", type=int, default=4)
    p.add_argument("--experts", type=int, default=64)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--groups", type=int, default=8)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--mode", choices=["plain_topk", "grouped"], default="grouped")
    p.add_argument("--perturb", type=float, default=10.0,
                   help="max router perturbation as a multiple of the weight norm")
    p.add_argument("--record-trace", default=None, help="write the recorded trace here")
    p.add_argument("--replay-trace", default=None, help="replay against this trace file")
    _add_common(p, _cmd_replay_verify)

    p = subs.add_parser("plan-patches", help="adaptive patch plan for a signal")
    p.add_argument("--len", type=int, required=True)
    p.add_argument("--rate", type=float, default=100.0)
    p.add_argument("--fmin", type=int, default=1)
    p.add_argument("--fmax", type=int, default=4096)
    _add_common(p, _cmd_plan_patches)

    return parser


def _parse_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as fp:
        for lineno, raw in enumerate(fp, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


def _apply_config(parser, argv, args):
    """Re-parse with config-file values installed as subcommand defaults."""
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub = subs.choices[args.command]
    actions = {a.dest: a for a in sub._actions if a.dest != "help"}
    typed: dict[str, object] = {}
    for key, val in _parse_config(args.config).items():
        if key not in actions:
            raise ValueError(f"config key {key!r} is not a {args.command} option")
        action = actions[key]
        typed[key] = action.type(val) if action.type else val
    sub.set_defaults(**typed)
    return parser.parse_args(argv)


def _spec(args, groups: int) -> MoeLayerSpec:
    return MoeLayerSpec(num_experts=args.experts, active_k=args.k, num_groups=groups,
                        model_dim=args.dim, hidden_dim=2 * args.dim)


def _gradcheck_verdict(args, row: dict[str, object]) -> int:
    """Write a gradient check's row; exit 1, with one line on stderr, past ``--tol``."""
    _write_rows(args.out, [row])
    if row["max_rel_err"] > args.tol:
        print(f"{args.command}: max relative error {row['max_rel_err']:.3e} exceeds "
              f"{args.tol:.3e}", file=sys.stderr)
        return 1
    return 0


def _cmd_balance_sim(args) -> int:
    groups = args.groups
    if groups is None:
        groups = args.devices if args.mode == "grouped" else 1
    _write_rows(args.out, balance_trials(
        args.mode, args.seed, _spec(args, groups), args.devices, args.tokens, args.trials))
    return 0


def _cmd_gradcheck_ste(args) -> int:
    row = gradcheck_ste(args.n, args.k, args.trials, args.taus, args.seed)
    return _gradcheck_verdict(args, row)


def _cmd_gradcheck_rl(args) -> int:
    cfg = MaskConfig(alpha=args.alpha, beta=args.beta)
    if args.batch is not None:
        with open(args.batch) as fp:
            batch = load_batch(fp)
        _write_rows(args.out, [evaluate_batch(batch, cfg)])
        return 0
    row = gradcheck_rl(args.group, args.vocab, args.maxlen, args.trials, cfg, args.seed)
    return _gradcheck_verdict(args, row)


def _cmd_expand(args) -> int:
    with open(args.input, "rb") as fp:
        w_router, bank = load_layer(fp)
    rng = Rng(args.seed)
    calib = rng.normal_matrix(args.calib_tokens, bank.model_dim)
    stats = activation_stats(calib, w_router, k=args.k)
    plan = plan_expansion(stats, factor=args.factor, num_groups=args.groups,
                          strategy=args.strategy)
    new_bank, new_router = expand_layer(bank, w_router, plan, noise=args.noise, rng=rng)
    with open(args.output, "wb") as fp:
        save_layer(fp, new_router, new_bank)
    _write_rows(args.out, [{
        "experts_before": bank.num_experts,
        "experts_after": new_bank.num_experts,
        "param_ratio": float(new_bank.param_count / bank.param_count),
        "strategy": args.strategy,
    }])
    return 0


def _cmd_precision_sweep(args) -> int:
    _write_rows(args.out, precision_sweep(args.policies, args.trials, args.seed, args.samples))
    return 0


def _cmd_replay_verify(args) -> int:
    row = replay_verify(_spec(args, args.groups), args.mode, args.tokens, args.layers,
                        args.perturb, args.seed, record_path=args.record_trace,
                        replay_path=args.replay_trace)
    _write_rows(args.out, [row])
    if row["mismatches"]:
        print(f"replay-verify: {row['mismatches']} of {row['checked']} selections diverged",
              file=sys.stderr)
        return 1
    return 0


def _cmd_plan_patches(args) -> int:
    plan = plan_patches(args.len, rate=args.rate, f_min=args.fmin, f_max=args.fmax)
    _write_rows(args.out, [{"len": args.len, "rate": float(args.rate),
                            "patch_size": plan.patch_size, "stride": plan.stride,
                            "n_frames": plan.n_frames}])
    return 0


def run(argv: list[str]) -> int:
    """Parse argv, run one subcommand, return the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code or 0)
    try:
        if getattr(args, "config", None):
            args = _apply_config(parser, argv, args)
        return args.handler(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"moelab {args.command}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
