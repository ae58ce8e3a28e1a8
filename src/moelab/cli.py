"""Command-line front end: seeded experiments with CSV output.

Subcommands
    balance-sim      expert-parallel dispatch balance trials
    gradcheck-ste    straight-through router gradient vs finite differences
    gradcheck-rl     policy-gradient loss gradient vs finite differences
    expand           expand a layer checkpoint to more experts
    precision-sweep  per-policy engine divergence trials
    replay-verify    record a routing trace, perturb, replay, compare
    plan-patches     adaptive time-series patch plan

Every run's randomness flows from --seed, so identical argv produce
byte-identical CSV. A config file of ``key = value`` lines (keys named
like the long flags) supplies defaults; explicit flags win. Exit codes:
0 success, 1 failed check or module error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from moelab.core import Rng, finite_diff_grad, softmax
from moelab.epsim import balance_trial
from moelab.expansion import (
    activation_stats,
    expand_layer,
    load_layer,
    plan_expansion,
    save_layer,
)
from moelab.precision import POLICIES, divergence_trial
from moelab.replay import load_trace, record_trace, replay_select, save_trace
from moelab.rlloss import MaskConfig, load_batch, rl_loss
from moelab.routing import MoeLayerSpec, router_probs, ste_backward, topk_select
from moelab.timeseries import plan_patches

__all__ = ["main", "run"]


def _write_csv(path: str, header: list[str], rows: list[list[object]]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fp:
            fp.write(text)


def _add_common(sub: argparse.ArgumentParser) -> None:
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
    _add_common(p)

    p = subs.add_parser("gradcheck-ste", help="router gradient vs finite differences")
    p.add_argument("--n", type=int, default=8, help="number of experts")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--taus", default="0.5,1.0,2.0", help="comma-separated temperatures")
    p.add_argument("--tol", type=float, default=1e-6)
    _add_common(p)

    p = subs.add_parser("gradcheck-rl", help="loss gradient vs finite differences")
    p.add_argument("--group", type=int, default=4)
    p.add_argument("--vocab", type=int, default=5)
    p.add_argument("--maxlen", type=int, default=4)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--alpha", type=float, default=0.5,
                   help="mask lower bound (demo default, not a reported value)")
    p.add_argument("--beta", type=float, default=2.0,
                   help="mask upper bound (demo default, not a reported value)")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--batch", default=None,
                   help="evaluate the loss on a serialized rollout batch instead")
    _add_common(p)

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
    _add_common(p)

    p = subs.add_parser("precision-sweep", help="engine-divergence trials per policy")
    p.add_argument("--policies", default="mixed_fp8,all_bf16,fp32head,bf16head",
                   help=f"comma-separated from {sorted(POLICIES)}")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--samples", type=int, default=65536)
    _add_common(p)

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
    _add_common(p)

    p = subs.add_parser("plan-patches", help="adaptive patch plan for a signal")
    p.add_argument("--len", type=int, required=True, dest="length")
    p.add_argument("--rate", type=float, default=100.0)
    p.add_argument("--fmin", type=int, default=1)
    p.add_argument("--fmax", type=int, default=4096)
    _add_common(p)

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
    sub_by_name = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    sub = sub_by_name[args.command]
    actions = {a.dest: a for a in sub._actions if a.dest != "help"}
    typed: dict[str, object] = {}
    for key, val in _parse_config(args.config).items():
        if key not in actions:
            raise ValueError(f"config key {key!r} is not a {args.command} option")
        action = actions[key]
        typed[key] = action.type(val) if action.type else val
    sub.set_defaults(**typed)
    return parser.parse_args(argv)


def _cmd_balance_sim(args) -> int:
    groups = args.groups
    if groups is None:
        groups = args.devices if args.mode == "grouped" else 1
    spec = MoeLayerSpec(
        num_experts=args.experts,
        active_k=args.k,
        num_groups=groups,
        model_dim=args.dim,
        hidden_dim=2 * args.dim,
    )
    rows = []
    for i in range(args.trials):
        row = balance_trial(args.mode, args.seed + i, spec, args.devices, args.tokens)
        rows.append([row["mode"], row["T"], row["seed"],
                     float(row["max_over_mean"]), float(row["cv"]),
                     float(row["balance_loss"])])
    _write_csv(args.out, ["mode", "T", "seed", "max_over_mean", "cv", "balance_loss"], rows)
    return 0


def _cmd_gradcheck_ste(args) -> int:
    taus = [float(t) for t in args.taus.split(",") if t]
    rng = Rng(args.seed)
    worst = 0.0
    unselected_hits = 0
    for trial in range(args.trials):
        tau = taus[trial % len(taus)]
        z = rng.normal(args.n)
        sel = topk_select(softmax(z), args.k)
        up = rng.normal(args.k)

        def loss(zv, tau=tau, sel=sel, up=up):
            q = np.exp(zv / tau - (zv / tau).max())
            q /= q.sum()
            return float((up * q[sel]).sum())

        fd = finite_diff_grad(loss, z, h=1e-6)
        an = ste_backward(up, z, sel, tau)
        worst = max(worst, np.linalg.norm(an - fd) / max(np.linalg.norm(fd), 1e-30))
        others = np.setdiff1d(np.arange(args.n), sel)
        if others.size and np.any(np.abs(an[others]) > 0):
            unselected_hits += 1
    _write_csv(
        args.out,
        ["trials", "n", "k", "max_rel_err", "unselected_nonzero"],
        [[args.trials, args.n, args.k, float(worst), unselected_hits]],
    )
    if worst > args.tol:
        print(f"gradcheck-ste: max relative error {worst:.3e} exceeds {args.tol:.3e}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_gradcheck_rl(args) -> int:
    cfg = MaskConfig(alpha=args.alpha, beta=args.beta)
    if args.batch is not None:
        with open(args.batch) as fp:
            batch = load_batch(fp)
        result = rl_loss(batch, cfg)
        tokens = sum(batch.response_length(i) for i in range(batch.group_size))
        _write_csv(args.out, ["loss", "group_size", "tokens"],
                   [[float(result.loss), batch.group_size, tokens]])
        return 0

    from moelab.rlloss import ToyPolicy, batch_from_policy, rl_loss_grad

    rng = Rng(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        lens = [1 + int(rng.uniform(1)[0] * args.maxlen) for _ in range(args.group)]
        policy = ToyPolicy(
            logits=[rng.normal(l * args.vocab).reshape(l, args.vocab) for l in lens],
            tokens=[(rng.uniform(l) * args.vocab).astype(np.int64) for l in lens],
        )
        rollout = [-np.abs(rng.normal(l)) * 0.5 - 1e-3 for l in lens]
        train = [np.minimum(r + rng.normal(r.size) * 0.4, 0.0) for r in rollout]
        old = [-np.abs(rng.normal(l)) * 0.5 - 1e-3 for l in lens]
        batch = batch_from_policy(policy, train, rollout, old, rng.normal(args.group))
        analytic = np.concatenate([g.ravel() for g in rl_loss_grad(policy, batch, cfg)])

        coefs = [c.copy() for c in rl_loss(batch, cfg).per_token_coef]
        shapes = [l.shape for l in policy.logits]
        flat0 = np.concatenate([l.ravel() for l in policy.logits])

        def frozen(vec, coefs=coefs, shapes=shapes, policy=policy, g=args.group):
            total, off = 0.0, 0
            for i, (rows, v) in enumerate(shapes):
                logits = vec[off: off + rows * v].reshape(rows, v)
                off += rows * v
                m = logits.max(axis=1, keepdims=True)
                lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
                lp = logits[np.arange(rows), policy.tokens[i]] - lse
                total += float((coefs[i] * lp).sum()) / rows
            return -total / g

        fd = finite_diff_grad(frozen, flat0, h=1e-6)
        worst = max(worst, np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-30))
    _write_csv(args.out, ["trials", "group", "max_rel_err"],
               [[args.trials, args.group, float(worst)]])
    if worst > args.tol:
        print(f"gradcheck-rl: max relative error {worst:.3e} exceeds {args.tol:.3e}",
              file=sys.stderr)
        return 1
    return 0


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
    _write_csv(
        args.out,
        ["experts_before", "experts_after", "param_ratio", "strategy"],
        [[bank.num_experts, new_bank.num_experts,
          float(new_bank.param_count / bank.param_count), args.strategy]],
    )
    return 0


def _cmd_precision_sweep(args) -> int:
    names = [n for n in args.policies.split(",") if n]
    unknown = [n for n in names if n not in POLICIES]
    if unknown:
        raise ValueError(f"unknown policies {unknown}; choose from {sorted(POLICIES)}")
    rows = []
    for name in names:
        for i in range(args.trials):
            r = divergence_trial(POLICIES[name], args.seed + i, samples=args.samples)
            rows.append([name, args.seed + i, float(r["kl_k1"]),
                         float(r["max_abs_logit_diff"])])
    _write_csv(args.out, ["policy", "seed", "kl_k1", "max_abs_logit_diff"], rows)
    return 0


def _cmd_replay_verify(args) -> int:
    rng = Rng(args.seed)
    spec = MoeLayerSpec(
        num_experts=args.experts,
        active_k=args.k,
        num_groups=args.groups,
        model_dim=args.dim,
        hidden_dim=2 * args.dim,
    )
    layers = [(rng.normal_matrix(args.experts, args.dim), spec) for _ in range(args.layers)]
    batch = rng.normal_matrix(args.tokens, args.dim)
    recorded = record_trace(batch, layers, args.mode)
    if args.record_trace:
        save_trace(args.record_trace, recorded)
    trace = load_trace(args.replay_trace) if args.replay_trace else recorded

    mismatches = 0
    checked = 0
    for l, (w, _) in enumerate(layers):
        # perturbation with Frobenius norm up to args.perturb * ||w||
        direction = rng.normal_matrix(*w.shape)
        direction /= np.linalg.norm(direction)
        scale = args.perturb * float(np.linalg.norm(w)) * float(rng.uniform(1)[0])
        w_pert = w + direction * scale
        for t in range(args.tokens):
            decision = replay_select(trace, t, l, router_probs(batch[t], w_pert))
            checked += 1
            if not np.array_equal(decision.selected, recorded.entry(t, l)):
                mismatches += 1
    _write_csv(
        args.out,
        ["tokens", "layers", "k", "checked", "mismatches"],
        [[args.tokens, args.layers, args.k, checked, mismatches]],
    )
    if mismatches:
        print(f"replay-verify: {mismatches} of {checked} selections diverged",
              file=sys.stderr)
        return 1
    return 0


def _cmd_plan_patches(args) -> int:
    plan = plan_patches(args.length, rate=args.rate, f_min=args.fmin, f_max=args.fmax)
    _write_csv(args.out, ["len", "rate", "patch_size", "stride", "n_frames"],
               [[args.length, float(args.rate), plan.patch_size, plan.stride, plan.n_frames]])
    return 0


_HANDLERS = {
    "balance-sim": _cmd_balance_sim,
    "gradcheck-ste": _cmd_gradcheck_ste,
    "gradcheck-rl": _cmd_gradcheck_rl,
    "expand": _cmd_expand,
    "precision-sweep": _cmd_precision_sweep,
    "replay-verify": _cmd_replay_verify,
    "plan-patches": _cmd_plan_patches,
}


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
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"moelab {args.command}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
