"""Per-layer spans and counters recorded from outside the library.

A :class:`Tracer` wraps the public functions of each moelab module, and
every other moelab module's binding of the same function object (so that
``epsim.dispatch -> routing.router_probs_batch`` nests as a parent span
with a child span). While installed, each call records a span on a stack:
a layer's self time is its span's duration minus the time its child spans
cover, and the harness's own root span (``bench``) collects op time spent
outside every layer. Spans are aggregated in memory as they close.

``timeseries`` and ``cli`` are not traced: patch planning is constant-time
integer arithmetic and the CLI is argument parsing around the same calls.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

import numpy as np


def _arg(args, kw, i, name):
    return args[i] if len(args) > i else kw[name]


def _size(i, name):
    return lambda args, kw, result, pre: int(np.size(_arg(args, kw, i, name)))


def _rows(args, kw, result, pre):
    return int(result.shape[0])


def _one(args, kw, result, pre):
    return 1


def _tell(i, name):
    def pre(args, kw):
        fp = _arg(args, kw, i, name)
        return fp, fp.tell()

    return pre


def _told(args, kw, result, pre):
    fp, start = pre
    return fp.tell() - start


def _rounded(args, kw, result, pre):
    return 0 if _arg(args, kw, 1, "fmt_name") == "fp64" else int(np.size(_arg(args, kw, 0, "w")))


def _draws(factor):
    return lambda args, kw, result, pre: factor * int(np.size(result))


# module -> public name -> (layer, counter name or None, count fn, pre fn).
# A counter is only advanced by the outermost span of its layer, so nested
# calls inside one layer (normal -> uniform, apply_format -> quantize_fp8)
# are not counted twice.
LAYERS = {
    "moelab.core": {
        "Rng.uniform": ("core.rng", "core.rng.draws", _draws(1), None),
        "Rng.integers": ("core.rng", "core.rng.draws", _draws(1), None),
        "Rng.normal": ("core.rng", "core.rng.draws", _draws(2), None),
        "Rng.normal_matrix": ("core.rng", "core.rng.draws", _draws(2), None),
    },
    "moelab.routing": {
        "router_probs": ("routing.probs", "routing.tokens", _one, None),
        "router_probs_batch": ("routing.probs", "routing.tokens", _rows, None),
        "topk_select": ("routing.select", None, None, None),
        "grouped_select": ("routing.select", None, None, None),
        "topk_select_batch": ("routing.select", None, None, None),
        "grouped_select_batch": ("routing.select", None, None, None),
        "route_token": ("routing.route", "routing.tokens", _one, None),
        "gate_weights": ("routing.route", None, None, None),
        "ste_gate_value": ("routing.route", None, None, None),
        "ste_backward": ("routing.route", None, None, None),
        "moe_forward": (
            "routing.expert_ffn",
            "routing.expert_evals",
            lambda args, kw, result, pre: int(np.size(_arg(args, kw, 2, "decision").selected)),
            None,
        ),
    },
    "moelab.epsim": {
        "dispatch": (
            "epsim.dispatch",
            "epsim.assignments",
            lambda args, kw, result, pre: int(result.counts.sum()),
            None,
        ),
        "balance_metrics": ("epsim.dispatch", None, None, None),
        "balance_trial": ("epsim.dispatch", None, None, None),
        "balance_loss": ("epsim.balance_loss", None, None, None),
    },
    "moelab.precision": {
        "quantize_fp8": ("precision.round", "precision.elements_rounded", _size(0, "v"), None),
        "dequantize_fp8": ("precision.round", None, None, None),
        "fp8_grid": ("precision.round", None, None, None),
        "bf16_round": ("precision.round", "precision.elements_rounded", _size(0, "v"), None),
        "fp32_round": ("precision.round", "precision.elements_rounded", _size(0, "v"), None),
        "apply_format": ("precision.round", "precision.elements_rounded", _rounded, None),
        "mixed_forward": ("precision.forward", None, None, None),
        "divergence_trial": ("precision.trial", None, None, None),
    },
    "moelab.rlloss": {
        "engine_kl": (
            "rlloss.engine_kl",
            "rlloss.engine_kl.tokens",
            lambda args, kw, result, pre: int(result.per_token.size),
            None,
        ),
        "rl_loss": ("rlloss.loss", None, None, None),
        "rl_loss_grad": ("rlloss.loss", None, None, None),
        "loo_advantage": ("rlloss.loss", None, None, None),
        "mask_ratio": ("rlloss.loss", None, None, None),
        "batch_from_policy": ("rlloss.loss", None, None, None),
        "dump_batch": ("rlloss.io", "rlloss.io.bytes", _told, _tell(1, "fp")),
        "load_batch": ("rlloss.io", "rlloss.io.bytes", _told, _tell(0, "fp")),
    },
    "moelab.replay": {
        "record_trace": ("replay.record", None, None, None),
        "replay_select": ("replay.replay", None, None, None),
        "serialize_trace": ("replay.io", "replay.io.bytes", lambda args, kw, result, pre: len(result), None),
        "deserialize_trace": ("replay.io", "replay.io.bytes", _size(0, "data"), None),
        "save_trace": ("replay.io", None, None, None),
        "load_trace": ("replay.io", None, None, None),
    },
    "moelab.expansion": {
        "activation_stats": ("expansion.stats", None, None, None),
        "frequency_ranking": ("expansion.stats", None, None, None),
        "plan_expansion": ("expansion.expand", None, None, None),
        "expand_layer": ("expansion.expand", None, None, None),
        "save_layer": ("expansion.io", "expansion.io.bytes", _told, _tell(0, "fp")),
        "load_layer": ("expansion.io", "expansion.io.bytes", _told, _tell(0, "fp")),
    },
}

# Argument coercion and the finite-difference oracle are left untraced:
# coercion runs at every entry point, so a span there would cost more than
# the work it measures, and no workload runs the oracle.
UNTRACED = {"moelab.core": {"as_vector", "as_matrix", "finite_diff_grad"}}

SELF_TIMES = sorted({spec[0] for table in LAYERS.values() for spec in table.values()})
COUNTERS = sorted({spec[1] for table in LAYERS.values() for spec in table.values() if spec[1]})


class Tracer:
    """Span stack plus per-layer self-time and counter totals."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.total_s = 0.0
        self._stack: list[list] = []
        self._patches = []
        for modname, table in LAYERS.items():
            module = sys.modules[modname]
            for qualname, spec in table.items():
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                orig = owner.__dict__[attr]
                wrapper = self._wrap(orig, *spec)
                if owner_name:
                    self._patches.append((owner, attr, orig, wrapper))
                    continue
                for other in [m for name, m in sys.modules.items() if name.startswith("moelab")]:
                    for bound, value in list(vars(other).items()):
                        if value is orig:
                            self._patches.append((other, bound, orig, wrapper))

    @staticmethod
    def untraced() -> list[str]:
        """Public functions of the traced modules that no layer covers."""
        missing = []
        for modname, table in LAYERS.items():
            module = sys.modules[modname]
            for name in getattr(module, "__all__", []):
                value = getattr(module, name)
                known = name in table or name in UNTRACED.get(modname, ())
                if inspect.isfunction(value) and not known:
                    missing.append(f"{modname}.{name}")
        return missing

    def _wrap(self, fn, layer, counter, count, pre):
        stack, self_s, counts = self._stack, self.self_s, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, layer]
            stack.append(frame)
            before = pre(args, kwargs) if pre is not None else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[layer] += dt - frame[0]
                parent[0] += dt
            if counter is not None and parent[1] != layer:
                counts[counter] += count(args, kwargs, result, before)
            return result

        return traced

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    def run(self, fn, *args):
        """Run ``fn(*args)`` under the root span (``bench``)."""
        root = [0.0, "bench"]
        self._stack.append(root)
        self.install()
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            dt = time.perf_counter() - t0
            self.uninstall()
            self._stack.pop()
            self.total_s += dt
            self.self_s["bench"] += dt - root[0]
