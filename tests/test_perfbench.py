"""The benchmark's tracer resolves every library function it wraps.

``perfbench/spans.py`` wraps public functions of seven moelab modules by
name, and constructing its ``Tracer`` looks each one up. A library
function that is removed or renamed without the table following it
therefore fails here, not only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACED = ["core", "routing", "epsim", "precision", "rlloss", "replay", "expansion"]


def test_tracer_resolves_every_wrapped_name():
    for name in TRACED:
        importlib.import_module(f"moelab.{name}")
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert sorted(spans.LAYERS) == sorted(f"moelab.{name}" for name in TRACED)
    assert spans.Tracer()._patches
