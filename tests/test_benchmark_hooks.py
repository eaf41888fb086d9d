"""The benchmark's per-layer metrics find every function they wrap.

`perfbench/tracing.py` wraps module attributes by name and reports a
missing one as an absent layer instead of failing, so a renamed or
inlined function would silently blind a per-layer metric. This test only
reads the hook table; it installs nothing.
"""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it loads
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("hook", _tracing().HOOKS, ids=lambda h: f"{h[1]}:{h[2]}")
def test_every_trace_hook_resolves(hook):
    _, module_name, attr, _ = hook
    assert callable(_resolve(module_name, attr))


def test_worker_experiment_names_resolve():
    source = (PERFBENCH / "worker.py").read_text(encoding="utf-8")
    names = set(re.findall(r"\bexperiment\.([A-Za-z_]\w*)", source))
    assert {"SmoothConfig", "read_features", "predict_video", "smooth_scores", "evaluate_maps"} <= names
    for name in sorted(names):
        assert callable(_resolve("fakeseg.harness.experiment", name)), name
