"""The benchmark's per-layer trace (``perfbench/spans.py``) wraps codescent
functions and convex-class methods by name from outside the program.  This
smoke test installs it on two short runs, so removing a name it wraps fails
here rather than only in a traced benchmark run, and checks that uninstall
puts every wrapped name back."""

import importlib.util
import sys
from pathlib import Path

import codescent
from codescent import MHDConfig, max_quadratics, worked_example

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(classes) -> dict:
    """Every name bound in a codescent module or in one of ``classes``."""
    owners = [m for n, m in sys.modules.items() if n == "codescent" or n.startswith("codescent.")]
    return {(id(o), k): v for o in [*owners, *classes] for k, v in list(vars(o).items())}


def test_tracer_wraps_and_restores():
    spans = load_spans()
    before = bindings(spans.CONVEX_CLASSES)
    tracer = spans.Tracer()
    try:
        tracer.install()
        fn, _, x0 = max_quadratics(0, d=4, k=3)
        codescent.mhd_run(fn, x0, MHDConfig(max_iter=5))
        codescent.mgcd_run(worked_example(), (2, 2))
        snap = tracer.take()
    finally:
        tracer.uninstall()
    assert snap["spans"]["convex.value"]["calls"] > 0
    assert snap["spans"]["pa.global_codiff"]["calls"] > 0
    assert spans.layer_metrics([snap], [snap])["mhd.iterations"][0] == 5
    after = bindings(spans.CONVEX_CLASSES)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
