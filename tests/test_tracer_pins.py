"""The benchmark tracer (perfbench/spans.py) wraps named functions of the package and the
bindings other modules import them through.  Deleting one of them must fail the tests,
not only the traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

import fisheye.cli  # noqa: F401  (install wraps the bindings of every loaded fisheye module)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    """perfbench/spans.py loaded from its file, under a name of its own."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_the_package():
    spans = _spans_module()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod_name, attr in spans.TARGETS + spans.IMPORTED_BINDINGS:
            assert hasattr(getattr(sys.modules[f"fisheye.{mod_name}"], attr), "__perfbench_span__")
    finally:
        tracer.uninstall()
    for mod_name, attr in spans.TARGETS + spans.IMPORTED_BINDINGS:
        assert not hasattr(getattr(sys.modules[f"fisheye.{mod_name}"], attr), "__perfbench_span__")
