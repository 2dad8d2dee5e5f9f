"""The benchmark's tracer wraps scatpoly functions by name; installing it
here makes a rename or deletion of a wrapped name fail the unit tests."""

import importlib.util
from pathlib import Path

from scatpoly import linalg, linpoly, scattered
from scatpoly.scattered import build_psi

SPANS = Path(__file__).resolve().parent.parent / "scatbench" / "spans.py"


def test_tracer_installs_and_removes(ctx53):
    spec = importlib.util.spec_from_file_location("scatbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wrapped = [(linalg, "batch_rank"), (linalg, "batch_dickson_rank"),
               (scattered, "shift_ranks"), (scattered, "is_scattered_fibers"),
               (linpoly.LinPoly, "line_values")]
    before = [getattr(owner, name) for owner, name in wrapped]
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert all(getattr(owner, name) is not fn
                   for (owner, name), fn in zip(wrapped, before))
        scattered.is_scattered_fibers(build_psi(ctx53, 1))
        assert [s[0] for s in tracer.spans] == ["scattered.fibers"]
    finally:
        tracer.remove()
    assert all(getattr(owner, name) is fn for (owner, name), fn in zip(wrapped, before))
