"""The layer entry points the benchmark's tracer wraps must exist.

``perfbench/spans.py`` wraps ``mpvc.<module>.<attribute>`` for each pair in
its ``MODULE_ENTRY_POINTS`` and reports the metrics of a missing one as
absent, so a renamed solver function would otherwise go unnoticed.  The
file is loaded read-only; it imports only the standard library.
"""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    entry_points = _load_spans().MODULE_ENTRY_POINTS
    assert entry_points
    missing = [
        f"mpvc.{mod}.{attr}"
        for mod, attr in entry_points
        if not callable(getattr(importlib.import_module(f"mpvc.{mod}"), attr, None))
    ]
    assert missing == []
