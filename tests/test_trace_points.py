"""The traced sweep benchmark wraps names that exist in the package.

``sweepbench/tracer.py`` patches each (namespace, attribute) pair in its
``TRACE_POINTS``; a refactor that deletes or renames one of them would only
surface when the traced benchmark runs. This test imports the tracer
without writing anything next to it and checks every pair.
"""

import importlib
import sys
from pathlib import Path

SWEEPBENCH = Path(__file__).resolve().parents[1] / "sweepbench"


def test_every_trace_point_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(SWEEPBENCH))
    assert "tracer" not in sys.modules
    try:
        tracer = importlib.import_module("tracer")
    finally:
        sys.modules.pop("tracer", None)
    assert Path(tracer.__file__).resolve().parent == SWEEPBENCH
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracer.TRACE_POINTS
        if not hasattr(owner, attr)
    ]
    assert missing == []
