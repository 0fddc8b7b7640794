"""The traced benchmark wraps ``dca_ids`` functions by module attribute
(``bench/spans.py`` ``WRAP_TARGETS``); a target that no longer resolves
records no span and its metrics read ``None`` without an error. This pins
the set of unresolved targets, so a refactor that renames or moves a wrapped
call fails here instead of silently dropping a per-layer span."""
import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# Deleted functions the benchmark still names; its next change drops them.
DEAD_TARGETS = {
    ("dca_ids.experiments", name)
    for name in ("classify_types", "perfect_mcav", "type_instance_counts",
                 "confusion_from_types", "average_runs")
}


def wrap_targets(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    return spans.WRAP_TARGETS


def test_only_the_known_dead_wrap_targets_are_unresolved(monkeypatch):
    unresolved = {
        (module, attribute)
        for module, attribute, _, _ in wrap_targets(monkeypatch)
        if not callable(getattr(importlib.import_module(module), attribute,
                                None))
    }
    assert unresolved == DEAD_TARGETS
