"""Package-wide guards: the public names and the names the bench wraps."""

from __future__ import annotations

import ast
import importlib
import os
from pathlib import Path

import fracmix

# bench/spans.py targets that name no live attribute: the routes they wrapped
# were folded into ml_array and the verifier's profile tables
STALE_SPAN_TARGETS = {
    "fracmix.solver.ml",
    "fracmix.solver.e1",
    "fracmix.verify.caputo_right_factored",
    "fracmix.verify.caputo_right",
    "fracmix.verify.mode_profile",
}


def _raised_names(source: str) -> set[str]:
    """Names of the classes that ``raise`` statements instantiate or
    re-raise in one module's source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


class TestExportedErrors:
    def test_every_exported_error_is_raised(self):
        # an error class the package exports but never raises belongs to
        # whatever does raise it
        raised = set()
        for path in Path(fracmix.__file__).parent.glob("*.py"):
            raised |= _raised_names(path.read_text(encoding="utf-8"))
        exported = {name for name in fracmix.__all__
                    if isinstance(getattr(fracmix, name), type)}
        assert "QuadratureError" in exported
        assert exported - {"FracmixError"} - raised == set()


class TestBenchSpanTargets:
    def test_targets_resolve_but_the_known_stale(self, monkeypatch):
        # resolve every bench/spans.py target as Tracer.install does, without
        # patching; a renamed product name would add to the missing spans
        bench = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
        monkeypatch.syspath_prepend(os.path.abspath(bench))
        spans = importlib.import_module("spans")
        missing = set()
        for module, path, _name in spans.PATCHES:
            owner = importlib.import_module(module)
            try:
                for part in path.split("."):
                    owner = getattr(owner, part)
            except AttributeError:
                missing.add(f"{module}.{path}")
        assert missing <= STALE_SPAN_TARGETS
