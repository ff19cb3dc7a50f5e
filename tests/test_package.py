"""Package-wide guards: the public names, the names the bench wraps, the
names nothing outside the tests uses, the imports nothing reads, the
readers of the Mittag-Leffler evaluator, the imports of scipy and mpmath,
the length of the source lines and the width of numpy's long double."""

from __future__ import annotations

import ast
import importlib
import os
import re
from pathlib import Path

import numpy as np

import fracmix

PACKAGE = Path(fracmix.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "bench"

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
        for path in PACKAGE.glob("*.py"):
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


def _top_level_names(tree: ast.Module) -> set[str]:
    """The functions, classes and assigned names of a module's top level,
    dunders left out."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return {n for n in names if not n.startswith("__")}


def _referenced_names(tree: ast.Module, strings: bool) -> set[str]:
    """Every name a module loads or reads as an attribute; with
    ``strings``, also the parts of its dotted-name string constants, the
    way bench/spans.py names what it wraps."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)
              and re.fullmatch(r"[\w.]+", node.value)):
            names.update(node.value.split("."))
    return names


class TestOneKernelPath:
    def test_evaluator_read_only_by_the_term_table_and_the_table_command(self):
        # _term_table alone decides how the solver evaluates a kernel term,
        # and specfun-table writes the evaluator's own values: no other
        # code outside specfun reads ml_array
        readers = {(path.name, getattr(node, "name", None))
                   for path in sorted(PACKAGE.glob("*.py"))
                   if path.name != "specfun.py"
                   for node in ast.parse(path.read_text(encoding="utf-8")).body
                   if "ml_array" in _referenced_names(node, strings=False)}
        assert readers <= {("solver.py", "_term_table"),
                           ("cli.py", "cmd_specfun_table")}


class TestNoScipy:
    def test_no_module_imports_scipy(self):
        # scipy and mpmath serve only the tests' oracles; the package runs
        # on numpy alone
        found = []
        for path in sorted(PACKAGE.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                found += [f"{path.name}: {name}" for name in names
                          if name.split(".")[0] in ("scipy", "mpmath")]
        assert found == []


class TestExtendedPrecision:
    def test_long_double_is_wider_than_double(self):
        # the band's residues, contour node factors and integer-order
        # closed forms run in numpy's long double; where that is a plain
        # double (MSVC builds, macOS on arm64) their error bounds widen and
        # band values the envelope holds elsewhere raise CancellationError
        assert np.finfo(np.longdouble).eps < np.finfo(float).eps, (
            "fracmix needs numpy.longdouble wider than float64 (x87 80-bit "
            "or IEEE quad); on this platform it is float64, so the band's "
            "values near the accuracy envelope's edge are refused")


class TestNoTestOnlyNames:
    def test_every_top_level_name_is_referenced(self):
        # a function, class or constant of the package that neither the
        # package nor the bench refers to serves only the tests, which keep
        # such helpers in their own modules
        defined, used = {}, set()
        for path in sorted(PACKAGE.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            defined.update(dict.fromkeys(_top_level_names(tree), path.name))
            used |= _referenced_names(tree, strings=False)
        for path in sorted(BENCH.glob("*.py")):
            used |= _referenced_names(
                ast.parse(path.read_text(encoding="utf-8")), strings=True)
        unused = {f"{module}:{name}" for name, module in defined.items()
                  if name not in used}
        assert unused == set()


def _imported_names(tree: ast.Module) -> set[str]:
    """The names a module's import statements bind, ``__future__`` left
    out."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    """The entries of a module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


class TestNoUnusedImports:
    def test_every_imported_name_is_read(self):
        # an import whose last reader was deleted is dead code; the package
        # re-exports names only through __all__
        unused = []
        for path in sorted(PACKAGE.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read = (_referenced_names(tree, strings=False)
                    | _exported_names(tree))
            unused += [f"{path.name}:{name}"
                       for name in sorted(_imported_names(tree) - read)]
        assert unused == []


class TestLineLength:
    def test_no_package_line_exceeds_99_characters(self):
        long = [f"{path.name}:{n}" for path in sorted(PACKAGE.glob("*.py"))
                for n, line in enumerate(
                    path.read_text(encoding="utf-8").splitlines(), 1)
                if len(line) > 99]
        assert long == []
