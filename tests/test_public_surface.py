"""Guards for the names that code outside the package looks up.

The traced benchmark run (``perfbench/spans.py``) wraps helmbie's functions
and methods by name; entering its ``installed`` context resolves every one
of them, so removing or renaming a wrapped name fails here.  Every name in a
module's ``__all__`` must exist, and must be read by code other than the
tests: a name only the tests read is an oracle, and lives in tests/oracles.py.
"""

import ast
import importlib
import importlib.util
import pathlib
import pkgutil
import re
import sys

import pytest

import helmbie

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
PACKAGE = pathlib.Path(helmbie.__file__).parent


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _lookup(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_wraps_and_restores_every_name():
    spans = _load_spans()
    targets = [(owner, attr) for owner, attr, *_ in spans._targets(helmbie)]
    before = [_lookup(owner, attr) for owner, attr in targets]
    tracer = spans.Tracer()
    with spans.installed(tracer, helmbie):
        # one traced family build reads the keys the tracer takes from it
        with tracer.operation(0, "probe"):
            helmbie.OperatorFamily(helmbie.kite(), 2.0, 8).h_op
    assert [_lookup(owner, attr) for owner, attr in targets] == before
    names = {span.name for span in tracer.spans}
    assert {"operators.family", "operators.build", "kernels.ef_matrices"} <= names
    assert not any(span.raised for span in tracer.spans)


@pytest.mark.parametrize(
    "name", sorted(m.name for m in pkgutil.iter_modules(helmbie.__path__))
)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"helmbie.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"helmbie.{name}.__all__ names missing {missing}"


def _library_reads(path, skip=None):
    """Names and attributes the module at ``path`` loads, outside the body
    of a definition named ``skip`` (imports, assignments and the strings of
    ``__all__`` are not reads)."""
    reads = set()

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(path.read_text()))
    return reads


def test_every_exported_name_is_read_outside_the_tests():
    """A name in a module's ``__all__`` that only the tests read is a test
    oracle, and belongs in tests/oracles.py rather than in the package: each
    must be read by library code other than its definition and re-export,
    or by a demo, README.md or perfbench/."""
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    reads = {path: _library_reads(path) for path in modules}
    texts = [path.read_text() for path in (*sorted((ROOT / "demos").glob("*.py")),
                                           ROOT / "README.md",
                                           *sorted((ROOT / "perfbench").rglob("*.py")))]
    unread = []
    for path in modules:
        for name in getattr(importlib.import_module(f"helmbie.{path.stem}"), "__all__", ()):
            library = (name in _library_reads(path, skip=name)
                       or any(name in reads[other] for other in modules if other != path))
            outside = any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts)
            if not (library or outside):
                unread.append(f"{path.stem}.{name}")
    assert not unread, f"exported names only the tests read: {unread}"
