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

import numpy as np
import pytest

import helmbie
from helmbie.formulations import FORMULATIONS

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
    prob = helmbie.TransmissionProblem(helmbie.kite(), 2.0, 3.0, 2.0, helmbie.PlaneWave())
    angles = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    with spans.installed(tracer, helmbie):
        # one traced family build reads the keys the tracer takes from it
        with tracer.operation(0, "probe"):
            helmbie.OperatorFamily(helmbie.kite(), 2.0, 8).h_op
        # a cold assemble, solve and far field of every formulation calls
        # each pinned name where the tracer wraps it
        for op, form in enumerate(FORMULATIONS, start=1):
            with tracer.operation(op, form):
                result = helmbie.solve(helmbie.assemble(form, prob, 8))
                helmbie.FieldEvaluator(prob.curve, result.exterior_terms()).far_field(angles)
    assert [_lookup(owner, attr) for owner, attr in targets] == before
    names = {span.name for span in tracer.spans}
    # the names perfbench/tests asserts of a traced solve-kite run
    assert {"kernels.kernel_matrix", "kernels.ef_matrices", "fourier.conv_matrix",
            "fourier.lambda_matrix", "fourier.dld_matrix", "operators.build",
            "operators.family", "geometry.point", "linalg.lu_solve",
            "formulations.build_data", "fields.FieldEvaluator.far_field"} <= names
    assert not any(span.raised for span in tracer.spans)


@pytest.mark.parametrize(
    "name", sorted(m.name for m in pkgutil.iter_modules(helmbie.__path__))
)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"helmbie.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"helmbie.{name}.__all__ names missing {missing}"


def _library_reads(path):
    """{name: set of frozensets}: for each name or attribute the module at
    ``path`` loads, the names of the definitions around each load (imports,
    assignments and the strings of ``__all__`` are not reads).  A load sits
    inside a definition when the definition's node holds it, decorators,
    defaults and bases included."""
    reads = {}

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.setdefault(node.id, set()).add(enclosing)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.setdefault(node.attr, set()).add(enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(path.read_text()), frozenset())
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
            # read outside the body of every definition named ``name``
            library = (any(name not in enclosing for enclosing in reads[path].get(name, ()))
                       or any(name in reads[other] for other in modules if other != path))
            outside = any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts)
            if not (library or outside):
                unread.append(f"{path.stem}.{name}")
    assert not unread, f"exported names only the tests read: {unread}"
