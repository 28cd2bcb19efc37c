"""Guards for the names that code outside the package looks up.

The traced benchmark run (``perfbench/spans.py``) wraps helmbie's functions
and methods by name; entering its ``installed`` context resolves every one
of them, so removing or renaming a wrapped name fails here.  Every name in a
module's ``__all__`` must exist.
"""

import importlib
import importlib.util
import pathlib
import pkgutil
import sys

import pytest

import helmbie

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
