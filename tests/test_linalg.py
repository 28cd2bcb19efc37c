import ast
import pathlib

import numpy as np
import pytest

import helmbie
from helmbie.linalg import (
    GmresError,
    SingularMatrixError,
    gmres,
    lu_factor,
    lu_solve,
    matmul,
)


def test_lu_identity():
    b = np.array([1.0 + 2j, -3.0, 0.5j])
    assert np.allclose(lu_solve(lu_factor(np.eye(3)), b), b)


def test_lu_permutation():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = lu_solve(lu_factor(a), np.array([1.0, 2.0]))
    assert np.allclose(x, [2.0, 1.0])


def test_lu_random_residual():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
    a += 10.0 * np.eye(50)  # keep it comfortably conditioned
    b = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    x = lu_solve(lu_factor(a), b)
    assert np.linalg.norm(a @ x - b, np.inf) <= 1e-11 * np.linalg.norm(b, np.inf)


def test_lu_singular_reports_pivot():
    a = np.ones((4, 4), dtype=complex)
    with pytest.raises(SingularMatrixError) as info:
        lu_solve(lu_factor(a), np.ones(4))
    assert 0 <= info.value.pivot_index < 4


def test_lu_rejects_nonfinite():
    # the 1-norm that zgecon needs is the check: inf or NaN with any entry
    for bad in (np.inf, -np.inf, np.nan, complex(0.0, np.nan)):
        a = np.array([[bad, 0], [0, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            lu_solve(lu_factor(a), np.ones(2))
        with pytest.raises(ValueError, match="non-finite"):
            lu_factor(a)


def test_lu_factor_rcond_matches_condition_number():
    # zgecon estimates ||A^-1||_1 from below, so rcond is never too small
    rng = np.random.default_rng(2)
    for n in (3, 6, 40):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        exact = 1.0 / np.linalg.cond(a, 1)
        assert exact * (1.0 - 1e-12) <= lu_factor(a).rcond <= 3.0 * exact
    # diagonal: the estimate is exact, min |d| / max |d|
    assert lu_factor(np.diag([4.0, 0.5j, -2.0])).rcond == pytest.approx(0.125, rel=1e-14)


def test_lu_solve_accepts_factors():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((8, 8)) + 10.0 * np.eye(8)
    b = rng.standard_normal(8) + 1j
    factors = lu_factor(a)
    assert np.shape(factors) == (8, 8)
    x = lu_solve(factors, b)
    assert np.linalg.norm(a @ x - b, np.inf) <= 1e-12 * np.linalg.norm(b, np.inf)
    with pytest.raises(ValueError):
        lu_solve(factors, np.full(8, np.nan))
    with pytest.raises(ValueError, match="square"):
        lu_factor(np.ones((2, 3)))


def test_gmres_identity_one_iteration():
    b = np.arange(1.0, 6.0) + 0j
    x, history = gmres(np.eye(5), b, tol=1e-12)
    assert len(history) - 1 == 1
    assert np.allclose(x, b)


def test_gmres_rank_one_update_two_iterations():
    rng = np.random.default_rng(1)
    u = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    v = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    a = np.eye(20) + np.outer(u, v)
    b = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    x, history = gmres(a, b, tol=1e-12)
    assert len(history) - 1 <= 2
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_gmres_history_monotone():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    a += 6.0 * np.eye(40)
    b = rng.standard_normal(40) + 0j
    _, history = gmres(a, b, tol=1e-12)
    assert np.all(np.diff(history) <= 0)
    assert history[0] == 1.0
    assert history[-1] <= 1e-12


def test_gmres_zero_rhs():
    x, history = gmres(np.eye(4), np.zeros(4, dtype=complex))
    assert len(history) - 1 == 0
    assert np.all(x == 0)


def test_gmres_maxit_failure_carries_history():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60))
    a += 4.0 * np.eye(60)
    b = rng.standard_normal(60) + 0j
    with pytest.raises(GmresError) as info:
        gmres(a, b, tol=1e-14, maxit=3)
    assert len(info.value.history) == 4


def test_gmres_rejects_bad_tol():
    with pytest.raises(ValueError):
        gmres(np.eye(2), np.ones(2), tol=0.0)


@pytest.mark.parametrize("kw,message", [
    ({"tol": np.inf}, "tol must be finite and positive"),
    ({"tol": np.nan}, "tol must be finite and positive"),
    ({"maxit": 0}, "maxit must be >= 1"),
    ({"maxit": -3}, "maxit must be >= 1"),
])
def test_gmres_rejects_a_tol_or_cap_it_cannot_honour(kw, message):
    # tol = inf returned after one iteration, nan ran every one and failed,
    # and a negative maxit died inside numpy
    with pytest.raises(ValueError, match=message):
        gmres(np.eye(2), np.ones(2), **kw)


def _product_gap(a, b, product):
    """|product - np.matmul(a, b)| against 4 n eps max|a| max|b|, n inner."""
    exact = np.matmul(a, b)
    assert product.shape == exact.shape
    bound = 4 * a.shape[1] * np.finfo(float).eps * np.max(np.abs(a)) * np.max(np.abs(b))
    return np.max(np.abs(product - exact)) / bound


def _random(rng, *shape, real=False):
    out = rng.standard_normal(shape)
    return out if real else out + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("real_a, real_b", [(False, False), (True, True),
                                            (True, False), (False, True)])
def test_matmul_matches_numpy(real_a, real_b):
    rng = np.random.default_rng(5)
    a = _random(rng, 37, 23, real=real_a)
    b = _random(rng, 23, 11, real=real_b)
    for rhs in (b, b[:, 3]):  # matrix x matrix and matrix x vector
        product = matmul(a, rhs)
        assert product.dtype == np.result_type(a, rhs)
        assert product.flags.c_contiguous
        assert _product_gap(a, rhs, product) <= 1.0


def test_matmul_non_contiguous_operands():
    rng = np.random.default_rng(6)
    a = _random(rng, 40, 60)[::2, 1::2]     # 20 x 30, strided in both axes
    b = _random(rng, 15, 30).T              # 30 x 15, F-contiguous
    v = _random(rng, 90)[::3]
    assert _product_gap(a, b, matmul(a, b)) <= 1.0
    assert _product_gap(a, v, matmul(a, v)) <= 1.0
    assert _product_gap(b.T, a.T, matmul(b.T, a.T)) <= 1.0


# Products with a 2-vector run on the calling thread in either BLAS
_NUMPY_PRODUCTS = {"formulations.py": {"pts @ d"}}


@pytest.mark.parametrize("module", ["formulations.py", "fields.py", "linalg.py"])
def test_dense_products_go_through_one_blas(module):
    """Every matrix product on the assemble -> solve -> far field path goes
    through linalg.matmul, whose BLAS also factors and solves (see the linalg
    module docstring): a numpy product there brings back numpy's own
    OpenBLAS thread pool."""
    path = pathlib.Path(helmbie.__file__).parent / module
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(ast.unparse(node))
        elif (isinstance(node, ast.Attribute) and node.attr in ("matmul", "dot")
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append(ast.unparse(node))
    assert sorted(found) == sorted(_NUMPY_PRODUCTS.get(module, ()))


def _calls_gmres(path):
    tree = ast.parse(path.read_text())
    return [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "gmres"]


def test_gmres_runs_only_through_solve():
    """``formulations.solve`` is the one path to GMRES, so every GMRES run
    is recorded in its SolverDiagnostics; library modules and demos call
    ``solve(system, "gmres", ...)``."""
    root = pathlib.Path(helmbie.__file__).parent
    demos = pathlib.Path(__file__).resolve().parents[1] / "demos"
    paths = [p for p in sorted(root.glob("*.py")) if p.name != "formulations.py"]
    paths += sorted(demos.glob("*.py"))
    assert len(paths) > 10
    found = {p.name: _calls_gmres(p) for p in paths}
    assert {name: calls for name, calls in found.items() if calls} == {}
    assert _calls_gmres(root / "formulations.py")  # the check sees solve's call


def test_only_assemble_reaches_the_reuse_state():
    """Inside ``formulations`` only ``assemble`` calls ``_op_families`` and
    ``_system``, and only ``assemble``, ``empty_slot`` and ``_op_families``
    read or write the slot and the kept families: the builders work on what
    they are given and return a matrix."""
    path = pathlib.Path(helmbie.__file__).parent / "formulations.py"
    callers, users = {"_op_families": set(), "_system": set()}, set()
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in callers:
                callers[node.func.id].add(fn.name)
            names = node.names if isinstance(node, ast.Global) else [getattr(node, "id", None)]
            if {"_slot", "_families"} & set(names):
                users.add(fn.name)
    assert callers == {"_op_families": {"assemble"}, "_system": {"assemble"}}
    assert users == {"assemble", "empty_slot", "_op_families"}
