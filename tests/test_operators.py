from collections import Counter

import numpy as np
import pytest

from helmbie import operators, specfun
from helmbie.fourier import conv_matrix, dld_symbol, lambda_symbol, weight_table
from helmbie.geometry import ParametricCurve, circle, grid, kite
from helmbie.kernels import KernelFactors, kernel_matrix
from helmbie.operators import OperatorFamily

from oracles import (
    circulant_from_symbol,
    diff_matrix,
    k_kt_from_factors,
    mp_circle_eigs,
    t_from_pairwise_grid,
)


def _circle_eig_table(data_dir):
    table = {}
    for line in (data_dir / "circle_eigs_k2.txt").read_text().splitlines():
        if line.startswith("#"):
            continue
        vals = line.split()
        n = int(vals[0])
        nums = [float(v) for v in vals[1:]]
        table[n] = [complex(nums[2 * i], nums[2 * i + 1]) for i in range(4)]
    return table


@pytest.fixture(scope="module")
def circle_family():
    return OperatorFamily(circle(), 2.0, 64)


def test_fixture_table_matches_live_oracle(data_dir):
    table = _circle_eig_table(data_dir)
    for n in (0, 3, 8):
        live = mp_circle_eigs(2.0, n)
        for stored, fresh in zip(table[n], live):
            assert abs(stored - complex(fresh)) <= 1e-13 * max(1, abs(stored))


def test_circle_eigenvalues_all_operators(circle_family, data_dir):
    table = _circle_eig_table(data_dir)
    t = grid(64)
    ops = {
        0: [(circle_family.v_plain, 1e-10), (circle_family.v_tilde, 1e-11)],
        1: [(circle_family.k_plain, 1e-10), (circle_family.k_tilde, 1e-11)],
        2: [(circle_family.kt_plain, 1e-10), (circle_family.kt_tilde, 1e-11)],
        3: [(circle_family.h_op, 1e-8)],
    }
    for n in range(-8, 9):
        e = np.exp(1j * n * t)
        lams = table[abs(n)]
        for idx, group in ops.items():
            for op, tol in group:
                err = np.max(np.abs(op @ e - lams[idx] * e))
                assert err / abs(lams[idx]) <= tol, (n, idx, tol, err)


def test_v_plain_constant_density_value(circle_family):
    # V e_0 -> (i pi / 2) J_0(2) H1_0(2) at high accuracy
    lam = complex(mp_circle_eigs(2.0, 0)[0])
    e0 = np.ones(128, dtype=complex)
    err = np.max(np.abs(circle_family.v_plain @ e0 - lam * e0))
    assert err / abs(lam) <= 1e-10


def test_double_layer_constant(circle_family):
    lam = complex(mp_circle_eigs(2.0, 0)[1])
    e0 = np.ones(128, dtype=complex)
    err = np.max(np.abs(circle_family.k_plain @ e0 - lam * e0))
    assert err <= 1e-10


def test_circle_matrices_are_circulant(circle_family):
    mat = circle_family.v_plain
    col = mat[:, 0]
    rebuilt = np.stack([np.roll(col, j) for j in range(mat.shape[1])], axis=1)
    assert np.max(np.abs(mat - rebuilt)) <= 1e-12


def test_k_and_kt_are_transposes():
    fam = OperatorFamily(kite(), 8.0, 32)
    assert np.max(np.abs(fam.k_plain.T - fam.kt_plain)) <= 1e-12
    assert np.max(np.abs(fam.k_tilde.T - fam.kt_tilde)) <= 1e-12


def test_lambda_part_of_v_tilde():
    fam = OperatorFamily(circle(), 2.0, 32)
    t = grid(32)
    e3 = np.exp(3j * t)
    lam_part = fam.v_tilde - fam.r_tilde
    assert np.max(np.abs(lam_part @ e3 - e3 / 6.0)) <= 1e-12


def test_plain_tilde_consistency_under_refinement():
    # both families discretize the same operator, so their action on a fixed
    # smooth density converges together superalgebraically
    curve = kite()
    k = 8.0
    gaps = []
    for N in (24, 48):
        fam = OperatorFamily(curve, k, N)
        t = grid(N)
        phi = np.exp(np.cos(t))
        gap = fam.v_tilde @ phi - fam.v_plain @ phi
        gaps.append(np.max(np.abs(gap)))
    assert gaps[1] <= gaps[0] / 10.0


def test_operators_are_linear():
    fam = OperatorFamily(kite(), 8.0, 16)
    rng = np.random.default_rng(8)
    f = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    g = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    alpha, beta = 1.3 - 0.2j, -0.7 + 2.1j
    for op in (fam.v_plain, fam.k_tilde, fam.h_op):
        lhs = op @ (alpha * f + beta * g)
        rhs = alpha * (op @ f) + beta * (op @ g)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs) + 1)


def test_h_via_alternative_maue_route():
    # H = D V D + k^2 V[(x'(s).x'(.)) .] assembled from the plain single
    # layer agrees with the split assembly to discretization accuracy
    curve, k, N = circle(), 2.0, 64
    fam = OperatorFamily(curve, k, N)
    t = grid(N)
    d_mat = diff_matrix(N)
    d1 = curve.d1(t)
    xdx = d1 @ d1.T
    h_alt = d_mat @ fam.v_plain @ d_mat + k * k * (
        fam.v_plain * xdx
    )
    e1 = np.exp(1j * t)
    assert np.max(np.abs(fam.h_op @ e1 - h_alt @ e1)) <= 1e-7


def test_t_operator_carries_h_for_constants(circle_family, data_dir):
    # D Lambda D kills constants, so T must supply all of H e_0
    table = _circle_eig_table(data_dir)
    lam_h = table[0][3]
    e0 = np.ones(128, dtype=complex)
    err = np.max(np.abs(circle_family.t_op @ e0 - lam_h * e0))
    assert err / abs(lam_h) <= 1e-10


def test_maue_coupling_term_in_isolation(circle_family, data_dir):
    # the k^2 (x'(s).x'(t)) A-part of T acting on constants reduces to
    # k^2 V[cos(s - .)], diagonal with the |n| = 1 single-layer eigenvalue
    table = _circle_eig_table(data_dir)
    k, N = 2.0, 64
    t = grid(N)
    lam_v1 = table[1][0]
    d1 = circle().d1(t)
    xdx = d1 @ d1.T
    coupling = k * k * (circle_family.v_plain * xdx)
    e0 = np.ones(2 * N, dtype=complex)
    target = k * k * lam_v1 * e0  # cos(s-t) splits into e_{+-1} halves
    assert np.max(np.abs(coupling @ e0 - target)) <= 1e-10


def test_assembler_functions_and_min_n():
    # every operator is a plain read-only 2N x 2N array, built once
    fam = OperatorFamily(circle(), 2.0, 8)
    for name in ("v_plain", "r_tilde", "v_tilde", "k_plain", "kt_plain", "k_tilde",
                 "kt_tilde", "t_op", "h_op", "lambda_mat", "dld_mat"):
        op = getattr(fam, name)
        assert type(op) is np.ndarray and op.shape == (16, 16), name
        assert not op.flags.writeable, name
        assert getattr(fam, name) is op, name
    with pytest.raises(ValueError):
        OperatorFamily(circle(), 2.0, 4)


@pytest.mark.parametrize("k", [8.0])
def test_one_fused_kernel_pass_per_family(monkeypatch, k):
    # all nine operators evaluate each Bessel function once, on the strict
    # upper triangle, and sample the curve only on the 2N nodes
    bessel_calls = []
    for name in ("bessel_j", "bessel_y", "hankel1", "bessel_j_complex",
                 "hankel1_complex"):
        def counted(order, z, _fn=getattr(specfun, name), _name=name):
            bessel_calls.append((_name, order, np.size(z)))
            return _fn(order, z)
        monkeypatch.setattr(specfun, name, counted)
    curve_points = Counter()
    trig_sum = ParametricCurve._trig_sum

    def counted_sum(self, t, order):
        curve_points[order] += np.size(t)
        return trig_sum(self, t, order)

    curve = kite()  # its construction samples the fine grid, before the count
    monkeypatch.setattr(ParametricCurve, "_trig_sum", counted_sum)
    N = 16
    fam = OperatorFamily(curve, k, N)
    for name in ("v_plain", "r_tilde", "v_tilde", "k_plain", "kt_plain",
                 "k_tilde", "kt_tilde", "t_op", "h_op"):
        getattr(fam, name)
    n = 2 * N
    functions = [(name, order) for name, order, _ in bessel_calls]
    assert len(functions) == len(set(functions)) == 4
    assert {size for _, _, size in bessel_calls} == {n * (n - 1) // 2}
    assert set(curve_points) <= {0, 1, 2}
    assert max(curve_points.values()) <= n


@pytest.mark.parametrize("k", [8.0])
def test_family_operators_match_their_first_assembled_forms(k):
    # K' is K^T, and T takes its grid factors as circulants: both round
    # differently from the forms kept in the oracles, within n eps max|A|
    # (bound fixed before measuring); V and R~ are summed as they always were
    N = 48
    fam = OperatorFamily(kite(), k, N)
    ctx, n = fam.ctx, 2 * N

    def assert_close(got, ref):
        assert np.max(np.abs(got - ref)) <= n * np.finfo(float).eps * np.max(np.abs(ref))

    for family in ("plain", "tilde"):
        k_ref, kt_ref = k_kt_from_factors(ctx, N, family)
        assert_close(getattr(fam, f"k_{family}"), k_ref)
        assert_close(getattr(fam, f"kt_{family}"), kt_ref)
    assert_close(fam.t_op, t_from_pairwise_grid(ctx, N))
    a_mat, b_mat, at_mat = (kernel_matrix(ctx, which, N) for which in ("A", "B", "At"))
    w1, w2 = (conv_matrix(weight_table(m, N)).real for m in (1, 2))
    w0 = np.pi / N
    assert fam.v_plain.tobytes() == (w1 * a_mat + w0 * b_mat).tobytes()
    assert fam.r_tilde.tobytes() == (w2 * at_mat + w0 * b_mat).tobytes()


def test_each_k_prime_is_a_view_of_its_k():
    # K' and K~' hold no memory of their own
    fam = OperatorFamily(kite(), 8.0, 16)
    for k_op, kt_op in ((fam.k_plain, fam.kt_plain), (fam.k_tilde, fam.kt_tilde)):
        assert np.shares_memory(kt_op, k_op)
        assert kt_op.tobytes() == k_op.T.tobytes()


def test_each_k_build_takes_one_double_layer_pass(monkeypatch):
    # K and K~ of one family share one sampling of C and D, from one delta . m
    passes = []
    dm = KernelFactors._dm

    def counted(self):
        passes.append(self)
        return dm(self)

    monkeypatch.setattr(KernelFactors, "_dm", counted)
    fam = OperatorFamily(kite(), 8.0, 16)
    fam.k_plain, fam.kt_plain
    assert len(passes) == 1
    fam.kt_tilde, fam.k_tilde
    assert len(passes) == 1


_KERNEL_OPS = ("v_plain", "r_tilde", "k_plain", "k_tilde", "t_op")


def _count_pass(monkeypatch):
    """Counter of the _symmetric scatters and the real Bessel calls."""
    calls = Counter()
    symmetric = KernelFactors._symmetric

    def counted_symmetric(self, upper):
        calls["_symmetric"] += 1
        return symmetric(self, upper)

    monkeypatch.setattr(KernelFactors, "_symmetric", counted_symmetric)
    for name in ("bessel_j", "bessel_y"):
        def counted(order, z, _fn=getattr(specfun, name), _name=name):
            calls[_name] += 1
            return _fn(order, z)
        monkeypatch.setattr(specfun, name, counted)
    return calls


@pytest.mark.parametrize("name", _KERNEL_OPS)
def test_one_access_runs_the_whole_kernel_pass(monkeypatch, factor_sets, name):
    # each smooth factor is expanded once, from one factor set that no
    # object outlives the pass
    calls = _count_pass(monkeypatch)
    fam = OperatorFamily(kite(), 8.0, 16)
    getattr(fam, name)
    assert set(fam.__dict__["_kernel_ops"]) == set(_KERNEL_OPS)
    assert calls == {"_symmetric": 5, "bessel_j": 2, "bessel_y": 2}
    assert len(factor_sets) == 1 and factor_sets[0]() is None
    for other in _KERNEL_OPS:
        assert getattr(fam, other) is fam._kernel_ops[other]
        assert not getattr(fam, other).flags.writeable
    assert calls == {"_symmetric": 5, "bessel_j": 2, "bessel_y": 2}


def test_a_failed_pass_keeps_no_factor_set_and_the_next_access_rebuilds(
        monkeypatch, factor_sets):
    def broken(factors, N):
        factors.ef()  # the pass has expanded A, B and A~ by now
        raise FloatingPointError("poisoned")

    # the family runs its pass as it is built: a failed construction keeps
    # no factor set, and the next construction rebuilds
    with monkeypatch.context() as patch:
        patch.setattr(operators, "ef_matrices", broken)
        with pytest.raises(FloatingPointError, match="poisoned"):
            OperatorFamily(kite(), 8.0, 16)
    assert len(factor_sets) == 1 and factor_sets[0]() is None
    calls = _count_pass(monkeypatch)
    fam = OperatorFamily(kite(), 8.0, 16)
    rebuilt = [getattr(fam, name) for name in _KERNEL_OPS]
    assert calls == {"_symmetric": 5, "bessel_j": 2, "bessel_y": 2}
    assert len(factor_sets) == 2 and factor_sets[1]() is None
    cold = OperatorFamily(kite(), 8.0, 16)
    for name, op in zip(_KERNEL_OPS, rebuilt):
        assert op.tobytes() == getattr(cold, name).tobytes(), name


@pytest.mark.parametrize("N", [8, 64])
def test_lambda_and_dld_are_real_parts_of_their_circulants(N):
    fam = OperatorFamily(circle(), 2.0, N)
    for got, symbol in ((fam.lambda_mat, lambda_symbol(N)), (fam.dld_mat, dld_symbol(N))):
        assert got.dtype == np.float64
        assert got.tobytes() == circulant_from_symbol(symbol).real.tobytes()
