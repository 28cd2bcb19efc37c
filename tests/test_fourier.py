import numpy as np
import pytest

from helmbie.fourier import (
    TrigPolynomial,
    conv_matrix,
    dld_matrix,
    fft_modes,
    lambda_matrix,
    psi_hat,
    weight_table,
)
from helmbie.geometry import grid

from oracles import brute_dft, brute_weighted_conv, diff_matrix, mp_psi_hat, sobolev_norm


def _basis(N, n):
    delta = np.zeros(2 * N, dtype=complex)
    delta[n % (2 * N)] = 1.0
    return TrigPolynomial.from_coeffs(delta)


# ----------------------------------------------------------------- interpolate


def test_interpolate_basis_function():
    N = 4
    t = grid(N)
    p = TrigPolynomial(np.exp(1j * t))
    assert abs(p.coeff(1) - 1.0) <= 1e-14
    others = [p.coeff(n) for n in range(-N + 1, N + 1) if n != 1]
    assert np.max(np.abs(others)) <= 1e-14


def test_interpolate_constant():
    p = TrigPolynomial(np.full(16, 3.25))
    assert abs(p.coeff(0) - 3.25) <= 1e-14
    assert np.max(np.abs(p.spectral[1:])) <= 1e-14


def test_interpolate_rejects_odd_length():
    with pytest.raises(ValueError):
        TrigPolynomial(np.ones(7))


def test_aliasing_of_above_range_mode():
    N = 8
    t = grid(N)
    samples = np.exp(1j * (N + 1) * t)
    p = TrigPolynomial(samples)
    # nodal match by construction
    assert np.max(np.abs(p.eval(t) - samples)) <= 1e-12
    # spectral mass lands on the aliased frequency (N+1) - 2N = -(N-1)
    brute = brute_dft(samples)
    assert abs(brute[-(N - 1)] - 1.0) <= 1e-13
    assert abs(p.coeff(-(N - 1)) - 1.0) <= 1e-13


def test_projection_is_identity_on_tn():
    rng = np.random.default_rng(0)
    N = 16
    coeffs = rng.standard_normal(2 * N) + 1j * rng.standard_normal(2 * N)
    p = TrigPolynomial.from_coeffs(coeffs)
    again = TrigPolynomial(p.nodal)
    assert np.max(np.abs(again.spectral - coeffs)) <= 1e-12 * np.max(
        np.abs(coeffs)
    )


def test_spectral_nodal_consistency():
    rng = np.random.default_rng(1)
    N = 12
    vals = rng.standard_normal(2 * N) + 1j * rng.standard_normal(2 * N)
    p = TrigPolynomial(vals)
    t = grid(N)
    assert np.max(np.abs(p.eval(t) - vals)) <= 1e-13 * np.max(np.abs(vals))


def test_interpolation_error_decays_geometrically():
    g = lambda t: 1.0 / (2.0 + np.cos(t))
    fine = grid(256)
    ref = g(fine)
    errs = []
    for N in (8, 16, 32):
        p = TrigPolynomial(g(grid(N)))
        diff = p.eval(fine) - ref
        errs.append(np.sqrt(np.sum(np.abs(diff) ** 2) / fine.size))
    assert errs[1] / errs[0] <= 0.5
    assert errs[2] / errs[1] <= 0.5


# -------------------------------------------------------------------- psi_hat


def test_psi_hat_trivial_and_printed_values():
    assert psi_hat(0, 0) == 1.0
    assert psi_hat(0, 3) == 0.0
    assert psi_hat(1, 2) == pytest.approx(-0.5, abs=1e-15)
    for n in range(2, 65):
        target = 0.25 * (1.0 / (n + 1) + 1.0 / (n - 1) - 2.0 / n)
        assert psi_hat(2, n) == pytest.approx(target, abs=1e-15)
        assert psi_hat(2, -n) == psi_hat(2, n)


def test_psi_hat_against_fixture(data_dir):
    table = {}
    for line in (data_dir / "psi_hat_table.txt").read_text().splitlines():
        if line.startswith("#"):
            continue
        m, n, val = line.split()
        table[(int(m), int(n))] = float(val)
    worst = 0.0
    for (m, n), ref in table.items():
        worst = max(worst, abs(psi_hat(m, n) - ref))
    assert worst <= 1e-12


def test_psi_hat_live_quadrature_oracle_small_n():
    # a handful of live mpmath quadratures; the full range is the fixture
    for m, n in [(1, 0), (1, 3), (2, 0), (2, 1), (2, 5)]:
        ref = float(mp_psi_hat(m, n, dps=25))
        assert psi_hat(m, n) == pytest.approx(ref, abs=1e-12)


def test_psi2_relation_to_psi1():
    # psi2 = sin^2(t/2) psi1 translates into a three-term coefficient identity
    for n in range(-64, 65):
        lhs = psi_hat(2, n)
        rhs = 0.5 * psi_hat(1, n) - 0.25 * (psi_hat(1, n - 1) + psi_hat(1, n + 1))
        assert lhs == pytest.approx(rhs, abs=1e-15)


# ------------------------------------------------------- weighted convolution
# s -> int psi_m(s - t) P_N[g](t) dt at the nodes, applied as W g with the
# weight matrix W = conv_matrix(weight_table(m, N)) that every operator uses


def test_weighted_conv_m0_is_trapezoid():
    N = 8
    rng = np.random.default_rng(2)
    g = rng.standard_normal(2 * N) + 1j * rng.standard_normal(2 * N)
    out = conv_matrix(weight_table(0, N)) @ g
    assert np.max(np.abs(out - (np.pi / N) * g.sum())) <= 1e-13


def test_weighted_conv_eigenfunctions():
    N = 16
    t = grid(N)
    out1 = conv_matrix(weight_table(1, N)) @ np.exp(2j * t)
    assert np.max(np.abs(out1 - 2 * np.pi * (-0.5) * np.exp(2j * t))) <= 1e-12
    out2 = conv_matrix(weight_table(2, N)) @ np.ones(2 * N)
    target = 2 * np.pi * (0.5 - np.log(2.0))
    assert np.max(np.abs(out2 - target)) <= 1e-12


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("N", [8, 16, 32])
def test_weighted_conv_against_brute_force(m, N):
    rng = np.random.default_rng(100 * m + N)
    g = rng.standard_normal(2 * N) + 1j * rng.standard_normal(2 * N)
    fast = conv_matrix(weight_table(m, N)) @ g
    slow = brute_weighted_conv(m, g, psi_hat)
    assert np.max(np.abs(fast - slow)) <= 1e-12 * max(1.0, np.max(np.abs(slow)))


# ---------------------------------------------------- diagonal spectral ops


def _eigenvalue(matrix, N, n):
    """Coefficient n of the matrix applied to the basis element e_n."""
    return TrigPolynomial(matrix @ _basis(N, n).nodal).coeff(n)


def test_lambda_rules():
    N = 16
    lam = lambda_matrix(N)
    assert abs(_eigenvalue(lam, N, 0) - np.log(2.0)) <= 1e-15
    assert abs(_eigenvalue(lam, N, 2) - 0.25) <= 1e-15
    assert abs(_eigenvalue(lam, N, -5) - 0.1) <= 1e-15


def test_diff_and_dld_rules():
    N = 16
    assert abs(_eigenvalue(diff_matrix(N), N, 3) - 3j) <= 1e-15
    assert abs(_eigenvalue(dld_matrix(N), N, 3) + 1.5) <= 1e-15
    assert np.max(np.abs(dld_matrix(N) @ _basis(N, 0).nodal)) <= 1e-15


def test_spectral_ops_commute_with_translation():
    rng = np.random.default_rng(9)
    N = 16
    shift = 7  # grid shift by 7 pi/N
    vals = rng.standard_normal(2 * N) + 1j * rng.standard_normal(2 * N)
    for op in (lambda_matrix(N), diff_matrix(N), dld_matrix(N)):
        a = np.roll(op @ vals, shift)
        b = op @ np.roll(vals, shift)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a) + 1)


# --------------------------------------------------------------- sobolev norm


def test_sobolev_norm_values():
    N = 16
    t = grid(N)
    assert sobolev_norm(_basis(N, 0), 3.7) == pytest.approx(1.0, abs=1e-14)
    assert sobolev_norm(_basis(N, 2), 1.0) == pytest.approx(2.0, abs=1e-14)
    p = TrigPolynomial(np.exp(2j * t) + 1.0)
    assert sobolev_norm(p, 0.0) == pytest.approx(np.sqrt(2.0), abs=1e-13)


def test_fft_modes_layout():
    n = fft_modes(4)
    assert list(n) == [0, 1, 2, 3, 4, -3, -2, -1]
