import numpy as np
import pytest

from helmbie.specfun import (
    DomainError,
    bessel_j,
    bessel_j_complex,
    bessel_y,
    hankel1,
    hankel1_complex,
)

from oracles import cephes_hankel1, mp_bessel_row


def _load_table(data_dir):
    rows = []
    for line in (data_dir / "bessel_table.txt").read_text().splitlines():
        if line.startswith("#"):
            continue
        rows.append([float(v) for v in line.split()])
    return np.array(rows)


def test_trivial_values():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0


def test_j0_at_one():
    # 50-digit series value
    assert bessel_j(0, 1.0) == pytest.approx(0.76519768655796655145, abs=1e-15)


def test_against_fixture_table(data_dir):
    table = _load_table(data_dir)
    z = table[:, 0]
    ref = {"j0": table[:, 1], "j1": table[:, 2], "y0": table[:, 3],
           "y1": table[:, 4]}
    got = {
        "j0": bessel_j(0, z),
        "j1": bessel_j(1, z),
        "y0": bessel_y(0, z),
        "y1": bessel_y(1, z),
    }
    for name, vals in got.items():
        scale = np.maximum(np.abs(ref[name]), 1e-1)  # absolute near zeros
        err = np.max(np.abs(vals - ref[name]) / scale)
        assert err <= 1e-13, f"{name}: {err:.2e}"


def test_hankel_matches_j_plus_iy(data_dir):
    table = _load_table(data_dir)
    z = table[table[:, 0] > 1e-8][:, 0]
    for order in (0, 1):
        h = hankel1(order, z)
        jj = bessel_j(order, z)
        yy = bessel_y(order, z)
        assert np.max(np.abs(h - (jj + 1j * yy))) <= 1e-13 * np.max(np.abs(h))


def test_hankel_log_blowup():
    assert hankel1(0, 1e-6).imag < -8.0


def test_hankel1_at_one_vs_oracle():
    j0, _, y0, _ = mp_bessel_row(1.0)
    got = hankel1(0, 1.0)
    assert abs(got.real - float(j0)) <= 1e-14
    assert abs(got.imag - float(y0)) <= 1e-14


def test_wronskian_identity():
    # J_{v+1}(z) Y_v(z) - J_v(z) Y_{v+1}(z) = 2/(pi z)
    z = np.geomspace(1e-3, 200.0, 100)
    w = bessel_j(1, z) * bessel_y(0, z) - bessel_j(0, z) * bessel_y(1, z)
    target = 2.0 / (np.pi * z)
    assert np.max(np.abs(w - target) / np.abs(target)) <= 1e-12


def test_wronskian_at_two():
    assert bessel_j(1, 2.0) * bessel_y(0, 2.0) - bessel_j(0, 2.0) * bessel_y(
        1, 2.0
    ) == pytest.approx(2.0 / (np.pi * 2.0), abs=1e-13)


def test_derivative_recurrence_by_central_differences():
    # J0' = -J1, checked at second order
    rng = np.random.default_rng(3)
    z = rng.uniform(0.5, 50.0, 40)
    errs = []
    for h in (1e-3, 1e-4):
        fd = (bessel_j(0, z + h) - bessel_j(0, z - h)) / (2 * h)
        errs.append(np.max(np.abs(fd + bessel_j(1, z))))
    assert np.log10(errs[0] / errs[1]) >= 1.9


def test_domain_errors():
    with pytest.raises(DomainError):
        bessel_j(0, -1.0)
    with pytest.raises(DomainError):
        bessel_j(2, 1.0)
    with pytest.raises(DomainError):
        bessel_j(0, np.nan)
    with pytest.raises(DomainError):
        hankel1(0, 0.0)
    with pytest.raises(DomainError):
        hankel1(1, -3.0)
    with pytest.raises(DomainError, match="finite"):
        hankel1(0, np.inf)
    with pytest.raises(DomainError, match="non-finite values"):
        hankel1(1, 1e-310)  # Y1 overflows
    with pytest.raises(DomainError):
        hankel1_complex(0, 1.0 - 0.5j)
    with pytest.raises(DomainError):
        hankel1_complex(0, 0.0)


def test_real_entry_points_reject_complex_input():
    # complex input was cast to its real part with a ComplexWarning
    for fn in (bessel_j, bessel_y, hankel1):
        with pytest.raises(DomainError, match="must be real"):
            fn(0, 1.0 + 1.0j)
        with pytest.raises(DomainError, match="must be real"):
            fn(1, np.array([2.0, 3.0 + 0.5j]))


def test_complex_argument_against_mpmath():
    import mpmath as mp

    rng = np.random.default_rng(5)
    zs = rng.uniform(0.05, 60.0, 25) + 1j * rng.uniform(0.0, 1.0, 25)
    for order in (0, 1):
        got = hankel1_complex(order, zs)
        jg = bessel_j_complex(order, zs)
        for z, g, j_got in zip(zs, got, jg):
            with mp.workdps(35):
                ref = mp.hankel1(order, mp.mpc(z.real, z.imag))
                jref = mp.besselj(order, mp.mpc(z.real, z.imag))
            assert abs(g - complex(ref)) <= 1e-11 * abs(complex(ref))
            assert abs(j_got - complex(jref)) <= 1e-11 * max(
                abs(complex(jref)), 1e-8
            )


def test_complex_zero_is_fine_for_j():
    assert bessel_j_complex(0, 0.0 + 0.0j) == pytest.approx(1.0)


@pytest.mark.parametrize("order", [0, 1])
def test_hankel1_is_cephes_j_plus_iy_bit_for_bit(order):
    z = np.concatenate([np.geomspace(1e-8, 1.0, 500), np.linspace(1.0, 400.0, 4000)])
    z = z.reshape(9, 500)
    got = hankel1(order, z)
    assert got.dtype == np.complex128 and got.shape == (9, 500)
    assert got.tobytes() == cephes_hankel1(order, z).tobytes()
    scalar = hankel1(order, 2.5)
    assert isinstance(scalar, np.complex128)
    assert np.ndim(scalar) == 0
    assert scalar == cephes_hankel1(order, 2.5)
