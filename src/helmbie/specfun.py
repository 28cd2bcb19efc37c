"""Bessel and Hankel function evaluations used by the kernels.

Orders 0 and 1 only.  The kernels take real arguments (J on z >= 0, H on
z > 0).  The complex-argument entry points (Im z >= 0) are used by no
operator: the regularizer of l3 is a Fourier multiplier and calls no Bessel
function.  They stay, with their accuracy tests, because perfbench/spans.py
wraps both by name.  Evaluation is delegated to scipy.special (Cephes for
real arguments, so a real Hankel value is J + iY; AMOS for complex); this
module pins the domain checks and the accuracy contract, which the test
suite verifies against a 25-digit mpmath table:

    J0, J1 : relative error <= 1e-14 on [0, 200] (absolute 1e-15 near zeros)
    H0, H1 : relative error <= 1e-13 on (1e-8, 200]
    complex argument (|Im z| <= O(10)): relative error <= 1e-11

The z -> 0 logarithmic blow-up of Y0 is never evaluated numerically by the
kernel code; diagonal limits are handled analytically upstream.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

__all__ = [
    "DomainError",
    "bessel_j",
    "bessel_y",
    "hankel1",
    "bessel_j_complex",
    "hankel1_complex",
]


class DomainError(ValueError):
    """Argument outside the supported domain of a special function."""


def _check_real(z, positive: bool):
    if np.iscomplexobj(z):
        raise DomainError("argument must be real; use the complex entry points")
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise DomainError("argument must be finite")
    if positive:
        if np.any(z <= 0.0):
            raise DomainError("argument must be > 0")
    elif np.any(z < 0.0):
        raise DomainError("argument must be >= 0")
    return z


def _check_order(order: int):
    if order not in (0, 1):
        raise DomainError("only orders 0 and 1 are supported")


_J = (_sp.j0, _sp.j1)
_Y = (_sp.y0, _sp.y1)


def bessel_j(order: int, z):
    """J_0(z) or J_1(z) for real z >= 0."""
    _check_order(order)
    return _J[order](_check_real(z, positive=False))


def bessel_y(order: int, z):
    """Y_0(z) or Y_1(z) for real z > 0."""
    _check_order(order)
    return _Y[order](_check_real(z, positive=True))


def hankel1(order: int, z):
    """H^(1)_order(z) = J(z) + i Y(z) for real z > 0."""
    _check_order(order)
    z = _check_real(z, positive=True)
    out = np.empty(z.shape, dtype=complex)
    _J[order](z, out=out.real)
    _Y[order](z, out=out.imag)
    if not np.all(np.isfinite(out)):
        raise DomainError("Hankel evaluation produced non-finite values")
    return out if out.ndim else out[()]


def _check_complex(z, allow_zero: bool):
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise DomainError("argument must be finite")
    if not allow_zero and np.any(z == 0.0):
        raise DomainError("argument must be nonzero")
    if np.any(z.imag < 0.0):
        raise DomainError("complex arguments need nonnegative imaginary part")
    return z


# no operator calls the two complex entry points; perfbench/spans.py wraps them
def bessel_j_complex(order: int, z):
    """J_order(z) for complex z with Im z >= 0 (entire, so z = 0 is fine)."""
    _check_order(order)
    return _sp.jv(order, _check_complex(z, allow_zero=True))


def hankel1_complex(order: int, z):
    """H^(1)_order(z) for complex z != 0 with Im z >= 0."""
    _check_order(order)
    out = _sp.hankel1(order, _check_complex(z, allow_zero=False))
    if not np.all(np.isfinite(out)):
        raise DomainError("Hankel evaluation produced non-finite values")
    return out
