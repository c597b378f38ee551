"""Modified Bessel functions K1, K2 on the cut complex plane, plus
J1(x)/x.

K_n is evaluated on the cut plane Omega_pi = {z != 0, arg z in (-pi, pi)}
with the principal branch, by scipy's ``kv``: the AMOS routines (D. E.
Amos, ACM TOMS Algorithm 644, 1986).  Arguments at z = 0 or on the
negative real axis raise BesselDomainError instead of returning a value
of either side of the cut.  So do arguments on which ``kv`` returns nan:
AMOS gives up beyond |z| of about 1e9 (``kv(1, 2e9 + 0.1j)`` is nan),
also where K is far from negligible, as at z = 0.1 - 5e9 i.

The public pair is ``bessel_k12``: (K1, K2), what the kernel scalars F
and G need.  Only K0 and K1 are evaluated; K2 comes from the forward
recurrence K2 = K0 + (2/z) K1, which is stable for K, so one K0/K1
evaluation per point gives both.  It is formed with the quotient
K1/(z/2), not a complex product (see chain.invariants_from_radial).
"""

from __future__ import annotations

import numpy as np
from scipy.special import j1 as _scipy_j1
from scipy.special import kv as _scipy_kv


class BesselDomainError(ValueError):
    """Argument outside the domain of validity (z = 0, on the cut, or
    beyond the range where K_n can be computed)."""


def _check_cut_plane(z: np.ndarray) -> None:
    # one test for the closed cut: z = 0 lies on it, and the message is
    # chosen only on the error path
    if ((z.imag == 0) & (z.real <= 0)).any():
        if (z == 0).any():
            raise BesselDomainError("K_n undefined at z = 0")
        raise BesselDomainError("K_n undefined on the negative real axis")


def _k012(z):
    """K0, K1, K2 on the cut plane; z is a checked complex array."""
    k0 = _scipy_kv(0, z)
    k1 = _scipy_kv(1, z)
    k2 = k0 + k1 / (0.5 * z)
    # a nan in K0 or K1 reaches K2, so one test on K2 finds it
    if np.isnan(k2).any():
        bad = np.isnan(k0) | np.isnan(k1)
        if bad.any():
            raise BesselDomainError("K_n not computable at z = %r"
                                    % complex(z[bad][0]))
    return k0, k1, k2


def _cut_plane_array(z):
    zarr = np.asarray(z, dtype=complex)
    scalar = zarr.ndim == 0
    zarr = np.atleast_1d(zarr)
    _check_cut_plane(zarr)
    return zarr, scalar


def bessel_k12(z):
    """The pair (K1(z), K2(z)) on the cut plane Omega_pi."""
    zarr, scalar = _cut_plane_array(z)
    _, k1, k2 = _k012(zarr)
    return (k1[0], k2[0]) if scalar else (k1, k2)


def j1_over_x(x):
    """J1(x)/x with the continuous value 1/2 at x = 0."""
    xarr = np.asarray(x, dtype=float)
    scalar = xarr.ndim == 0
    xarr = np.atleast_1d(xarr)
    if np.any(xarr < 0):
        raise BesselDomainError("J1 restricted to non-negative arguments")
    tiny = xarr < 1e-8
    safe = np.where(tiny, 1.0, xarr)
    out = np.where(tiny, 0.5 - xarr * xarr / 16.0, _scipy_j1(safe) / safe)
    return float(out[0]) if scalar else out
