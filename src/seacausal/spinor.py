"""Minkowski four-vectors, Dirac gamma algebra and the spin product.

Conventions: metric signature (+,-,-,-); Dirac (standard) representation,
so gamma^0 = diag(1, 1, -1, -1).
"""

from __future__ import annotations

import numpy as np

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

_sig0 = np.array([[0, 1], [1, 0]], dtype=complex)
_sig1 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_sig2 = np.array([[1, 0], [0, -1]], dtype=complex)
_zero2 = np.zeros((2, 2), dtype=complex)
_id2 = np.eye(2, dtype=complex)

GAMMA = np.empty((4, 4, 4), dtype=complex)
GAMMA[0] = np.block([[_id2, _zero2], [_zero2, -_id2]])
for _i, _s in enumerate((_sig0, _sig1, _sig2)):
    GAMMA[_i + 1] = np.block([[_zero2, _s], [-_s, _zero2]])

GAMMA0 = GAMMA[0]
IDENTITY4 = np.eye(4, dtype=complex)


def complexify(xi, eps: float):
    """xi_eps = (xi^0 + i*eps, xi_vec)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    xi = np.asarray(xi, dtype=float)
    out = xi.astype(complex)
    out[..., 0] = out[..., 0] + 1j * eps
    return out


def neg_minkowski_square(v):
    """-v.v for a (complexified) four-vector; lands in the cut plane for
    vectors produced by complexify."""
    v = np.asarray(v)
    sq = v[..., 0] ** 2 - v[..., 1] ** 2 - v[..., 2] ** 2 - v[..., 3] ** 2
    out = -sq
    bad = (out.real < 0) & (out.imag == 0) | (out == 0)
    if np.any(bad):
        raise ValueError("-v^2 fell on the excluded ray; eps > 0 violated?")
    return out


def slash(v):
    """v_j gamma^j with index lowering by the metric.

    Supports batched input of shape (..., 4); returns (..., 4, 4).
    """
    v = np.asarray(v, dtype=complex)
    return (v[..., 0, None, None] * GAMMA[0]
            - v[..., 1, None, None] * GAMMA[1]
            - v[..., 2, None, None] * GAMMA[2]
            - v[..., 3, None, None] * GAMMA[3])


def spin_product(a, b):
    """Indefinite spin scalar product <a|b>_spin = a^dagger gamma^0 b."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return np.einsum("...i,ij,...j->...", np.conj(a), GAMMA0, b)
