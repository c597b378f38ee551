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
    check_excluded_ray(out)
    return out


def check_excluded_ray(zeta) -> None:
    """Raise where -xi_eps^2 fell on the excluded ray (-inf, 0]."""
    bad = (zeta.real < 0) & (zeta.imag == 0) | (zeta == 0)
    if np.any(bad):
        raise ValueError("-v^2 fell on the excluded ray; eps > 0 violated?")


def slash(v):
    """v_j gamma^j with index lowering by the metric.

    Supports batched input of shape (..., 4); returns (..., 4, 4).
    """
    v = np.asarray(v, dtype=complex)
    return (v[..., 0, None, None] * GAMMA[0]
            - v[..., 1, None, None] * GAMMA[1]
            - v[..., 2, None, None] * GAMMA[2]
            - v[..., 3, None, None] * GAMMA[3])


def signed_map(mat):
    """The product v @ mat for a complex (p, q) matrix whose entries are
    0, +-1 or +-i, as a map of the real parts: index and sign arrays
    (terms, 2 q) such that for u (2 p, ...), the rows 2 a and 2 a + 1 of
    which hold Re v_a and Im v_a of a batch of vectors,

        apply_signed_map(u, index, sign)[c]
            = sum_k sign[k, c] * u[index[k, c]]

    holds the same rows of v @ mat, the terms added in order and padded
    with sign 0.  Every product is exact, so the bits depend on v alone;
    a complex matmul goes through BLAS, and numpy's complex products round
    with the CPU's dispatch."""
    mat = np.asarray(mat, dtype=complex)
    real = np.zeros((2 * mat.shape[0], 2 * mat.shape[1]))
    real[0::2, 0::2] = real[1::2, 1::2] = mat.real
    real[0::2, 1::2] = mat.imag
    real[1::2, 0::2] = -mat.imag
    if not np.all((real == 0.0) | (np.abs(real) == 1.0)):
        raise ValueError("entries must be 0, +-1 or +-i")
    terms = max(int(np.max(np.count_nonzero(real, axis=0))), 1)
    index = np.zeros((terms, real.shape[1]), dtype=int)
    sign = np.zeros((terms, real.shape[1]))
    for c in range(real.shape[1]):
        rows = np.flatnonzero(real[:, c])
        index[:rows.size, c] = rows
        sign[:rows.size, c] = real[rows, c]
    return index, sign


def apply_signed_map(u, index, sign):
    """The rows (2 q, ...) of v @ mat from those of v (2 p, ...); see
    signed_map."""
    sign = sign.reshape(sign.shape + (1,) * (u.ndim - 1))
    out = np.take(u, index[0], axis=0)
    out *= sign[0]
    for idx, sgn in zip(index[1:], sign[1:]):
        out += np.take(u, idx, axis=0) * sgn
    return out


def from_parts(u):
    """Spinors (..., 4) from component-major real parts (8, ...), whose
    rows 2 a and 2 a + 1 hold the real and imaginary parts of component
    a."""
    out = np.empty(u.shape[1:] + (4,), dtype=complex)
    out.view(float)[...] = np.moveaxis(u, 0, -1)
    return out


def spin_product(a, b):
    """Indefinite spin scalar product <a|b>_spin = a^dagger gamma^0 b."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return np.einsum("...i,ij,...j->...", np.conj(a), GAMMA0, b)
