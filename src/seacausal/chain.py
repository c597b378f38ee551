"""Closed chain, its eigenvalues, causal classification and Lagrangian.

The chain A_xy = P^{2eps}(x,y) P^{2eps}(y,x) has two eigenvalues
lambda_pm = a +- sqrt(b), each with multiplicity two.  b is assembled in
closed Bessel form (avoiding the cancellation of the matrix route, which
is kept as an oracle in the tests).

The chain of two local correlation operators F^{eps1}(x), F^{eps2}(y)
is (2 pi)^2 times the closed chain at regularization (eps1 + eps2)/2:
the mixed chain carries the sum of the regularizations.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import kernel as kernel_mod
from .kernel import RegKernelParams

# |b| below this multiple of (a^2 + 1) counts as the lightlike band
LIGHTLIKE_BAND = 1e-14


class CausalClass(Enum):
    Timelike = "T"
    Spacelike = "S"
    Lightlike = "L"


def closed_chain(x, y, params: RegKernelParams) -> np.ndarray:
    doubled = RegKernelParams(params.m, 2.0 * params.eps)
    pxy = kernel_mod.kernel_p(x, y, doubled).matrix
    pyx = kernel_mod.kernel_p(y, x, doubled).matrix
    return pxy @ pyx


def invariants_from_radial(t, r, eps_chain: float, m: float):
    """(a, b) for displacement (t, r) at chain regularization eps_chain.

    Vectorized over t, r.  a and b are real by construction.
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    e = eps_chain
    f, g, zeta = kernel_mod.kernel_fg_radial(t, r, RegKernelParams(m, e))
    # products in real parts: numpy rounds complex products and powers
    # and np.abs of complex values differently with the CPU's SIMD
    # features and, past its temporary elision threshold of 16 384
    # elements, with the batch size; real products, complex quotients and
    # complex sqrt round the same everywhere, so a point's bits depend on
    # its inputs alone
    fr, fi, gr, gi = f.real, f.imag, g.real, g.imag
    f2 = fr * fr + fi * fi
    g2 = gr * gr + gi * gi
    p = fr * gr + fi * gi                          # f conj(g) = p + i q
    q = fi * gr - fr * gi
    dot_conj = t * t + e * e - r * r               # xi_eps . conj(xi_eps)
    a = f2 * dot_conj + g2
    # Re((f conj(g))^2 (-zeta))
    re_w2z = (q * q - p * p) * zeta.real + 2.0 * p * q * zeta.imag
    b = (2.0 * re_w2z
         + 2.0 * f2 * g2 * dot_conj
         - 4.0 * f2 * f2 * e * e * r * r)
    return a, b


def class_codes(a, b) -> np.ndarray:
    """CausalClass values ("T", "S" or "L") of the invariants, elementwise."""
    band = np.abs(b) <= LIGHTLIKE_BAND * (a * a + 1.0)
    return np.where(band, CausalClass.Lightlike.value,
                    np.where(b > 0, CausalClass.Timelike.value,
                             CausalClass.Spacelike.value))


def lagrangian_of_b(b):
    """L = (|lambda_+| - |lambda_-|)^2 = 4 max(b, 0), elementwise."""
    return 4.0 * np.maximum(b, 0.0)
