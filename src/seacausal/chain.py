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

from dataclasses import dataclass
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


@dataclass(frozen=True)
class ChainInvariants:
    a: float
    b: float
    lam_plus: complex
    lam_minus: complex


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
    f2 = np.abs(f) ** 2
    g2 = np.abs(g) ** 2
    dot_conj = t * t + e * e - r * r               # xi_eps . conj(xi_eps)
    a = f2 * dot_conj + g2
    b = (2.0 * np.real((f * np.conj(g)) ** 2 * (-zeta))
         + 2.0 * f2 * g2 * dot_conj
         - 4.0 * f2 * f2 * e * e * r * r)
    return a, b


def chain_invariants(x, y, params: RegKernelParams) -> ChainInvariants:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xi = x - y
    t = xi[0]
    r = float(np.linalg.norm(xi[1:]))
    a, b = invariants_from_radial(t, r, 2.0 * params.eps, params.m)
    a = float(a)
    b = float(b)
    root = np.sqrt(complex(b))
    return ChainInvariants(a=a, b=b, lam_plus=a + root, lam_minus=a - root)


def causal_classify(x, y, params: RegKernelParams) -> CausalClass:
    inv = chain_invariants(x, y, params)
    return classify_invariants(inv.a, inv.b)


def class_codes(a, b) -> np.ndarray:
    """CausalClass values ("T", "S" or "L") of the invariants, elementwise."""
    band = np.abs(b) <= LIGHTLIKE_BAND * (a * a + 1.0)
    return np.where(band, CausalClass.Lightlike.value,
                    np.where(b > 0, CausalClass.Timelike.value,
                             CausalClass.Spacelike.value))


def classify_invariants(a, b) -> CausalClass:
    return CausalClass(class_codes(a, b).item())


def lagrangian_of_b(b):
    """L = (|lambda_+| - |lambda_-|)^2 = 4 max(b, 0), elementwise."""
    return 4.0 * np.maximum(b, 0.0)


def lagrangian(x, y, params: RegKernelParams) -> float:
    return float(lagrangian_of_b(chain_invariants(x, y, params).b))
