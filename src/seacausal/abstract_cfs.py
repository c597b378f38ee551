"""Finite-rank self-adjoint operators with bounded signature: the
finite-dimensional operator model underlying the causal structure.

An operator x is admissible when it is Hermitian with at most n positive
and at most n negative eigenvalues.  The module provides what `verify
abstract` checks: the ordered spectrum, signature and regularity tests,
regular perturbations, the generalized inverse, spin kernels and the
chain spectrum, admissibility bounds and the local representation
x = -Psi* Psi.

Kernels and chains live on the spin spaces S_x = x(H), of dimension at
most 2n, not on the ambient space of dimension d.  The spin frame U_x
holds the 2n eigenvectors of x that can carry a nonzero eigenvalue (the
first n and the last n in ascending order), those of zero eigenvalue
zeroed.  P(x, y) = pi_x y|_{S_y} is the 2n x 2n matrix U_x^dag y U_y,
the closed chain P(x, y) P(y, x) is 2n x 2n, and its nonzero spectrum
is that of x y.  An `indefinite_gram` operator -B^dag J B gets its eigen
data from a QR decomposition of its factor B^dag and one 2n x 2n `eigh`.

A `CfsOperator` holds one matrix or a stack of shape (..., d, d).
`ordered_spectrum`, `signature`, `is_regular`, `gen_inverse`,
`spin_kernel`, `closed_chain_spectrum`, `admissibility_bounds`,
`local_representation`, `indefinite_gram` and `random_regular_operator`
work item by item on stacks: a 2-D matrix is the one-item case of the
same code, and gives the same bits as the item of a stack.
`regular_perturbation` takes one matrix.
"""

from __future__ import annotations

import numpy as np

_HERMITIAN_TOL = 1e-12
_EIG_ZERO_TOL = 1e-12        # scaled by (1 + ||matrix||)
_IDENTITY_TOL = 1e-10


class SignatureError(ValueError):
    """More than n eigenvalues of one sign."""


class RegularityError(ValueError):
    """Operation requires a regular operator."""


def _adjoint(a):
    return a.conj().swapaxes(-1, -2)


def _symmetrise(a):
    """Set each matrix of the complex stack a to (a + a^dag) / 2, in
    place, and return a: the bits of 0.5 * (a + a^dag) with one
    temporary instead of three, and a itself when it is Hermitian
    already."""
    a += _adjoint(a)
    a *= 0.5
    return a


def _op_norm(a):
    """Spectral norm of each matrix of a stack: the square root of the
    largest eigenvalue of the smaller Gram matrix, a a^dag or a^dag a."""
    g = a @ _adjoint(a) if a.shape[-2] <= a.shape[-1] else _adjoint(a) @ a
    return np.sqrt(np.maximum(np.linalg.eigvalsh(g)[..., -1], 0.0))


def _unstack(a):
    """A Python scalar for the one-item case, the array for a stack."""
    return a.item() if np.ndim(a) == 0 else a


class CfsOperator:
    """Hermitian matrix, or stack of them, with at most n positive and n
    negative eigenvalues each.  Raises if any item is not finite or not
    Hermitian (ValueError) or exceeds the signature (SignatureError)."""

    def __init__(self, matrix, n: int):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim < 2 or matrix.shape[-2] != matrix.shape[-1]:
            raise ValueError("matrix must be square")
        if n < 1:
            raise ValueError("n must be >= 1")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("matrix not finite")
        self.matrix = _symmetrise(matrix.copy())
        self.n = n
        self.dim = matrix.shape[-1]
        self.eigvals, self.eigvecs = np.linalg.eigh(self.matrix)
        # ||(A + A^dag)/2|| <= ||A||: scaling by the symmetrised matrix's
        # largest |eigenvalue| is never looser than by ||A||, and costs no
        # decomposition beyond the eigh above
        scale = np.maximum(
            np.max(np.abs(self.eigvals), axis=-1, initial=0.0), 1.0)
        asym = np.max(np.abs(matrix - _adjoint(matrix)), axis=(-2, -1))
        if np.any(asym > _HERMITIAN_TOL * scale):
            raise ValueError("matrix not Hermitian")
        self._check_signature()

    def _check_signature(self) -> None:
        """Count the signs of `eigvals`; SignatureError if any item has
        more than n of one sign."""
        n = self.n
        self._count_signs()
        bad = (self._n_neg > n) | (self._n_pos > n)
        if np.any(bad):
            i = np.unravel_index(np.argmax(bad), bad.shape)
            raise SignatureError(
                "signature (%d, %d) exceeds (n, n) = (%d, %d)%s"
                % (self._n_neg[i], self._n_pos[i], n, n,
                   " at stack index %s" % (i,) if i else ""))

    def _count_signs(self) -> None:
        """Zero tolerance and eigenvalue sign counts from `eigvals`."""
        self._zero_tol = _EIG_ZERO_TOL * (
            1.0 + np.max(np.abs(self.eigvals), axis=-1, initial=0.0))
        tol = self._zero_tol[..., None]
        self._n_neg = np.sum(self.eigvals < -tol, axis=-1)
        self._n_pos = np.sum(self.eigvals > tol, axis=-1)

    @classmethod
    def _from_eigen(cls, matrix, n: int, eigvals, eigvecs) -> CfsOperator:
        """The operator of `matrix`, Hermitian as `_symmetrise` leaves it,
        with known eigen data, sorted ascending as `eigh` returns them, so
        no decomposition runs.  Data already ascending, as a stack's items
        are, are kept as given.  SignatureError as from __init__."""
        out = object.__new__(cls)
        out.n, out.dim = n, matrix.shape[-1]
        out.matrix = matrix
        out.eigvals, out.eigvecs = eigvals, eigvecs
        if np.any(eigvals[..., 1:] < eigvals[..., :-1]):
            order = np.argsort(eigvals, axis=-1, kind="stable")
            out.eigvals = np.take_along_axis(eigvals, order, axis=-1)
            out.eigvecs = np.take_along_axis(eigvecs, order[..., None, :],
                                             axis=-1)
        out._check_signature()
        return out

    def __getitem__(self, index) -> CfsOperator:
        """The operators at `index` of the stack dimensions, on the
        stack's symmetrised matrices."""
        stack = self._zero_tol.shape
        items = np.arange(self._zero_tol.size).reshape(stack)[index]

        def pick(a):
            return a.reshape((-1,) + a.shape[len(stack):])[items]

        return CfsOperator._from_eigen(pick(self.matrix), self.n,
                                       pick(self.eigvals), pick(self.eigvecs))

    def norm(self):
        """Largest |eigenvalue|: a float, or an array over the stack."""
        return _unstack(np.max(np.abs(self.eigvals), axis=-1, initial=0.0))


def ordered_spectrum(x: CfsOperator) -> np.ndarray:
    """2n values: the n negative eigenvalues by non-increasing absolute
    value (most negative first), then the n positive ones increasingly;
    missing entries padded with zero.

    `eigh` returns the eigenvalues in ascending order, so the at most n
    negative ones lead the first n entries and the at most n positive
    ones end the last n."""
    n, d = x.n, x.dim
    k = min(n, d)
    tol = x._zero_tol[..., None]
    low, high = x.eigvals[..., :k], x.eigvals[..., d - k:]
    out = np.zeros(x.eigvals.shape[:-1] + (2 * n,))
    out[..., :k] = np.where(low < -tol, low, 0.0)
    out[..., 2 * n - k:] = np.where(high > tol, high, 0.0)
    return out


def signature(x: CfsOperator):
    """(negative, positive) eigenvalue counts: ints, or arrays for a stack."""
    return _unstack(x._n_neg), _unstack(x._n_pos)


def is_regular(x: CfsOperator):
    """Signature exactly (n, n): a bool, or a bool array for a stack."""
    n_neg, n_pos = signature(x)
    return (n_neg == x.n) & (n_pos == x.n)


def regular_perturbation(x: CfsOperator, eps: float,
                         seed: int = 0) -> CfsOperator:
    """Fill the missing signature with eps-scaled rank-one terms on a
    (randomly rotated) orthonormal set in the kernel of x.  The result is
    regular and at distance exactly eps from x (when x is not regular)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if is_regular(x):
        return x
    n_neg, n_pos = signature(x)
    need_neg = x.n - n_neg
    need_pos = x.n - n_pos
    kern = x.eigvecs[:, np.abs(x.eigvals) <= x._zero_tol]
    if kern.shape[1] < need_neg + need_pos:
        raise ValueError("ambient dimension too small for a regular "
                         "perturbation")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(kern.shape[1], kern.shape[1]))
                        + 1j * rng.normal(size=(kern.shape[1],
                                                kern.shape[1])))
    basis = (kern @ q)[:, :need_pos + need_neg]
    weights = np.r_[np.full(need_pos, eps), np.full(need_neg, -eps)]
    return CfsOperator(x.matrix + (basis * weights) @ basis.conj().T, x.n)


def _nonzero(x: CfsOperator) -> np.ndarray:
    return np.abs(x.eigvals) > x._zero_tol[..., None]


def _inverse_eigvals(x: CfsOperator) -> np.ndarray:
    """The eigenvalues of the generalized inverse in x's order: the
    reciprocal nonzero eigenvalues of x, zero on its kernel."""
    nonzero = _nonzero(x)
    return np.where(nonzero, 1.0 / np.where(nonzero, x.eigvals, 1.0), 0.0)


def gen_inverse(x: CfsOperator) -> CfsOperator:
    """Inverse on the range, zero on its orthogonal complement.

    The result reuses x's eigenvectors: its eigenvalues are
    `_inverse_eigvals`, re-sorted ascending as `eigh` would return them,
    so no decomposition runs."""
    inv = _inverse_eigvals(x)
    g = (x.eigvecs * inv[..., None, :]) @ _adjoint(x.eigvecs)
    return CfsOperator._from_eigen(_symmetrise(g), x.n, inv, x.eigvecs)


def _spin_frame(x: CfsOperator):
    """(U_x, lam): x's eigenvectors that can carry a nonzero eigenvalue,
    the first n and the last n of `eigh`'s ascending order (all d when
    d <= 2n), with those of zero eigenvalue zeroed, and their
    eigenvalues (zero where zeroed).  x U_x = U_x diag(lam)."""
    n, d = x.n, x.dim
    cols = np.r_[:n, d - n:d] if d > 2 * n else np.arange(d)
    keep = _nonzero(x)[..., cols]
    return (x.eigvecs[..., cols] * keep[..., None, :],
            x.eigvals[..., cols] * keep)


def spin_kernel(x: CfsOperator, y: CfsOperator) -> np.ndarray:
    """P(x, y) = pi_x y|_{S_y} : S_y -> S_x in the spin frames, the
    2n x 2n matrix U_x^dag y U_y = (U_x^dag U_y) diag(lam_y).  Its norm
    is ||pi_x y||, as y = y pi_y."""
    ux, _ = _spin_frame(x)
    uy, ly = _spin_frame(y)
    return (_adjoint(ux) @ uy) * ly[..., None, :]


def closed_chain_spectrum(chain, n: int) -> np.ndarray:
    """Spectrum of the closed chain A_xy = P(x, y) P(y, x) on S_x, given
    as its 2n x 2n matrix `chain`: 2n entries by decreasing absolute
    value, padded with zeros.  Its nonzero part is the nonzero spectrum
    of x y: AB and BA share their nonzero eigenvalues, and x pi_x = x."""
    ev = np.linalg.eigvals(chain)
    tol = _EIG_ZERO_TOL * (
        1.0 + np.max(np.abs(ev), axis=-1, keepdims=True, initial=0.0))
    # zeroed entries sort last; the stable sort keeps the order of ties
    ev = np.where(np.abs(ev) > tol, ev, 0.0)
    order = np.argsort(-np.abs(ev), axis=-1, kind="stable")
    ev = np.take_along_axis(ev, order, axis=-1)
    out = np.zeros(ev.shape[:-1] + (2 * n,), dtype=complex)
    k = min(ev.shape[-1], 2 * n)
    out[..., :k] = ev[..., :k]
    return out


def admissibility_bounds(x: CfsOperator, y: CfsOperator):
    """(||P(x,y)|| ||P(y,x)||, ||x|| ||g(y)|| ||P(x,y)||), asserting the
    two inequality chains they bound for every item.

    Each spin kernel and the closed chain are formed once, and ||g(y)||
    is read from `_inverse_eigvals(y)`, so no generalized inverse is
    built."""
    pxy = spin_kernel(x, y)
    pyx = spin_kernel(y, x)
    chain = pxy @ pyx
    norm_a = _op_norm(chain)
    npxy = _op_norm(pxy)
    npyx = _op_norm(pyx)
    lam_max = np.max(np.abs(closed_chain_spectrum(chain, x.n)), axis=-1,
                     initial=0.0)
    bound_i = npxy * npyx
    bound_ii = x.norm() * _unstack(np.max(
        np.abs(_inverse_eigvals(y)), axis=-1, initial=0.0)) * npxy
    scale = 1.0 + np.maximum(bound_i, bound_ii)
    if np.any(lam_max > norm_a + 1e-10 * scale) \
            or np.any(norm_a > bound_i + 1e-10 * scale):
        raise AssertionError("spectral/operator-norm chain violated")
    if np.any(npyx > bound_ii + 1e-10 * scale):
        raise AssertionError("kernel-transposition bound violated")
    return bound_i, bound_ii


def local_representation(x: CfsOperator):
    """Psi: ambient -> C^{2n} with x = -Psi* Psi, where the adjoint is
    taken w.r.t. the indefinite product a^dag S b on C^{2n}.  On the spin
    frame (U_x, lam), Psi = diag(sqrt|lam|) U_x^dag and S = -sign lam,
    +1 on the image of the negative subspace.

    Returns (psi, signs) of shapes (..., 2n, dim) and (..., 2n).
    RegularityError if any item is not regular.
    """
    if not np.all(is_regular(x)):
        raise RegularityError("local representation requires regularity")
    u, lam = _spin_frame(x)
    psi = np.sqrt(np.abs(lam))[..., None] * _adjoint(u)
    signs = -np.sign(lam)
    recon = -(_adjoint(psi) * signs[..., None, :]) @ psi
    if np.any(_op_norm(recon - x.matrix)
              > _IDENTITY_TOL * np.maximum(x.norm(), 1.0)):
        raise AssertionError("local representation reconstruction failed")
    return psi, signs


def indefinite_gram(b, n: int) -> CfsOperator:
    """x = -B^dag J B with J = diag(1_n, -1_n), for B of shape
    (..., 2n, dim): signature exactly (n, n) when B has full rank 2n.

    The eigen data come from the factor, with no dim x dim `eigh`: the
    complete QR decomposition B^dag = Q R gives x = Q (-R J R^dag) Q^dag,
    where only the leading k x k block of -R J R^dag, k = min(2n, dim),
    is nonzero.  Its `eigh` W diag(mu) W^dag gives the eigenpairs
    (mu, Q[:, :k] W); the other dim - k eigenvalues are exact zeros with
    eigenvectors Q[:, k:].  All are sorted ascending, as `eigh` returns
    them."""
    j = np.concatenate([np.ones(n), -np.ones(n)])
    b = np.asarray(b, dtype=complex)
    matrix = -(_adjoint(b) * j) @ b
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix not finite")
    _symmetrise(matrix)
    k = min(2 * n, matrix.shape[-1])
    q, r = np.linalg.qr(_adjoint(b), mode="complete")
    rk = r[..., :k, :]
    mu, w = np.linalg.eigh(-(rk * j) @ _adjoint(rk))
    q[..., :k] = q[..., :k] @ w
    # freed before _from_eigen sorts a copy of Q
    del r, rk, w
    vals = np.zeros(q.shape[:-1])
    vals[..., :k] = mu
    return CfsOperator._from_eigen(matrix, n, vals, q)


def _complex_normal(rng, shape, axis):
    """One `rng.normal` draw of `shape`, its `axis` (of length 2) taken
    as real and imaginary parts; the real draw is freed once they are
    combined."""
    re, im = np.moveaxis(rng.normal(size=shape), axis, 0)
    return re + 1j * im


def random_regular_operator(n: int, dim: int, rng,
                            shape: tuple = ()) -> CfsOperator:
    """`indefinite_gram` of a complex Gaussian B, or a stack of `shape`
    of them.  One `rng.normal` call draws the stack; in C order each B
    takes its real part, then its imaginary part, so a stack holds the
    operators that as many one-item calls draw in turn."""
    return indefinite_gram(
        _complex_normal(rng, tuple(shape) + (2, 2 * n, dim), -3), n)
