"""Finite-rank operators with bounded signature: spectra, generalized
inverse, spin kernels, admissibility bounds and the local
representation."""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from seacausal import verify
from seacausal.abstract_cfs import (_HERMITIAN_TOL, CfsOperator,
                                    RegularityError, SignatureError,
                                    _adjoint, _op_norm, _symmetrise,
                                    admissibility_bounds,
                                    closed_chain_spectrum, gen_inverse,
                                    indefinite_gram, is_regular,
                                    local_representation, ordered_spectrum,
                                    random_regular_operator,
                                    regular_perturbation, signature,
                                    spin_kernel)

SPECTRUM_TOL = 1e-10


def multiset_close(a, b, tol):
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    assert a.size == b.size
    cost = np.abs(a[:, None] - b[None, :])
    ri, ci = linear_sum_assignment(cost)
    return float(cost[ri, ci].max()) <= tol


def ambient_projection(x):
    """pi_x, the orthogonal projection onto the range of x, from its
    eigenvectors of nonzero eigenvalue."""
    keep = np.abs(x.eigvals) > x._zero_tol[..., None]
    vecs = x.eigvecs * keep[..., None, :]
    return vecs @ vecs.conj().swapaxes(-1, -2)


def ambient_chain(x, y):
    """The nonzero spectrum of the ambient product x y, by decreasing
    absolute value and padded to 2n entries, for one pair."""
    ev = np.linalg.eigvals(x.matrix @ y.matrix)
    ev = ev[np.argsort(-np.abs(ev), kind="stable")][:2 * x.n]
    ev[np.abs(ev) <= 1e-10 * (1.0 + np.max(np.abs(ev)))] = 0.0
    out = np.zeros(2 * x.n, dtype=complex)
    out[:ev.size] = ev
    return out


def chain_spectrum(x, y):
    """The closed chain's spectrum of the pair (x, y)."""
    return closed_chain_spectrum(spin_kernel(x, y) @ spin_kernel(y, x), x.n)


def chain_lagrangian(x, y):
    """L = (1/4n) sum_{i,j} (|lam_i| - |lam_j|)^2 over the 2n-padded chain
    spectrum of x y."""
    lam = np.abs(chain_spectrum(x, y))
    return float(np.sum((lam[:, None] - lam[None, :]) ** 2) / (2.0 * lam.size))


class TestConstruction:
    def test_accepts_balanced_signature(self):
        CfsOperator(np.diag([1.0, -1.0, 0.0, 0.0]), 1)

    def test_rejects_excess_positive(self):
        with pytest.raises(SignatureError):
            CfsOperator(np.diag([1.0, 2.0, -1.0, 0.0]), 1)

    def test_accepts_zero(self):
        op = CfsOperator(np.zeros((4, 4)), 2)
        assert op.norm() == 0.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            CfsOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)


class TestOrderedSpectrum:
    def test_example(self):
        out = ordered_spectrum(CfsOperator(np.diag([3.0, -1.0]), 1))
        assert np.allclose(out, [-1.0, 3.0])

    def test_padding(self):
        out = ordered_spectrum(CfsOperator(np.diag([2.0, 0.0, 0.0, 0.0]), 2))
        assert np.allclose(out, [0.0, 0.0, 0.0, 2.0])

    def test_lipschitz_equality_case(self):
        a = ordered_spectrum(CfsOperator(np.diag([2.0, -1.0]), 1))
        b = ordered_spectrum(CfsOperator(np.diag([3.0, -1.0]), 1))
        assert np.max(np.abs(a - b)) == pytest.approx(1.0)

    def test_lipschitz_random_pairs(self):
        rng = np.random.default_rng(51)
        for _ in range(300):
            x = random_regular_operator(2, 6, rng)
            d = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            d = 0.05 * (d + d.conj().T)
            try:
                y = CfsOperator(x.matrix + d, 2)
            except SignatureError:
                continue
            gap = np.max(np.abs(ordered_spectrum(x) - ordered_spectrum(y)))
            assert gap <= np.linalg.norm(d, 2) + 1e-12


class TestSignatureAndPerturbation:
    def test_signature_examples(self):
        assert signature(CfsOperator(np.diag([1.0, -1.0]), 1)) == (1, 1)
        assert is_regular(CfsOperator(np.diag([1.0, -1.0]), 1))
        assert signature(CfsOperator(np.diag([1.0, 0.0]), 1)) == (0, 1)
        assert not is_regular(CfsOperator(np.diag([1.0, 0.0]), 1))

    def test_perturbation_from_zero(self):
        x = CfsOperator(np.zeros((4, 4)), 1)
        y = regular_perturbation(x, 0.5, seed=3)
        assert is_regular(y)
        assert multiset_close(np.sort(y.eigvals), [-0.5, 0.0, 0.0, 0.5],
                              1e-12)
        assert np.linalg.norm(y.matrix - x.matrix, 2) == pytest.approx(0.5)

    def test_regular_input_unchanged(self):
        x = CfsOperator(np.diag([1.0, -1.0]), 1)
        assert regular_perturbation(x, 0.1) is x

    def test_distance_exactly_eps(self):
        x = CfsOperator(np.diag([2.0, 0.0, 0.0, 0.0]), 2)
        for eps in (0.3, 0.01):
            y = regular_perturbation(x, eps, seed=1)
            assert is_regular(y)
            assert np.linalg.norm(y.matrix - x.matrix, 2) \
                == pytest.approx(eps, rel=1e-10)

    def test_too_small_ambient_space(self):
        x = CfsOperator(np.diag([1.0, 1.0, -1.0, -1.0]), 3)
        with pytest.raises(ValueError):
            regular_perturbation(x, 0.1)


class TestGenInverse:
    def test_examples(self):
        assert gen_inverse(CfsOperator(np.zeros((2, 2)), 1)).norm() == 0.0
        g = gen_inverse(CfsOperator(np.diag([2.0, -0.5, 0.0, 0.0]), 1))
        assert np.allclose(g.matrix, np.diag([0.5, -2.0, 0.0, 0.0]))

    def test_projector_identities(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            x = random_regular_operator(2, 6, rng)
            g = gen_inverse(x)
            pi = ambient_projection(x)
            assert np.allclose(g.matrix @ x.matrix, pi, atol=1e-10)
            assert np.allclose(x.matrix @ g.matrix, pi, atol=1e-10)

    def test_discontinuity_witness(self):
        # regular perturbations of a rank-deficient point have generalized
        # inverses of norm exactly 1/eps
        x = CfsOperator(np.diag([1.0, -1.0, 0.0, 0.0, 0.0, 0.0]), 2)
        for eps in (0.1, 0.01, 1e-4):
            y = regular_perturbation(x, eps, seed=7)
            assert gen_inverse(y).norm() == pytest.approx(1.0 / eps,
                                                          rel=1e-10)

    def test_local_lipschitz_bound(self):
        # rank-preserving perturbations y = -(B+E)^dag J (B+E) of
        # x = -B^dag J B; a full-rank Hermitian delta would leave the
        # signature and check nothing
        rng = np.random.default_rng(53)
        checked = 0
        for _ in range(200):
            b = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
            e = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
            x = indefinite_gram(b, 2)
            gx = gen_inverse(x)
            # ||delta|| <= 2 ||B|| ||E|| + ||E||^2 <= radius
            radius = rng.uniform(0.0, 1.0) / (4.0 * gx.norm())
            nb = np.linalg.norm(b, 2)
            e *= radius / (nb + np.sqrt(nb * nb + radius)) \
                / np.linalg.norm(e, 2)
            y = indefinite_gram(b + e, 2)
            if not is_regular(y):
                continue
            d = y.matrix - x.matrix
            assert np.linalg.norm(d, 2) <= radius * (1.0 + 1e-12)
            gap = np.linalg.norm(gen_inverse(y).matrix - gx.matrix, 2)
            assert gap <= 6.0 * gx.norm() ** 2 * np.linalg.norm(d, 2) + 1e-12
            checked += 1
        assert checked == 200


class TestKernelChainLagrangian:
    def test_kernel_of_zero(self):
        rng = np.random.default_rng(54)
        y = random_regular_operator(2, 6, rng)
        zero = CfsOperator(np.zeros((6, 6)), 2)
        assert np.max(np.abs(spin_kernel(zero, y))) == 0.0

    def test_chain_spectrum_matches_product(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            x = random_regular_operator(2, 6, rng)
            y = random_regular_operator(2, 6, rng)
            # the chain P(x, y) P(y, x), whose nonzero spectrum is x y's
            direct = np.linalg.eigvals(spin_kernel(x, y) @ spin_kernel(y, x))
            scale = 1.0 + np.max(np.abs(direct))
            direct = direct[np.abs(direct) > 1e-10 * scale]
            padded = np.zeros(4, dtype=complex)
            padded[:direct.size] = direct
            assert multiset_close(chain_spectrum(x, y),
                                  padded, SPECTRUM_TOL * scale)

    @pytest.mark.parametrize("dim", [3, 4, 6, 8])
    def test_chain_spectrum_matches_ambient_product(self, dim):
        # the 2n x 2n chain on the spin spaces against the d x d product
        stack = random_regular_operator(2, dim, np.random.default_rng(dim),
                                        (40, 2))
        lam = chain_spectrum(stack[:, 0], stack[:, 1])
        for i in range(40):
            x, y = stack[i, 0], stack[i, 1]
            scale = 1.0 + np.max(np.abs(lam[i]))
            assert multiset_close(lam[i], ambient_chain(x, y),
                                  SPECTRUM_TOL * scale)

    def test_lagrangian_examples(self):
        x = CfsOperator(np.diag([np.sqrt(2.0), -np.sqrt(2.0)]), 1)
        assert np.allclose(chain_spectrum(x, x), [2.0, 2.0])
        assert chain_lagrangian(x, x) == pytest.approx(0.0, abs=1e-12)
        x = CfsOperator(np.diag([2.0, 0.0]), 1)
        ident = CfsOperator(np.diag([1.0, -1.0]), 1)
        # spectrum of x.ident is {2, 0}: L = (1/4)((2-0)^2 + (0-2)^2) = 2
        assert np.allclose(chain_spectrum(x, ident), [2.0, 0.0])
        assert chain_lagrangian(x, ident) == pytest.approx(2.0)

    def test_lagrangian_symmetric_and_nonnegative(self):
        # x y and y x share their nonzero spectrum, so the Lagrangian read
        # from it is symmetric
        rng = np.random.default_rng(56)
        for _ in range(30):
            x = random_regular_operator(2, 6, rng)
            y = random_regular_operator(2, 6, rng)
            lxy, lyx = chain_spectrum(x, y), chain_spectrum(y, x)
            scale = 1.0 + np.max(np.abs(lxy))
            assert multiset_close(lxy, lyx, SPECTRUM_TOL * scale)
            lx = chain_lagrangian(x, y)
            assert lx >= 0.0
            assert lx == pytest.approx(chain_lagrangian(y, x), rel=1e-8)

    def test_trichotomy(self):
        # the chain spectra of the three causal classes: S has all |lam|
        # equal, T all lam real with unequal |lam|, L neither
        ident = CfsOperator(np.diag([1.0, -1.0]), 1)
        lam = chain_spectrum(CfsOperator(np.diag([2.0, -2.0]), 1), ident)
        assert np.ptp(np.abs(lam)) <= 1e-12
        lam = chain_spectrum(CfsOperator(np.diag([2.0, -1.0]), 1), ident)
        assert np.ptp(np.abs(lam)) > 0.5
        assert np.max(np.abs(lam.imag)) <= 1e-12
        # product spectrum {i, -i, 3, 0}: complex entries with unequal
        # absolute values
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = CfsOperator(np.diag([1.0, -1.0, 3.0, 0.0]), 2)
        y_mat = np.zeros((4, 4))
        y_mat[:2, :2] = swap
        y_mat[2, 2] = 1.0
        lam = chain_spectrum(x, CfsOperator(y_mat, 2))
        assert multiset_close(lam, [3.0, 1j, -1j, 0.0], 1e-12)
        assert np.ptp(np.abs(lam)) > 0.5
        assert np.max(np.abs(lam.imag)) > 0.5

    def test_trichotomy_matches_ambient_product(self):
        ident = CfsOperator(np.diag([1.0, -1.0]), 1)
        y_mat = np.zeros((4, 4))
        y_mat[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]
        y_mat[2, 2] = 1.0
        for x, y in ((CfsOperator(np.diag([2.0, -2.0]), 1), ident),
                     (CfsOperator(np.diag([2.0, -1.0]), 1), ident),
                     (CfsOperator(np.diag([1.0, -1.0, 3.0, 0.0]), 2),
                      CfsOperator(y_mat, 2))):
            assert multiset_close(chain_spectrum(x, y), ambient_chain(x, y),
                                  1e-12)


class TestFramesAndRepresentation:
    """local_representation on the spin frame: the rows of Psi are the
    frame vectors scaled by sqrt|lam|, and S = -sign lam."""

    def test_frame_example(self):
        psi, signs = local_representation(
            CfsOperator(np.diag([1.0, -1.0]), 1))
        # rows are the standard basis vectors up to phase and order
        assert np.allclose(np.sort(np.abs(psi), axis=0),
                           [[0.0, 0.0], [1.0, 1.0]])
        # +1 on the negative eigenvalue, which eigh puts first
        assert signs.tolist() == [1.0, -1.0]

    def test_frame_orthonormality(self):
        x = random_regular_operator(2, 6, np.random.default_rng(57), (30,))
        psi, signs = local_representation(x)
        lam = x.eigvals[:, [0, 1, 4, 5]]
        # rows orthogonal with squared norms |lam|: Psi Psi^dag = diag|lam|
        gram = psi @ psi.conj().swapaxes(-1, -2)
        assert np.allclose(gram, np.abs(lam)[:, :, None] * np.eye(4),
                           atol=1e-12)
        assert np.array_equal(signs, -np.sign(lam))
        assert np.all(signs[:, :2] == 1.0) and np.all(signs[:, 2:] == -1.0)

    def test_frame_requires_regular(self):
        # one item of a stack with signature (1, 2) spoils the stack
        mats = random_regular_operator(
            2, 6, np.random.default_rng(57), (5,)).matrix.copy()
        mats[3] = np.diag([1.0, 2.0, -1.0, 0.0, 0.0, 0.0])
        with pytest.raises(RegularityError):
            local_representation(CfsOperator(mats, 2))

    def test_local_representation(self):
        rng = np.random.default_rng(58)
        for _ in range(30):
            x = random_regular_operator(2, 8, rng)
            psi, signs = local_representation(x)
            recon = -(psi.conj().T * signs) @ psi
            assert np.linalg.norm(recon - x.matrix, 2) \
                <= 1e-10 * max(x.norm(), 1.0)
            assert np.linalg.matrix_rank(psi) == 4

    def test_local_representation_two_dim(self):
        x = CfsOperator(np.diag([-0.7, 1.3]), 1)
        psi, signs = local_representation(x)
        recon = -(psi.conj().T * signs) @ psi
        assert np.allclose(recon, x.matrix, atol=1e-12)

    def test_local_representation_requires_regular(self):
        with pytest.raises(RegularityError):
            local_representation(CfsOperator(np.diag([1.0, 0.0]), 1))


class TestBoundsAndMatching:
    def test_admissibility_trivial_cases(self):
        ident = CfsOperator(np.diag([1.0, -1.0]), 1)
        b1, b2 = admissibility_bounds(ident, ident)
        assert b1 == pytest.approx(1.0)
        zero = CfsOperator(np.zeros((2, 2)), 1)
        b1, b2 = admissibility_bounds(ident, zero)
        assert b1 == 0.0 and b2 == 0.0

    def test_admissibility_random_pairs(self):
        rng = np.random.default_rng(59)
        for _ in range(200):
            x = random_regular_operator(2, 6, rng)
            y = random_regular_operator(2, 6, rng)
            admissibility_bounds(x, y)  # raises on violation

    def test_admissibility_matches_ambient_norms(self):
        # ||P(x, y)|| on the spin spaces is the ambient ||pi_x y||
        stack = random_regular_operator(2, 8, np.random.default_rng(60),
                                        (200, 2))
        x, y = stack[:, 0], stack[:, 1]
        npxy = np.linalg.norm(ambient_projection(x) @ y.matrix, 2,
                              axis=(-2, -1))
        npyx = np.linalg.norm(ambient_projection(y) @ x.matrix, 2,
                              axis=(-2, -1))
        bound_i, bound_ii = admissibility_bounds(x, y)
        np.testing.assert_allclose(bound_i, npxy * npyx, rtol=1e-12)
        np.testing.assert_allclose(
            bound_ii, x.norm() * gen_inverse(y).norm() * npxy, rtol=1e-12)
        # ||g(y)||, read from y's eigenvalues, is bitwise the norm of the
        # built inverse
        assert np.array_equal(bound_ii, x.norm() * gen_inverse(y).norm()
                              * _op_norm(spin_kernel(x, y)))
        np.testing.assert_allclose(
            np.linalg.norm(spin_kernel(x, y), 2, axis=(-2, -1)), npxy,
            rtol=1e-12)


class TestIndefiniteGram:
    """indefinite_gram's eigen data, from the QR decomposition of its
    factor, against eigh of its matrix."""

    @staticmethod
    def factors():
        rng = np.random.default_rng(64)
        for dim in (3, 4, 6, 8):
            g = rng.normal(size=(2, 20, 4, dim))
            yield g[0] + 1j * g[1]
        # two equal rows in the +1 block of J: rank 3, signature (1, 2)
        g = rng.normal(size=(2, 20, 4, 8))
        b = g[0] + 1j * g[1]
        b[:, 1] = b[:, 0]
        yield b

    def test_matches_eigh(self):
        for b in self.factors():
            x = indefinite_gram(b, 2)
            ref = CfsOperator(x.matrix, 2)
            scale = 1e-12 * (1.0 + x.norm())
            assert np.all(np.max(np.abs(x.eigvals - ref.eigvals), axis=-1)
                          <= scale)
            assert np.array_equal(signature(x), signature(ref))
            vecs = x.eigvecs
            eye = np.eye(x.dim)
            unitary = np.abs(vecs.conj().swapaxes(-1, -2) @ vecs - eye)
            assert np.all(np.max(unitary, axis=(-2, -1)) <= 1e-12)
            resid = np.abs(x.matrix @ vecs - vecs * x.eigvals[..., None, :])
            assert np.all(np.max(resid, axis=(-2, -1)) <= scale)

    def test_signatures(self):
        sigs = [signature(indefinite_gram(b, 2)) for b in self.factors()]
        # full rank min(4, dim): (n, n) whenever dim >= 2n
        assert [np.unique(neg).tolist() for neg, _ in sigs] \
            == [[1, 2], [2], [2], [2], [1]]
        assert [np.unique(pos).tolist() for _, pos in sigs] \
            == [[1, 2], [2], [2], [2], [2]]

    def test_not_finite(self):
        b = np.ones((4, 6))
        b[1, 2] = np.nan
        with pytest.raises(ValueError):
            indefinite_gram(b, 2)


class TestStacks:
    """A stack gives bitwise the arrays of per-matrix calls."""

    @staticmethod
    def pairs(count=40, dim=6):
        stack = random_regular_operator(2, dim, np.random.default_rng(62),
                                        (count, 2))
        rng = np.random.default_rng(62)
        single = [[random_regular_operator(2, dim, rng) for _ in range(2)]
                  for _ in range(count)]
        return stack, single

    def test_draw_and_eigen_data(self):
        stack, single = self.pairs()
        for name in ("matrix", "eigvals", "eigvecs"):
            ref = np.array([[getattr(op, name) for op in pair]
                            for pair in single])
            assert np.array_equal(getattr(stack, name), ref)
        assert np.array_equal(stack.norm(),
                              [[op.norm() for op in pair] for pair in single])
        assert np.all(is_regular(stack))
        assert signature(stack[3, 1]) == (2, 2)
        assert isinstance(stack[3, 1].norm(), float)
        assert np.array_equal(stack[:, 1].eigvals,
                              [pair[1].eigvals for pair in single])

    def test_spectral_functions(self):
        stack, single = self.pairs()
        x, y = stack[:, 0], stack[:, 1]
        assert np.array_equal(
            ordered_spectrum(stack),
            [[ordered_spectrum(op) for op in pair] for pair in single])
        assert np.array_equal(
            gen_inverse(stack).matrix,
            [[gen_inverse(op).matrix for op in pair] for pair in single])
        assert np.array_equal(chain_spectrum(x, y),
                              [chain_spectrum(*pair) for pair in single])
        assert np.array_equal(spin_kernel(x, y),
                              [spin_kernel(*pair) for pair in single])
        assert np.array_equal(np.stack(admissibility_bounds(x, y), axis=-1),
                              [admissibility_bounds(*pair)
                               for pair in single])
        psi, signs = local_representation(stack)
        items = [[local_representation(op) for op in pair] for pair in single]
        assert np.array_equal(psi, [[p for p, _ in pair] for pair in items])
        assert np.array_equal(signs, [[s for _, s in pair] for pair in items])

    def test_indefinite_gram_items(self):
        # every dim, and rank-deficient factors
        for b in TestIndefiniteGram.factors():
            x = indefinite_gram(b, 2)
            for name in ("matrix", "eigvals", "eigvecs"):
                ref = [getattr(indefinite_gram(item, 2), name) for item in b]
                assert np.array_equal(getattr(x, name), ref)

    def test_indexed_items_keep_the_stack_fields(self):
        # a stack's eigen data are ascending, so an item takes them as they
        # are: every field of stack[index] is bitwise the stack's at index
        stack, _ = self.pairs(count=5)
        for index in (2, (2, 1), slice(1, 4), (slice(None), 0),
                      np.array([3, 0, 3])):
            item = stack[index]
            for name in ("matrix", "eigvals", "eigvecs", "_zero_tol",
                         "_n_neg", "_n_pos"):
                got, want = getattr(item, name), getattr(stack, name)[index]
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (index, name)
            assert (item.n, item.dim) == (stack.n, stack.dim)

    def test_symmetrise_is_the_half_sum(self):
        # in place, the bits of 0.5 (a + a^dag); on a matrix it has left
        # Hermitian it returns that matrix unchanged, so sub-stacks and
        # _from_eigen may take a symmetrised matrix as it is
        g = np.random.default_rng(65).normal(size=(2, 50, 8, 8))
        a = g[0] + 1j * g[1]
        want = 0.5 * (a + _adjoint(a))
        got = _symmetrise(a.copy())
        assert got.tobytes() == want.tobytes()
        assert (0.5 * (got + _adjoint(got))).tobytes() == got.tobytes()

    def test_bad_item_raises(self):
        stack, _ = self.pairs(count=5, dim=4)
        mats = stack.matrix.copy()
        mats[2, 1] = np.diag([1.0, 2.0, 3.0, -1.0])
        with pytest.raises(SignatureError):
            CfsOperator(mats, 2)
        mats[2, 1] = np.triu(np.ones((4, 4)))
        with pytest.raises(ValueError) as err:
            CfsOperator(mats, 2)
        assert not isinstance(err.value, SignatureError)


def _skewed(h, factor):
    """h plus an anti-Hermitian part whose |m - m^dag| peaks at
    factor * _HERMITIAN_TOL * max(||h||, 1)."""
    scale = max(np.linalg.norm(h, 2), 1.0)
    skew = np.zeros_like(h)
    skew[0, 1], skew[1, 0] = 1.0, -1.0
    return h + 0.5 * factor * _HERMITIAN_TOL * scale * skew


class TestHermitianCheck:
    """The tolerance scales with the symmetrised item's norm, floored
    at 1."""

    @pytest.mark.parametrize("size", [1.0, 1e-3])
    def test_one_matrix(self, size):
        h = size * random_regular_operator(
            2, 6, np.random.default_rng(63)).matrix
        # above 1 the scale is ||h||, below it the floor 1
        assert (np.linalg.norm(h, 2) > 1.0) == (size == 1.0)
        CfsOperator(_skewed(h, 0.5), 2)
        with pytest.raises(ValueError) as err:
            CfsOperator(_skewed(h, 2.0), 2)
        assert not isinstance(err.value, SignatureError)

    def test_stack_item(self):
        stack, _ = TestStacks.pairs(count=5)
        mats = stack.matrix.copy()
        # the smallest item, so a stack-wide scale would hide it
        i = np.unravel_index(np.argmin(stack.norm()), stack.norm().shape)
        mats[i] = _skewed(mats[i], 0.5)
        CfsOperator(mats, 2)
        mats[i] = _skewed(stack.matrix[i], 2.0)
        with pytest.raises(ValueError) as err:
            CfsOperator(mats, 2)
        assert not isinstance(err.value, SignatureError)

    def test_not_finite(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                CfsOperator(np.diag([1.0, bad]), 1)


class TestGenInverseEigenData:
    """gen_inverse reuses its argument's eigenvectors; its eigen data
    must be what eigh of its matrix would give."""

    @staticmethod
    def cases():
        stack, _ = TestStacks.pairs()
        zero = CfsOperator(np.zeros((6, 6)), 2)
        yield stack
        yield zero
        yield CfsOperator(np.zeros((4, 4)), 1)
        for eps in (0.5, 1e-4):
            yield regular_perturbation(zero, eps, seed=4)
        yield regular_perturbation(
            CfsOperator(np.diag([2.0, 0.0, 0.0, -0.5, 0.0]), 2), 0.1,
            seed=5)

    def test_matches_eigh(self):
        for x in self.cases():
            g = gen_inverse(x)
            assert np.array_equal(g.matrix, g.matrix.conj().swapaxes(-1, -2))
            assert np.all(np.diff(g.eigvals, axis=-1) >= 0.0)
            tol = 1e-12 * (1.0 + np.linalg.norm(g.matrix, 2, axis=(-2, -1)))
            ref = np.linalg.eigh(g.matrix)[0]
            assert np.all(np.max(np.abs(g.eigvals - ref), axis=-1) <= tol)
            vecs = g.eigvecs
            diag = vecs.conj().swapaxes(-1, -2) @ g.matrix @ vecs
            eye = np.eye(g.dim)
            resid = np.abs(diag - g.eigvals[..., None] * eye)
            assert np.all(np.max(resid, axis=(-2, -1)) <= tol)
            assert np.array_equal(signature(g), signature(x))
            assert np.array_equal(signature(g),
                                  signature(CfsOperator(g.matrix, x.n)))
            assert np.array_equal(is_regular(g), is_regular(x))

    def test_stack_matches_items(self):
        stack, single = TestStacks.pairs()
        g = gen_inverse(stack)
        for name in ("matrix", "eigvals", "eigvecs"):
            ref = [[getattr(gen_inverse(op), name) for op in pair]
                   for pair in single]
            assert np.array_equal(getattr(g, name), ref)


def test_verify_abstract_reports_margins():
    results = verify.suite_abstract(seed=3, n_pairs=300)
    assert all(type(c.ok) is bool and c.ok for c in results)
    words = {c.name: c.detail.split() for c in results}
    # "max |dspec|/||delta|| R over N pairs, H near-equal": Weyl and
    # Mirsky bound the ratio by 1
    for name in ("eigenvalue_lipschitz", "singular_value_lipschitz"):
        assert 0.0 < float(words[name][2]) < 1.0, words[name]
        assert words[name][4] == "300" and words[name][6] == "150"
    # "max lhs/rhs R over C/N pairs"
    detail = words["gen_inverse_lipschitz"]
    assert 0.0 < float(detail[2]) < 1.0, detail
    checked, total = detail[4].split("/")
    assert 0 < int(checked) <= int(total) == 300


def _suite_abstract_in_one_loop(seed, n_pairs):
    """`verify.suite_abstract` as one function whose checks share its
    frame, as it was written before each check got a function of its
    own: (name, measured, detail) of each check."""
    rng = np.random.default_rng(seed)
    out = []
    n, dim = 2, 8

    worst, ratio, near = -np.inf, 0.0, 0
    for k in verify._blocks(n_pairs):
        g = rng.normal(size=(k, 2, 2, 2 * n, dim))
        b = g[:, :, 0] + 1j * g[:, :, 1]
        near += verify._near_equal(b, rng)
        pairs = indefinite_gram(b, n)
        spec = ordered_spectrum(pairs)
        d = verify._hermitian_norm(pairs.matrix[:, 0] - pairs.matrix[:, 1])
        gap = np.max(np.abs(spec[:, 0] - spec[:, 1]), axis=-1)
        worst = np.maximum(worst, float(np.max(gap - d)))
        ratio = max(ratio, float(np.max(gap / d)))
    out.append(("eigenvalue_lipschitz", worst,
                "max |dspec|/||delta|| %.4f over %d pairs, %d near-equal"
                % (ratio, n_pairs, near)))

    worst, ratio, near = -np.inf, 0.0, 0
    for k in verify._blocks(n_pairs):
        g = rng.normal(size=(k, 2, 2, 6, 6))
        st = g[:, :, 0] + 1j * g[:, :, 1]
        near += verify._near_equal(st, rng)
        sv = np.linalg.svd(st, compute_uv=False)
        d = _op_norm(st[:, 0] - st[:, 1])
        gap = np.max(np.abs(sv[:, 0] - sv[:, 1]), axis=-1)
        worst = np.maximum(worst, float(np.max(gap - d)))
        ratio = max(ratio, float(np.max(gap / d)))
    out.append(("singular_value_lipschitz", worst,
                "max |dsv|/||delta|| %.4f over %d pairs, %d near-equal"
                % (ratio, n_pairs, near)))

    worst, ratio, checked = -np.inf, 0.0, 0
    for k in verify._blocks(n_pairs):
        g = rng.normal(size=(2, 2, k, 2 * n, dim))
        b, e = g[:, 0] + 1j * g[:, 1]
        x = indefinite_gram(b, n)
        gx = gen_inverse(x)
        s = rng.uniform(0.0, 1.0, k) / (4.0 * gx.norm())
        nb = _op_norm(b)
        e *= (s / (nb + np.sqrt(nb * nb + s)) / _op_norm(e))[:, None, None]
        y = indefinite_gram(b + e, n)
        regular = is_regular(y)
        lhs = verify._hermitian_norm(gen_inverse(y).matrix - gx.matrix)
        rhs = 6.0 * gx.norm() ** 2 * verify._hermitian_norm(
            y.matrix - x.matrix)
        worst = np.maximum(worst, float(np.max((lhs - rhs)[regular],
                                               initial=-np.inf)))
        ratio = max(ratio, float(np.max((lhs / rhs)[regular], initial=0.0)))
        checked += int(np.sum(regular))
    out.append(("gen_inverse_lipschitz", worst if checked else np.inf,
                "max lhs/rhs %.4f over %d/%d pairs"
                % (ratio, checked, n_pairs)))

    zero = CfsOperator(np.zeros((dim, dim)), n)
    dev = 0.0
    for eps in (0.5, 0.1, 0.01):
        xp = regular_perturbation(zero, eps, seed=seed)
        dev = np.maximum(dev, abs(gen_inverse(xp).norm() - 1.0 / eps))
    out.append(("gen_inverse_discontinuity_witness", dev,
                "max |  ||g|| - 1/eps |"))

    failed = 0
    for k in verify._blocks(n_pairs):
        pairs = random_regular_operator(n, dim, rng, (k, 2))
        try:
            admissibility_bounds(pairs[:, 0], pairs[:, 1])
        except AssertionError:
            failed += 1
    out.append(("admissibility_chains", failed,
                "failed blocks of %d, %d pairs"
                % (len(verify._blocks(n_pairs)), n_pairs)))

    xs = random_regular_operator(n, dim, rng, (200,))
    psi, signs = local_representation(xs)
    recon = -(_adjoint(psi) * signs[:, None, :]) @ psi
    worst = float(np.max(_op_norm(recon - xs.matrix)
                         / np.maximum(xs.norm(), 1e-300)))
    out.append(("local_representation", worst, "max rel resid"))
    return out


@pytest.mark.parametrize("seed", [12345, 1])
def test_verify_abstract_matches_one_loop(seed):
    # every check in a function of its own draws and computes what the
    # single loop does, bit for bit, at the CLI's default seed and the
    # benchmark's first; both run here, on the same numpy build
    got = [(c.name, float(c.measured).hex(), c.detail)
           for c in verify.suite_abstract(seed)]
    want = [(name, float(measured).hex(), detail)
            for name, measured, detail in _suite_abstract_in_one_loop(
                seed, 10000)]
    assert got == want
