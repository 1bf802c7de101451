import math

import numpy as np
import pytest
from scipy.special import erf

from mp_reference import mp_erf_matrix, mp_pfaffian
from noncolbm import densities, linalg
from noncolbm.rng import substream


def random_skew(n, rng):
    b = rng.normal(size=(n, n))
    return b - b.T


def random_skew_stack(size, n, rng):
    b = rng.normal(size=(size, n, n))
    return b - np.swapaxes(b, -1, -2)


def pfaffian_reference(a):
    """One matrix at a time: Parlett-Reid with partial pivoting down to the
    last four rows and columns, then the 4 x 4 expansion of that block."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if n == 2:
        return a[0, 1]
    pf = 1.0
    for k in range(0, n - 4, 2):
        kp = k + 1 + int(np.argmax(np.abs(a[k + 1:, k])))
        if kp != k + 1:
            a[[k + 1, kp], :] = a[[kp, k + 1], :]
            a[:, [k + 1, kp]] = a[:, [kp, k + 1]]
            pf = -pf
        if a[k + 1, k] == 0.0:
            return 0.0
        pf *= a[k, k + 1]
        tau = a[k, k + 2:] / a[k, k + 1]
        a[k + 2:, k + 2:] += np.outer(tau, a[k + 2:, k + 1])
        a[k + 2:, k + 2:] -= np.outer(a[k + 2:, k + 1], tau)
    b = a[n - 4:, n - 4:]
    return pf * (b[0, 1] * b[2, 3] - b[0, 2] * b[1, 3] + b[0, 3] * b[1, 2])


def two_product_pfaffian(a):
    """_pfaffian_batch's elimination on a batch-last stack (n, n, B), in
    place, with the trailing block updated by two outer products: tau_i
    col_j added, then col_i tau_j subtracted."""
    n, rows = a.shape[0], np.arange(a.shape[-1])
    pf = np.ones(a.shape[-1], dtype=a.dtype)
    for k in range(0, n - 4, 2):
        kp = k + 1 + np.argmax(np.abs(a[k + 1:, k]), axis=0)
        pf[kp != k + 1] *= -1.0
        row = a[k + 1, k:].copy()
        a[k + 1, k:] = a[kp, k:, rows].T
        a[kp, k:, rows] = row.T
        col = a[k:, k + 1].copy()
        a[k:, k + 1] = a[k:, kp, rows]
        a[k:, kp, rows] = col
        piv = a[k, k + 1]
        pf *= piv
        tau = a[k, k + 2:] / np.where(piv == 0.0, 1.0, piv)
        col = a[k + 2:, k + 1]
        a[k + 2:, k + 2:] += tau[:, None] * col[None, :]
        a[k + 2:, k + 2:] -= col[:, None] * tau[None, :]
    b = a[n - 4:, n - 4:]
    return pf * (b[0, 1] * b[2, 3] - b[0, 2] * b[1, 3] + b[0, 3] * b[1, 2])


class TestVandermonde:
    def test_single_factor(self):
        assert linalg.vandermonde([0, 1]) == 1.0

    def test_three_points(self):
        assert linalg.vandermonde([1, 2, 4]) == pytest.approx(6.0)
        # a batch (m, n) gives each row's product, bitwise equal to the row
        # alone; one vector gives a Python float
        x = np.vstack([[1.0, 2.0, 4.0], substream(2).normal(size=(6, 3))])
        h = linalg.vandermonde(x)
        assert h.shape == (7,) and h[0] == 6.0
        for k in range(7):
            row = linalg.vandermonde(x[k])
            assert type(row) is float and h[k] == row
            a, b, c = x[k]
            assert row == pytest.approx((b - a) * (c - a) * (c - b),
                                        rel=1e-14)

    def test_repeated_coordinate(self):
        assert linalg.vandermonde([2.0, 2.0, 5.0]) == 0.0

    def test_antisymmetry_under_transposition(self):
        rng = substream(1)
        for _ in range(20):
            x = rng.normal(size=5)
            i, j = rng.choice(5, size=2, replace=False)
            y = x.copy()
            y[[i, j]] = y[[j, i]]
            assert linalg.vandermonde(y) == pytest.approx(
                -linalg.vandermonde(x), rel=1e-10)


class TestPairIndex:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_triu_order_cached_read_only(self, n):
        iu, ju = linalg.pair_index(n)
        ref_i, ref_j = np.triu_indices(n, 1)
        np.testing.assert_array_equal(iu, ref_i)
        np.testing.assert_array_equal(ju, ref_j)
        assert linalg.pair_index(n)[0] is iu
        assert not iu.flags.writeable and not ju.flags.writeable


class TestHeatKernel:
    def test_diagonal_t1(self):
        assert linalg.heat_kernel(1.0, 0.0, 0.0) == pytest.approx(
            0.3989422804, abs=1e-9)

    def test_diagonal_any_center(self):
        for c in (-3.0, 0.0, 1.7):
            assert linalg.heat_kernel(4.0, c, c) == pytest.approx(
                1.0 / np.sqrt(8 * np.pi))

    def test_off_diagonal(self):
        assert linalg.heat_kernel(1.0, 0.0, 2.0) == pytest.approx(
            0.0539909665, abs=1e-9)

    def test_symmetric_in_endpoints(self):
        assert linalg.heat_kernel(0.7, -1.0, 2.0) == pytest.approx(
            linalg.heat_kernel(0.7, 2.0, -1.0))

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            linalg.heat_kernel(0.0, 0.0, 0.0)

    def test_integrates_to_one(self):
        ys = np.linspace(-12, 12, 20001)
        mass = np.trapezoid(linalg.heat_kernel(2.0, 0.5, ys), ys)
        assert mass == pytest.approx(1.0, abs=1e-6)


class TestPfaffian:
    def test_two_by_two(self):
        a = 2.5
        assert linalg.pfaffian(np.array([[0, a], [-a, 0]])) == pytest.approx(a)

    def test_four_by_four_expansion(self):
        vals = {(0, 1): 1.5, (0, 2): -2.0, (0, 3): 0.7,
                (1, 2): 3.0, (1, 3): -1.1, (2, 3): 0.4}
        a = np.zeros((4, 4))
        for (i, j), v in vals.items():
            a[i, j] = v
            a[j, i] = -v
        expected = (vals[(0, 1)] * vals[(2, 3)]
                    - vals[(0, 2)] * vals[(1, 3)]
                    + vals[(0, 3)] * vals[(1, 2)])
        assert linalg.pfaffian(a) == pytest.approx(expected, rel=1e-12)

    def test_square_is_determinant(self):
        rng = substream(5)
        for n in (2, 4, 6, 8):
            for _ in range(10):
                a = random_skew(n, rng)
                pf = linalg.pfaffian(a)
                det = np.linalg.det(a)
                assert pf * pf == pytest.approx(det, rel=1e-8)

    def test_permutation_congruence(self):
        rng = substream(6)
        for _ in range(10):
            a = random_skew(6, rng)
            perm = rng.permutation(6)
            p = np.eye(6)[perm]
            assert linalg.pfaffian(p @ a @ p.T) == pytest.approx(
                np.linalg.det(p) * linalg.pfaffian(a), rel=1e-8)

    def test_rejects_odd_dimension(self):
        a = random_skew(3, substream(7))
        with pytest.raises(ValueError):
            linalg.pfaffian(a)

    def test_zero_by_zero_is_one(self):
        assert linalg.pfaffian(np.zeros((0, 0))) == 1.0
        np.testing.assert_array_equal(linalg.pfaffian(np.zeros((3, 0, 0))),
                                      np.ones(3))

    def test_two_by_two_result_is_not_a_view(self):
        a = random_skew_stack(5, 2, substream(15))
        kept = a.copy()
        pf = linalg.pfaffian(a)
        pf[:] = 7.0
        np.testing.assert_array_equal(a, kept)
        one = linalg._pair_pfaffian(a[0, 0, 1:])
        one[...] = 7.0
        np.testing.assert_array_equal(a, kept)

    @pytest.mark.parametrize("n", (6, 8, 10))
    def test_input_unchanged(self, n):
        # the kernel eliminates in place: the public entry must copy first
        a = random_skew_stack(5, n, substream(17))
        kept = a.copy()
        linalg.pfaffian(a)
        np.testing.assert_array_equal(a, kept)
        linalg.pfaffian(a[0])
        np.testing.assert_array_equal(a, kept)


class TestOneKernel:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_public_pfaffian_is_survival_kernel(self, n):
        # the checked public entry and the survival probability evaluate the
        # same erf matrices (of order N - 1 for odd N, the border folded in)
        # by the same arithmetic
        xs = np.sort(substream(16).normal(size=(30, n)) * 1.5, axis=1)
        e = np.moveaxis(linalg._pair_matrix(densities._fold(
            erf(linalg.pair_gaps(xs) / (2.0 * math.sqrt(0.7))), n),
            n - n % 2), (0, 1), (-2, -1))
        np.testing.assert_array_equal(linalg.pfaffian(e),
                                      densities.survival_pfaffian(0.7, xs))

    @pytest.mark.parametrize("dtype", (float, complex))
    @pytest.mark.parametrize("m", (6, 8, 10))
    def test_pair_values_entry_is_the_kernel(self, m, dtype):
        # from order 6 the pair-value entry lays its values out as a stack
        # and eliminates it: the same bits as the kernel on that stack and
        # as the checked public entry on the matrices
        rng = substream(19, m)
        v = rng.normal(size=(m * (m - 1) // 2, 40)).astype(dtype)
        if dtype is complex:
            v.imag = rng.normal(size=v.shape)
        a = linalg._pair_matrix(v.copy(), m)
        want = linalg._pfaffian_batch(a.copy())
        np.testing.assert_array_equal(linalg._pair_pfaffian(v.copy()), want)
        np.testing.assert_array_equal(
            linalg.pfaffian(np.moveaxis(a, -1, 0)), want)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_survival_against_high_precision_pfaffian(self, n):
        mp = pytest.importorskip("mpmath")
        x = 3.0 * np.linspace(-1.0, 1.0, n)
        with mp.workdps(40):
            ref = float(mp_pfaffian(mp_erf_matrix(x, 1.0, mp), mp))
        assert densities.survival_pfaffian(1.0, x) == pytest.approx(
            ref, rel=1e-10)


class TestPfaffianStack:
    def test_matches_reference_and_2d_path(self):
        rng = substream(8)
        for n in range(2, 11, 2):
            a = random_skew_stack(40, n, rng)
            pf = linalg.pfaffian(a)
            assert pf.shape == (40,)
            # same arithmetic in the same order: equal, not just close
            np.testing.assert_array_equal(
                pf, [pfaffian_reference(m) for m in a])
            np.testing.assert_array_equal(
                pf, [linalg.pfaffian(m) for m in a])
            np.testing.assert_allclose(pf * pf, np.linalg.det(a), rtol=1e-8)

    @pytest.mark.parametrize("n", (6, 8, 10, 12))
    def test_one_outer_product_is_the_two_product_update(self, n):
        # d_ij = tau_i col_j, added and then subtracted transposed, is the
        # two products' arithmetic bit for bit on real stacks; complex
        # products are not bitwise symmetric, so there it only rounds alike
        rng = substream(18)
        a = np.moveaxis(random_skew_stack(60, n, rng), 0, -1)
        np.testing.assert_array_equal(linalg._pfaffian_batch(a.copy()),
                                      two_product_pfaffian(a.copy()))
        z = a + 1j * np.moveaxis(random_skew_stack(60, n, rng), 0, -1)
        np.testing.assert_allclose(linalg._pfaffian_batch(z.copy()),
                                   two_product_pfaffian(z.copy()),
                                   rtol=1e-12)

    def test_leading_batch_shape(self):
        a = random_skew_stack(12, 6, substream(9)).reshape(3, 4, 6, 6)
        pf = linalg.pfaffian(a)
        assert pf.shape == (3, 4)
        assert pf[2, 1] == linalg.pfaffian(a[2, 1])

    def test_mixed_pivoting(self):
        # block-diagonal matrices need no pivot; a symmetric permutation of
        # one forces pivots and multiplies Pf by det(P)
        rng = substream(10)
        base = np.zeros((6, 6))
        for k, v in zip((0, 2, 4), (2.0, -3.0, 0.5)):
            base[k, k + 1], base[k + 1, k] = v, -v
        perm = np.eye(6)[[0, 3, 5, 1, 2, 4]]
        other = random_skew(6, rng)
        a = np.stack([base, perm @ base @ perm.T, other, base])
        pf = linalg.pfaffian(a)
        assert pf[0] == pf[3] == pytest.approx(-3.0)
        assert pf[1] == pytest.approx(np.linalg.det(perm) * -3.0, rel=1e-12)
        assert pf[2] == pytest.approx(pfaffian_reference(other), rel=1e-12)

    def test_zero_pivot_column_gives_zero(self):
        a = random_skew_stack(3, 6, substream(11))
        a[1, 0, :] = 0.0
        a[1, :, 0] = 0.0
        pf = linalg.pfaffian(a)
        assert pf[1] == 0.0
        assert np.all(np.isfinite(pf))
        assert pf[0] == pytest.approx(pfaffian_reference(a[0]), rel=1e-12)
        assert pf[2] == pytest.approx(pfaffian_reference(a[2]), rel=1e-12)

    def test_complex_square_is_determinant(self):
        rng = substream(12)
        b = rng.normal(size=(20, 6, 6)) + 1j * rng.normal(size=(20, 6, 6))
        a = b - np.swapaxes(b, -1, -2)
        pf = linalg.pfaffian(a)
        np.testing.assert_allclose(pf * pf, np.linalg.det(a), rtol=1e-10)

    def test_rejects_odd_stack(self):
        with pytest.raises(ValueError):
            linalg.pfaffian(random_skew_stack(4, 5, substream(13)))

    def test_rejects_non_skew_stack(self):
        a = random_skew_stack(4, 6, substream(14))
        a[2, 0, 3] += 1.0
        with pytest.raises(ValueError):
            linalg.pfaffian(a)

    def test_rejects_non_square_stack(self):
        with pytest.raises(ValueError):
            linalg.pfaffian(np.zeros((4, 6, 4)))


class TestWeylVector:
    def test_strict_rejects_ties(self):
        with pytest.raises(ValueError):
            linalg.weyl_vector([0.0, 0.0, 1.0])

    def test_rejects_unordered(self):
        with pytest.raises(ValueError):
            linalg.weyl_vector([1.0, 0.0])
