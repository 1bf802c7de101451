import math
import warnings

import numpy as np
import pytest

from noncolbm import haar, linalg, verify
from noncolbm.rng import substream


class TestHaarUnitary:
    def test_unitarity(self):
        u = haar.haar_unitary(4, substream(60), size=50)
        prods = np.einsum("sij,skj->sik", u, np.conj(u))
        eye = np.broadcast_to(np.eye(4), prods.shape)
        assert np.abs(prods - eye).max() < 1e-10

    @staticmethod
    def _qr_reference(n, rng, size):
        # Mezzadri's (2007) sampler: QR of the same Ginibre draw, each
        # column of Q divided by the phase of R's diagonal entry
        z = rng.normal(size=(size, n, n)) + 1j * rng.normal(size=(size, n, n))
        q, r = np.linalg.qr(z / math.sqrt(2.0))
        d = np.einsum("sii->si", r)
        return q * (d / np.abs(d))[:, None, :]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_phase_corrected_qr(self, n):
        u = haar.haar_unitary(n, substream(74, n), size=2000)
        ref = self._qr_reference(n, substream(74, n), 2000)
        assert u.shape == ref.shape
        assert np.abs(u - ref).max() < 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_unitarity_to_rounding(self, n):
        # twice-projected columns are orthonormal to 7e-16 on these draws;
        # a single projection pass leaves up to 7e-14
        u = haar.haar_unitary(n, substream(75, n), size=2000)
        prods = np.conj(u).transpose(0, 2, 1) @ u
        assert np.abs(prods - np.eye(n)).max() < 1e-14

    @pytest.mark.parametrize("kwargs", [{"n": 0}, {"n": 2.0},
                                        {"n": 2, "size": 0},
                                        {"n": 2, "size": 2.5}],
                             ids=["n=0", "n=2.0", "size=0", "size=2.5"])
    def test_rejects_non_positive_integer_sizes(self, kwargs):
        # n=0 gave a (0, 0) array, size=0 an empty stack, and the floats a
        # numpy TypeError
        with pytest.raises(ValueError, match="at least 1 (n|size)"):
            haar.haar_unitary(rng=substream(76), **kwargs)

    def test_single_matrix_shape(self):
        u = haar.haar_unitary(3, substream(61))
        assert u.shape == (3, 3)

    def test_n1_phase_uniform(self):
        u = haar.haar_unitary(1, substream(62), size=20_000)
        phases = np.angle(u[:, 0, 0])
        r = verify.ks_one_sample(phases,
                                 lambda v: (v + math.pi) / (2 * math.pi))
        assert r.p_value > 0.01

    def test_first_entry_second_moment(self):
        # E |u_11|^2 = 1/n for Haar measure
        n, m = 3, 40_000
        u = haar.haar_unitary(n, substream(63), size=m)
        v = np.abs(u[:, 0, 0]) ** 2
        assert abs(v.mean() - 1.0 / n) <= 3 * v.std() / math.sqrt(m)

    def test_trace_mean_zero(self):
        m = 40_000
        u = haar.haar_unitary(2, substream(64), size=m)
        tr = np.einsum("sii->s", u)
        assert abs(tr.mean()) <= 4 / math.sqrt(m)


class TestGaussianGroupIntegral:
    @staticmethod
    def _direct_trace_integrand(u, x, y, s):
        # exp{-Tr(L_x - U* L_y U)^2 / (2 s^2)} from the matrix itself
        a = np.einsum("sji,j,sjk->sik", np.conj(u), y, u) - np.diag(x)
        return np.exp(-np.real(np.einsum("sij,sji->s", a, a)) / (2 * s * s))

    def test_closed_form_symmetric_in_arguments(self):
        x, y = [0.0, 1.0], [-0.5, 2.0]
        assert haar.hc_closed_form(x, y, 0.8) == pytest.approx(
            haar.hc_closed_form(y, x, 0.8), rel=1e-12)

    def test_closed_form_scaling(self):
        x, y, s = np.array([0.0, 1.3]), np.array([-0.4, 0.9]), 0.7
        assert haar.hc_closed_form(x, y, s) == pytest.approx(
            haar.hc_closed_form(x / s, y / s, 1.0), rel=1e-12)

    def test_coincident_arguments_value_one_limit(self):
        # as sigma grows the average tends to 1
        v = haar.hc_closed_form([0.0, 1.0], [0.0, 1.0], 50.0)
        assert v == pytest.approx(1.0, abs=1e-3)

    def test_n1_exact(self):
        est = haar.hc_monte_carlo([0.3], [1.1], 0.9, 100, substream(65))
        assert est.se == 0.0
        assert est.mean == pytest.approx(
            math.exp(-(0.8 ** 2) / (2 * 0.81)), rel=1e-12)

    def test_mc_matches_closed_form_n2(self):
        x, y, s = [0.0, 1.0], [-0.5, 0.5], 1.0
        est = haar.hc_monte_carlo(x, y, s, 40_000, substream(66))
        rhs = haar.hc_closed_form(x, y, s)
        assert abs(est.mean - rhs) <= 3 * est.se

    def test_mc_matches_closed_form_n3(self):
        x = [-1.0, 0.0, 1.0]
        y = [-0.8, 0.2, 1.5]
        est = haar.hc_monte_carlo(x, y, 1.2, 40_000, substream(67))
        rhs = haar.hc_closed_form(x, y, 1.2)
        assert abs(est.mean - rhs) <= 3 * est.se

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("samples", [2, 50, 20_000])
    def test_mc_se_is_sample_std(self, samples, n):
        # up to 20 000 samples are one Haar block, so the values can be
        # recomputed from the same substream
        x, y = {2: ([-1.0, 1.0], [-0.8, 1.5]),
                3: ([-1.0, 0.0, 1.0], [-0.8, 0.2, 1.5]),
                4: ([-1.0, -0.2, 0.4, 1.0], [-0.8, 0.2, 0.9, 1.5])}[n]
        x, y, s = np.array(x), np.array(y), 1.2
        est = haar.hc_monte_carlo(x, y, s, samples, substream(69))
        u = haar.haar_unitary(n, substream(69), size=samples)
        vals = self._direct_trace_integrand(u, x, y, s)
        assert est.mean == pytest.approx(vals.mean(), rel=1e-12)
        assert est.se == pytest.approx(
            vals.std(ddof=1) / math.sqrt(samples), rel=1e-12)

    def test_mc_invariant_under_common_shift(self):
        x, y, s = np.array([-1.0, 0.0, 1.0]), np.array([-0.8, 0.2, 1.5]), 1.2
        est = haar.hc_monte_carlo(x, y, s, 5000, substream(77))
        moved = haar.hc_monte_carlo(x + 1e3, y + 1e3, s, 5000, substream(77))
        assert abs(moved.mean - est.mean) <= 1e-12
        assert abs(moved.se - est.se) <= 1e-12

    def test_mc_blocks_concatenate(self, monkeypatch):
        # 17 samples in blocks of 7, 7 and 3, drawn one after another from
        # one generator
        monkeypatch.setattr(haar, "_HC_BATCH", 7)
        x, y, s = np.array([-1.0, 0.0, 1.0]), np.array([-0.8, 0.2, 1.5]), 1.2
        est = haar.hc_monte_carlo(x, y, s, 17, substream(78))
        gen = substream(78)
        u = np.concatenate([haar.haar_unitary(3, gen, size=k)
                            for k in (7, 7, 3)])
        vals = self._direct_trace_integrand(u, x, y, s)
        assert est.mean == pytest.approx(vals.mean(), rel=1e-12)
        assert est.se == pytest.approx(
            vals.std(ddof=1) / math.sqrt(17), rel=1e-12)

    @pytest.mark.parametrize("samples", [0, 1])
    def test_rejects_fewer_than_two_samples(self, samples):
        with pytest.raises(ValueError, match="at least 2 samples"):
            haar.hc_monte_carlo([0.0, 1.0], [0.0, 1.0], 1.0, samples,
                                substream(70))

    def test_rejects_non_integer_samples(self):
        with pytest.raises(ValueError, match="at least 2 samples"):
            haar.hc_monte_carlo([0.0, 1.0], [0.0, 1.0], 1.0, 2.5,
                                substream(70))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            haar.hc_monte_carlo([0.0, 1.0], [0.0], 1.0, 10, substream(68))

    @pytest.mark.parametrize("sigma", [-1.0, 0.0, math.nan, math.inf])
    @pytest.mark.parametrize("average", [
        lambda x, y, s: haar.hc_closed_form(x, y, s),
        lambda x, y, s: haar.hc_monte_carlo(x, y, s, 10, substream(71)),
    ], ids=["closed_form", "monte_carlo"])
    def test_rejects_scale_not_positive_and_finite(self, average, sigma):
        # a negative sigma gave a negative closed-form "average"; sigma = 0
        # and NaN gave 0 or NaN from the Monte Carlo side
        for n in (1, 3):
            x = np.arange(n, dtype=float)
            with pytest.raises(ValueError, match="sigma must be positive"):
                average(x, x + 0.5, sigma)


class TestConvolution:
    def test_scales(self):
        s2, a = haar.interpolation_scales(2.0, 0.5)
        assert s2 == pytest.approx(0.5 * 1.5 / 2.0)
        assert a == pytest.approx(2.0 / 0.25)

    def test_scales_rejects_endpoints(self):
        for t in (0.0, 2.0, 3.0):
            with pytest.raises(ValueError):
                haar.interpolation_scales(2.0, t)
        # an infinite horizon gave a NaN bridge variance
        with pytest.raises(ValueError, match="horizon must be positive and "
                           "finite, got inf"):
            haar.interpolation_scales(math.inf, 0.5)

    def test_n1_exact_heat_kernel(self):
        # sum of the bridge and endpoint variances is t, so the scalar
        # convolution density is the heat kernel at time t
        T, t, h = 2.0, 0.7, 0.4
        target = linalg.heat_kernel(t, 0.0, h)
        quad = haar.convolution_quadrature(1, T, t, np.array([[h]]))
        assert quad == pytest.approx(target, rel=1e-6)
        mc = haar.convolution_mc(1, T, t, np.array([[h]]), 40_000,
                                 substream(69))
        assert abs(mc.mean - target) <= 3 * mc.se

    @pytest.mark.parametrize("samples", [0, 1, 2.5])
    @pytest.mark.parametrize("estimate", [
        lambda k: haar.convolution_mc(2, 1.0, 0.4, np.eye(2), k,
                                      substream(72)),
        lambda k: haar.interpolation_identity_check(2, 1.0, 0.5, [-0.5, 0.7],
                                                    k, substream(73)),
    ], ids=["convolution_mc", "identity_check"])
    def test_rejects_bad_sample_counts(self, estimate, samples):
        # 0 gave a nan mean and se with RuntimeWarnings, 1 a nan se, 2.5 a
        # numpy TypeError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="at least 2 (haar_)?samples"):
                estimate(samples)

    def test_mc_matches_quadrature_scalar_multiple_of_identity(self):
        T, t = 1.0, 0.4
        for c in (0.0, 0.5):
            h = c * np.eye(2)
            quad = haar.convolution_quadrature(2, T, t, h)
            mc = haar.convolution_mc(2, T, t, h, 60_000, substream(70))
            assert abs(mc.mean - quad) <= 3 * max(mc.se, 1e-12)

    @pytest.mark.parametrize("h", [np.diag([-0.5, 0.7]),
                                   np.array([[0.3, 0.2], [0.2, 0.3]])],
                             ids=["diagonal", "off-diagonal"])
    def test_quadrature_refuses_h_not_multiple_of_identity(self, h):
        # its chamber reduction averages over O(n) at the identity only
        with pytest.raises(ValueError, match="H = c I"):
            haar.convolution_quadrature(2, 1.0, 0.5, h)

    def test_mode_at_zero(self):
        T, t = 1.0, 0.5
        at0 = haar.convolution_quadrature(2, T, t, np.zeros((2, 2)))
        away = haar.convolution_quadrature(2, T, t, 0.8 * np.eye(2))
        assert at0 > away

    def test_interpolation_identity(self):
        T, t = 1.0, 0.5
        y = np.array([-0.5, 0.7])
        est, target = haar.interpolation_identity_check(
            2, T, t, y, haar_samples=200, rng=substream(71))
        assert abs(est.mean - target) <= 4 * est.se
