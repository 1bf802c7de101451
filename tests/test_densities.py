import math

import numpy as np
import pytest
from scipy.special import erf

from noncolbm import densities, linalg
from noncolbm.rng import substream


class TestConstants:
    def test_c1_n2(self):
        assert densities.constants(2).c1 == pytest.approx(2 * math.pi)

    def test_c2_n2(self):
        assert densities.constants(2).c2 == pytest.approx(
            2 * math.sqrt(math.pi))

    def test_c3_n2(self):
        assert densities.constants(2).c3 == pytest.approx(2 * math.pi ** 2)

    def test_c4_formula(self):
        for n in (1, 2, 3, 5):
            c = densities.constants(n)
            assert c.c4 == pytest.approx(
                2 ** (n / 2) * math.pi ** (n * (n + 1) / 4))


class TestTransitionDensity:
    def test_n1_is_heat_kernel(self):
        assert densities.transition_density(0.7, [0.3], [1.1]) == \
            pytest.approx(linalg.heat_kernel(0.7, 0.3, 1.1))

    def test_n2_hand_value(self):
        # G_1(0,0)^2 - G_1(0,2)^2
        assert densities.transition_density(1.0, [0, 2], [0, 2]) == \
            pytest.approx(0.156240, abs=1e-6)

    def test_equal_rows_vanish(self):
        assert densities.transition_density(1.0, [0, 2], [1.0, 1.0]) == \
            pytest.approx(0.0, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            densities.transition_density(1.0, [0, 1], [0, 1, 2])


class TestSurvival:
    def test_n1_is_one(self):
        assert densities.survival_pfaffian(3.0, [0.4]) == 1.0

    def test_n2_closed_form(self):
        assert densities.survival_pfaffian(1.0, [0, 2]) == pytest.approx(
            erf(1.0), rel=1e-12)

    def test_wide_separation_limit(self):
        for n in (2, 3, 4, 5):
            x = np.arange(n) * 100.0
            assert densities.survival_pfaffian(1.0, x) == pytest.approx(
                1.0, abs=1e-12)

    def test_pfaffian_vs_quadrature_n3(self):
        x = [0.0, 1.0, 2.5]
        assert densities.survival_pfaffian(1.0, x) == pytest.approx(
            densities.survival_quadrature(1.0, x), abs=1e-6)

    def test_calibration_against_montecarlo(self):
        # the Pfaffian prefactor is validated empirically, per dimension
        for n, x in ((2, [0.0, 1.0]), (3, [0.0, 1.0, 2.5]),
                     (4, [-1.5, 0.0, 1.0, 2.5])):
            pf = densities.survival_pfaffian(1.0, x)
            mc = densities.survival_montecarlo(
                1.0, x, samples=60_000, rng=substream(20, n))
            assert abs(pf - mc.mean) <= 3 * mc.se

    def test_quadrature_rejected_above_dim4(self):
        with pytest.raises(ValueError):
            densities.survival_quadrature(1.0, np.arange(5.0))

    def test_batch_matches_scalar(self):
        xs = np.array([[0.0, 1.0, 2.0], [0.0, 0.3, 2.0]])
        batch = densities.survival_pfaffian(0.8, xs)
        for k in range(2):
            assert batch[k] == pytest.approx(
                densities.survival_pfaffian(0.8, xs[k]))
        rng = substream(21)
        for n in (5, 6, 7, 8):
            xs = np.cumsum(0.2 + rng.random(size=(30, n)), axis=1)
            batch = densities.survival_pfaffian(0.8, xs)
            assert batch.shape == (30,)
            for k in range(30):
                assert batch[k] == pytest.approx(
                    densities.survival_pfaffian(0.8, xs[k]), rel=1e-12)

    def test_log_gradient_batch_matches_scalar(self):
        rng = substream(22)
        for n in (2, 3, 4, 5, 8):
            xs = np.cumsum(0.2 + rng.random(size=(6, n)), axis=1)
            batch = densities.survival_log_gradient(0.8, xs)
            assert batch.shape == (6, n)
            for k in range(6):
                np.testing.assert_allclose(
                    batch[k], densities.survival_log_gradient(0.8, xs[k]),
                    rtol=1e-12)


class TestChamberRule:
    def test_cached_rule_gives_identical_points_and_integrals(self):
        def density(y):
            return densities.eigenvalue_density("goe", y, 1.0)

        densities._legendre_rule.cache_clear()
        pts, wts = densities.chamber_points(3, -4.0, 4.0, 12)
        mass = densities.chamber_integrate(density, 2, -8.0, 8.0)
        assert densities._legendre_rule.cache_info().hits == 0
        pts2, wts2 = densities.chamber_points(3, -4.0, 4.0, 12)
        mass2 = densities.chamber_integrate(density, 2, -8.0, 8.0)
        assert densities._legendre_rule.cache_info().hits >= 3
        np.testing.assert_array_equal(pts2, pts)
        np.testing.assert_array_equal(wts2, wts)
        assert mass2 == mass

    def test_cached_rule_is_read_only(self):
        u, w = densities._legendre_rule(7)
        with pytest.raises(ValueError):
            u[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0


class TestHTransformDensity:
    def test_n1_origin_is_heat_kernel(self):
        assert densities.h_transform_density(0, None, 2.0, [0.9]) == \
            pytest.approx(linalg.heat_kernel(2.0, 0.0, 0.9))

    def test_n2_hand_value(self):
        assert densities.h_transform_density(0, None, 1.0, [-1, 1]) == \
            pytest.approx(4 * math.exp(-1) / (2 * math.pi), rel=1e-12)

    def test_normalization(self):
        for n in (2, 3):
            mass = densities.chamber_integrate(
                lambda y: densities.h_transform_density(0, None, 1.0, y),
                n, -8.0, 8.0)
            assert mass == pytest.approx(1.0, abs=1e-4)

    def test_boundary_value_zero(self):
        assert densities.h_transform_density(0, None, 1.0, [0.5, 0.5]) == 0.0

    def test_chapman_kolmogorov_n2(self):
        s, t = 0.4, 1.0
        y = np.array([-0.3, 0.9])

        def integrand(x):
            return (densities.h_transform_density(0, None, s, x)
                    * np.array([densities.h_transform_density(s, xi, t, y)
                                if xi[1] - xi[0] > 1e-12 else 0.0
                                for xi in x]))

        lhs = densities.chamber_integrate(integrand, 2, -7.0, 7.0,
                                          rel_tol=1e-5)
        rhs = densities.h_transform_density(0, None, t, y)
        assert lhs == pytest.approx(rhs, rel=1e-3)


class TestFiniteHorizonDensity:
    def test_matches_goe_at_horizon(self):
        y = np.array([-0.8, 0.5])
        assert densities.finite_horizon_density(2.0, 0, None, 2.0, y) == \
            pytest.approx(densities.eigenvalue_density("goe", y, 2.0),
                          rel=1e-12)

    def test_n1_is_heat_kernel(self):
        for T in (1.0, 5.0):
            assert densities.finite_horizon_density(T, 0, None, 0.5, [0.7]) \
                == pytest.approx(linalg.heat_kernel(0.5, 0.0, 0.7))

    def test_wide_horizon_limit(self):
        t = 0.5
        y = np.array([-0.6, 0.8])
        g = densities.finite_horizon_density(1000 * t, 0, None, t, y)
        p = densities.h_transform_density(0, None, t, y)
        assert g / p == pytest.approx(1.0, abs=0.02)

    def test_normalized_over_chamber(self):
        mass = densities.chamber_integrate(
            lambda y: densities.finite_horizon_density(1.0, 0, None, 0.5, y),
            2, -8.0, 8.0)
        assert mass == pytest.approx(1.0, abs=1e-3)

    def test_integrates_transition_to_survival(self):
        for n, x in ((2, [0.0, 1.2]), (3, [-1.0, 0.0, 1.5])):
            mass = densities.chamber_integrate(
                lambda y: densities.transition_density(0.8, x, y),
                n, -8.0, 8.0)
            assert mass == pytest.approx(
                densities.survival_pfaffian(0.8, x), abs=1e-4)

    def test_rejects_t_beyond_horizon(self):
        with pytest.raises(ValueError):
            densities.finite_horizon_density(1.0, 0, None, 1.5, [0.0, 1.0])


class TestEnsembleDensities:
    def test_gue_equals_origin_h_transform(self):
        rng = substream(21)
        for _ in range(5):
            y = np.sort(rng.normal(size=3))
            assert densities.eigenvalue_density("gue", y, 0.9) == \
                pytest.approx(
                    densities.h_transform_density(0, None, 0.9, y),
                    rel=1e-12)

    def test_n1_both_gaussian(self):
        for kind in ("gue", "goe"):
            assert densities.eigenvalue_density(kind, [0.4], 1.3) == \
                pytest.approx(linalg.heat_kernel(1.3, 0.0, 0.4))

    def test_goe_normalization(self):
        for n in (2, 3):
            mass = densities.chamber_integrate(
                lambda y: densities.eigenvalue_density("goe", y, 1.0),
                n, -8.0, 8.0)
            assert mass == pytest.approx(1.0, abs=1e-4)

    def test_matrix_density_zero_matrix(self):
        n, t = 3, 0.7
        c = densities.constants(n)
        assert densities.matrix_density("gue", np.zeros((n, n)), t) == \
            pytest.approx(t ** (-n * n / 2) / c.c3)

    def test_matrix_density_unitary_invariance(self):
        rng = substream(22)
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = (b + b.conj().T) / 2
        q, _ = np.linalg.qr(rng.normal(size=(3, 3))
                            + 1j * rng.normal(size=(3, 3)))
        assert densities.matrix_density("gue", q.conj().T @ h @ q, 1.0) == \
            pytest.approx(densities.matrix_density("gue", h, 1.0), rel=1e-10)

    def test_matrix_density_orthogonal_invariance(self):
        rng = substream(23)
        b = rng.normal(size=(3, 3))
        a = (b + b.T) / 2
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        assert densities.matrix_density("goe", q.T @ a @ q, 2.0) == \
            pytest.approx(densities.matrix_density("goe", a, 2.0), rel=1e-10)


class TestSurvivalConsistency:
    def test_three_methods_agree_n2(self):
        t, x = 0.7, [0.0, 1.3]
        pf = densities.survival_pfaffian(t, x)
        quad = densities.survival_quadrature(t, x)
        mc = densities.survival_montecarlo(t, x, samples=40_000,
                                           rng=substream(24))
        assert pf == pytest.approx(quad, abs=1e-4)
        assert abs(pf - mc.mean) <= 3 * mc.se

    def test_method_dispatch(self):
        with pytest.raises(ValueError):
            densities.survival_probability(1.0, [0, 1], method="nope")
