import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from noncolbm import densities, linalg, verify
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

    def test_cached_and_refuses_n_below_one(self):
        assert densities.constants(4) is densities.constants(4)
        for _ in range(2):
            with pytest.raises(ValueError, match="positive integer"):
                densities.constants(0)


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

    @pytest.mark.parametrize("n", [2, 3])
    def test_quadrature_matches_pfaffian_on_suite_grid(self, n):
        times, scales = verify.SURVIVAL_GRID
        for t in times:
            for scale in scales:
                x = np.arange(n, dtype=float) * scale
                assert abs(densities.survival_quadrature(t, x)
                           - densities.survival_pfaffian(t, x)) <= 1e-9

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads VmSize from /proc")
    def test_quadrature_n4_in_bounded_memory(self):
        # address space capped at the interpreter's size plus 512 MiB
        script = (
            "import resource\n"
            "from noncolbm import densities\n"
            "size = next(int(line.split()[1]) * 1024 for line in "
            "open('/proc/self/status') if line.startswith('VmSize:'))\n"
            "resource.setrlimit(resource.RLIMIT_AS, "
            "(size + (512 << 20), resource.RLIM_INFINITY))\n"
            "x = [0.0, 1.0, 2.0, 3.0]\n"
            "print(densities.survival_quadrature(1.0, x)"
            " - densities.survival_pfaffian(1.0, x))\n")
        src = str(Path(densities.__file__).resolve().parents[1])
        path = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        p = subprocess.run([sys.executable, "-c", script],
                           env=dict(os.environ, PYTHONPATH=path),
                           capture_output=True, text=True, timeout=300)
        assert p.returncode == 0, p.stderr   # a MemoryError exits 1
        assert abs(float(p.stdout)) <= 1e-4

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

    def test_log_gradient_matches_dense_stack(self):
        # the complex-step stack built as e + i h d from a dense real d_k A
        # stack gives the same bits as the scattered one
        rng = substream(23)
        for n in range(2, 9):
            xs = np.sort(2.0 * rng.normal(size=(50, n)), axis=-1)
            e = np.moveaxis(densities._erf_matrix(0.8, xs), (0, 1), (-2, -1))
            iu, ju, u = densities._pairs(0.8, xs)
            g = np.exp(-u * u) / math.sqrt(math.pi * 0.8)
            d = np.zeros(xs.shape[:-1] + (n,) + e.shape[-2:])
            d[..., iu, iu, ju] = d[..., ju, ju, iu] = -g
            d[..., ju, iu, ju] = d[..., iu, ju, iu] = g
            pf = linalg._pfaffian_batch(np.moveaxis(
                e[..., None, :, :] + 1j * densities._COMPLEX_STEP * d,
                (-2, -1), (0, 1)))
            np.testing.assert_array_equal(
                densities.survival_log_gradient(0.8, xs),
                pf.imag / (densities._COMPLEX_STEP * pf.real))

    def test_log_gradient_peak_memory(self):
        # the kernel eliminates in the complex-step stack itself: no
        # transposed copy of it
        n, rows = 8, 2000
        xs = np.sort(2.0 * substream(24).normal(size=(rows, n)), axis=-1)
        densities.survival_log_gradient(0.8, xs[:2])
        tracemalloc.start()
        try:
            densities.survival_log_gradient(0.8, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * n * n * rows * n * 16


class TestSurvivalDomain:
    @pytest.mark.parametrize("x", [[0.4], [0.0, 1.0]], ids=["n1", "n2"])
    @pytest.mark.parametrize("evaluate", [
        densities.survival_pfaffian, densities.survival_quadrature,
        densities.survival_montecarlo], ids=["pfaffian", "quadrature", "mc"])
    def test_negative_time_refused(self, evaluate, x):
        with pytest.raises(ValueError, match="time must be nonnegative"):
            evaluate(-0.1, x)

    @pytest.mark.parametrize("t", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("x", [[0.4], [0.0, 1.0]], ids=["n1", "n2"])
    @pytest.mark.parametrize("evaluate", [
        densities.survival_pfaffian, densities.survival_quadrature,
        densities.survival_montecarlo], ids=["pfaffian", "quadrature", "mc"])
    def test_nonfinite_time_refused(self, evaluate, x, t):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            evaluate(t, x)

    @pytest.mark.parametrize("samples, steps", [(1, 10), (0, 10), (10, 0),
                                                (2.5, 10), (10, 2.5)])
    def test_montecarlo_sizes_refused(self, samples, steps):
        with pytest.raises(ValueError):
            densities.survival_montecarlo(1.0, [0.0, 1.0], samples=samples,
                                          steps=steps)

    @pytest.mark.parametrize("x", [[0.4], [0.0, 1.0], [0.0, 1.0, 2.5]])
    def test_zero_time_survives(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert densities.survival_pfaffian(0.0, x) == 1.0
            assert densities.survival_quadrature(0.0, x) == 1.0
            assert densities.survival_montecarlo(
                0.0, x, samples=50, rng=1) == densities.MCEstimate(
                    1.0, 0.0, 50)


class TestTimeDomain:
    # every density takes its time through linalg.check_time
    @pytest.mark.parametrize("t", [-1.0, 0.0, math.nan, math.inf],
                             ids=["negative", "zero", "nan", "inf"])
    @pytest.mark.parametrize("evaluate", [
        lambda t: densities.transition_density(t, [0, 1], [0, 1]),
        lambda t: densities.survival_log_gradient(t, [0, 1]),
        lambda t: densities.eigenvalue_density("gue", [0, 1], t),
        lambda t: densities.eigenvalue_density("goe", [0, 1], t),
        lambda t: densities.matrix_density("gue", np.eye(2), t),
        lambda t: densities.matrix_density("goe", np.eye(2), t),
        lambda t: linalg.heat_kernel(t, 0.0, 1.0),
    ], ids=["transition", "log-gradient", "gue", "goe", "gue-matrix",
            "goe-matrix", "heat-kernel"])
    def test_time_not_positive_and_finite_refused(self, evaluate, t):
        with pytest.raises(ValueError, match="positive and finite"):
            evaluate(t)

    @pytest.mark.parametrize("x", [None, [0, 1]], ids=["origin", "x"])
    def test_infinite_time_refused(self, x):
        # a time that is not above s is refused by "need t > s" already
        with pytest.raises(ValueError, match="positive and finite"):
            densities.h_transform_density(0, x, math.inf, [0, 1])
        with pytest.raises(ValueError, match="nonnegative and finite"):
            densities.finite_horizon_density(math.inf, 0, x, 1.0, [0, 1])


def _reference_montecarlo(t, x, samples, steps, gen):
    """Plain form of survival_montecarlo: full-length (N-1, samples) gap
    arrays and a boolean mask of the live samples; each step draws normals
    for the live columns only, in index order."""
    x = np.asarray(x, dtype=float)
    dt = t / steps
    diag, sub = densities._gap_factor(x.size)
    a = np.repeat(np.diff(x)[:, None], samples, axis=1)
    weight = np.ones(samples)
    live = np.ones(samples, dtype=bool)
    for _ in range(steps):
        z = np.zeros_like(a)
        z[:, live] = gen.normal(size=(x.size - 1, live.sum()))
        b = z * (math.sqrt(dt) * diag)[:, None]
        b[1:] += z[:-1] * (math.sqrt(dt) * sub)[:, None]
        b += a
        live &= (b > 0).all(axis=0)
        weight[~live] = 0.0
        hit = np.exp(a[:, live] * b[:, live] / -dt)
        weight[live] *= np.prod(1.0 - hit, axis=0)
        a = b
    return densities.MCEstimate.of(weight)


class _CountingGenerator(np.random.Generator):
    """Generator that counts its calls to normal."""
    draws = 0

    def normal(self, *args, **kwargs):
        self.draws += 1
        return super().normal(*args, **kwargs)


class TestMonteCarloStream:
    # mean and se of the live-gap stream: one (N-1, live) block of normals
    # per step, live samples in index order
    PINNED = [
        (1.0, [0.0, 0.7], 0.39179782580619044, 0.01079070607017413),
        (0.8, [-0.5, 0.2, 1.1], 0.1361088375236316, 0.007450466404296444),
        (1.0, [0.0, 1.0, 2.0, 3.0], 0.06547402013390323,
         0.0053916766183153345),
    ]

    @pytest.mark.parametrize("t, x, mean, se", PINNED,
                             ids=["n2", "n3", "n4"])
    def test_pinned_estimates(self, t, x, mean, se):
        est = densities.survival_montecarlo(t, x, samples=2000,
                                            rng=substream(606, len(x)))
        assert est == densities.MCEstimate(mean, se, 2000)

    @pytest.mark.parametrize("t, x", [row[:2] for row in PINNED],
                             ids=["n2", "n3", "n4"])
    def test_matches_masked_reference(self, t, x):
        est = densities.survival_montecarlo(t, x, samples=2000, steps=200,
                                            rng=substream(607, len(x)))
        assert est == _reference_montecarlo(t, x, 2000, 200,
                                            substream(607, len(x)))

    def test_dead_samples_stay_in_the_mean(self):
        # nearly every sample dies, and every one is kept in the mean
        t, x = 1.0, [0.0, 0.02, 0.04]
        est = densities.survival_montecarlo(t, x, samples=2000,
                                            rng=substream(609))
        assert est.samples == 2000
        assert est.mean < 0.01
        assert est == _reference_montecarlo(t, x, 2000, 200, substream(609))

    def test_stops_when_every_sample_is_dead(self):
        gen = _CountingGenerator(np.random.PCG64(610))
        est = densities.survival_montecarlo(1.0, [0.0, 1e-9], samples=2,
                                            steps=10_000, rng=gen)
        assert est == densities.MCEstimate(0.0, 0.0, 2)
        assert 0 < gen.draws < 10_000


class TestGapFactor:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_factor_of_gap_covariance(self, n):
        diag, sub = densities._gap_factor(n)
        factor = np.diag(diag) + np.diag(sub, -1)
        cov = 2.0 * np.eye(n - 1) - np.eye(n - 1, k=1) - np.eye(n - 1, k=-1)
        np.testing.assert_allclose(factor @ factor.T, cov, rtol=0,
                                   atol=1e-14)

    def test_montecarlo_matches_pfaffian_n4_n5(self):
        # at these separated points the Pfaffian is accurate; a failed
        # attempt is re-run once with a fresh seed
        def attempt(seed):
            ok = True
            for n in (4, 5):
                x = np.arange(n, dtype=float)
                mc = densities.survival_montecarlo(
                    1.0, x, samples=100_000, rng=substream(seed, n))
                pf = densities.survival_pfaffian(1.0, x)
                ok = ok and abs(pf - mc.mean) <= 3 * mc.se
            return {"passed": ok}

        assert verify.run_suite_with_retry(attempt, 611)["passed"]


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

    @pytest.mark.parametrize("T", [1.0, 2.0])
    def test_refuses_a_cancelled_survival_factor(self, T):
        # four particles 1e-4 apart: the survival Pfaffian from x cancels
        # to 0.0 at T = 2 (the exact value is about 1.4e-23) and to a
        # negative value at T = 1, which gave inf or a negative density
        x = [0.0, 1e-4, 2e-4, 3e-4]
        assert densities.survival_pfaffian(T, x) <= 0.0
        with pytest.raises(ValueError, match="not positive"):
            densities.finite_horizon_density(T, 0, x, 0.65 * T,
                                             [-1.0, 0.0, 0.5, 1.0])


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
