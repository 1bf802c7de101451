import math

import numpy as np
import pytest
from scipy.special import erf

from noncolbm import densities, paths, sde, verify
from noncolbm.rng import substream


def drift_bt_closed_form_n2(s, gap):
    """d/dx2 ln erf(gap / (2 sqrt(s))) for the two-particle system."""
    u = gap / (2.0 * math.sqrt(s))
    return math.exp(-u * u) / (math.sqrt(math.pi * s) * erf(u))


class TestConfig:
    def test_default_dt(self):
        cfg = sde.SDEConfig(n=2, horizon=2.0)
        assert cfg.dt == pytest.approx(2.0 / 1024)

    def test_rejects_unordered_start(self):
        with pytest.raises(ValueError):
            sde.SDEConfig(n=2, horizon=1.0, start=[1.0, 0.0])

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            sde.SDEConfig(n=2, horizon=1.0, dt=-0.1)


class TestDrift:
    def test_dyson_two_particles(self):
        np.testing.assert_allclose(sde.dyson_drift(np.array([[0.0, 1.0]])),
                                   [[-1.0, 1.0]])

    def test_dyson_three_particles(self):
        b = sde.dyson_drift(np.array([[0.0, 1.0, 3.0]]))[0]
        np.testing.assert_allclose(b, [-1 - 1 / 3, 1 - 0.5, 1 / 3 + 0.5])

    def test_dyson_antisymmetric(self):
        x = np.array([[-2.0, -0.5, 0.5, 2.0]])
        b = sde.dyson_drift(x)[0]
        np.testing.assert_allclose(b, -b[::-1], atol=1e-12)

    def test_bt_closed_form_n2(self):
        T, t = 2.0, 0.5
        x = np.array([-0.4, 0.4])
        b = sde.drift_bT(t, x, T)
        expected = drift_bt_closed_form_n2(T - t, x[1] - x[0])
        assert b[1] == pytest.approx(expected, rel=1e-6)
        assert b[0] == pytest.approx(-expected, rel=1e-6)

    def test_bt_sign_symmetry(self):
        b = sde.drift_bT(0.2, np.array([-1.0, 0.3, 1.5]), 2.0)
        c = sde.drift_bT(0.2, np.array([-1.5, -0.3, 1.0]), 2.0)
        np.testing.assert_allclose(b, -c[::-1], rtol=1e-8)

    def test_bt_approaches_dyson_for_small_gap(self):
        # near a collision the log-survival gradient is dominated by the
        # pairwise repulsion term
        T, gap = 1000.0, 0.01
        x = np.array([0.0, gap])
        b = sde.drift_bT(0.0, x, T)
        d = sde.dyson_drift(x[None, :])[0]
        assert b[1] / d[1] == pytest.approx(1.0, abs=0.1)

    def test_bt_exact_n2(self):
        T = 2.0
        for t, gap in ((0.5, 1.3), (1.9, 0.05), (0.0, 1e-4), (1.0, 6.0)):
            x = np.array([-0.6, -0.6 + gap])
            expected = drift_bt_closed_form_n2(T - t, gap)
            b = sde.drift_bT(t, x, T)
            assert b[1] == pytest.approx(expected, rel=1e-12)
            assert b[0] == pytest.approx(-expected, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_bt_matches_log_survival_difference(self, n):
        # 4th-order central difference of ln survival, h = 1e-3, gaps >= 0.3
        rng = substream(51, n)
        h = 1e-3
        for _ in range(5):
            x = np.cumsum(0.3 + rng.random(n)) - 0.8 * n
            t, T = 0.3 * rng.random(), 1.0 + rng.random()

            def log_surv(k, d):
                y = x.copy()
                y[k] += d
                return math.log(densities.survival_pfaffian(T - t, y))

            fd = np.array([(-log_surv(k, 2 * h) + 8 * log_surv(k, h)
                            - 8 * log_surv(k, -h) + log_surv(k, -2 * h))
                           / (12 * h) for k in range(n)])
            np.testing.assert_allclose(sde.drift_bT(t, x, T), fd, rtol=1e-8,
                                       atol=1e-8 * np.abs(fd).max())

    @pytest.mark.parametrize("x, rtol, atol", [
        # a gap of 1e-3 between the third and fourth particle
        ([-2.0, -1.0, 0.0, 1e-3, 1.0 + 1e-3], 1e-8, 0.0),
        # all five particles within 0.2 at s = 1 (drift up to 43): the
        # bordered erf matrix has condition number ~1e11 and Pf ~1e-14
        ([-0.1, -0.047, 0.003, 0.052, 0.1], 1e-5, 1e-4),
    ])
    def test_bt_against_high_precision_determinant(self, x, rtol, atol):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            # d_k ln Pf(A) = 1/2 d_k ln det(A) = 1/2 tr(A^-1 d_k A)
            n, s = len(x), mp.mpf(1)
            xm = [mp.mpf(v) for v in x]
            a = mp.matrix(n + 1, n + 1)
            g = mp.matrix(n, n)
            for i in range(n):
                a[i, n], a[n, i] = 1, -1
                for j in range(n):
                    u = (xm[j] - xm[i]) / (2 * mp.sqrt(s))
                    a[i, j] = mp.erf(u)
                    if i != j:
                        g[i, j] = mp.exp(-u * u) / mp.sqrt(mp.pi * s)
            inv = a ** -1
            ref = np.array([float(mp.fsum(inv[k, j] * g[k, j]
                                          for j in range(n)))
                            for k in range(n)])
        b = sde.drift_bT(0.0, np.array(x), 1.0)
        np.testing.assert_allclose(b, ref, rtol=rtol, atol=atol)

    def test_bt_rejects_t_at_horizon(self):
        with pytest.raises(ValueError):
            sde.drift_bT(1.0, np.array([0.0, 1.0]), 1.0)


class TestIntegration:
    def test_n1_is_brownian(self):
        cfg = sde.SDEConfig(n=1, horizon=1.0, dt=1.0 / 64, start=[0.0])
        res = sde.simulate_dyson(cfg, 1.0, seed=40, reps=20_000)
        ends = res.at_time(1.0)[:, 0]
        assert res.failed.sum() == 0
        assert abs(ends.mean()) < 0.025
        assert abs(ends.var() - 1.0) <= 3 * math.sqrt(2) / math.sqrt(20_000)

    def test_ordering_invariant(self):
        cfg = sde.SDEConfig(n=3, horizon=1.0, dt=1.0 / 256)
        res = sde.simulate_dyson(cfg, 1.0, seed=41, reps=200)
        alive = res.states[~res.failed]
        assert np.all(np.diff(alive[:, 1:, :], axis=-1) > 0)

    def test_determinism(self):
        cfg = sde.SDEConfig(n=2, horizon=1.0, dt=1.0 / 128)
        a = sde.simulate_dyson(cfg, 1.0, seed=42, reps=8)
        b = sde.simulate_dyson(cfg, 1.0, seed=42, reps=8)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.failed, b.failed)

    def test_fixed_start_honored(self):
        cfg = sde.SDEConfig(n=2, horizon=1.0, dt=1.0 / 128,
                            start=[-1.0, 1.0])
        res = sde.simulate_dyson(cfg, 1.0, seed=43, reps=4)
        np.testing.assert_array_equal(res.states[:, 0, :],
                                      np.tile([-1.0, 1.0], (4, 1)))

    def test_dyson_endpoint_matches_gue_marginal(self):
        t_end, reps = 1.0, 4_000
        cfg = sde.SDEConfig(n=2, horizon=t_end, dt=t_end / 512)
        res = sde.simulate_dyson(cfg, t_end, seed=44, reps=reps)
        ev = np.linalg.eigvalsh(paths.sample_gue(2, t_end, reps,
                                                 substream(45)))
        r = verify.ks_two_sample(res.at_time(t_end).ravel(), ev.ravel(),
                                 n_eff=(reps, reps))
        assert r.p_value > 0.01

    def test_noncolliding_rejects_t_beyond_horizon(self):
        cfg = sde.SDEConfig(n=2, horizon=1.0)
        with pytest.raises(ValueError):
            sde.simulate_noncolliding(cfg, 2.0, seed=46)

    def test_noncolliding_endpoint_matches_goe_marginal(self):
        T, reps = 1.0, 4_000
        cfg = sde.SDEConfig(n=2, horizon=T, dt=T / 512)
        res = sde.simulate_noncolliding(cfg, T, seed=47, reps=reps)
        ev = np.linalg.eigvalsh(paths.sample_goe(2, T, reps, substream(48)))
        r = verify.ks_two_sample(res.at_time(T).ravel(), ev.ravel(),
                                 n_eff=(reps, reps))
        assert r.p_value > 0.01

    def test_wide_horizon_degenerates_to_dyson(self):
        # for T >> t the finite-horizon drift reduces to the pairwise
        # repulsion, so the two endpoint laws agree
        t_end, reps = 1.0, 4_000
        cfg_d = sde.SDEConfig(n=2, horizon=t_end, dt=t_end / 256)
        cfg_n = sde.SDEConfig(n=2, horizon=1000.0 * t_end, dt=t_end / 256)
        a = sde.simulate_dyson(cfg_d, t_end, seed=49, reps=reps)
        b = sde.simulate_noncolliding(cfg_n, t_end, seed=50, reps=reps)
        r = verify.ks_two_sample(a.at_time(t_end).ravel(),
                                 b.at_time(t_end).ravel(),
                                 n_eff=(reps, reps))
        assert r.p_value > 0.01

    def test_at_time_refuses_failed(self):
        times = np.array([0.0, 0.5, 1.0])
        states = np.arange(12, dtype=float).reshape(2, 3, 2)
        failed = np.array([False, True])
        res = sde.SimResult(times, states, failed)
        with pytest.raises(ValueError, match="1 of 2 replicates failed"):
            res.at_time(1.0)
        res.failed[:] = False
        np.testing.assert_array_equal(res.at_time(1.0), states[:, 2, :])

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_no_flagged_replicates_from_origin(self, n):
        # early steps from the origin, where the gaps are of order sqrt(dt)
        cfg = sde.SDEConfig(n=n, horizon=1.0, dt=1.0 / 1024)
        for simulate in (sde.simulate_dyson, sde.simulate_noncolliding):
            res = simulate(cfg, 64 / 1024, seed=52 + n, reps=10_000)
            assert res.failed.sum() == 0
            assert np.isfinite(res.states).all()
            assert (np.diff(res.states[:, 1:, :], axis=-1) > 0).all()

    def test_euler_bias_against_matrix_eigenvalues_n4(self):
        # no closed-form marginals at N=4: the eigenvalues of the
        # finite-horizon matrix process have the exact law of the states
        T, reps = 1.0, 2_000
        cfg = sde.SDEConfig(n=4, horizon=T, dt=T / 256)
        for seed in (53, 53 + 777_001):
            st = sde.simulate_noncolliding(cfg, T / 2, seed=seed,
                                           reps=reps).at_time(T / 2)
            ev = np.linalg.eigvalsh(paths.sample_xit_marginal(
                4, T / 2, T, reps, substream(seed, 1)))
            ok = all(verify.ks_two_sample(st[:, i], ev[:, i]).p_value > 0.01
                     for i in range(4))
            if ok:
                break
        assert ok


def _spaced(n, gap):
    """n points gap apart, centred at 0."""
    return gap * (np.arange(n) - 0.5 * (n - 1))


class TestImplicitStep:
    DT = 1.0 / 1024

    def _check(self, a):
        y, ok = sde.implicit_step(a, self.DT)
        assert ok.all()
        assert (np.diff(y, axis=-1) > 0).all()
        # the implicit equation y = a + dt D(y), relative to each row's scale
        scale = np.maximum(np.abs(a), np.abs(y)).max(-1, keepdims=True)
        err = np.abs(y - self.DT * sde.dyson_drift(y) - a) / scale
        assert err.max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_solves_implicit_equation(self, n):
        rng = substream(54, n)
        x = np.sort(rng.normal(size=(200, n)), axis=-1)
        self._check(x + math.sqrt(self.DT) * rng.normal(size=(200, n)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_noise_crossing_neighbours_by_ten_gaps(self, n):
        # every neighbour pair of a is reversed by ten gaps
        a = np.stack([-10.0 * _spaced(n, gap)
                      for gap in (1e-6, 1e-3, 0.05, 1.0)])
        self._check(a)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_gaps_of_one_millionth(self, n):
        rng = substream(56, n)
        x = _spaced(n, 1e-6) + rng.normal(size=(50, 1))
        self._check(x + math.sqrt(self.DT) * rng.normal(size=x.shape))
        self._check(x)

    def test_n1_is_the_explicit_step(self):
        a = np.array([[0.3], [-1.2]])
        y, ok = sde.implicit_step(a, self.DT)
        assert ok.all()
        np.testing.assert_array_equal(y, a)

    def test_non_finite_row_is_flagged_not_dropped(self):
        a = np.array([[0.0, 1.0, 2.0], [0.0, np.nan, 2.0]])
        y, ok = sde.implicit_step(a, self.DT)
        np.testing.assert_array_equal(ok, [True, False])
        assert y.shape == a.shape
