import math
import sys
import warnings

import numpy as np
import pytest
from scipy.special import erf

from mp_reference import mp_erf_matrix
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

    @pytest.mark.parametrize("field, kwargs", [
        ("dt", {"horizon": 1.0, "dt": math.nan}),
        ("dt", {"horizon": 1.0, "dt": math.inf}),
        ("horizon", {"horizon": math.nan}),
        ("horizon", {"horizon": 0.0}),
    ])
    def test_rejects_non_finite_or_non_positive_sizes(self, field, kwargs):
        with pytest.raises(ValueError,
                           match=field + " must be positive and finite"):
            sde.SDEConfig(n=2, **kwargs)

    @pytest.mark.parametrize("n", [0, -1, 2.5, None])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ValueError,
                           match=r"need at least 1 n \(an integer\), got %r"
                           % (n,)):
            sde.SDEConfig(n=n, horizon=1.0)

    @pytest.mark.parametrize("simulate", [sde.simulate_dyson,
                                          sde.simulate_noncolliding])
    @pytest.mark.parametrize("reps", [0, -2, 2.5])
    def test_simulate_rejects_bad_reps(self, simulate, reps):
        cfg = sde.SDEConfig(n=2, horizon=1.0)
        with pytest.raises(ValueError,
                           match=r"need at least 1 reps \(an integer\), "
                           r"got %r" % (reps,)):
            simulate(cfg, 0.5, seed=1, reps=reps)

    @pytest.mark.parametrize("start", [[0.0, 1.0, 2.0], [0.0]])
    def test_rejects_start_of_wrong_length(self, start):
        with pytest.raises(ValueError, match="start must have n = 2"):
            sde.SDEConfig(n=2, horizon=1.0, start=start)

    @pytest.mark.parametrize("simulate", [sde.simulate_dyson,
                                          sde.simulate_noncolliding])
    @pytest.mark.parametrize("t_end", [-0.5, 0.0, math.nan])
    def test_simulate_rejects_bad_t_end(self, simulate, t_end):
        cfg = sde.SDEConfig(n=2, horizon=1.0)
        with pytest.raises(ValueError, match="time must be positive"):
            simulate(cfg, t_end, seed=1)


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
        b = densities.survival_log_gradient(T - t, x)
        expected = drift_bt_closed_form_n2(T - t, x[1] - x[0])
        assert b[1] == pytest.approx(expected, rel=1e-6)
        assert b[0] == pytest.approx(-expected, rel=1e-6)

    def test_bt_sign_symmetry(self):
        b = densities.survival_log_gradient(1.8, [-1.0, 0.3, 1.5])
        c = densities.survival_log_gradient(1.8, [-1.5, -0.3, 1.0])
        np.testing.assert_allclose(b, -c[::-1], rtol=1e-8)

    def test_bt_approaches_dyson_for_small_gap(self):
        # near a collision the log-survival gradient is dominated by the
        # pairwise repulsion term
        T, gap = 1000.0, 0.01
        x = np.array([0.0, gap])
        b = densities.survival_log_gradient(T, x)
        d = sde.dyson_drift(x[None, :])[0]
        assert b[1] / d[1] == pytest.approx(1.0, abs=0.1)

    def test_bt_exact_n2(self):
        T = 2.0
        for t, gap in ((0.5, 1.3), (1.9, 0.05), (0.0, 1e-4), (1.0, 6.0)):
            x = np.array([-0.6, -0.6 + gap])
            expected = drift_bt_closed_form_n2(T - t, gap)
            b = densities.survival_log_gradient(T - t, x)
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
            np.testing.assert_allclose(
                densities.survival_log_gradient(T - t, x), fd, rtol=1e-8,
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
            g = mp.matrix(n, n)
            for i in range(n):
                for j in range(n):
                    if i != j:
                        u = (xm[j] - xm[i]) / (2 * mp.sqrt(s))
                        g[i, j] = mp.exp(-u * u) / mp.sqrt(mp.pi * s)
            inv = mp_erf_matrix(x, s, mp) ** -1
            ref = np.array([float(mp.fsum(inv[k, j] * g[k, j]
                                          for j in range(n)))
                            for k in range(n)])
        b = densities.survival_log_gradient(1.0, x)
        np.testing.assert_allclose(b, ref, rtol=rtol, atol=atol)

    def test_bt_rejects_t_at_horizon(self):
        T = t = 1.0
        with pytest.raises(ValueError):
            densities.survival_log_gradient(T - t, [0.0, 1.0])


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

    @pytest.mark.parametrize("dt,start,t_end", [
        (1e-12, [0.0, 300.0], 4e-12),
        (None, [0.0, 1e7, 3e7], 4 / 1024),
    ], ids=["dt-1e-12", "default-dt"])
    def test_wide_gaps_step_without_warning(self, dt, start, t_end):
        # adjacent gaps beyond 2.7e8 sqrt(dt), where sqrt(g^2 + 8 dt)
        # rounds to g: the Newton start divides by no difference there
        cfg = sde.SDEConfig(n=len(start), horizon=1.0, dt=dt, start=start)
        for simulate in (sde.simulate_dyson, sde.simulate_noncolliding):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = simulate(cfg, t_end, seed=1, reps=4)
            assert res.failed.sum() == 0
            assert (np.diff(res.states, axis=-1) > 0).all()

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

    @pytest.mark.parametrize("t, match", [
        (math.nan, "time must be nonnegative and finite, got nan"),
        (-3.0, "time must be nonnegative and finite, got -3.0"),
        (7.0, r"t must lie in \[0.0, 0.5\], got 7.0"),
    ])
    def test_at_time_refuses_time_off_the_grid(self, t, match):
        res = sde.SimResult(np.linspace(0.0, 0.5, 3),
                            np.zeros((2, 3, 2)), np.zeros(2, dtype=bool))
        with pytest.raises(ValueError, match=match):
            res.at_time(t)

    def test_at_time_refuses_a_time_between_grid_times(self):
        res = sde.SimResult(np.linspace(0.0, 1.0, 4),
                            np.zeros((2, 4, 2)), np.zeros(2, dtype=bool))
        with pytest.raises(ValueError, match="0.25 is not a grid time"):
            res.at_time(0.25)

    @pytest.mark.parametrize("horizon", [1.0, 1.3])
    @pytest.mark.parametrize("steps", [1024, 512, 256])
    def test_at_time_accepts_the_suites_times(self, horizon, steps):
        # the suites' times T/4, T/2, 3T/4 and T, computed as they compute
        # them, on the grid that _integrate builds for dt = T / steps
        T = horizon
        k = max(1, int(round(T / (T / steps))))
        times = np.linspace(0.0, T, k + 1)
        states = np.arange(2 * (k + 1), dtype=float).reshape(2, k + 1, 1)
        res = sde.SimResult(times, states, np.zeros(2, dtype=bool))
        for j, t in enumerate([T / 4, T / 2, 3 * T / 4, T], 1):
            np.testing.assert_array_equal(res.at_time(t),
                                          states[:, j * k // 4, :])

    def test_at_time_accepts_the_grid_ends(self):
        times = np.linspace(0.0, 0.5, 3)
        states = np.arange(12, dtype=float).reshape(2, 3, 2)
        res = sde.SimResult(times, states, np.zeros(2, dtype=bool))
        np.testing.assert_array_equal(res.at_time(times[-1]),
                                      states[:, 2, :])
        np.testing.assert_array_equal(res.at_time(0.0), states[:, 0, :])

    def test_record_keeps_only_its_times(self):
        cfg = sde.SDEConfig(n=3, horizon=1.0, dt=1.0 / 64)
        res = sde.simulate_dyson(cfg, 1.0, seed=3, reps=5,
                                 record=[0.25, 1.0])
        assert res.states.shape == (5, 2, 3)
        np.testing.assert_array_equal(res.times, [0.25, 1.0])
        assert res.grid.size == 65
        np.testing.assert_array_equal(res.at_time(1.0), res.states[:, 1])

    @pytest.mark.parametrize("record, match", [
        ([0.5, 0.3], "is not a grid time; the nearest is 0.296875"),
        ([0.5, 1.5], r"t must lie in \[0.0, 1.0\], got 1.5"),
        ([-0.5], "time must be nonnegative and finite, got -0.5"),
        ([math.nan], "time must be nonnegative and finite, got nan"),
        ([0.5, 0.25], "record must hold increasing grid times, each once"),
        ([0.5, 0.5], "record must hold increasing grid times, each once"),
        # two times within rounding of one grid time are one time twice
        ([0.5, 0.5 + 1e-12], "record must hold increasing grid times"),
        ([], "record must hold increasing grid times"),
    ])
    @pytest.mark.parametrize("simulate", [sde.simulate_dyson,
                                          sde.simulate_noncolliding])
    def test_record_refused_before_any_step(self, simulate, record, match,
                                            monkeypatch):
        def no_step(a, dt):
            raise AssertionError("a step ran")

        monkeypatch.setattr(sde, "implicit_step", no_step)
        cfg = sde.SDEConfig(n=2, horizon=1.0, dt=1.0 / 64)
        with pytest.raises(ValueError, match=match):
            simulate(cfg, 1.0, seed=1, reps=3, record=record)

    def test_at_time_refuses_a_time_not_recorded(self):
        cfg = sde.SDEConfig(n=2, horizon=1.0, dt=1.0 / 64)
        res = sde.simulate_dyson(cfg, 1.0, seed=3, reps=4,
                                 record=[0.25, 0.5, 1.0])
        with pytest.raises(ValueError, match="t = 0.875 was not recorded; "
                           "the nearest recorded time is 1.0"):
            res.at_time(0.875)
        # grid times outside the recorded ones are refused in the same way
        with pytest.raises(ValueError, match="t = 0.0 was not recorded; "
                           "the nearest recorded time is 0.25"):
            res.at_time(0.0)
        with pytest.raises(ValueError, match="0.3 is not a grid time"):
            res.at_time(0.3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_no_flagged_replicates_from_origin(self, n):
        # early steps from the origin, where the gaps are of order sqrt(dt)
        cfg = sde.SDEConfig(n=n, horizon=1.0, dt=1.0 / 1024)
        for simulate in (sde.simulate_dyson, sde.simulate_noncolliding):
            res = simulate(cfg, 64 / 1024, seed=52 + n, reps=10_000)
            assert res.failed.sum() == 0
            assert np.isfinite(res.states).all()
            assert (np.diff(res.states[:, 1:, :], axis=-1) > 0).all()

    def test_cancelled_drift_flags_the_replicate(self):
        # from the origin at N=7 the first steps' survival Pfaffian cancels
        # to a value <= 0 on some rows; the drift is NaN there, the implicit
        # step flags those rows, and at_time refuses the run
        cfg = sde.SDEConfig(n=7, horizon=1.0, dt=1.0 / 1024)
        res = sde.simulate_noncolliding(cfg, 16 / 1024, seed=7, reps=200)
        assert 0 < res.failed.sum() < 200
        assert np.isfinite(res.states[~res.failed]).all()
        with pytest.raises(ValueError, match="replicates failed"):
            res.at_time(16 / 1024)

    def test_euler_bias_against_matrix_eigenvalues_n4(self):
        # no closed-form marginals at N=4: the eigenvalues of the
        # finite-horizon matrix process have the exact law of the states
        T, reps = 1.0, 2_000
        cfg = sde.SDEConfig(n=4, horizon=T, dt=T / 256)

        def attempt(seed):
            st = sde.simulate_noncolliding(cfg, T / 2, seed=seed,
                                           reps=reps).at_time(T / 2)
            ev = np.linalg.eigvalsh(paths.sample_xit_marginal(
                4, T / 2, T, reps, substream(seed, 1)))
            return {"passed": all(
                verify.ks_two_sample(st[:, i], ev[:, i]).p_value > 0.01
                for i in range(4))}

        assert verify.run_suite_with_retry(attempt, 53)["passed"]


def _spaced(n, gap):
    """n points gap apart, centred at 0."""
    return gap * (np.arange(n) - 0.5 * (n - 1))


def _reversed(n):
    """Four rows (4, n) whose every neighbour pair is reversed by ten gaps,
    of 1e-6, 1e-3, 0.05 and 1."""
    return np.stack([-10.0 * _spaced(n, gap)
                     for gap in (1e-6, 1e-3, 0.05, 1.0)])


def _hard_rows(n):
    """44 rows (n, 44): 40 clustered, at gaps of 1e-6 and 1e-3, then 4
    reversed (_reversed)."""
    rng = substream(60, n)
    return np.concatenate([
        _spaced(n, 1e-6) + rng.normal(size=(20, 1)),
        _spaced(n, 1e-3) + rng.normal(size=(20, 1)),
        _reversed(n)]).T.copy()


def _hard_systems(n, dt):
    """The Newton systems (n + 1, n, 44) of sde._newton_system at the rows
    y of _hard_rows, with the right side -g = dt D(y) of a step from a = y;
    condition numbers reach 4e9 at gaps of 1e-6."""
    y = _hard_rows(n)
    return sde._newton_system(y, y, dt)[0]


def _drift_n5_targets():
    """The targets (5, 200) of the two steps of a drift_n5 benchmark
    operation: N = 5 from -2..2, dt = 1/256, 100 replicates."""
    targets = []
    step = sde.implicit_step

    def recording_step(a, dt):
        targets.append(a.T.copy())
        return step(a, dt)

    cfg = sde.SDEConfig(n=5, horizon=1.0, dt=1.0 / 256,
                        start=np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))
    sde.implicit_step = recording_step
    try:
        sde.simulate_noncolliding(cfg, 2.0 / 256, seed=63, reps=100)
    finally:
        sde.implicit_step = step
    return np.concatenate(targets, axis=1), 1.0 / 256


def _reference_solve(s):
    """The elimination of sde._solve with a fresh product at every column
    in place of its scratch array: the same operations in the same order,
    so sde._solve must match it bit for bit."""
    n = s.shape[1]
    for k in range(n - 1):
        s[k + 1:, k] /= s[k, k]
        s[k + 1:, k + 1:] -= s[k + 1:, k, None] * s[k, k + 1:]
    x = s[n]
    x[n - 1] /= s[n - 1, n - 1]
    for k in range(n - 1, 0, -1):
        x[:k] -= s[k, :k] * x[k]
    return x


_METHOD_WRAPPERS = ("_sum", "_all", "_any", "_amax", "_amin")


def _method_reductions(func):
    """Calls that func() makes to the Python wrappers of the ndarray
    reductions (numpy._core._methods), by name.  They are counted by a
    profile hook on the wrappers' code objects, not by patching the
    module: numpy holds on to each wrapper once its method has run, so a
    patched module attribute would miss every later call."""
    methods = pytest.importorskip("numpy._core._methods")
    names = {getattr(methods, name).__code__: name
             for name in _METHOD_WRAPPERS}
    counts = dict.fromkeys(_METHOD_WRAPPERS, 0)

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code]] += 1

    old = sys.getprofile()
    sys.setprofile(hook)
    try:
        func()
    finally:
        sys.setprofile(old)
    return counts


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
        self._check(_reversed(n))

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

    @pytest.mark.parametrize("n", [2, 3])
    def test_empty_batch(self, n):
        y, ok = sde.implicit_step(np.zeros((0, n)), self.DT)
        assert y.shape == (0, n) and ok.shape == (0,)

    def test_non_finite_row_is_flagged_not_dropped(self):
        a = np.array([[0.0, 1.0, 2.0], [0.0, np.nan, 2.0]])
        y, ok = sde.implicit_step(a, self.DT)
        np.testing.assert_array_equal(ok, [True, False])
        assert y.shape == a.shape

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_rows_do_not_depend_on_the_batch(self, n):
        # rows that converge, damp and fail at different passes, in one
        # batch: each must come out as it does alone
        rng = substream(58, n)
        separated = np.sort(rng.normal(size=(5, n)), axis=-1)
        tight = _spaced(n, 1e-6) + rng.normal(size=(5, 1))
        reversed_ = _reversed(n)
        nan_row = np.full((1, n), np.nan)
        a = np.concatenate([separated, tight, nan_row, reversed_])
        a = a[rng.permutation(len(a))]
        y, ok = sde.implicit_step(a, self.DT)
        assert (~ok).sum() == 1
        for i, row in enumerate(a):
            y1, ok1 = sde.implicit_step(row[None, :], self.DT)
            np.testing.assert_array_equal(y[i], y1[0])
            assert ok[i] == ok1[0]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_solve_without_pivoting_matches_lapack(self, n):
        # the systems of _hard_systems.  The difference is taken relative
        # to |b|, which bounds |x| in the max norm (|h^-1| <= 1 when every
        # diagonal exceeds its off-diagonal row sum by 1: Varah, Linear
        # Algebra Appl. 11, 1975); relative to |x| the two solves differ by
        # up to 1e-7 there, each as far from a 60-digit solution
        s = _hard_systems(n, self.DT)
        h, b = np.moveaxis(s[:n], -1, 0), s[n].T
        ref = np.linalg.solve(h, b[..., None])[..., 0]
        x = sde._solve(s.copy()).T
        err = np.abs(x - ref).max(-1) / np.abs(b).max(-1)
        assert err.max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_solve_matches_the_reference_bit_for_bit(self, n):
        # on every build: the digests of test_pinned_bits run only under
        # the numpy, scipy and CPU they were taken on
        s = _hard_systems(n, self.DT)
        assert sde._solve(s.copy()).tobytes() \
            == _reference_solve(s.copy()).tobytes()

    def test_counting_sees_method_reductions(self):
        # the ndarray methods have run before, so numpy holds their
        # wrappers; the count must still see each call
        x = np.ones((2, 3))
        assert _method_reductions(lambda: (
            x.sum(0), x.all(), x.any(), x.max(), x.min())) \
            == dict.fromkeys(_METHOD_WRAPPERS, 1)

    def test_step_makes_no_method_reductions(self):
        # 100 separated rows at N = 5: every row takes the full Newton step
        rng = substream(61)
        a = np.cumsum(16.0 * math.sqrt(self.DT)
                      * (1.0 + 0.25 * rng.random((100, 5))), axis=-1)
        a += rng.normal(size=(100, 1))
        assert _method_reductions(lambda: sde.implicit_step(a, self.DT)) \
            == dict.fromkeys(_METHOD_WRAPPERS, 0)

    def test_simulation_makes_no_method_reductions(self):
        # the shape of the drift_n5 benchmark operation: the survival
        # gradient, the Dyson drift and the implicit step of each step
        cfg = sde.SDEConfig(n=5, horizon=1.0, dt=1.0 / 256,
                            start=np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))
        assert _method_reductions(lambda: sde.simulate_noncolliding(
            cfg, 2.0 / 256, seed=62, reps=100)) \
            == dict.fromkeys(_METHOD_WRAPPERS, 0)

    @staticmethod
    def _count_passes(monkeypatch):
        """Count the Newton passes of sde: one sde._solve each."""
        calls = [0]
        solve = sde._solve

        def counting_solve(*args):
            calls[0] += 1
            return solve(*args)

        monkeypatch.setattr(sde, "_solve", counting_solve)
        return calls

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_separated_rows_converge_in_two_passes(self, n, monkeypatch):
        # every gap of a at least 16 sqrt(dt): the start from the pair
        # solution alone takes 3 passes at N >= 4
        calls = self._count_passes(monkeypatch)
        rng = substream(57, n)
        a = np.cumsum(16.0 * math.sqrt(self.DT)
                      * (1.0 + 0.25 * rng.random((200, n))), axis=-1)
        y, ok = sde.implicit_step(a + rng.normal(size=(200, 1)), self.DT)
        assert ok.all()
        assert calls[0] <= 2

    def test_two_particles_take_one_pass(self, monkeypatch):
        calls = self._count_passes(monkeypatch)
        rng = substream(59)
        a = np.concatenate([rng.normal(size=(200, 2)),
                            -10.0 * _spaced(2, 1e-6)[None, :]])
        y, ok = sde.implicit_step(a, self.DT)
        assert ok.all()
        assert calls[0] == 1

    def test_two_particle_start_against_high_precision_root(self):
        # at N = 2 the start is the root (g + sqrt(g^2 + 8 dt)) / 2 of
        # G = g + 2 dt / G; a centred on 0 keeps the gaps exact
        mp = pytest.importorskip("mpmath")
        g = np.array([-1e6, -10.0, -1e-3, 0.0, 1e-3, 10.0, 1e6, 1e9]) \
            * math.sqrt(self.DT)
        y = sde._start(np.stack([-0.5 * g, 0.5 * g]), self.DT)
        with mp.workdps(50):
            ref = np.array([float((mp.mpf(v) + mp.sqrt(
                mp.mpf(v) ** 2 + 8 * mp.mpf(self.DT))) / 2) for v in g])
        np.testing.assert_allclose(y[1] - y[0], ref,
                                   rtol=16 * np.finfo(float).eps, atol=0)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_start_is_ordered_on_reversed_neighbours(self, n):
        assert (np.diff(sde._start(_reversed(n).T, self.DT), axis=0)
                > 0).all()

    @staticmethod
    def _passes(a, dt):
        """(y, p, lam2) at every Newton pass of implicit_step from the
        targets a (n, m), all columns iterated until all have converged."""
        y = sde._start(a, dt)
        for _ in range(sde._NEWTON_MAX_ITER):
            s, g = sde._newton_system(y, a, dt)
            p = sde._solve(s)
            lam2 = -(g * p).sum(0)
            yield y, p, lam2
            if (lam2 <= dt * sde._NEWTON_TOL).all():
                return
            y = y + sde._step_length(y, p) * p

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_small_decrement_takes_the_whole_step(self, n):
        # the premise of implicit_step's pass without the wall cut: where
        # the decrement of phi / dt is at most 1/4 (lam2 <= dt / 16), no
        # gap shrinks by more than a quarter, so the step length is 1
        cases = [(_hard_rows(n), self.DT),
                 (_reversed(n).T.copy(), self.DT)]
        if n == 5:
            cases.append(_drift_n5_targets())
        seen = 0
        for a, dt in cases:
            for y, p, lam2 in self._passes(a, dt):
                near = lam2 <= dt / 16.0
                y, p = y[:, near], p[:, near]
                assert (sde._step_length(y, p) == 1.0).all()
                gap = np.diff(y, axis=0)
                assert (np.diff(y + p, axis=0) >= 0.75 * gap).all()
                seen += near.sum()
        # every column is near at its last pass at least
        assert seen >= sum(a.shape[1] for a, _ in cases)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_far_unordered_targets_converge(self, n):
        # targets uniform on [0, spread sqrt(dt)], unordered, for spreads
        # from 1e-2 (one cluster) to 1e5 (far apart)
        rng = substream(64, n)
        for spread in 10.0 ** np.arange(-2, 6):
            a = spread * math.sqrt(self.DT) * rng.random((300, n))
            y, ok = sde.implicit_step(a, self.DT)
            assert ok.all(), spread
            assert (np.diff(y, axis=-1) > 0).all(), spread
