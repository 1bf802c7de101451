import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.stats import beta, norm

from noncolbm import densities, verify
from noncolbm.rng import substream


class TestKSTwoSample:
    def test_same_distribution_passes(self):
        rng = substream(80)
        r = verify.ks_two_sample(rng.normal(size=3000),
                                 rng.normal(size=3000))
        assert r.p_value > 0.01

    def test_shifted_distribution_fails(self):
        rng = substream(81)
        r = verify.ks_two_sample(rng.normal(size=3000),
                                 rng.normal(size=3000) + 0.3)
        assert r.p_value < 1e-6

    def test_identical_samples_statistic_zero(self):
        a = np.arange(100, dtype=float)
        r = verify.ks_two_sample(a, a)
        assert r.statistic == 0.0
        assert r.p_value == pytest.approx(1.0)

    def test_n_eff_override_reduces_significance(self):
        # pooling dependent coordinates must not inflate the sample size
        rng = substream(82)
        a = rng.normal(size=4000)
        b = rng.normal(size=4000)
        full = verify.ks_two_sample(a, b)
        damped = verify.ks_two_sample(a, b, n_eff=(1000, 1000))
        assert damped.p_value >= full.p_value


class TestKSOneSample:
    def test_normal_against_normal(self):
        r = verify.ks_one_sample(substream(83).normal(size=5000), norm.cdf)
        assert r.p_value > 0.01

    def test_wrong_scale_rejected(self):
        samples = 2.0 * substream(84).normal(size=5000)
        r = verify.ks_one_sample(samples, norm.cdf)
        assert r.p_value < 1e-6

    def test_p_values_roughly_uniform_under_null(self):
        # calibration: under the null the p-value is itself uniform
        trials, size = 200, 500
        pvals = np.array([
            verify.ks_one_sample(substream(85, k).normal(size=size),
                                 norm.cdf).p_value
            for k in range(trials)])
        meta = verify.ks_one_sample(pvals, lambda v: np.clip(v, 0.0, 1.0))
        assert meta.p_value > 1e-3
        assert 0.05 < (pvals < 0.1).mean() < 0.2

    def test_power_against_shift(self):
        for k in range(20):
            samples = substream(86, k).normal(size=500) + 0.5
            assert verify.ks_one_sample(samples, norm.cdf).p_value < 0.01


class TestMarginalCDFs:
    def test_n1_recovers_gaussian(self):
        t = 1.3
        cdfs = verify.chamber_marginal_cdfs(
            lambda y: densities.eigenvalue_density("gue", y, t),
            1, -8.0, 8.0)
        vs = np.linspace(-3.0, 3.0, 13)
        np.testing.assert_allclose(cdfs[0](vs),
                                   norm.cdf(vs / np.sqrt(t)), atol=1e-4)

    @pytest.mark.parametrize("n", [2, 3])
    def test_uniform_order_statistics_are_beta(self, n):
        # n uniforms on (lo, hi): the joint density of the ordered sample is
        # n! / (hi - lo)^n, and coordinate i is Beta(i + 1, n - i) distributed
        lo, hi = -1.0, 3.0
        cdfs = verify.chamber_marginal_cdfs(
            lambda y: np.full(len(y), math.factorial(n) / (hi - lo) ** n),
            n, lo, hi)
        vs = np.linspace(lo, hi, 201)
        for i, cdf in enumerate(cdfs):
            np.testing.assert_allclose(
                cdf(vs), beta.cdf((vs - lo) / (hi - lo), i + 1, n - i),
                rtol=0, atol=1e-5)

    @pytest.mark.parametrize("lo, hi, grid_points, match", [
        *(pytest.param(-7.0, 7.0, g, r"need at least 2 grid_points \(an "
                       r"integer\), got %r" % (g,),
                       id="-7.0-7.0-%r-at least 2" % (g,))
          for g in (1, 0, 2.5)),
        (1.0, 1.0, 11, "need lo < hi"),
        (2.0, -2.0, 11, "need lo < hi"),
    ])
    def test_refuses_an_empty_grid(self, lo, hi, grid_points, match):
        with pytest.raises(ValueError, match=match):
            verify.chamber_marginal_cdfs(
                lambda y: densities.eigenvalue_density("goe", y, 1.0),
                2, lo, hi, grid_points=grid_points)

    # an infinite bound made a NaN grid and died in a RuntimeWarning
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lo, hi, match", [
        (-math.inf, 1.0, "lo must be finite, got -inf"),
        (math.nan, 1.0, "lo must be finite, got nan"),
        (0.0, math.inf, "hi must be finite, got inf"),
        (-math.inf, math.inf, "lo must be finite, got -inf"),
    ])
    def test_refuses_an_infinite_bound(self, lo, hi, match):
        with pytest.raises(ValueError, match=match):
            verify.chamber_marginal_cdfs(lambda y: np.ones(len(y)), 1,
                                         lo, hi, 5)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("grid_points", [5, 15, 801])
    def test_trapezoid_sum_is_scipys(self, monkeypatch, n, grid_points):
        # each marginal density the CDFs integrate gives scipy's
        # cumulative_trapezoid bits
        calls = []
        trapezoid = verify._cumulative_trapezoid
        monkeypatch.setattr(verify, "_cumulative_trapezoid",
                            lambda ys, xs: calls.append((ys, xs))
                            or trapezoid(ys, xs))
        verify.chamber_marginal_cdfs(
            lambda y: densities.eigenvalue_density("goe", y, 1.0),
            n, -7.0, 7.0, grid_points=grid_points)
        assert len(calls) == n
        for ys, xs in calls:
            assert trapezoid(ys, xs).tobytes() == cumulative_trapezoid(
                ys, xs, initial=0.0).tobytes()

    @pytest.mark.parametrize("budget", [None, 100])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("grid_points", [5, 15, 801])
    def test_blocks_match_one_value_per_call(self, monkeypatch, budget, n,
                                             grid_points):
        # blocks of grid values give the marginal densities and CDFs of one
        # joint call per value bit for bit; a budget of 100 rows leaves a
        # partial last block at n = 1, 2 and is below the n = 3 rule
        if budget is not None:
            monkeypatch.setattr(densities, "QUAD_BLOCK", budget)
        lo, hi = -0.75, 0.75

        def joint(y):
            return densities.finite_horizon_density(1.0, 0, None, 1 / 64, y)

        dens = []
        trapezoid = verify._cumulative_trapezoid
        monkeypatch.setattr(verify, "_cumulative_trapezoid",
                            lambda ys, xs: dens.append(ys)
                            or trapezoid(ys, xs))
        cdfs = verify.chamber_marginal_cdfs(joint, n, lo, hi, grid_points)
        vs = np.linspace(lo, hi, grid_points)
        for i, ref in enumerate(_densities_one_value_per_call(
                joint, n, lo, hi, vs)):
            assert dens[i].tobytes() == ref.tobytes()
            cdf = trapezoid(ref, vs)
            assert cdfs[i](vs).tobytes() == (cdf / cdf[-1]).tobytes()

    @pytest.mark.parametrize("budget", [None, 100, 5000])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_joint_rows_bounded_by_budget(self, monkeypatch, budget, n):
        if budget is not None:
            monkeypatch.setattr(densities, "QUAD_BLOCK", budget)
        rule = verify._MARGINAL_NODES ** (n - 1)
        rows = []

        def joint(y):
            rows.append(len(y))
            return densities.eigenvalue_density("goe", y, 1.0)

        verify.chamber_marginal_cdfs(joint, n, -7.0, 7.0, grid_points=15)
        assert max(rows) <= densities.QUAD_BLOCK
        assert sum(rows) == n * 15 * rule
        if densities.QUAD_BLOCK >= 2 * rule:
            assert len(rows) < n * 15

    def test_n4_rule_in_blocks(self, monkeypatch):
        # one value's n = 4 rule has 48^3 = 110 592 rows, 18 times
        # QUAD_BLOCK: it is built and evaluated in blocks, and the marginal
        # densities are those of one joint call per value bit for bit
        lo, hi, grid_points = -7.0, 7.0, 5
        rows, dens = [], []

        def joint(y):
            rows.append(len(y))
            return densities.eigenvalue_density("goe", y, 1.0)

        trapezoid = verify._cumulative_trapezoid
        monkeypatch.setattr(verify, "_cumulative_trapezoid",
                            lambda ys, xs: dens.append(ys)
                            or trapezoid(ys, xs))
        tracemalloc.start()
        try:
            verify.chamber_marginal_cdfs(joint, 4, lo, hi, grid_points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert max(rows) <= densities.QUAD_BLOCK
        assert sum(rows) == 4 * grid_points * verify._MARGINAL_NODES ** 3
        vs = np.linspace(lo, hi, grid_points)
        for i, ref in enumerate(_densities_one_value_per_call(
                joint, 4, lo, hi, vs)):
            assert dens[i].tobytes() == ref.tobytes()

    def test_goe_marginals_monotone_and_normalized(self):
        cdfs = verify.chamber_marginal_cdfs(
            lambda y: densities.eigenvalue_density("goe", y, 1.0),
            2, -7.0, 7.0, grid_points=401)
        vs = np.linspace(-7.0, 7.0, 200)
        for c in cdfs:
            vals = c(vs)
            assert np.all(np.diff(vals) >= -1e-12)
            assert vals[0] == pytest.approx(0.0, abs=1e-6)
            assert vals[-1] == pytest.approx(1.0, abs=1e-6)

    def test_goe_marginals_reflection_symmetry(self):
        # the ordered pair is symmetric under x -> -x with coordinates
        # swapped, so F_min(v) = 1 - F_max(-v)
        cdfs = verify.chamber_marginal_cdfs(
            lambda y: densities.eigenvalue_density("goe", y, 1.0),
            2, -7.0, 7.0, grid_points=401)
        vs = np.linspace(-3.0, 3.0, 25)
        np.testing.assert_allclose(cdfs[0](vs), 1.0 - cdfs[1](-vs),
                                   atol=2e-3)


def _densities_one_value_per_call(joint, n, lo, hi, vs):
    """The marginal densities of chamber_marginal_cdfs with one joint call
    per grid value v: the lower coordinates mapped by lo + (v - lo) u, the
    upper ones by v + (hi - v) w, the weights scaled by the Jacobian."""
    out = []
    for i in range(n):
        lp, lw = densities.chamber_points(i, 0.0, 1.0,
                                          verify._MARGINAL_NODES)
        up, uw = densities.chamber_points(n - 1 - i, 0.0, 1.0,
                                          verify._MARGINAL_NODES)
        unit = np.zeros((lw.size, uw.size, n))
        unit[:, :, :i] = lp[:, None, :]
        unit[:, :, i + 1:] = up[None, :, :]
        unit = unit.reshape(-1, n)
        wts = np.outer(lw, uw).ravel()
        lower = np.arange(n) < i
        dens = np.empty(vs.size)
        for k, v in enumerate(vs):
            shift = np.where(lower, lo, v)
            scale = np.where(lower, v - lo, hi - v)
            jac = (v - lo) ** i * (hi - v) ** (n - 1 - i)
            dens[k] = jac * float(np.sum(wts * joint(shift + scale * unit)))
        out.append(dens)
    return out


class TestSuites:
    def test_hc_suite_passes(self):
        report = verify.hc_suite(samples=20_000, seed=90)
        assert report["passed"]
        assert report["failures"] <= report["allowed_failures"]
        assert len(report["tests"]) == 7

    @pytest.mark.parametrize("suite", [verify.imhof_suite,
                                       verify.marginals_suite])
    def test_suite_rejects_one_replicate(self, suite):
        # a standard error needs two replicates
        with pytest.raises(ValueError, match=r"need at least 2 reps "
                           r"\(an integer\), got 1"):
            suite(n=2, horizon=1.0, reps=1, seed=0)

    def test_imhof_suite_passes(self):
        report = verify.imhof_suite(n=2, horizon=1.0, reps=4_000, seed=92,
                                    dt=1.0 / 512)
        assert report["passed"]

    def test_density_identities_have_power(self, monkeypatch):
        # each identity compares an origin form (an ensemble density) with a
        # general-start formula (Karlin-McGregor determinant and survival
        # Pfaffians): scaling the ensemble densities by 1 + 1e-3 must fail
        # every one of them
        def passes(report):
            return [t["pass"] for t in report["tests"]
                    if t["name"].startswith("identities")]

        report = verify.densities_suite(seed=1, mc_samples=2000)
        assert passes(report) and all(passes(report))
        density = densities._ensemble_density
        monkeypatch.setattr(densities, "_ensemble_density",
                            lambda *a: (1.0 + 1e-3) * density(*a))
        report = verify.densities_suite(seed=1, mc_samples=2000)
        assert passes(report) and not any(passes(report))
        # each of p and g fails on its own, not only their conjunction
        for t in report["tests"]:
            if t["name"].startswith("identities"):
                assert min(t[key] for key in ("p_origin", "g_origin T=1.3",
                                              "g_origin T=2")) > 1e-4

    def test_marginals_suite_structure(self):
        report = verify.marginals_suite(n=2, horizon=1.0, reps=2_000,
                                        seed=93, dt=1.0 / 256)
        assert {"suite", "tests", "failures", "allowed_failures",
                "passed"} <= set(report)
        assert report["passed"]


class TestRetry:
    def test_pass_first_time_no_retry(self):
        calls = []

        def suite(seed):
            calls.append(seed)
            return {"passed": True, "seed": seed}

        report = verify.run_suite_with_retry(suite, 7)
        assert calls == [7]
        assert "retried" not in report

    def test_flaky_suite_green_on_retry(self):
        def suite(seed):
            return {"passed": seed != 7, "seed": seed}

        report = verify.run_suite_with_retry(suite, 7)
        assert report["passed"]
        assert report["retried"]
        assert report["first_attempt"]["seed"] == 7

    def test_persistent_failure_stays_red(self):
        def suite(seed):
            return {"passed": False, "seed": seed}

        report = verify.run_suite_with_retry(suite, 7)
        assert not report["passed"]
        assert report["retried"]
