"""End-to-end acceptance gate.

Each test covers one numbered criterion at its stated tolerance and prints a
single PASS line on success; statistical criteria use the suite retry
discipline (a failed suite is re-run once with a fresh seed and is red only
if both runs fail).
"""

import json
import math

import numpy as np
import pytest

from noncolbm import densities, haar, linalg, sde, verify
from noncolbm.rng import substream

SEED = 20260823


def _report(tag):
    print(f"{tag}: PASS")


class TestCriterion1HCIdentity:
    def test_hc_identity(self):
        report = verify.run_suite_with_retry(verify.hc_suite, SEED,
                                             samples=100_000)
        assert report["passed"], report
        # the query grid covers N in {2, 3} with >= 6 entries and the exact
        # N=1 case at machine precision
        ns = [int(t["name"].split()[0].split("=")[1])
              for t in report["tests"]]
        assert sum(1 for n in ns if n in (2, 3)) >= 6
        assert 1 in ns
        # pinned value of the determinant side
        pinned = haar.hc_closed_form([0.0, 1.0], [0.0, 1.0], 1.0)
        assert pinned == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
        _report("criterion 1 (group-integral identity)")


class TestCriterion2EigenvalueLaw:
    @pytest.mark.parametrize("n", [2, 3])
    def test_sde_matches_matrix_eigenvalues(self, n):
        report = verify.run_suite_with_retry(
            verify.marginals_suite, SEED + n, n=n, horizon=1.0, reps=10_000)
        assert report["passed"], report
        _report(f"criterion 2 (finite-horizon eigenvalue law, N={n})")


class TestCriterion3ImhofRelation:
    def test_reweighting_identity(self):
        report = verify.run_suite_with_retry(
            verify.imhof_suite, SEED, n=2, horizon=1.0, reps=10_000)
        assert report["passed"], report
        names = [t["name"] for t in report["tests"]]
        assert "normalization" in names
        assert len(names) == 3
        _report("criterion 3 (reweighting identity)")


@pytest.fixture(scope="module")
def densities_report():
    """The densities suite, which owns criteria 4 and 5."""
    return verify.run_suite_with_retry(verify.densities_suite, SEED,
                                       mc_samples=100_000)


def _named_tests(report, prefix, count):
    """The report's tests whose names start with prefix; there must be
    count of them, and every one must pass."""
    tests = [t for t in report["tests"] if t["name"].startswith(prefix)]
    assert len(tests) == count, [t["name"] for t in report["tests"]]
    assert all(t["pass"] for t in tests), tests
    return tests


class TestCriterion4SurvivalConsistency:
    def test_three_evaluators_agree(self, densities_report):
        # Pfaffian, quadrature and Monte Carlo on the 3 x 3 (t, scale) grid
        # at n = 2, 3, and the n = 2 closed form at three (t, gap)
        assert densities_report["passed"], densities_report
        _named_tests(densities_report, "survival n=", 18)
        names = {t["name"] for t in _named_tests(
            densities_report, "survival closed form", 3)}
        assert "survival closed form t=0.25 gap=0.5" in names
        _report("criterion 4 (survival-probability consistency)")


class TestCriterion5DensityIdentities:
    def test_pointwise_identities(self, densities_report):
        # five points per n = 2, 3, 4; g at the horizons 1.3 and 2.0
        for t in _named_tests(densities_report, "identities", 15):
            assert {"g_vs_goe T=1.3", "g_vs_goe T=2"} <= set(t)

    def test_chamber_normalizations(self, densities_report):
        _named_tests(densities_report, "normalization", 2)
        _report("criterion 5 (density identities)")


class TestCriterion6Convolution:
    def test_n1_variance_addition_exact(self):
        for T, t in ((1.0, 0.3), (2.0, 0.7), (5.0, 4.0)):
            sigma2, alpha = haar.interpolation_scales(T, t)
            assert abs(sigma2 + 1.0 / alpha - t) <= 1e-12
            h = 0.4
            target = linalg.heat_kernel(t, 0.0, h)
            quad = haar.convolution_quadrature(1, T, t, np.array([[h]]),
                                               rel_tol=1e-10)
            assert abs(quad - target) <= 1e-8 * target

    def test_n2_mc_matches_quadrature(self):
        # evaluated at scalar multiples of the identity, where the
        # orthogonally invariant average collapses to the closed form
        points = [(0.4, 0.0), (0.5, 0.5), (0.7, -0.3)]
        quads = [haar.convolution_quadrature(2, 1.0, t, c * np.eye(2))
                 for t, c in points]

        def attempt(seed):
            ok = True
            for idx, ((t, c), quad) in enumerate(zip(points, quads)):
                mc = haar.convolution_mc(2, 1.0, t, c * np.eye(2), 100_000,
                                         substream(seed, 6, idx))
                ok = ok and abs(mc.mean - quad) <= 3 * mc.se
            return {"passed": ok}

        assert verify.run_suite_with_retry(attempt, SEED)["passed"]
        _report("criterion 6 (ensemble convolution identity)")


class TestCriterion7DysonFidelity:
    def test_gap_second_moment_and_marginal(self):
        t_end, reps = 1.0, 10_000
        cfg = sde.SDEConfig(n=2, horizon=t_end, dt=t_end / 2048)
        cdfs = verify.chamber_marginal_cdfs(
            lambda y: densities.eigenvalue_density("gue", y, t_end),
            2, -6.0, 6.0)

        def attempt(seed):
            res = sde.simulate_dyson(cfg, t_end, seed=seed, reps=reps)
            ok = True
            for t in (0.5, 1.0):
                st = res.at_time(t)
                gap2 = (st[:, 1] - st[:, 0]) ** 2
                se = gap2.std(ddof=1) / math.sqrt(len(gap2))
                ok = ok and abs(gap2.mean() - 6.0 * t) <= 3 * se
            st = res.at_time(t_end)
            for i in range(2):
                r = verify.ks_one_sample(st[:, i], cdfs[i])
                ok = ok and r.p_value > 0.01
            return {"passed": ok}

        assert verify.run_suite_with_retry(attempt, SEED)["passed"]
        _report("criterion 7 (repulsive-drift SDE fidelity)")


class TestCriterion8NumericalKernels:
    def test_pfaffian_squares(self):
        rng = substream(SEED, 8)
        for k in range(100):
            n = int(rng.choice([2, 4, 6, 8]))
            b = rng.normal(size=(n, n))
            a = b - b.T
            pf = linalg.pfaffian(a)
            det = np.linalg.det(a)
            assert pf * pf == pytest.approx(det, rel=1e-8)

    def test_eigen_residuals(self):
        rng = substream(SEED, 88)
        for n in (2, 4, 6):
            b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = (b + b.conj().T) / 2
            lam, vec = np.linalg.eigh(h)
            scale = np.linalg.norm(h, 2)
            for i in range(n):
                res = np.linalg.norm(h @ vec[:, i] - lam[i] * vec[:, i])
                assert res <= 1e-9 * scale

    def test_haar_first_moments(self):
        m = 100_000
        for n in (2, 3):
            u = haar.haar_unitary(n, substream(SEED, 888, n), size=m)
            v = np.abs(u[:, 0, 0]) ** 2
            se = v.std(ddof=1) / math.sqrt(m)
            assert abs(v.mean() - 1.0 / n) <= 3 * se
        _report("criterion 8 (numerical kernels)")


class TestCriterion9Determinism:
    def test_suites_bitwise_reproducible(self):
        def dump(report):
            return json.dumps(report, sort_keys=True, default=repr)

        a = verify.hc_suite(samples=20_000, seed=SEED)
        b = verify.hc_suite(samples=20_000, seed=SEED)
        assert dump(a) == dump(b)
        a = verify.imhof_suite(n=2, horizon=1.0, reps=2_000, seed=SEED,
                               dt=1.0 / 512)
        b = verify.imhof_suite(n=2, horizon=1.0, reps=2_000, seed=SEED,
                               dt=1.0 / 512)
        assert dump(a) == dump(b)
        a = verify.densities_suite(seed=SEED, mc_samples=20_000)
        b = verify.densities_suite(seed=SEED, mc_samples=20_000)
        assert dump(a) == dump(b)
        _report("criterion 9 (bitwise determinism)")
