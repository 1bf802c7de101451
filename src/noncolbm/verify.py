"""Kolmogorov-Smirnov machinery, marginal CDFs obtained by quadrature of the
joint chamber densities, and the named statistical verification suites."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import kolmogorov
from scipy.integrate import cumulative_trapezoid

from . import densities, haar, paths, sde
from .rng import substream

P_THRESHOLD = 0.01


@dataclass(frozen=True)
class KSResult:
    statistic: float
    p_value: float
    n1: int
    n2: int = 0  # 0 for one-sample tests


def _ks_p(d, n_eff):
    return float(kolmogorov(math.sqrt(n_eff) * d))


def ks_two_sample(a, b, n_eff=None):
    """Two-sample KS test; asymptotic p-value.

    n_eff overrides the effective sample sizes, e.g. when pooled coordinates
    of n_eff independent replicates are compared."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n1, n2 = a.size, b.size
    allv = np.concatenate([a, b])
    cdf1 = np.searchsorted(a, allv, side="right") / n1
    cdf2 = np.searchsorted(b, allv, side="right") / n2
    d = float(np.abs(cdf1 - cdf2).max())
    if n_eff is None:
        m1, m2 = n1, n2
    else:
        m1, m2 = n_eff
    en = m1 * m2 / (m1 + m2)
    return KSResult(d, _ks_p(d, en), n1, n2)


def ks_one_sample(samples, cdf, n_eff=None):
    """One-sample KS test against a callable CDF; asymptotic p-value."""
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    target = np.asarray(cdf(s), dtype=float)
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    d = float(max(np.abs(ecdf_hi - target).max(),
                  np.abs(target - ecdf_lo).max()))
    ne = n if n_eff is None else n_eff
    return KSResult(d, _ks_p(d, ne), n)


def chamber_marginal_cdfs(joint, n, lo, hi, grid_points=801, nodes=48):
    """Coordinate-marginal CDFs of a joint chamber density.

    joint must accept a batch (M, n).  The marginal density of coordinate i
    at value v integrates the joint over the lower coordinates ordered below
    v and the upper coordinates ordered above v.  Returns a list of callables
    (numpy-vectorized via interpolation on a dense grid).
    """
    vs = np.linspace(lo, hi, grid_points)
    cdfs = []
    for i in range(n):
        dens = np.empty(grid_points)
        for k, v in enumerate(vs):
            if i > 0:
                lp, lw = densities.chamber_points(i, lo, v, nodes)
            else:
                lp, lw = np.zeros((1, 0)), np.ones(1)
            if i < n - 1:
                up, uw = densities.chamber_points(n - 1 - i, v, hi, nodes)
            else:
                up, uw = np.zeros((1, 0)), np.ones(1)
            pts = np.concatenate([
                np.repeat(lp, up.shape[0], axis=0),
                np.full((lp.shape[0] * up.shape[0], 1), v),
                np.tile(up, (lp.shape[0], 1)),
            ], axis=1)
            wts = np.repeat(lw, uw.shape[0]) * np.tile(uw, lw.shape[0])
            dens[k] = float(np.sum(wts * joint(pts)))
        cdf_vals = cumulative_trapezoid(dens, vs, initial=0.0)
        total = cdf_vals[-1]
        cdf_vals = cdf_vals / total
        cdfs.append(_interp_cdf(vs, cdf_vals))
    return cdfs


def _interp_cdf(xs, ys):
    def cdf(v):
        return np.interp(v, xs, ys, left=0.0, right=1.0)
    return cdf


def pooled_cdf(cdfs):
    """Average of coordinate CDFs: CDF of a coordinate chosen uniformly."""
    def cdf(v):
        return sum(c(v) for c in cdfs) / len(cdfs)
    return cdf


def _summarize(tests):
    n_fail = sum(1 for t in tests if not t["pass"])
    allowed = max(1, len(tests) // 10)
    return n_fail, allowed


def marginals_suite(n=2, horizon=1.0, times=None, reps=10_000, seed=0,
                    dt=None):
    """Eigenvalue marginals of the finite-horizon matrix process against
    states of the finite-horizon noncolliding SDE, plus the closed-form
    ensemble density at the horizon."""
    T = horizon
    if times is None:
        times = [T / 4, T / 2, 3 * T / 4, T]
    cfg = sde.SDEConfig(n=n, horizon=T, dt=dt)
    res = sde.simulate_noncolliding(cfg, T, seed=seed, reps=reps)
    tests = []
    for idx, t in enumerate(times):
        ev = np.linalg.eigvalsh(
            paths.sample_xit_marginal(n, t, T, reps,
                                      substream(seed, 10_000 + idx)))
        st = res.at_time(t)
        for i in range(n):
            r = ks_two_sample(st[:, i], ev[:, i])
            tests.append({"name": f"t={t:g} coord {i}",
                          "statistic": r.statistic, "p_value": r.p_value,
                          "pass": r.p_value > P_THRESHOLD})
        r = ks_two_sample(st.ravel(), ev.ravel(), n_eff=(reps, reps))
        tests.append({"name": f"t={t:g} pooled", "statistic": r.statistic,
                      "p_value": r.p_value,
                      "pass": r.p_value > P_THRESHOLD})
    # closed-form check at the horizon
    lo, hi = -6.0 * math.sqrt(T), 6.0 * math.sqrt(T)
    cdfs = chamber_marginal_cdfs(
        lambda y: densities.eigenvalue_density("goe", y, T), n, lo, hi)
    st = res.at_time(T)
    for i in range(n):
        r = ks_one_sample(st[:, i], cdfs[i])
        tests.append({"name": f"t=T coord {i} vs closed form",
                      "statistic": r.statistic, "p_value": r.p_value,
                      "pass": r.p_value > P_THRESHOLD})
    n_fail, allowed = _summarize(tests)
    return {"suite": "marginals", "n": n, "horizon": T, "reps": reps,
            "seed": seed, "failed_replicates": int(res.failed.sum()),
            "tests": tests, "failures": n_fail, "allowed_failures": allowed,
            "passed": n_fail <= allowed}


def imhof_suite(n=2, horizon=1.0, reps=10_000, seed=0, dt=None):
    """Reweighting identity between the finite-horizon law and the
    stationary-drift law: the Radon-Nikodym weight is a constant over the
    pairwise-difference product at the horizon."""
    T = horizon
    c = densities.constants(n)
    const = c.c1 * T ** (n * (n - 1) / 4.0) / c.c2
    cfg = sde.SDEConfig(n=n, horizon=T, dt=dt)
    res_y = sde.simulate_dyson(cfg, T, seed=seed, reps=reps)
    res_x = sde.simulate_noncolliding(cfg, T, seed=seed + 1, reps=reps)
    y_end = res_y.at_time(T)
    y_mid = res_y.at_time(T / 2)
    x_end = res_x.at_time(T)
    x_mid = res_x.at_time(T / 2)
    w = const / densities.vandermonde_batch(y_end)

    tests = []

    def mc(v):
        return float(np.mean(v)), float(np.std(v, ddof=1) / math.sqrt(len(v)))

    norm_mean, norm_se = mc(w)
    tests.append({"name": "normalization", "value": norm_mean,
                  "se": norm_se, "target": 1.0,
                  "pass": abs(norm_mean - 1.0) <= 3 * norm_se})

    functionals = {
        "midpoint gap indicator":
            lambda mid, end: (mid[:, -1] - mid[:, 0] > 1.0).astype(float),
        "smooth endpoint functional":
            lambda mid, end: np.exp(-np.sum(end * end, axis=1) / 4.0),
    }
    for name, phi in functionals.items():
        direct, direct_se = mc(phi(x_mid, x_end))
        rew_vals = phi(y_mid, y_end) * w
        rew, rew_se = mc(rew_vals)
        joint = math.sqrt(direct_se ** 2 + rew_se ** 2)
        tests.append({"name": name, "direct": direct, "direct_se": direct_se,
                      "reweighted": rew, "reweighted_se": rew_se,
                      "pass": abs(direct - rew) <= 3 * joint})
    n_fail = sum(1 for t in tests if not t["pass"])
    return {"suite": "imhof", "n": n, "horizon": T, "reps": reps,
            "seed": seed, "constant": const, "tests": tests,
            "failures": n_fail, "allowed_failures": 0,
            "passed": n_fail == 0}


def hc_suite(samples=100_000, seed=0):
    """Monte Carlo versus determinant form of the unitary-group Gaussian
    integral on a grid of queries."""
    queries = [
        (1, [0.0], [1.0], 1.0),
        (2, [0.0, 1.0], [0.0, 1.0], 1.0),
        (2, [-1.0, 0.5], [0.0, 2.0], 0.5),
        (2, [-0.3, 0.8], [-1.0, 1.0], 2.0),
        (3, [-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], 1.0),
        (3, [-1.5, -0.2, 1.1], [0.0, 0.7, 2.0], 2.0),
        (3, [-0.8, 0.1, 0.9], [-1.2, 0.3, 1.4], 0.5),
    ]
    tests = []
    for idx, (n, x, y, sig) in enumerate(queries):
        est = haar.hc_monte_carlo(x, y, sig, samples, substream(seed, idx))
        rhs = haar.hc_closed_form(x, y, sig)
        if n == 1:
            ok = abs(est.mean - rhs) <= 1e-12
        else:
            ok = abs(est.mean - rhs) <= 3 * est.se
        tests.append({"name": f"n={n} sigma={sig} #{idx}", "lhs": est.mean,
                      "se": est.se, "rhs": rhs,
                      "z": (est.mean - rhs) / est.se if est.se else 0.0,
                      "pass": ok})
    n_fail, allowed = _summarize(tests)
    return {"suite": "hc", "samples": samples, "seed": seed, "tests": tests,
            "failures": n_fail, "allowed_failures": allowed,
            "passed": n_fail <= allowed}


def densities_suite(seed=0, mc_samples=100_000):
    """Cross-checks among the survival evaluators and the closed-form
    density identities."""
    from scipy.special import erf
    tests = []
    # survival consistency on a 3 x 3 grid for n = 2, 3
    for n in (2, 3):
        base = np.arange(n, dtype=float)
        for i, t in enumerate((0.25, 1.0, 4.0)):
            for j, scale in enumerate((0.5, 1.0, 2.0)):
                x = base * scale
                pf = densities.survival_pfaffian(t, x)
                quad = densities.survival_quadrature(t, x)
                mc = densities.survival_montecarlo(
                    t, x, samples=mc_samples,
                    rng=substream(seed, n, i, j))
                ok = (abs(pf - quad) <= 1e-4
                      and abs(pf - mc.mean) <= 3 * mc.se
                      and abs(quad - mc.mean) <= 3 * mc.se)
                tests.append({"name": f"survival n={n} t={t} scale={scale}",
                              "pfaffian": pf, "quadrature": quad,
                              "mc": mc.mean, "mc_se": mc.se, "pass": ok})
    # n=2 closed form
    for t, gap in ((0.5, 1.0), (1.0, 2.0)):
        target = float(erf(gap / (2.0 * math.sqrt(t))))
        quad = densities.survival_quadrature(t, [0.0, gap], rel_tol=1e-9)
        tests.append({"name": f"survival closed form t={t} gap={gap}",
                      "quadrature": quad, "target": target,
                      "pass": abs(quad - target) <= 1e-6})
    # pointwise density identities
    gen = substream(seed, 99)
    for n in (2, 3, 4):
        y = np.sort(gen.normal(size=n))
        while np.diff(y).min() < 1e-3:
            y = np.sort(gen.normal(size=n))
        t = 0.7
        p = densities.h_transform_density(0, None, t, y)
        gue = densities.eigenvalue_density("gue", y, t)
        g = densities.finite_horizon_density(2.0, 0, None, 2.0, y)
        goe = densities.eigenvalue_density("goe", y, 2.0)
        tests.append({"name": f"identities n={n}", "p_vs_gue": abs(p - gue),
                      "g_vs_goe": abs(g - goe),
                      "pass": abs(p - gue) <= 1e-10 * max(1.0, abs(gue))
                      and abs(g - goe) <= 1e-10 * max(1.0, abs(goe))})
    # chamber normalizations
    for n in (2, 3):
        span = 8.0
        pn = densities.chamber_integrate(
            lambda y: densities.h_transform_density(0, None, 1.0, y),
            n, -span, span)
        gn = densities.chamber_integrate(
            lambda y: densities.eigenvalue_density("goe", y, 1.0),
            n, -span, span)
        tests.append({"name": f"normalization n={n}", "p_mass": pn,
                      "goe_mass": gn,
                      "pass": abs(pn - 1) <= 1e-4 and abs(gn - 1) <= 1e-4})
    n_fail = sum(1 for t in tests if not t["pass"])
    return {"suite": "densities", "seed": seed, "tests": tests,
            "failures": n_fail, "allowed_failures": 0,
            "passed": n_fail == 0}


def run_suite_with_retry(suite_fn, seed, **kwargs):
    """Run a statistical suite; on failure re-run once with a fresh seed.
    Red only if both runs fail."""
    first = suite_fn(seed=seed, **kwargs)
    if first["passed"]:
        return first
    second = suite_fn(seed=seed + 777_001, **kwargs)
    second["first_attempt"] = first
    second["retried"] = True
    return second
