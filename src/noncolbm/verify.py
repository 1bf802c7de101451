"""Kolmogorov-Smirnov machinery, coordinate-marginal CDFs of a joint chamber
density (Gauss-Legendre marginal densities on a grid, summed by the
trapezoid rule), and the named statistical verification suites."""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, kolmogorov

from . import densities, haar, linalg, paths, sde
from .densities import MCEstimate
from .rng import substream

P_THRESHOLD = 0.01
_MARGINAL_NODES = 48   # Gauss-Legendre nodes per axis of a marginal's rule
# (times, scales): densities_suite compares the survival evaluators at each t
# and x = scale * (0, 1, ..., n - 1), n = 2, 3
SURVIVAL_GRID = ((0.25, 1.0, 4.0), (0.5, 1.0, 2.0))


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


def ks_one_sample(samples, cdf):
    """One-sample KS test against a callable CDF; asymptotic p-value."""
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    target = np.asarray(cdf(s), dtype=float)
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    d = float(max(np.abs(ecdf_hi - target).max(),
                  np.abs(target - ecdf_lo).max()))
    return KSResult(d, _ks_p(d, n), n)


def chamber_marginal_cdfs(joint, n, lo, hi, grid_points=801):
    """Coordinate-marginal CDFs of a joint chamber density.

    joint must accept a batch (M, n) and return its M values.  The marginal
    density of coordinate i at value v integrates the joint over the lower
    coordinates ordered below v and the upper coordinates ordered above v.
    Returns a list of callables (numpy-vectorized via interpolation on a
    grid of grid_points >= 2 values from lo < hi).

    The grid values are taken in blocks: joint is called once per block, on
    the rule's nodes mapped to each value of the block in turn, at most
    densities.QUAD_BLOCK rows in all.  A rule larger than that is built and
    evaluated for one value at a time in blocks of at most QUAD_BLOCK rows.
    Each value's density is the row sum of weights times joint values over
    its whole rule, summed as for a single value.
    """
    linalg.check_count("grid_points", grid_points)
    for name, bound in (("lo", lo), ("hi", hi)):
        if not math.isfinite(bound):
            raise ValueError("%s must be finite, got %r" % (name, bound))
    if not lo < hi:
        raise ValueError("need lo < hi, got lo=%r, hi=%r" % (lo, hi))
    vs = np.linspace(lo, hi, grid_points)
    block = densities.QUAD_BLOCK
    cdfs = []
    for i in range(n):
        # the product of the lower and upper rules on the unit chamber, with
        # coordinate i at 0; each v maps the lower coordinates by
        # lo + (v - lo) u, the upper ones by v + (hi - v) w, and coordinate i
        # to v, and scales the weights by the Jacobian of that map.  Row
        # a * nu + b pairs lower row a with upper row b, and a block of rows
        # is la whole upper rules or a range of lu rows of one
        nl, nu = _MARGINAL_NODES ** i, _MARGINAL_NODES ** (n - 1 - i)
        la, lu = (max(1, block // nu), nu) if nu <= block else (1, block)
        lower = np.arange(n) < i
        # the Jacobians by scalar powers, which call pow(); an array's ** 2
        # squares instead, and the two can differ in the last bit
        dens = np.array([(v - lo) ** i * (hi - v) ** (n - 1 - i)
                         for v in vs])
        step = max(1, block // (nl * nu))
        for k in range(0, grid_points, step):
            v = vs[k:k + step, None]
            shift = np.where(lower, lo, v)
            scale = np.where(lower, v - lo, hi - v)
            terms = np.empty((v.size, nl * nu))
            for a, b in itertools.product(range(0, nl, la), range(0, nu, lu)):
                if k == 0 or nl * nu > block:   # built once if it fits
                    lp, lw = densities.chamber_points(
                        i, 0.0, 1.0, _MARGINAL_NODES, a, a + la)
                    up, uw = densities.chamber_points(
                        n - 1 - i, 0.0, 1.0, _MARGINAL_NODES, b, b + lu)
                    unit = np.zeros((lw.size, uw.size, n))
                    unit[:, :, :i] = lp[:, None, :]
                    unit[:, :, i + 1:] = up[None, :, :]
                    wts = np.outer(lw, uw).ravel()
                pts = np.multiply(scale[:, None, :], unit.reshape(-1, n))
                pts += shift[:, None, :]
                r = a * nu + b
                terms[:, r:r + wts.size] = wts * joint(
                    pts.reshape(-1, n)).reshape(v.size, -1)
            dens[k:k + step] *= np.sum(terms, axis=1)
        cdf = _cumulative_trapezoid(dens, vs)
        cdfs.append(functools.partial(np.interp, xp=vs, fp=cdf / cdf[-1],
                                      left=0.0, right=1.0))
    return cdfs


def _cumulative_trapezoid(ys, xs):
    """Trapezoid-rule integrals of ys from xs[0] to each xs: scipy's
    cumulative_trapezoid(ys, xs, initial=0), the same expression in the same
    order."""
    return np.concatenate([[0.0], np.cumsum(
        np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0)])


def _report(suite, tests, allowed, **fields):
    """A suite's report: its fields, its tests, and whether no more than
    allowed of them failed."""
    n_fail = sum(1 for t in tests if not t["pass"])
    return {"suite": suite, **fields, "tests": tests, "failures": n_fail,
            "allowed_failures": allowed, "passed": n_fail <= allowed}


def _ks_entry(name, result):
    return {"name": name, "statistic": result.statistic,
            "p_value": result.p_value, "pass": result.p_value > P_THRESHOLD}


def marginals_suite(n=2, horizon=1.0, reps=10_000, seed=0, dt=None):
    """Eigenvalue marginals of the finite-horizon matrix process against
    states of the finite-horizon noncolliding SDE, plus the closed-form
    ensemble density at the horizon."""
    linalg.check_count("reps", reps)
    T = horizon
    cfg = sde.SDEConfig(n=n, horizon=T, dt=dt)
    res = sde.simulate_noncolliding(cfg, T, seed=seed, reps=reps)
    tests = []
    for idx, t in enumerate([T / 4, T / 2, 3 * T / 4, T]):
        ev = np.linalg.eigvalsh(
            paths.sample_xit_marginal(n, t, T, reps,
                                      substream(seed, 10_000 + idx)))
        st = res.at_time(t)
        tests += [_ks_entry(f"t={t:g} coord {i}",
                            ks_two_sample(st[:, i], ev[:, i]))
                  for i in range(n)]
        tests.append(_ks_entry(f"t={t:g} pooled", ks_two_sample(
            st.ravel(), ev.ravel(), n_eff=(reps, reps))))
    # closed-form check at the horizon
    lo, hi = -6.0 * math.sqrt(T), 6.0 * math.sqrt(T)
    cdfs = chamber_marginal_cdfs(
        lambda y: densities.eigenvalue_density("goe", y, T), n, lo, hi)
    st = res.at_time(T)
    tests += [_ks_entry(f"t=T coord {i} vs closed form",
                        ks_one_sample(st[:, i], cdfs[i]))
              for i in range(n)]
    return _report("marginals", tests, max(1, len(tests) // 10), n=n,
                   horizon=T, reps=reps, seed=seed,
                   failed_replicates=int(res.failed.sum()))


def imhof_suite(n=2, horizon=1.0, reps=10_000, seed=0, dt=None):
    """Reweighting identity between the finite-horizon law and the
    stationary-drift law: the Radon-Nikodym weight is a constant over the
    pairwise-difference product at the horizon."""
    linalg.check_count("reps", reps)
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
    w = const / linalg.vandermonde(y_end)

    norm = MCEstimate.of(w)
    tests = [{"name": "normalization", "value": norm.mean, "se": norm.se,
              "target": 1.0, "pass": abs(norm.mean - 1.0) <= 3 * norm.se}]

    functionals = {
        "midpoint gap indicator":
            lambda mid, end: (mid[:, -1] - mid[:, 0] > 1.0).astype(float),
        "smooth endpoint functional":
            lambda mid, end: np.exp(-np.sum(end * end, axis=1) / 4.0),
    }
    for name, phi in functionals.items():
        direct = MCEstimate.of(phi(x_mid, x_end))
        rew = MCEstimate.of(phi(y_mid, y_end) * w)
        joint = math.sqrt(direct.se ** 2 + rew.se ** 2)
        tests.append({"name": name, "direct": direct.mean,
                      "direct_se": direct.se, "reweighted": rew.mean,
                      "reweighted_se": rew.se,
                      "pass": abs(direct.mean - rew.mean) <= 3 * joint})
    return _report("imhof", tests, 0, n=n, horizon=T, reps=reps, seed=seed,
                   constant=const)


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
    return _report("hc", tests, max(1, len(tests) // 10), samples=samples,
                   seed=seed)


def densities_suite(seed=0, mc_samples=100_000):
    """Cross-checks among the survival evaluators and the closed-form
    density identities."""
    tests = []
    times, scales = SURVIVAL_GRID
    for n in (2, 3):
        base = np.arange(n, dtype=float)
        for i, t in enumerate(times):
            for j, scale in enumerate(scales):
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
    for t, gap in ((0.25, 0.5), (0.5, 1.0), (1.0, 2.0)):
        target = float(erf(gap / (2.0 * math.sqrt(t))))
        quad = densities.survival_quadrature(t, [0.0, gap], rel_tol=1e-9)
        tests.append({"name": f"survival closed form t={t} gap={gap}",
                      "quadrature": quad, "target": target,
                      "pass": abs(quad - target) <= 1e-6})
    # pointwise identities between two code paths: the origin forms of p and
    # of g at t = 0.7 (ensemble densities) against their general-start
    # formulas (Karlin-McGregor determinant, survival Pfaffians) from x of
    # spread 3e-4 about 0, at five points per n; the relative error at that
    # spread stays below 3e-5 (seeds 0-999), while at n = 4 the survival
    # ratio of g is off by 37-77%
    gen = substream(seed, 99)
    for n in (2, 3):
        x = 3e-4 * (np.arange(n) - (n - 1) / 2.0)
        for k in range(5):
            y = np.sort(gen.normal(size=n))
            while np.diff(y).min() < 1e-3:
                y = np.sort(gen.normal(size=n))
            pairs = {"p_origin": (
                densities.h_transform_density(0, None, 0.7, y),
                densities.h_transform_density(0, x, 0.7, y))}
            for T in (1.3, 2.0):
                pairs[f"g_origin T={T:g}"] = (
                    densities.finite_horizon_density(T, 0, None, 0.7, y),
                    densities.finite_horizon_density(T, 0, x, 0.7, y))
            rel = {key: abs(a - b) / a for key, (a, b) in pairs.items()}
            tests.append({"name": f"identities n={n} #{k}", **rel,
                          "pass": all(r <= 1e-4 for r in rel.values())})
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
    return _report("densities", tests, 0, seed=seed)


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
