"""Semi-implicit Euler-Maruyama integrators for the repulsive-drift diffusion
of ordered particles and for its finite-horizon variant, whose drift is the
gradient of the log survival probability.

A step treats the pairwise repulsion D(y)_i = sum_{j != i} 1 / (y_i - y_j)
implicitly and the rest r of the drift explicitly:

    y = x + dt D(y) + dt r(t, x) + sqrt(dt) z.

D is the gradient of the concave sum_{i<j} ln(y_j - y_i), so y is the unique
minimizer of a strictly convex function on the Weyl chamber and never
leaves it (Ngo & Taguchi, "Semi-implicit Euler-Maruyama approximation for
noncolliding particle systems", Ann. Appl. Probab. 30, 2020).  All live
replicates are solved together by damped Newton.  A simulate call draws
every replicate from one RNG stream, so its paths depend on the replicate
count as well as on the seed.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import densities, paths
from .rng import substream

_NEWTON_MAX_ITER = 50
# Stop once the Newton decrement of _phi / dt, which is self-concordant, is
# below 1e-6: the last full step then leaves an error of order 1e-12 sqrt(dt).
_NEWTON_TOL = 1e-12
_ARMIJO = 1e-4
_MAX_HALVINGS = 50
_TO_BOUNDARY = 0.99   # share of the distance to the chamber wall stepped


@dataclass
class SDEConfig:
    n: int
    horizon: float
    dt: float = None
    start: np.ndarray = None   # None: bootstrap from the origin

    def __post_init__(self):
        if self.dt is None:
            self.dt = self.horizon / 1024.0
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.start is not None:
            self.start = np.asarray(self.start, dtype=float)
            if np.any(np.diff(self.start) <= 0):
                raise ValueError("start point must be strictly ordered")


@dataclass
class SimResult:
    times: np.ndarray    # (K+1,)
    states: np.ndarray   # (reps, K+1, n); rows frozen after a failure
    failed: np.ndarray   # (reps,) bool

    def at_time(self, t):
        """States of all replicates at the grid time closest to t.

        Raises ValueError when any replicate is flagged failed: a statistic
        of the survivors alone would be biased."""
        n_failed = int(self.failed.sum())
        if n_failed:
            raise ValueError("%d of %d replicates failed; refusing to return "
                             "a filtered sample" % (n_failed, self.failed.size))
        k = int(np.argmin(np.abs(self.times - t)))
        return self.states[:, k, :]


def _inverse_differences(x):
    """1 / (x_i - x_j) over a batch (m, n, n), with 0 on the diagonal."""
    diff = x[:, :, None] - x[:, None, :]
    np.einsum("mii->mi", diff)[:] = np.inf
    return 1.0 / diff


def dyson_drift(x):
    """Pairwise repulsion sum_{j != i} 1 / (x_i - x_j), batched (m, n)."""
    return np.einsum("mij->mi", _inverse_differences(np.atleast_2d(x)))


def _drift_bT_batch(t, x, T):
    """Exact gradient of ln survival(T - t, .), batched (m, n)."""
    return densities.survival_log_gradient(T - t, x)


def drift_bT(t, x, T):
    """Drift of the finite-horizon system at time t and state x."""
    if t >= T:
        raise ValueError("drift is only defined for t < T")
    x = np.asarray(x, dtype=float)
    if np.any(np.diff(x) <= 0):
        raise ValueError("state must be strictly ordered")
    return _drift_bT_batch(t, x[None, :], T)[0]


def _phi(y, a, dt):
    """|y - a|^2 / 2 - dt sum_{i<j} ln(y_j - y_i), batched (m, n)."""
    iu, ju = np.triu_indices(y.shape[-1], 1)
    return (0.5 * ((y - a) ** 2).sum(-1)
            - dt * np.log(y[:, ju] - y[:, iu]).sum(-1))


def _backtrack(y, a, p, lam2, dt):
    """Damped Newton update of each row of y along p.  The step starts at
    the largest that keeps every gap positive (shrunk by _TO_BOUNDARY, at
    most 1) and is halved until _phi falls by the Armijo share of the
    decrement.  A row with no such step within the cap stays where it is."""
    gap, dgap = np.diff(y, axis=-1), np.diff(p, axis=-1)
    with np.errstate(divide="ignore"):
        wall = np.where(dgap < 0, gap / -dgap, np.inf)
    s = np.minimum(1.0, _TO_BOUNDARY * wall.min(-1, initial=np.inf))
    f0 = _phi(y, a, dt)
    out = y.copy()
    rows = np.arange(y.shape[0])
    for _ in range(_MAX_HALVINGS):
        trial = y[rows] + s[rows, None] * p[rows]
        with np.errstate(invalid="ignore"):
            good = _phi(trial, a[rows], dt) \
                <= f0[rows] - _ARMIJO * s[rows] * lam2[rows]
        out[rows[good]] = trial[good]
        rows = rows[~good]
        if rows.size == 0:
            break
        s[rows] *= 0.5
    return out


def _pair_start(a, dt):
    """Strictly ordered start for implicit_step: each adjacent gap solves
    the two-particle equation G = g + 2 dt / G for its gap g in a (exact at
    N = 2), and the mean is that of a, which the solution keeps."""
    g = np.diff(a, axis=-1)
    r = np.hypot(g, math.sqrt(8.0 * dt))
    gap = np.where(g > 0, 0.5 * (g + r), 4.0 * dt / (r - g))   # no cancelling
    c = np.concatenate([np.zeros(a.shape[:-1] + (1,)),
                        np.cumsum(gap, axis=-1)], axis=-1)
    return a.mean(-1, keepdims=True) + c - c.mean(-1, keepdims=True)


def implicit_step(a, dt):
    """Solve y = a + dt * dyson_drift(y) for each row of a batch (m, n).

    y minimizes _phi(y) = |y - a|^2 / 2 - dt sum_{i<j} ln(y_j - y_i), which
    is strictly convex on the Weyl chamber with Hessian I + dt L, L the graph
    Laplacian with weights 1 / (y_i - y_j)^2.  Newton starts from
    _pair_start and solves the stack of Newton systems of all unconverged
    rows at once; every iterate is strictly ordered and lowers _phi.
    Returns (y, converged); a row that ends non-finite or unconverged after
    the iteration cap has converged False.
    """
    m, n = a.shape
    y = _pair_start(a, dt)
    # the rounding floor of lam2: g = y - a - dt D(y) is known to about
    # eps times the size of its terms
    tol = dt * _NEWTON_TOL + (8.0 * n * np.finfo(float).eps * np.maximum(
        np.abs(a), np.abs(y)).max(-1, initial=0.0)) ** 2
    converged = np.zeros(m, dtype=bool)
    active = np.arange(m)
    for _ in range(_NEWTON_MAX_ITER):
        ya, aa = y[active], a[active]
        inv = _inverse_differences(ya)
        g = ya - aa - dt * np.einsum("mij->mi", inv)
        w = inv * inv
        h = -dt * w
        np.einsum("mii->mi", h)[:] = 1.0 + dt * np.einsum("mij->mi", w)
        p = np.linalg.solve(h, -g[..., None])[..., 0]
        lam2 = -(g * p).sum(-1)   # squared Newton decrement
        # Inside the quadratic-convergence region (decrement of _phi / dt,
        # which is self-concordant, at most 1/4) the full step stays in the
        # chamber and lowers _phi; it is taken without a line search, which
        # rounding in _phi would stall near the solution.
        full = ya + p
        take = (lam2 <= dt / 16.0) & (np.diff(full, axis=-1) > 0).all(-1)
        y[active[take]] = full[take]
        done = take & (lam2 <= tol[active])
        converged[active[done]] = True
        finite = np.isfinite(lam2)
        damp = finite & ~take
        if damp.any():
            y[active[damp]] = _backtrack(ya[damp], aa[damp], p[damp],
                                         lam2[damp], dt)
        active = active[finite & ~done]
        if active.size == 0:
            break
    return y, converged


def _integrate(cfg, t_end, seed, reps, remainder, bootstrap):
    steps = max(1, int(round(t_end / cfg.dt)))
    times = np.linspace(0.0, t_end, steps + 1)
    gen = substream(seed)
    states = np.zeros((reps, steps + 1, cfg.n))
    failed = np.zeros(reps, dtype=bool)

    if cfg.start is None:
        # exact draw at the first grid time; the drift is singular at 0
        states[:, 1, :] = bootstrap(times[1], reps, gen)
        k0 = 1
    else:
        states[:, 0, :] = cfg.start
        k0 = 0

    for k in range(k0, steps):
        t = times[k]
        dt = times[k + 1] - t
        z = gen.normal(size=(reps, cfg.n))
        states[:, k + 1, :] = states[:, k, :]
        live = np.nonzero(~failed)[0]
        if live.size == 0:
            continue
        x = states[live, k, :]
        y, ok = implicit_step(
            x + dt * remainder(t, x) + math.sqrt(dt) * z[live], dt)
        states[live[ok], k + 1, :] = y[ok]
        failed[live[~ok]] = True
    return SimResult(times, states, failed)


def simulate_dyson(cfg, t_end, seed, reps=1):
    """Paths of the repulsive-drift diffusion up to t_end."""
    def bootstrap(t1, reps, gen):
        return np.linalg.eigvalsh(paths.sample_gue(cfg.n, t1, reps, gen))

    return _integrate(cfg, t_end, seed, reps, lambda t, x: 0.0, bootstrap)


def simulate_noncolliding(cfg, t_end, seed, reps=1):
    """Paths of the finite-horizon noncolliding system up to t_end <= T."""
    T = cfg.horizon
    if t_end > T + 1e-12:
        raise ValueError("t_end must not exceed the horizon")

    def remainder(t, x):
        # bounded near collisions, where the log-survival gradient is
        # dominated by the pairwise repulsion
        return _drift_bT_batch(t, x, T) - dyson_drift(x)

    def bootstrap(t1, reps, gen):
        return np.linalg.eigvalsh(
            paths.sample_xit_marginal(cfg.n, t1, T, reps, gen))

    return _integrate(cfg, t_end, seed, reps, remainder, bootstrap)
