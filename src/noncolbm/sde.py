"""Euler-Maruyama integrators for the repulsive-drift diffusion of ordered
particles and for its finite-horizon variant whose drift is the gradient of
the log survival probability.  Replicates are integrated in a vectorized
batch; each replicate owns a deterministic RNG substream."""

import math
from dataclasses import dataclass

import numpy as np

from . import densities, paths
from .rng import substream


@dataclass
class SDEConfig:
    n: int
    horizon: float
    dt: float = None
    start: np.ndarray = None   # None: bootstrap from the origin
    eps_gap: float = 1e-8
    max_halvings: int = 20

    def __post_init__(self):
        if self.dt is None:
            self.dt = self.horizon / 1024.0
        if self.dt <= 0 or self.eps_gap <= 0:
            raise ValueError("dt and eps_gap must be positive")
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
        """States of the surviving replicates at the grid time closest to t."""
        k = int(np.argmin(np.abs(self.times - t)))
        return self.states[~self.failed, k, :]


def dyson_drift(x):
    """Pairwise repulsion sum_{j != i} 1 / (x_i - x_j), batched (m, n)."""
    x = np.atleast_2d(x)
    n = x.shape[-1]
    if n == 1:
        return np.zeros_like(x)
    diff = x[:, :, None] - x[:, None, :]
    np.einsum("mii->mi", diff)[:] = np.inf
    return (1.0 / diff).sum(axis=2)


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


def _ordered_ok(y, eps):
    return np.all(np.diff(y, axis=-1) >= eps, axis=-1)


def _overshoot(x, b, dt):
    """True where the drift increment is large relative to the smallest gap
    (stepping there would overshoot the repulsive singularity)."""
    if x.shape[-1] == 1:
        return np.zeros(x.shape[:-1], dtype=bool)
    gap = np.diff(x, axis=-1).min(axis=-1)
    return np.abs(b).max(axis=-1) * dt > 0.5 * gap


def _retry_step(x, t, dt, drift_fn, gen, eps, depth):
    """Integrate one step for a single replicate by recursive halving."""
    if depth < 0:
        return None
    b = drift_fn(t, x[None, :])[0]
    if not _overshoot(x[None, :], b[None, :], dt)[0]:
        y = x + b * dt + math.sqrt(dt) * gen.normal(size=x.size)
        if _ordered_ok(y, eps):
            return y
    half = dt / 2.0
    mid = _retry_step(x, t, half, drift_fn, gen, eps, depth - 1)
    if mid is None:
        return None
    return _retry_step(mid, t + half, half, drift_fn, gen, eps, depth - 1)


def _integrate(cfg, t_end, seed, reps, drift_fn, bootstrap_fn):
    steps = max(1, int(round(t_end / cfg.dt)))
    times = np.linspace(0.0, t_end, steps + 1)
    gens = [substream(seed, r) for r in range(reps)]
    states = np.zeros((reps, steps + 1, cfg.n))
    failed = np.zeros(reps, dtype=bool)

    if cfg.start is None:
        # exact draw at the first grid time; the drift is singular at 0
        first = bootstrap_fn(times[1], gens)
        states[:, 1, :] = first
        k0 = 1
    else:
        states[:, 0, :] = cfg.start
        first = np.tile(cfg.start, (reps, 1))
        k0 = 0

    # pre-drawn per-replicate noise; retry draws continue each substream
    noise = np.stack([g.normal(size=(steps, cfg.n)) for g in gens])

    x = first.copy()
    for k in range(k0, steps):
        t = times[k]
        dt = times[k + 1] - t
        live = ~failed
        b = drift_fn(t, x[live])
        z = noise[live, k, :]
        y = x[live] + b * dt + math.sqrt(dt) * z
        ok = _ordered_ok(y, cfg.eps_gap) & ~_overshoot(x[live], b, dt)
        if not np.all(ok):
            live_idx = np.nonzero(live)[0]
            for pos in np.nonzero(~ok)[0]:
                r = live_idx[pos]
                fixed = _retry_step(x[r], t, dt, drift_fn, gens[r],
                                    cfg.eps_gap, cfg.max_halvings)
                if fixed is None:
                    failed[r] = True
                else:
                    y[pos] = fixed
        x[live] = y
        states[:, k + 1, :] = x
        states[failed, k + 1, :] = states[failed, k, :]
    return SimResult(times, states, failed)


def simulate_dyson(cfg, t_end, seed, reps=1):
    """Paths of the repulsive-drift diffusion up to t_end."""
    def bootstrap(t1, gens):
        out = np.empty((len(gens), cfg.n))
        for r, g in enumerate(gens):
            out[r] = np.linalg.eigvalsh(paths.sample_gue(cfg.n, t1, 1, g)[0])
        return out

    return _integrate(cfg, t_end, seed, reps,
                      lambda t, x: dyson_drift(x), bootstrap)


def simulate_noncolliding(cfg, t_end, seed, reps=1):
    """Paths of the finite-horizon noncolliding system up to t_end <= T."""
    T = cfg.horizon
    if t_end > T + 1e-12:
        raise ValueError("t_end must not exceed the horizon")

    def drift(t, x):
        return _drift_bT_batch(t, x, T)

    def bootstrap(t1, gens):
        out = np.empty((len(gens), cfg.n))
        for r, g in enumerate(gens):
            m = paths.sample_xit_marginal(cfg.n, t1, T, 1, g)[0]
            out[r] = np.linalg.eigvalsh(m)
        return out

    return _integrate(cfg, t_end, seed, reps, drift, bootstrap)
