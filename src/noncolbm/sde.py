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
replicates are solved together by Newton's method, each step cut to
_TO_BOUNDARY of the distance to the chamber wall where the wall is nearer
than the full step.  Since the objective divided by dt is self-concordant
(Nesterov & Nemirovskii, Interior-Point Polynomial Algorithms in Convex
Programming, SIAM 1994), a Newton decrement of at most 1/4 moves no gap
by more than a quarter of itself: the step is then whole, and a pass on
which every row's decrement is that small skips the cut.  Newton starts
from the two-particle solution of each adjacent gap, the root
G = (g + sqrt(g^2 + 8 dt)) / 2 of G = g + 2 dt / G, taken as
(s / 2) exp(asinh(g / s)) with s = sqrt(8 dt): with g = s sinh(u) the root
is (s / 2)(sinh(u) + cosh(u)), and no difference can cancel.  One
fixed-point sweep y <- a + dt D(y) then brings in the non-adjacent pairs
(skipped at N <= 2, where the pair start is exact; kept only on rows it
leaves strictly ordered).  It runs on a working set of the unconverged
rows that only shrinks, held coordinate-first, (n, m) with the batch axis
last, so that every operation runs along contiguous rows of the batch.
Each Newton system,
(I + dt L) p = -g with L the graph Laplacian of the weights
1 / (y_i - y_j)^2, is solved by Gaussian elimination without pivoting, in
place, for the whole working set at once: I + dt L is strictly diagonally
dominant (its diagonal 1 + dt sum_j w_ij exceeds its off-diagonal row sum
dt sum_j w_ij by 1), so no pivot is 0 and no multiplier exceeds 1.  A
simulate call draws every replicate from one RNG stream, so its paths
depend on the replicate count as well as on the seed.

The step's sums and tests along an axis go through the ufuncs' own reduce
(np.add.reduce, np.logical_and.reduce, np.maximum.reduce) and its tests
of a whole array through np.count_nonzero, not through the ndarray methods
.sum, .all, .any and .max: those are the same reductions behind a Python
wrapper (numpy/_core/_methods.py) that costs about a microsecond a call,
and a step of two Newton passes would make 16 of them.

The integrator carries the live replicates from step to step in the same
layout, one C-contiguous (n, m) array: each step builds its target
a = x + dt r(t, x) + sqrt(dt) z there and hands the drift and the implicit
step the (m, n) transposed view, which implicit_step takes without a copy.
While no replicate has failed nothing is gathered, scattered or copied
forward; a replicate that fails is frozen at its last state and leaves the
live set once.  States are stored only at the grid times a simulate call is
asked to record (all of them by default); the imhof and marginals suites
record the 2 and 4 times they read.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import densities, linalg, paths
from .rng import substream

_NEWTON_MAX_ITER = 50
# Stop once the Newton decrement of phi / dt, which is self-concordant, is
# below 1e-6: the last full step then leaves an error of order 1e-12 sqrt(dt).
_NEWTON_TOL = 1e-12
_TO_BOUNDARY = 0.99   # share of the distance to the chamber wall stepped
_EPS = np.finfo(float).eps


@dataclass
class SDEConfig:
    n: int
    horizon: float
    dt: float = None
    start: np.ndarray = None   # None: bootstrap from the origin

    def __post_init__(self):
        linalg.check_count("n", self.n, least=1)
        linalg.check_time(self.horizon, name="horizon")
        if self.dt is None:
            self.dt = self.horizon / 1024.0
        linalg.check_time(self.dt, name="dt")
        if self.start is not None:
            self.start = linalg.weyl_vector(self.start)
            if self.start.size != self.n:
                raise ValueError("start must have n = %d coordinates, got %d"
                                 % (self.n, self.start.size))


def _grid_index(grid, t):
    """Index of the time t in a grid.  Raises ValueError when t is not
    finite, lies outside [grid[0], grid[-1]] or is not one of its times
    (beyond rounding, 1e-9 of the grid's span)."""
    linalg.check_time(t, zero_ok=True)
    lo, hi = float(grid[0]), float(grid[-1])
    if not lo <= t <= hi:
        raise ValueError("t must lie in [%r, %r], got %r"
                         % (lo, hi, float(t)))
    k = int(np.argmin(np.abs(grid - t)))
    if abs(grid[k] - t) > 1e-9 * (hi - lo):
        raise ValueError("t = %r is not a grid time; the nearest is %r"
                         % (float(t), float(grid[k])))
    return k


@dataclass
class SimResult:
    times: np.ndarray    # (k,): the recorded grid times
    states: np.ndarray   # (reps, k, n); rows frozen after a failure
    failed: np.ndarray   # (reps,) bool
    grid: np.ndarray = None   # the whole time grid; None: that is times

    def at_time(self, t):
        """States of all replicates at the recorded grid time t.

        Raises ValueError when t is not finite, lies outside the grid's
        [grid[0], grid[-1]], is not one of its times (beyond rounding, 1e-9
        of the grid's span) or was not recorded, and when any replicate is
        flagged failed: a statistic of the survivors alone would be
        biased."""
        grid = self.times if self.grid is None else self.grid
        k = _grid_index(grid, t)
        j = int(np.argmin(np.abs(self.times - grid[k])))
        if self.times[j] != grid[k]:
            raise ValueError("t = %r was not recorded; the nearest recorded "
                             "time is %r" % (float(t), float(self.times[j])))
        n_failed = int(self.failed.sum())
        if n_failed:
            raise ValueError("%d of %d replicates failed; refusing to return "
                             "a filtered sample" % (n_failed, self.failed.size))
        return self.states[:, j, :]


def _diagonal(a):
    """The writable view (n, m) of the diagonals of a C-ordered stack
    (n, n, m), batch axis last."""
    n, _, m = a.shape
    return a.reshape(n * n, m)[::n + 1]


def _inverse_differences(x, out=None):
    """1 / (x_i - x_j) over a batch x (n, m), coordinate axis first: a stack
    (n, n, m), batch axis last, with 0 on the diagonal.  out, if given, is
    a C-ordered array of that shape to fill."""
    n, m = x.shape
    d = np.subtract(x[:, None], x,
                    out=np.empty((n, n, m)) if out is None else out)
    _diagonal(d)[:] = np.inf
    return np.divide(1.0, d, out=d)


def dyson_drift(x):
    """Pairwise repulsion sum_{j != i} 1 / (x_i - x_j), batched (m, n)."""
    return np.add.reduce(_inverse_differences(np.atleast_2d(x).T), 1).T


def _step_length(y, p):
    """Length of the Newton step p from each column of y (n, m): 1, or
    _TO_BOUNDARY of the distance to the chamber wall along p where the wall
    is nearer."""
    gap, dgap = np.diff(y, axis=0), np.diff(p, axis=0)
    with np.errstate(divide="ignore"):
        wall = np.where(dgap < 0, gap / -dgap, np.inf)
    return np.minimum(1.0, _TO_BOUNDARY * np.minimum.reduce(wall, 0,
                                                            initial=np.inf))


def _start(a, dt):
    """Strictly ordered Newton start for implicit_step, batched (n, m): the
    two-particle gaps of the module docstring with the mean of a, which
    they keep, then one sweep a + dt D(y) on each column it leaves strictly
    ordered (more sweeps overshoot on clustered rows; at N <= 2 the gaps
    are exact)."""
    n, s = a.shape[0], math.sqrt(8.0 * dt)
    gap = np.exp(np.arcsinh((a[1:] - a[:-1]) / s)) * (0.5 * s)
    y = np.zeros(a.shape)
    np.cumsum(gap, axis=0, out=y[1:])
    # the means as np.mean takes them, a sum divided by n
    y += np.add.reduce(a, 0) / n - np.add.reduce(y, 0) / n
    if n > 2:
        sweep = a + dt * np.add.reduce(_inverse_differences(y), 1)
        up = sweep[1:] > sweep[:-1]
        if np.count_nonzero(up) == up.size:
            return sweep
        y = np.where(np.logical_and.reduce(up, 0), sweep, y)
    return y


def _newton_system(y, a, dt):
    """The Newton systems of phi at y (n, m), and its gradients
    g = y - a - dt D(y) (n, m).  The systems are a stack (n + 1, n, m),
    batch axis last: the rows of the Hessian I + dt L, which fill the
    buffer of _inverse_differences, then the right side -g."""
    n, m = y.shape
    s = np.empty((n + 1, n, m))
    h = _inverse_differences(y, out=s[:n])
    g = np.subtract(y, a)
    g -= dt * np.add.reduce(h, 1)
    np.negative(g, out=s[n])
    h *= h
    diagonal = 1.0 + dt * np.add.reduce(h, 1)
    h *= -dt
    _diagonal(h)[:] = diagonal
    return s, g


def _solve(s):
    """Solve the systems h x = b of a stack s (n + 1, n, m), batch axis
    last, whose rows are those of a symmetric, strictly diagonally dominant
    h and then b, in place: returns the view s[n], then holding x.

    s is [h | b] transposed.  Gaussian elimination runs on it without
    pivoting, one loop over its columns (the rows of s) for the whole
    stack, dividing each pivot row by its pivot; back substitution then
    needs no division.  Strict diagonal dominance passes to every Schur
    complement, so no pivot is 0 and no multiplier exceeds 1 (Golub & Van
    Loan, Matrix Computations, 4th ed., section 3.4.10).  Every update's
    products go to one scratch array w, allocated once per call."""
    _, n, m = s.shape
    # out is passed by position: parsed as a keyword, it costs about as
    # much as the allocation it saves on 100-row batches
    w = np.empty((n, n - 1, m))
    for k in range(n - 1):
        s[k + 1:, k] /= s[k, k]
        t = s[k + 1:, k + 1:]
        np.subtract(t, np.multiply(s[k + 1:, k, None], s[k, k + 1:],
                                   w[:n - k, :n - k - 1]), t)
    x = s[n]
    x[n - 1] /= s[n - 1, n - 1]
    for k in range(n - 1, 0, -1):
        t = x[:k]
        np.subtract(t, np.multiply(s[k, :k], x[k], w[0, :k]), t)
    return x


def implicit_step(a, dt):
    """Solve y = a + dt * dyson_drift(y) for each row of a batch (m, n).

    y minimizes phi(y) = |y - a|^2 / 2 - dt sum_{i<j} ln(y_j - y_i), which
    is strictly convex on the Weyl chamber with Hessian I + dt L, L the graph
    Laplacian with weights w_ij = 1 / (y_i - y_j)^2.  The Newton working
    set is held coordinate-first, (n, m) with the batch axis last: the
    iterates, targets, tolerances and batch indices of the unconverged
    rows, compacted only when a row converges or turns non-finite, which is
    also when its iterate is written out; the batch indices are built when
    a row first leaves before the others.  Newton starts from _start.  Each
    pass builds the Hessians in the buffer (n, n, m) of the inverse
    differences (_newton_system) and solves them by _solve, elimination
    without pivoting: I + dt L is strictly diagonally dominant, its
    diagonal 1 + dt sum_j w_ij exceeding its off-diagonal row sum
    dt sum_j w_ij by 1.  Each step is the Newton step cut by _step_length
    short of the chamber wall, so every iterate is strictly ordered.
    Returns (y, converged); a row that ends non-finite or unconverged after
    the iteration cap has converged False.
    """
    m, n = a.shape
    a = np.ascontiguousarray(a.T)
    y = _start(a, dt)
    # the rounding floor of lam2: g = y - a - dt D(y) is known to about
    # eps times the size of its terms
    tol = dt * _NEWTON_TOL + (8.0 * n * _EPS * np.maximum.reduce(
        np.maximum(np.abs(a), np.abs(y)), 0, initial=0.0)) ** 2
    converged = np.zeros(m, dtype=bool)
    # rows: the batch indices of the working set, None while it is every row
    rows, ya, aa = None, y, a
    for _ in range(_NEWTON_MAX_ITER):
        if ya.shape[1] == 0:
            break
        s, g = _newton_system(ya, aa, dt)
        p = _solve(s)
        # squared Newton decrement
        lam2 = -np.add.reduce(np.multiply(g, p, out=g), 0)
        near = lam2 <= dt / 16.0
        if np.count_nonzero(near) == near.size:
            # every decrement of phi / dt at most 1/4: the whole step.  A
            # non-finite lam2 <= dt / 16 is -inf, which is also done
            ya += p
            done = leave = lam2 <= tol
        else:
            ya += _step_length(ya, p) * p
            finite = np.isfinite(lam2)
            done = finite & (lam2 <= tol)
            leave = done | ~finite
        n_leave = np.count_nonzero(leave)
        if n_leave == m and rows is None:
            return ya.T, done
        if n_leave:
            if rows is None:
                rows = np.arange(m)
            y[:, rows[leave]] = ya[:, leave]
            converged[rows[done]] = True
            stay = ~leave
            rows, ya, aa, tol = rows[stay], ya[:, stay], aa[:, stay], \
                tol[stay]
    if rows is None:   # no row left before the iteration cap
        return ya.T, converged
    y[:, rows] = ya   # the rows that reached the iteration cap
    return y.T, converged


def _integrate(cfg, t_end, seed, reps, remainder, bootstrap, record):
    """Paths of y = x + dt D(y) + dt remainder(t, x) + sqrt(dt) z on the grid
    of steps of about cfg.dt up to t_end, stored at the grid times record
    (every grid time if None); remainder takes and returns the live states
    coordinate-first, (n, m)."""
    linalg.check_time(t_end)
    linalg.check_count("reps", reps, least=1)
    steps = max(1, int(round(t_end / cfg.dt)))
    # np.linspace(0.0, t_end, steps + 1) by its own formula, without its
    # Python wrapper
    grid = np.arange(steps + 1) * (t_end / steps)
    grid[-1] = t_end
    if record is None:
        keep = np.arange(steps + 1)
    else:
        record = [float(t) for t in record]
        keep = np.array([_grid_index(grid, t) for t in record], dtype=int)
        if keep.size == 0 or (np.diff(keep) <= 0).any():
            raise ValueError("record must hold increasing grid times, each "
                             "once, got %r" % (record,))
    slot = np.full(steps + 1, -1)
    slot[keep] = np.arange(keep.size)
    gen = substream(seed)
    states = np.empty((reps, keep.size, cfg.n))
    failed = np.zeros(reps, dtype=bool)
    # x holds the live replicates coordinate-first, (n, m); rows, their
    # indices, and frozen, the last state of each failed replicate, stay
    # None until a replicate fails
    rows = frozen = None

    def store(k):
        j = slot[k]
        if j < 0:
            return
        if rows is None:
            states[:, j] = x.T
        else:
            states[:, j] = frozen
            states[rows, j] = x.T

    if cfg.start is None:
        x = np.zeros((cfg.n, reps))
        store(0)
        # exact draw at the first grid time; the drift is singular at 0
        x = np.ascontiguousarray(bootstrap(grid[1], reps, gen).T)
        k0 = 1
    else:
        x = np.repeat(cfg.start[:, None], reps, axis=1)
        k0 = 0
    store(k0)

    for k in range(k0, steps):
        t = grid[k]
        dt = grid[k + 1] - t
        z = gen.normal(size=(reps, cfg.n))
        if x.shape[1]:
            a = x + dt * remainder(t, x)
            a += math.sqrt(dt) * (z if rows is None else z[rows]).T
            y, ok = implicit_step(a.T, dt)
            if np.count_nonzero(ok) < ok.size:
                if rows is None:
                    rows, frozen = np.arange(reps), np.empty((reps, cfg.n))
                frozen[rows[~ok]] = x[:, ~ok].T
                failed[rows[~ok]] = True
                rows, y = rows[ok], y[ok]
            x = np.ascontiguousarray(y.T)
        store(k + 1)
    return SimResult(grid[keep], states, failed, grid)


def simulate_dyson(cfg, t_end, seed, reps=1, record=None):
    """Paths of the repulsive-drift diffusion up to t_end, stored at the
    grid times record (every grid time if None)."""
    def bootstrap(t1, reps, gen):
        return np.linalg.eigvalsh(paths.sample_gue(cfg.n, t1, reps, gen))

    return _integrate(cfg, t_end, seed, reps, lambda t, x: 0.0, bootstrap,
                      record)


def simulate_noncolliding(cfg, t_end, seed, reps=1, record=None):
    """Paths of the finite-horizon noncolliding system up to t_end <= T,
    stored at the grid times record (every grid time if None)."""
    T = cfg.horizon
    if t_end > T + 1e-12:
        raise ValueError("t_end must not exceed the horizon")

    def remainder(t, x):
        # bounded near collisions, where the log-survival gradient is
        # dominated by the pairwise repulsion
        x = x.T
        return (densities.survival_log_gradient(T - t, x)
                - dyson_drift(x)).T

    def bootstrap(t1, reps, gen):
        return np.linalg.eigvalsh(
            paths.sample_xit_marginal(cfg.n, t1, T, reps, gen))

    return _integrate(cfg, t_end, seed, reps, remainder, bootstrap, record)
