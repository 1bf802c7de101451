"""Closed-form transition densities for ordered Brownian particles and the
Gaussian matrix ensembles, plus the no-collision survival probability with
three independent evaluation strategies (Pfaffian, quadrature, Monte Carlo).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, gammaln
from numpy.polynomial.legendre import leggauss

from . import linalg
from .rng import as_generator

QUAD_MAX_DIM = 4


@dataclass(frozen=True)
class NormalizationConstants:
    n: int
    c1: float
    c2: float
    c3: float
    c4: float


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    se: float
    samples: int


def constants(n):
    """Normalization constants for the N-particle / N x N densities."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    lg1 = sum(gammaln(j) for j in range(1, n + 1))
    lg2 = sum(gammaln(j / 2.0) for j in range(1, n + 1))
    c1 = (2.0 * math.pi) ** (n / 2.0) * math.exp(lg1)
    c2 = 2.0 ** (n / 2.0) * math.exp(lg2)
    c3 = 2.0 ** (n / 2.0) * math.pi ** (n * n / 2.0)
    c4 = 2.0 ** (n / 2.0) * math.pi ** (n * (n + 1) / 4.0)
    return NormalizationConstants(n, c1, c2, c3, c4)


def vandermonde_batch(y):
    """Product of pairwise differences for a batch of vectors (..., N)."""
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    if n < 2:
        return np.ones(y.shape[:-1])
    iu, ju = np.triu_indices(n, k=1)
    return np.prod(y[..., ju] - y[..., iu], axis=-1)


def transition_density(t, x, y):
    """Karlin-McGregor determinant density of N ordered absorbed paths.

    x is the (strictly ordered) start; y may be a batch (..., N).
    """
    if t <= 0:
        raise ValueError("time must be positive")
    x = linalg.weyl_vector(x, strict=True)
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != x.size:
        raise ValueError("dimension mismatch between start and end points")
    kernel = linalg.heat_kernel(t, x[None, :], y[..., :, None])
    return np.linalg.det(kernel)


def _pairs(t, xs):
    """Index pairs i < j of a batch xs (..., N) and the scaled gaps
    u_ij = (x_j - x_i) / (2 sqrt t) at those pairs, shape (..., N(N-1)/2)."""
    iu, ju = np.triu_indices(xs.shape[-1], k=1)
    return iu, ju, (xs[..., ju] - xs[..., iu]) / (2.0 * math.sqrt(t))


def _erf_matrix(t, xs):
    """Antisymmetric matrix erf(u_ij) for a batch xs (..., N).  Odd N is
    bordered to even dimension with a row/column of the wide-separation entry
    value 1 (erf at infinity after calibration)."""
    n = xs.shape[-1]
    iu, ju, u = _pairs(t, xs)
    v = erf(u)
    e = np.zeros(xs.shape[:-1] + (n + n % 2,) * 2)
    e[..., iu, ju] = v
    e[..., ju, iu] = -v
    if n % 2 == 1:
        e[..., :n, n] = 1.0
        e[..., n, :n] = -1.0
    return e


def _pfaffian(e):
    """Pfaffian of each matrix of a stack (..., m, m) of even dimension."""
    m = e.shape[-1]
    # the 2 x 2 and 4 x 4 closed forms are cheaper than the reduction
    if m == 2:
        return e[..., 0, 1]
    if m == 4:
        return (e[..., 0, 1] * e[..., 2, 3]
                - e[..., 0, 2] * e[..., 1, 3]
                + e[..., 0, 3] * e[..., 1, 2])
    return linalg.pfaffian(e, tol=1e-9)


def survival_pfaffian(t, x):
    """No-collision probability via the Pfaffian of the erf-entry matrix.

    Odd N is handled by bordering (see _erf_matrix).  Vectorized over a
    batch of start vectors (..., N).  t == 0 returns 1 for strict input.
    """
    xs = np.asarray(x, dtype=float)
    n = xs.shape[-1]
    if n == 1:
        return np.ones(xs.shape[:-1]) if xs.ndim > 1 else 1.0
    if t < 0:
        raise ValueError("time must be nonnegative")
    if t == 0:
        out = np.ones(xs.shape[:-1])
        return out if xs.ndim > 1 else float(out)
    pf = _pfaffian(_erf_matrix(t, xs))
    return pf if xs.ndim > 1 else float(pf)


# Complex step: Pf(A + i h D) = Pf(A) + i h dPf(A)[D] + O(h^2), and at this
# h the O(h^2) term lies far below rounding (Martins, Sturdza & Alonso,
# "The complex-step derivative approximation", ACM TOMS 29, 2003).
_COMPLEX_STEP = 1e-100


def survival_log_gradient(t, x):
    """Gradient in x of ln survival_pfaffian(t, x), batched over (..., N).

    The entry A_ij = erf(u_ij), i < j, of the erf matrix A depends on x_i
    and x_j only: d_i A_ij = -G_ij and d_j A_ij = +G_ij with G_ij =
    exp(-u_ij^2) / sqrt(pi t).  d_k ln Pf(A) = dPf(A)[d_k A] / Pf(A) is
    taken by complex step, with the N Pfaffians of A + i h d_k A in one
    batch.  This differentiates the pivoted reduction itself; the explicit
    inverse in 1/2 tr(A^-1 d_k A) loses all accuracy once five or more
    particles cluster within a small fraction of sqrt(t), where A is
    ill-conditioned.
    """
    xs = np.asarray(x, dtype=float)
    n = xs.shape[-1]
    if t <= 0:
        raise ValueError("time must be positive")
    if n == 1:
        return np.zeros_like(xs)
    e = _erf_matrix(t, xs)
    iu, ju, u = _pairs(t, xs)
    g = np.exp(-u * u) / math.sqrt(math.pi * t)
    d = np.zeros(xs.shape[:-1] + (n,) + e.shape[-2:])   # d[..., k] = d_k A
    d[..., iu, iu, ju] = d[..., ju, ju, iu] = -g   # d_i A_ij, d_j A_ji
    d[..., ju, iu, ju] = d[..., iu, ju, iu] = g    # d_j A_ij, d_i A_ji
    pf = _pfaffian(e[..., None, :, :] + 1j * _COMPLEX_STEP * d)
    return pf.imag / (_COMPLEX_STEP * pf.real)


@functools.lru_cache(maxsize=32)
def _legendre_rule(n_nodes):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per node
    count and shared read-only."""
    u, w = leggauss(n_nodes)
    u.flags.writeable = w.flags.writeable = False
    return u, w


def chamber_points(n_dim, lo, hi, n_nodes):
    """Tensor-product Gauss-Legendre nodes/weights on the truncated chamber
    {lo < y_1 < ... < y_n < hi}.  Returns (points (M, n), weights (M,))."""
    u, w = _legendre_rule(n_nodes)
    pts = np.zeros((1, 0))
    wts = np.ones(1)
    upper = np.array([float(hi)])
    for _ in range(n_dim):
        half = 0.5 * (upper - lo)
        y = lo + half[:, None] * (u[None, :] + 1.0)
        wnew = wts[:, None] * half[:, None] * w[None, :]
        pts = np.concatenate(
            [np.repeat(pts, n_nodes, axis=0), y.reshape(-1, 1)], axis=1)
        wts = wnew.reshape(-1)
        upper = y.reshape(-1)
    return pts[:, ::-1], wts


def chamber_integrate(func, n_dim, lo, hi, rel_tol=1e-6, start_nodes=24,
                      max_nodes=200):
    """Adaptive nested Gauss-Legendre integral of func over the truncated
    chamber.  func must accept a batch of points (M, n_dim)."""
    if n_dim > QUAD_MAX_DIM:
        raise ValueError("chamber quadrature supported for dimension <= %d"
                         % QUAD_MAX_DIM)
    nodes = start_nodes
    pts, wts = chamber_points(n_dim, lo, hi, nodes)
    last = float(np.sum(wts * func(pts)))
    while nodes < max_nodes:
        nodes = min(max_nodes, 2 * nodes)
        pts, wts = chamber_points(n_dim, lo, hi, nodes)
        cur = float(np.sum(wts * func(pts)))
        if abs(cur - last) <= rel_tol * max(abs(cur), 1e-300):
            return cur
        last = cur
    raise RuntimeError("chamber quadrature did not converge "
                       "(last two estimates %g, %g)" % (last, cur))


def _chamber_box(t, x):
    x = np.asarray(x, dtype=float)
    pad = 8.0 * math.sqrt(t)
    return float(x.min() - pad), float(x.max() + pad)


def survival_quadrature(t, x, rel_tol=1e-6):
    """No-collision probability by direct chamber quadrature of the
    Karlin-McGregor density (N <= 4)."""
    x = linalg.weyl_vector(x, strict=True)
    if x.size > QUAD_MAX_DIM:
        raise ValueError("quadrature survival limited to N <= %d"
                         % QUAD_MAX_DIM)
    if x.size == 1:
        return 1.0
    lo, hi = _chamber_box(t, x)
    return chamber_integrate(lambda y: transition_density(t, x, y),
                             x.size, lo, hi, rel_tol=rel_tol)


def survival_montecarlo(t, x, samples=100_000, steps=200, rng=None):
    """No-collision probability by simulating N independent Brownian paths.

    Each discrete step is weighted by the exact bridge non-crossing
    probability of every adjacent gap, which removes most of the
    discretization bias.
    """
    x = linalg.weyl_vector(x, strict=True)
    n = x.size
    if n == 1:
        return MCEstimate(1.0, 0.0, samples)
    gen = as_generator(rng)
    dt = t / steps
    pos = np.tile(x, (samples, 1))
    weight = np.ones(samples)
    for _ in range(steps):
        new = pos + gen.normal(size=(samples, n)) * math.sqrt(dt)
        a = np.diff(pos, axis=1)
        b = np.diff(new, axis=1)
        alive = (b > 0).all(axis=1) & (weight > 0)
        # gap processes have variance rate 2; bridge hit prob exp(-ab/dt)
        cross = np.exp(-np.clip(a * b, 0.0, None) / dt)
        weight = np.where(alive, weight * np.prod(1.0 - cross, axis=1), 0.0)
        pos = new
    mean = float(weight.mean())
    se = float(weight.std(ddof=1) / math.sqrt(samples))
    return MCEstimate(mean, se, samples)


def survival_probability(t, x, method="pfaffian", samples=100_000, steps=200,
                         rng=None, rel_tol=1e-6):
    """Probability that N Brownian particles started at ordered x keep their
    order up to time t.  method is one of pfaffian / quadrature / montecarlo;
    the Monte Carlo variant returns an MCEstimate."""
    if method == "pfaffian":
        return survival_pfaffian(t, linalg.weyl_vector(x, strict=True))
    if method == "quadrature":
        return survival_quadrature(t, x, rel_tol=rel_tol)
    if method == "montecarlo":
        return survival_montecarlo(t, x, samples=samples, steps=steps,
                                   rng=rng)
    raise ValueError("unknown survival method %r" % (method,))


def h_transform_density(s, x, t, y):
    """Transition density of Brownian particles conditioned never to collide.

    Start at the origin with (s, x) = (0, None); otherwise x must be strictly
    ordered.  y may be a batch (..., N)."""
    if not t > s:
        raise ValueError("need t > s")
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    if x is None:
        if s != 0:
            raise ValueError("origin start requires s = 0")
        c = constants(n)
        h = vandermonde_batch(y)
        val = (t ** (-n * n / 2.0) / c.c1
               * np.exp(-np.sum(y * y, axis=-1) / (2.0 * t)) * h * h)
        return val if y.ndim > 1 else float(val)
    x = linalg.weyl_vector(x, strict=True)
    hx = linalg.vandermonde(x)
    val = transition_density(t - s, x, y) * vandermonde_batch(y) / hx
    return val if y.ndim > 1 else float(val)


def finite_horizon_density(T, s, x, t, y):
    """Transition density of particles conditioned not to collide on (0, T].

    Start at the origin with (s, x) = (0, None).  y may be a batch (..., N).
    The survival factors use the fast Pfaffian evaluator.
    """
    if t > T:
        raise ValueError("need t <= T")
    if not t > s:
        raise ValueError("need t > s")
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    surv_y = survival_pfaffian(T - t, y)
    if x is None:
        if s != 0:
            raise ValueError("origin start requires s = 0")
        c = constants(n)
        h = vandermonde_batch(y)
        val = (T ** (n * (n - 1) / 4.0) * t ** (-n * n / 2.0) / c.c2
               * np.exp(-np.sum(y * y, axis=-1) / (2.0 * t)) * h * surv_y)
        return val if y.ndim > 1 else float(val)
    x = linalg.weyl_vector(x, strict=True)
    surv_x = survival_pfaffian(T - s, x)
    val = transition_density(t - s, x, y) * surv_y / surv_x
    return val if y.ndim > 1 else float(val)


def eigenvalue_density(kind, x, t):
    """Eigenvalue density of the Gaussian ensembles at variance scale t.

    kind is "gue" or "goe"; x may be a batch (..., N) of ordered vectors.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    c = constants(n)
    h = vandermonde_batch(x)
    gauss = np.exp(-np.sum(x * x, axis=-1) / (2.0 * t))
    kind = kind.lower()
    if kind == "gue":
        val = t ** (-n * n / 2.0) / c.c1 * gauss * h * h
    elif kind == "goe":
        val = t ** (-n * (n + 1) / 4.0) / c.c2 * gauss * h
    else:
        raise ValueError("kind must be 'gue' or 'goe'")
    return val if x.ndim > 1 else float(val)


def matrix_density(kind, M, t):
    """Matrix-space density of the Gaussian ensembles at variance scale t."""
    M = np.asarray(M)
    n = M.shape[-1]
    c = constants(n)
    tr2 = np.real(np.einsum("...ij,...ji->...", M, M))
    kind = kind.lower()
    if kind == "gue":
        val = t ** (-n * n / 2.0) / c.c3 * np.exp(-tr2 / (2.0 * t))
    elif kind == "goe":
        val = t ** (-n * (n + 1) / 4.0) / c.c4 * np.exp(-tr2 / (2.0 * t))
    else:
        raise ValueError("kind must be 'gue' or 'goe'")
    return float(val) if M.ndim == 2 else val
