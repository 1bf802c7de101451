"""Closed-form transition densities for ordered Brownian particles and the
Gaussian matrix ensembles, plus the no-collision survival probability with
three independent evaluation strategies (Pfaffian, quadrature, Monte Carlo).
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, erfc, gammaln
from numpy.polynomial.legendre import leggauss

from . import linalg
from .rng import as_generator

QUAD_MAX_DIM = 4
# chamber_integrate doubles its Gauss-Legendre node count per axis from the
# first count up to the cap
_QUAD_START_NODES = 24
_QUAD_MAX_NODES = 200


@dataclass(frozen=True)
class NormalizationConstants:
    c1: float
    c2: float
    c3: float
    c4: float


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    se: float
    samples: int

    @classmethod
    def of(cls, values):
        """Sample mean of a 1-d array of values and its standard error
        std(ddof=1) / sqrt(n)."""
        n = values.size
        return cls(float(values.mean()),
                   float(values.std(ddof=1) / math.sqrt(n)), n)


@functools.lru_cache(maxsize=32)
def constants(n):
    """Normalization constants for the N-particle / N x N densities,
    computed once per n."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    lg1 = sum(gammaln(j) for j in range(1, n + 1))
    lg2 = sum(gammaln(j / 2.0) for j in range(1, n + 1))
    c1 = (2.0 * math.pi) ** (n / 2.0) * math.exp(lg1)
    c2 = 2.0 ** (n / 2.0) * math.exp(lg2)
    c3 = 2.0 ** (n / 2.0) * math.pi ** (n * n / 2.0)
    c4 = 2.0 ** (n / 2.0) * math.pi ** (n * (n + 1) / 4.0)
    return NormalizationConstants(c1, c2, c3, c4)


def transition_density(t, x, y):
    """Karlin-McGregor determinant density of N ordered absorbed paths.

    x is the (strictly ordered) start; y may be a batch (..., N).
    """
    linalg.check_time(t)
    x = linalg.weyl_vector(x)
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != x.size:
        raise ValueError("dimension mismatch between start and end points")
    kernel = linalg.heat_kernel(t, x[None, :], y[..., :, None])
    return np.linalg.det(kernel)


def _pairs(t, xs):
    """Index pairs i < j of a batch xs (..., N) and the scaled gaps
    u_ij = (x_j - x_i) / (2 sqrt t) at those pairs, shape (..., N(N-1)/2)."""
    iu, ju = linalg.pair_index(xs.shape[-1])
    return iu, ju, (xs[..., ju] - xs[..., iu]) / (2.0 * math.sqrt(t))


def _erf_matrix(t, xs):
    """Antisymmetric matrix erf(u_ij) for a batch xs (..., N), batch axes
    last: shape (m, m, ...), m = N + N % 2, the layout of
    linalg._pfaffian_batch.  Odd N is bordered to even dimension with a
    row/column of the wide-separation entry value 1 (erf at infinity after
    calibration)."""
    n = xs.shape[-1]
    iu, ju, u = _pairs(t, xs)
    v = np.moveaxis(erf(u), -1, 0)
    e = np.zeros((n + n % 2,) * 2 + xs.shape[:-1])
    e[iu, ju] = v
    e[ju, iu] = -v
    if n % 2 == 1:
        e[:n, n] = 1.0
        e[n, :n] = -1.0
    return e


def survival_pfaffian(t, x):
    """No-collision probability via the Pfaffian of the erf-entry matrix.

    Odd N is handled by bordering (see _erf_matrix).  Vectorized over a
    batch of start vectors (..., N).  t == 0 returns 1 for strict input.
    """
    xs = np.asarray(x, dtype=float)
    linalg.check_time(t, zero_ok=True)
    pf = (np.ones(xs.shape[:-1]) if t == 0
          else linalg._pfaffian_batch(_erf_matrix(t, xs)))
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
    batch.  This differentiates the Pfaffian kernel itself; the explicit
    inverse in 1/2 tr(A^-1 d_k A) loses all accuracy once five or more
    particles cluster within a small fraction of sqrt(t), where A is
    ill-conditioned.
    """
    xs = np.asarray(x, dtype=float)
    n = xs.shape[-1]
    linalg.check_time(t)
    e = _erf_matrix(t, xs)
    iu, ju, u = _pairs(t, xs)
    hg = np.moveaxis(
        _COMPLEX_STEP * (np.exp(-u * u) / math.sqrt(math.pi * t)), -1, 0)
    # the N matrices of a row are the last axis of the batch-last stack
    s = np.zeros(e.shape + (n,), dtype=complex)
    s.real = e[..., None]
    d = s.imag   # a view; d[..., k] = h d_k A has 2(N-1) nonzero entries
    d[iu, ju, ..., iu] = d[ju, iu, ..., ju] = -hg   # d_i A_ij, d_j A_ji
    d[iu, ju, ..., ju] = d[ju, iu, ..., iu] = hg    # d_j A_ij, d_i A_ji
    pf = linalg._pfaffian_batch(s)
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
    pts = np.empty((n_nodes ** n_dim, n_dim))
    wts = np.ones(1)
    upper = np.array([float(hi)])
    # the k-th axis nests y_{n-k} in (lo, y_{n-k+1}); each of its values
    # repeats over the n_nodes ** (n - 1 - k) rows of the axes below it
    for k in range(n_dim):
        half = 0.5 * (upper - lo)
        y = lo + half[:, None] * (u[None, :] + 1.0)
        wts = (wts[:, None] * half[:, None] * w[None, :]).reshape(-1)
        upper = y.reshape(-1)
        pts.reshape(upper.size, -1, n_dim)[:, :, n_dim - 1 - k] = \
            upper[:, None]
    return pts, wts


# chamber_integrate evaluates func on row blocks of at most this many nodes,
# so its temporaries stay bounded whatever the dimension and node count
_QUAD_BLOCK = 65_536


def _rule_sum(func, pts, wts):
    return sum(float(np.sum(wts[i:i + _QUAD_BLOCK]
                            * func(pts[i:i + _QUAD_BLOCK])))
               for i in range(0, wts.size, _QUAD_BLOCK))


def chamber_integrate(func, n_dim, lo, hi, rel_tol=1e-6):
    """Adaptive nested Gauss-Legendre integral of func over the truncated
    chamber.  func must accept a batch of points (M, n_dim); it is called on
    row blocks of at most _QUAD_BLOCK nodes, whose sums are added, so that
    its temporaries stay bounded at every level."""
    if n_dim > QUAD_MAX_DIM:
        raise ValueError("chamber quadrature supported for dimension <= %d"
                         % QUAD_MAX_DIM)
    nodes = _QUAD_START_NODES
    last = _rule_sum(func, *chamber_points(n_dim, lo, hi, nodes))
    while nodes < _QUAD_MAX_NODES:
        nodes = min(_QUAD_MAX_NODES, 2 * nodes)
        cur = _rule_sum(func, *chamber_points(n_dim, lo, hi, nodes))
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
    """No-collision probability by chamber quadrature of the Karlin-McGregor
    density (N <= 4).

    The determinant det[p_t(x_i, y_j)] is linear in its last column, so
    y_N is integrated over (y_{N-1}, inf) in closed form: that column becomes
    the Gaussian tails P(x_i + B_t > y_{N-1}) = erfc((y_{N-1} - x_i) /
    sqrt(2t)) / 2, and chamber_integrate runs over y_1 < ... < y_{N-1} only.
    t == 0 returns 1 for strict input.
    """
    x = linalg.weyl_vector(x)
    n = x.size
    if n > QUAD_MAX_DIM:
        raise ValueError("quadrature survival limited to N <= %d"
                         % QUAD_MAX_DIM)
    linalg.check_time(t, zero_ok=True)
    if n == 1 or t == 0:
        return 1.0
    lo, hi = _chamber_box(t, x)

    def reduced_density(y):
        k = np.empty((y.shape[0], n, n))
        k[:, :-1] = linalg.heat_kernel(t, x, y[:, :, None])
        k[:, -1] = 0.5 * erfc((y[:, -1:] - x) / math.sqrt(2.0 * t))
        return np.linalg.det(k)

    return chamber_integrate(reduced_density, n - 1, lo, hi, rel_tol=rel_tol)


def _gap_factor(n):
    """Lower-bidiagonal Cholesky factor L of tridiag(-1, 2, -1), the
    covariance per unit time of the N-1 adjacent gap increments of N
    independent Brownian motions, as its diagonal L_ii = sqrt((i+1)/i) and
    subdiagonal L_i,i-1 = -sqrt((i-1)/i), i = 1..N-1."""
    i = np.arange(1.0, n)
    return np.sqrt((i + 1.0) / i), -np.sqrt((i[1:] - 1.0) / i[1:])


def survival_montecarlo(t, x, samples=100_000, steps=200, rng=None):
    """No-collision probability by simulating N independent Brownian paths.

    Only the N-1 adjacent gaps are simulated, held as (N-1, live) for the
    samples still alive.  Each step draws one (N-1, live) block of standard
    normals, live samples in index order, and maps it through the bidiagonal
    factor of the gap covariance (_gap_factor).  Each step is weighted by the
    exact bridge non-crossing probability prod(1 - exp(-a b / dt)) of the
    gaps a before and b after it, which removes most of the discretization
    bias.  A sample with a gap <= 0 at a grid point has weight 0 for good: it
    is dropped from the working arrays and no longer draws normals, and the
    loop stops once none is left.  The estimate is the mean over all samples,
    dead ones included.  t == 0 returns MCEstimate(1, 0, samples) for strict
    input.
    """
    x = linalg.weyl_vector(x)
    n = x.size
    linalg.check_time(t, zero_ok=True)
    for name, value, least in (("samples", samples, 2), ("steps", steps, 1)):
        if not isinstance(value, numbers.Integral) or value < least:
            raise ValueError("%s must be an integer >= %d, got %r"
                             % (name, least, value))
    if n == 1 or t == 0:
        return MCEstimate(1.0, 0.0, samples)
    gen = as_generator(rng)
    dt = t / steps
    diag, sub = _gap_factor(n)
    diag = (math.sqrt(dt) * diag)[:, None]
    sub = (math.sqrt(dt) * sub)[:, None]
    a = np.repeat(np.diff(x)[:, None], samples, axis=1)
    weight = np.ones(samples)
    alive = np.arange(samples)
    for _ in range(steps):
        z = gen.normal(size=a.shape)
        b = z * diag
        b[1:] += z[:-1] * sub
        b += a
        keep = (b > 0).all(axis=0)
        if not keep.all():
            a, b = a[:, keep], b[:, keep]
            weight, alive = weight[keep], alive[keep]
            if not alive.size:
                break
        # gap processes have variance rate 2; the bridge hit prob
        # exp(-ab/dt) is computed in a's buffer (a, b > 0 for live samples),
        # then turned into the no-hit prob 1 - hit
        hit = np.multiply(a, b, out=a)
        hit /= -dt
        np.exp(hit, out=hit)
        weight *= np.prod(np.subtract(1.0, hit, out=hit), axis=0)
        a = b
    out = np.zeros(samples)
    out[alive] = weight
    return MCEstimate.of(out)


def survival_probability(t, x, method="pfaffian", rng=None):
    """Probability that N Brownian particles started at ordered x keep their
    order up to time t.  method is one of pfaffian / quadrature / montecarlo;
    the Monte Carlo variant returns an MCEstimate."""
    if method == "pfaffian":
        return survival_pfaffian(t, linalg.weyl_vector(x))
    if method == "quadrature":
        return survival_quadrature(t, x)
    if method == "montecarlo":
        return survival_montecarlo(t, x, rng=rng)
    raise ValueError("unknown survival method %r" % (method,))


def h_transform_density(s, x, t, y):
    """Transition density of Brownian particles conditioned never to collide.

    Start at the origin with (s, x) = (0, None); otherwise x must be strictly
    ordered.  y may be a batch (..., N)."""
    if not t > s:
        raise ValueError("need t > s")
    y = np.asarray(y, dtype=float)
    if x is None:
        if s != 0:
            raise ValueError("origin start requires s = 0")
        return eigenvalue_density("gue", y, t)
    x = linalg.weyl_vector(x)
    hx = linalg.vandermonde(x)
    val = transition_density(t - s, x, y) * linalg.vandermonde(y) / hx
    return val if y.ndim > 1 else float(val)


def finite_horizon_density(T, s, x, t, y):
    """Transition density of particles conditioned not to collide on (0, T].

    Start at the origin with (s, x) = (0, None), where it is the GOE density
    times (T/t)^(N(N-1)/4) times survival over T - t.  y may be a batch
    (..., N).  The survival factors use the fast Pfaffian evaluator;
    ValueError when the survival from x is not positive, as it comes out
    once clustered particles cancel the Pfaffian's digits.
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
        val = (eigenvalue_density("goe", y, t)
               * (T / t) ** (n * (n - 1) / 4.0) * surv_y)
        return val if y.ndim > 1 else float(val)
    x = linalg.weyl_vector(x)
    surv_x = survival_pfaffian(T - s, x)
    if not surv_x > 0:
        raise ValueError("survival from x over time %g is %r, not positive"
                         % (T - s, surv_x))
    val = transition_density(t - s, x, y) * surv_y / surv_x
    return val if y.ndim > 1 else float(val)


def eigenvalue_density(kind, x, t):
    """Eigenvalue density of the Gaussian ensembles at variance scale t.

    kind is "gue" or "goe"; x may be a batch (..., N) of ordered vectors.
    """
    linalg.check_time(t)
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    c = constants(n)
    h = linalg.vandermonde(x)
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
    linalg.check_time(t)
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
