"""Closed-form transition densities for ordered Brownian particles and the
Gaussian matrix ensembles, plus the no-collision survival probability with
three independent evaluation strategies (Pfaffian, quadrature, Monte Carlo).

Batches of points (..., N) are pair-first inside: the kernels work on the
rows of linalg.pair_gaps, (N(N-1)/2, ...), and of the coordinate-first
view of the points, and never move an axis back.  Every survival factor is
_survival's, and every Pfaffian is linalg._pair_pfaffian's, the one entry
point, of the pair values; only the gradient's memory path at N >= 6 calls
the kernel under it.  survival_log_gradient is NaN where the Pfaffian
cancels to <= 0, so that the SDE flags those points; one that cancels to a
positive but wrong value is not caught.
"""

import functools
import math
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
    linalg.check_count("n", n, least=1)
    lg1 = sum(gammaln(j) for j in range(1, n + 1))
    lg2 = sum(gammaln(j / 2.0) for j in range(1, n + 1))
    try:
        c1 = (2.0 * math.pi) ** (n / 2.0) * math.exp(lg1)
        c2 = 2.0 ** (n / 2.0) * math.exp(lg2)
        c3 = 2.0 ** (n / 2.0) * math.pi ** (n * n / 2.0)
        c4 = 2.0 ** (n / 2.0) * math.pi ** (n * (n + 1) / 4.0)
    except OverflowError:   # c1's exp, from n = 28 on
        raise OverflowError("the normalization constants at n=%d exceed the "
                            "float range" % n) from None
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


def _fold(v, n):
    """Pair values, pair axis first, of an antisymmetric matrix of order
    m = N - N % 2 whose Pfaffian is that of the pair values v (N(N-1)/2,
    ...) of N points (pair_index order, batch axes last): v itself at even
    N; at odd N the folded values, written over the last m(m-1)/2 rows of v
    and returned as a view of them.

    Odd N: the de Bruijn matrix of v, bordered by a row and column of ones,
    has its first elimination step taken in closed form.  Subtracting row
    and column 0 from rows and columns 1..N-1 is a congruence of determinant
    1, after which the border's only entry is the 1 in row 0; so Pf of the
    bordered matrix is Pf of A'_ij = (v_ij + v_0i) - v_0j, 1 <= i < j <=
    N-1, a matrix of order N - 1 with no border.
    """
    m = n - n % 2
    if m < n:
        # the pairs (0, j) come first, then those of 1..N-1
        iu, ju = linalg.pair_index(m)
        w = v[m:]
        w += v[iu]
        w -= v[ju]
        v = w
    return v


def _survival(t, gaps, n):
    """Survival Pfaffian over time t > 0 of N points from their pair gaps
    (N(N-1)/2, ...), which are overwritten: scaled by 1/(2 sqrt(t)), turned
    into erf values, folded at odd N (_fold) and handed to
    linalg._pair_pfaffian."""
    gaps /= 2.0 * math.sqrt(t)
    return linalg._pair_pfaffian(_fold(erf(gaps, out=gaps), n))


def survival_pfaffian(t, x):
    """No-collision probability via the Pfaffian of the erf-entry matrix
    (_survival), for one start or a batch (..., N); 1 at t == 0."""
    xs = np.asarray(x, dtype=float)
    linalg.check_time(t, zero_ok=True)
    pf = (np.ones(xs.shape[:-1]) if t == 0 else
          _survival(t, linalg.pair_gaps(xs), xs.shape[-1]))
    return pf if xs.ndim > 1 else float(pf)


# Complex step: Pf(A + i h D) = Pf(A) + i h dPf(A)[D] + O(h^2), and at this
# h the O(h^2) term lies far below rounding (Martins, Sturdza & Alonso,
# "The complex-step derivative approximation", ACM TOMS 29, 2003).
_COMPLEX_STEP = 1e-100


def survival_log_gradient(t, x):
    """Gradient in x of ln survival_pfaffian(t, x), batched over (..., N);
    NaN on every point whose survival Pfaffian is not positive.

    The entry A_ij = erf(u_ij), i < j, of the erf matrix A depends on x_i
    and x_j only: d_i A_ij = -G_ij and d_j A_ij = +G_ij with G_ij =
    exp(-u_ij^2) / sqrt(pi t).  d_k ln Pf(A) = dPf(A)[d_k A] / Pf(A) is
    taken by complex step, with the N Pfaffians of A + i h d_k A in one
    batch of complex pair values erf(u_ij) + i h d_k A_ij (the odd-N fold is
    linear, so it folds A and d_k A alike), handed to linalg._pair_pfaffian
    up to N = 5; from N = 6 they fill linalg._pair_matrix's stack and are
    freed before linalg._pfaffian_batch eliminates it.  This differentiates
    the Pfaffian kernel itself; the explicit inverse in 1/2 tr(A^-1 d_k A)
    loses all accuracy once five or more particles cluster within a small
    fraction of sqrt(t), where A is ill-conditioned.  Clustered points can
    cancel the Pfaffian's digits down to a value <= 0, where its logarithm
    has no gradient; those points get NaN, so that a simulation flags them.
    """
    xs = np.asarray(x, dtype=float)
    n = xs.shape[-1]
    linalg.check_time(t)
    u = linalg.pair_gaps(xs) / (2.0 * math.sqrt(t))
    hg = _COMPLEX_STEP * (np.exp(-u * u) / math.sqrt(math.pi * t))
    # at order >= 6 the stack is allocated before the pair values, so that
    # the elimination's temporaries take their memory once they are freed;
    # held through the elimination, they make it fault its pages back in
    if n > 5:
        s = np.zeros((n - n % 2,) * 2 + (n,) + u.shape[1:], dtype=complex)
    # pairs first, then the N directions, then the batch: (P, N, ...), so
    # that the real part is written along whole batch rows
    v = np.zeros((u.shape[0], n) + u.shape[1:], dtype=complex)
    v.real = erf(u)[:, None]
    iu, ju = linalg.pair_index(n)
    p = np.arange(iu.size)
    v.imag[p, iu] = -hg   # d_i A_ij
    v.imag[p, ju] = hg    # d_j A_ij
    if n > 5:
        linalg._pair_matrix(_fold(v, n), n - n % 2, out=s)
        del v
        pf = linalg._pfaffian_batch(s)
    else:
        pf = linalg._pair_pfaffian(_fold(v, n))
    positive = (pf.real > 0.0).all(axis=0)
    grad = np.divide(pf.imag, _COMPLEX_STEP * pf.real, where=positive,
                     out=np.full(pf.shape, np.nan))
    return grad.transpose(*range(1, grad.ndim), 0)


@functools.lru_cache(maxsize=32)
def _legendre_rule(n_nodes):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per node
    count and shared read-only."""
    u, w = leggauss(n_nodes)
    u.flags.writeable = w.flags.writeable = False
    return u, w


def chamber_points(n_dim, lo, hi, n_nodes, start=0, stop=None):
    """Tensor-product Gauss-Legendre nodes/weights on the truncated chamber
    {lo < y_1 < ... < y_n < hi}: rows [start, stop) of the rule, all of them
    by default, as (points (M, n), weights (M,)).

    Axis k of the rule nests y_{n-k} in (lo, y_{n-k+1}), and digit k (most
    significant first) of a row's base-n_nodes index is that axis's node.
    The rows of the first n - 1 axes are the rule of dimension n - 1, so a
    range is built from the range of that rule above it, with the same
    arithmetic as the whole rule: ranges concatenate to it bit for bit.
    """
    size = n_nodes ** n_dim
    stop = size if stop is None else min(stop, size)
    if not 0 <= start <= stop:
        raise ValueError("need 0 <= start <= stop, got start=%r, stop=%r"
                         % (start, stop))
    return _chamber_rows(n_dim, lo, hi, *_legendre_rule(n_nodes), start,
                         stop)


def _chamber_rows(n_dim, lo, hi, u, w, start, stop):
    """Rows [start, stop) of the chamber rule on the Legendre nodes u and
    weights w (see chamber_points)."""
    if n_dim == 0:
        return np.empty((stop - start, 0)), np.ones(stop - start)
    n_nodes = u.size
    p0, p1 = start // n_nodes, -(-stop // n_nodes)
    outer, outer_wts = _chamber_rows(n_dim - 1, lo, hi, u, w, p0, p1)
    # the upper end of each row's last axis is y_2 of its outer row
    upper = outer[:, 0] if n_dim > 1 else np.full(p1 - p0, float(hi))
    half = 0.5 * (upper - lo)
    pts = np.empty((p1 - p0, n_nodes, n_dim))
    pts[:, :, 0] = lo + half[:, None] * (u[None, :] + 1.0)
    pts[:, :, 1:] = outer[:, None, :]
    wts = outer_wts[:, None] * half[:, None] * w[None, :]
    rows = slice(start - p0 * n_nodes, stop - p0 * n_nodes)
    return pts.reshape(-1, n_dim)[rows], wts.reshape(-1)[rows]


# chamber_integrate builds and evaluates its rules in row blocks of at most
# this many nodes, and verify.chamber_marginal_cdfs hands its joint density
# blocks of grid values of at most this many rows, so that the nodes and the
# integrand's temporaries stay bounded whatever the dimension and node count
QUAD_BLOCK = 6144


def _rule_sum(func, n_dim, lo, hi, n_nodes):
    total = 0.0
    for i in range(0, n_nodes ** n_dim, QUAD_BLOCK):
        pts, wts = chamber_points(n_dim, lo, hi, n_nodes, i, i + QUAD_BLOCK)
        total += float(np.sum(wts * func(pts)))
    return total


def chamber_integrate(func, n_dim, lo, hi, rel_tol=1e-6):
    """Adaptive nested Gauss-Legendre integral of func over the truncated
    chamber.  func must accept a batch of points (M, n_dim).  Each rule is
    built and evaluated in row blocks of at most QUAD_BLOCK nodes, whose
    sums are added, so that neither the nodes nor func's temporaries grow
    with the rule."""
    if n_dim > QUAD_MAX_DIM:
        raise ValueError("chamber quadrature supported for dimension <= %d"
                         % QUAD_MAX_DIM)
    nodes = _QUAD_START_NODES
    last = _rule_sum(func, n_dim, lo, hi, nodes)
    while nodes < _QUAD_MAX_NODES:
        nodes = min(_QUAD_MAX_NODES, 2 * nodes)
        cur = _rule_sum(func, n_dim, lo, hi, nodes)
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
    is gathered out of the working arrays by index (one flatnonzero, then
    take) and no longer draws normals, and the loop stops once none is left.
    The exponent -a b / dt is floored at -40 before exp, which keeps exp off
    its slow underflow path and leaves every factor bit-identical (1 - h is
    1.0 for every h <= e^-40).  The estimate is the mean over all samples,
    dead ones included.  t == 0 returns MCEstimate(1, 0, samples) for strict
    input.
    """
    x = linalg.weyl_vector(x)
    n = x.size
    linalg.check_time(t, zero_ok=True)
    linalg.check_count("samples", samples)
    linalg.check_count("steps", steps, least=1)
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
            keep = np.flatnonzero(keep)
            a, b = a.take(keep, axis=1), b.take(keep, axis=1)
            weight, alive = weight.take(keep), alive.take(keep)
            if not alive.size:
                break
        # gap processes have variance rate 2; the bridge hit prob
        # exp(-ab/dt) is computed in a's buffer (a, b > 0 for live samples),
        # then turned into the no-hit prob 1 - hit; e^-40 < 2^-54, so the
        # floor leaves every 1 - hit as it was
        hit = np.multiply(a, b, out=a)
        hit /= -dt
        np.maximum(hit, -40.0, out=hit)
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
    ordered, and ValueError when its Vandermonde product is not positive, as
    it underflows to 0 for gaps of 1e-200.  y may be a batch (..., N)."""
    if not t > s:
        raise ValueError("need t > s")
    y = np.asarray(y, dtype=float)
    if x is None:
        if s != 0:
            raise ValueError("origin start requires s = 0")
        return eigenvalue_density("gue", y, t)
    x = linalg.weyl_vector(x)
    hx = linalg.vandermonde(x)
    if not hx > 0:
        raise ValueError("Vandermonde product of x is %r, not positive" % hx)
    val = transition_density(t - s, x, y) * linalg.vandermonde(y) / hx
    return val if y.ndim > 1 else float(val)


def finite_horizon_density(T, s, x, t, y):
    """Transition density of particles conditioned not to collide on (0, T].

    Start at the origin with (s, x) = (0, None), where it is the GOE density
    times (T/t)^(N(N-1)/4) times survival over T - t: the pair gaps
    y_j - y_i are formed once, pair axis first, for the Vandermonde product
    of the GOE density and then for _survival, which overwrites them.  y
    may be a batch (..., N).  ValueError when the survival from x is not
    positive, as it comes out once clustered particles cancel the
    Pfaffian's digits.
    """
    if t > T:
        raise ValueError("need t <= T")
    if not t > s:
        raise ValueError("need t > s")
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    if x is None:
        if s != 0:
            raise ValueError("origin start requires s = 0")
        linalg.check_time(T - t, zero_ok=True)
        gaps = linalg.pair_gaps(y)
        val = _ensemble_density("goe", linalg._coordinates_first(y), t, gaps)
        val *= (T / t) ** (n * (n - 1) / 4.0)
        if t < T:
            val *= _survival(T - t, gaps, n)
        return val if y.ndim > 1 else float(val)
    surv_y = survival_pfaffian(T - t, y)
    x = linalg.weyl_vector(x)
    surv_x = survival_pfaffian(T - s, x)
    if not surv_x > 0:
        raise ValueError("survival from x over time %g is %r, not positive"
                         % (T - s, surv_x))
    val = transition_density(t - s, x, y) * surv_y / surv_x
    return val if y.ndim > 1 else float(val)


def _ensemble_density(kind, rows, t, gaps):
    """GUE or GOE eigenvalue density at points given coordinate-first, as
    the rows (N, ...) of linalg._coordinates_first(x), and their pair gaps
    (linalg.pair_gaps): the Gaussian factor, then the constant, then the
    Vandermonde product h (twice for GUE), applied in place to one new
    array.  The constants come first, so that N >= 28 raises their
    OverflowError before h can overflow."""
    n = rows.shape[0]
    c = constants(n)
    kind = kind.lower()
    if kind == "gue":
        coef = t ** (-n * n / 2.0) / c.c1
    elif kind == "goe":
        coef = t ** (-n * (n + 1) / 4.0) / c.c2
    else:
        raise ValueError("kind must be 'gue' or 'goe'")
    # |x|^2 row by row, first to last: the order of numpy's sum over a last
    # axis shorter than 8, at a fifth of its cost on rows that short
    val = np.multiply(rows[0], rows[0], out=np.empty(rows.shape[1:]))
    for j in range(1, n):
        val += rows[j] * rows[j]
    val /= -2.0 * t
    np.exp(val, out=val)
    val *= coef
    h = np.prod(gaps, axis=0)
    val *= h
    if kind == "gue":
        val *= h
    return val


def eigenvalue_density(kind, x, t):
    """Eigenvalue density of the Gaussian ensembles at variance scale t:
    t^(-N^2/2) / c1 * exp(-|x|^2 / 2t) * h(x)^2 for GUE and t^(-N(N+1)/4)
    / c2 * exp(-|x|^2 / 2t) * h(x) for GOE, h the Vandermonde product.

    kind is "gue" or "goe"; x may be a batch (..., N) of ordered vectors
    (an array back) or one vector (a float back).
    """
    linalg.check_time(t)
    x = np.asarray(x, dtype=float)
    val = _ensemble_density(kind, linalg._coordinates_first(x), t,
                            linalg.pair_gaps(x))
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
