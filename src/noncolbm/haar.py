"""Haar-distributed unitary sampling and the two sides of the unitary-group
Gaussian integral identity, plus the ensemble-convolution density evaluated
both by Monte Carlo and by chamber quadrature.

The sampler runs Gram-Schmidt, twice per column, on a stack of complex
Ginibre matrices held batch-last, (column, row, batch), so that a stack of
any size costs O(n) numpy calls and no per-matrix LAPACK call."""

import math

import numpy as np

from . import densities, linalg, paths
from .densities import MCEstimate
from .rng import as_generator

_HC_BATCH = 20000   # Haar matrices drawn per block in hc_monte_carlo


def haar_unitary(n, rng, size=None):
    """Haar-random unitary matrices: Gram-Schmidt on the columns of complex
    Ginibre matrices.

    Gram-Schmidt gives the Q of Z = QR whose R has a positive real
    diagonal: the Q of any QR of Z with each column divided by the phase of
    R's diagonal entry.  Its law is Haar (Mezzadri 2007); without the phase
    correction it would not be.  Each column is projected off the earlier
    ones twice, which keeps the columns orthonormal to rounding (Giraud,
    Langou & Rozloznik 2005).  The work array is batch-last, (column, row,
    batch); the stack (size, n, n) returned is a transposed view of it.
    Returns (n, n) for size=None.  ValueError unless n and size are
    positive integers.
    """
    linalg.check_count("n", n, least=1)
    if size is not None:
        linalg.check_count("size", size, least=1)
    gen = as_generator(rng)
    m = 1 if size is None else size
    # the real, then the imaginary parts of Z[s, row, column], in C order
    w = np.empty((n, n, m), dtype=complex)
    w.real = gen.normal(size=(m, n, n)).T
    w.imag = gen.normal(size=(m, n, n)).T
    for k in range(n):
        v, done = w[k], w[:k]
        for _ in range(2 if k else 0):
            c = (done.conj() * v).sum(axis=1)
            v -= (done * c[:, None, :]).sum(axis=0)
        v /= np.sqrt((v.real ** 2 + v.imag ** 2).sum(axis=0))
    q = w.T
    return q[0] if size is None else q


def hc_monte_carlo(x, y, sigma, samples, rng):
    """Haar average of exp{-Tr(L_x - U' L_y U)^2 / (2 sigma^2)}, sigma > 0,
    with the diagonal matrices L_x, L_y built from strictly ordered x, y."""
    linalg.check_time(sigma, name="sigma")
    x = linalg.weyl_vector(x)
    y = linalg.weyl_vector(y)
    if x.size != y.size:
        raise ValueError("x and y must have equal length")
    linalg.check_count("samples", samples)
    n = x.size
    gen = as_generator(rng)
    if n == 1:
        val = math.exp(-((x[0] - y[0]) ** 2) / (2.0 * sigma ** 2))
        return MCEstimate(val, 0.0, samples)
    # Tr(L_x - U* L_y U)^2 = |x|^2 + |y|^2 - 2 sum_jk y_j |U_jk|^2 x_k; the
    # matrix |U_jk|^2 is doubly stochastic, so a common shift of x and y
    # leaves this unchanged, and centring them keeps it from cancelling
    c = (x.sum() + y.sum()) / (2 * n)
    x = x - c
    y = y - c
    sq = x @ x + y @ y
    vals = np.empty(samples)
    for i in range(0, samples, _HC_BATCH):
        u = haar_unitary(n, gen, size=min(_HC_BATCH, samples - i))
        tr2 = sq - 2.0 * ((u.real ** 2 + u.imag ** 2) @ x) @ y
        vals[i:i + tr2.size] = np.exp(-tr2 / (2.0 * sigma ** 2))
    return MCEstimate.of(vals)


def hc_closed_form(x, y, sigma):
    """Determinant form of the same Haar average: the Karlin-McGregor
    transition density at time sigma^2 between x and y, times
    c1 sigma^(n^2), over the Vandermonde products h(x) h(y)."""
    linalg.check_time(sigma, name="sigma")
    x = linalg.weyl_vector(x)
    y = linalg.weyl_vector(y)
    n = x.size
    # the density is symmetric in its end points; from y to x, its matrix
    # is [p(x_i, y_j)], x along the rows
    det = densities.transition_density(sigma ** 2, y, x)
    hx = linalg.vandermonde(x)
    hy = linalg.vandermonde(y)
    return float(densities.constants(n).c1 * sigma ** (n * n) / (hx * hy)
                 * det)


def interpolation_scales(T, t):
    """Variance scale of the bridge part and inverse scale of the endpoint
    part of the finite-horizon process at time t."""
    linalg.check_time(T, name="horizon")
    if not 0 < t < T:
        raise ValueError("need 0 < t < T")
    sigma2 = t * (T - t) / T
    alpha = T / t ** 2
    return sigma2, alpha


def convolution_mc(n, T, t, H, samples, rng):
    """Monte Carlo value of the symmetric-ensemble / Hermitian-ensemble
    convolution density at H: average the Hermitian Gaussian density of
    H - A over symmetric draws A."""
    H = linalg.check_hermitian(H)
    linalg.check_count("samples", samples)
    sigma2, alpha = interpolation_scales(T, t)
    a = paths.sample_goe(n, 1.0 / alpha, samples, rng)
    return MCEstimate.of(
        densities.matrix_density("gue", H[None, :, :] - a, sigma2))


def convolution_quadrature(n, T, t, H, rel_tol=1e-6):
    """Closed-form value of the same convolution density at H = c I, by
    reducing the symmetric-matrix integral to an ordered-eigenvalue chamber
    integral.  ValueError for any other H: the reduction puts the orthogonal
    average of exp(tr(H A) / sigma^2) at the identity, which is exact only
    when H commutes with every orthogonal matrix."""
    H = linalg.check_hermitian(H)
    c = H[0, 0].real
    scale = max(1.0, abs(c))
    if np.abs(H - c * np.eye(n)).max() > linalg.HERMITIAN_TOL * scale:
        raise ValueError("convolution_quadrature needs H = c I")
    return _convolution_chamber(n, T, t, H, rel_tol)


def _convolution_chamber(n, T, t, H, rel_tol):
    """The chamber integral of convolution_quadrature with the orthogonal
    average taken at the identity, for any Hermitian H."""
    sigma2, alpha = interpolation_scales(T, t)
    c = densities.constants(n)
    tr_h2 = float(np.real(np.einsum("ij,ji->", H, H)))
    hdiag = np.real(np.diag(H))
    pref = (alpha ** (n * (n + 1) / 4.0) * sigma2 ** (-n * n / 2.0)
            / (c.c3 * c.c2))

    def integrand(a):
        h = linalg.vandermonde(a)
        tr_diff = tr_h2 - 2.0 * a @ hdiag + np.sum(a * a, axis=-1)
        return h * np.exp(-0.5 * alpha * np.sum(a * a, axis=-1)
                          - tr_diff / (2.0 * sigma2))

    span = 8.0 * math.sqrt(1.0 / alpha + sigma2)
    lo = float(hdiag.min()) - span
    hi = float(hdiag.max()) + span
    val = densities.chamber_integrate(integrand, n, lo, hi, rel_tol=rel_tol)
    return pref * val


def interpolation_identity_check(n, T, t, y, haar_samples, rng):
    """Haar-averaged transition density of the finite-horizon matrix process
    against the ordered-eigenvalue density: returns (MCEstimate, target).

    The matrix transition density is evaluated at conjugations of the
    diagonal matrix of y by Haar unitaries; its eigenvalue-space counterpart
    is the finite-horizon chamber density at y."""
    y = linalg.weyl_vector(y)
    linalg.check_count("haar_samples", haar_samples)
    c = densities.constants(n)
    cu = c.c3 / c.c1
    hy2 = linalg.vandermonde(y) ** 2
    u = haar_unitary(n, rng, size=haar_samples)
    hs = np.conj(u).transpose(0, 2, 1) @ (y[:, None] * u)
    vals = np.empty(haar_samples)
    # the chamber integral at h = U* diag(y) U averages exp(tr(h A)/sigma^2)
    # at O = I only; U O is Haar on U(n) for every orthogonal O, so the Haar
    # average over U supplies the missing average over O(n)
    for k in range(haar_samples):
        vals[k] = _convolution_chamber(n, T, t, hs[k], rel_tol=1e-5)
    vals *= cu * hy2
    target = float(densities.finite_horizon_density(T, 0, None, t, y))
    return MCEstimate.of(vals), target
