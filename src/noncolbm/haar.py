"""Haar-distributed unitary sampling and the two sides of the unitary-group
Gaussian integral identity, plus the ensemble-convolution density evaluated
both by Monte Carlo and by chamber quadrature."""

import math

import numpy as np

from . import densities, linalg, paths
from .densities import MCEstimate
from .rng import as_generator

_HC_BATCH = 20000   # Haar matrices drawn per block in hc_monte_carlo


def haar_unitary(n, rng, size=None):
    """Haar-random unitary matrices via QR of a complex Ginibre matrix.

    Each column of Q is divided by the phase of the corresponding diagonal
    entry of R; without that correction the law is not Haar.
    Returns (n, n) for size=None, else (size, n, n).
    """
    gen = as_generator(rng)
    m = 1 if size is None else size
    z = (gen.normal(size=(m, n, n)) + 1j * gen.normal(size=(m, n, n)))
    z /= math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.einsum("sii->si", r)
    q = q * (d / np.abs(d))[:, None, :]
    return q[0] if size is None else q


def _check_sigma(sigma):
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite, got %r"
                         % (sigma,))


def hc_monte_carlo(x, y, sigma, samples, rng):
    """Haar average of exp{-Tr(L_x - U' L_y U)^2 / (2 sigma^2)}, sigma > 0,
    with the diagonal matrices L_x, L_y built from strictly ordered x, y."""
    _check_sigma(sigma)
    x = linalg.weyl_vector(x)
    y = linalg.weyl_vector(y)
    if x.size != y.size:
        raise ValueError("x and y must have equal length")
    if samples < 2:
        raise ValueError("need at least 2 samples, got %r" % (samples,))
    n = x.size
    gen = as_generator(rng)
    if n == 1:
        val = math.exp(-((x[0] - y[0]) ** 2) / (2.0 * sigma ** 2))
        return MCEstimate(val, 0.0, samples)
    vals = np.empty(samples)
    for i in range(0, samples, _HC_BATCH):
        u = haar_unitary(n, gen, size=min(_HC_BATCH, samples - i))
        a = np.einsum("sji,j,sjk->sik", np.conj(u), y, u)
        a[:, np.arange(n), np.arange(n)] -= x
        tr2 = np.real(np.einsum("sij,sji->s", a, a))
        vals[i:i + tr2.size] = np.exp(-tr2 / (2.0 * sigma ** 2))
    return MCEstimate.of(vals)


def hc_closed_form(x, y, sigma):
    """Determinant form of the same Haar average: the Karlin-McGregor
    transition density at time sigma^2 between x and y, times
    c1 sigma^(n^2), over the Vandermonde products h(x) h(y)."""
    _check_sigma(sigma)
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
    c = densities.constants(n)
    cu = c.c3 / c.c1
    hy2 = linalg.vandermonde(y) ** 2
    u = haar_unitary(n, rng, size=haar_samples)
    vals = np.empty(haar_samples)
    # the chamber integral at h = U* diag(y) U averages exp(tr(h A)/sigma^2)
    # at O = I only; U O is Haar on U(n) for every orthogonal O, so the Haar
    # average over U supplies the missing average over O(n)
    for k in range(haar_samples):
        h = np.einsum("ji,j,jk->ik", np.conj(u[k]), y, u[k])
        vals[k] = _convolution_chamber(n, T, t, h, rel_tol=1e-5)
    vals *= cu * hy2
    target = float(densities.finite_horizon_density(T, 0, None, t, y))
    return MCEstimate.of(vals), target
