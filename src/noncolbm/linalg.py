"""Deterministic linear-algebra kernels and input checks: Weyl-chamber,
Hermitian, skew, time and count checks, the pair order and pair gaps,
Vandermonde products, the one-dimensional heat kernel, and Pfaffians.

Batches are pair-first inside: pair_gaps gives the gaps of points (..., N)
as (N(N-1)/2, ...), pair axis first and batch axes last.  _pair_pfaffian,
the one Pfaffian entry point, takes pair values in that layout at any even
order; the public pfaffian hands it the upper triangles of checked stacks
(..., n, n)."""

import functools
import math
import numbers

import numpy as np

HERMITIAN_TOL = 1e-12


def weyl_vector(coords):
    """Validate and return a strictly increasing coordinate vector (a point
    of the open Weyl chamber)."""
    x = np.asarray(coords, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("coordinate vector must be a nonempty 1-d array")
    if not np.all(np.diff(x) > 0):
        raise ValueError("coordinates must be strictly increasing")
    return x


def check_hermitian(H):
    """Validate an N x N Hermitian (or real symmetric) matrix and return it."""
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.abs(H).max()) if H.size else 1.0)
    if np.abs(H - H.conj().T).max() > HERMITIAN_TOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return H


def check_skew(A):
    """Validate a skew-symmetric (A^T = -A) real or complex matrix, or a
    stack (..., n, n) of them, and return it as float or complex.  The
    tolerance is relative to each matrix's largest entry."""
    A = np.asarray(A)
    A = A.astype(np.result_type(A.dtype, float), copy=False)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError("matrix must be square")
    if A.size:
        scale = np.maximum(1.0, np.abs(A).max(axis=(-2, -1)))
        asym = A + np.swapaxes(A, -1, -2)
        asym = np.abs(asym, out=asym).max(axis=(-2, -1)).real
        if np.any(asym > HERMITIAN_TOL * scale):
            raise ValueError("matrix is not skew-symmetric within tolerance")
    return A


def check_time(t, zero_ok=False, name="time"):
    """Refuse, with ValueError, a time or scale (labelled name in the
    message) that is not finite and positive (nonnegative with zero_ok);
    NaN is refused too."""
    if not ((0 <= t) if zero_ok else (0 < t)) or not t < math.inf:
        raise ValueError("%s must be %s and finite, got %r"
                         % (name, "nonnegative" if zero_ok else "positive", t))


def check_count(name, value, least=2):
    """Refuse, with ValueError, a count (particles, replicates, Monte Carlo
    samples, time steps, grid points) that is not an integer >= least."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise ValueError("need at least %d %s (an integer), got %r"
                         % (least, name, value))


@functools.lru_cache(maxsize=32)
def pair_index(n):
    """Index arrays (i, j) of the pairs i < j of n coordinates in
    np.triu_indices(n, 1) order, computed once per n and shared read-only."""
    iu, ju = np.triu_indices(n, 1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def _coordinates_first(x):
    """The view (N, ...) of points x (..., N), coordinate axis first: that of
    np.moveaxis(x, -1, 0), by one transpose call."""
    return x.transpose(-1, *range(x.ndim - 1))


def pair_gaps(x):
    """The gaps x_j - x_i over the pairs i < j of the last axis of an array
    (..., N), pair axis first: shape (N(N-1)/2, ...), in pair_index order,
    taken as whole rows of the view _coordinates_first(x)."""
    iu, ju = pair_index(x.shape[-1])
    x = _coordinates_first(x)
    return x[ju] - x[iu]


def vandermonde(x):
    """Product of (x_j - x_i) over all pairs i < j of the last axis: a float
    for one vector, an array of shape x.shape[:-1] for a batch (..., N).

    Nonnegative for ordered input; zero when two coordinates coincide.  The
    product runs over the pair axis of pair_gaps, in pair order, as numpy's
    product over a last axis does.
    """
    x = np.asarray(x, dtype=float)
    h = np.prod(pair_gaps(x), axis=0)
    return float(h) if x.ndim == 1 else h


def heat_kernel(t, x, y):
    """Gaussian transition kernel (2*pi*t)^(-1/2) * exp(-(y-x)^2 / (2t)) at
    one time t.

    Accepts array x and y; broadcasts like numpy.
    """
    check_time(t)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.exp(-((y - x) ** 2) / (2.0 * t)) / np.sqrt(2.0 * np.pi * t)


def pfaffian(A):
    """Pfaffian of an even-dimensional skew-symmetric real or complex matrix
    (n, n), or of each matrix of a stack (..., n, n): checked, then
    _pair_pfaffian of a copy of its upper triangle (A is left unchanged).
    A scalar for one matrix (a float for real input), else an array of
    shape A.shape[:-2]."""
    A = check_skew(A)
    if A.shape[-1] % 2 != 0:
        raise ValueError("Pfaffian requires even dimension")
    v = np.moveaxis(A, (-2, -1), (0, 1))[pair_index(A.shape[-1])]
    pf = _pair_pfaffian(v)
    return pf.item() if A.ndim == 2 else pf


def _pair_pfaffian(v):
    """Pfaffian of the antisymmetric matrix of even order m whose entries
    above the diagonal are the pair values v (m(m-1)/2, ...), pair_index
    order, batch axes last: an array of shape v.shape[1:], not a view of v.
    Orders 0, 2 and 4 are read off v: 1, v01 or v01 v23 - v02 v13 + v03 v12;
    from order 6 _pfaffian_batch eliminates v's _pair_matrix (v is lost)."""
    p = v.shape[0]
    if p == 0:
        return np.ones(v.shape[1:], dtype=np.result_type(v.dtype, float))
    # v[k, ...] is an array even for one matrix, so that its products go
    # through the array ufuncs, not the scalar ones
    if p == 1:
        return v[0, ...].copy()
    if p == 6:
        return (v[0, ...] * v[5, ...] - v[1, ...] * v[4, ...]
                + v[2, ...] * v[3, ...])
    m = (1 + math.isqrt(1 + 8 * p)) // 2
    return _pfaffian_batch(_pair_matrix(v, m))


def _pair_matrix(v, m, out=None):
    """Antisymmetric matrix of order m of the pair values v (m(m-1)/2, ...),
    pair_index order, batch axes last: shape (m, m, ...), the layout of
    _pfaffian_batch.  v is overwritten.  out, if given, is a zero array of
    that shape to fill."""
    iu, ju = pair_index(m)
    a = np.zeros((m, m) + v.shape[1:], dtype=v.dtype) if out is None else out
    a[iu, ju] = v
    # negated in place, as a product with -1.0: numpy's np.negative is not
    # vectorized for complex arrays (five times slower on a 100-row drift)
    a[ju, iu] = np.multiply(v, -1.0, out=v)
    return a


def _pfaffian_batch(a):
    """Pfaffians of a stack (n, n, ...) of skew-symmetric float or complex
    matrices of even n >= 4, batch axes last, unchecked: an array of shape
    a.shape[2:].  a is the work space and is overwritten.

    Skew-symmetric elimination with partial pivoting (Parlett-Reid, as in
    Wimmer, ACM TOMS 38, 2012), in place, one loop over columns for the
    whole stack, down to the last 4 x 4 block; Pf is the signed product of
    the pivots times _pair_pfaffian of that block's pair values.  With the
    batch axes last every step runs along contiguous rows.
    """
    n = a.shape[0]
    shape = a.shape[2:]
    a = a.reshape((n, n, -1))
    rows = np.arange(a.shape[-1])
    pf = np.ones(a.shape[-1], dtype=a.dtype)
    for k in range(0, n - 4, 2):
        # pivot: largest entry in column k below the diagonal; swap it into
        # row and column k + 1 (earlier rows and columns are done with)
        kp = k + 1 + np.argmax(np.abs(a[k + 1:, k]), axis=0)
        pf[kp != k + 1] *= -1.0
        row = a[k + 1, k:].copy()
        a[k + 1, k:] = a[kp, k:, rows].T
        a[kp, k:, rows] = row.T
        col = a[k:, k + 1].copy()
        a[k:, k + 1] = a[k:, kp, rows]
        a[k:, kp, rows] = col
        piv = a[k, k + 1]
        pf *= piv
        # a zero pivot column means Pf = 0; dividing by 1 keeps the rest of
        # that matrix finite
        tau = a[k, k + 2:] / np.where(piv == 0.0, 1.0, piv)
        # one outer product d_ij = tau_i col_j gives both rank-one terms,
        # col_i tau_j being d_ji (bitwise so for real stacks).  d is freed
        # before the next step allocates: held over, it grows the heap,
        # which glibc then trims and faults back in on every call
        col = a[k + 2:, k + 1]
        d = tau[:, None] * col[None, :]
        a[k + 2:, k + 2:] += d
        a[k + 2:, k + 2:] -= d.swapaxes(0, 1)
        del d
    pf *= _pair_pfaffian(a[n - 4:, n - 4:][pair_index(4)])
    return pf.reshape(shape)
