"""Samplers for scalar Brownian motions and bridges, the Hermitian
matrix-valued processes built from them, and the endpoint-pinned variant.
Bridges are sampled by the exact identity bridge(t) = W(t) - (t/T)(W(T) - b),
so the finite-dimensional laws are exact on any grid."""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .rng import as_generator


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times from 0 up to a positive, finite horizon."""
    times: np.ndarray
    horizon: float

    def __post_init__(self):
        linalg.check_time(self.horizon, name="horizon")
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 1 or t[0] != 0.0:
            raise ValueError("grid must be 1-d and start at 0")
        if np.any(np.diff(t) <= 0):
            raise ValueError("grid times must be strictly increasing")
        if t[-1] > self.horizon + 1e-12:
            raise ValueError("grid extends beyond the horizon")
        object.__setattr__(self, "times", t)

    @classmethod
    def uniform(cls, horizon, steps):
        return cls(np.linspace(0.0, horizon, steps + 1), horizon)


@dataclass
class MatrixPath:
    grid: TimeGrid
    values: np.ndarray  # (K, N, N) complex, Hermitian at every time


def _hermitian(diag, upper):
    """Hermitian (or real symmetric) stack (..., n, n) from its diagonal
    (n, ...) and its strict upper triangle (n(n-1)/2, ...), entries along
    the leading axis, the triangle in linalg.pair_index(n) order."""
    n = diag.shape[0]
    iu, ju = linalg.pair_index(n)
    out = np.zeros(diag.shape[1:] + (n, n), dtype=np.result_type(diag, upper))
    out[..., np.arange(n), np.arange(n)] = np.moveaxis(diag, 0, -1)
    out[..., iu, ju] = np.moveaxis(upper, 0, -1)
    out[..., ju, iu] = np.moveaxis(np.conj(upper), 0, -1)
    return out


def _hermitian_path(n, real, imag):
    """(K, n, n) path from the real parts (n(n+1)/2, K) of the upper triangle
    with the diagonal, in np.triu_indices(n) order, and the imaginary parts
    (n(n-1)/2, K) of the strict upper triangle.  An off-diagonal entry is
    (re + i im)/sqrt(2)."""
    iu, ju = np.triu_indices(n)
    on = iu == ju
    return _hermitian(real[on], (real[~on] + 1j * imag) / math.sqrt(2.0))


def _brownian_batch(times, m, gen):
    """m independent standard Brownian paths on the grid: (m, K) values."""
    inc = gen.normal(size=(m, times.size - 1)) * np.sqrt(np.diff(times))
    return np.concatenate([np.zeros((m, 1)), np.cumsum(inc, axis=1)], axis=1)


def _bridge_batch(grid, endpoints, gen):
    """Bridges from 0 to each endpoint, pinned at the grid's horizon T:
    (m, K) values on the grid, by the exact identity bridge(t) = W(t) -
    (t/T)(W(T) - b), W drawn on the grid times with T appended unless they
    end there.  A grid ending at T ends exactly at the endpoints."""
    times, T = grid.times, grid.horizon
    ends_at_T = abs(times[-1] - T) < 1e-14
    w = _brownian_batch(times if ends_at_T else np.append(times, T),
                        endpoints.size, gen)
    vals = w[:, :times.size] - (times / T) * (w[:, -1:] - endpoints[:, None])
    if ends_at_T:
        vals[:, -1] = endpoints
    return vals


def sample_bridge(grid, endpoint, rng):
    """Brownian bridge from 0 to endpoint at the grid's horizon: its (K,)
    values on the grid."""
    return _bridge_batch(grid, np.array([float(endpoint)]),
                         as_generator(rng))[0]


def build_matrix_process(kind, n, grid, rng):
    """Sample one realization of a Hermitian matrix-valued process.

    kind: "gue" (Brownian real and imaginary parts), "goe" (real symmetric
    Brownian), or "xit" (Brownian real parts, bridge imaginary parts pinned
    to 0 at the grid's horizon).  The real parts are drawn first, then the
    imaginary ones.
    """
    gen = as_generator(rng)
    kind = kind.lower()
    if kind not in ("gue", "goe", "xit"):
        raise ValueError("unknown process kind %r" % (kind,))
    linalg.check_count("n", n, least=1)
    n_lt = n * (n - 1) // 2
    bre = _brownian_batch(grid.times, n * (n + 1) // 2, gen)
    if kind == "gue":
        bim = _brownian_batch(grid.times, n_lt, gen)
    elif kind == "xit":
        bim = _bridge_batch(grid, np.zeros(n_lt), gen)
    else:
        bim = np.zeros((n_lt, grid.times.size))
    return MatrixPath(grid, _hermitian_path(n, bre, bim))


def build_pinned_process(n, grid, H, rng):
    """Finite-horizon process pinned to equal the Hermitian H at the horizon.

    Every scalar component is an independent bridge; off-diagonal components
    end at sqrt(2) times the corresponding entry before the 1/sqrt(2)
    scaling, so the matrix value at the horizon is H itself.
    """
    linalg.check_count("n", n, least=1)
    H = linalg.check_hermitian(H)
    if H.shape[0] != n:
        raise ValueError("H has wrong dimension")
    gen = as_generator(rng)
    iu, ju = np.triu_indices(n)
    ends_re = H[iu, ju].real * np.where(iu == ju, 1.0, math.sqrt(2.0))
    ends_im = H[iu, ju][iu != ju].imag * math.sqrt(2.0)
    bre = _bridge_batch(grid, ends_re, gen)
    bim = _bridge_batch(grid, ends_im, gen)
    return MatrixPath(grid, _hermitian_path(n, bre, bim))


# Fast single-time marginal samplers (exact laws, used by the statistical
# verification suites where whole paths are not needed).

def _gaussian_hermitian(n, t, var_im, size, rng):
    """(size, n, n) draws with diagonal entries N(0, t) and off-diagonal
    entries (a + i b) / sqrt(2), a ~ N(0, t), b ~ N(0, var_im): the diagonal
    first, then (a, b) pair by pair, each over the whole batch.  Real
    symmetric, with no b drawn, when var_im is None."""
    linalg.check_count("n", n, least=1)
    linalg.check_time(t)
    linalg.check_count("size", size, least=1)
    gen = as_generator(rng)
    d = gen.normal(scale=math.sqrt(t), size=(size, n))
    var = [t] if var_im is None else [t, var_im]
    z = gen.normal(scale=[[math.sqrt(v / 2.0)] for v in var],
                   size=(n * (n - 1) // 2, len(var), size))
    return _hermitian(d.T, z[:, 0] if var_im is None
                      else z[:, 0] + 1j * z[:, 1])


def sample_gue(n, t, size, rng):
    """(size, n, n) Hermitian draws from the GUE law at variance scale t."""
    return _gaussian_hermitian(n, t, t, size, rng)


def sample_goe(n, t, size, rng):
    """(size, n, n) symmetric draws from the GOE law at variance scale t."""
    return _gaussian_hermitian(n, t, None, size, rng)


def sample_xit_marginal(n, t, T, size, rng):
    """(size, n, n) draws of the finite-horizon process at a fixed time t."""
    linalg.check_time(T, name="horizon")
    if not 0 < t <= T:
        raise ValueError("need 0 < t <= T, got t=%r, T=%r" % (t, T))
    return _gaussian_hermitian(n, t, t * (T - t) / T, size, rng)


def matrix_path_csv_rows(mp):
    """A path's CSV rows after its time column, as (sources, columns).

    sources (K, N^2): the real parts of the diagonal and upper triangle in
    np.triu_indices(N) order, then the imaginary parts of the strict upper
    triangle in that order.  columns has one (source, negate) pair per
    column of the row (the entries row-major, real and imaginary parts
    interleaved): H_ji = conj(H_ij) takes the lower triangle from the upper
    one, its imaginary parts negated, and the diagonal's imaginary parts,
    +0.0 as _hermitian writes them, have source None."""
    n = mp.values.shape[1]
    iu, ju = np.triu_indices(n)
    off = iu != ju
    upper = mp.values[:, iu, ju]
    sources = np.column_stack([upper.real, upper.imag[:, off]])
    re = np.empty((n, n), dtype=int)
    re[iu, ju] = re[ju, iu] = np.arange(iu.size)
    im = np.empty((n, n), dtype=int)
    im[iu[off], ju[off]] = im[ju[off], iu[off]] = \
        iu.size + np.arange(off.sum())
    columns = []
    for i in range(n):
        for j in range(n):
            columns += [(int(re[i, j]), False),
                        (None if i == j else int(im[i, j]), i > j)]
    return sources, columns
