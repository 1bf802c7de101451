import math

import numpy as np
import pytest

from noncolbm import paths, verify
from noncolbm.rng import substream


def _pairs(n):
    iu, ju = np.triu_indices(n, k=1)
    return list(zip(iu.tolist(), ju.tolist()))


def sample_gue_reference(n, t, size, gen):
    """Pair loop: the diagonal, then (re, im) of each pair i < j."""
    out = np.zeros((size, n, n), dtype=complex)
    d = gen.normal(scale=math.sqrt(t), size=(size, n))
    for i in range(n):
        out[:, i, i] = d[:, i]
    for (i, j) in _pairs(n):
        z = (gen.normal(scale=math.sqrt(t / 2.0), size=size)
             + 1j * gen.normal(scale=math.sqrt(t / 2.0), size=size))
        out[:, i, j] = z
        out[:, j, i] = np.conj(z)
    return out


def sample_goe_reference(n, t, size, gen):
    """Pair loop: the diagonal, then each pair i < j."""
    out = np.zeros((size, n, n))
    d = gen.normal(scale=math.sqrt(t), size=(size, n))
    for i in range(n):
        out[:, i, i] = d[:, i]
    for (i, j) in _pairs(n):
        v = gen.normal(scale=math.sqrt(t / 2.0), size=size)
        out[:, i, j] = v
        out[:, j, i] = v
    return out


def sample_xit_marginal_reference(n, t, T, size, gen):
    """Pair loop: the diagonal, then (re, im) of each pair i < j."""
    out = np.zeros((size, n, n), dtype=complex)
    d = gen.normal(scale=math.sqrt(t), size=(size, n))
    for i in range(n):
        out[:, i, i] = d[:, i]
    var_im = t * (T - t) / T
    for (i, j) in _pairs(n):
        z = (gen.normal(scale=math.sqrt(t / 2.0), size=size)
             + 1j * gen.normal(scale=math.sqrt(var_im / 2.0), size=size))
        out[:, i, j] = z
        out[:, j, i] = np.conj(z)
    return out


class TestTimeGrid:
    def test_uniform(self):
        g = paths.TimeGrid.uniform(2.0, 4)
        np.testing.assert_allclose(g.times, [0, 0.5, 1.0, 1.5, 2.0])

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            paths.TimeGrid(np.array([0.0, 0.5, 0.4]), 1.0)

    def test_rejects_beyond_horizon(self):
        with pytest.raises(ValueError):
            paths.TimeGrid(np.array([0.0, 2.0]), 1.0)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0])
    def test_rejects_horizon_not_positive_and_finite(self, horizon):
        with pytest.raises(ValueError, match="horizon must be positive and "
                           "finite, got %r" % (horizon,)):
            paths.TimeGrid(np.array([0.0]), horizon)


class TestBrownian:
    def test_starts_at_zero(self):
        p = paths._brownian_batch(paths.TimeGrid.uniform(1.0, 8).times, 1,
                                  substream(1))[0]
        assert p[0] == 0.0

    def test_unit_increment_moments(self):
        g = paths.TimeGrid.uniform(1.0, 1)
        vals = np.array([
            paths._brownian_batch(g.times, 1, substream(2, i))[0, -1]
            for i in range(100_000)])
        assert abs(vals.mean()) < 0.02

    def test_variance_grows_linearly(self):
        g = paths.TimeGrid.uniform(2.0, 16)
        m = 20_000
        ends = np.array([
            paths._brownian_batch(g.times, 1, substream(3, i))[0, -1]
            for i in range(m)])
        var = ends.var()
        se = math.sqrt(2.0) * 2.0 / math.sqrt(m)  # var of var estimator
        assert abs(var - 2.0) <= 3 * se

    def test_seed_determinism(self):
        g = paths.TimeGrid.uniform(1.0, 32)
        a = paths._brownian_batch(g.times, 1, substream(4))[0]
        b = paths._brownian_batch(g.times, 1, substream(4))[0]
        np.testing.assert_array_equal(a, b)


class TestBridge:
    def test_pins_endpoint_exactly(self):
        g = paths.TimeGrid.uniform(1.0, 8)
        p = paths.sample_bridge(g, 2.5, substream(5))
        assert p[-1] == 2.5

    def test_midpoint_variance(self):
        T, m = 1.0, 20_000
        g = paths.TimeGrid.uniform(T, 2)
        mids = np.array([paths.sample_bridge(g, 0.0, substream(6, i))[1]
                         for i in range(m)])
        var = mids.var()
        se = math.sqrt(2.0) * (T / 4) / math.sqrt(m)
        assert abs(var - T / 4) <= 3 * se

    def test_mean_is_linear_interpolation(self):
        T, y, m = 2.0, 3.0, 20_000
        g = paths.TimeGrid.uniform(T, 4)
        vals = np.array([paths.sample_bridge(g, y, substream(7, i))
                         for i in range(m)])
        for k, t in enumerate(g.times):
            se = math.sqrt(t * (T - t) / T / m) if 0 < t < T else 0.0
            assert abs(vals[:, k].mean() - t / T * y) <= max(3 * se, 1e-12)


class TestMatrixProcesses:
    def test_xit_real_at_horizon(self):
        g = paths.TimeGrid.uniform(1.0, 16)
        mp = paths.build_matrix_process("xit", 3, g, substream(9))
        assert np.abs(mp.values[-1].imag).max() == 0.0

    def test_hermitian_along_path(self):
        g = paths.TimeGrid.uniform(1.0, 8)
        mp = paths.build_matrix_process("gue", 3, g, substream(10))
        for v in mp.values:
            np.testing.assert_allclose(v, v.conj().T, atol=1e-14)

    def test_gue_trace_second_moment(self):
        t, n, m = 0.5, 2, 30_000
        vals = paths.sample_gue(n, t, m, substream(11))
        tr2 = np.real(np.einsum("sij,sji->s", vals, vals))
        se = tr2.std() / math.sqrt(m)
        assert abs(tr2.mean() - n * n * t) <= 3 * se

    def test_goe_entry_variances(self):
        t, m = 0.8, 30_000
        vals = paths.sample_goe(2, t, m, substream(12))
        dvar = vals[:, 0, 0].var()
        ovar = vals[:, 0, 1].var()
        assert abs(dvar - t) <= 3 * math.sqrt(2) * t / math.sqrt(m)
        assert abs(ovar - t / 2) <= 3 * math.sqrt(2) * (t / 2) / math.sqrt(m)

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            paths.build_matrix_process("sue", 2,
                                       paths.TimeGrid.uniform(1.0, 2),
                                       substream(13))

    @pytest.mark.parametrize("kind", ["gue", "goe", "xit", "pinned"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_csv_column_map_gives_every_entry_bit_for_bit(self, kind, n):
        # the map's copies and negations of the source columns, and zeros
        # for its None columns, are the path's entries' real and imaginary
        # parts row-major
        g = paths.TimeGrid.uniform(2.0, 8)
        if kind == "pinned":
            h = paths.sample_gue(n, 1.0, 1, substream(14, n))[0]
            mp = paths.build_pinned_process(n, g, h, substream(15, n))
        else:
            mp = paths.build_matrix_process(kind, n, g, substream(16, n))
        sources, colmap = paths.matrix_path_csv_rows(mp)
        assert sources.shape == (9, n * n) and len(colmap) == 2 * n * n
        full = np.column_stack([np.zeros(9) if c is None else
                                -sources[:, c] if negate else sources[:, c]
                                for c, negate in colmap])
        v = mp.values.reshape(9, -1)
        expected = np.stack([v.real, v.imag], axis=-1).reshape(9, -1)
        assert full.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [0, -1, 2.5])
    def test_invalid_size(self, n):
        with pytest.raises(ValueError,
                           match=r"need at least 1 n \(an integer\), got %r"
                           % (n,)):
            paths.build_matrix_process("gue", n,
                                       paths.TimeGrid.uniform(1.0, 2),
                                       substream(13))


class TestMarginalSamplers:
    def test_xit_rejects_infinite_horizon(self):
        # the bridge variance t (T - t) / T was NaN at T = inf
        with pytest.raises(ValueError, match="horizon must be positive and "
                           "finite, got inf"):
            paths.sample_xit_marginal(2, 0.5, math.inf, 3, substream(63))

    @pytest.mark.parametrize("t", [0.0, -1.0, 1.5, math.nan])
    def test_xit_refusal_names_t_and_horizon(self, t):
        with pytest.raises(ValueError, match=r"need 0 < t <= T, got t=%r, "
                           r"T=1\.0" % t):
            paths.sample_xit_marginal(2, t, 1.0, 3, substream(63))

    # same draws in the same order, same arithmetic: equal, not just close
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_match_pair_loop_references(self, n):
        for t, T in ((0.7, 1.0), (1.0, 1.0)):
            cases = [
                (paths.sample_gue(n, t, 50, substream(60, n)),
                 sample_gue_reference(n, t, 50, substream(60, n))),
                (paths.sample_goe(n, t, 50, substream(61, n)),
                 sample_goe_reference(n, t, 50, substream(61, n))),
                (paths.sample_xit_marginal(n, t, T, 50, substream(62, n)),
                 sample_xit_marginal_reference(n, t, T, 50,
                                               substream(62, n))),
            ]
            for new, ref in cases:
                assert new.dtype == ref.dtype
                np.testing.assert_array_equal(new, ref)
                np.testing.assert_array_equal(np.signbit(new.imag),
                                              np.signbit(ref.imag))


class TestPinnedProcess:
    def test_ends_exactly_at_target(self):
        g = paths.TimeGrid.uniform(1.0, 8)
        h = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, -0.5]])
        mp = paths.build_pinned_process(2, g, h, substream(14))
        np.testing.assert_array_equal(mp.values[-1], h)

    def test_zero_target_zero_mean(self):
        g = paths.TimeGrid.uniform(1.0, 4)
        m = 5_000
        acc = np.zeros((len(g.times), 2, 2), dtype=complex)
        for i in range(m):
            acc += paths.build_pinned_process(
                2, g, np.zeros((2, 2)), substream(15, i)).values
        assert np.abs(acc / m).max() < 0.05

    def test_gue_endpoint_recovers_gue_marginal(self):
        # pinning at an independent Hermitian-ensemble endpoint gives back
        # the plain Hermitian Brownian marginal at every earlier time
        T, t, m = 1.0, 0.35, 8_000
        g = paths.TimeGrid(np.array([0.0, t, T]), T)
        ev_pinned = []
        for i in range(m):
            gen = substream(16, i)
            h = paths.sample_gue(2, T, 1, gen)[0]
            mp = paths.build_pinned_process(2, g, h, gen)
            ev_pinned.append(np.linalg.eigvalsh(mp.values[1]))
        ev_pinned = np.array(ev_pinned)
        ev_gue = np.linalg.eigvalsh(paths.sample_gue(2, t, m, substream(17)))
        r = verify.ks_two_sample(ev_pinned.ravel(), ev_gue.ravel(),
                                 n_eff=(m, m))
        assert r.p_value > 0.01

    def test_goe_endpoint_recovers_xit_marginal(self):
        T, t, m = 1.0, 0.6, 8_000
        g = paths.TimeGrid(np.array([0.0, t, T]), T)
        ev_pinned = []
        for i in range(m):
            gen = substream(18, i)
            a = paths.sample_goe(2, T, 1, gen)[0].astype(complex)
            mp = paths.build_pinned_process(2, g, a, gen)
            ev_pinned.append(np.linalg.eigvalsh(mp.values[1]))
        ev_pinned = np.array(ev_pinned)
        ev_xit = np.linalg.eigvalsh(
            paths.sample_xit_marginal(2, t, T, m, substream(19)))
        r = verify.ks_two_sample(ev_pinned.ravel(), ev_xit.ravel(),
                                 n_eff=(m, m))
        assert r.p_value > 0.01

    def test_conjugation_lemma(self):
        # eigenvalues of U' X(t:H) U match eigenvalues of X(t:U'HU)
        T, t, m = 1.0, 0.5, 8_000
        g = paths.TimeGrid(np.array([0.0, t, T]), T)
        rng = substream(30)
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(z)
        h = np.array([[0.4, 0.3 - 0.1j], [0.3 + 0.1j, -0.2]])
        ev_a, ev_b = [], []
        for i in range(m):
            mp = paths.build_pinned_process(2, g, h, substream(31, i))
            ev_a.append(np.linalg.eigvalsh(
                u.conj().T @ mp.values[1] @ u))
            mp = paths.build_pinned_process(2, g, u.conj().T @ h @ u,
                                            substream(32, i))
            ev_b.append(np.linalg.eigvalsh(mp.values[1]))
        ev_a, ev_b = np.array(ev_a), np.array(ev_b)
        r = verify.ks_two_sample(ev_a.ravel(), ev_b.ravel(), n_eff=(m, m))
        assert r.p_value > 0.01

    # n = 0 died in numpy's zero-size reduction inside check_hermitian
    @pytest.mark.parametrize("n", [0, -1, 2.5])
    def test_rejects_bad_size(self, n):
        with pytest.raises(ValueError,
                           match=r"need at least 1 n \(an integer\), got %r"
                           % (n,)):
            paths.build_pinned_process(n, paths.TimeGrid.uniform(1.0, 2),
                                       np.zeros((0, 0)), substream(33))

    def test_rejects_non_hermitian_target(self):
        with pytest.raises(ValueError):
            paths.build_pinned_process(2, paths.TimeGrid.uniform(1.0, 2),
                                       np.array([[0.0, 1.0], [0.0, 0.0]]),
                                       substream(33))


class TestEigenvaluePath:
    def test_zero_path(self):
        g = paths.TimeGrid.uniform(1.0, 4)
        mp = paths.MatrixPath(g, np.zeros((5, 2, 2), dtype=complex))
        np.testing.assert_array_equal(np.linalg.eigvalsh(mp.values),
                                      np.zeros((5, 2)))

    def test_scalar_path_is_itself(self):
        g = paths.TimeGrid.uniform(1.0, 3)
        vals = np.array([0.1, -0.2, 0.5, 1.0]).reshape(4, 1, 1)
        mp = paths.MatrixPath(g, vals.astype(complex))
        np.testing.assert_allclose(np.linalg.eigvalsh(mp.values).ravel(),
                                   vals.ravel())

    def test_conjugation_invariance(self):
        g = paths.TimeGrid.uniform(1.0, 8)
        mp = paths.build_matrix_process("gue", 3, g, substream(36))
        rng = substream(37)
        z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u, _ = np.linalg.qr(z)
        conj = paths.MatrixPath(
            g, np.einsum("ij,kjl,lm->kim", u.conj().T, mp.values, u))
        np.testing.assert_allclose(np.linalg.eigvalsh(conj.values),
                                   np.linalg.eigvalsh(mp.values), atol=1e-8)

    def test_reproducibility(self):
        g = paths.TimeGrid.uniform(1.0, 16)
        a = paths.build_matrix_process("xit", 2, g, substream(38))
        b = paths.build_matrix_process("xit", 2, g, substream(38))
        np.testing.assert_array_equal(a.values, b.values)
