"""Bit-for-bit pins of the density kernels.

Each case hashes (sha256) the float64 bytes of a kernel's output on fixed
inputs: batches of several leading shapes and one lone vector.  The
digests were taken before the kernels moved to the pair-first layout, so a
layout change that reorders any arithmetic shows here.  The bits depend on
numpy's and scipy's exp and erf loops, which are chosen by version and CPU,
so the digests are checked only under the build they were taken with.
"""

import hashlib
import math
import platform

import numpy as np
import pytest
import scipy

from noncolbm import densities, verify

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:   # numpy < 2
    __cpu_features__ = {}

# numpy, scipy, machine and whether the AVX512_SKX loops are dispatched
PINNED_BUILD = ("2.4.6", "1.17.1", "x86_64", True)
BUILD = (np.__version__, scipy.__version__, platform.machine(),
         bool(__cpu_features__.get("AVX512_SKX")))


def _points(seed, n, scale):
    """A (5, 8, n) batch of ordered points and one lone (n,) vector."""
    rng = np.random.default_rng(seed)
    xs = np.sort(scale * rng.normal(size=(5, 8, n)), axis=-1)
    return xs, xs[2, 3].copy()


def _digest(*values):
    h = hashlib.sha256()
    for v in values:
        h.update(np.ascontiguousarray(np.asarray(v, dtype=float)).tobytes())
    return h.hexdigest()


def _on_points(f, seed, n, scale):
    xs, x = _points(seed, n, scale)
    return _digest(f(xs), f(x))


def _cdf_digest(joint, n, lo, hi, grid_points):
    cdfs = verify.chamber_marginal_cdfs(joint, n, lo, hi, grid_points)
    vs = np.linspace(lo, hi, grid_points)
    return _digest(*(c(vs) for c in cdfs))


CASES = {}
for _n in range(1, 10):
    CASES["survival_pfaffian-%d" % _n] = (
        lambda n=_n: _on_points(
            lambda x: densities.survival_pfaffian(0.7, x), 41, n, 1.5))
    CASES["survival_log_gradient-%d" % _n] = (
        lambda n=_n: _on_points(
            lambda x: densities.survival_log_gradient(0.7, x), 42, n, 1.5))
for _n in range(1, 7):
    CASES["finite_horizon_origin-%d" % _n] = (
        lambda n=_n: _on_points(
            lambda y: densities.finite_horizon_density(1.0, 0, None, 0.25, y),
            43, n, 0.5))
    CASES["finite_horizon_start-%d" % _n] = (
        lambda n=_n: _on_points(
            lambda y: densities.finite_horizon_density(
                1.0, 0.1, np.linspace(-1.0, 1.0, n), 0.5, y), 44, n, 1.0))
    for _kind in ("gue", "goe"):
        CASES["eigenvalue_density-%s-%d" % (_kind, _n)] = (
            lambda n=_n, kind=_kind: _on_points(
                lambda x: densities.eigenvalue_density(kind, x, 0.7),
                45, n, 1.0))
CASES["marginal_cdfs-finite_horizon-3"] = lambda: _cdf_digest(
    lambda y: densities.finite_horizon_density(1.0, 0, None, 1.0 / 64, y),
    3, -0.75, 0.75, 15)
for _n in (2, 3):
    CASES["marginal_cdfs-goe-%d" % _n] = (lambda n=_n: _cdf_digest(
        lambda y: densities.eigenvalue_density("goe", y, 1.0), n, -6.0, 6.0,
        801))

DIGESTS = {
    "eigenvalue_density-goe-1":
        "020dadaa67a3e3852f284ec916e17e9932b012e869efe0f07c239198d98e3b4c",
    "eigenvalue_density-goe-2":
        "74687a1f4b9f6d45d947a8e70a39547ff4a84f113501c1e83e98a9d667dad2fd",
    "eigenvalue_density-goe-3":
        "b78a56d67bd4ed8478bf475eeeeb0bb05e3c5709547491ea495fecf7aa29d8de",
    "eigenvalue_density-goe-4":
        "e1686ead5dced09e87dc87ef8dd9e635d9a5d4db7658e7b2155b2c5a8d6b6dab",
    "eigenvalue_density-goe-5":
        "615d05b33f3dec03d61fed91cc3bf25a9d5213faa77605c531a2e1dfb5767aa5",
    "eigenvalue_density-goe-6":
        "4ae6ee5afe5570952d2dc833c2bd3b0180f0354ccb1341d526320d07f97117ca",
    "eigenvalue_density-gue-1":
        "92f8ecee39754882d3af07c6f965c25f97254a8ca41e586c22e04dae977dd96f",
    "eigenvalue_density-gue-2":
        "1785c45f31f320b40e5822d772426f3b60d5a4940b145ae797947856737ca99f",
    "eigenvalue_density-gue-3":
        "9064a44938d51bcf656a35a4af2ad79e238cff14eefb328e7f508f109612f4d9",
    "eigenvalue_density-gue-4":
        "279170bc5dcb237104d38b28afcd5d14e994a9fd66e038b9309de6c918b0b393",
    "eigenvalue_density-gue-5":
        "5d4ea708a08a33cf420ace58a81ba219a4e50952ad5b0563be70e4270314c8bb",
    "eigenvalue_density-gue-6":
        "0c837cdbcf0ab1db14181aaca641051262e1a8c64f3ca8d93a49d2c0f0cf4dd6",
    "finite_horizon_origin-1":
        "cb61729495e8b666e33782f8f66b9b9e677eea446565ab099988e6012fc804b5",
    "finite_horizon_origin-2":
        "ae59153ad5f4c081baa1312788f6bebc8cc162db17380c8a6dc081ab0ec5fab2",
    "finite_horizon_origin-3":
        "94340dc38367ea253758b392191038d09d3d24af1d3c688aa62507afaaa9ef5e",
    "finite_horizon_origin-4":
        "5906cd78e3daeb10915d18c694e1c8d4d091956140fd3918d6b2d0a840bc42ea",
    "finite_horizon_origin-5":
        "324d48e3ed915563f44acf148bc8d26e7a46d4d79da82bb1a86877f1f4470451",
    "finite_horizon_origin-6":
        "f19e60a8bbf848030bde78299f50a79d7b2a8f435986138af25ac5439db890b1",
    "finite_horizon_start-1":
        "23a283bf85e11167345392ebdfdd5cee1f6c0ea2bcd19c627ecb20a28e0a91e9",
    "finite_horizon_start-2":
        "b520422726a3947067b1735f15bf056c1a8721efb0d82cbf31508a194d356400",
    "finite_horizon_start-3":
        "4b666059ce28699895f02d724e234b05059b6fab8c7f668474f888d905126a22",
    "finite_horizon_start-4":
        "34cae583e9ab867f551c3cbdc8967f076508a33902e9192a9712772f4fa7d49a",
    "finite_horizon_start-5":
        "63892fdce00eb7651406916217dd46c90492aed99fd81a9e48d66595f092b4f4",
    "finite_horizon_start-6":
        "cbfe41704c516681e446c80eeb14b637f0b3bf37fdbed00696e8961987cb2020",
    "marginal_cdfs-finite_horizon-3":
        "48ca090308eae4ca3ec6ae0d7bf5f7091510ea0edaf87749b8fea7d7d6908a97",
    "marginal_cdfs-goe-2":
        "c3c844695f16a0b6de6a0c2036b4d299377135a430cf3f90f887f53b42f49147",
    "marginal_cdfs-goe-3":
        "bb4ccd9ea64fdf6797c412996139ae6ebb0aa8bb55dbfafb5aa6082fb21130fc",
    "survival_log_gradient-1":
        "7b4499c3cc6e82a9da3100028f52af7f8c1e9ee60e33010a108e401989782962",
    "survival_log_gradient-2":
        "dfc01c3486e2378093e4d378aea9e422c969d7e2fdc728ca2705f69fd737d0ae",
    "survival_log_gradient-3":
        "e55fef3df66fc8c8e2dd3a1ccf3dd92d26cc7903f0dfc21308bfbbdfceb9b6bc",
    "survival_log_gradient-4":
        "331d2063c6d9cc73ce5317dcc21e0efa8246261b8b2e9968a70a6ebe3cd07ca9",
    "survival_log_gradient-5":
        "a382083aa5f1262d737432fb80dc43506b7621177ca09475348b88d193b64872",
    "survival_log_gradient-6":
        "514bfff406d4c22cfdb80ba46002d69b3d03cd071660912ea13ef739082dffb6",
    "survival_log_gradient-7":
        "0859df310b773f5d8e065f04528f08290dece43788e48c7423d888fa4c7a7579",
    "survival_log_gradient-8":
        "06d39fa241740ad470a7183012b4a12022ffe95b54eeec630bec98ea911b83da",
    "survival_log_gradient-9":
        "62c12c1fab2aacce8efa24e41e0f513c35c43f38e9e25207a55cdf8410675eed",
    "survival_pfaffian-1":
        "9abda4de41e949b1b8710a7d2595024a6ed5f2d52e00ffa8b1ec03a0264ab742",
    "survival_pfaffian-2":
        "86aea306ba0d4ae121d636add3bf3d1c2168c5e5a45897fd1b484407a26e7903",
    "survival_pfaffian-3":
        "4f550db2ac238714b7d5a45b1a7c8f719b794560b8d056755b00e9a33e007a42",
    "survival_pfaffian-4":
        "3a3a59fae631079b014d48006997c571fe3dbc25ba44a50df50f49b111e03f3b",
    "survival_pfaffian-5":
        "f224c9813c6bc7e186968b403778bc756ed5cc8559c7889402ccc1df0436c504",
    "survival_pfaffian-6":
        "3c7bde18eb5904928c4e9c056485b3f8dd3f09b79b65b2936e9d1230a6715d09",
    "survival_pfaffian-7":
        "aaba871f8e8e4303c27d8e3d0b0f8980db58407dc9202c53eca7aa06b02bd6e2",
    "survival_pfaffian-8":
        "c9bf16023ea6451e9c7fefeefcacf4c3ca8e744a020d234507455ad387aaf45b",
    "survival_pfaffian-9":
        "05c702bb21778f2fa8a0c407497d8bd6c7226f767df9904a74879aa2f1e461e7",
}


@pytest.mark.skipif(BUILD != PINNED_BUILD,
                    reason="digests taken under numpy %s, scipy %s on %s "
                    "with AVX512_SKX=%s" % PINNED_BUILD)
@pytest.mark.parametrize("case", sorted(CASES))
def test_pinned_bits(case):
    assert CASES[case]() == DIGESTS[case]


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)
