"""Bit-for-bit pins of the density kernels, the SDE integrators and the SDE
suites' reports.

Each density case hashes (sha256) the float64 bytes of a kernel's output on
fixed inputs: batches of several leading shapes and one lone vector.  The
digests were taken before the kernels moved to the pair-first layout, so a
layout change that reorders any arithmetic shows here.  Each SDE case hashes
the states and the failed flags of a simulation, and each suite case the
JSON of its report; these digests were taken before the integrator kept its
live replicates coordinate-first and stored only recorded times.  The bits
depend on numpy's and scipy's exp and erf loops, which are chosen by version
and CPU, so the digests are checked only under the build they were taken
with.
"""

import hashlib
import json
import math
import platform

import numpy as np
import pytest
import scipy

from noncolbm import densities, sde, verify

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

_SIMULATE = {"dyson": sde.simulate_dyson,
             "noncolliding": sde.simulate_noncolliding}
# drift_n5's separated start: dt = 1/256, 100 replicates, 2 steps
DRIFT_N5 = dict(n=5, horizon=1.0, dt=1.0 / 256,
                start=np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))


def _sde_digests(res):
    return (hashlib.sha256(res.states.tobytes()).hexdigest(),
            hashlib.sha256(res.failed.tobytes()).hexdigest())


def _report_digest(report):
    return hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()).hexdigest()


# from the origin to T/64 (T = 1, default dt, 200 replicates); the N = 7
# and 8 noncolliding runs flag replicates, so they cover the frozen rows
for _model, _simulate in _SIMULATE.items():
    for _n in range(2, 9):
        for _seed in (7, 8):
            CASES["simulate_%s-origin-n%d-seed%d" % (_model, _n, _seed)] = (
                lambda n=_n, seed=_seed, simulate=_simulate: _sde_digests(
                    simulate(sde.SDEConfig(n=n, horizon=1.0), 1.0 / 64,
                             seed=seed, reps=200)))
    CASES["simulate_%s-drift_n5-seed11" % _model] = (
        lambda simulate=_simulate: _sde_digests(simulate(
            sde.SDEConfig(**DRIFT_N5), 2.0 / 256, seed=11, reps=100)))
for _suite in ("imhof", "marginals"):
    CASES["%s_suite-3" % _suite] = (
        lambda suite=getattr(verify, _suite + "_suite"): _report_digest(
            suite(n=3, reps=300, seed=1)))

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
    "simulate_dyson-drift_n5-seed11": (
        "ac2ec0f31a4517b2da99e0fdbd50d2fc5333933b456a4508c200fb2c496001b4",
        "cd00e292c5970d3c5e2f0ffa5171e555bc46bfc4faddfb4a418b6840b86e79a3"),
    "simulate_dyson-origin-n2-seed7": (
        "9994af74f52005ac93d7aceaebae4dc0fd64afe6a806fa47c24585fb133164fc",
        "6d9c54dee5660c46886f32d80e57e9dd0ffa57ee0cd2a762b036d9c8e0c3a33a"),
    "simulate_dyson-origin-n2-seed8": (
        "985efa50783781a5318a3ebedc8889f8f20b1da7a799719dc090d73f5512d7e0",
        "6d9c54dee5660c46886f32d80e57e9dd0ffa57ee0cd2a762b036d9c8e0c3a33a"),
    "simulate_dyson-origin-n3-seed7": (
        "34aba802559d64bbf1a1be8ba843de52a80fe9ef88c7e21592cb9b254045b4fa",
        "6d9c54dee5660c46886f32d80e57e9dd0ffa57ee0cd2a762b036d9c8e0c3a33a"),
    "simulate_dyson-origin-n3-seed8": (
        "d12c955641057f68fa32fe92173937000c6e1f2cbea0fecd2166f30646da84a0",
        "6d9c54dee5660c46886f32d80e57e9dd0ffa57ee0cd2a762b036d9c8e0c3a33a"),
    "simulate_dyson-origin-n4-seed7": (
        "83bd60f61ba08bb1119746d4c2edb5811d476f8419209344c428d3320a1ac25a",
        "6d9c54dee5660c46886f32d80e57e9dd0ffa57ee0cd2a762b036d9c8e0c3a33a"),
    "simulate_dyson-origin-n4-seed8": (
        "55e01f2f0f25443bde3c514d2bc4374ee56415018790624f1c1ddc43ef21d039",
        "6d9c54dee5660c46886f32d80e57e9dd0ffa57ee0cd2a762b036d9c8e0c3a33a"),
    "simulate_dyson-origin-n5-seed7": (
        "115f6618a18a0bd95eaa8b9e2ffc6ac5cc30a0a673fa95d9ac8e45364e2eff11",
        "6d9c54dee5660c46886f32d80e57e9dd0ffa57ee0cd2a762b036d9c8e0c3a33a"),
    "simulate_dyson-origin-n5-seed8": (
        "4d42488ec666e9b38c2b71aaf28f771f79c50ec20eb5bbdffd72ba5a5bffd89b",
        "6d9c54dee5660c46886f32d80e57e9dd0ffa57ee0cd2a762b036d9c8e0c3a33a"),
    "simulate_dyson-origin-n6-seed7": (
        "7f94cfc6f6fd3b2f29be724a023de9c5c80157db048583e93148f0afec0291ca",
        "6d9c54dee5660c46886f32d80e57e9dd0ffa57ee0cd2a762b036d9c8e0c3a33a"),
    "simulate_dyson-origin-n6-seed8": (
        "802cdd7f9b744cdf8adb804e9f30797c07f9898c167de04d8457f7903b678fe0",
        "6d9c54dee5660c46886f32d80e57e9dd0ffa57ee0cd2a762b036d9c8e0c3a33a"),
    "simulate_dyson-origin-n7-seed7": (
        "c8908c5c44a72ca67c51c96d7bedb668d8bc8c8703b051b43b2b7b05ff4c0624",
        "6d9c54dee5660c46886f32d80e57e9dd0ffa57ee0cd2a762b036d9c8e0c3a33a"),
    "simulate_dyson-origin-n7-seed8": (
        "0a82951ccf7ea642be55362d414dea0355733cebe408c3b3e1f9ee01d0370dba",
        "6d9c54dee5660c46886f32d80e57e9dd0ffa57ee0cd2a762b036d9c8e0c3a33a"),
    "simulate_dyson-origin-n8-seed7": (
        "554272d7f40afa4b6bf1a2b2e2216938ddf472b09e143df9998f4aa01d5f6931",
        "6d9c54dee5660c46886f32d80e57e9dd0ffa57ee0cd2a762b036d9c8e0c3a33a"),
    "simulate_dyson-origin-n8-seed8": (
        "153f4dc096443a1427e39aa368ad51d35f2d8a0250e0d9eac51af9335c707c0a",
        "6d9c54dee5660c46886f32d80e57e9dd0ffa57ee0cd2a762b036d9c8e0c3a33a"),
    "simulate_noncolliding-drift_n5-seed11": (
        "ae69ebb63856883f0647978e8b17417f004ae35aea031e7a9f74e7ff5620a2d8",
        "cd00e292c5970d3c5e2f0ffa5171e555bc46bfc4faddfb4a418b6840b86e79a3"),
    "simulate_noncolliding-origin-n2-seed7": (
        "b6b0331f2464d2b668cd1401e0e6f67c858d217351f9ff8df98c1e920e6713da",
        "6d9c54dee5660c46886f32d80e57e9dd0ffa57ee0cd2a762b036d9c8e0c3a33a"),
    "simulate_noncolliding-origin-n2-seed8": (
        "428dfb2866403e6ce2751193b85b912571b2c37c6af7e637e924cfb12898fefa",
        "6d9c54dee5660c46886f32d80e57e9dd0ffa57ee0cd2a762b036d9c8e0c3a33a"),
    "simulate_noncolliding-origin-n3-seed7": (
        "5dc7b41271127645e3baba00b7254c2188121df8eea9cb6830e5737dc131c843",
        "6d9c54dee5660c46886f32d80e57e9dd0ffa57ee0cd2a762b036d9c8e0c3a33a"),
    "simulate_noncolliding-origin-n3-seed8": (
        "8fe9a0606ecf0692e5b74762d0921e0a802fa6a031c1a5b51dfa595aa4814d13",
        "6d9c54dee5660c46886f32d80e57e9dd0ffa57ee0cd2a762b036d9c8e0c3a33a"),
    "simulate_noncolliding-origin-n4-seed7": (
        "f08e85166f56ad6e35ced516ce63fb5cebe3b89a479254295306fb76762a7b40",
        "6d9c54dee5660c46886f32d80e57e9dd0ffa57ee0cd2a762b036d9c8e0c3a33a"),
    "simulate_noncolliding-origin-n4-seed8": (
        "55e84fe5872ab770a46d6d63eba13c347bb3b6628ff9e43696817b980aa3bfd0",
        "6d9c54dee5660c46886f32d80e57e9dd0ffa57ee0cd2a762b036d9c8e0c3a33a"),
    "simulate_noncolliding-origin-n5-seed7": (
        "9c1d8176f06aaf6679844552feed4eab6be9d6f6738a17c20e8d37bf1efff6ea",
        "6d9c54dee5660c46886f32d80e57e9dd0ffa57ee0cd2a762b036d9c8e0c3a33a"),
    "simulate_noncolliding-origin-n5-seed8": (
        "599de29bd13274fa062edce5f8bd16f0c9805b26edf2dc8a981b4031fc900fe4",
        "6d9c54dee5660c46886f32d80e57e9dd0ffa57ee0cd2a762b036d9c8e0c3a33a"),
    "simulate_noncolliding-origin-n6-seed7": (
        "8db6b06f0a469bd25b09244d57ed4ec1d0be027ea5ac9711d5894c4b90070d25",
        "6d9c54dee5660c46886f32d80e57e9dd0ffa57ee0cd2a762b036d9c8e0c3a33a"),
    "simulate_noncolliding-origin-n6-seed8": (
        "e983226f3dc0e663885c7b10b67d479de6356a1e7bf3f4082a1bdfef622e2b55",
        "6d9c54dee5660c46886f32d80e57e9dd0ffa57ee0cd2a762b036d9c8e0c3a33a"),
    "simulate_noncolliding-origin-n7-seed7": (
        "3f354bd8303f53257bf80803dd1c82e7259e713d36957aa7c2dd3bedecb801fa",
        "26c88a77642d10c998148fb083d88a98787769c059420052853c0f18e746c0f9"),
    "simulate_noncolliding-origin-n7-seed8": (
        "a9faeffc9a10704054a95599c8ef8db92a5503582f857f3049a77bcfd7227508",
        "896014a4950b4664945d9b8437c4c1b58f8a3e090b91488cc03fb61d763d6553"),
    "simulate_noncolliding-origin-n8-seed7": (
        "0b1f002bc39a9eed6421f8a21445dd2c58e43605ba7d709ed71d9ce9a02fb1d2",
        "4a7261d2aa84851c0f17a5c5bb6ace10c2c50606816221c9bf6f46b34e4d88d3"),
    "simulate_noncolliding-origin-n8-seed8": (
        "14d843586e17b54605a5bf46347a3b8b5ab563f7300e66d504bd42a1d0a11cf5",
        "24dba95d1e40a1dc23fa079ee615eed4486556a0ce041bda02746ba45251914b"),
    "imhof_suite-3":
        "780f221c74eaca1e814112f65f21c60a7055f3197411b6fa2eb6d40610526538",
    "marginals_suite-3":
        "b3c381337481f6566c1946004c229a24399a70b147e482727251480d133a9ab6",
}


@pytest.mark.skipif(BUILD != PINNED_BUILD,
                    reason="digests taken under numpy %s, scipy %s on %s "
                    "with AVX512_SKX=%s" % PINNED_BUILD)
@pytest.mark.parametrize("case", sorted(CASES))
def test_pinned_bits(case):
    assert CASES[case]() == DIGESTS[case]


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("model, cfg, t_end, record", [
    # from the origin: time 0, the bootstrap and later steps; at N = 7
    # replicates are flagged, frozen and leave the working set
    ("dyson", dict(n=3, horizon=1.0), 16 / 1024,
     [0.0, 1 / 1024, 5 / 1024, 16 / 1024]),
    ("noncolliding", dict(n=3, horizon=1.0), 16 / 1024,
     [1 / 1024, 2 / 1024, 9 / 1024]),
    ("noncolliding", dict(n=7, horizon=1.0), 16 / 1024,
     [0.0, 3 / 1024, 10 / 1024, 16 / 1024]),
    ("noncolliding", DRIFT_N5, 2 / 256, [0.0, 2 / 256]),
    ("dyson", DRIFT_N5, 2 / 256, [1 / 256]),
])
def test_recorded_run_is_the_full_run_at_its_times(model, cfg, t_end,
                                                   record):
    cfg = sde.SDEConfig(**cfg)
    full = _SIMULATE[model](cfg, t_end, seed=7, reps=200)
    rec = _SIMULATE[model](cfg, t_end, seed=7, reps=200, record=record)
    k = [int(np.argmin(np.abs(full.times - t))) for t in record]
    assert rec.times.tobytes() == full.times[k].tobytes()
    assert rec.states.tobytes() == full.states[:, k].tobytes()
    assert rec.failed.tobytes() == full.failed.tobytes()
    if cfg.n == 7:
        assert 0 < full.failed.sum() < 200
