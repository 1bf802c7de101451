"""The benchmark's workloads.

Each workload turns the run seed into per-operation inputs, runs one
operation through the package's public functions, and checks the output
with tests that hold for any correct implementation.  Checks count in
units (SDE replicates, checked points, CSV replicates); a unit fails when
its replicate is flagged ``failed``, its operation raised, or its check is
out of tolerance.  Statistical verdicts (KS p > 0.01, 3-se bounds) move by
chance with the random stream and are counted apart as ``stat_failed``.
"""

import contextlib
import io
import math
import os
import resource
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from noncolbm import cli, densities, paths, sde, verify


@dataclass
class Check:
    units: int
    failed_units: int
    stat_failed: int = 0
    output_ok: bool = True   # every deterministic check of the output held


def op_seed(seed, i):
    """Seed of operation i of a run with the given seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


class Workload:
    """Interface: ``units`` checked per operation, ``warm_up()``,
    ``run(seed)`` (the timed call), ``check(seed, output)`` and an untimed
    ``probe()`` run once after the timed loop."""

    def probe(self):
        return None


class MarginalsN3(Workload):
    """The finite-horizon eigenvalue law at N=3, checked the way
    ``verify.marginals_suite`` checks it, at one early time: SDE states
    started at the origin against eigenvalues of the matrix process
    (two-sample KS) and against the marginal CDFs of the closed-form density
    (one-sample KS).  Early on the gaps are small, so most SDE steps go
    through the one-row retry path."""

    N = 3
    T = 1.0
    T_END = 1.0 / 64     # 16 steps of dt = 1/1024
    P_THRESHOLD = 0.01   # the suites' KS threshold

    def __init__(self, seed, tiny, out_dir):
        self.seed = seed
        self.reps, self.grid = (20, 11) if tiny else (100, 15)
        self.units = self.reps
        self.cfg = sde.SDEConfig(n=self.N, horizon=self.T)
        span = 6.0 * math.sqrt(self.T_END)
        self.lo, self.hi = -span, span

    def _op(self, s, reps, grid):
        res = sde.simulate_noncolliding(self.cfg, self.T_END, seed=s,
                                        reps=reps)
        ev = np.linalg.eigvalsh(paths.sample_xit_marginal(
            self.N, self.T_END, self.T, reps, np.random.default_rng([s, 1])))
        cdfs = verify.chamber_marginal_cdfs(
            lambda y: densities.finite_horizon_density(
                self.T, 0, None, self.T_END, y),
            self.N, self.lo, self.hi, grid_points=grid)
        st = res.at_time(self.T_END)
        tests = [verify.ks_two_sample(st[:, i], ev[:, i])
                 for i in range(self.N)]
        tests += [verify.ks_one_sample(st[:, i], cdfs[i])
                  for i in range(self.N)]
        return res, [t.p_value for t in tests], cdfs

    def warm_up(self):
        self._op(self.seed, 2, 5)

    def run(self, s):
        return self._op(s, self.reps, self.grid)

    def check(self, s, out):
        res, p_values, cdfs = out
        st = res.states[~res.failed, 1:]   # all replicates start at 0
        ok = bool(np.isfinite(st).all() and (np.diff(st, axis=2) > 0).all()
                  and all(0.0 <= p <= 1.0 for p in p_values))
        # marginal CDFs of ordered coordinates: each runs from 0 to 1 and
        # never decreases, and a lower coordinate's lies above a higher one's
        v = np.linspace(self.lo, self.hi, 201)
        f = np.array([c(v) for c in cdfs])
        ok &= bool(np.allclose(f[:, 0], 0.0) and np.allclose(f[:, -1], 1.0)
                   and (np.diff(f, axis=1) >= -1e-12).all()
                   and (np.diff(f, axis=0) <= 1e-12).all())
        stat = sum(p <= self.P_THRESHOLD for p in p_values)
        failed = int(res.failed.sum()) if ok else self.reps
        return Check(self.reps, failed, stat, ok)


class ClosedForms(Workload):
    """Survival probability by Monte Carlo and by chamber quadrature against
    the Pfaffian closed form, a chamber normalization, and
    ``verify.hc_suite``; no SDE."""

    MC_POINT = (1.0, (0.0, 1.0, 2.0))
    # the N=2 survival grid of verify.densities_suite
    QUAD_POINTS = [(t, (0.0, scale)) for t in (0.25, 1.0, 4.0)
                   for scale in (0.5, 1.0, 2.0)]
    units = len(QUAD_POINTS) + 3   # + normalization, N=1 Haar query, MC

    def __init__(self, seed, tiny, out_dir):
        self.seed = seed
        self.mc_samples, self.hc_samples = (200, 200) if tiny \
            else (2500, 1000)

    def warm_up(self):
        self._op(self.seed, 100, 100)

    def _op(self, s, mc_samples, hc_samples):
        t, x = self.MC_POINT
        mc = densities.survival_montecarlo(
            t, x, samples=mc_samples, rng=np.random.default_rng([s, 0]))
        quad = [densities.survival_quadrature(t, x)
                for t, x in self.QUAD_POINTS]
        mass = densities.chamber_integrate(
            lambda y: densities.eigenvalue_density("goe", y, 1.0), 2,
            -8.0, 8.0)
        hc = verify.hc_suite(samples=hc_samples, seed=s)
        return mc, quad, mass, hc

    def run(self, s):
        return self._op(s, self.mc_samples, self.hc_samples)

    def check(self, s, out):
        mc, quad, mass, hc = out
        pf = [densities.survival_pfaffian(t, x) for t, x in self.QUAD_POINTS]
        failed = sum(abs(a - b) > 1e-4 for a, b in zip(pf, quad))
        failed += abs(mass - 1.0) > 1e-4
        # the N=1 Haar query has an exact answer; the rest are 3-se tests
        failed += not hc["tests"][0]["pass"]
        failed += not (0.0 <= mc.mean <= 1.0 and mc.se > 0.0)
        t, x = self.MC_POINT
        stat = abs(densities.survival_pfaffian(t, x) - mc.mean) > 3 * mc.se
        stat += sum(not r["pass"] for r in hc["tests"][1:])
        return Check(self.units, int(failed), int(stat), failed == 0)

    def probe(self, cap_bytes=512 << 20):
        """N=4 quadrature survival (a documented out-of-memory defect) under
        an address-space cap of the current size plus cap_bytes.  Untimed;
        a MemoryError or a value off the Pfaffian by more than 1e-4 fails."""
        x = [0.0, 1.0, 2.0, 3.0]
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = _vm_size() + cap_bytes
        if hard != resource.RLIM_INFINITY:
            cap = min(cap, hard)
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
        try:
            quad = densities.survival_quadrature(1.0, x)
        except MemoryError:
            return Check(1, 1, output_ok=False)
        finally:
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        ok = abs(quad - densities.survival_pfaffian(1.0, x)) <= 1e-4
        return Check(1, int(not ok), output_ok=ok)


def _vm_size():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmSize not found")


class DriftN5(Workload):
    """``sde.simulate_noncolliding`` at N=5 from a well-separated start."""

    T = 1.0
    DT = 1.0 / 256
    START = (-2.0, -1.0, 0.0, 1.0, 2.0)

    def __init__(self, seed, tiny, out_dir):
        self.seed = seed
        self.reps, self.steps = (4, 2) if tiny else (100, 2)
        self.units = self.reps
        self.cfg = sde.SDEConfig(n=5, horizon=self.T, dt=self.DT,
                                 start=np.array(self.START))

    def warm_up(self):
        sde.simulate_noncolliding(self.cfg, self.DT, seed=self.seed, reps=2)

    def run(self, s):
        return sde.simulate_noncolliding(self.cfg, self.steps * self.DT,
                                         seed=s, reps=self.reps)

    def check(self, s, res):
        st = res.states
        ok = np.isfinite(st).all(axis=(1, 2)) \
            & (np.diff(st, axis=2) > 0).all(axis=(1, 2))
        # Pf(A)^2 = det(A) on the bordered erf matrices of the final states
        rest = self.T - res.times[-1]
        x = st[:, -1, :]
        n = x.shape[1]
        a = np.zeros((x.shape[0], n + 1, n + 1))
        a[:, :n, :n] = erf(
            (x[:, None, :] - x[:, :, None]) / (2.0 * math.sqrt(rest)))
        a[:, :n, n] = 1.0
        a[:, n, :n] = -1.0
        pf = densities.survival_pfaffian(rest, x)
        ok &= np.isclose(pf * pf, np.linalg.det(a), rtol=1e-9, atol=1e-12)
        return Check(self.reps, int((~ok | res.failed).sum()),
                     output_ok=bool(ok.all()))


class XitCsv(Workload):
    """``noncolbm simulate --model xit`` writing CSV, through ``cli.main``."""

    N = 3

    def __init__(self, seed, tiny, out_dir):
        self.seed = seed
        self.steps, self.reps = (16, 3) if tiny else (512, 6)
        self.units = self.reps
        self.path = os.path.join(out_dir, "xit_csv.csv")

    def _simulate(self, s, steps, reps):
        argv = ["simulate", "--model", "xit", "--n", str(self.N),
                "--horizon", "1", "--steps", str(steps), "--reps", str(reps),
                "--seed", str(s), "--out", self.path]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError("noncolbm simulate exited with %r" % code)

    def warm_up(self):
        self._simulate(self.seed, 4, 2)
        os.remove(self.path)

    def run(self, s):
        self._simulate(s, self.steps, self.reps)

    def check(self, s, _):
        try:
            with open(self.path) as fh:
                head = [fh.readline() for _ in range(3)]
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        finally:
            os.remove(self.path)
        n, k = self.N, self.steps + 1
        cols = ["rep", "time"] + ["%s%d%d" % (p, i + 1, j + 1)
                                  for i in range(n) for j in range(n)
                                  for p in ("re", "im")]
        if (not head[0].startswith("# config") or head[2].strip()
                != ",".join(cols) or data.shape != (self.reps * k, len(cols))):
            return Check(self.reps, self.reps, output_ok=False)
        data = data.reshape(self.reps, k, len(cols))
        m = data[:, :, 2::2] + 1j * data[:, :, 3::2]
        m = m.reshape(self.reps, k, n, n)
        ok = (data[:, :, 0] == np.arange(self.reps)[:, None]).all(axis=1)
        ok &= (np.abs(data[:, :, 1] - np.linspace(0.0, 1.0, k))
               <= 1e-12).all(axis=1)
        ok &= (np.abs(m - np.conj(np.swapaxes(m, -1, -2)))
               <= 1e-12).all(axis=(1, 2, 3))
        ok &= (np.abs(m[:, -1].imag) <= 1e-12).all(axis=(1, 2))
        return Check(self.reps, int((~ok).sum()), output_ok=bool(ok.all()))


WORKLOADS = {"marginals_n3": MarginalsN3, "closed_forms": ClosedForms,
             "drift_n5": DriftN5, "xit_csv": XitCsv}
