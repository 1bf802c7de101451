"""noncolbm benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Loads the package from ``src/`` of the checkout this file sits in and drives
it through its public functions: one process, a closed loop, one operation
at a time, for about ``--seconds`` (at least two operations).  Every
operation's output is checked.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json: set-up time
(import, input generation and warm-up; the median over this process and two
fresh interpreters), the mean wall and CPU time of an operation, and the
peak resident memory.  Other tenants of a shared host slow everything by up
to 2x, in spells of milliseconds to minutes, so times are scaled to a fixed
host speed: after each set-up and after each operation (and its untimed
check) a fixed reference loop runs for as long, and a time is reported as
raw seconds x ``Reference.UNIT_S`` / (measured seconds per reference unit).
The raw times are printed and recorded too.  ``--trace 1`` alternates
untraced and traced operations and prints the per-layer metrics of
BENCHMARK.json, per traced operation, from spans recorded around the
package's functions.

Human-readable lines and the machine facts come first on stdout; the last
line is the JSON result.  Run records, and the spans of traced runs, are
written to ``.bench_out/`` in the checkout.
"""

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_CHILDREN = 2
LAYERS = ("linalg", "densities", "sde", "paths", "haar", "verify", "cli")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest sizes and one operation (smoke test)")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    return p.parse_args(argv)


def load_program():
    """Import noncolbm from the checkout's src/, never from elsewhere."""
    pkg = ROOT / "src" / "noncolbm"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit("bench: no package sources at %s" % pkg)
    sys.path.insert(0, str(pkg.parent))
    import noncolbm
    if Path(noncolbm.__file__).resolve().parent != pkg.resolve():
        raise SystemExit("bench: noncolbm imported from %s"
                         % noncolbm.__file__)
    return noncolbm


def child_setup(args):
    """(set-up seconds, reference seconds per unit) of a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"] + (["--tiny"] if args.tiny else [])
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=120, cwd=ROOT).stdout
    res = json.loads(out.strip().splitlines()[-1])
    return res["setup_s"], res["ref_unit_s"]


def run_op(wl, i, seed, trc):
    """One timed operation and its (untimed) output check."""
    from workloads import Check, op_seed
    s = op_seed(seed, i)
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        if trc is None:
            out = wl.run(s)
        else:
            with trc:
                out = wl.run(s)
        err = None
    except Exception:
        err = traceback.format_exc()
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if err is None:
        try:
            chk = wl.check(s, out)
        except Exception:
            err = traceback.format_exc()
    if err is not None:
        print(err, file=sys.stderr)
        chk = Check(wl.units, wl.units, output_ok=False)
    return {"op": i, "seed": s, "traced": trc is not None, "wall_s": wall,
            "cpu_s": cpu, "ok": chk.output_ok, "raised": err is not None,
            "units": chk.units, "failed_units": chk.failed_units,
            "stat_failed": chk.stat_failed}


class Reference:
    """A fixed piece of work run alongside the operations, and its totals
    over a run.  Each unit is interpreted arithmetic and small numpy calls,
    like the package's own inner loops; it never changes, so the time it
    takes measures the host's speed."""

    # Seconds per unit on the uncontended 2-vCPU Xeon host the benchmark was
    # tuned on; scaled times are seconds at that speed.
    UNIT_S = 0.4e-3

    def __init__(self):
        import numpy
        self._dot, self._a = numpy.dot, numpy.arange(64.0)
        self.units, self.wall_s, self.cpu_s = 0, 0.0, 0.0

    def _unit(self):
        s = 0.0
        for i in range(400):
            s += float(self._dot(self._a, self._a)) * 1e-9 + 0.5 * i
        return s

    def run_for(self, seconds):
        """Run whole units for at least `seconds` of wall time."""
        w0, c0 = time.perf_counter(), time.process_time()
        n = 0
        while n == 0 or time.perf_counter() - w0 < seconds:
            self._unit()
            n += 1
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        self.units += n
        self.wall_s += wall
        self.cpu_s += cpu
        return wall / n, cpu / n


def measure(wl, seed, seconds, trc, min_ops):
    """Closed loop: after `min_ops` operations, start another only if it
    would end by `seconds`, judged by the median operation so far.  With a
    tracer, odd operations are traced; without, each operation is followed
    by as long a stretch of the reference loop."""
    ops, took, ref = [], [], Reference()
    start = time.perf_counter()
    while True:
        i = len(ops)
        t0 = time.perf_counter()
        op = run_op(wl, i, seed, trc if trc is not None and i % 2 else None)
        ops.append(op)
        if trc is None:
            op["ref_unit_wall_s"], op["ref_unit_cpu_s"] = \
                ref.run_for(op["wall_s"])
        took.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(ops) >= min_ops and \
                elapsed + statistics.median(took) > seconds:
            return ops, ref


def probe(wl):
    from workloads import Check
    try:
        return wl.probe()
    except Exception:
        print(traceback.format_exc(), file=sys.stderr)
        return Check(1, 1, output_ok=False)


def failed_share(ops, chk):
    units = sum(o["units"] for o in ops)
    failed = sum(o["failed_units"] for o in ops)
    if chk is not None:
        units += chk.units
        failed += chk.failed_units
    return failed / units


def _pct(values, q):
    if not values:
        return 0.0
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def per_layer(stats, ops):
    """Per-layer metrics, per traced operation."""
    traced = [o for o in ops if o["traced"]]
    plain = [o for o in ops if not o["traced"]]
    k = len(traced)
    empty = tracer.SpanStats()

    def st(name):
        return stats.get(name, empty)

    def s(name):
        return st(name).ns / 1e9 / k

    def extra(name, key):
        return [e[key] for e in st(name).extras]

    sp = st("densities.survival_pfaffian")
    sp_us = [d / 1e3 for d in sp.durations_ns]
    sp_rows = extra("densities.survival_pfaffian", "rows")
    mc_steps = sum(extra("densities.survival_montecarlo", "path_steps"))
    sim = st("sde.simulate_noncolliding")
    rep_steps = sum(extra("sde.simulate_noncolliding", "rep_steps"))
    traced_wall = statistics.median(o["wall_s"] for o in traced)
    plain_wall = statistics.median(o["wall_s"] for o in plain)
    return {
        "linalg.pfaffian.calls": st("linalg.pfaffian").calls / k,
        "linalg.pfaffian.s": s("linalg.pfaffian"),
        "densities.survival_pfaffian.calls": sp.calls / k,
        "densities.survival_pfaffian.rows": sum(sp_rows) / k,
        "densities.survival_pfaffian.batch1_calls":
            sum(r == 1 for r in sp_rows) / k,
        "densities.survival_pfaffian.s": s("densities.survival_pfaffian"),
        "densities.survival_pfaffian.call_us_p50": _pct(sp_us, 0.50),
        "densities.survival_pfaffian.call_us_p99": _pct(sp_us, 0.99),
        "densities.survival_montecarlo.calls":
            st("densities.survival_montecarlo").calls / k,
        "densities.survival_montecarlo.s":
            s("densities.survival_montecarlo"),
        "densities.survival_montecarlo.path_steps": mc_steps / k,
        "densities.survival_montecarlo.path_steps_per_s":
            mc_steps / (st("densities.survival_montecarlo").ns / 1e9)
            if mc_steps else 0.0,
        "densities.chamber_integrate.calls":
            st("densities.chamber_integrate").calls / k,
        "densities.chamber_integrate.s": s("densities.chamber_integrate"),
        "densities.chamber_integrate.levels":
            st("densities.chamber_points").parents[
                "densities.chamber_integrate"] / k,
        "densities.chamber_points.nodes":
            sum(extra("densities.chamber_points", "nodes")) / k,
        "densities.chamber_points.computed_bytes_max":
            max(extra("densities.chamber_points", "bytes"), default=0),
        "sde.simulate_noncolliding.s": s("sde.simulate_noncolliding"),
        "sde.simulate_noncolliding.self_s": sim.self_ns / 1e9 / k,
        "sde.rep_steps_per_s":
            rep_steps / (sim.ns / 1e9) if rep_steps else 0.0,
        "sde.retry_drift_calls":
            sum(r == 1 for r in extra("sde._drift_bT_batch", "rows")) / k,
        "sde.failed_replicates":
            sum(extra("sde.simulate_noncolliding", "failed")) / k,
        "paths.build_matrix_process.s": s("paths.build_matrix_process"),
        "paths.matrix_path_csv_rows.s": s("paths.matrix_path_csv_rows"),
        "paths.sample_xit_marginal.s": s("paths.sample_xit_marginal"),
        "haar.haar_unitary.s": s("haar.haar_unitary"),
        "haar.haar_unitary.matrices":
            sum(extra("haar.haar_unitary", "matrices")) / k,
        "haar.hc_monte_carlo.s": s("haar.hc_monte_carlo"),
        "verify.chamber_marginal_cdfs.s": s("verify.chamber_marginal_cdfs"),
        "verify.ks_two_sample.s": s("verify.ks_two_sample"),
        "verify.stat_tests_failed":
            statistics.fmean(o["stat_failed"] for o in ops),
        "cli.cmd_simulate.self_s": st("cli.cmd_simulate").self_ns / 1e9 / k,
        "cli.csv_bytes": sum(extra("cli.cmd_simulate", "csv_bytes")) / k,
        "trace.overhead_pct": 100.0 * (traced_wall - plain_wall) / plain_wall,
    }


def _read(path, default=None):
    try:
        return Path(path).read_text()
    except OSError:
        return default


def _blas_threads():
    """Thread count reported by the OpenBLAS loaded in this process."""
    maps = _read("/proc/self/maps", "")
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(dll, fn):
                getattr(dll, fn).restype = ctypes.c_int
                return getattr(dll, fn)()
    return None


def machine_facts(args):
    import numpy
    import scipy
    cpuinfo = _read("/proc/cpuinfo", "")
    model = next((line.split(":", 1)[1].strip()
                  for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    llc = None
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache.glob("index*")):
        level, size = _read(idx / "level"), _read(idx / "size")
        if level and size and (llc is None or int(level) >= llc[0]):
            llc = (int(level), size.strip())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "llc": "L%d %s" % llc if llc else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": _blas_threads(),
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None):
    args = parse_args(argv)
    t0 = time.perf_counter()
    load_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit("bench: unknown workload %r" % args.workload)
    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, str(OUT))
    wl.warm_up()
    setup = [(time.perf_counter() - t0,
              Reference().run_for(time.perf_counter() - t0)[0])]
    if args.setup_only:
        print(json.dumps({"setup_s": setup[0][0], "ref_unit_s": setup[0][1]}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not args.trace:
        setup += [child_setup(args)
                  for _ in range(1 if args.tiny else SETUP_CHILDREN)]
    trc = None
    if args.trace:
        trc = tracer.Tracer({name: importlib.import_module("noncolbm." + name)
                             for name in LAYERS})
    min_ops = 1 if args.tiny and not args.trace else 2
    ops, ref = measure(wl, args.seed, args.seconds, trc, min_ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    chk = probe(wl)
    share = failed_share(ops, chk)

    if args.trace:
        values = per_layer(tracer.summarize(trc.spans), ops)
        values["failed_share"] = share
        wanted = spec["per_layer"]
        trc.write(OUT / ("%s-seed%d.spans.csv.gz"
                         % (args.workload, args.seed)))
    else:
        scale = Reference.UNIT_S
        values = {"setup_s": statistics.median(raw * scale / unit
                                               for raw, unit in setup),
                  "wall_s": statistics.fmean(o["wall_s"] for o in ops)
                  * scale / (ref.wall_s / ref.units),
                  "cpu_s": statistics.fmean(o["cpu_s"] for o in ops)
                  * scale / (ref.cpu_s / ref.units),
                  "peak_rss_mb": peak_rss_mb}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    failed = sum(not o["ok"] for o in ops)
    result = {"correct": failed == 0, "attempted": len(ops),
              "failed": failed, "metrics": metrics}

    facts = machine_facts(args)
    record = dict(result, machine=facts, ops=ops,
                  setup_samples=[{"setup_s": raw, "ref_unit_s": unit}
                                 for raw, unit in setup],
                  reference={"units": ref.units, "wall_s": ref.wall_s,
                             "cpu_s": ref.cpu_s},
                  failed_share=share,
                  probe=None if chk is None else vars(chk))
    (OUT / ("%s-seed%d-trace%d.json"
            % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(record, indent=1) + "\n")
    print("# machine " + json.dumps(facts))
    print("# %s: %d operations, %d failed, failed_share %.6g%s"
          % (args.workload, len(ops), failed, share,
             "" if chk is None else ", probe %s"
             % ("failed" if chk.failed_units else "passed")))
    plain = [o for o in ops if not o["traced"]]
    print("# untraced operations: %d, raw wall median %.6g s, "
          "raw cpu median %.6g s"
          % (len(plain), statistics.median(o["wall_s"] for o in plain),
             statistics.median(o["cpu_s"] for o in plain)))
    if ref.units:
        print("# reference loop: %d units, %.6g ms wall per unit; raw set-up"
              " %s s" % (ref.units, 1e3 * ref.wall_s / ref.units,
                         ", ".join("%.4g" % raw for raw, _ in setup)))
    for name, m in metrics.items():
        print("# %-48s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
