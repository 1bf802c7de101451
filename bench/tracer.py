"""Span tracer that wraps the public functions of the noncolbm modules from
outside the package.

Every call between and within the package modules goes through a module
attribute (``densities.survival_pfaffian``, or a bare global name, which is a
lookup in the module's namespace), so replacing ``module.func`` with a wrapper
catches it.  A span records its name, start, end, parent span and thread.
Spans stay in memory until the run ends.  A span opened on a worker thread
with nothing open on that thread parents to the innermost open span of the
main thread: ``cli.cmd_simulate`` runs its replicates in a thread pool, and
their spans belong to the command that started the pool.
"""

import functools
import gzip
import inspect
import os
import threading
import time
from collections import Counter, defaultdict

# Private functions traced in addition to the public ones: the SDE drift is
# the boundary between the integrator and the survival kernel, and its
# one-row calls are the per-replicate retry path.
EXTRA = {"sde": ("_drift_bT_batch",)}


def _bound(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments
    return bind


def _counters(layer, name, fn):
    """Hook computing per-call counters from (args, kwargs, result), or None.

    Byte counts are computed from the sizes of the returned arrays.
    """
    key = layer + "." + name
    if key == "densities.survival_pfaffian":
        def rows(args, kwargs, result):
            shape = getattr(args[1], "shape", (1,))
            n = 1
            for d in shape[:-1]:
                n *= d
            return {"rows": n}
        return rows
    if key == "densities.survival_montecarlo":
        bind = _bound(fn)

        def path_steps(args, kwargs, result):
            a = bind(args, kwargs)
            return {"path_steps": a["samples"] * a["steps"]}
        return path_steps
    if key == "densities.chamber_points":
        return lambda args, kwargs, result: {
            "nodes": result[0].shape[0],
            "bytes": result[0].nbytes + result[1].nbytes}
    if key == "sde.simulate_noncolliding":
        bind = _bound(fn)

        def rep_steps(args, kwargs, result):
            a = bind(args, kwargs)
            steps = max(1, int(round(a["t_end"] / a["cfg"].dt)))
            return {"rep_steps": a["reps"] * steps,
                    "failed": int(result.failed.sum())}
        return rep_steps
    if key == "sde._drift_bT_batch":
        return lambda args, kwargs, result: {"rows": args[1].shape[0]}
    if key == "cli.cmd_simulate":
        def csv_bytes(args, kwargs, result):
            out = args[0].out
            return {"csv_bytes": os.path.getsize(out) if out
                    and os.path.exists(out) else 0}
        return csv_bytes
    if key == "haar.haar_unitary":
        bind = _bound(fn)

        def matrices(args, kwargs, result):
            size = bind(args, kwargs)["size"]
            return {"matrices": 1 if size is None else size}
        return matrices
    return None


class Tracer:
    """Wraps the traced functions while used as a context manager."""

    def __init__(self, modules):
        self.spans = []   # (id, parent, name, thread, start_ns, end_ns, extra)
        self._lock = threading.Lock()
        self._next_id = 1
        self._stacks = {}
        self._main = threading.main_thread().ident
        self._targets = []
        for layer, module in modules.items():
            names = [n for n, f in vars(module).items()
                     if inspect.isfunction(f) and not n.startswith("_")
                     and f.__module__ == module.__name__]
            names += [n for n in EXTRA.get(layer, ()) if hasattr(module, n)]
            for n in names:
                fn = getattr(module, n)
                wrapper = self._wrap(layer + "." + n, fn,
                                     _counters(layer, n, fn))
                self._targets.append((module, n, fn, wrapper))

    def __enter__(self):
        for module, name, _, wrapper in self._targets:
            setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc):
        for module, name, fn, _ in self._targets:
            setattr(module, name, fn)
        return False

    def _open(self):
        tid = threading.get_ident()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main and tid != self._main else 0
            stack.append(sid)
        return sid, parent, tid

    def _close(self, record):
        with self._lock:
            self._stacks[record[3]].pop()
            self.spans.append(record)

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, tid = self._open()
            result, done = None, False
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = time.perf_counter_ns()
                extra = counter(args, kwargs, result) \
                    if counter is not None and done else None
                self._close((sid, parent, name, tid, t0, t1, extra))
        return wrapper

    def write(self, path):
        """Write the spans as gzip-compressed CSV."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,thread,start_ns,end_ns\n")
            for s in self.spans:
                fh.write("%d,%d,%s,%d,%d,%d\n" % s[:6])


class SpanStats:
    """Totals for one span name."""

    def __init__(self):
        self.calls = 0
        self.ns = 0
        self.self_ns = 0
        self.durations_ns = []
        self.extras = []
        self.parents = Counter()


def _covered(lo, hi, intervals):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, end = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarize(spans):
    """Per-name call counts, busy time, self time and counters.

    Self time is the span's duration minus the part of its interval covered
    by the union of its children's intervals, so children running
    concurrently on pool threads are not subtracted twice.
    """
    children = defaultdict(list)
    names = {}
    for sid, parent, name, _, t0, t1, _ in spans:
        children[parent].append((t0, t1))
        names[sid] = name
    stats = defaultdict(SpanStats)
    for sid, parent, name, _, t0, t1, extra in spans:
        st = stats[name]
        st.calls += 1
        st.ns += t1 - t0
        st.self_ns += t1 - t0 - _covered(t0, t1, children.get(sid, ()))
        st.durations_ns.append(t1 - t0)
        if extra is not None:
            st.extras.append(extra)
        st.parents[names.get(parent)] += 1
    return stats
