"""Command-line surface: path simulation, density evaluation, and the
statistical verification suites.  Every run echoes its effective
configuration and seed so results can be reproduced bitwise."""

import argparse
import functools
import hashlib
import json
import os
import sys

import numpy as np

from . import densities, linalg, paths, sde, verify
from .rng import substream


class _UsageError(Exception):
    """Bad input from a flag, the config file or the environment: main
    prints it as "error: ..." and exits with status 2."""


_SIGN = np.int64(-2 ** 63)     # the sign bit of a float64 seen as an int64
_ROWS = 64                     # rows of the table held as strings at once


def _derives(data, bits, j, c, flip):
    """Whether column j of a float64 table (bits: the table seen as int64)
    is column c (flip 0) or, c holding no NaN, c with every sign bit flipped
    (flip _SIGN); compared in slices of 4096 rows, so that no temporary
    outgrows one slice."""
    for i in range(0, data.shape[0], 4096):
        rows = slice(i, i + 4096)
        if not np.array_equal(bits[rows, j], bits[rows, c] ^ flip) or (
                flip and np.isnan(data[rows, c]).any()):
            return False
    return True


def _derived_columns(data):
    """{j: (c, negate)} for each column j of a float64 table that is bit for
    bit an earlier source column c or, when c holds no NaN, c with every sign
    bit flipped.  Columns are matched by the bits of their first and last
    three rows, then compared whole as strided views; the table is not
    copied."""
    bits = data.view(np.int64)
    ends = np.concatenate([bits[:3], bits[-3:]])
    seen, derived = {}, {}
    for j in range(data.shape[1]):
        for flip, key in ((0, ends[:, j]), (_SIGN, ends[:, j] ^ _SIGN)):
            c = next((c for c in seen.get(key.tobytes(), ())
                      if _derives(data, bits, j, c, flip)), None)
            if c is not None:
                derived[j] = (c, bool(flip))
                break
        else:
            seen.setdefault(ends[:, j].tobytes(), []).append(j)
    return derived


def _csv_lines(data):
    """CSV text of a 2-D float array, every value as "%.17g", one string per
    _ROWS rows, so that no more than those rows are held as Python objects.

    Each source column is formatted once; a derived column (see
    _derived_columns) reuses its source's strings, and a negation toggles
    their leading "-".  Both are exact: "%.17g" of the same bits is the same
    string, and "%.17g" of -x is "-" + "%.17g" of x for every x but NaN
    (0 and -0, inf and -inf, subnormals alike), which prints "nan" for either
    sign and so is never a negation's source."""
    derived = _derived_columns(data)
    for i in range(0, data.shape[0], _ROWS):
        yield _block_text(data[i:i + _ROWS], derived)


def _block_text(block, derived):
    """_csv_lines' text of one block of rows; its strings die on return."""
    k, width = block.shape
    if not derived:
        row = ",".join(["%.17g"] * width) + "\n"
        return (row * k) % tuple(block.ravel().tolist())
    sources = [j for j in range(width) if j not in derived]
    # one "%" for the whole block, source columns one after another
    text = (",".join(["%.17g"] * (k * len(sources)))
            % tuple(block[:, sources].T.ravel().tolist()))
    strs = text.split(",")
    del text
    cols = [None] * width
    for s, j in enumerate(sources):
        cols[j] = strs[s * k:(s + 1) * k]
    del strs
    for j, (c, negate) in derived.items():
        cols[j] = ([v[1:] if v[0] == "-" else "-" + v for v in cols[c]]
                   if negate else cols[c])
    return "\n".join([*map(",".join, zip(*cols)), ""])


def _parse_point(s):
    return np.array([float(v) for v in s.split(",")])


def _parse_points(s):
    return [_parse_point(p) for p in s.split(";") if p.strip()]


def _density_points(name, args):
    """The --x and --y points of a density query, [None] for an absent flag.
    ValueError for malformed points, points of different lengths, or a
    point the named density needs but was not given."""
    xs = _parse_points(args.x or "") or [None]
    ys = _parse_points(args.y or "") or [None]
    if name in ("f", "survival", "gue", "goe") and xs[0] is None:
        raise ValueError("--name %s needs --x" % name)
    if name in ("f", "p", "g") and ys[0] is None:
        raise ValueError("--name %s needs --y" % name)
    if len({x.size for x in xs if x is not None}) > 1:
        raise ValueError("--x points differ in length")
    return xs, ys


def _load_config(path):
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise _UsageError("cannot read config file: %s" % exc) from None
    cfg = {}
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if line and not line.startswith("#"):
            key, eq, val = line.partition("=")
            if not eq:
                raise _UsageError("%s line %d: expected key = value, got %r"
                                  % (path, number, line))
            cfg[key.strip()] = val.strip()
    return cfg


def _effective(args, config, key, default, cast):
    """Precedence: explicit flag > config (file or environment) > built-in
    default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key not in config:
        return default
    try:
        return cast(config[key])
    except ValueError:
        raise _UsageError("%s = %r is not a valid %s"
                          % (key, config[key], cast.__name__)) from None


def _digest(cfg):
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


# Each command's subject flag and its options: name -> (built-in default,
# least value).  A value takes its default's type; a least refuses a value
# not positive and finite (linalg.check_time) or below it, None nothing.
_COMMANDS = {
    "simulate": ("model", {"n": (2, 0), "horizon": (1.0, 0),
                           "steps": (256, 0), "reps": (1, 0)}),
    "density": ("name", {"t": (1.0, None), "s": (0.0, None),
                         "horizon": (1.0, None),
                         "method": ("pfaffian", None)}),
    "verify": ("suite", {"n": (2, 0), "horizon": (1.0, 0),
                         "reps": (10_000, 2), "samples": (100_000, 2)}),
}


def _configure(args, config):
    """The effective configuration of args.command: its subject, every
    option, each checked against its least value once all are resolved, and
    the seed (flag, config, NONCOLBM_SEED, fresh entropy).  Prints the seed
    and the configuration's digest."""
    subject, options = _COMMANDS[args.command]
    cfg = {"command": args.command, subject: getattr(args, subject)}
    for key, (default, _) in options.items():
        cfg[key] = _effective(args, config, key, default, type(default))
    for key, (_, least) in options.items():
        val = cfg[key]
        try:
            if least is not None:
                linalg.check_time(val, name="--" + key)
        except ValueError as exc:
            raise _UsageError(exc) from exc
        if least and val < least:
            raise _UsageError("--%s must be at least %d, got %r"
                              % (key, least, val))
    seed = _effective(args, config, "seed", None, int)
    if seed is None:
        seed = _effective(args, os.environ, "NONCOLBM_SEED", None, int)
    if seed is None:
        seed = int.from_bytes(os.urandom(4), "big")
    cfg["seed"] = seed
    print("seed", seed, "digest", _digest(cfg))
    return cfg


def _write_csv(path, header_cfg, columns, data):
    with open(path, "w", newline="\n") as fh:
        fh.write("# config %s\n# digest %s\n" % (
            json.dumps(header_cfg, sort_keys=True), _digest(header_cfg)))
        fh.write(",".join(columns) + "\n")
        fh.writelines(_csv_lines(data))


def _rep_rows(reps, k, width):
    """Empty (reps, k, width) CSV rows, plus the column the data starts at:
    with several replicates, column 0 holds the replicate index."""
    lead = 1 if reps > 1 else 0
    data = np.empty((reps, k, lead + width))
    if lead:
        data[:, :, 0] = np.arange(reps)[:, None]
    return data, lead


def cmd_simulate(args, cfg):
    model, n, T, steps, reps, seed = (cfg[k] for k in (
        "model", "n", "horizon", "steps", "reps", "seed"))
    out = args.out or f"{model}.csv"

    if model in ("dyson", "noncolliding"):
        sde_cfg = sde.SDEConfig(n=n, horizon=T, dt=T / steps)
        sim = (sde.simulate_dyson if model == "dyson"
               else sde.simulate_noncolliding)
        res = sim(sde_cfg, T, seed=seed, reps=reps)
        columns = (["rep"] if reps > 1 else []) + ["time"] \
            + [f"x{i+1}" for i in range(n)]
        data, lead = _rep_rows(reps, res.times.size, 1 + n)
        data[:, :, lead] = res.times
        data[:, :, lead + 1:] = res.states
        _write_csv(out, cfg, columns, data.reshape(-1, data.shape[-1]))
        inc = np.diff(res.states[:, 1:, :], axis=1)
        print("summary: replicates=%d failed=%d increment_var=%.6g "
              "(expected ~ dt=%.6g)"
              % (reps, int(res.failed.sum()),
                 float(inc.var()) if inc.size else float("nan"), T / steps))
    else:
        grid = paths.TimeGrid.uniform(T, steps)
        data, lead = _rep_rows(reps, steps + 1, 1 + 2 * n * n)
        for r in range(reps):
            mp = paths.build_matrix_process(model, n, grid,
                                            substream(seed, r))
            data[r, :, lead:] = paths.matrix_path_csv_rows(mp)
        columns = (["rep"] if reps > 1 else []) + ["time"]
        for i in range(n):
            for j in range(n):
                columns += [f"re{i+1}{j+1}", f"im{i+1}{j+1}"]
        _write_csv(out, cfg, columns, data.reshape(-1, data.shape[-1]))
        print("summary: replicates=%d grid_points=%d" % (reps, steps + 1))
    return 0


def cmd_density(args, cfg):
    name, t, s, T, method, seed = (cfg[k] for k in (
        "name", "t", "s", "horizon", "method", "seed"))

    def values(x, y):
        if name == "f":
            return [densities.transition_density(t, x, y)]
        if name == "p":
            return [densities.h_transform_density(s, x, t, y)]
        if name == "g":
            return [densities.finite_horizon_density(T, s, x, t, y)]
        if name == "survival":
            v = densities.survival_probability(t, x, method=method,
                                               rng=substream(seed))
            return [v.mean, v.se] if method == "montecarlo" else [v]
        return [densities.eigenvalue_density(name, x, t)]

    # one row per point: its coordinates, then its value(s)
    try:
        xs, ys = _density_points(name, args)
        rows = [([] if x is None else list(x)) + values(x, y)
                for x in xs
                for y in (ys if name in ("f", "p", "g") else [None])]
    except ValueError as exc:
        raise _UsageError(exc) from exc
    except OverflowError as exc:
        raise _UsageError("--name %s overflows at this point: %s"
                          % (name, exc)) from exc
    columns = [] if xs[0] is None else [f"x{i+1}" for i in range(xs[0].size)]
    columns.append("value")
    if name == "survival" and method == "montecarlo":
        columns.append("se")
    data = np.array(rows, dtype=float)
    if args.out:
        _write_csv(args.out, cfg, columns, data)
    print("".join(_csv_lines(data)), end="")
    return 0


def cmd_verify(args, cfg):
    suite, n, T, reps, samples, seed = (cfg[k] for k in (
        "suite", "n", "horizon", "reps", "samples", "seed"))

    sde_sizes = {"n": n, "horizon": T, "reps": reps}
    suite_fn, sizes = {
        "hc": (verify.hc_suite, {"samples": samples}),
        "imhof": (verify.imhof_suite, sde_sizes),
        "marginals": (verify.marginals_suite, sde_sizes),
        "densities": (verify.densities_suite, {"mc_samples": samples}),
    }[suite]
    report = verify.run_suite_with_retry(suite_fn, seed, **sizes)
    report["schema_version"] = 1
    report["config"] = cfg
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    if not report["passed"]:
        failing = [t["name"] for t in report["tests"] if not t["pass"]]
        print("FAILED: " + "; ".join(failing), file=sys.stderr)
        return 1
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process: parse_args leaves it
    unchanged, and a parser per call is cyclic garbage that lives until the
    collector next runs."""
    p = argparse.ArgumentParser(
        prog="noncolbm", allow_abbrev=False,
        description="Noncolliding Brownian motion simulators, densities, "
                    "and statistical verification suites.")
    p.add_argument("--config", help="flat key=value configuration file")
    sub = p.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int)
    common.add_argument("--out")

    ps = sub.add_parser("simulate", parents=[common], allow_abbrev=False,
                        help="sample particle or matrix paths")
    ps.add_argument("--model", required=True,
                    choices=["dyson", "noncolliding", "gue", "goe", "xit"])
    ps.add_argument("--n", type=int)
    ps.add_argument("--horizon", type=float)
    ps.add_argument("--steps", type=int)
    ps.add_argument("--reps", type=int)
    ps.set_defaults(func=cmd_simulate)

    pd = sub.add_parser("density", parents=[common], allow_abbrev=False,
                        help="evaluate a named density")
    pd.add_argument("--name", required=True,
                    choices=["f", "survival", "p", "g", "gue", "goe"])
    pd.add_argument("--t", type=float)
    pd.add_argument("--s", type=float)
    pd.add_argument("--horizon", type=float)
    pd.add_argument("--method", choices=["pfaffian", "quadrature",
                                         "montecarlo"])
    pd.add_argument("--x", help="point(s), e.g. '0,2' or '0,2;0,3'")
    pd.add_argument("--y", help="point(s) for transition densities")
    pd.set_defaults(func=cmd_density)

    pv = sub.add_parser("verify", parents=[common], allow_abbrev=False,
                        help="run a statistical suite")
    pv.add_argument("suite",
                    choices=["hc", "imhof", "marginals", "densities"])
    pv.add_argument("--n", type=int)
    pv.add_argument("--horizon", type=float)
    pv.add_argument("--reps", type=int)
    pv.add_argument("--samples", type=int)
    pv.set_defaults(func=cmd_verify)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config) if args.config else {}
        return args.func(args, _configure(args, config))
    except _UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
