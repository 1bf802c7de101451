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


_ROWS = 64                     # rows of the table held as strings at once


def _csv_lines(data, colmap=None, leads=None):
    """CSV text of a 2-D float array, every value as "%.17g", one string per
    _ROWS rows, so that no more than those rows are held as Python objects.
    leads, when given, holds one text per row of data, written as the row's
    first fields; a lead holds no "%".

    colmap, when given, lists one (column of data, negate) pair per written
    column, as paths.matrix_path_csv_rows gives a Hermitian path's lower
    triangle from its upper one: each column of data is formatted once, a
    written column reuses its source's strings, and a negation toggles their
    leading "-".  That is exact when data holds no NaN, as a matrix path
    (finite normals times finite scales) does not: "%.17g" of -x is "-" +
    "%.17g" of x for every other x (0 and -0, inf and -inf, subnormals
    alike).  A column of None is written "0", the text of 0.0."""
    for i in range(0, data.shape[0], _ROWS):
        yield _block_text(data[i:i + _ROWS], colmap,
                          None if leads is None else leads[i:i + _ROWS])


def _block_text(block, colmap, leads):
    """_csv_lines' text of one block of rows; its strings die on return."""
    k, width = block.shape
    if colmap is None:
        row = ",".join(["%.17g"] * width) + "\n"
        text = row * k if leads is None else \
            "".join([lead + "," + row for lead in leads])
        return text % tuple(block.ravel().tolist())
    # one "%" for the whole block, columns one after another
    text = ",".join(["%.17g"] * block.size) % tuple(block.T.ravel().tolist())
    strs = text.split(",")
    del text
    sources = [strs[c * k:(c + 1) * k] for c in range(width)]
    del strs
    zero = ["0"] * k
    cols = [zero if c is None else
            [v[1:] if v[0] == "-" else "-" + v for v in sources[c]]
            if negate else sources[c] for c, negate in colmap]
    if leads is not None:
        cols.insert(0, leads)
    return "\n".join(map(",".join, zip(*cols))) + "\n"


def _parse_points(flag, s):
    """The ";"-separated points of the flag's value s; ValueError naming the
    flag, the place and the text of a refused point."""
    points = [p.strip() for p in s.split(";") if p.strip()]
    for k, p in enumerate(points):
        try:
            points[k] = linalg.weyl_vector([float(v) for v in p.split(",")])
        except ValueError as exc:
            raise ValueError("%s point %d (%s): %s"
                             % (flag, k + 1, p, exc)) from None
    return points


def _density_points(name, args):
    """The --x and --y points of a density query, [None] for an absent flag.
    ValueError for a refused point (_parse_points), --x points of different
    lengths, a point the named density needs (see _DENSITIES) but was not
    given, or a --y given to a density that takes none."""
    needs = _DENSITIES[name][0]
    xs = _parse_points("--x", args.x or "") or [None]
    ys = _parse_points("--y", args.y or "") or [None]
    for flag, points in zip("xy", (xs, ys)):
        if flag in needs and points[0] is None:
            raise ValueError("--name %s needs --%s" % (name, flag))
    if args.y is not None and "y" not in needs:
        raise ValueError("--name %s takes no --y" % name)
    if len({x.size for x in xs if x is not None}) > 1:
        raise ValueError("--x points differ in length")
    return xs, ys


def _load_config(path):
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ValueError("cannot read config file: %s" % exc) from None
    cfg = {}
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if line and not line.startswith("#"):
            key, eq, val = line.partition("=")
            if not eq:
                raise ValueError("%s line %d: expected key = value, got %r"
                                 % (path, number, line))
            cfg[key.strip()] = val.strip()
    # a key that another command takes is ignored; one that none takes is
    # most likely misspelt, and would silently run on the default
    known = {"seed"}.union(*(options for *_, options in _COMMANDS.values()))
    for key in cfg:
        if key not in known:
            raise ValueError("%s: key %r is not an option of any command"
                             % (path, key))
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
        raise ValueError("%s = %r is not a valid %s"
                         % (key, config[key], cast.__name__)) from None


def _digest(cfg):
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def _configure(args, config):
    """The effective configuration of args.command: its subject, every
    option, each checked against its bound (see _COMMANDS) once all are
    resolved, and the seed (flag, config, NONCOLBM_SEED, fresh entropy).
    Then the marginals suite's cap on --n and a density's points, parsed
    into args.points.  Prints the seed and the configuration's digest once
    every input is accepted."""
    _, subject, _, options = _COMMANDS[args.command]
    subject = subject.lstrip("-")
    cfg = {"command": args.command, subject: getattr(args, subject)}
    for key, (default, _) in options.items():
        cfg[key] = _effective(args, config, key, default, type(default))
    for key, (_, bound) in options.items():
        val = cfg[key]
        if isinstance(bound, tuple) and val not in bound:
            raise ValueError("--%s must be one of %s, got %r"
                             % (key, ", ".join(bound), val))
        if isinstance(bound, int):
            linalg.check_time(val, name="--" + key)
            if val < bound:
                raise ValueError("--%s must be at least %d, got %r"
                                 % (key, bound, val))
    seed = _effective(args, config, "seed", None, int)
    if seed is None:
        seed = _effective(args, os.environ, "NONCOLBM_SEED", None, int)
    if seed is None:
        seed = int.from_bytes(os.urandom(4), "big")
    cfg["seed"] = seed
    if cfg.get("suite") == "marginals" and cfg["n"] > verify.MARGINALS_MAX_N:
        raise ValueError("--n must be at most %d for the marginals suite, "
                         "got %d" % (verify.MARGINALS_MAX_N, cfg["n"]))
    if args.command == "density":
        args.points = _density_points(cfg["name"], args)
    print("seed", seed, "digest", _digest(cfg))
    return cfg


def _write_csv(path, header_cfg, columns, tables, times=None):
    """Write the CSV file path: the configuration and its digest as "#"
    lines, the column names, then the rows of each (rows, colmap) table that
    tables yields, in turn, as _csv_lines writes them.  Each row is led by
    its time when times is given (formatted once for all tables), and before
    that by its table's index (str(r), "%.17g" of r) when columns[0] is
    "rep", which comes with times.  A table is formatted as it arrives, so a
    generator of them holds one at a time."""
    indexed = columns[0] == "rep"
    text = None if times is None else ["%.17g" % t for t in times.tolist()]
    with open(path, "w", newline="\n") as fh:
        fh.write("# config %s\n# digest %s\n" % (
            json.dumps(header_cfg, sort_keys=True), _digest(header_cfg)))
        fh.write(",".join(columns) + "\n")
        for r, (rows, colmap) in enumerate(tables):
            leads = ["%d,%s" % (r, t) for t in text] if indexed else text
            fh.writelines(_csv_lines(rows, colmap, leads))


def _increment_var(states):
    """np.diff(states[:, 1:], axis=1).var() (NaN with no increments), one
    replicate's increments at a time in one buffer, about their mean, which
    telescopes to the paths' ends."""
    count = states[:, 2:].size
    mean = (states[:, -1].sum() - states[:, 1].sum()) / max(count, 1)
    squares, d = 0.0, None
    for x in states:
        d = np.subtract(x[2:], x[1:-1], out=d)
        d -= mean
        squares += np.vdot(d, d)
    return float(squares / count) if count else float("nan")


_SDE_MODELS = {"dyson": sde.simulate_dyson,
               "noncolliding": sde.simulate_noncolliding}


def cmd_simulate(args, cfg):
    model, n, T, steps, reps, seed = (cfg[k] for k in (
        "model", "n", "horizon", "steps", "reps", "seed"))
    out = args.out or f"{model}.csv"
    columns = (["rep"] if reps > 1 else []) + ["time"]

    if model in _SDE_MODELS:
        res = _SDE_MODELS[model](sde.SDEConfig(n=n, horizon=T, dt=T / steps),
                                 T, seed=seed, reps=reps)
        columns += [f"x{i+1}" for i in range(n)]
        _write_csv(out, cfg, columns,
                   ((res.states[r], None) for r in range(reps)), res.times)
        print("summary: replicates=%d failed=%d increment_var=%.6g "
              "(expected ~ dt=%.6g)" % (reps, int(res.failed.sum()),
                                        _increment_var(res.states), T / steps))
    else:
        grid = paths.TimeGrid.uniform(T, steps)
        for i in range(n):
            for j in range(n):
                columns += [f"re{i+1}{j+1}", f"im{i+1}{j+1}"]
        # each path is built as the writer reaches it, and dies once written
        _write_csv(out, cfg, columns, (paths.matrix_path_csv_rows(
            paths.build_matrix_process(model, n, grid, substream(seed, r)))
            for r in range(reps)), grid.times)
        print("summary: replicates=%d grid_points=%d" % (reps, steps + 1))
    return 0


# Each density --name: the points it needs ("x", "y"), and its value at one
# (x, y) under the effective configuration c, a float or an MCEstimate
_DENSITIES = {
    "f": ("xy", lambda c, x, y: densities.transition_density(c["t"], x, y)),
    "survival": ("x", lambda c, x, y: densities.survival_probability(
        c["t"], x, method=c["method"], rng=substream(c["seed"]))),
    "p": ("y", lambda c, x, y: densities.h_transform_density(
        c["s"], x, c["t"], y)),
    "g": ("y", lambda c, x, y: densities.finite_horizon_density(
        c["horizon"], c["s"], x, c["t"], y)),
    **dict.fromkeys(("gue", "goe"), ("x", lambda c, x, y:
                    densities.eigenvalue_density(c["name"], x, c["t"]))),
}


def cmd_density(args, cfg):
    evaluate = _DENSITIES[cfg["name"]][1]

    def values(x, y):
        v = evaluate(cfg, x, y)
        return [v.mean, v.se] if isinstance(v, densities.MCEstimate) else [v]

    # one row per point: its coordinates, then its value (and its se)
    xs, ys = args.points
    rows = [([] if x is None else list(x)) + values(x, y)
            for x in xs for y in ys]
    columns = [] if xs[0] is None else [f"x{i+1}" for i in range(xs[0].size)]
    columns += ["value", "se"][:len(rows[0]) - len(columns)]
    data = np.array(rows, dtype=float)
    if args.out:
        _write_csv(args.out, cfg, columns, [(data, None)])
    print("".join(_csv_lines(data)), end="")
    return 0


_SDE_SIZES = {"n": "n", "horizon": "horizon", "reps": "reps"}
# each suite's function, and its size keywords -> the options that give them
_SUITES = {"hc": (verify.hc_suite, {"samples": "samples"}),
           "imhof": (verify.imhof_suite, _SDE_SIZES),
           "marginals": (verify.marginals_suite, _SDE_SIZES),
           "densities": (verify.densities_suite, {"mc_samples": "samples"})}


def cmd_verify(args, cfg):
    suite_fn, sizes = _SUITES[cfg["suite"]]
    report = verify.run_suite_with_retry(
        suite_fn, cfg["seed"], **{k: cfg[v] for k, v in sizes.items()})
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


# Each command, run by cmd_<command>: its help, its subject (a required
# flag, or a positional) with the subject's choices, and its options: name ->
# (built-in default, bound), a value taking its default's type.  A bound is a
# tuple of the values taken, an int least (check_time, then >= it) or None.
_COMMANDS = {
    "simulate": ("sample particle or matrix paths", "--model",
                 (*_SDE_MODELS, "gue", "goe", "xit"),
                 {"n": (2, 0), "horizon": (1.0, 0), "steps": (256, 0),
                  "reps": (1, 0)}),
    "density": ("evaluate a named density", "--name",
                tuple(_DENSITIES),
                {"t": (1.0, None), "s": (0.0, None), "horizon": (1.0, None),
                 "method": ("pfaffian",
                            ("pfaffian", "quadrature", "montecarlo"))}),
    "verify": ("run a statistical suite", "suite", tuple(_SUITES),
               {"n": (2, 0), "horizon": (1.0, 0), "reps": (10_000, 2),
                "samples": (100_000, 2)}),
}


@functools.cache
def build_parser():
    """The argument parser, built once per process from _COMMANDS:
    parse_args leaves it unchanged, and a parser per call is cyclic garbage
    that lives until the collector next runs."""
    p = argparse.ArgumentParser(
        prog="noncolbm", allow_abbrev=False,
        description="Noncolliding Brownian motion simulators, densities, "
                    "and statistical verification suites.")
    p.add_argument("--config", help="flat key=value configuration file")
    sub = p.add_subparsers(dest="command", required=True)
    for command, (help_, subject, choices, options) in _COMMANDS.items():
        ps = sub.add_parser(command, allow_abbrev=False, help=help_)
        ps.add_argument("--seed", type=int)
        ps.add_argument("--out")
        ps.add_argument(subject, choices=choices,
                        **({"required": True} if subject[0] == "-" else {}))
        for key, (default, bound) in options.items():
            ps.add_argument("--" + key, type=type(default), choices=(
                bound if isinstance(bound, tuple) else None))
        if command == "density":
            ps.add_argument("--x", help="point(s), e.g. '0,2' or '0,2;0,3'")
            ps.add_argument("--y", help="point(s) for transition densities")
    return p


def main(argv=None):
    """Run argv's command: exit status 0 on success, 1 when a verify suite
    fails, 2 on a refusal, a ValueError, OSError or OverflowError from the
    CLI or the library, which is printed as one "error: ..." line."""
    args = build_parser().parse_args(argv)
    try:
        if args.out:   # before any work: stat of "<dir>/" refuses a file too
            os.stat(os.path.dirname(os.path.abspath(args.out)) + os.sep)
        config = _load_config(args.config) if args.config else {}
        # looked up when called, so that a wrapper set on cmd_* is the one run
        return globals()["cmd_" + args.command](args, _configure(args, config))
    except (ValueError, OSError, OverflowError) as exc:
        what = "a value overflows: " if isinstance(exc, OverflowError) else ""
        print("error: " + what + str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
