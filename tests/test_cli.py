import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from noncolbm import cli, densities, paths, sde, verify
from noncolbm.rng import substream


def run(argv):
    return cli.main(argv)


def per_value_lines(data):
    return [",".join("%.17g" % float(v) for v in row) + "\n"
            for row in data]


def row_wise_lines(data):
    """Reference writer that matches no columns: one "%" per row over
    every value, 256 rows per string."""
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    for i in range(0, data.shape[0], 256):
        yield "".join(row % tuple(r) for r in data[i:i + 256].tolist())


def matrix_table(model, n, steps, reps, seed, horizon=1.0):
    """simulate's table of a matrix model, built from the library: time,
    then every entry row-major, its real and imaginary parts interleaved."""
    grid = paths.TimeGrid.uniform(horizon, steps)
    rows = []
    for r in range(reps):
        v = paths.build_matrix_process(model, n, grid,
                                       substream(seed, r)).values
        rows.append(np.column_stack([grid.times, np.stack(
            [v.real, v.imag], axis=-1).reshape(steps + 1, -1)]))
    if reps > 1:
        rows = [np.column_stack([np.full(steps + 1, r), x])
                for r, x in enumerate(rows)]
    return np.concatenate(rows)


def read_csv(path):
    header = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    columns = body[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in body[1:]])
    return comments, columns, data


class TestSimulate:
    def test_dyson_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert run(["simulate", "--model", "dyson", "--n", "2",
                        "--steps", "32", "--reps", "2", "--seed", "5",
                        "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_different_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(["simulate", "--model", "dyson", "--n", "2", "--steps", "32",
             "--seed", "5", "--out", str(a)])
        run(["simulate", "--model", "dyson", "--n", "2", "--steps", "32",
             "--seed", "6", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_header_echoes_config_and_digest(self, tmp_path):
        out = tmp_path / "o.csv"
        run(["simulate", "--model", "goe", "--n", "2", "--steps", "8",
             "--seed", "1", "--out", str(out)])
        comments, _, _ = read_csv(out)
        assert comments[0].startswith("# config ")
        cfg = json.loads(comments[0][len("# config "):])
        assert cfg["seed"] == 1 and cfg["model"] == "goe"
        assert comments[1].startswith("# digest ")

    def test_xit_final_row_real(self, tmp_path):
        out = tmp_path / "o.csv"
        run(["simulate", "--model", "xit", "--n", "2", "--steps", "16",
             "--horizon", "1.0", "--seed", "2", "--out", str(out)])
        _, columns, data = read_csv(out)
        im_cols = [k for k, c in enumerate(columns) if c.startswith("im")]
        assert np.abs(data[-1, im_cols]).max() == 0.0

    def test_noncolliding_columns(self, tmp_path):
        out = tmp_path / "o.csv"
        run(["simulate", "--model", "noncolliding", "--n", "3",
             "--steps", "64", "--seed", "3", "--out", str(out)])
        _, columns, data = read_csv(out)
        assert columns == ["time", "x1", "x2", "x3"]
        assert np.all(np.diff(data[1:, 1:], axis=1) > 0)

    def test_writer_bytes_match_per_value_format(self, tmp_path):
        vals = [0.0, -0.0, 1e-300, 5e-324, 2.2250738585072014e-308 / 3,
                float("inf"), float("-inf"), float("nan"), 0.1, -1e300,
                1.0 / 3.0, 2.0 ** 52 + 1]
        data = np.array([[r] + vals[r:] + vals[:r] for r in range(600)])
        out = tmp_path / "w.csv"
        cli._write_csv(str(out), {}, ["c"] * data.shape[1], [(data, None)])
        body = out.read_text().splitlines(keepends=True)[3:]
        expected = [",".join("%.17g" % float(v) for v in row) + "\n"
                    for row in data]
        assert body == expected
        assert body[2].startswith("2,") and body[599].startswith("599,")

    def test_derived_columns_match_per_value_format(self, tmp_path):
        # a copy and a negation given by a column map reuse their source's
        # strings; a source column holding NaN is formatted as it is
        vals = [0.0, -0.0, 5e-324, -5e-324, float("inf"), float("-inf"),
                1.0 / 3.0, -1.0 / 3.0, 2.0 ** 52 + 1]
        rows = np.arange(4500)
        a = np.array(vals)[rows % len(vals)]
        b = np.array(vals + [float("nan")])[rows * 7 % (len(vals) + 1)]
        colmap = [(0, False), (1, False), (2, False), (1, False), (1, True)]
        sources = np.column_stack([rows / 3.0, a, b])
        data = np.column_stack([rows / 3.0, a, b, a, -a])
        out = tmp_path / "w.csv"
        cli._write_csv(str(out), {}, ["c"] * data.shape[1],
                       [(sources, colmap)])
        body = out.read_text().splitlines(keepends=True)[3:]
        assert body == per_value_lines(data)
        assert body[7].split(",")[2] == "nan"

    @pytest.mark.parametrize("reps", [1, 3])
    @pytest.mark.parametrize("model",
                             ["xit", "gue", "goe", "dyson", "noncolliding"])
    def test_simulate_body_is_per_value_format(self, tmp_path, model, reps):
        out = tmp_path / "s.csv"
        assert run(["simulate", "--model", model, "--n", "3", "--steps",
                    "16", "--reps", str(reps), "--seed", "9",
                    "--out", str(out)]) == 0
        if model in ("dyson", "noncolliding"):
            sim = (sde.simulate_dyson if model == "dyson"
                   else sde.simulate_noncolliding)
            res = sim(sde.SDEConfig(n=3, horizon=1.0, dt=1.0 / 16), 1.0,
                      seed=9, reps=reps)
            data = np.concatenate(
                [np.column_stack(([np.full(17, r)] if reps > 1 else [])
                                 + [res.times, res.states[r]])
                 for r in range(reps)])
        else:
            data = matrix_table(model, 3, 16, reps, 9)
            # a matrix path holds no NaN at a huge finite horizon either,
            # so its lower triangle's strings stay those of its values
            huge = tmp_path / "huge.csv"
            assert run(["simulate", "--model", model, "--n", "3", "--steps",
                        "16", "--reps", str(reps), "--seed", "9",
                        "--horizon", "1e300", "--out", str(huge)]) == 0
            assert huge.read_text().splitlines(keepends=True)[3:] \
                == per_value_lines(matrix_table(model, 3, 16, reps, 9, 1e300))
        assert out.read_text().splitlines(keepends=True)[3:] \
            == per_value_lines(data)

    def test_writer_peak_memory_at_most_row_wise(self):
        # the xit table of six replicates of 512 steps at n = 3, written
        # row by row in full and as simulate writes it: 9 source columns
        # (the diagonal's real parts, the upper triangle's real and
        # imaginary parts), their map, and each row's lead (rep and time)
        data = matrix_table("xit", 3, 512, 6, 1)
        assert data.shape == (3078, 20)
        grid = paths.TimeGrid.uniform(1.0, 512)
        tables = [paths.matrix_path_csv_rows(paths.build_matrix_process(
            "xit", 3, grid, substream(1, r))) for r in range(6)]
        sources = np.concatenate([x for x, _ in tables])
        colmap = tables[0][1]
        leads = ["%d,%.17g" % (r, t) for r in range(6) for t in grid.times]
        assert sources.shape == (3078, 9) and len(colmap) == 18
        assert "".join(cli._csv_lines(sources, colmap, leads)) \
            == "".join(row_wise_lines(data))
        peaks = []
        for lines, args in ((row_wise_lines, (data,)),
                            (cli._csv_lines, (sources, colmap, leads))):
            "".join(lines(*args))   # first calls allocate once-only state
            tracemalloc.start()
            try:
                for _ in lines(*args):
                    pass
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0]

    @pytest.mark.parametrize("model", ["gue", "xit"])
    def test_replicate_rows_do_not_depend_on_rep_count(self, tmp_path,
                                                       model):
        # each replicate draws from its own substream (seed, r)
        bodies = {}
        for reps in (2, 5):
            out = tmp_path / f"{reps}.csv"
            assert run(["simulate", "--model", model, "--n", "3",
                        "--steps", "8", "--reps", str(reps), "--seed", "4",
                        "--out", str(out)]) == 0
            bodies[reps] = out.read_text().splitlines()[3:]
        assert len(bodies[2]) == 2 * 9 and len(bodies[5]) == 5 * 9
        assert bodies[5][:2 * 9] == bodies[2]

    def test_peak_memory_flat_in_rep_count(self, tmp_path, capsys):
        # replicates are written as they are sampled: twelve replicates peak
        # less than one replicate's table above two
        argv = ["simulate", "--model", "xit", "--n", "4", "--steps", "2048",
                "--seed", "3", "--out", str(tmp_path / "x.csv")]
        assert run(argv + ["--reps", "2"]) == 0   # once-only state first
        peaks = {}
        for reps in (2, 12):
            tracemalloc.start()
            try:
                assert run(argv + ["--reps", str(reps)]) == 0
                peaks[reps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        table, _ = paths.matrix_path_csv_rows(paths.build_matrix_process(
            "xit", 4, paths.TimeGrid.uniform(1.0, 2048), substream(3)))
        assert abs(peaks[12] - peaks[2]) < table.nbytes

    def test_main_leaves_no_cyclic_garbage(self, tmp_path):
        # a parser built per call was some 200 objects of cyclic garbage,
        # held until the collector next ran, and so more peak memory
        argv = ["simulate", "--model", "xit", "--n", "2", "--steps", "4",
                "--seed", "1", "--out", str(tmp_path / "x.csv")]
        assert run(argv) == 0
        gc.collect()
        gc.disable()
        try:
            assert run(argv) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_simulate_threads_flag_rejected(self, tmp_path, capsys):
        # replicates are built in one loop; there is no thread pool to size
        with pytest.raises(SystemExit):
            run(["simulate", "--model", "xit", "--threads", "2",
                 "--out", str(tmp_path / "o.csv")])

    @pytest.mark.parametrize("model,flag,value", [
        ("dyson", "--steps", "0"), ("gue", "--steps", "-1"),
        ("xit", "--horizon", "0"), ("noncolliding", "--horizon", "-1"),
        ("goe", "--reps", "0"), ("dyson", "--n", "0"), ("xit", "--n", "-2"),
        ("gue", "--horizon", "inf"), ("noncolliding", "--horizon", "inf")])
    def test_bad_size_refused(self, tmp_path, capsys, model, flag, value):
        out = tmp_path / "o.csv"
        assert run(["simulate", "--model", model, flag, value, "--seed", "1",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --" + flag[2:])
        assert not out.exists()

    def test_xit_imaginary_part_variance(self, tmp_path):
        # Im X_12(t) is a bridge pinned to 0 at T, over sqrt 2:
        # Var = t (T - t) / (2 T); at t = T / 2 on a two-step grid
        T, m = 2.0, 20_000
        out = tmp_path / "o.csv"
        assert run(["simulate", "--model", "xit", "--n", "2", "--steps",
                    "2", "--horizon", str(T), "--reps", str(m), "--seed",
                    "21", "--out", str(out)]) == 0
        _, columns, data = read_csv(out)
        data = data.reshape(m, 3, len(columns))
        t = data[0, 1, columns.index("time")]
        assert t == T / 2
        im = data[:, 1, columns.index("im12")]
        v = t * (T - t) / (2 * T)
        se = math.sqrt(2.0) * v / math.sqrt(m)
        assert abs(im.var() - v) <= 3 * se

    @pytest.mark.parametrize("model,steps", [
        ("dyson", 64), ("noncolliding", 64), ("dyson", 1)])
    def test_sde_summary_is_the_full_increment_var(self, tmp_path, capsys,
                                                    model, steps):
        # the summary's increment variance is the one np.diff of all the
        # states gives, and so is its printed line (nan with no increments)
        assert run(["simulate", "--model", model, "--n", "3", "--steps",
                    str(steps), "--reps", "5", "--seed", "8",
                    "--out", str(tmp_path / "o.csv")]) == 0
        sim = {"dyson": sde.simulate_dyson,
               "noncolliding": sde.simulate_noncolliding}[model]
        res = sim(sde.SDEConfig(n=3, horizon=1.0, dt=1.0 / steps), 1.0,
                  seed=8, reps=5)
        inc = np.diff(res.states[:, 1:, :], axis=1)
        full = float(inc.var()) if inc.size else float("nan")
        got = cli._increment_var(res.states)
        assert got == pytest.approx(full, rel=1e-12, nan_ok=True)
        assert capsys.readouterr().out.splitlines()[-1] == (
            "summary: replicates=5 failed=%d increment_var=%.6g "
            "(expected ~ dt=%.6g)" % (int(res.failed.sum()), full,
                                      1.0 / steps))

    def test_sde_summary_peak_memory(self):
        # one replicate's increments at a time: the summary adds less than
        # one replicate's written table above the states; np.diff of all
        # the states, and its var, added two arrays their size
        reps, steps, n = 40, 512, 3
        states = np.cumsum(np.random.default_rng(2).normal(
            size=(reps, steps + 1, n)), axis=1)
        cli._increment_var(states)           # once-only state first
        tracemalloc.start()
        try:
            cli._increment_var(states)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = np.column_stack([np.arange(steps + 1.0), states[0]])
        assert peak < table.nbytes


class TestDensity:
    def test_f_matches_library(self, capsys):
        assert run(["density", "--name", "f", "--t", "1.0",
                    "--x", "0,2", "--y", "0,2"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        val = float(line.split(",")[-1])
        assert val == pytest.approx(
            densities.transition_density(1.0, [0, 2], [0, 2]))

    def test_survival_montecarlo_reports_se(self, capsys):
        assert run(["density", "--name", "survival", "--method",
                    "montecarlo", "--t", "1.0", "--x", "0,2",
                    "--seed", "4"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        vals = [float(v) for v in line.split(",")]
        mean, se = vals[-2], vals[-1]
        assert se > 0
        assert abs(mean - densities.survival_pfaffian(1.0, [0, 2])) <= 4 * se

    def test_multiple_points(self, capsys):
        assert run(["density", "--name", "survival", "--t", "1.0",
                    "--x", "0,2;0,3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) >= 3  # seed line + two rows

    def test_invalid_point_exits_nonzero(self, capsys):
        assert run(["density", "--name", "survival", "--t", "1.0",
                    "--x", "2,0"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--name", "survival", "--t", "1.0", "--x", "0,2;0,1,3"],
        ["--name", "gue"],
        ["--name", "goe", "--t", "2.0"],
        ["--name", "f", "--x", "0,1"],
        ["--name", "survival", "--x", "0,a"],
        ["--name", "p", "--x", "0,1"],
        ["--name", "g", "--x", "0,1"],
        ["--name", "survival", "--y", "0,1"],
    ], ids=["unequal-lengths", "gue-no-x", "goe-no-x", "f-no-y",
            "not-a-number", "p-no-y", "g-no-y", "survival-no-x"])
    def test_malformed_points_exit_two(self, capsys, argv):
        # refused before the seed line
        assert run(["density", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize("name", ["survival", "gue", "goe"])
    def test_y_refused_where_the_density_takes_none(self, capsys, name):
        # refused before the seed line, not dropped
        assert run(["density", "--name", name, "--t", "1", "--x", "0,2",
                    "--y", "0,5", "--seed", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --name %s takes no --y\n" % name
        assert captured.out == ""

    @pytest.mark.parametrize("t", ["nan", "inf"])
    @pytest.mark.parametrize("method", ["pfaffian", "quadrature",
                                        "montecarlo"])
    def test_nonfinite_survival_time_exits_two(self, capsys, method, t):
        assert run(["density", "--name", "survival", "--method", method,
                    "--t", t, "--x", "0,1"]) == 2
        assert capsys.readouterr().err.startswith("error: time must be")

    @pytest.mark.parametrize("argv", [
        ["--name", "goe", "--t", "-1", "--x", "0,1"],
        ["--name", "gue", "--t", "0", "--x", "0,1"],
        ["--name", "f", "--t", "nan", "--x", "0,1", "--y", "0,1"],
    ], ids=["goe-negative", "gue-zero", "f-nan"])
    def test_time_not_positive_and_finite_exits_two(self, capsys, argv):
        assert run(["density", *argv]) == 2
        assert capsys.readouterr().err.startswith("error: time must be")

    @pytest.mark.parametrize("argv", [
        ["--name", "g", "--horizon", "2", "--t", "1.3",
         "--x", "0,0.0001,0.0002,0.0003", "--y=-1,0,0.5,1"],
        ["--name", "gue", "--t", "30",
         "--x", ",".join(str(i) for i in range(28))],
        ["--name", "p", "--t", "1", "--x=0,1e-200,2e-200", "--y=-1,0,1"],
    ], ids=["g-cancelled-survival", "gue-28-points-overflow",
            "p-underflowing-start"])
    def test_unrepresentable_value_exits_two(self, capsys, argv):
        # a survival factor that cancels to 0, a normalization constant
        # that overflows and a Vandermonde product of x that underflows to 0
        # are refused, not printed as inf, nan or a traceback
        assert run(["density", *argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_n_flag_rejected(self, capsys):
        # the dimension of a density comes from its --x and --y points
        with pytest.raises(SystemExit):
            run(["density", "--name", "gue", "--n", "2", "--t", "1",
                 "--x", "0,1"])

    @pytest.mark.parametrize("argv,rows,last", [
        (["--name", "survival", "--t", "1.0", "--x", "0,2"], 1, "value"),
        (["--name", "f", "--t", "0.5", "--x", "0,1;0,2", "--y", "0,1;-1,3"],
         4, "value"),
        (["--name", "survival", "--method", "montecarlo", "--t", "1.0",
          "--x", "0,2;0,3"], 2, "se"),
    ], ids=["one-point", "several-points", "montecarlo-se"])
    def test_out_file_body_is_stdout_rows(self, tmp_path, capsys, argv,
                                          rows, last):
        out = tmp_path / "d.csv"
        assert run(["density", *argv, "--seed", "5", "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines(keepends=True)[1:]
        lines = out.read_text().splitlines(keepends=True)
        assert lines[2].rstrip("\n").split(",")[-1] == last
        assert len(printed) == rows and lines[3:] == printed

    def test_header_echoes_only_options_density_takes(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run(["density", "--name", "gue", "--t", "1", "--x", "0,1",
                    "--seed", "2", "--out", str(out)]) == 0
        comments, _, _ = read_csv(out)
        cfg = json.loads(comments[0][len("# config "):])
        assert set(cfg) == {"command", "name", "t", "s", "horizon",
                            "method", "seed"}


class TestVerify:
    def test_hc_suite_exit_zero_and_schema(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["verify", "hc", "--samples", "20000", "--seed", "11",
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == 1
        assert report["passed"] is True
        assert report["config"]["suite"] == "hc"
        for t in report["tests"]:
            assert {"name", "pass"} <= set(t)

    @pytest.mark.parametrize("argv", [["hc", "--samples", "2000"],
                                      ["imhof", "--reps", "200"],
                                      ["densities", "--samples", "2000"],
                                      ["marginals", "--n", "2",
                                       "--reps", "200"]])
    def test_report_matches_schema(self, tmp_path, capsys, argv):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(resources.files("noncolbm").joinpath(
            "schemas/verify_report.schema.json").read_text())
        out = tmp_path / "report.json"
        assert run(["verify", *argv, "--seed", "3",
                    "--out", str(out)]) in (0, 1)
        jsonschema.validate(json.loads(out.read_text()), schema)

    def test_unknown_suite_exit_two(self, capsys):
        with pytest.raises(SystemExit):
            run(["verify", "nosuch"])

    def test_threads_flag_rejected(self, capsys):
        # the suites run in one thread; the flag used to be parsed and ignored
        with pytest.raises(SystemExit):
            run(["verify", "hc", "--threads", "4"])

    @pytest.mark.parametrize("suite_fn,sizes", [
        (verify.hc_suite, {"samples": 2000}),
        (verify.imhof_suite, {"reps": 200}),
        (verify.marginals_suite, {"reps": 200}),
        (verify.densities_suite, {"mc_samples": 2000})],
        ids=["hc", "imhof", "marginals", "densities"])
    def test_retried_report_is_plain_json(self, suite_fn, sizes):
        # the first attempt is marked failed, so the report carries both
        def first_fails(seed, **kwargs):
            report = suite_fn(seed=seed, **kwargs)
            report["passed"] &= seed != 1
            return report

        report = verify.run_suite_with_retry(first_fails, 1, **sizes)
        assert report["retried"]
        json.dumps(report)

    def test_failed_suite_exits_one(self, tmp_path, capsys, monkeypatch):
        # both attempts fail: the report, retried, is still printed and
        # written, and stderr names the failed tests
        def fails(seed, samples):
            tests = [{"name": "first", "pass": False},
                     {"name": "second", "pass": True},
                     {"name": "third", "pass": False}]
            return verify._report("hc", tests, 0, samples=samples, seed=seed)

        monkeypatch.setitem(cli._SUITES, "hc", (fails, {"samples": "samples"}))
        out = tmp_path / "report.json"
        assert run(["verify", "hc", "--samples", "20", "--seed", "4",
                    "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "FAILED: first; third\n"
        report = json.loads(out.read_text())
        assert report["retried"] is True and report["passed"] is False
        assert report["first_attempt"]["seed"] == 4
        assert captured.out.split("\n", 1)[1] == out.read_text()


def test_cli_import_leaves_out_scipy_integrate():
    # a fresh interpreter, since scipy.stats in the test modules loads
    # scipy.integrate into this one
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    p = subprocess.run(
        [sys.executable, "-c",
         "import sys, noncolbm.cli; print('scipy.integrate' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "False"


# commands with an --out, and the work (owner, name) each runs
WORK = [
    (["verify", "hc", "--samples", "2000", "--seed", "1"],
     (verify, "run_suite_with_retry")),
    (["verify", "imhof", "--n", "3", "--seed", "1"],
     (verify, "run_suite_with_retry")),
    (["simulate", "--model", "noncolliding", "--n", "3", "--seed", "1"],
     (cli._SDE_MODELS, "noncolliding")),
    (["simulate", "--model", "xit", "--n", "3", "--seed", "1"],
     (paths, "build_matrix_process")),
    (["density", "--name", "survival", "--t", "1", "--x", "0,2"],
     (densities, "survival_probability")),
]
WORK_IDS = ["verify-hc", "verify-imhof", "simulate-sde", "simulate-xit",
            "density"]


class TestBadInput:
    @pytest.mark.parametrize("text", [None, "n 3\n", "n = two\n",
                                      "steps = 8\nhorizon = long\n"],
                             ids=["missing-file", "no-equals", "bad-int",
                                  "bad-float"])
    def test_bad_config_refused(self, tmp_path, capsys, text):
        cfgfile = tmp_path / "cfg"
        if text is not None:
            cfgfile.write_text(text)
        out = tmp_path / "o.csv"
        assert run(["--config", str(cfgfile), "simulate", "--model", "gue",
                    "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_bad_env_seed_refused(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NONCOLBM_SEED", "12x")
        out = tmp_path / "o.csv"
        assert run(["simulate", "--model", "gue", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: NONCOLBM_SEED")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["marginals", "--reps", "0"], ["marginals", "--reps", "1"],
        ["marginals", "--reps", "50", "--n", "0"],
        ["marginals", "--reps", "50", "--n", "5"],
        ["marginals", "--reps", "50", "--horizon", "0"],
        ["marginals", "--reps", "50", "--horizon", "inf"],
        ["imhof", "--reps", "50", "--horizon", "-1"],
        ["hc", "--samples", "1"], ["densities", "--samples", "0"]],
        ids=lambda argv: "-".join(argv[:1] + argv[-2:]))
    def test_verify_bad_size_refused(self, tmp_path, capsys, argv):
        # refused before the seed line, the marginals cap on --n included
        out = tmp_path / "r.json"
        assert run(["verify", *argv, "--seed", "1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: " + argv[-2])
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv,says", [
        (["verify", "imhof", "--n", "28", "--reps", "2"],
         "overflows: the normalization constants at n=28"),
        (["density", "--name", "gue", "--t", "30",
          "--x", ",".join(str(i) for i in range(28))],
         "overflows: the normalization constants at n=28"),
        (["verify", "imhof", "--n", "7", "--reps", "20", "--seed", "7"],
         "5 of 20 replicates failed"),
        (["simulate", "--model", "gue", "--seed", "1"], "No such file"),
        (["verify", "hc", "--samples", "2000", "--seed", "1"],
         "No such file"),
        (["density", "--name", "goe", "--t", "1", "--x", "1,0"],
         "strictly increasing"),
        (["density", "--name", "gue", "--t", "1", "--x", "0,2,1"],
         "strictly increasing"),
        (["density", "--name", "f", "--t", "0.5", "--x", "0,1",
          "--y", "1,0"], "strictly increasing"),
        (["density", "--name", "p", "--t", "1", "--x", "0,1", "--y", "1,0"],
         "strictly increasing"),
        (["density", "--name", "g", "--t", "0.5", "--x", "0,1",
          "--y", "0,1;1,0"], "strictly increasing"),
    ], ids=["imhof-28-overflow", "gue-28-points-overflow",
            "imhof-7-failed-replicates", "simulate-missing-dir",
            "hc-missing-dir", "goe-unordered-x", "gue-unordered-x",
            "f-unordered-y", "p-unordered-y", "g-unordered-y"])
    def test_refusal_exits_two(self, tmp_path, capsys, argv, says):
        # every refusal, of the CLI or of the library, is one "error: " line
        # that says what was refused, and exit 2, with no output file
        missing = says == "No such file"
        out = tmp_path / "missing" / "o" if missing else tmp_path / "o"
        assert run([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert says in err
        assert not out.exists()

    @staticmethod
    def _fail_on_work(monkeypatch, work):
        """Make the suite, simulator or density fail the test if called."""
        def called(*args, **kwargs):
            raise AssertionError("ran before the --out refusal")

        owner, name = work
        if isinstance(owner, dict):
            monkeypatch.setitem(owner, name, called)
        else:
            monkeypatch.setattr(owner, name, called)

    @pytest.mark.parametrize("argv,work", WORK, ids=WORK_IDS)
    def test_missing_out_dir_refused_before_work(self, tmp_path, capsys,
                                                 monkeypatch, argv, work):
        self._fail_on_work(monkeypatch, work)
        out = tmp_path / "missing" / "o"
        assert run([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 2] No such file or "
                                       "directory: ")
        assert captured.err.count("\n") == 1
        assert not out.parent.exists()

    @pytest.mark.parametrize("argv,work", WORK, ids=WORK_IDS)
    def test_out_under_a_file_refused_before_work(self, tmp_path, capsys,
                                                  monkeypatch, argv, work):
        self._fail_on_work(monkeypatch, work)
        under = tmp_path / "file"
        under.write_text("kept\n")
        out = under / "o"
        assert run([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 20] Not a directory: ")
        assert captured.err.count("\n") == 1
        assert under.read_text() == "kept\n"

    @pytest.mark.parametrize("argv,says", [
        (["--name", "goe", "--t", "1", "--x", "0,1;2,1"],
         "--x point 2 (2,1): coordinates must be strictly increasing"),
        (["--name", "survival", "--t", "1", "--x", "0,a"],
         "--x point 1 (0,a): could not convert string to float: 'a'"),
        (["--name", "g", "--t", "0.5", "--x", "0,1", "--y", "0,1;1,0"],
         "--y point 2 (1,0): coordinates must be strictly increasing"),
        (["--name", "f", "--t", "0.5", "--x", "0,1", "--y", "0,1; 1,b"],
         "--y point 2 (1,b): could not convert string to float: 'b'"),
    ], ids=["x-unordered", "x-not-a-number", "y-unordered",
            "y-not-a-number"])
    def test_refused_point_is_named(self, capsys, argv, says):
        # the flag, the place and the text of the refused point, refused
        # before the seed line
        assert run(["density", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: " + says + "\n"
        assert captured.out == ""

    def test_accepted_density_prints_seed_line_first(self, capsys):
        assert run(["density", "--name", "g", "--t", "0.5", "--x", "0,1",
                    "--y", "0,1;1,2", "--seed", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("seed 3 digest ") and len(lines) == 3

    @pytest.mark.parametrize("argv,prefix,flag", [
        (["density", "--n", "gue", "--t", "1", "--x", "0,1"],
         "--n", "--name"),
        (["simulate", "--model", "xit", "--n", "2", "--steps", "8",
          "--hor", "2"], "--hor", "--horizon"),
        (["density", "--name", "survival", "--t", "1", "--x", "0,2",
          "--se", "3"], "--se", "--seed"),
    ], ids=["density-n", "simulate-hor", "density-se"])
    def test_flag_prefix_refused(self, tmp_path, capsys, argv, prefix, flag):
        # a prefix is not read as the flag it abbreviates; spelled out, the
        # same call runs
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        argv = [flag if a == prefix else a for a in argv]
        assert run([*argv, "--out", str(out)]) == 0
        assert out.exists()


class TestConfigPrecedence:
    def test_config_file_supplies_defaults(self, tmp_path):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("n = 3\nsteps = 8\nseed = 9\n")
        out = tmp_path / "o.csv"
        run(["--config", str(cfgfile), "simulate", "--model", "dyson",
             "--out", str(out)])
        _, columns, _ = read_csv(out)
        assert columns == ["time", "x1", "x2", "x3"]

    def test_flag_overrides_config(self, tmp_path):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("n = 3\nsteps = 8\nseed = 9\n")
        out = tmp_path / "o.csv"
        run(["--config", str(cfgfile), "simulate", "--model", "dyson",
             "--n", "2", "--out", str(out)])
        _, columns, _ = read_csv(out)
        assert columns == ["time", "x1", "x2"]

    def test_density_time_from_config_and_flag(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("t = 2.0\n")
        rows = {}
        for flags in ([], ["--t", "0.5"]):
            assert run(["--config", str(cfgfile), "density", "--name", "f",
                        "--x", "0,2", "--y", "0,1", *flags]) == 0
            line = capsys.readouterr().out.strip().splitlines()[-1]
            rows[len(flags)] = float(line.split(",")[-1])
        assert rows[0] == densities.transition_density(2.0, [0, 2], [0, 1])
        assert rows[2] == densities.transition_density(0.5, [0, 2], [0, 1])

    def test_verify_sizes_from_config_in_report(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("reps = 300\nsamples = 3000\n")
        out = tmp_path / "r.json"
        for flags, samples in (([], 3000), (["--samples", "2500"], 2500)):
            assert run(["--config", str(cfgfile), "verify", "hc", "--seed",
                        "1", "--out", str(out), *flags]) == 0
            cfg = json.loads(out.read_text())["config"]
            assert (cfg["reps"], cfg["samples"]) == (300, samples)

    def test_key_that_no_command_takes_refused(self, tmp_path, capsys):
        # a misspelt key exits 2 naming it, before anything is written; a
        # key that only another command takes is ignored
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("n = 3\nstpes = 8\n")
        out = tmp_path / "o.csv"
        assert run(["--config", str(cfgfile), "simulate", "--model", "gue",
                    "--seed", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'stpes'" in err
        assert not out.exists()
        cfgfile.write_text("steps = 8\n")
        assert run(["--config", str(cfgfile), "density", "--name", "f",
                    "--t", "1", "--x", "0,1", "--y", "0,1", "--seed", "1",
                    "--out", str(out)]) == 0
        assert out.exists()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NONCOLBM_SEED", "123")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            run(["simulate", "--model", "dyson", "--n", "2", "--steps",
                 "16", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()


def subject_argv(command):
    """command and its subject at the subject's first choice."""
    _, subject, choices, _ = cli._COMMANDS[command]
    flag = [subject] if subject.startswith("--") else []
    return [command, *flag, choices[0]]


OPTIONS = [(command, key) for command, (*_, options) in cli._COMMANDS.items()
           for key in options]
NUMERIC = [(command, key) for command, key in OPTIONS
           if not isinstance(cli._COMMANDS[command][3][key][0], str)]
BOUNDED = [(command, key) for command, key in OPTIONS
           if cli._COMMANDS[command][3][key][1] is not None]


def bad_value(command, key):
    """A value of the option's type outside its choices or below its
    least."""
    bound = cli._COMMANDS[command][3][key][1]
    return "bogus" if isinstance(bound, tuple) else str(bound - 1)


class TestCommandTable:
    """Every option of cli._COMMANDS is a flag of its command with the
    table's type and choices, and is refused out of its bound alike as a
    flag and as a config key; a flag declared in one place only fails."""

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_parser_declares_the_table(self, command):
        _, subject, _, options = cli._COMMANDS[command]
        ns = cli.build_parser().parse_args(subject_argv(command))
        extra = {"x", "y"} if command == "density" else set()
        assert set(vars(ns)) == {"config", "command", "seed", "out",
                                 subject.lstrip("-"), *options, *extra}
        assert all(getattr(ns, key) is None for key in options)

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_subject_takes_only_its_choices(self, capsys, command):
        _, subject, choices, _ = cli._COMMANDS[command]
        argv = subject_argv(command)
        for choice in choices:
            ns = cli.build_parser().parse_args(argv[:-1] + [choice])
            assert getattr(ns, subject.lstrip("-")) == choice
        with pytest.raises(SystemExit) as exc:
            run(argv[:-1] + ["bogus"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key", OPTIONS)
    def test_flag_takes_the_table_type_and_choices(self, capsys, command,
                                                   key):
        default, bound = cli._COMMANDS[command][3][key]
        argv = subject_argv(command) + ["--" + key]
        for value in bound if isinstance(bound, tuple) else [default]:
            got = getattr(cli.build_parser().parse_args(argv + [str(value)]),
                          key)
            assert type(got) is type(default) and got == value
        if not isinstance(default, str):
            with pytest.raises(SystemExit) as exc:
                run(argv + ["two"])
            assert exc.value.code == 2
            assert "error: argument --%s: invalid" % key in (
                capsys.readouterr().err)

    @pytest.mark.parametrize("command,key", NUMERIC)
    def test_config_value_of_wrong_type_refused(self, tmp_path, capsys,
                                                command, key):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("%s = two\n" % key)
        out = tmp_path / "o"
        assert run(["--config", str(cfgfile), *subject_argv(command),
                    "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: %s = 'two'" % key)
        assert not out.exists()

    @pytest.mark.parametrize("command,key", BOUNDED)
    def test_bad_flag_value_refused(self, tmp_path, capsys, command, key):
        out = tmp_path / "o"
        argv = [*subject_argv(command), "--" + key, bad_value(command, key),
                "--seed", "1", "--out", str(out)]
        if isinstance(cli._COMMANDS[command][3][key][1], tuple):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage:")
            assert "error: argument --%s: invalid choice" % key in err
        else:
            assert run(argv) == 2
            assert capsys.readouterr().err.startswith("error: --" + key)
        assert not out.exists()

    @pytest.mark.parametrize("command,key", BOUNDED)
    def test_bad_config_value_refused(self, tmp_path, capsys, command, key):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("%s = %s\n" % (key, bad_value(command, key)))
        out = tmp_path / "o"
        assert run(["--config", str(cfgfile), *subject_argv(command),
                    "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --" + key)
        assert not out.exists()
