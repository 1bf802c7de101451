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


def matrix_table(model, n, steps, reps, seed):
    """simulate's table of a matrix model, built from the library."""
    grid = paths.TimeGrid.uniform(1.0, steps)
    rows = [paths.matrix_path_csv_rows(paths.build_matrix_process(
        model, n, grid, substream(seed, r))) for r in range(reps)]
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
        cli._write_csv(str(out), {}, ["c"] * data.shape[1], data)
        body = out.read_text().splitlines(keepends=True)[3:]
        expected = [",".join("%.17g" % float(v) for v in row) + "\n"
                    for row in data]
        assert body == expected
        assert body[2].startswith("2,") and body[599].startswith("599,")

    def test_derived_columns_match_per_value_format(self, tmp_path):
        # a copy and a negation of a NaN-free column reuse its strings; the
        # negation of a NaN-holding column is formatted itself ("nan", never
        # "-nan"); a column equal to another at both ends but not in the
        # second 4096-row slice is formatted itself too
        vals = [0.0, -0.0, 5e-324, -5e-324, float("inf"), float("-inf"),
                1.0 / 3.0, -1.0 / 3.0, 2.0 ** 52 + 1]
        rows = np.arange(4500)
        a = np.array(vals)[rows % len(vals)]
        b = np.array(vals + [float("nan")])[rows * 7 % (len(vals) + 1)]
        near = a.copy()
        near[4200] = 7.0
        data = np.column_stack([rows / 3.0, a, b, a, -a, -b, near])
        assert cli._derived_columns(data) == {3: (1, False), 4: (1, True)}
        out = tmp_path / "w.csv"
        cli._write_csv(str(out), {}, ["c"] * data.shape[1], data)
        body = out.read_text().splitlines(keepends=True)[3:]
        assert body == per_value_lines(data)
        assert body[7].split(",")[2] == "nan" == body[7].split(",")[5]

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
        assert out.read_text().splitlines(keepends=True)[3:] \
            == per_value_lines(data)

    def test_writer_peak_memory_at_most_row_wise(self):
        # the xit table of six replicates of 512 steps at n = 3
        data = matrix_table("xit", 3, 512, 6, 1)
        assert data.shape == (3078, 20)
        assert cli._derived_columns(data)
        peaks = []
        for lines in (row_wise_lines, cli._csv_lines):
            "".join(lines(data))    # first calls allocate once-only state
            tracemalloc.start()
            try:
                for _ in lines(data):
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
    ], ids=["unequal-lengths", "gue-no-x", "goe-no-x", "f-no-y",
            "not-a-number"])
    def test_malformed_points_exit_two(self, capsys, argv):
        assert run(["density", *argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")

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
    ], ids=["g-cancelled-survival", "gue-28-points-overflow"])
    def test_unrepresentable_value_exits_two(self, capsys, argv):
        # a survival factor that cancels to 0 and a normalization constant
        # that overflows are refused, not printed as inf or a traceback
        assert run(["density", *argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_n_flag_rejected(self, capsys):
        # the dimension of a density comes from its --x and --y points
        with pytest.raises(SystemExit):
            run(["density", "--name", "gue", "--n", "2", "--t", "1",
                 "--x", "0,1"])

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
                                      ["densities", "--samples", "2000"]])
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
        ["marginals", "--reps", "50", "--horizon", "0"],
        ["marginals", "--reps", "50", "--horizon", "inf"],
        ["imhof", "--reps", "50", "--horizon", "-1"],
        ["hc", "--samples", "1"], ["densities", "--samples", "0"]],
        ids=lambda argv: "-".join(argv[:1] + argv[-2:]))
    def test_verify_bad_size_refused(self, tmp_path, capsys, argv):
        out = tmp_path / "r.json"
        assert run(["verify", *argv, "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: " + argv[-2])
        assert not out.exists()

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

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NONCOLBM_SEED", "123")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            run(["simulate", "--model", "dyson", "--n", "2", "--steps",
                 "16", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()
