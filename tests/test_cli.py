import contextlib
import dataclasses
import errno
import hashlib
import json
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fbsde import (
    Grid,
    LevyMeasure,
    ProblemSpec,
    SolutionField,
    SolverConfig,
    bsde_residual,
    build_problem,
    catalog_names,
    simulate_ensemble,
    solve_final_value,
)
from fbsde import cli, paths, pipeline
from fbsde.cli import (
    _FILE_KEYS,
    _FLOAT,
    _INT,
    RunConfig,
    _build,
    _config_from_args,
    _make_parser,
    _write_csv,
    _write_field_csv,
    _write_paths_csv,
    main,
    parse_config_file,
)
from fbsde.errors import BlowUpError, ConfigError, FbsdeError
from test_paths import take


def read_csv_rows(path: Path):
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines]


class TestRunCommand:
    def test_heat_verify_pipeline(self, tmp_path):
        code = main(
            [
                "verify",
                "--problem",
                "heat",
                "--nodes",
                "101",
                "--steps",
                "100",
                "--paths",
                "40",
                "--dt",
                "0.01",
                "--seed",
                "7",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["max_principle"]["passed"]
        assert report["assumptions"]["passed"]
        assert report["checks"]["residual_finite"]
        assert report["residuals"]["total_paths"] == 40
        assert (tmp_path / "field.csv").exists()
        assert (tmp_path / "paths.csv").exists()

    def test_verify_csv_bytes_are_pinned(self, tmp_path):
        # SHA-256 of both CSVs of one small verify run.  They change only
        # with a stated change of the scheme, the RNG order or the CSV format.
        argv = ["verify", "--problem", "coupled-linear", "--nodes", "41", "--steps", "40"]
        argv += ["--paths", "20", "--dt", "0.05", "--seed", "7", "--out", str(tmp_path)]
        assert main(argv) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("field.csv", "paths.csv")
        }
        assert digests == {
            "field.csv": "11ca3aabdefc3499d63e10c9fa55599b3d865df20ea2025e762084938225b2de",
            "paths.csv": "2d24bca1994b6b87f857a806827b8db91de55335baf5caf43816631ae59010aa",
        }

    def test_unknown_problem_lists_catalog(self, tmp_path, capsys):
        code = main(["solve", "--problem", "nosuch", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "heat" in err and "coupled-linear" in err

    def test_zero_paths_rejected(self, tmp_path):
        code = main(
            ["simulate", "--problem", "heat", "--paths", "0", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_csv_headers_and_constant_column_counts(self, tmp_path):
        code = main(
            [
                "simulate",
                "--problem",
                "heat",
                "--nodes",
                "41",
                "--steps",
                "20",
                "--paths",
                "5",
                "--dt",
                "0.05",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        for name in ("field.csv", "paths.csv"):
            rows = read_csv_rows(tmp_path / name)
            assert len(rows) > 1
            width = len(rows[0])
            assert all(len(r) == width for r in rows)
        assert read_csv_rows(tmp_path / "paths.csv")[0] == [
            "path",
            "t",
            "x_0",
            "y_0",
            "jumps",
        ]

    def test_paths_csv_byte_identical_for_same_seed(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = main(
                [
                    "simulate",
                    "--problem",
                    "pure-jump",
                    "--nodes",
                    "61",
                    "--steps",
                    "30",
                    "--paths",
                    "20",
                    "--dt",
                    "0.02",
                    "--seed",
                    "123",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outs.append((out / "paths.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_report_json_round_trip_idempotent(self, tmp_path):
        code = main(
            [
                "solve",
                "--problem",
                "heat",
                "--nodes",
                "41",
                "--steps",
                "20",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        text = (tmp_path / "report.json").read_text()
        once = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        twice = json.dumps(json.loads(once), indent=2, sort_keys=True) + "\n"
        assert once == twice == text

    def test_check_assumptions_exit_zero(self, tmp_path):
        code = main(
            ["check-assumptions", "--problem", "coupled-linear", "--out", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        names = [e["name"] for e in report["assumptions"]["entries"]]
        assert names == ["B1", "B2", "B5"]


class TestConfigFile:
    def test_file_values_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "problem = heat\n"
            "solver.nodes = 41\n"
            "solver.steps = 20\n"
            "sim.paths = 6\n"
            "sim.dt = 0.05\n"
            "sim.seed = 9\n"
            "# comment line\n"
        )
        out = tmp_path / "out"
        code = main(
            ["simulate", "--config", str(cfg), "--steps", "40", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["nodes"] == [41]
        assert report["config"]["steps"] == 40  # flag wins over file
        assert report["config"]["paths"] == 6

    def test_parse_error_carries_line_number(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("problem = heat\nnot a key value pair\n")
        with pytest.raises(ConfigError, match="bad.cfg:2"):
            parse_config_file(cfg)

    def test_unknown_key_rejected_with_location(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wibble.wobble = 3\n")
        out = tmp_path / "out"
        code = main(["solve", "--config", str(cfg), "--out", str(out)])
        assert code == 2


class TestConfigErrors:
    # explicit ids: the first two keep the names that earlier test reports use
    @pytest.mark.parametrize(
        "command, flags, file_text, named",
        [
            pytest.param(
                "solve", ["--cutoff-width", "5"], None, "cutoff width 5",
                id="flags0-None-cutoff width 5",
            ),
            pytest.param(
                "solve", ["--param", "nodes=abc"], None, "'nodes'", id="flags1-None-'nodes'"
            ),
            # the retired solver-mode and grid settings are unknown, not ignored
            pytest.param(
                "solve", [], "solver.mode = auto\n", "'solver.mode'", id="solver-mode-key"
            ),
            pytest.param("solve", ["--solver", "auto"], None, "--solver", id="solver-flag"),
            pytest.param("solve", ["--grid", "41"], None, "--grid", id="grid-flag"),
            pytest.param("verify", ["--x0", "a"], None, "--x0", id="x0-not-a-number"),
            pytest.param("verify", ["--x0", "9"], None, "x0 must lie", id="x0-outside-box"),
            pytest.param("simulate", ["--x0", "1,2"], None, "x0 must have 1", id="x0-too-long"),
            pytest.param("verify", ["--dt", "0.3"], None, "dt 0.3", id="dt-not-dividing"),
            pytest.param("verify", ["--dt", "nan"], None, "dt must be", id="dt-nan"),
            pytest.param("simulate", ["--seed", "-1"], None, "seed", id="seed-negative"),
            pytest.param(
                "verify", ["--param", "horizon=nan"], None, "horizon", id="horizon-nan"
            ),
            pytest.param(
                "solve",
                ["--problem", "coupled-linear", "--param", "half_width=inf"]
                + ["--nodes", "21", "--steps", "10"],
                None,
                "grid bounds must be finite",
                id="half-width-inf",
            ),
            # finite bounds whose width overflows
            pytest.param(
                "verify",
                ["--problem", "coupled-linear", "--param", "half_width=1e308"],
                None,
                "grid width must be finite",
                id="half-width-1e308",
            ),
        ],
    )
    def test_exit_2_names_the_input(self, tmp_path, capsys, command, flags, file_text, named):
        argv = [command, "--problem", "heat", "--out", str(tmp_path / "out")] + flags
        if file_text is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(file_text)
            argv += ["--config", str(cfg)]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects an unknown flag itself
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert any(named in line for line in err.splitlines()), err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("solve", ["--cutoff-width=nan"], "cutoff width must be finite and positive, got nan"),
            ("solve", ["--cutoff-width=inf"], "cutoff width must be finite and positive, got inf"),
            ("simulate", ["--x0", "nan"], "x0 coordinate 0 must be finite, got nan"),
            ("verify", ["--x0=-inf"], "x0 coordinate 0 must be finite, got -inf"),
        ],
    )
    def test_non_finite_width_or_start_is_named(self, tmp_path, capsys, command, flags, message):
        code = main([command, "--problem", "heat", "--out", str(tmp_path / "out")] + flags)
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize(
        "command, flag, where",
        [
            ("solve", "--config", "missing"),
            ("solve", "--config", "not-utf8"),
            ("solve", "--out", "under-a-file"),
            ("sweep", "--out", "under-a-file"),
        ],
    )
    def test_file_system_input_exits_2_naming_the_path(
        self, tmp_path, capsys, command, flag, where
    ):
        plain = tmp_path / "plain.cfg"
        plain.write_bytes(b"\xffproblem = heat\n")
        path = {
            "missing": tmp_path / "nope.cfg",
            "not-utf8": plain,
            "under-a-file": plain / "out",
        }[where]
        argv = [command, "--problem", "heat", "--out", str(tmp_path / "out")]
        argv += ["--rungs", "2"] if command == "sweep" else []
        assert main(argv + [flag, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: "), err
        assert "Traceback" not in err


# one config-file line and the flag that means the same, per file key
FILE_KEY_FLAGS = {
    "problem": ("pure-jump", ["--problem", "pure-jump"]),
    "solver.nodes": ("41", ["--nodes", "41"]),
    "solver.steps": ("20", ["--steps", "20"]),
    "solver.cutoff_width": ("0.5", ["--cutoff-width", "0.5"]),
    "sim.paths": ("6", ["--paths", "6"]),
    "sim.dt": ("0.05", ["--dt", "0.05"]),
    "sim.seed": ("9", ["--seed", "9"]),
    "out.dir": ("runs/a", ["--out", "runs/a"]),
    "sweep.rungs": ("3", ["--rungs", "3"]),
}


class TestConfigErrorIsValueError:
    def test_library_callers_catching_value_error_keep_working(self):
        assert issubclass(ConfigError, FbsdeError) and issubclass(ConfigError, ValueError)
        with pytest.raises(ValueError, match="unknown parameter"):
            build_problem("heat", {"nosuch": "1"})

    @pytest.mark.parametrize(
        "params",
        [
            {"nosuch": "1"},
            {"horizon": "abc"},
            # numbers from Python are not truncated, and a bool is not a number
            {"nodes": 3.7},
            {"steps": 2.5},
            {"horizon": True},
        ],
        ids=["config-error", "value-error", "float-nodes", "float-steps", "bool-horizon"],
    )
    def test_build_re_raises_with_the_same_message(self, params):
        with pytest.raises(ValueError) as direct:
            build_problem("heat", params)
        with pytest.raises(ConfigError) as via_build:
            _build(RunConfig(problem="heat", params=params))
        assert str(via_build.value) == str(direct.value)

    @pytest.mark.parametrize("command, target", [("verify", "run"), ("sweep", "sweep")])
    def test_main_maps_every_config_error_to_exit_2(self, monkeypatch, capsys, command, target):
        def fail(config):
            raise ConfigError("bad setting")

        monkeypatch.setattr(cli, target, fail)
        assert main([command, "--problem", "heat"]) == 2
        assert capsys.readouterr().err == "error: bad setting\n"


class TestConfigFileKeys:
    def test_every_file_key_resolves_like_its_flag(self, tmp_path):
        assert set(FILE_KEY_FLAGS) == set(_FILE_KEYS)
        parser = _make_parser()

        def resolve(argv):
            return _config_from_args(parser.parse_args(["sweep", *argv]))

        default = resolve(["--problem", "heat"])
        cfg = tmp_path / "run.cfg"
        for key, (value, flags) in FILE_KEY_FLAGS.items():
            base = [] if key == "problem" else ["--problem", "heat"]
            cfg.write_text(f"{key} = {value}\n")
            from_file = resolve(base + ["--config", str(cfg)])
            assert from_file == resolve(base + flags), key
            assert from_file != default, key


class TestSweepCommand:
    def test_heat_ladder_ratio_near_four(self, tmp_path):
        code = main(
            [
                "sweep",
                "--problem",
                "heat",
                "--rungs",
                "2",
                "--paths",
                "10",
                "--dt",
                "0.02",
                "--seed",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        rows = read_csv_rows(tmp_path / "sweep.csv")
        header = rows[0]
        assert header[0] == "rung"
        table = {key: [row[i] for row in rows[1:]] for i, key in enumerate(header)}
        ratio = float(table["field_error_ratio"][1])
        assert 3.0 <= ratio <= 5.0
        assert all(len(r) == len(header) for r in rows)

    def test_missing_oracle_leaves_error_column_empty(self, tmp_path):
        code = main(
            [
                "sweep",
                "--problem",
                "coupled-linear",
                "--param",
                "nodes=51",
                "--param",
                "steps=20",
                "--rungs",
                "2",
                "--paths",
                "10",
                "--dt",
                "0.05",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        rows = read_csv_rows(tmp_path / "sweep.csv")
        header = rows[0]
        idx_err = header.index("field_error")
        idx_rms = header.index("residual_rms")
        assert all(row[idx_err] == "" for row in rows[1:])
        assert all(row[idx_rms] != "" for row in rows[1:])

    def test_single_rung_rejected(self, tmp_path):
        code = main(
            ["sweep", "--problem", "heat", "--rungs", "1", "--out", str(tmp_path)]
        )
        assert code == 2


class TestEnvironment:
    def test_env_var_sets_default_output_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("FBSDE_OUTPUT_DIR", str(target))
        code = main(["solve", "--problem", "heat", "--nodes", "41", "--steps", "10"])
        assert code == 0
        assert (target / "report.json").exists()


def reference_field_csv(path, field_obj):
    """The per-value writer: one ``format(v, ".17g")`` call per cell."""
    nodes = field_obj.grid.nodes()
    n, m = field_obj.grid.ndim, field_obj.m
    header = (
        ["level", "t"]
        + [f"x_{i}" for i in range(n)]
        + [f"field_{c}" for c in range(m)]
        + [f"grad_{c}_{i}" for c in range(m) for i in range(n)]
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lev, t in enumerate(field_obj.times):
            vals = field_obj.values[lev]
            grads = field_obj.gradients[lev]
            for node in range(field_obj.grid.n_nodes):
                row = [str(lev), format(float(t), ".17g")]
                row += [format(float(v), ".17g") for v in nodes[node]]
                row += [format(float(v), ".17g") for v in vals[node]]
                row += [
                    format(float(grads[node, c, i]), ".17g")
                    for c in range(m)
                    for i in range(n)
                ]
                fh.write(",".join(row) + "\n")


def reference_paths_csv(path, ens):
    """The per-value writer: one ``format(v, ".17g")`` call per cell."""
    n_paths, n_levels, n = ens.states.shape
    m = ens.y.shape[2]
    header = ["path", "t"] + [f"x_{i}" for i in range(n)] + [f"y_{c}" for c in range(m)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header + ["jumps"]) + "\n")
        for pid in range(n_paths):
            events = ens[pid].events
            for j, t in enumerate(ens.times):
                row = [str(pid), format(float(t), ".17g")]
                row += [format(float(v), ".17g") for v in ens.states[pid, j]]
                row += [format(float(v), ".17g") for v in ens.y[pid, j]]
                row.append(str(int(np.sum(events.interval + 1 == j))))
                fh.write(",".join(row) + "\n")


def jumpy_2d_setup():
    """A 2-D, 2-component random field and a jumpy ensemble simulated on it."""
    measure = LevyMeasure(marks=[[0.5], [-0.25]], weights=[2.0, 1.0])
    spec = ProblemSpec(
        n=2,
        m=2,
        l=1,
        horizon=1.0,
        drift=lambda t, x, u, p, w: np.zeros((x.shape[0], 2)),
        generator=lambda t, x, u, p, w: np.zeros((x.shape[0], 2)),
        diffusion=lambda t, x, u: np.broadcast_to(0.3 * np.eye(2), (x.shape[0], 2, 2)).copy(),
        jump_coeff=lambda t, x, u, y: np.full((x.shape[0], 2), y[0]),
        terminal=lambda x: np.zeros((x.shape[0], 2)),
        measure=measure,
    )
    grid = Grid((-20.0, -10.0), (20.0, 10.0), (5, 4))
    config = SolverConfig(
        grid=grid, n_steps=4, dirichlet_data=lambda t, x: np.zeros((x.shape[0], 2))
    )
    gen = np.random.default_rng(3)
    field_obj = SolutionField(
        grid=grid,
        times=np.linspace(0.0, 1.0, 5),
        values=gen.standard_normal((5, grid.n_nodes, 2)),
        spec=spec,
        config=config,
    )
    return field_obj, simulate_ensemble(field_obj, spec, np.zeros(2), 0.125, 6, base_seed=5)


class TestBlockWriters:
    # 7 rows per block splits every time level of the field and every path
    @pytest.mark.parametrize("block_rows", [None, 7], ids=["default-blocks", "split-blocks"])
    def test_byte_identical_to_the_per_value_writer(self, tmp_path, monkeypatch, block_rows):
        if block_rows is not None:
            monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block_rows)
        field_obj, ens = jumpy_2d_setup()
        _write_field_csv(tmp_path / "field.csv", field_obj)
        _write_paths_csv(tmp_path / "paths.csv", ens.times, ens.states, ens.y, ens.events)
        reference_field_csv(tmp_path / "field_ref.csv", field_obj)
        reference_paths_csv(tmp_path / "paths_ref.csv", ens)
        field_text = (tmp_path / "field.csv").read_bytes()
        assert field_text == (tmp_path / "field_ref.csv").read_bytes()
        assert field_text.startswith(
            b"level,t,x_0,x_1,field_0,field_1,grad_0_0,grad_0_1,grad_1_0,grad_1_1\n"
        )
        paths_text = (tmp_path / "paths.csv").read_bytes()
        assert paths_text == (tmp_path / "paths_ref.csv").read_bytes()
        jumps = [int(row[-1]) for row in read_csv_rows(tmp_path / "paths.csv")[1:]]
        # every event is counted once, and some interval holds several
        assert sum(jumps) == len(ens.events) and max(jumps) >= 2
        # paths.csv is written in two halves: an empty first half, equal halves, odd halves
        for k in (1, 2, 5):
            part = take(ens, range(k))
            _write_paths_csv(tmp_path / "paths.csv", part.times, part.states, part.y, part.events)
            reference_paths_csv(tmp_path / "paths_ref.csv", part)
            assert (tmp_path / "paths.csv").read_bytes() == (
                tmp_path / "paths_ref.csv"
            ).read_bytes(), k
        assert not list(tmp_path.glob("*.part"))

    @given(st.lists(st.floats(), min_size=1, max_size=6))
    @example([float("nan"), float("inf"), -float("inf"), -0.0, 0.0])
    @example([5e-324, -2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308])
    @example([0.1, 1.0 / 3.0, 1e16, 123456789012345678.0, 1e-5])
    @settings(max_examples=200, deadline=None)
    def test_row_template_formats_floats_like_format(self, values):
        columns = [("k", _INT)] + [(f"v{j}", _FLOAT) for j in range(len(values))]
        block = (np.arange(2),) + tuple(np.full(2, v) for v in values)
        cells = ",".join(format(v, ".17g") for v in values)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "v.csv"
            _write_csv(out, columns, [block])
            lines = out.read_text().splitlines()
        assert lines[1:] == [f"0,{cells}", f"1,{cells}"]


class TestOneSourcePerSetting:
    @pytest.mark.parametrize(
        "param, flag", [("nodes=7", ["--nodes", "11"]), ("steps=5", ["--steps", "10"])]
    )
    def test_flag_and_param_for_one_count_exit_2(self, tmp_path, capsys, param, flag):
        argv = ["solve", "--problem", "heat", "--param", param, "--out", str(tmp_path)]
        assert main(argv + flag) == 2
        err = capsys.readouterr().err
        key = param.split("=")[0]
        assert f"--{key}" in err and f"--param {key}=" in err, err
        assert "Traceback" not in err and not (tmp_path / "report.json").exists()

    def test_sweep_rungs_refine_a_param_grid(self, tmp_path):
        argv = ["sweep", "--problem", "heat", "--param", "nodes=21", "--param", "steps=10"]
        argv += ["--rungs", "2", "--paths", "4", "--dt", "0.05", "--out", str(tmp_path)]
        assert main(argv) == 0
        rows = read_csv_rows(tmp_path / "sweep.csv")
        nodes, steps = rows[0].index("nodes"), rows[0].index("steps")
        assert [(r[nodes], r[steps]) for r in rows[1:]] == [("21", "10"), ("41", "40")]

    def test_overflowing_sup_bound_exits_0(self, tmp_path, capsys):
        argv = ["solve", "--problem", "heat", "--param", "horizon=1e300"]
        argv += ["--nodes", "11", "--steps", "2", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert "Traceback" not in capsys.readouterr().err
        report = strict_report(tmp_path / "report.json")
        # an infinite bound and margin are written as null
        assert report["max_principle"]["bound"] is None
        assert report["max_principle"]["margin"] is None
        assert report["checks"]["max_principle_pass"] is True

    def test_single_path_stderr_is_null(self, tmp_path):
        argv = ["verify", "--problem", "heat", "--nodes", "21", "--steps", "20"]
        argv += ["--paths", "1", "--dt", "0.05", "--out", str(tmp_path)]
        assert main(argv) == 0
        report = strict_report(tmp_path / "report.json")
        assert report["residuals"]["stderr"] == [None]

    def test_oracle_of_another_size_named(self, tmp_path, monkeypatch):
        def bad_oracle_build(name, params):
            built = build_problem(name, params)
            return dataclasses.replace(built, oracle=lambda t, x: np.zeros((x.shape[0], 2)))

        monkeypatch.setattr(cli, "build_problem", bad_oracle_build)
        argv = ["sweep", "--problem", "heat", "--param", "nodes=21", "--param", "steps=10"]
        config = _config_from_args(_make_parser().parse_args(argv + ["--rungs", "2"]))
        expected = r"oracle returned shape \(21, 2\), expected \(21, 1\)"
        with pytest.raises(ValueError, match=expected):
            cli.sweep(dataclasses.replace(config, out_dir=tmp_path))

    def test_oracle_of_another_size_exits_1(self, tmp_path, monkeypatch, capsys):
        def bad_oracle_build(name, params):
            built = build_problem(name, params)
            return dataclasses.replace(built, oracle=lambda t, x: np.zeros((x.shape[0], 2)))

        monkeypatch.setattr(cli, "build_problem", bad_oracle_build)
        argv = ["sweep", "--problem", "heat", "--param", "nodes=21", "--param", "steps=10"]
        # a fault of the program, not of the configuration: exit 1, not 2
        assert main(argv + ["--rungs", "2", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: oracle returned shape (21, 2), expected (21, 1)\n", err


class TestBlowUpExits1:
    def test_overflowing_march_exits_1_without_a_warning(self, tmp_path, capsys):
        argv = ["solve", "--problem", "pure-jump", "--out", str(tmp_path)]
        argv += ["--param", "nodes=21", "--param", "steps=8", "--param", "rate=1e300"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 1
        assert not caught, [str(w.message) for w in caught]
        err = capsys.readouterr().err
        assert err == (
            "error: solution blew up at time level 2: explicit terms produced non-finite values\n"
        ), err


class TestCheckGrowthOverflow:
    def test_overflowing_growth_norm_fails_b5_by_value(self, tmp_path, capsys):
        # the suite turns a RuntimeWarning into an error: the B5 norms must not warn
        argv = ["verify", "--problem", "pure-jump", "--param", "nodes=21", "--param", "steps=8"]
        argv += ["--param", "rate=1e300", "--paths", "5", "--out", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: solution blew up at time level 2"), err


def verify_small(out_dir: Path) -> list[str]:
    argv = ["verify", "--problem", "coupled-linear", "--nodes", "21", "--steps", "10"]
    return argv + ["--paths", "5", "--dt", "0.1", "--seed", "3", "--out", str(out_dir)]


def assert_no_leftovers(out_dir: Path) -> None:
    """Every helper process reaped and no part file left in ``out_dir``."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not list(out_dir.glob("*.part"))


class TestWriterProcesses:
    def test_successful_verify_leaves_no_child_and_no_part_file(self, tmp_path):
        assert main(verify_small(tmp_path)) == 0
        assert {p.name for p in tmp_path.iterdir()} == {"field.csv", "paths.csv", "report.json"}
        assert_no_leftovers(tmp_path)

    @pytest.mark.parametrize("name", ["field.csv", "paths.csv", "report.json"])
    def test_unwritable_output_exits_1_naming_it(self, tmp_path, capsys, name):
        (tmp_path / name).mkdir()
        assert main(verify_small(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / name}: Is a directory\n", err
        assert_no_leftovers(tmp_path)

    def test_unwritable_sweep_csv_exits_1_naming_it(self, tmp_path, capsys):
        (tmp_path / "sweep.csv").mkdir()
        argv = ["sweep", "--problem", "heat", "--param", "nodes=11", "--param", "steps=4"]
        argv += ["--rungs", "2", "--paths", "2", "--dt", "0.1", "--out", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'sweep.csv'}: Is a directory\n", err

    def test_simulation_error_is_kept_while_field_csv_is_written(
        self, tmp_path, capsys, monkeypatch
    ):
        def blow_up(*args, **kwargs):
            raise BlowUpError("solution blew up at time level 3: test", level=3)

        monkeypatch.setattr(cli, "_simulate_paths", blow_up)
        assert main(verify_small(tmp_path)) == 1
        assert capsys.readouterr().err == "error: solution blew up at time level 3: test\n"
        assert_no_leftovers(tmp_path)

    def test_child_failure_names_the_file_and_the_error(self, tmp_path, capsys, monkeypatch):
        def boom(path, field_obj):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "_write_field_csv", boom)
        assert main(verify_small(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'field.csv'}: ValueError: boom\n", err
        assert_no_leftovers(tmp_path)

    def test_at_most_one_helper_at_a_time(self, tmp_path, monkeypatch):
        in_child = cli._in_child
        alive, most = [0], [0]

        @contextlib.contextmanager
        def counted(*args):
            with in_child(*args):
                alive[0] += 1
                most[0] = max(most[0], alive[0])
                try:
                    yield
                finally:
                    alive[0] -= 1

        monkeypatch.setattr(cli, "_in_child", counted)
        assert main(verify_small(tmp_path)) == 0
        assert (alive[0], most[0]) == (0, 1)

    def test_without_fork_the_bytes_are_the_same(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "fork")
        TestRunCommand().test_verify_csv_bytes_are_pinned(tmp_path)


def strict_report(path: Path) -> dict:
    """``report.json`` parsed as strict JSON, checked to re-serialize to its own text."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    text = path.read_text()
    report = json.loads(text, parse_constant=reject)
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == text
    return report


class TestTooLargeToHold:
    def argv(self, out_dir: Path) -> list[str]:
        argv = ["verify", "--problem", "heat", "--nodes", "21", "--steps", "10"]
        return argv + ["--out", str(out_dir)]

    @pytest.mark.parametrize("dt, steps", [("1e-12", "1000000000000"), ("1e-300", "1e+300")])
    def test_dt_with_too_many_levels_exits_2_naming_dt(self, tmp_path, capsys, dt, steps):
        assert main(self.argv(tmp_path) + ["--dt", dt]) == 2
        err = capsys.readouterr().err
        assert err == f"error: dt {float(dt)} makes {steps} time steps, too many to hold\n", err

    def test_too_many_paths_exit_1_in_one_line(self, tmp_path, capsys):
        # the per-path residuals are allocated before any path is stepped
        assert main(self.argv(tmp_path) + ["--paths", "1000000000000"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert_no_leftovers(tmp_path)


def library_residuals(name: str, n_paths: int, dt: float, seed: int) -> dict:
    """The ``residuals`` block of ``bsde_residual(simulate_ensemble(...))``, as
    ``report.json`` writes it."""
    built = build_problem(name, {"nodes": 41, "steps": 40})
    field_obj, _ = solve_final_value(built.spec, built.solver_config, built.constants)
    ens = simulate_ensemble(field_obj, built.spec, built.x0, dt, n_paths, seed)
    report = bsde_residual(ens)
    block = cli._report_dict(
        RunConfig(problem=name), build_problem(name), None, None, None, report, {}
    )["residuals"]
    return cli._finite_or_null(block)


class TestStreamedWalk:
    """``fbsde verify`` walks the paths chunk by chunk and holds no Z or Ztilde
    over levels, with the library pipeline's bits."""

    @pytest.mark.parametrize("name", catalog_names())
    def test_report_and_paths_csv_equal_the_library(self, tmp_path, monkeypatch, name):
        want = library_residuals(name, 60, 0.02, 3)
        if name in ("heat", "manufactured-nonlocal"):
            assert want["excluded_paths"] > 0
        texts = []
        # the default, then 9 chunks, the last one partial
        for chunk_paths in (paths._CHUNK_PATHS, 7):
            monkeypatch.setattr(paths, "_CHUNK_PATHS", chunk_paths)
            out = tmp_path / str(chunk_paths)
            argv = ["verify", "--problem", name, "--nodes", "41", "--steps", "40"]
            argv += ["--paths", "60", "--dt", "0.02", "--seed", "3", "--out", str(out)]
            assert main(argv) == 0
            got = strict_report(out / "report.json")["residuals"]
            assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
            texts.append((out / "paths.csv").read_bytes())
            assert_no_leftovers(out)
        assert texts[0] == texts[1]

    def test_later_chunk_write_failure_leaves_no_part_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(paths, "_CHUNK_PATHS", 2)
        write_csv = cli._write_csv

        def full_when_appending(path, columns, blocks, header=True, mode="w"):
            # the second chunk's first half fails while its helper writes the second
            if mode == "a":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            write_csv(path, columns, blocks, header, mode)

        monkeypatch.setattr(cli, "_write_csv", full_when_appending)
        assert main(verify_small(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'paths.csv'}: No space left on device\n", err
        assert_no_leftovers(tmp_path)

    def test_at_most_one_helper_at_a_time_over_three_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(paths, "_CHUNK_PATHS", 2)
        TestWriterProcesses().test_at_most_one_helper_at_a_time(tmp_path, monkeypatch)

    # a short horizon keeps the jumps few, whose count per chunk varies
    CHUNK_PATHS, HORIZON, DT = 1000, 0.1, 0.001

    def walk_peaks(self, monkeypatch, traced_peak, walk):
        """The peaks of ``walk(n_paths, run)`` over one chunk and over four, in
        ``CHUNK_PATHS`` chunks, each level's Z and Ztilde checked to be its own."""
        chunk_paths = self.CHUNK_PATHS
        monkeypatch.setattr(paths, "_CHUNK_PATHS", chunk_paths)
        level = pipeline._ResidualSums.level

        def per_level_only(self, j, x, y, z, ztab, db):
            # Z (P, m, n) and Ztilde (P, K, m) of one level, not views of more
            assert z.shape[0] == ztab.shape[0] == x.shape[0] <= chunk_paths
            assert z.ndim == ztab.ndim == 3 and z.base is None and ztab.base is None
            level(self, j, x, y, z, ztab, db)

        monkeypatch.setattr(pipeline._ResidualSums, "level", per_level_only)
        # the first run, not measured, makes what a run makes once per process
        runs = enumerate((chunk_paths, chunk_paths, 4 * chunk_paths))
        return [traced_peak(walk, n_paths, run)[1] for run, n_paths in runs][1:]

    def assert_one_chunk_held(self, peaks, held_arrays):
        """Past one chunk, the peak grows by per-path sums only; at one chunk, it is
        ``held_arrays`` (P, L) arrays of that chunk and less than one more."""
        chunk_paths, n_levels, m = self.CHUNK_PATHS, round(self.HORIZON / self.DT) + 1, 1
        # past one chunk, only per-path (P, m) sums grow: the generator,
        # Brownian and compensator sums and the residual (and the class-S
        # parts, a few doubles per level, all made by the end of the first chunk)
        assert peaks[1] - peaks[0] <= 4 * 8 * m * 4 * chunk_paths, peaks
        held = 8 * chunk_paths * held_arrays * n_levels
        assert peaks[0] - held < 8 * chunk_paths * n_levels, (peaks, held)

    def test_peak_does_not_grow_with_the_chunk_count(self, tmp_path, monkeypatch, traced_peak):
        def verify(n_paths, run):
            config = RunConfig(
                problem="coupled-linear", params={"horizon": self.HORIZON},
                stages=cli._COMMAND_STAGES["verify"], nodes=21, steps=10, paths=n_paths,
                dt=self.DT, seed=3, out_dir=tmp_path / str(run),
            )
            assert cli.run(config) == 0

        peaks = self.walk_peaks(monkeypatch, traced_peak, verify)
        # one chunk's states and Y are held, and not its increments or its Z
        self.assert_one_chunk_held(peaks, 2)

    def test_sweep_rung_peak_does_not_grow_with_the_chunk_count(self, monkeypatch, traced_peak):
        built = build_problem("coupled-linear", {"horizon": self.HORIZON, "nodes": 21, "steps": 10})
        field_obj, _ = solve_final_value(built.spec, built.solver_config, built.constants)

        def rung(n_paths, run):
            # the walk of one sweep rung, which writes no paths.csv
            report = cli._walk_paths(field_obj, built.x0, self.DT, n_paths, 3)
            assert report.total_paths == n_paths and np.isfinite(report.rms)

        peaks = self.walk_peaks(monkeypatch, traced_peak, rung)
        # one chunk's states are held, and not its Y, its increments or its Z
        self.assert_one_chunk_held(peaks, 1)
