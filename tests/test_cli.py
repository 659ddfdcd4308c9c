import json
from pathlib import Path

import pytest

from fbsde.cli import main, parse_config_file
from fbsde.errors import ConfigError


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
    @pytest.mark.parametrize(
        "flags, file_text, named",
        [
            (["--cutoff-width", "5"], None, "cutoff width 5"),
            (["--param", "nodes=abc"], None, "'nodes'"),
            ([], "solver.mode = bogus\n", "'bogus'"),
            ([], "solver.mode = sparse\n", "'sparse'"),
            (["--solver", "sparse"], None, "'sparse'"),
        ],
    )
    def test_exit_2_names_the_input(self, tmp_path, capsys, flags, file_text, named):
        argv = ["solve", "--problem", "heat", "--out", str(tmp_path / "out")] + flags
        if file_text is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(file_text)
            argv += ["--config", str(cfg)]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a bad --solver choice itself
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert any(named in line for line in err.splitlines()), err
        assert "Traceback" not in err


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
