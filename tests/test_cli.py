import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import quad

import mslab
from mslab import cli, field
from mslab import config as config_module
from mslab.cli import main
from mslab.config import PRESETS, load_config, parse_config
from mslab.diagnostics import CSV_CHECKS, TRIAD_FIELDS, check_algebraic, triad_series
from mslab.errors import ConfigError, SolverDivergence
from mslab.evolution import EvolutionConfig, run
from mslab.field import StripConfig, default_strip_config
from mslab.spectral import Grid
from mslab.config import build_initial_profile
from conftest import exact_linear_observables


def small_config(tmp_path, **overrides):
    raw = {
        "initial_data": {"preset": "mode", "amplitude": 0.05, "wavenumber": 2},
        "evolution": {
            "engine": "linear",
            "dt": 2e-3,
            "t_end": 0.02,
            "mobility": 2.0,
            "grid": {"length": 6.283185307179586, "num_points": 128},
            "strip": {"num_layers": 64},
            "output_every": 2,
        },
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in raw and isinstance(raw[key], dict):
            raw[key].update(value)
        else:
            raw[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path, raw


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        # verify runs every check of the registry: a check list is a key like any other
        for key in ("surprise", "checks"):
            path, raw = small_config(tmp_path)
            raw[key] = [{"name": "energy_dissipation", "threshold": 0.02}]
            path.write_text(json.dumps(raw))
            with pytest.raises(ConfigError) as err:
                load_config(path)
            assert err.value.path == key and err.value.message == "unknown key"
            assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
            assert f"config error at {key}: unknown key" in capsys.readouterr().err

    def test_nested_path_in_diagnostic(self, tmp_path):
        path, raw = small_config(tmp_path)
        raw["evolution"]["grid"]["num_points"] = 7
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "evolution.grid" in str(err.value)

    def test_missing_key(self):
        with pytest.raises(ConfigError):
            parse_config({"initial_data": {"preset": "mode", "amplitude": 0.1, "wavenumber": 1}})

    def test_preset_slope_must_stay_inside_gate(self, tmp_path):
        path, raw = small_config(tmp_path)
        raw["initial_data"]["amplitude"] = 2.0
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "slope" in str(err.value)

    def test_unknown_check_name(self, tmp_path):
        path, raw = small_config(tmp_path)
        raw["checks"] = [{"name": "totally_new", "threshold": 1.0}]
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_cli_holds_no_check_dispatch(self):
        # the check families are run in mslab.diagnostics only
        assert not [name for name in vars(cli) if name.startswith("check_")]

    def test_readme_config_parses(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as handle:
            (block,) = re.findall(r"```json\n(.*?)```", handle.read(), re.S)
        config = parse_config(json.loads(block))
        assert config.evolution.engine == "nonlinear"
        assert config.evolution.strip == default_strip_config(config.evolution.grid)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("evolution", "dt", math.nan),
            ("evolution", "t_end", math.inf),
            ("evolution", "mobility", math.nan),
            ("evolution", "dt", 10**400),
        ],
        ids=["dt-nan", "t_end-inf", "mobility-nan", "dt-huge-int"],
    )
    def test_non_finite_number_exit_2(self, tmp_path, capsys, section, key, value):
        # json.load accepts NaN and Infinity; the config must not
        path, raw = small_config(tmp_path)
        raw[section][key] = value
        where = f"{section}.{key}"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert where in capsys.readouterr().err
        assert not out.exists()

    def test_step_count_overflow_exit_2(self, tmp_path, capsys):
        # t_end/dt overflows to inf, so the steps cannot be counted
        path, raw = small_config(tmp_path, evolution={"dt": 1e-300, "t_end": 1e10})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert "evolution" in capsys.readouterr().err
        assert not out.exists()

    def test_step_count_above_limit_exit_2(self, tmp_path, capsys):
        # t_end/dt = 1e290 is finite, but far beyond MAX_STEPS
        path, _ = small_config(tmp_path, evolution={"dt": 1e-300, "t_end": 1e-10})
        out = tmp_path / "out"
        start = time.perf_counter()
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        assert "evolution" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_above_the_kernel_cap_exit_2(self, tmp_path, capsys, monkeypatch):
        # the exterior solve of a state holds an N x N kernel, 512 MB at
        # N = 8192; the grid is refused before any profile is built
        def no_profile(*args):
            raise AssertionError("a grid above the cap must be refused before any profile is built")

        monkeypatch.setattr(config_module, "build_initial_profile", no_profile)
        path, _ = small_config(tmp_path, evolution={"grid": {"length": 16.0, "num_points": 8192}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert "config error at evolution.grid.num_points" in capsys.readouterr().err
        assert not out.exists()
        assert config_module._parse_grid({"length": 16.0, "num_points": 4096}, "grid") == Grid(16.0, 4096)

    @pytest.mark.parametrize("key", ["grading", "depth"])
    def test_strip_takes_only_the_layer_count(self, tmp_path, capsys, key):
        path, _ = small_config(tmp_path, evolution={"strip": {"num_layers": 16, key: 32.0}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert f"evolution.strip.{key}" in capsys.readouterr().err
        assert not out.exists()

    def test_t_end_off_the_step_grid_exit_2(self, tmp_path, capsys):
        # 0.01/0.003 = 3.33 steps: the run would have ended at t = 0.012
        path, _ = small_config(tmp_path, evolution={"dt": 3e-3, "t_end": 0.01})
        out = tmp_path / "out"
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.path == "evolution"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert "config error at evolution" in capsys.readouterr().err
        assert not out.exists()

    def test_omitted_keys_take_the_dataclass_defaults(self):
        grid = Grid(16.0, 64)
        evolution = {
            "engine": "nonlinear",
            "dt": 1e-3,
            "t_end": 2e-3,
            "grid": {"length": 16.0, "num_points": 64},
            "strip": {"num_layers": 24},
        }
        initial = {"preset": "gaussian_bump", "amplitude": 0.1, "width": 1.0}
        parsed = parse_config({"initial_data": initial, "evolution": evolution}).evolution
        strip = default_strip_config(grid, num_layers=24)
        assert parsed == EvolutionConfig("nonlinear", 1e-3, 2e-3, grid, strip)
        assert parsed.strip == StripConfig(strip.depth, 24)
        del evolution["strip"]
        parsed = parse_config({"initial_data": initial, "evolution": evolution}).evolution
        assert parsed.strip == default_strip_config(grid)

    def test_mobility_belongs_to_the_linear_engine(self, tmp_path, capsys):
        path, _ = small_config(tmp_path, evolution={"mobility": 1.0})
        assert load_config(path).evolution.mobility == 1.0
        path, _ = small_config(tmp_path, evolution={"engine": "nonlinear", "mobility": 1.0})
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.path == "evolution"
        assert "no mobility" in err.value.message
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config error at evolution" in capsys.readouterr().err

    def test_cli_exit_code_on_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err


class TestSimulate:
    def test_zero_initial_data(self, tmp_path):
        path, _ = small_config(
            tmp_path,
            initial_data={"preset": "gaussian_bump", "amplitude": 0.0, "width": 1.0},
            evolution={"engine": "nonlinear", "grid": {"length": 16.0, "num_points": 64},
                       "strip": {"num_layers": 16},
                       "dt": 1e-3, "t_end": 4e-3, "output_every": 1},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        rows = (out / "triad.csv").read_text().strip().splitlines()
        assert rows[0] == ",".join(TRIAD_FIELDS)
        for row in rows[1:]:
            values = [float(v) for v in row.split(",")]
            assert all(v == 0.0 for v in values[1:])

    def test_solver_csv_has_one_row_per_nonlinear_step(self, tmp_path):
        path, _ = small_config(
            tmp_path,
            initial_data={"preset": "gaussian_bump", "amplitude": 0.05, "width": 1.0},
            evolution={"engine": "nonlinear", "grid": {"length": 16.0, "num_points": 64},
                       "strip": {"num_layers": 32},
                       "dt": 1e-3, "t_end": 5e-3, "output_every": 2},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        rows = (out / "solver.csv").read_text().strip().splitlines()
        assert rows[0] == "step,t,iterations,residual,tail,points"
        config = load_config(path)
        traj = run(build_initial_profile(config.evolution.grid, config.initial_data), config.evolution)
        assert len(rows) - 1 == len(traj.solves) == 5
        for step, (row, record) in enumerate(zip(rows[1:], traj.solves), start=1):
            parts = row.split(",")
            assert parts[0] == str(step) and float(parts[1]) == step * 1e-3
            assert int(parts[2]) == record.iterations > 0
            assert float(parts[3]) == record.residual
            assert float(parts[4]) == record.tail
            assert int(parts[5]) == record.points == 64

    def test_solver_csv_is_only_a_header_on_the_linear_engine(self, tmp_path):
        path, _ = small_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        text = (out / "solver.csv").read_text()
        assert text == "step,t,iterations,residual,tail,points\n"

    def test_mode_linear_matches_observables(self, tmp_path):
        path, raw = small_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        rows = (out / "triad.csv").read_text().strip().splitlines()[1:]
        config = load_config(path)
        h0 = build_initial_profile(config.evolution.grid, config.initial_data)
        for row in rows:
            values = dict(zip(TRIAD_FIELDS, (float(v) for v in row.split(","))))
            e_lin, d_lin, _ = exact_linear_observables(h0, values["t"], 2.0)
            assert values["E"] == pytest.approx(0.5 * e_lin, rel=2e-3)
            assert values["D"] == pytest.approx(2.0 * d_lin, rel=1e-2)

    def test_determinism_byte_identical(self, tmp_path):
        path, _ = small_config(tmp_path, seed=7)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(path), "--out", str(out2)]) == 0
        assert (out1 / "triad.csv").read_bytes() == (out2 / "triad.csv").read_bytes()
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()

    def test_round_trip_to_printed_precision(self, tmp_path):
        path, _ = small_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        config = load_config(path)
        h0 = build_initial_profile(config.evolution.grid, config.initial_data)
        traj = run(h0, config.evolution)
        samples = triad_series(traj, config.evolution.strip)
        rows = (out / "triad.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == len(samples)
        for row, sample in zip(rows, samples):
            parsed = [float(v) for v in row.split(",")]
            in_memory = [getattr(sample, name) for name in TRIAD_FIELDS]
            assert parsed == in_memory  # %.17g round-trips doubles exactly

    @pytest.mark.parametrize("t_end, output_every", [(0.02, 10)])
    def test_too_few_snapshots_for_verify_exit_2(self, tmp_path, capsys, t_end, output_every):
        # 10 steps every 10 keep t = 0 and 0.02: verify would reject the triad.csv
        path, _ = small_config(tmp_path, evolution={"t_end": t_end, "output_every": output_every})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert "keeps 2 snapshots; verify needs at least 3" in capsys.readouterr().err
        assert not out.exists()

    def test_three_off_cadence_snapshots_verify(self, tmp_path):
        # 6 steps every 5 keep t = 0, 0.01 and the off-cadence 0.012
        path, _ = small_config(tmp_path, evolution={"t_end": 0.012, "output_every": 5})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        assert len((out / "triad.csv").read_text().splitlines()) == 1 + 3
        report_path = tmp_path / "report.json"
        code = main(["verify", "--traj", str(out / "triad.csv"), "--config", str(path), "--out", str(report_path)])
        assert code in (0, 5)
        counts = {c["name"]: c["num_samples"] for c in json.loads(report_path.read_text())["checks"]}
        assert counts["energy_dissipation"] == 1

    def test_slope_blowup_exit_code(self, tmp_path):
        path, _ = small_config(
            tmp_path,
            initial_data={"preset": "gaussian_bump", "amplitude": 1.1, "width": 1.0},
            evolution={
                "engine": "nonlinear",
                "grid": {"length": 16.0, "num_points": 128},
                "strip": {"num_layers": 48},
                "dt": 2e-4, "t_end": 0.03, "output_every": 5,
                "slope_gate": 0.942,
            },
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 3

    def test_failure_off_the_schedule_writes_what_was_solved(self, tmp_path, monkeypatch, capsys):
        # the second solve is of state 1, which output_every = 2 does not
        # keep: the files hold state 0 and the solver's message is printed
        path, _ = small_config(tmp_path, evolution={"engine": "nonlinear", "output_every": 2})
        calls = [0]
        original = field._solve

        def failing_second(state):
            calls[0] += 1
            if calls[0] == 2:
                raise SolverDivergence("the solve of state 1 fails")
            return original(state)

        monkeypatch.setattr(field, "_solve", failing_second)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 4
        for name in ("trajectory.csv", "triad.csv", "solver.csv"):
            assert len((out / name).read_text().splitlines()) == 2
        assert (out / "trajectory.csv").read_text().splitlines()[1].startswith("0,")
        captured = capsys.readouterr()
        assert "status: solver_failure; 1 snapshots" in captured.out
        assert "solver failure: the solve of state 1 fails" in captured.err


class TestVerify:
    @pytest.fixture
    def triad_csv(self, tmp_path):
        path, _ = small_config(tmp_path, evolution={"t_end": 0.04})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        return path, out / "triad.csv"

    def test_all_named_checks_present_and_pass(self, tmp_path, triad_csv):
        config_path, csv_path = triad_csv
        report_path = tmp_path / "report.json"
        code = main([
            "verify", "--traj", str(csv_path), "--config", str(config_path),
            "--out", str(report_path),
        ])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["overall_pass"] is True
        assert [c["name"] for c in payload["checks"]] == list(CSV_CHECKS)
        times = {float(row.split(",")[0]) for row in csv_path.read_text().splitlines()[1:]}
        for check in payload["checks"]:
            assert check["t_sup"] in times and check["num_excluded"] == 0, check

    def test_steep_linear_bump_passes(self, tmp_path):
        # the linear engine's D is its own flow's rate, so energy_dissipation
        # holds on a bump of amplitude 0.3 (measured 1.8e-5)
        path, _ = small_config(
            tmp_path,
            initial_data={"preset": "gaussian_bump", "amplitude": 0.3, "width": 1.0},
            evolution={"grid": {"length": 16.0, "num_points": 256}, "t_end": 0.04, "output_every": 1},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        report_path = tmp_path / "report.json"
        code = main([
            "verify", "--traj", str(out / "triad.csv"), "--config", str(path),
            "--out", str(report_path),
        ])
        assert code == 0
        assert json.loads(report_path.read_text())["overall_pass"] is True

    def test_corrupted_energy_fails_with_exit_5(self, tmp_path, triad_csv):
        config_path, csv_path = triad_csv
        rows = csv_path.read_text().strip().splitlines()
        middle = len(rows) // 2
        parts = rows[middle].split(",")
        parts[1] = f"{float(parts[1]) * 10.0 + 1.0:.17g}"  # raise E mid-series
        rows[middle] = ",".join(parts)
        bad_csv = tmp_path / "corrupted.csv"
        bad_csv.write_text("\n".join(rows) + "\n")
        report_path = tmp_path / "report.json"
        code = main([
            "verify", "--traj", str(bad_csv), "--config", str(config_path),
            "--out", str(report_path),
        ])
        assert code == 5
        payload = json.loads(report_path.read_text())
        failed = {c["name"] for c in payload["checks"] if not c["pass"]}
        assert "energy_dissipation" in failed

    def test_malformed_csv_exit_2(self, tmp_path, triad_csv):
        config_path, csv_path = triad_csv
        rows = csv_path.read_text().strip().splitlines()
        # the ten-column layout written before the profile-level norms were kept
        ten = [",".join(row.split(",")[:10]) for row in rows]
        assert ten[0] == "t,E,D,H,Hhalf,sup_slope,sup_h,E2D,intVs2,curv_L2"
        bad = tmp_path / "bad.csv"
        for text in ("t,E\n0,1\n", "\n".join(ten) + "\n"):
            bad.write_text(text)
            assert main([
                "verify", "--traj", str(bad), "--config", str(config_path),
                "--out", str(tmp_path / "r.json"),
            ]) == 2

    def test_lemma_check_runs_from_the_file(self, tmp_path):
        path, raw = small_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        report_path = tmp_path / "report.json"
        assert main([
            "verify", "--traj", str(out / "triad.csv"), "--config", str(path),
            "--out", str(report_path),
        ]) == 0
        (check,) = [c for c in json.loads(report_path.read_text())["checks"] if c["name"] == "kappa_half_d"]
        config = load_config(path)
        h0 = build_initial_profile(config.evolution.grid, config.initial_data)
        samples = triad_series(run(h0, config.evolution), config.evolution.strip)
        in_memory = {r.name: r for r in check_algebraic(samples)}["kappa_half_d"]
        assert check["name"] == "kappa_half_d" and check["pass"] is True
        assert check["empirical_sup"] == in_memory.empirical_sup

    def test_tampered_lemma_norm_fails_with_exit_5(self, tmp_path, triad_csv):
        config_path, csv_path = triad_csv
        rows = csv_path.read_text().strip().splitlines()
        middle = len(rows) // 2
        parts = rows[middle].split(",")
        col = TRIAD_FIELDS.index("kappa_half_sq")
        parts[col] = f"{float(parts[col]) * 100.0:.17g}"
        rows[middle] = ",".join(parts)
        code, report_path = self._verify(tmp_path, config_path, rows)
        assert code == 5
        failed = {c["name"] for c in json.loads(report_path.read_text())["checks"] if not c["pass"]}
        assert failed == {"kappa_half_d"}


    def _verify(self, tmp_path, config_path, rows):
        csv_path = tmp_path / "edited.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        report_path = tmp_path / "report.json"
        code = main([
            "verify", "--traj", str(csv_path), "--config", str(config_path),
            "--out", str(report_path),
        ])
        return code, report_path

    @staticmethod
    def _edit_middle(csv_path, column, value):
        rows = csv_path.read_text().strip().splitlines()
        middle = len(rows) // 2
        parts = rows[middle].split(",")
        parts[TRIAD_FIELDS.index(column)] = value
        rows[middle] = ",".join(parts)
        return rows, middle

    @pytest.mark.parametrize(
        "column, value",
        [("kappa_half_sq", "-1"), ("sup_h", "-1"), ("E", "-1e-3"), ("D", "-1e-3"), ("Hhalf", "-1e-3")],
    )
    def test_negative_value_exit_2(self, tmp_path, triad_csv, capsys, column, value):
        # every column but t is a norm, an energy or a supremum
        config_path, csv_path = triad_csv
        rows, middle = self._edit_middle(csv_path, column, value)
        code, report_path = self._verify(tmp_path, config_path, rows)
        assert code == 2
        assert f"line {middle + 1}: column {column} is negative" in capsys.readouterr().err
        assert not report_path.exists()

    @pytest.mark.parametrize("column", ["E", "D"])
    def test_overflowing_value_exit_5(self, tmp_path, triad_csv, column):
        # powers of 1e308 overflow to inf, and an inf fails its check
        config_path, csv_path = triad_csv
        rows, _ = self._edit_middle(csv_path, column, "1e308")
        code, report_path = self._verify(tmp_path, config_path, rows)
        assert code == 5
        assert json.loads(report_path.read_text())["overall_pass"] is False

    def test_non_finite_sup_is_null(self, tmp_path, triad_csv):
        # curv_L2 = 1e308 over E^{1/3} D^{2/3} < 1 overflows curvature_l2 to inf
        config_path, csv_path = triad_csv
        rows, _ = self._edit_middle(csv_path, "curv_L2", "1e308")
        code, report_path = self._verify(tmp_path, config_path, rows)
        assert code == 5

        def strict(token):
            raise ValueError(f"{token} is not JSON")

        payload = json.loads(report_path.read_text(), parse_constant=strict)
        (check,) = [c for c in payload["checks"] if c["name"] == "curvature_l2"]
        assert check["empirical_sup"] is None and check["pass"] is False
        assert payload["overall_pass"] is False

    def test_single_cell_edits_exit_0_2_or_5(self, tmp_path, capsys):
        path, _ = small_config(tmp_path, evolution={"grid": {"length": 6.283185307179586, "num_points": 64}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        rows = (out / "triad.csv").read_text().strip().splitlines()
        special = ["nan", "inf", "-inf", "0", "-0", "1e308", "-1e308", "5e-324", "-1e-3", "x", ""]
        rng = np.random.default_rng(16)
        codes = Counter()
        for _ in range(500):
            i, j = rng.integers(1, len(rows)), rng.integers(len(TRIAD_FIELDS))
            parts = rows[i].split(",")
            kind = rng.integers(3)
            if kind == 0:
                parts[j] = special[rng.integers(len(special))]
            elif kind == 1:
                parts[j] = f"{float(parts[j]) * (1.0 + rng.normal(0.0, 1e-3)):.17g}"
            else:
                parts[j] = f"{rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-320.0, 308.0):.17g}"
            edited = rows[:i] + [",".join(parts)] + rows[i + 1:]
            codes[self._verify(tmp_path, path, edited)[0]] += 1
        capsys.readouterr()
        assert set(codes) == {0, 2, 5}, codes

    @pytest.mark.parametrize("engine", ["linear", "nonlinear"])
    @pytest.mark.parametrize(
        "initial_data",
        [
            {"preset": "gaussian_bump", "amplitude": 0.15, "width": 1.0},
            {"preset": "wavelet", "amplitude": 0.3, "width": 1.0},
            {"preset": "mode", "amplitude": 0.05, "wavenumber": 2},
        ],
        ids=lambda d: d["preset"],
    )
    def test_simulate_output_verifies(self, tmp_path, engine, initial_data):
        path, _ = small_config(
            tmp_path,
            initial_data=initial_data,
            evolution={
                "engine": engine,
                "grid": {"length": 16.0, "num_points": 64},
                "strip": {"num_layers": 32},
                "dt": 6e-4,
                "t_end": 6e-3,
            },
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        code, _ = self._verify(tmp_path, path, (out / "triad.csv").read_text().strip().splitlines())
        assert code in (0, 5)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_exit_2(self, tmp_path, triad_csv, capsys, value):
        config_path, csv_path = triad_csv
        rows, middle = self._edit_middle(csv_path, "D", value)
        code, report_path = self._verify(tmp_path, config_path, rows)
        assert code == 2
        assert f"line {middle + 1}" in capsys.readouterr().err
        assert not report_path.exists()

    def test_uneven_cadence_exit_2(self, tmp_path, triad_csv, capsys):
        config_path, csv_path = triad_csv
        rows = csv_path.read_text().strip().splitlines()
        parts = rows[2].split(",")
        parts[0] = f"{float(parts[0]) * 1.5:.17g}"
        rows[2] = ",".join(parts)
        code, _ = self._verify(tmp_path, config_path, rows)
        assert code == 2
        # the checks take uneven times; the schedule guard refuses the file
        err = capsys.readouterr().err
        assert "config error at <traj>: no row at t = 0.004 (step 2) of the configured run\n" in err

    def test_shared_time_exit_2(self, tmp_path, triad_csv, capsys):
        # rows that all carry one t leave no time step to difference over
        config_path, csv_path = triad_csv
        rows = csv_path.read_text().strip().splitlines()
        for i in range(1, len(rows)):
            rows[i] = ",".join(["0.5"] + rows[i].split(",")[1:])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report_path = self._verify(tmp_path, config_path, rows)
        assert code == 2
        assert "equal or decreasing t" in capsys.readouterr().err
        assert not report_path.exists()

    def test_regime_not_entered_is_skip(self, tmp_path, triad_csv, capsys):
        config_path, csv_path = triad_csv
        rows = csv_path.read_text().strip().splitlines()
        col = TRIAD_FIELDS.index("E2D")
        for i in range(1, len(rows)):
            parts = rows[i].split(",")
            parts[col] = "1"  # above the smallness threshold everywhere
            rows[i] = ",".join(parts)
        code, report_path = self._verify(tmp_path, config_path, rows)
        payload = json.loads(report_path.read_text())
        lyapunov = [c for c in payload["checks"] if c["name"] == "lyapunov_e2d"]
        assert lyapunov == [dict(lyapunov[0], **{"pass": None, "num_samples": 0})]
        ran = [c["pass"] for c in payload["checks"] if c["pass"] is not None]
        assert len(ran) == len(payload["checks"]) - 1
        assert payload["overall_pass"] is all(ran)
        assert code == (0 if all(ran) else 5)
        assert "SKIP lyapunov_e2d" in capsys.readouterr().out

    def test_triad_of_a_cut_run_exit_2(self, tmp_path, capsys):
        # the slope blow-up of test_slope_blowup_exit_code at output_every 1
        # keeps 7 snapshots, evenly spaced: every check could run on them
        path, _ = small_config(
            tmp_path,
            initial_data={"preset": "gaussian_bump", "amplitude": 1.1, "width": 1.0},
            evolution={
                "engine": "nonlinear",
                "grid": {"length": 16.0, "num_points": 128},
                "strip": {"num_layers": 48},
                "dt": 2e-4, "t_end": 0.03, "output_every": 1,
                "slope_gate": 0.942,
            },
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 3
        rows = (out / "triad.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 7
        capsys.readouterr()
        code, report_path = self._verify(tmp_path, path, rows)
        assert code == 2
        assert "no row at t = 0.0014 (step 7) of the configured run" in capsys.readouterr().err
        assert not report_path.exists()

    def test_triad_past_the_schedule_exit_2(self, tmp_path, triad_csv, capsys):
        # the file of a longer run: every configured time is there, and more
        config_path, csv_path = triad_csv
        rows = csv_path.read_text().strip().splitlines()
        short, _ = small_config(tmp_path, evolution={"t_end": 0.02})
        code, report_path = self._verify(tmp_path, short, rows)
        assert code == 2
        assert "row at t = 0.024 lies past the configured run" in capsys.readouterr().err
        assert not report_path.exists()

    def test_off_cadence_end_verifies(self, tmp_path):
        # t_end/dt = 21 steps with output_every = 5: the last interval is 1 step
        path, _ = small_config(
            tmp_path, evolution={"dt": 2e-3, "t_end": 0.042, "output_every": 5}
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        report_path = tmp_path / "report.json"
        code = main([
            "verify", "--traj", str(out / "triad.csv"), "--config", str(path),
            "--out", str(report_path),
        ])
        assert code == 0
        checks = json.loads(report_path.read_text())["checks"]
        counts = {c["name"]: c["num_samples"] for c in checks}
        assert counts["energy_dissipation"] == 4  # interior of t = 0 .. 0.042
        assert counts["curvature_l2"] == 6  # every row, t = 0.042 included

    def test_exact_flow_at_coarse_cadence_verifies(self, tmp_path):
        # the linear engine is exact in time; snapshots 5 steps apart must
        # not fail energy_dissipation on the truncation of the check itself.
        # Its D is the rate at which its own flow lowers E, so the reading
        # is Simpson's truncation alone: 2.4e-3 at t = 0.01 for snapshots
        # 0.01 apart, and 2.7e-4 for these, 5e-3 apart
        path, _ = small_config(
            tmp_path,
            initial_data={"preset": "gaussian_bump", "amplitude": 0.05, "width": 1.05},
            evolution={
                "grid": {"length": 16.0, "num_points": 256},
                "strip": {"num_layers": 32},
                "dt": 1e-3, "t_end": 0.042, "output_every": 5,
            },
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        report_path = tmp_path / "report.json"
        code = main([
            "verify", "--traj", str(out / "triad.csv"), "--config", str(path),
            "--out", str(report_path),
        ])
        checks = {c["name"]: c for c in json.loads(report_path.read_text())["checks"]}
        assert checks["energy_dissipation"]["empirical_sup"] <= 2e-3
        assert code == 0


class TestOutputFiles:
    def test_mode_follows_umask(self, tmp_path):
        path, _ = small_config(tmp_path)
        out = tmp_path / "out"
        old = os.umask(0o022)
        try:
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
            assert main([
                "verify", "--traj", str(out / "triad.csv"), "--config", str(path),
                "--out", str(out / "report.json"),
            ]) == 0
        finally:
            os.umask(old)
        for name in ("trajectory.csv", "triad.csv", "report.json"):
            assert os.stat(out / name).st_mode & 0o777 == 0o644

    def test_csv_bytes_match_per_value_formatting(self, tmp_path):
        # the rows are formatted from Python floats; every value must print
        # as it does alone, with 17 significant digits, as numpy holds it
        path, _ = small_config(
            tmp_path,
            initial_data={"preset": "wavelet", "amplitude": 0.1, "width": 1.0},
            evolution={"engine": "nonlinear", "grid": {"length": 16.0, "num_points": 64},
                       "dt": 1e-3, "t_end": 4e-3, "output_every": 1},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        config = load_config(path)
        traj = run(build_initial_profile(config.evolution.grid, config.initial_data), config.evolution)
        lines = [",".join(["t"] + [f"h_{j}" for j in range(64)])]
        for t, state in zip(traj.times, traj.states):
            lines.append(",".join([f"{t:.17g}"] + [f"{v:.17g}" for v in state.h.samples]))
        assert (out / "trajectory.csv").read_bytes() == ("\n".join(lines) + "\n").encode()
        lines = [",".join(TRIAD_FIELDS)]
        for s in triad_series(traj):
            lines.append(",".join(f"{getattr(s, name):.17g}" for name in TRIAD_FIELDS))
        assert (out / "triad.csv").read_bytes() == ("\n".join(lines) + "\n").encode()

        values = np.array([-0.0, 0.1, 1.0 / 3.0, 5e-324, -1e300, np.inf, np.nan])
        assert cli._csv_row(values.tolist()) == ",".join(f"{v:.17g}" for v in values)


@pytest.mark.parametrize("command", ["simulate", "verify", "rates", "kernel"])
def test_unwritable_out_exit_2(tmp_path, capsys, monkeypatch, command):
    # simulate's --out names an existing file, the others a file in a missing directory
    path, _ = small_config(tmp_path)
    triad = tmp_path / "run" / "triad.csv"
    assert main(["simulate", "--config", str(path), "--out", str(triad.parent)]) == 0
    blocker = tmp_path / "file"
    blocker.write_text("")
    bad = str(blocker) if command == "simulate" else str(tmp_path / "missing" / "x")
    args = {
        "simulate": ["--config", str(path)],
        "verify": ["--traj", str(triad), "--config", str(path)],
        "rates": ["--config", str(path)],
        "kernel": ["--n", "64", "--length", "20"],
    }[command]
    if command == "simulate":
        # a bad --out fails before any step
        monkeypatch.setattr(cli, "run", lambda *a: pytest.fail("simulate stepped before making --out"))
    capsys.readouterr()
    assert main([command, *args, "--out", bad]) == 2
    assert f"config error at <out>: cannot write {bad}" in capsys.readouterr().err
    assert blocker.read_text() == "" and not (tmp_path / "missing").exists()


NOT_UTF8 = b"\xff\xfe{}"
TOO_DEEP = b"[" * 200000 + b"]" * 200000


@pytest.mark.parametrize(
    "command, bad, content, message",
    [
        *[(command, "config", NOT_UTF8, "<file>: config is not UTF-8")
          for command in ("simulate", "verify", "rates")],
        *[(command, "config", TOO_DEEP, "<file>: invalid JSON: nested too deeply")
          for command in ("simulate", "verify", "rates")],
        ("verify", "traj", NOT_UTF8, "<traj>: triad CSV is not UTF-8"),
    ],
    ids=[f"{c}-{i}" for i in ("not-utf8", "too-deep") for c in ("simulate", "verify", "rates")]
    + ["verify-traj-not-utf8"],
)
def test_unreadable_input_exit_2(tmp_path, capsys, command, bad, content, message):
    path, _ = small_config(tmp_path)
    triad = tmp_path / "run" / "triad.csv"
    assert main(["simulate", "--config", str(path), "--out", str(triad.parent)]) == 0
    if bad == "config":
        path.write_bytes(content)
    else:
        triad.write_bytes(content)
    out = tmp_path / "out"
    args = {
        "simulate": ["--config", str(path)],
        "verify": ["--traj", str(triad), "--config", str(path)],
        "rates": ["--config", str(path)],
    }[command]
    capsys.readouterr()
    assert main([command, *args, "--out", str(out)]) == 2
    assert f"config error at {message}" in capsys.readouterr().err
    assert not out.exists()


class TestKernelCommand:
    def test_csv_symmetry_and_mass(self, tmp_path):
        out = tmp_path / "kernel.csv"
        assert main(["kernel", "--n", "512", "--length", "150", "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "x,G"
        data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
        x, g = data[:, 0], data[:, 1]
        # G(-x) = G(x): the emitted grid is symmetric apart from the left edge
        interior = slice(1, None)
        assert np.abs(g[interior] - g[interior][::-1]).max() <= 1e-12 * g.max()
        mass = np.trapezoid(g, x) + (x[1] - x[0]) * 0.5 * (g[0] + g[-1])
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_value_at_origin_against_quadrature(self, tmp_path):
        out = tmp_path / "kernel.csv"
        assert main(["kernel", "--n", "1024", "--length", "200", "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        data = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
        oracle, _ = quad(lambda k: np.exp(-(k**3)) / np.pi, 0.0, 12.0)
        assert data[0.0] == pytest.approx(oracle, abs=1e-4)
        assert oracle == pytest.approx(math.gamma(4.0 / 3.0) / np.pi, abs=1e-12)

    def test_bad_arguments_exit_2(self, tmp_path):
        out = tmp_path / "k.csv"
        for n, length in [("100", "10"), ("64", "-1"), ("16", "nan"), ("16", "inf"),
                          ("4611686018427387904", "1"), ("8192", "1")]:
            assert main(["kernel", "--n", n, "--length", length, "--out", str(out)]) == 2
            assert not out.exists()

    def test_grid_above_the_cap_names_the_kernel_grid(self, tmp_path, capsys):
        # the kernel command makes no exterior solve, so its refusal speaks
        # of its own grid
        out = tmp_path / "k.csv"
        assert main(["kernel", "--n", "8192", "--length", "20", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (
            "config error at kernel --n: 8192 points exceed the limit of 4096, "
            "the largest grid a run may use, on which the mask is tabulated\n"
        )
        assert not out.exists()

    def test_module_entry_point(self, tmp_path):
        # python -m mslab runs __main__.py, which passes main's code to the shell
        src = os.path.dirname(os.path.dirname(mslab.__file__))
        paths = [src, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        out = tmp_path / "kernel.csv"

        def kernel(length):
            argv = ["kernel", "--n", "16", "--length", length, "--out", str(out)]
            command = [sys.executable, "-m", "mslab", *argv]
            return subprocess.run(command, env=env, capture_output=True, text=True).returncode

        assert kernel("nan") == 2
        assert not out.exists()
        assert kernel("10") == 0
        assert out.read_text().splitlines()[0] == "x,G"


class TestRates:
    def test_single_mode_reports_exponential_sentinel(self, tmp_path):
        # a long window in log t exposes the curvature of exp decay
        path, _ = small_config(
            tmp_path,
            evolution={"t_end": 2.0, "dt": 5e-3, "output_every": 20},
        )
        report_path = tmp_path / "rates.json"
        code = main(["rates", "--config", str(path), "--out", str(report_path)])
        payload = json.loads(report_path.read_text())
        assert payload["slopes"]["E"] == "exponential"
        assert payload["slopes"]["D"] == "exponential"
        assert code in (0, 5)
        late = {c["name"]: c for c in payload["checks"]}["rate_t2d"]
        assert late["t_sup"] >= payload["late_time_start"] and late["num_excluded"] == 0

    def test_flat_initial_data_exit_2(self, tmp_path, monkeypatch, capsys):
        # the rates are relative to H0, which is zero for a flat interface
        path, _ = small_config(
            tmp_path,
            initial_data={"preset": "gaussian_bump", "amplitude": 0.0, "width": 1.0},
            evolution={"grid": {"length": 16.0, "num_points": 64}},
        )
        report_path = tmp_path / "rates.json"

        def no_run(*args):
            raise AssertionError("flat initial data must be rejected before the run")

        monkeypatch.setattr(cli, "run", no_run)
        assert main(["rates", "--config", str(path), "--out", str(report_path)]) == 2
        assert "config error at initial_data: H0 = 0" in capsys.readouterr().err
        assert not report_path.exists()

    def test_solver_failure_exit_4(self, tmp_path, monkeypatch, capsys):
        # only the nonlinear engine solves: the single mode's exterior solve
        # takes 2 iterations, so the first step fails and ends the run
        monkeypatch.setattr(field, "GMRES_MAX_ITERATIONS", 1)
        path, _ = small_config(tmp_path, evolution={"engine": "nonlinear"})
        report_path = tmp_path / "rates.json"
        assert main(["rates", "--config", str(path), "--out", str(report_path)]) == 4
        assert "solver failure" in capsys.readouterr().err
        assert not report_path.exists()

    def test_slope_blowup_exit_3_before_the_triad(self, tmp_path, monkeypatch, capsys):
        # a run that did not complete has no rates, so its triad is never built
        path, _ = small_config(
            tmp_path,
            initial_data={"preset": "gaussian_bump", "amplitude": 1.1, "width": 1.0},
            evolution={
                "engine": "nonlinear",
                "grid": {"length": 16.0, "num_points": 128},
                "dt": 2e-4, "t_end": 0.03, "output_every": 5,
                "slope_gate": 0.942,
            },
        )
        report_path = tmp_path / "rates.json"

        def no_triad(*args):
            raise AssertionError("the triad of a run that did not complete is thrown away")

        monkeypatch.setattr(cli, "triad_series", no_triad)
        assert main(["rates", "--config", str(path), "--out", str(report_path)]) == 3
        assert re.search(r"slope blow-up: slope \S+ exceeds gate 0\.942 after step", capsys.readouterr().err)
        assert not report_path.exists()

    def test_atomic_outputs_leave_no_temp_files(self, tmp_path):
        path, _ = small_config(tmp_path)
        out = tmp_path / "out"
        main(["simulate", "--config", str(path), "--out", str(out)])
        leftovers = [f for f in os.listdir(out) if f.startswith(".tmp-")]
        assert leftovers == []


def generated_config(rng, preset, engine):
    """A random run: N in {16, 32, 64}, 0 to 12 steps of a log-uniform dt,
    output_every 1 to 8 and a slope gate in [0.1, 1]."""
    steps = int(rng.integers(0, 13))
    dt = float(10.0 ** rng.uniform(-5.0, -1.0))
    initial = {"preset": preset, "amplitude": float(10.0 ** rng.uniform(-3.0, -0.5))}
    if preset == "mode":
        initial["wavenumber"] = int(rng.integers(1, 4))
    else:
        initial["width"] = float(rng.uniform(0.5, 2.0))
    return {
        "initial_data": initial,
        "evolution": {
            "engine": engine, "dt": dt, "t_end": steps * dt,
            "grid": {"length": float(rng.uniform(4.0, 16.0)), "num_points": int(rng.choice([16, 32, 64]))},
            "strip": {"num_layers": int(rng.choice([16, 32]))},
            "output_every": int(rng.integers(1, 9)),
            "slope_gate": float(rng.uniform(0.1, 1.0)),
        },
    }


def test_generated_configs_exit_with_documented_codes(tmp_path, capsys):
    """Every preset and engine through simulate, verify and rates: only
    documented exit codes, nothing raised, and what simulate writes with
    exit 0 verifies with 0 or 5."""
    rng = np.random.default_rng(23)
    outcomes = Counter()
    for i in range(40):
        raw = generated_config(rng, PRESETS[i % len(PRESETS)], ("linear", "nonlinear")[i % 2])
        path = tmp_path / f"config{i}.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / f"out{i}"
        codes = (
            main(["simulate", "--config", str(path), "--out", str(out)]),
            main(["verify", "--traj", str(out / "triad.csv"), "--config", str(path),
                  "--out", str(out / "report.json")]),
            main(["rates", "--config", str(path), "--out", str(tmp_path / f"rates{i}.json")]),
        )
        assert codes[0] in (0, 2, 3, 4) and codes[1] in (0, 2, 5) and codes[2] in (0, 2, 3, 4, 5), (codes, raw)
        assert codes[0] != 0 or codes[1] in (0, 5), (codes, raw)
        outcomes[codes] += 1
    capsys.readouterr()
    # the draw reaches verify on a simulated file often enough to matter
    assert sum(n for codes, n in outcomes.items() if codes[0] == 0) >= 5, outcomes
