import inspect
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import mslab
from mslab import cli, field
from mslab.cli import main
from mslab.config import load_config, parse_config
from mslab.diagnostics import CSV_CHECKS, TRIAD_FIELDS, check_algebraic, triad_series
from mslab.errors import ConfigError
from mslab.evolution import EvolutionConfig, exact_linear_observables, run
from mslab.field import StripConfig, default_strip_config
from mslab.spectral import Grid
from mslab.config import build_initial_profile


def small_config(tmp_path, **overrides):
    raw = {
        "initial_data": {"preset": "mode", "amplitude": 0.05, "wavenumber": 2},
        "evolution": {
            "engine": "linear",
            "dt": 2e-3,
            "t_end": 0.02,
            "mobility": 2.0,
            "grid": {"length": 6.283185307179586, "num_points": 128},
            "strip": {"num_layers": 64, "grading": 40.0, "depth": 9.2},
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
    def test_unknown_key_rejected(self, tmp_path):
        path, raw = small_config(tmp_path)
        raw["surprise"] = 1
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "surprise" in str(err.value)

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

    def test_default_checks_are_the_registry(self, tmp_path):
        path, _ = small_config(tmp_path)
        defaults = tuple((name, thr) for name, (_, thr) in CSV_CHECKS.items())
        assert load_config(path).checks == defaults

    def test_cli_holds_no_check_dispatch(self):
        # the families of CSV_CHECKS are resolved in mslab.diagnostics only
        assert not [name for name in vars(cli) if name.startswith("check_")]
        source = inspect.getsource(cli)
        assert not [family for family, _ in CSV_CHECKS.values() if f'"{family}"' in source]

    def test_duplicate_check_name_rejected(self, tmp_path):
        # a repeated name would otherwise keep only its last threshold
        path, raw = small_config(tmp_path)
        raw["checks"] = [{"name": "hhalf_h", "threshold": 0.5}, {"name": "hhalf_h", "threshold": 100}]
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "checks[1].name" in str(err.value)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_readme_config_parses(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as handle:
            (block,) = re.findall(r"```json\n(.*?)```", handle.read(), re.S)
        config = parse_config(json.loads(block))
        assert config.evolution.engine == "nonlinear"
        assert config.checks == (("energy_dissipation", 0.02),)

    def test_omitted_threshold_takes_registry_default(self, tmp_path):
        path, raw = small_config(tmp_path)
        raw["checks"] = [{"name": "lyapunov_e2d"}, {"name": "hhalf_h", "threshold": 3}]
        path.write_text(json.dumps(raw))
        checks = load_config(path).checks
        assert checks == (("lyapunov_e2d", CSV_CHECKS["lyapunov_e2d"][1]), ("hhalf_h", 3.0))

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("evolution", "dt", math.nan),
            ("evolution", "t_end", math.inf),
            ("evolution", "mobility", math.nan),
            ("checks", "threshold", math.nan),
            ("evolution", "dt", 10**400),
        ],
        ids=["dt-nan", "t_end-inf", "mobility-nan", "threshold-nan", "dt-huge-int"],
    )
    def test_non_finite_number_exit_2(self, tmp_path, capsys, section, key, value):
        # json.load accepts NaN and Infinity; the config must not
        path, raw = small_config(tmp_path)
        if section == "checks":
            raw["checks"] = [{"name": "hhalf_h", key: value}]
            where = "checks[0].threshold"
        else:
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

    def test_grading_beyond_the_layers_exit_2(self, tmp_path, capsys):
        # log(1e15) = 34.5 >= 2*16: the eta-stencil would lose its signs
        path, _ = small_config(tmp_path, evolution={"strip": {"num_layers": 16, "grading": 1e15}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert "evolution.strip" in capsys.readouterr().err
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
        assert parsed.strip.grading == StripConfig.grading
        # one strip key given: the other keeps the default of default_strip_config
        evolution["strip"] = {"num_layers": 24, "grading": 8.0}
        parsed = parse_config({"initial_data": initial, "evolution": evolution}).evolution
        assert parsed.strip == StripConfig(strip.depth, 24, 8.0)
        del evolution["strip"]
        parsed = parse_config({"initial_data": initial, "evolution": evolution}).evolution
        assert parsed.strip == default_strip_config(grid)

    def test_empty_check_list_exit_2(self, tmp_path, capsys):
        # an empty list would verify nothing and report a pass
        path, _ = small_config(tmp_path, checks=[])
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.path == "checks"
        assert main([
            "verify", "--traj", str(tmp_path / "triad.csv"), "--config", str(path),
            "--out", str(tmp_path / "report.json"),
        ]) == 2
        assert "config error at checks" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

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
                       "strip": {"num_layers": 16, "grading": 16.0, "depth": 23.5},
                       "dt": 1e-3, "t_end": 4e-3, "output_every": 1},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        rows = (out / "triad.csv").read_text().strip().splitlines()
        assert rows[0] == ",".join(TRIAD_FIELDS)
        for row in rows[1:]:
            values = [float(v) for v in row.split(",")]
            assert all(v == 0.0 for v in values[1:])

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

    def test_slope_blowup_exit_code(self, tmp_path):
        path, _ = small_config(
            tmp_path,
            initial_data={"preset": "gaussian_bump", "amplitude": 1.1, "width": 1.0},
            evolution={
                "engine": "nonlinear",
                "grid": {"length": 16.0, "num_points": 128},
                "strip": {"num_layers": 48, "grading": 50.0, "depth": 23.5},
                "dt": 2e-4, "t_end": 0.03, "output_every": 5,
                "slope_gate": 0.942,
            },
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 3


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
        names = {c["name"] for c in payload["checks"]}
        expected = {name for name, _ in load_config(config_path).checks}
        assert names == expected

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
        path, raw = small_config(tmp_path, checks=[{"name": "kappa_half_d"}])
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        report_path = tmp_path / "report.json"
        assert main([
            "verify", "--traj", str(out / "triad.csv"), "--config", str(path),
            "--out", str(report_path),
        ]) == 0
        (check,) = json.loads(report_path.read_text())["checks"]
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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_exit_2(self, tmp_path, triad_csv, capsys, value):
        config_path, csv_path = triad_csv
        rows = csv_path.read_text().strip().splitlines()
        middle = len(rows) // 2
        parts = rows[middle].split(",")
        parts[TRIAD_FIELDS.index("D")] = value
        rows[middle] = ",".join(parts)
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
        assert "cadence" in capsys.readouterr().err

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
        assert code in (0, 5)
        checks = json.loads(report_path.read_text())["checks"]
        counts = {c["name"]: c["num_samples"] for c in checks}
        assert counts["energy_dissipation"] == 3  # interior of t = 0 .. 0.04
        assert counts["curvature_l2"] == 6  # every row, t = 0.042 included

    def test_exact_flow_at_coarse_cadence_verifies(self, tmp_path):
        # the linear engine is exact in time; snapshots 5 steps apart must
        # not fail energy_dissipation on the truncation of the check itself
        path, _ = small_config(
            tmp_path,
            initial_data={"preset": "gaussian_bump", "amplitude": 0.15, "width": 1.05},
            evolution={
                "grid": {"length": 16.0, "num_points": 256},
                "strip": {"num_layers": 32},
                "dt": 2e-3, "t_end": 0.042, "output_every": 5,
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
        for n, length in [("100", "10"), ("64", "-1"), ("16", "nan"), ("16", "inf")]:
            assert main(["kernel", "--n", n, "--length", length, "--out", str(out)]) == 2
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

    def test_solver_failure_exit_4(self, tmp_path, monkeypatch, capsys):
        # the linear engine solves only for the triad, so the failure reaches main
        monkeypatch.setattr(field, "GMRES_MAX_ITERATIONS", 2)
        path, _ = small_config(tmp_path)
        report_path = tmp_path / "rates.json"
        assert main(["rates", "--config", str(path), "--out", str(report_path)]) == 4
        assert "solver failure" in capsys.readouterr().err
        assert not report_path.exists()

    def test_atomic_outputs_leave_no_temp_files(self, tmp_path):
        path, _ = small_config(tmp_path)
        out = tmp_path / "out"
        main(["simulate", "--config", str(path), "--out", str(out)])
        leftovers = [f for f in os.listdir(out) if f.startswith(".tmp-")]
        assert leftovers == []
