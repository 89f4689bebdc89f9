"""Run configuration: JSON schema, presets, defaults.

A run is described by a single JSON document.  Unknown keys are rejected
and every violation is reported with the JSON path of the offending field
so a bad config fails fast and precisely.
"""

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import CSV_CHECKS
from .errors import ConfigError
from .evolution import EvolutionConfig
from .field import default_strip_config
from .geometry import build_state, sup_slope
from .spectral import Grid, SpectralProfile

#: (name, threshold) of every check computable from the triad CSV, at its default
DEFAULT_CHECKS = tuple((name, threshold) for name, (_, threshold) in CSV_CHECKS.items())

PRESETS = ("gaussian_bump", "mode", "wavelet")


@dataclass(frozen=True)
class RunConfig:
    initial_data: dict
    evolution: EvolutionConfig
    checks: tuple = DEFAULT_CHECKS
    seed: int = 0


def _want(obj, path, typ, name):
    if typ is float and isinstance(obj, int) and not isinstance(obj, bool):
        try:
            obj = float(obj)
        except OverflowError:  # beyond the float range: rejected as non-finite below
            obj = math.inf
    if not isinstance(obj, typ) or isinstance(obj, bool) and typ is not bool:
        raise ConfigError(path, f"expected {name}")
    if typ is float and not math.isfinite(obj):  # json.load accepts NaN and Infinity
        raise ConfigError(path, f"expected {name}, got {obj}")
    return obj


def _check_keys(mapping, path, allowed, required):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")
    for key in required:
        if key not in mapping:
            raise ConfigError(path or key, f"missing required key '{key}'")


def _parse_grid(raw, path):
    _check_keys(raw, path, {"length", "num_points"}, {"length", "num_points"})
    length = _want(raw["length"], f"{path}.length", float, "a positive number")
    n = _want(raw["num_points"], f"{path}.num_points", int, "an integer")
    try:
        return Grid(length, n)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_strip(raw, path, grid):
    if raw is None:
        return default_strip_config(grid)
    _check_keys(raw, path, {"depth", "num_layers", "grading"}, {"num_layers"})
    layers = _want(raw["num_layers"], f"{path}.num_layers", int, "an integer")
    given = {
        key: _want(raw[key], f"{path}.{key}", float, "a number")
        for key in ("grading", "depth")
        if key in raw
    }
    try:
        return replace(default_strip_config(grid, num_layers=layers), **given)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_evolution(raw, path):
    kinds = {
        "engine": (str, "a string"),
        "dt": (float, "a number"),
        "t_end": (float, "a number"),
        "mobility": (float, "a number"),
        "output_every": (int, "an integer"),
        "slope_gate": (float, "a number"),
    }
    _check_keys(raw, path, {"grid", "strip", *kinds}, {"engine", "dt", "t_end", "grid"})
    grid = _parse_grid(_want(raw["grid"], f"{path}.grid", dict, "an object"), f"{path}.grid")
    strip = _parse_strip(raw.get("strip"), f"{path}.strip", grid)
    given = {
        key: _want(raw[key], f"{path}.{key}", *kind) for key, kind in kinds.items() if key in raw
    }
    try:
        return EvolutionConfig(grid=grid, strip=strip, **given)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_checks(raw, path):
    if raw is None:
        return DEFAULT_CHECKS
    if not isinstance(raw, list):
        raise ConfigError(path, "expected a list of {name, threshold} objects")
    if not raw:
        raise ConfigError(path, "the check list is empty; omit it to run every check")
    out = {}
    for i, item in enumerate(raw):
        ipath = f"{path}[{i}]"
        item = _want(item, ipath, dict, "an object")
        _check_keys(item, ipath, {"name", "threshold"}, {"name"})
        name = _want(item["name"], f"{ipath}.name", str, "a string")
        if name not in CSV_CHECKS:
            raise ConfigError(f"{ipath}.name", f"unknown check '{name}'")
        if name in out:
            raise ConfigError(f"{ipath}.name", f"check '{name}' is listed twice")
        threshold = item.get("threshold", CSV_CHECKS[name][1])
        out[name] = _want(threshold, f"{ipath}.threshold", float, "a number")
    return tuple(out.items())


def _parse_initial(raw, path):
    _check_keys(
        raw,
        path,
        {"preset", "amplitude", "width", "wavenumber"},
        {"preset", "amplitude"},
    )
    preset = _want(raw["preset"], f"{path}.preset", str, "a string")
    if preset not in PRESETS:
        raise ConfigError(f"{path}.preset", f"unknown preset '{preset}'")
    amplitude = _want(raw["amplitude"], f"{path}.amplitude", float, "a number")
    out = {"preset": preset, "amplitude": amplitude}
    if preset == "mode":
        if "wavenumber" not in raw:
            raise ConfigError(path, "preset 'mode' needs a wavenumber")
        out["wavenumber"] = _want(raw["wavenumber"], f"{path}.wavenumber", int, "an integer")
        if out["wavenumber"] < 1:
            raise ConfigError(f"{path}.wavenumber", "must be >= 1")
    else:
        if "width" not in raw:
            raise ConfigError(path, f"preset '{preset}' needs a width")
        out["width"] = _want(raw["width"], f"{path}.width", float, "a positive number")
        if out["width"] <= 0:
            raise ConfigError(f"{path}.width", "must be positive")
    return out


def build_initial_profile(grid, initial_data):
    """Realize a preset as a mean-zero profile on the grid."""
    x = grid.nodes
    u = x - 0.5 * grid.length
    a = initial_data["amplitude"]
    preset = initial_data["preset"]
    if preset == "gaussian_bump":
        w = initial_data["width"]
        samples = a * np.exp(-((u / w) ** 2))
    elif preset == "wavelet":
        w = initial_data["width"]
        samples = a * (u / w) * np.exp(-((u / w) ** 2))
    elif preset == "mode":
        m = initial_data["wavenumber"]
        samples = a * np.cos(2.0 * np.pi * m * x / grid.length)
    else:  # pragma: no cover - presets validated at parse time
        raise ValueError(f"unknown preset {preset}")
    return SpectralProfile.from_samples(grid, samples).without_mean()


def parse_config(raw):
    """Validate a decoded JSON document and build a :class:`RunConfig`."""
    raw = _want(raw, "<root>", dict, "a JSON object")
    _check_keys(
        raw, "", {"initial_data", "evolution", "checks", "seed"}, {"initial_data", "evolution"}
    )
    initial = _parse_initial(
        _want(raw["initial_data"], "initial_data", dict, "an object"), "initial_data"
    )
    evolution = _parse_evolution(
        _want(raw["evolution"], "evolution", dict, "an object"), "evolution"
    )
    checks = _parse_checks(raw.get("checks"), "checks")
    seed = _want(raw.get("seed", 0), "seed", int, "an integer")

    profile = build_initial_profile(evolution.grid, initial)
    steep = sup_slope(build_state(profile))
    if steep > evolution.slope_gate:
        raise ConfigError(
            "initial_data",
            f"preset slope {steep:.4f} exceeds the slope gate {evolution.slope_gate}",
        )
    if not math.isfinite(profile.max_abs()):
        raise ConfigError("initial_data", "preset produced non-finite samples")
    return RunConfig(initial, evolution, checks, seed)


def load_config(path):
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON: {exc}") from exc
    return parse_config(raw)
