"""The names and the configuration the benchmark takes from mslab still exist."""

import importlib
import importlib.util
import os

from mslab.evolution import EvolutionConfig
from mslab.field import default_strip_config
from mslab.spectral import Grid, SpectralProfile

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmark", "tracing.py")


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, attr, _ in tracing.TRACED:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    assert callable(SpectralProfile.evaluate)


def test_worker_nonlinear_config_builds():
    grid = Grid(16.0, 512)
    strip = default_strip_config(grid, num_layers=48)
    cfg = EvolutionConfig(
        engine="nonlinear",
        dt=6e-4,
        t_end=35 * 6e-4,
        grid=grid,
        strip=strip,
        mobility=2.0,
        output_every=5,
        slope_gate=1.0,
    )
    assert cfg.strip.num_layers == 48
