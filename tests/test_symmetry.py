"""The flow's exact symmetries: scale, translation and reflection.

Mullins-Sekerka has no length scale: if h solves it, so does
lambda h(x/lambda, t/lambda^3) on the cell lambda L.  The boundary-integral
kernel depends on z/L and x/L alone and every solver tolerance is relative,
so the discrete flow inherits the symmetry.  At lambda = 2 every rescaling is a power of
two and exact in floating point, so the runs agree bit for bit: a sum of
two quantities of different dimension would break that at once.  At
lambda = 3 every rescaling rounds, and the runs agree to 1e-12 relative.
"""

import numpy as np
import pytest

from mslab.diagnostics import TRIAD_FIELDS, triad_columns, triad_series
from mslab.evolution import EvolutionConfig, run
from mslab.field import default_strip_config
from mslab.spectral import Grid, SpectralProfile

#: power of lambda by which each triad column scales under h -> lambda h(x/lambda)
SCALING = dict(
    t=3, E=1, D=-2, H=4, Hhalf=4, sup_slope=0, sup_h=1, E2D=0, intVs2=-5,
    curv_L2=-1, kappa_half_sq=-2, kappa_neg1_sq=1, hx_l2=0.5, hxx_l2=-0.5, h_l3=4.0 / 3.0,
)
#: columns held to round-off: hx_l2, hxx_l2 and h_l3 scale by powers of
#: lambda that are not integers, and kappa_neg1_sq is the square of a
#: seminorm that scales by lambda^(1/2)
ROUND_OFF = {"kappa_neg1_sq", "hx_l2", "hxx_l2", "h_l3"}


def _run(engine, lam=1.0, transform=None, steps=10):
    """A bump with a mode-3 ripple on the cell 16 lambda, N = 64."""
    grid = Grid(lam * 16.0, 64)
    u = grid.nodes - 0.5 * grid.length
    ripple = 0.01 * np.cos(3 * 2 * np.pi * grid.nodes / grid.length + 0.4)
    samples = lam * (0.15 * np.exp(-((u / (2.0 * lam)) ** 2)) + ripple)
    if transform is not None:
        samples = transform(samples)
    h0 = SpectralProfile.from_samples(grid, samples).without_mean()
    dt = lam**3 * 6e-4
    cfg = EvolutionConfig(
        engine, dt=dt, t_end=steps * dt, grid=grid,
        strip=default_strip_config(grid, num_layers=32), output_every=5,
    )
    traj = run(h0, cfg)
    assert traj.status == "completed" and len(traj) == 3
    return traj, triad_series(traj, cfg.strip)


@pytest.mark.parametrize("engine", ["linear", "nonlinear"])
def test_scaling_by_two_is_bit_exact(engine):
    base, base_triad = _run(engine)
    scaled, scaled_triad = _run(engine, lam=2.0)
    for a, b in zip(base.states, scaled.states, strict=True):
        assert np.array_equal(2.0 * a.h.samples, b.h.samples)
    # the residual of (I + M 2|D|) psi = kappa has the dimension of kappa;
    # the iterations, the tail and the solve grid are scale-free
    assert scaled.solves == [record._replace(residual=record.residual / 2.0) for record in base.solves]
    before, after = vars(triad_columns(base_triad)), vars(triad_columns(scaled_triad))
    for name, power in SCALING.items():
        expected = before[name] * 2.0**power
        if name in ROUND_OFF:
            np.testing.assert_allclose(after[name], expected, rtol=1e-15, atol=0, err_msg=name)
        else:
            assert np.array_equal(after[name], expected), name


@pytest.mark.parametrize("engine", ["linear", "nonlinear"])
def test_scaling_by_three_agrees_to_round_off(engine):
    # lambda = 3 rounds every rescaling; the worst column measured 5.5e-13
    # relative (intVs2, nonlinear engine; H reads 2.2e-13 on both engines)
    base, base_triad = _run(engine)
    scaled, scaled_triad = _run(engine, lam=3.0)
    for a, b in zip(base.states, scaled.states, strict=True):
        np.testing.assert_allclose(b.h.samples, 3.0 * a.h.samples, rtol=0, atol=1e-12 * 3.0 * a.h.max_abs())
    assert [r.iterations for r in scaled.solves] == [r.iterations for r in base.solves]
    before, after = vars(triad_columns(base_triad)), vars(triad_columns(scaled_triad))
    for name, power in SCALING.items():
        np.testing.assert_allclose(after[name], before[name] * 3.0**power, rtol=1e-12, atol=0, err_msg=name)


@pytest.mark.parametrize("engine", ["linear", "nonlinear"])
@pytest.mark.parametrize(
    "transform, inverse",
    [
        (lambda s: np.roll(s, 37), lambda s: np.roll(s, -37)),
        (lambda s: np.roll(s, 32), lambda s: np.roll(s, -32)),  # half the cell
        (lambda s: np.roll(s[::-1], 1), lambda s: np.roll(s[::-1], 1)),  # x -> -x
    ],
    ids=["shift_37", "shift_half", "reflection"],
)
def test_shift_and_reflection_agree(engine, transform, inverse):
    base, base_triad = _run(engine)
    moved, moved_triad = _run(engine, transform=transform)
    for a, b in zip(base.states, moved.states, strict=True):
        np.testing.assert_allclose(inverse(b.h.samples), a.h.samples, rtol=0, atol=1e-12 * a.h.max_abs())
    assert [r.iterations for r in moved.solves] == [r.iterations for r in base.solves]
    before, after = vars(triad_columns(base_triad)), vars(triad_columns(moved_triad))
    for name in TRIAD_FIELDS:
        np.testing.assert_allclose(after[name], before[name], rtol=1e-12, atol=0, err_msg=name)
