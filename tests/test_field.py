import numpy as np
import pytest

from mslab import field as field_module
from mslab.errors import SlopeGateViolation, SolverDivergence
from mslab.field import (
    RESOLUTION_TAIL_MAX,
    ExteriorResponse,
    HalfStripField,
    StripConfig,
    default_strip_config,
    dissipation,
    exterior_response,
    normal_velocity,
    prescribed_response,
    solve_exterior_fields,
    solve_strip,
)
from mslab.geometry import InterfaceState, build_state, to_arclength
from mslab.spectral import Grid, SpectralProfile, derivative, fractional_operator, is_resolved, seminorm
from conftest import bump_state, strip_levels, wavelet_state


L = 2.0 * np.pi


def make_state(grid, samples):
    return build_state(SpectralProfile.from_samples(grid, samples))


def own_grid_response(state):
    """The response of the solve on the state's own grid, where
    exterior_response may choose a coarser resolved grid."""
    velocity, record = field_module._solve(state)
    return prescribed_response(state, velocity.samples)._replace(solve=record)


def flat_mode_solution(grid, strip, k):
    """Closed form for h = 0 with boundary data cos(kx) and zero at depth Z."""
    z = strip_levels(strip)
    depth = strip.depth
    profile = np.exp(-k * z) * (1.0 - np.exp(-2.0 * k * (depth - z))) / (
        1.0 - np.exp(-2.0 * k * depth)
    )
    return profile[:, None] * np.cos(k * grid.nodes)[None, :]


def padded_stencil(grid, hx, strip, levels):
    """The 9-point operator on the interior rows of a whole (num_layers+1, N)
    level array, applied after wrap-padding it periodically in x; the
    right-hand side of the strip system is minus this on the boundary rows
    with zero interior."""
    m = strip.num_layers
    dx, deta = grid.spacing, 1.0 / m
    hxx = derivative(SpectralProfile.from_samples(grid, hx), 1).samples
    inv_jac, a, b = field_module._eta_coefficients(strip)
    one_hx2 = (1.0 + hx**2)[None, :]
    coef_a = one_hx2 * a
    coef_b = hxx[None, :] * inv_jac + one_hx2 * b
    cross = hx[None, :] * inv_jac / (2.0 * dx * deta)
    c_center = 2.0 / dx**2 + 2.0 * coef_a / deta**2
    c_n = -coef_a / deta**2 + coef_b / (2.0 * deta)
    c_s = -coef_a / deta**2 - coef_b / (2.0 * deta)
    full = np.pad(levels, ((0, 0), (1, 1)), mode="wrap")
    across = full[2:] - full[: m - 1]
    return (
        c_center * full[1:m, 1:-1]
        - (full[1:m, 2:] + full[1:m, :-2]) / dx**2
        + c_n * full[2:, 1:-1]
        + c_s * full[: m - 1, 1:-1]
        + cross * (across[:, 2:] - across[:, :-2])
    )


class TestStripConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StripConfig(depth=-1.0, num_layers=32)
        with pytest.raises(ValueError):
            StripConfig(depth=1.0, num_layers=8)
        StripConfig(depth=4.0, num_layers=16)

    def test_levels_are_geometric(self):
        strip = StripConfig(depth=4.0, num_layers=32)
        dz = np.diff(strip_levels(strip))
        ratios = dz[1:] / dz[:-1]
        assert np.ptp(ratios) <= 1e-12 * ratios.mean()
        assert strip_levels(strip)[0] == 0.0
        assert strip_levels(strip)[-1] == pytest.approx(4.0, rel=1e-14)

    def test_jacobian_is_the_levels_derivative(self):
        # second-order differences of two finer level sets, Richardson-extrapolated
        jac = StripConfig(depth=4.0, num_layers=32).jacobian()
        slopes = []
        for refine in (64, 128):
            fine = StripConfig(depth=4.0, num_layers=32 * refine)
            slope = np.gradient(strip_levels(fine), 1.0 / (32 * refine), edge_order=2)
            slopes.append(slope[::refine])
        extrapolated = (4.0 * slopes[1] - slopes[0]) / 3.0
        assert np.abs(extrapolated - jac).max() <= 1e-8 * jac.max()
        assert jac[-1] == pytest.approx(field_module.GRADING * jac[0], rel=1e-14)

    def test_default_depth_kills_slowest_mode(self):
        grid = Grid(16.0, 64)
        strip = default_strip_config(grid)
        k_min = 2.0 * np.pi / grid.length
        assert np.exp(-k_min * strip.depth) <= 1e-4 * (1.0 + 1e-12)


class TestSolveStrip:
    def test_flat_oracle_and_convergence(self):
        k = 2
        errs = []
        for n, m in [(32, 16), (64, 32), (128, 64)]:
            grid = Grid(L, n)
            strip = StripConfig(depth=4.0, num_layers=m)
            field = solve_strip(grid, np.zeros(n), np.cos(k * grid.nodes), strip)
            errs.append(np.abs(field.values - flat_mode_solution(grid, strip, k)).max())
        # spec asks for at least 3.5x reduction per halving; observed ~4x
        assert errs[0] / errs[1] >= 3.5
        assert errs[1] / errs[2] >= 3.5

    def test_manufactured_solution_second_order(self):
        # f(x, zt) = exp(-k(zt + h(x))) cos(kx) solves the straightened
        # problem on the upper side; impose its own values top and bottom
        k = 1
        errs = []
        for n, m in [(32, 16), (64, 32), (128, 64)]:
            grid = Grid(L, n)
            strip = StripConfig(depth=3.0, num_layers=m)
            h = 0.4 * np.sin(grid.nodes)
            z = strip_levels(strip)
            exact = np.exp(-k * (z[:, None] + h[None, :])) * np.cos(k * grid.nodes)[None, :]
            hx = 0.4 * np.cos(grid.nodes)
            field = solve_strip(grid, hx, exact[0], strip, top_data=exact[-1])
            errs.append(np.abs(field.values - exact).max())
        assert errs[0] / errs[1] >= 3.5
        assert errs[1] / errs[2] >= 3.5

    def test_zero_data_zero_field(self):
        grid = Grid(L, 64)
        state = make_state(grid, np.zeros(64))
        strip = StripConfig(depth=9.2, num_layers=24)
        plus, minus = solve_exterior_fields(state, strip)
        assert np.abs(plus.values).max() == 0.0
        assert np.abs(minus.values).max() == 0.0
        v = normal_velocity((plus, minus), state)
        assert v.max_abs() == 0.0
        assert dissipation((plus, minus), state) == 0.0

    def test_boundary_row_is_curvature(self):
        grid = Grid(L, 128)
        state = make_state(grid, 0.3 * np.sin(grid.nodes) + 0.05 * np.cos(3 * grid.nodes))
        strip = StripConfig(depth=9.2, num_layers=32)
        plus, minus = solve_exterior_fields(state, strip)
        assert np.array_equal(plus.values[0], state.curvature.samples)
        assert np.array_equal(minus.values[0], state.curvature.samples)

    def test_slope_gate(self):
        grid = Grid(L, 64)
        state = make_state(grid, 1.3 * np.sin(grid.nodes))
        strip = StripConfig(depth=9.2, num_layers=24)
        with pytest.raises(SlopeGateViolation):
            solve_exterior_fields(state, strip)

    def test_result_is_a_read_only_record(self):
        grid = Grid(L, 64)
        strip = StripConfig(depth=9.2, num_layers=24)
        field = solve_strip(grid, -0.5 * np.cos(grid.nodes), np.sin(grid.nodes), strip)
        assert isinstance(field, HalfStripField)
        assert field._fields == ("values", "strip", "iterations", "residual")
        assert field.strip == strip
        assert not field.values.flags.writeable
        with pytest.raises(AttributeError):
            field.values = np.zeros_like(field.values)

    def test_exterior_fields_match_split_mean(self):
        # the former route solved the mean-free remainder with zero top data
        # and added the mean back; a constant solves the stencil exactly
        grid = Grid(L, 128)
        state = make_state(grid, 0.9 * np.sin(grid.nodes) + 0.05 * np.cos(3 * grid.nodes))
        strip = StripConfig(depth=9.2, num_layers=32)
        hx = state.slope.samples
        kappa = state.curvature.samples
        mean = kappa.mean()
        pair = solve_exterior_fields(state, strip)
        for field, slope in zip(pair, (hx, -hx)):
            split = solve_strip(grid, slope, kappa - mean, strip).values + mean
            assert np.abs(field.values - split).max() <= 1e-12 * np.abs(split).max()
            assert np.all(field.values[-1] == mean)

    def test_large_mean_as_top_data(self):
        # boundary data with mean 0.7: the constant now enters the GMRES
        # right-hand side, so the two routes agree to the solver tolerance
        # (measured 2.2e-12 relative) rather than to round-off
        grid = Grid(L, 128)
        state = make_state(grid, 0.9 * np.sin(grid.nodes) + 0.05 * np.cos(3 * grid.nodes))
        strip = StripConfig(depth=9.2, num_layers=32)
        hx = state.slope.samples
        data = state.curvature.samples + 0.7
        mean = data.mean()
        for slope in (hx, -hx):
            field = solve_strip(grid, slope, data, strip, top_data=np.full(128, mean))
            split = solve_strip(grid, slope, data - mean, strip).values + mean
            assert np.abs(field.values - split).max() <= 1e-11 * np.abs(split).max()
            assert np.array_equal(field.values[0], data)


@pytest.fixture(scope="module")
def mode3_setup():
    grid = Grid(L, 256)
    eps, k = 1e-3, 3
    state = make_state(grid, eps * np.cos(k * grid.nodes))
    strip = StripConfig(depth=9.2, num_layers=96)
    fields = solve_exterior_fields(state, strip)
    return grid, state, strip, fields, eps, k


class TestStripSystem:
    """The stencil operator and right-hand side against the padded stencil."""

    @pytest.fixture(scope="class")
    def steep(self):
        state = wavelet_state(256, slope=0.9)
        strip = default_strip_config(state.grid, num_layers=48)
        rng = np.random.default_rng(7)
        top = rng.standard_normal(state.grid.num_points)  # not constant, so the corners see it
        return state, strip, top

    def test_two_row_rhs_matches_the_padded_stencil(self, steep):
        state, strip, top = steep
        kappa = state.curvature.samples
        for hx in (state.slope.samples, -state.slope.samples):
            assert np.abs(hx).max() == pytest.approx(0.9, rel=1e-12)
            _, rhs, values = field_module._strip_system(state.grid, hx, kappa, strip, top)
            oracle = -padded_stencil(state.grid, hx, strip, values)
            assert np.abs(rhs - oracle).max() <= 1e-14 * np.abs(oracle).max()
            assert not rhs[1:-1].any()

    def test_buffered_operator_matches_the_padded_stencil(self, steep):
        state, strip, top = steep
        hx = state.slope.samples
        operator, _, _ = field_module._strip_system(state.grid, hx, state.curvature.samples, strip, top)
        rng = np.random.default_rng(8)
        for _ in range(2):  # the buffers carry nothing from one apply to the next
            levels = np.zeros((strip.num_layers + 1, state.grid.num_points))
            levels[1:-1] = rng.standard_normal(levels[1:-1].shape)
            oracle = padded_stencil(state.grid, hx, strip, levels)
            image = operator(levels[1:-1])
            assert np.abs(image - oracle).max() <= 1e-14 * np.abs(oracle).max()

    def test_cold_solve_applies_the_operator_once_per_iteration_and_once_for_the_gate(
        self, steep, monkeypatch
    ):
        state, strip, top = steep
        applies = [0]
        original = field_module._StripOperator.__call__

        def counting(operator, u):
            applies[0] += 1
            return original(operator, u)

        monkeypatch.setattr(field_module._StripOperator, "__call__", counting)
        kappa = state.curvature.samples
        result = solve_strip(state.grid, state.slope.samples, kappa, strip, top)
        assert result.iterations > 0
        # no apply forms the right-hand side
        assert applies[0] == result.iterations + 1


class TestGmresGuess:
    """``_gmres`` on a small nonsymmetric system.  It starts from zero; the
    guess it refines is the one its right preconditioner makes from a
    residual, and its stopping target is on the true residual whatever that
    guess."""

    @pytest.fixture
    def system(self, rng):
        n = 30
        a = np.eye(n) * 4.0 + rng.standard_normal((n, n)) / np.sqrt(n)
        exact = rng.standard_normal(n)
        return (lambda u: a @ u), (lambda r: r.copy()), a @ exact, exact

    def test_zero_data_give_zeros_whatever_the_guess(self, system, rng):
        operator, precondition, rhs, _ = system
        scramble = rng.standard_normal((rhs.size, rhs.size))
        for guess in (precondition, lambda r: scramble @ r):
            solution, iterations = field_module._gmres(operator, guess, np.zeros_like(rhs))
            assert iterations == 0
            assert np.array_equal(solution, np.zeros_like(rhs))

    def test_good_guess_meets_the_same_absolute_target(self, system, rng):
        operator, precondition, rhs, exact = system
        n = rhs.size
        a = np.column_stack([operator(e) for e in np.eye(n)])
        # the inverse of a nearby matrix guesses the solution from a residual
        near = np.linalg.inv(a + 1e-3 * rng.standard_normal((n, n)) / np.sqrt(n))
        plain, plain_iterations = field_module._gmres(operator, precondition, rhs)
        good, good_iterations = field_module._gmres(operator, lambda r: near @ r, rhs)
        assert 0 < good_iterations < plain_iterations < n
        # the Arnoldi residual estimate is the stopping test; the true
        # residual agrees with it to round-off of |rhs|
        limit = (field_module.GMRES_TOLERANCE + 1e-14) * np.linalg.norm(rhs)
        for solution in (plain, good):
            assert np.linalg.norm(rhs - operator(solution)) <= limit

    def test_divergence_reports_residual_relative_to_rhs(self, system, monkeypatch):
        operator, precondition, rhs, _ = system
        monkeypatch.setattr(field_module, "GMRES_MAX_ITERATIONS", 1)
        image = operator(rhs)
        # one GMRES step from zero minimizes |rhs - t A rhs| over t
        r1 = np.sqrt(np.linalg.norm(rhs) ** 2 - np.vdot(rhs, image) ** 2 / np.linalg.norm(image) ** 2)
        with pytest.raises(SolverDivergence) as info:
            field_module._gmres(operator, precondition, rhs)
        reported = float(str(info.value).rsplit(" ", 1)[-1])
        assert reported == pytest.approx(r1 / np.linalg.norm(rhs), rel=1e-3)


class TestNormalVelocity:
    def test_linearized_dtn(self, mode3_setup):
        grid, state, strip, fields, eps, k = mode3_setup
        v = normal_velocity(fields, state)
        target = 2.0 * k**3 * eps * np.cos(k * grid.nodes)
        assert np.linalg.norm(v.samples - target) <= 0.01 * np.linalg.norm(target)

    def test_height_velocity_matches_linear_dtn(self, mode3_setup):
        grid, state, strip, fields, eps, k = mode3_setup
        v = normal_velocity(fields, state)
        h_t = -state.line_element * v.samples
        target = -2.0 * fractional_operator(state.h, 3.0).samples
        assert np.linalg.norm(h_t - target) <= 0.01 * np.linalg.norm(target)

    def test_mass_conservation_odd_data(self):
        grid = Grid(L, 256)
        state = make_state(grid, 0.1 * np.sin(2.0 * grid.nodes))
        strip = StripConfig(depth=9.2, num_layers=96)
        fields = solve_exterior_fields(state, strip)
        v = normal_velocity(fields, state)
        mass = grid.spacing * np.sum(v.samples * state.line_element)
        assert abs(mass) <= 1e-6 * v.l2_norm()

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_symmetry(self, parity):
        grid = Grid(L, 128)
        x = grid.nodes
        samples = 0.2 * np.cos(2 * x) if parity == "even" else 0.2 * np.sin(2 * x)
        state = make_state(grid, samples)
        strip = StripConfig(depth=9.2, num_layers=32)
        v = normal_velocity(solve_exterior_fields(state, strip), state).samples
        reflected = np.roll(v[::-1], 1)  # v(-x) on the periodic grid
        if parity == "even":
            assert np.abs(v - reflected).max() <= 1e-8 * max(np.abs(v).max(), 1e-30)
        else:
            assert np.abs(v + reflected).max() <= 1e-8 * max(np.abs(v).max(), 1e-30)

    def test_mirror_symmetry(self):
        # V(-h) = -V(h): the lower phase of h is the upper phase of -h.
        # Measured 4.0e-15 relative on the steep wavelet, with the same
        # iteration count and D to 4e-16 relative
        state = wavelet_state(256, slope=0.9)
        mirror = make_state(state.grid, -state.h.samples)
        up, down = exterior_response(state), exterior_response(mirror)
        scale = np.abs(up.velocity.samples).max()
        assert np.abs(down.velocity.samples + up.velocity.samples).max() <= 1e-13 * scale
        assert down.dissipation == pytest.approx(up.dissipation, rel=1e-13, abs=0.0)
        assert down.solve.iterations == up.solve.iterations


class TestDissipation:
    def test_linearized_value(self, mode3_setup):
        grid, state, strip, fields, eps, k = mode3_setup
        d = dissipation(fields, state)
        d_lin = 2.0 * seminorm(state.h, 2.5) ** 2
        assert d == pytest.approx(d_lin, rel=5e-3)
        assert d_lin == pytest.approx(2.0 * eps**2 * k**5 * (L / 2.0), rel=1e-12)

    def test_is_boundary_pairing(self, mode3_setup):
        grid, state, strip, fields, eps, k = mode3_setup
        v = normal_velocity(fields, state).samples
        pairing = -grid.spacing * np.sum(state.curvature.samples * v * state.line_element)
        assert dissipation(fields, state) == pytest.approx(pairing, rel=1e-12)

    def test_scaling_of_linearized_formula(self, rng):
        # D = 2 || |d/dx|^{5/2} h ||^2 scales as lambda^{-2} under shape rescaling
        grid = Grid(L, 64)
        from conftest import band_limited_profile

        p = band_limited_profile(grid, rng)
        lam = 2.7
        scaled_grid = Grid(lam * L, 64)
        q = SpectralProfile.from_samples(scaled_grid, lam * p.samples)
        d1 = 2.0 * seminorm(p, 2.5) ** 2
        d2 = 2.0 * seminorm(q, 2.5) ** 2
        assert d2 == pytest.approx(d1 / lam**2, rel=1e-12)

    def test_unresolved_state_raises_solver_divergence(self):
        # a mode above the 2/3 cut puts all of psi's energy in the tail, and
        # the solve refuses it; the highest resolved mode, N/3, leaves the
        # tail at round-off (measured 1.4e-26 at N = 64)
        grid = Grid(L, 64)
        state = make_state(grid, 1e-3 / 22 * np.cos(22 * grid.nodes))
        with pytest.raises(SolverDivergence, match="above the 2/3 cut") as err:
            exterior_response(state)
        assert float(str(err.value).split()[0]) >= 0.99 > RESOLUTION_TAIL_MAX
        assert exterior_response(make_state(grid, 1e-3 / 21 * np.cos(21 * grid.nodes))).solve.tail <= 1e-20

    def test_depth_doubling_is_converged(self):
        # truncation-depth error is controlled empirically
        grid = Grid(L, 128)
        state = make_state(grid, 0.2 * np.sin(grid.nodes))
        results = []
        for depth in (9.2, 18.4):
            strip = StripConfig(depth=depth, num_layers=64)
            fields = solve_exterior_fields(state, strip)
            results.append(
                (dissipation(fields, state), normal_velocity(fields, state).samples)
            )
        (d1, v1), (d2, v2) = results
        assert abs(d1 - d2) <= 1e-3 * abs(d2)
        assert np.linalg.norm(v1 - v2) <= 1e-3 * np.linalg.norm(v2)


class TestExteriorResponse:
    def test_matches_the_public_chain_and_is_kept(self):
        # the strip pair is the second-order reference: measured 1.0e-3 in V
        # and 9.5e-4 in D relative at 32 layers
        grid = Grid(L, 64)
        state = make_state(grid, 0.2 * np.sin(grid.nodes))
        strip = StripConfig(depth=9.2, num_layers=32)
        response = exterior_response(state)
        fields = solve_exterior_fields(state, strip)
        v = normal_velocity(fields, state).samples
        scale = np.abs(v).max()
        assert np.abs(response.velocity.samples - v).max() <= 2e-3 * scale
        assert response.dissipation == pytest.approx(dissipation(fields, state), rel=5e-3)

    def test_is_pure(self):
        # the state has no slot for a response, and a second call solves
        # again, to the same response
        assert InterfaceState.__slots__ == ("h", "slope", "curvature", "line_element")
        state = wavelet_state(128)
        first, second = exterior_response(state), exterior_response(state)
        assert first is not second
        assert np.array_equal(first.velocity.samples, second.velocity.samples)
        assert first[1:] == second[1:]

    def test_keeps_no_field_array(self):
        grid = Grid(L, 64)
        state = make_state(grid, 0.2 * np.sin(grid.nodes))
        response = exterior_response(state)
        assert isinstance(response, ExteriorResponse)
        arrays = [response.velocity.samples, response.velocity.coeffs]
        arrays += [v for v in response if isinstance(v, np.ndarray)]
        assert max(np.size(a) for a in arrays) <= grid.num_points
        scalars = (response.dissipation, *response.solve)
        assert all(np.ndim(v) == 0 for v in scalars)


class TestBoundaryIntegral:
    """The single-layer solve against refinement, closed forms and the strip;
    its flat exactness is acceptance criterion 2."""

    @pytest.mark.parametrize("make, n", [(bump_state, 512), (wavelet_state, 256)], ids=["bump", "wavelet"])
    def test_n_against_2n(self, make, n):
        # measured 1.3e-10 (bump) and 5.2e-10 (wavelet at sup|h_x| = 0.9) in V;
        # each state is solved on its own grid, where exterior_response
        # could give both the same resolved grid
        coarse, fine = own_grid_response(make(n)), own_grid_response(make(2 * n))
        assert (coarse.solve.points, fine.solve.points) == (n, 2 * n)
        v_coarse, v_fine = coarse.velocity.samples, fine.velocity.samples[::2]
        assert np.abs(v_coarse - v_fine).max() <= 1e-8 * np.abs(v_fine).max()
        assert coarse.dissipation == pytest.approx(fine.dissipation, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("make, n", [(bump_state, 512), (wavelet_state, 256)], ids=["bump", "wavelet"])
    def test_mass_flux_vanishes(self, make, n):
        # measured 1.6e-19 (bump) and 5.3e-18 (wavelet) of L max|V|
        state = make(n)
        v = exterior_response(state).velocity
        flux = state.grid.spacing * np.sum(v.samples * state.line_element)
        assert abs(flux) <= 1e-13 * state.grid.length * v.max_abs()

    def test_kappa_half_d_on_a_small_mode(self):
        # ||kappa||_{1/2}^2 / D -> 1/2 at small slope: measured 0.50000009;
        # the strip read 0.49912
        grid = Grid(16.0, 256)
        coeffs = np.zeros(129, dtype=complex)
        coeffs[3] = 0.5e-3
        state = build_state(SpectralProfile.from_coeffs(grid, coeffs))
        d = exterior_response(state).dissipation
        kappa_arc = to_arclength(state, state.curvature).without_mean()
        assert seminorm(kappa_arc, 0.5) ** 2 / d == pytest.approx(0.5, abs=1e-5)

    def test_strip_reference_converges_to_it(self):
        # measured 1.76e-3, 4.67e-4 and 3.00e-4 of max|V| at 48, 96 and 192
        # layers: second order in the layers until the strip's x-error floor
        state = bump_state(512)
        v = exterior_response(state).velocity.samples
        errors = []
        for layers in (48, 96, 192):
            fields = solve_exterior_fields(state, default_strip_config(state.grid, num_layers=layers))
            errors.append(np.abs(normal_velocity(fields, state).samples - v).max() / np.abs(v).max())
        assert errors[0] <= 2e-3 and errors[1] <= 5e-4 and errors[2] <= 3.2e-4
        assert errors[0] > errors[1] > errors[2]
        assert errors[0] / errors[1] >= 3.5


class TestResolvedSolve:
    """exterior_response solves on the smallest grid that resolves the
    curvature of h truncated to it."""

    def test_bump_is_solved_on_half_its_grid(self):
        # the N = 512 bump against its own-grid solve: D measured to 2.2e-16.
        # V agrees to 4.5e-16 of max|V| on the modes both grids hold; above
        # them the own-grid V carries only GMRES noise, 1.3e-12 of max|V| per
        # coefficient, which the padding drops: 1.2e-11 in the samples, where
        # the own-grid solves at N = 512 and 1024 differ by 1.3e-10
        state = bump_state(512)
        response = exterior_response(state)
        own = own_grid_response(bump_state(512))
        assert (response.solve.points, own.solve.points) == (256, 512)
        assert response.velocity.grid == state.grid
        v = response.velocity.samples
        scale = np.abs(own.velocity.samples).max()
        # the modes below 128, which both grids hold
        assert np.abs(response.velocity.coeffs - own.velocity.coeffs)[:128].max() <= 1e-13 * scale
        assert np.abs(v - own.velocity.samples).max() <= 1e-10 * scale
        assert response.dissipation == pytest.approx(own.dissipation, rel=1e-13, abs=0.0)
        assert response.dissipation == -state.grid.spacing * np.sum(state.curvature.samples * v * state.line_element)
        # V is zero-padded: nothing above the solve grid's Nyquist mode
        assert np.all(response.velocity.coeffs[129:] == 0.0)

    def test_steep_wavelet_keeps_its_grid(self):
        # at sup|h_x| = 0.9 the curvature's content reaches past 256/3
        assert exterior_response(wavelet_state(256)).solve.points == 256

    @pytest.mark.parametrize("n", [1024, 2048])
    def test_fine_bump_is_solved_on_256_points(self, n):
        # the state's own curvature carries a round-off floor that grows like
        # k^2 eps and reaches past 1e-12 of its largest coefficient at N = 1024;
        # the curvature of h truncated to 256 points holds nothing above the cut
        state = bump_state(n)
        assert not is_resolved(state.curvature)
        assert exterior_response(state).solve.points == 256

    def test_flat_state_is_solved_on_eight_points(self):
        grid = Grid(16.0, 256)
        response = exterior_response(make_state(grid, np.zeros(256)))
        assert response.solve.points == 8 and response.solve.iterations == 0
        assert response.dissipation == 0.0 and not np.any(response.velocity.samples)


class TestFieldInvariants:
    def test_trace_and_flux_bounds(self):
        # || |d/ds|^{1/2} kappa ||^2 <= 4 D and || |d/ds|^{-1/2} V ||^2 <= 8 D
        grid = Grid(16.0, 256)
        u = grid.nodes - 8.0
        shapes = [
            0.15 * np.exp(-(u**2)),
            0.2 * u * np.exp(-(u**2)),
            0.1 * np.cos(2.0 * 2.0 * np.pi * grid.nodes / 16.0),
        ]
        for samples in shapes:
            state = make_state(grid, samples - samples.mean())
            response = exterior_response(state)
            d = response.dissipation
            kappa_arc = to_arclength(state, state.curvature).without_mean()
            assert seminorm(kappa_arc, 0.5) ** 2 <= 4.0 * d
            v_arc = to_arclength(state, response.velocity).without_mean()
            assert seminorm(v_arc, -0.5) ** 2 <= 8.0 * d

    def test_trace_ratio_nonincreasing_under_refinement(self):
        ratios = []
        for n in (256, 512):
            grid = Grid(16.0, n)
            u = grid.nodes - 8.0
            state = make_state(grid, 0.15 * np.exp(-(u**2)) - (0.15 * np.exp(-(u**2))).mean())
            d = exterior_response(state).dissipation
            kappa_arc = to_arclength(state, state.curvature).without_mean()
            ratios.append(seminorm(kappa_arc, 0.5) ** 2 / d)
        # measured 0.50026930 at both N, equal to 5e-16
        assert ratios[1] <= ratios[0] * (1.0 + 1e-3)

