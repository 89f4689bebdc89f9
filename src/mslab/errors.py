"""Exception types shared across the package."""


class MSLabError(Exception):
    """Base class for all package-specific errors."""


class ZeroModeNonzero(MSLabError):
    """An operation requiring a mean-zero profile received one with mass."""


class SlopeGateViolation(MSLabError):
    """A precondition sup|h_x| <= gate was breached."""


class SlopeBlowup(MSLabError):
    """A time step carried the interface slope past the configured gate."""


class SolverDivergence(MSLabError):
    """The exterior solve of a state failed: GMRES did not converge, its
    residual missed the gate, or the grid does not resolve the boundary
    density (its tail above the 2/3 cut exceeds the limit)."""


class InsufficientSamples(MSLabError):
    """A trajectory check needs more usable samples than were provided."""


class RegimeNeverEntered(MSLabError):
    """The Lyapunov smallness regime was never reached along the trajectory."""


class ConfigError(MSLabError):
    """A run configuration failed validation.

    Carries the JSON path of the offending field so the CLI can print a
    precise diagnostic.
    """

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"config error at {path}: {message}")
