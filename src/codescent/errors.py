"""Exception types shared across the library."""


class DimensionMismatch(ValueError):
    """Operands live in different ambient dimensions."""


class NonFinite(ValueError):
    """An input contains NaN or infinite entries."""


class SizeOverflow(RuntimeError):
    """A combinatorial construction exceeded the configured piece-count cap."""


class NoConvergence(RuntimeError):
    """An iterative solver hit its iteration cap (usually ill-conditioning)."""


class ArmijoFailure(RuntimeError):
    """Backtracking exhausted its budget: the search direction does not descend."""


class Degenerate(RuntimeError):
    """The simplex anti-cycling guard tripped."""
