"""Exception types raised by the solvers and the specimen file loader."""


class SpecimenFormatError(ValueError):
    """A specimen file could not be parsed or violates a geometric invariant."""


class GapClosureError(RuntimeError):
    """The deflected beam touched (or crossed) the counter-electrode face.

    Consumed upstream as a pull-in signal, not as a fatal condition.
    """


class ConvergenceError(RuntimeError):
    """An iterative structural solve failed to reach its residual tolerance."""


class PullInNotFoundError(RuntimeError):
    """The pull-in search found no maximum of the equilibrium voltage over the
    tip deflection: a solve at a prescribed tip failed or passed the search
    cap, or the search did not settle."""
