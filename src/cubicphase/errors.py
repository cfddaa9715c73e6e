"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Shapes or cutoffs are inconsistent."""


class CutoffError(ValueError):
    """A truncation cutoff is too small for the requested object."""


class DegenerateOutcomeError(RuntimeError):
    """A conditional branch was requested whose probability is zero."""


class NumericalDegradationError(RuntimeError):
    """A numerical-quality invariant was violated mid-run: a state holds more
    of its probability in the top Fock levels of its cutoff than the
    truncation-headroom bound allows."""


class FactorFailure(RuntimeError):
    """A repeat-until-success factor exhausted its attempt budget.

    Carries the last state and the trial record for diagnostics.
    """

    def __init__(self, message, state=None, record=None, log=None):
        super().__init__(message)
        self.state = state
        self.record = record
        self.log = log
