"""Exception types shared across the package."""

from functools import cached_property


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

    Carries the last state's Fock amplitudes, built into ``state`` on first
    read, and the trial record for diagnostics.
    """

    def __init__(self, message, amplitudes=None, record=None, log=None):
        super().__init__(message)
        self.amplitudes = amplitudes
        self.record = record
        self.log = log

    @cached_property
    def state(self):
        from .hilbert import FockState  # hilbert imports this module
        return FockState(self.amplitudes, (self.amplitudes.size,))
