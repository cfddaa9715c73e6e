import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


class ForcedOutcomeRng:
    """Stand-in for a Generator that forces measurement branches.

    random() returns 0.0 to force a click at the first attempt whose click
    probability is positive, or a value just below 1 to force no-click.
    ``rus_factor`` clicks once its first draw u is below F, the click CDF;
    its later draws pick the unobserved photon numbers, and 0.0 there gives
    one detected photon and none lost.  The Fock reference
    ``subtraction_attempt`` draws twice per attempt: the outcome, then the
    ancilla photon number by inverse CDF, where 0.0 gives the lowest number
    of positive weight and 1 − 1e-15 the highest; after a no-click at η = 1
    both give 0, the only one.
    """

    def __init__(self, value: float = 0.0):
        self.value = value

    def random(self) -> float:
        return self.value


@pytest.fixture
def force_click():
    return ForcedOutcomeRng(0.0)


@pytest.fixture
def force_no_click():
    return ForcedOutcomeRng(1.0 - 1e-15)
