"""Repeat-until-success cubic phase gate simulator on truncated Fock spaces.

The dense reference oracles live in ``cubicphase.reference``, which this
package does not import: it alone loads scipy.
"""

from .errors import (
    CutoffError,
    DegenerateOutcomeError,
    DimensionError,
    FactorFailure,
    NumericalDegradationError,
)
from .hilbert import (
    FockState,
    coherent,
)
from .cubic import (
    CubicDecomposition,
    gamma_factors,
)
from .protocol import (
    DetectorModel,
    IDEAL_DETECTOR,
    ProtocolConfig,
    TrialLog,
    full_gate,
    rus_factor,
)
from .analysis import (
    error_operator_stats,
    variance_sweep,
)
from .schemes import (
    marek_gate,
    marek_resource_state,
    marek_restart_mean,
    runtime_models,
)

__version__ = "0.1.0"
