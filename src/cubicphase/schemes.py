"""The comparison gate: the resource-state route, and the running-time models.

The resource-state scheme is simulated in full: the resource
(1 + iγx̂³)S(r)|0⟩ = S(r)[|0⟩ + iγ′(3/(2√2))|1⟩ + iγ′(√3/2)|3⟩], γ′ = γr^{3/2},
is coupled through exp(i x̂ p̂_R) in the x̂ eigenbasis of both modes, the
resource position is measured by homodyne (spectral decomposition of the
truncated x̂, outcome binned to an eigenvalue), and the feed-forward unitary
U_FF = exp[−iγq³ − 3iγ(x̂+q)x̂q] repairs the nonzero-q branch.  The squeezed
frame, the dense U_FF and the restart chain's Monte Carlo mean are test
oracles in ``cubicphase.reference``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateOutcomeError, DimensionError
from .gaussian import displace_columns, squeezed_vacuum, x_eigh
from .hilbert import FockState, real_matmul
from .protocol import ProtocolConfig


# ---------------------------------------------------------------------------
# resource-state scheme


def marek_resource_state(r_width: float, gamma: float, cutoff: int,
                         max_loss: float = 1e-8) -> FockState:
    """Normalized (I + iγx̂³)·S(r)|0⟩, with x̂³ = V·diag(λ³)·Vᵀ in ``x_eigh``'s eigenbasis."""
    if gamma < 0.0:
        raise ValueError("gamma must be >= 0")
    base = squeezed_vacuum(r_width, cutoff, max_loss=max_loss).amplitudes.real
    w, v = x_eigh(cutoff)
    x3_base = v @ (w**3 * (v.T @ base))
    amp = base + 1j * float(gamma) * x3_base
    return FockState(amp / np.linalg.norm(amp), (int(cutoff),))


def _feed_forward_phase(q: float, gamma: float, w: np.ndarray) -> np.ndarray:
    """e^{−iγ(q³ + 3q(λ² + qλ))} at the x̂ eigenvalues λ = w: U_FF's diagonal."""
    return np.exp(-1j * gamma * (q**3 + 3.0 * q * (w**2 + q * w)))


@lru_cache(maxsize=4)
def _marek_kernel(r_width: float, gamma: float, sys_c: int, res_c: int, max_loss: float) -> tuple:
    """(K, |K|²), read-only: K[j, k] = ⟨μ_j|D(−λ_k/√2)|resource⟩, so the coupled state's
    resource bin j is K[j] ∘ Vᵀψ in system labels: the coupling of system labels all 1."""
    resource = marek_resource_state(r_width, gamma, res_c, max_loss=max_loss).amplitudes[:, None]
    w, u = x_eigh(sys_c)[0], x_eigh(res_c)[1]
    # exp(i x̂_S p̂_R): a resource momentum boost e^{iλp̂_R} = D(−λ/√2) per x̂_S eigenvalue λ
    kernel = real_matmul(u.T, displace_columns(resource, -1.0 / math.sqrt(2.0), w))
    weights = kernel.real**2 + kernel.imag**2
    kernel.flags.writeable = weights.flags.writeable = False
    return kernel, weights


def marek_gate(
    input_state: FockState,
    r_width: float,
    gamma: float,
    rng: np.random.Generator,
    cutoffs,
    force_q: float | None = None,
    max_loss: float = 1e-8,
) -> tuple[FockState, float, bool]:
    """One shot of the resource-state cubic gate with homodyne feed-forward.

    Returns (output system state, homodyne outcome q, whether a feed-forward
    correction was applied).  ``force_q`` conditions on the spectral outcome
    nearest that value instead of sampling (useful for the q = 0 branch).
    """
    sys_c, res_c = (int(c) for c in cutoffs)
    if input_state.cutoffs != (sys_c,):
        raise DimensionError("input must be a single-mode state on the system cutoff")
    kernel, weights = _marek_kernel(r_width, gamma, sys_c, res_c, max_loss)
    w, v = x_eigh(sys_c)
    evals, _ = x_eigh(res_c)
    labels = real_matmul(v.T, input_state.amplitudes)
    probs = weights @ (labels.real**2 + labels.imag**2)  # bin j: Σ_k |K[j, k]|²·|labels_k|²
    probs /= probs.sum()

    if force_q is None:
        idx = int(rng.choice(len(evals), p=probs))
    else:
        idx = int(np.argmin(np.abs(evals - float(force_q))))
        if probs[idx] < 1e-18:  # amplitude below 1e-9: numerically empty branch
            raise DegenerateOutcomeError(f"homodyne bin at q={evals[idx]:.4f} has zero probability")
    q = float(evals[idx])
    if abs(q) < 1e-12:  # eigensolver noise around the symmetric zero mode
        q = 0.0
    collapsed = kernel[idx] * labels
    applied = q != 0.0
    if applied:  # U_FF is diagonal in the labels: U_FF·ψ = V·(phase ∘ Vᵀψ)
        collapsed *= _feed_forward_phase(q, gamma, w)
    collapsed = real_matmul(v, collapsed)
    return FockState(collapsed / np.linalg.norm(collapsed), (sys_c,)), q, applied


# ---------------------------------------------------------------------------
# running-time models


@dataclass(frozen=True)
class RuntimeModels:
    """Expected-attempt curves at subtraction success probability p."""

    p: float
    ours_per_factor: float   # 1/p
    ours_total: float        # 3N/p
    marek_prep: float        # 1/p^3 (three simultaneous subtractions)


def runtime_models(p: float, n: int = ProtocolConfig.n) -> RuntimeModels:
    p = float(p)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    return RuntimeModels(p, 1.0 / p, 3.0 * int(n) / p, p**-3)


def marek_restart_mean(p: float) -> float:
    """Exact mean attempts to see three consecutive successes, restart on failure:
    (1 + p + p²)/p³."""
    p = float(p)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    return (1.0 + p + p * p) / p**3
