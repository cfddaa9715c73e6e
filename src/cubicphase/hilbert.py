"""Truncated Fock space: pure states, coherent amplitudes, and x̂'s matrix entries.

Quadrature convention used throughout the package:

    x̂ = (â + â†)/√2,   p̂ = (â − â†)/(i√2),   so [x̂, p̂] = i

and the vacuum has ⟨x̂²⟩ = ⟨p̂²⟩ = 1/2.  Readers using the x̂ = (â + â†)/2
convention should halve all quadrature values and quarter all variances.

Mode ordering for composite systems: mode 0 is the slowest-varying index of
the amplitude vector (plain Kronecker order).

No operator matrix is built here: x̂'s off-diagonal entries feed
``gaussian.x_eigh``, in whose eigenbasis x̂ and p̂ act.  The dense
``FockOperator`` and its constructors are test oracles in
``cubicphase.reference``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffError, DimensionError

NORM_TOL = 1e-10


def _as_cutoffs(cutoffs) -> tuple[int, ...]:
    if isinstance(cutoffs, (int, np.integer)):
        cutoffs = (int(cutoffs),)
    cutoffs = tuple(int(c) for c in cutoffs)
    if not cutoffs:
        raise DimensionError("at least one mode required")
    for c in cutoffs:
        if c < 2:
            raise DimensionError(f"cutoff {c} < 2 is not a valid mode dimension")
    return cutoffs


@dataclass
class FockState:
    """Pure state as a complex amplitude vector over the truncated Fock basis.

    ``cutoffs[m]`` is the dimension of mode m (levels |0⟩..|cutoff−1⟩).
    Values are treated as immutable; the amplitude buffer is write-locked.
    """

    amplitudes: np.ndarray
    cutoffs: tuple[int, ...]
    normalized: bool = True

    def __post_init__(self):
        self.cutoffs = _as_cutoffs(self.cutoffs)
        amp = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.size != math.prod(self.cutoffs):
            raise DimensionError(
                f"amplitude length {amp.size} != product of cutoffs {self.cutoffs}"
            )
        if not np.isfinite(amp.view(float)).all():
            raise ValueError("amplitudes contain NaN/Inf")
        if self.normalized and abs(math.sqrt(np.vdot(amp, amp).real) - 1.0) >= NORM_TOL:
            raise ValueError("normalized flag set but norm deviates from 1")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)


def _mean_photons(alpha: complex) -> float:
    """|α|², and inf where it passes the float range (``**`` raises there)."""
    try:
        return abs(alpha) ** 2
    except OverflowError:
        return math.inf


COHERENT_LOSS_TOL = 1e-8


def coherent_columns(alphas, cutoff: int, max_loss: float = COHERENT_LOSS_TOL) -> np.ndarray:
    """The amplitudes of ``coherent(α, cutoff)`` for each α of ``alphas`` as the
    columns of one array, by the same arithmetic in one pass; raises ``coherent``'s
    CutoffError for the first column the cutoff cannot hold."""
    cutoff = int(cutoff)
    # amplitude n is the product e^{−|α|²/2}·Π_{k≤n} α/√k.  One row per α, so
    # each norm sums the same two BLAS dots as np.linalg.norm of one vector
    first = [[math.exp(-_mean_photons(a) / 2.0)] for a in alphas]
    amp = np.cumprod(np.concatenate(
        (first, np.asarray(alphas)[:, None] / np.sqrt(np.arange(1, cutoff))), axis=1), axis=1)
    norm = np.sqrt(np.vecdot(amp.real, amp.real) + np.vecdot(amp.imag, amp.imag))
    for alpha, loss in zip(alphas, 1.0 - norm * norm):
        if not loss < max_loss:
            raise CutoffError(
                f"coherent(|α|={abs(alpha):.3g}) loses {loss:.2e} probability at cutoff "
                f"{cutoff} (tolerance {max_loss:.1e})"
            )
    return (amp / norm[:, None]).T


def coherent(alpha: complex, cutoff: int, max_loss: float = COHERENT_LOSS_TOL) -> FockState:
    """Coherent state |α⟩ with amplitudes e^{−|α|²/2} αⁿ/√(n!), renormalized.

    Raises CutoffError when the truncated tail, 1 − Σ|amplitude|², reaches
    ``max_loss`` or is not a number, so also for a NaN α and for any finite
    α, however large, that the cutoff cannot hold.
    """
    return FockState(coherent_columns([alpha], cutoff, max_loss)[:, 0], (int(cutoff),))


def quadrature_coefficients(cutoff: int) -> np.ndarray:
    """s_n = √(n+1)/√2, n < cutoff − 1: bit for bit the off-diagonal entries of
    ``reference.quadrature_x``, so divided in complex as there."""
    return (np.sqrt(np.arange(1, int(cutoff))).astype(complex) / math.sqrt(2.0)).real


def real_matmul(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """m @ z for a real matrix m and complex z, a vector or a stack of matrices, as
    one real product on z's float view: half the arithmetic of the complex product."""
    f = np.ascontiguousarray(z[:, None] if z.ndim == 1 else z, dtype=complex)
    out = (m @ f.view(float)).view(complex)
    return out[:, 0] if z.ndim == 1 else out

