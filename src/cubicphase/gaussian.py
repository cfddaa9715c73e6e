"""Gaussian operations in closed form: the squeezed vacuum and x̂-conditioned displacements.

The QND coupling exp[(βâ†_R − β*â_R)x̂_S] runs as ``displace_columns`` on the
labels ``x_labels`` reads, in the one x̂ eigenbasis of ``x_eigh``;
``squeezed_vacuum`` is S(r)|0⟩ and ``hilbert.coherent`` D(α)|0⟩ in closed form.
The dense gates they equal to machine precision, exact matrix exponentials of
the truncated generators, are the test oracles in ``cubicphase.reference``.

squeezed_vacuum(r) is parameterized by the position-space Gaussian width r:
it has ⟨x̂²⟩ = r/2 (r = 1 is the vacuum), and the usual log-squeeze parameter
is s = −½ ln r.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import CutoffError
from .hilbert import FockState, _as_cutoffs, quadrature_coefficients, real_matmul


def squeezed_vacuum(r_width: float, cutoff: int, max_loss: float = 1e-8) -> FockState:
    """S(r)|0⟩ in closed form: c_{2k} = (−tanh s)^k √((2k)!)/(2^k k!)/√cosh s with
    s = −½ ln r.  The amplitudes below the cutoff are exact, not renormalized."""
    r = float(r_width)
    if r <= 0.0:
        raise ValueError(f"squeeze width {r} must be positive")
    s = -0.5 * math.log(r)
    k = np.arange(1, (int(cutoff) + 1) // 2)
    # c_{2k}/c_{2k−2} = −tanh s·√((2k−1)/(2k)); odd levels are empty
    steps = np.concatenate(([1.0 / math.sqrt(math.cosh(s))],
                            -math.tanh(s) * np.sqrt((2 * k - 1) / (2 * k))))
    amp = np.zeros(int(cutoff))
    amp[::2] = np.cumprod(steps)
    loss = max(0.0, 1.0 - amp @ amp)
    if loss >= max_loss:
        raise CutoffError(
            f"squeezed vacuum (r={r:g}) loses {loss:.2e} probability at cutoff {cutoff}"
        )
    return FockState(amp, (int(cutoff),), normalized=False)


# ---------------------------------------------------------------------------
# x̂-conditioned displacements in the x̂ eigenbasis


@lru_cache(maxsize=32)
def x_eigh(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Real eigenpairs of the truncated x̂, built from ``quadrature_coefficients``, read-only."""
    s = quadrature_coefficients(*_as_cutoffs(cutoff))  # DimensionError below 2
    w, v = np.linalg.eigh(np.diag(s, 1) + np.diag(s, -1))
    w.flags.writeable = False
    v.flags.writeable = False
    return w, v


def x_labels(amplitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, log c) for the labels c = Vᵀψ of single-mode Fock amplitudes ψ in
    ``x_eigh``'s eigenbasis, by ``real_matmul``: every RUS run starts there."""
    c = real_matmul(x_eigh(amplitudes.size)[1].T, amplitudes)
    with np.errstate(divide="ignore"):  # a label of zero amplitude has log-weight −inf
        return c, np.log(c)


def displace_columns(chi: np.ndarray, beta: complex, lam: np.ndarray) -> np.ndarray:
    """D(βλ_k) on column k of the resource Fock amplitudes χ (one column serves every k):
    the coupling exp[(βâ†_R − β*â_R)x̂_S] at system label λ_k.  As p̂ = R·x̂·R†, R = diag(iⁿ),
    D(βλ) = Φ·U·diag(e^{−i√2|β|λμ})·Uᵀ·Φ† with β = |β|e^{iθ}, Φ = diag(e^{i(θ+π/2)n}) and
    the resource's x̂ eigenpairs (μ, U)."""
    res_c = chi.shape[0]
    mu, u = x_eigh(res_c)
    phi = np.exp(1j * (np.angle(beta) + 0.5 * math.pi) * np.arange(res_c))
    boosts = np.exp(-1j * math.sqrt(2.0) * abs(beta) * np.outer(mu, lam))  # (resource, system)
    return phi[:, None] * real_matmul(u, real_matmul(u.T, phi.conj()[:, None] * chi) * boosts)
