"""Gaussian operations in closed form: the squeezed vacuum and x̂-conditioned displacements.

The simulator's QND couplings, exp[(βâ†_R − β*â_R)x̂_S] with an optional
momentum kick exp(i·kick·x̂_S), run as ``apply_x_conditioned_displacement``, a
cached spectral construction in the x̂_S eigenbasis; ``squeezed_vacuum`` is
S(r)|0⟩ and ``hilbert.coherent`` D(α)|0⟩ in closed form.  The dense gates they
equal to machine precision, exact matrix exponentials of the truncated
generators, are the test oracles in ``cubicphase.reference``.

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
# x̂-conditioned displacements in the x̂ eigenbasis (cached; values immutable)


@lru_cache(maxsize=32)
def x_eigh(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Real eigenpairs of the truncated x̂, built from ``quadrature_coefficients``, read-only."""
    s = quadrature_coefficients(*_as_cutoffs(cutoff))  # DimensionError below 2
    w, v = np.linalg.eigh(np.diag(s, 1) + np.diag(s, -1))
    w.flags.writeable = False
    v.flags.writeable = False
    return w, v


@lru_cache(maxsize=32)
def _displacement_eigh(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues Λ and eigenvectors V of the Hermitian i(â†−â), read-only, so
    that D(z) = R(θ)·V e^{−i|z|Λ} V†·R(θ)† with R(θ) = diag(e^{iθn}), θ = arg z."""
    a = np.diag(np.sqrt(np.arange(1, cutoff)), 1).astype(complex)  # â
    w, v = np.linalg.eigh(1j * (a.conj().T - a))
    w.flags.writeable = False
    v.flags.writeable = False
    return w, v


@lru_cache(maxsize=64)
def _x_conditioned_gates(beta: complex, kick: float, sys_c: int, res_c: int) -> np.ndarray:
    """Per-x̂_S-eigenvalue resource displacements e^{i·kick·λ}D(βλ), stacked,
    from the spectral form of D; equal to reference.displacement_gate to machine
    precision."""
    w, _ = x_eigh(sys_c)
    lam, v = _displacement_eigh(res_c)
    zs = beta * w
    mags = np.abs(zs)
    thetas = np.where(mags > 0, np.angle(zs), 0.0)
    cores = np.einsum("ik,jk,lk->jil", v, np.exp(-1j * np.outer(mags, lam)), v.conj())
    phases = np.exp(1j * np.outer(thetas, np.arange(res_c)))
    gates = cores * phases[:, :, None] * phases.conj()[:, None, :]
    gates *= np.exp(1j * kick * w)[:, None, None]
    gates.flags.writeable = False
    return gates


def apply_x_conditioned_displacement(state: FockState, beta: complex, kick: float = 0.0) -> FockState:
    """exp(i·kick·x̂_S)·exp[(βâ†_R − β*â_R)x̂_S] on a (system, resource) state.

    In the x̂_S eigenbasis the gate is a direct sum of resource displacements
    D(βλ) times the scalar phase e^{i·kick·λ}.  Equal to the dense
    momentum_shift_gate(kick) after qnd_gate(β) of ``cubicphase.reference`` to
    machine precision, and with β = −s/√2, kick = 0 to qnd_prime_gate(strength=s).
    """
    sys_c, res_c = state.cutoffs
    _, v = x_eigh(sys_c)
    gates = _x_conditioned_gates(complex(beta), float(kick), sys_c, res_c)
    psi_x = real_matmul(v.T, state.amplitudes.reshape(sys_c, res_c))
    out = (gates @ psi_x[:, :, None]).reshape(sys_c, res_c)
    return FockState(real_matmul(v, out).reshape(-1), state.cutoffs, normalized=False)
