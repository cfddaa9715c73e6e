"""Gaussian gate constructors: displacement, squeezing, beamsplitter, QND couplings.

All gates are exact matrix exponentials of the truncated generator
(scipy's scaling-and-squaring), so unitarity holds on the interior block and
degrades only at the truncation boundary.  The simulator's fast path,
apply_x_conditioned_displacement, is a cached spectral construction equal to
them to machine precision, squeezed_vacuum is S(r)|0⟩ and hilbert.coherent
D(α)|0⟩ in closed form; the dense gates stay as the reference oracles the
tests compare against.

Conventions fixed here:

* beamsplitter: coherent inputs map as |ζ⟩|0⟩ → |√T ζ⟩ ⊗ |−√(1−T) ζ⟩; the
  remaining phase freedom is resolved as the standard real orthogonal mixing.
* squeeze_gate(r): parameterized by the position-space Gaussian width r, i.e.
  the squeezed vacuum has ⟨x̂²⟩ = r/2 (r = 1 is the identity on |0⟩).  The
  usual log-squeeze parameter is s = −½ ln r.
* qnd_gate(β) = exp[(β â†_R − β* â_R) x̂_S]: displaces the resource mode by
  β·x conditioned on the system position.  Acting on |x⟩|A⟩ with real A it
  produces |x⟩|A + βx⟩ times a system phase e^{i x A Im β}; the compensating
  momentum shift is exp(−i A Im(β) x̂_S), available as momentum_shift_gate.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import CutoffError, DimensionError
from .hilbert import (
    FockOperator,
    FockState,
    _as_cutoffs,
    annihilation,
    coherent_truncation_loss,
    expm,
    quadrature_coefficients,
    quadrature_p,
    quadrature_x,
    real_matmul,
    tensor,
    identity,
)


def displacement_gate(alpha: complex, cutoff: int, max_loss: float = 1e-8) -> FockOperator:
    """D(α) = exp(α â† − α* â).  Requires the cutoff to hold |α| (coherent tail rule).

    Reference oracle for the tests; the simulator's displacements are the
    cached spectral ones of ``apply_x_conditioned_displacement``.
    """
    loss = coherent_truncation_loss(alpha, cutoff)
    if loss >= max_loss:
        raise CutoffError(
            f"displacement |α|={abs(alpha):.3g} loses {loss:.2e} at cutoff {cutoff}"
        )
    a = annihilation(cutoff).matrix
    gen = alpha * a.conj().T - np.conj(alpha) * a
    return FockOperator(expm(gen), (int(cutoff),))


def momentum_shift_gate(c: float, cutoff: int) -> FockOperator:
    """exp(i c x̂): displaces p̂ by c.  Compensates QND coupling phases.

    Reference oracle for the tests; the simulator applies the compensation as
    the ``kick`` phase of ``apply_x_conditioned_displacement``.
    """
    x = quadrature_x(cutoff).matrix
    return FockOperator(expm(1j * float(c) * x), (int(cutoff),))


def qnd_compensation_kick(beta: complex, base_amplitude: float) -> float:
    """Momentum shift c such that momentum_shift_gate(c) cancels the x-dependent
    phase picked up by qnd_gate(β) on a resource of real base amplitude A."""
    return -float(base_amplitude) * float(np.imag(beta))


def beamsplitter_gate(transmittance: float, cutoffs) -> FockOperator:
    """Two-mode beamsplitter with |ζ⟩|0⟩ → |√T ζ⟩|−√(1−T) ζ⟩ on coherent inputs.

    ``cutoffs`` are the (transmitted, reflected) mode dimensions; T ∈ (0, 1].
    """
    T = float(transmittance)
    if not 0.0 < T <= 1.0:
        raise ValueError(f"transmittance {T} outside (0, 1]")
    cutoffs = tuple(int(c) for c in cutoffs)
    if len(cutoffs) != 2:
        raise DimensionError("beamsplitter_gate acts on exactly two modes")
    d1, d2 = cutoffs
    if T == 1.0:
        return identity(cutoffs)
    theta = math.acos(math.sqrt(T))
    a1 = tensor(annihilation(d1), identity((d2,))).matrix
    a2 = tensor(identity((d1,)), annihilation(d2)).matrix
    gen = theta * (a1.conj().T @ a2 - a2.conj().T @ a1)
    return FockOperator(expm(gen), cutoffs)


def _two_mode_order(cutoffs, system_mode, resource_mode):
    cutoffs = tuple(int(c) for c in cutoffs)
    if len(cutoffs) != 2:
        raise DimensionError("QND gates act on exactly two modes")
    if {system_mode, resource_mode} != {0, 1}:
        raise DimensionError("system_mode/resource_mode must be a permutation of (0, 1)")
    return cutoffs


def qnd_gate(beta: complex, cutoffs, system_mode: int = 0, resource_mode: int = 1) -> FockOperator:
    """exp[(β â†_R − β* â_R) x̂_S]: QND coupling of system position to the resource.

    Commutes with x̂_S, so the system position distribution is untouched.
    Reference oracle for the tests; the simulator uses
    ``apply_x_conditioned_displacement(state, β, kick)``.
    """
    cutoffs = _two_mode_order(cutoffs, system_mode, resource_mode)
    xs = quadrature_x(cutoffs[system_mode])
    a = annihilation(cutoffs[resource_mode]).matrix
    disp = beta * a.conj().T - np.conj(beta) * a
    disp_op = FockOperator(disp, (cutoffs[resource_mode],))
    if system_mode == 0:
        gen = tensor(xs, disp_op)
    else:
        gen = tensor(disp_op, xs)
    return FockOperator(expm(gen.matrix), cutoffs)


def qnd_prime_gate(cutoffs, system_mode: int = 0, resource_mode: int = 1,
                   strength: float = 1.0) -> FockOperator:
    """exp(i s x̂_S p̂_R): shifts the resource position by −s·x_S.

    On wavefunctions, Ψ(x, x_R) → Ψ(x, x_R + s·x), which is the coupling that
    writes the system position onto the resource homodyne record.
    Reference oracle for the tests; the simulator uses
    ``apply_x_conditioned_displacement(state, −s/√2)``, since e^{isλp̂} = D(−sλ/√2).
    """
    cutoffs = _two_mode_order(cutoffs, system_mode, resource_mode)
    xs = quadrature_x(cutoffs[system_mode])
    pr = quadrature_p(cutoffs[resource_mode])
    if system_mode == 0:
        gen = tensor(xs, pr)
    else:
        gen = tensor(pr, xs)
    return FockOperator(expm(1j * float(strength) * gen.matrix), cutoffs)


def squeezed_vacuum_truncation_loss(r_width: float, cutoff: int) -> float:
    """Tail mass of the r-width squeezed vacuum above the cutoff: 1 − Σ|c_{2k}|²."""
    amp = squeezed_vacuum(r_width, cutoff, max_loss=math.inf).amplitudes.real
    return float(max(0.0, 1.0 - amp @ amp))


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


def squeeze_gate(r_width: float, cutoff: int, max_loss: float = 1e-8) -> FockOperator:
    """Single-mode squeezer whose vacuum image has ⟨x̂²⟩ = r_width/2.

    Internally S = exp[s(â² − â†²)/2] with s = −½ ln r_width.  Reference
    oracle for the tests and the squeezed frame; the Marek resource uses
    ``squeezed_vacuum`` instead.
    """
    squeezed_vacuum(r_width, cutoff, max_loss)  # the width and truncation checks
    s = -0.5 * math.log(float(r_width))
    a = annihilation(cutoff).matrix
    gen = 0.5 * s * (a @ a - a.conj().T @ a.conj().T)
    return FockOperator(expm(gen), (int(cutoff),))


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
    a = annihilation(cutoff).matrix
    w, v = np.linalg.eigh(1j * (a.conj().T - a))
    w.flags.writeable = False
    v.flags.writeable = False
    return w, v


@lru_cache(maxsize=64)
def _x_conditioned_gates(beta: complex, kick: float, sys_c: int, res_c: int) -> np.ndarray:
    """Per-x̂_S-eigenvalue resource displacements e^{i·kick·λ}D(βλ), stacked,
    from the spectral form of D; equal to displacement_gate to machine precision."""
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
    D(βλ) times the scalar phase e^{i·kick·λ}.  Equal to momentum_shift_gate(kick)
    after qnd_gate(β) to machine precision, and with β = −s/√2, kick = 0 to
    qnd_prime_gate(strength=s).
    """
    sys_c, res_c = state.cutoffs
    _, v = x_eigh(sys_c)
    gates = _x_conditioned_gates(complex(beta), float(kick), sys_c, res_c)
    psi_x = real_matmul(v.T, state.amplitudes.reshape(sys_c, res_c))
    out = (gates @ psi_x[:, :, None]).reshape(sys_c, res_c)
    return FockState(real_matmul(v, out).reshape(-1), state.cutoffs, normalized=False)
