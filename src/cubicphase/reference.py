"""Dense reference oracles: the Fock-matrix constructions the engine replaces.

The engine modules hold only what a CLI subcommand, a Marek shot or the
library entry points ``full_gate`` and ``rus_factor`` run.  Everything here is
the independent, dense route the tests check the engine against: operators as
``FockOperator`` matrices, gates as exact matrix exponentials of their
truncated generators (scipy's scaling-and-squaring), and the subtraction
protocol on a truncated Fock resource and ancilla.  So are the
dense operator-identity reports, one at a time, which check the banded
fits ``cubic.identity_rows`` runs for check-identities.  Nothing here
runs an engine driver (``analysis``, ``cli``), and no engine module imports
this one, so scipy loads only with it.

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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from .errors import CutoffError, DegenerateOutcomeError, DimensionError
from .gaussian import displace_columns, squeezed_vacuum, x_eigh
from .hilbert import (FockState, _as_cutoffs, _mean_photons, coherent,
                      quadrature_coefficients, real_matmul)
from .protocol import HEADROOM_BOUND, DetectorModel, _inverse_cdf
from .schemes import _feed_forward_phase

# Refuse tensor products beyond this total dimension (dense-matrix budget).
MAX_TENSOR_DIM = 400_000


# ---------------------------------------------------------------------------
# operators on the truncated Fock space


@dataclass
class FockOperator:
    """Dense square operator on a truncated Fock space."""

    matrix: np.ndarray
    cutoffs: tuple[int, ...]

    def __post_init__(self):
        self.cutoffs = _as_cutoffs(self.cutoffs)
        m = np.ascontiguousarray(self.matrix, dtype=complex)
        d = int(np.prod(self.cutoffs))
        if m.shape != (d, d):
            raise DimensionError(f"matrix shape {m.shape} != ({d}, {d})")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        if self.cutoffs != other.cutoffs:
            raise DimensionError("operator cutoffs differ")
        return FockOperator(self.matrix @ other.matrix, self.cutoffs)


def vacuum(cutoffs) -> FockState:
    """|0…0⟩ on the given mode cutoffs."""
    cutoffs = _as_cutoffs(cutoffs)
    amp = np.zeros(int(np.prod(cutoffs)), dtype=complex)
    amp[0] = 1.0
    return FockState(amp, cutoffs)


def number_state(ns, cutoffs) -> FockState:
    """Product Fock state |n₀ n₁ …⟩."""
    cutoffs = _as_cutoffs(cutoffs)
    ns = tuple(int(n) for n in (ns if np.iterable(ns) else (ns,)))
    if len(ns) != len(cutoffs):
        raise DimensionError("one occupation per mode required")
    for n, c in zip(ns, cutoffs):
        if not 0 <= n < c:
            raise DimensionError(f"occupation {n} outside [0, {c})")
    amp = np.zeros(int(np.prod(cutoffs)), dtype=complex)
    amp[int(np.ravel_multi_index(ns, cutoffs))] = 1.0
    return FockState(amp, cutoffs)


def normalize(state: FockState) -> FockState:
    """The state divided by its norm."""
    n = float(np.linalg.norm(state.amplitudes))
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return FockState(state.amplitudes / n, state.cutoffs, normalized=True)


def density_matrix(state: FockState) -> np.ndarray:
    """|ψ⟩⟨ψ| of the state's amplitudes, unnormalized."""
    a = state.amplitudes
    return np.outer(a, a.conj())


def coherent_truncation_loss(alpha: complex, cutoff: int) -> float:
    """Probability mass of |α⟩ above the cutoff: e^{−λ} Σ_{n≥cutoff} λⁿ/n!, λ = |α|².

    Summed directly to 12√λ + 40 past the larger of the cutoff and λ (the rest
    holds < 1e-25 of it), each term the one before times λ/n: as running
    products while e^{−λ} is a normal float, else in log space.
    """
    lam = _mean_photons(alpha)
    if lam == 0.0:
        return 0.0
    c, spread = int(cutoff), 12.0 * math.sqrt(lam) + 40.0
    if not c >= lam - spread:  # the tail rounds to 1; also for a NaN or infinite λ
        return 1.0
    ratios = np.concatenate(([1.0], lam / np.arange(1, int(max(c, lam) + spread) + 1)))
    terms = (math.exp(-lam) * np.cumprod(ratios) if lam < 700.0
             else np.exp(np.cumsum(np.log(ratios)) - lam))
    return float(terms[c:].sum())


def annihilation(cutoff: int) -> FockOperator:
    """Ladder operator â with ⟨n−1|â|n⟩ = √n."""
    cutoff = int(cutoff)
    if cutoff < 2:
        raise DimensionError("cutoff must be at least 2")
    return FockOperator(np.diag(np.sqrt(np.arange(1, cutoff)), 1), (cutoff,))


def number_op(cutoff: int) -> FockOperator:
    m = np.diag(np.arange(int(cutoff), dtype=float)).astype(complex)
    return FockOperator(m, (int(cutoff),))


def identity(cutoffs) -> FockOperator:
    cutoffs = _as_cutoffs(cutoffs)
    return FockOperator(np.eye(int(np.prod(cutoffs)), dtype=complex), cutoffs)


def quadrature_x(cutoff: int) -> FockOperator:
    a = annihilation(cutoff).matrix
    return FockOperator((a + a.conj().T) / math.sqrt(2.0), (int(cutoff),))


def quadrature_p(cutoff: int) -> FockOperator:
    a = annihilation(cutoff).matrix
    return FockOperator((a - a.conj().T) / (1j * math.sqrt(2.0)), (int(cutoff),))


# ---------------------------------------------------------------------------
# composition and application


def tensor(a, b):
    """Kronecker composition of two states or of two operators (mode 0 slowest)."""
    kind = type(a)
    if kind not in (FockState, FockOperator) or type(b) is not kind:
        raise TypeError("tensor expects two FockStates or two FockOperators")
    dim = math.prod(a.cutoffs + b.cutoffs)
    if dim > MAX_TENSOR_DIM:
        raise DimensionError(f"tensor dimension {dim} exceeds limit {MAX_TENSOR_DIM}")
    if kind is FockState:
        return FockState(np.kron(a.amplitudes, b.amplitudes), a.cutoffs + b.cutoffs,
                         normalized=a.normalized and b.normalized)
    return FockOperator(np.kron(a.matrix, b.matrix), a.cutoffs + b.cutoffs)


def apply(op: FockOperator, state: FockState, modes=None) -> FockState:
    """Apply an operator to a state, optionally on a subset of modes.

    ``modes`` lists the state modes the operator acts on, in the operator's
    own mode order.  Default: the operator spans all modes of the state.
    """
    if modes is None:
        modes = tuple(range(len(state.cutoffs)))
    modes = tuple(int(m) for m in modes)
    if len(modes) != len(op.cutoffs):
        raise DimensionError("operator mode count differs from `modes`")
    if len(set(modes)) != len(modes):
        raise DimensionError("duplicate mode index")
    for m, c in zip(modes, op.cutoffs):
        if not 0 <= m < len(state.cutoffs):
            raise DimensionError(f"mode {m} not in state")
        if state.cutoffs[m] != c:
            raise DimensionError(f"cutoff mismatch on mode {m}: {state.cutoffs[m]} vs {c}")

    psi = state.amplitudes.reshape(state.cutoffs)
    # move acted-on modes to the front, flatten, matmul, restore
    rest = [m for m in range(len(state.cutoffs)) if m not in modes]
    perm = list(modes) + rest
    psi = np.transpose(psi, perm)
    front = int(np.prod([state.cutoffs[m] for m in modes]))
    out = op.matrix @ psi.reshape(front, -1)
    out = out.reshape([state.cutoffs[m] for m in perm])
    out = np.transpose(out, np.argsort(perm)).reshape(-1)
    return FockState(out, state.cutoffs, normalized=False)


def partial_trace(state_or_dm, cutoffs, keep) -> np.ndarray:
    """Reduced density matrix over the ``keep`` modes.

    Accepts a FockState, an amplitude vector, or a density matrix; ``cutoffs``
    is ignored for FockState input.
    """
    if isinstance(state_or_dm, FockState):
        cutoffs = state_or_dm.cutoffs
        vec = state_or_dm.amplitudes
        rho = None
    else:
        arr = np.asarray(state_or_dm, dtype=complex)
        cutoffs = _as_cutoffs(cutoffs)
        if arr.ndim == 1:
            vec, rho = arr, None
        else:
            vec, rho = None, arr

    keep = tuple(int(k) for k in (keep if np.iterable(keep) else (keep,)))
    if not keep:
        raise DimensionError("keep set must be non-empty")
    if len(set(keep)) != len(keep) or any(not 0 <= k < len(cutoffs) for k in keep):
        raise DimensionError(f"invalid keep set {keep} for {len(cutoffs)} modes")

    drop = [m for m in range(len(cutoffs)) if m not in keep]
    dk = int(np.prod([cutoffs[k] for k in keep]))
    if vec is not None:
        psi = vec.reshape(cutoffs)
        psi = np.transpose(psi, list(keep) + drop).reshape(dk, -1)
        return psi @ psi.conj().T
    rho = rho.reshape(cutoffs + cutoffs)
    n = len(cutoffs)
    perm = list(keep) + drop + [n + m for m in keep] + [n + m for m in drop]
    rho = np.transpose(rho, perm)
    dd = int(np.prod([cutoffs[m] for m in drop])) if drop else 1
    rho = rho.reshape(dk, dd, dk, dd)
    return np.einsum("ajbj->ab", rho)


# ---------------------------------------------------------------------------
# scalar diagnostics


def expectation(op: FockOperator, state: FockState) -> complex:
    """⟨s|Ô|s⟩ / ⟨s|s⟩."""
    if int(np.prod(op.cutoffs)) != state.amplitudes.size:
        raise DimensionError("operator and state dimensions differ")
    a = state.amplitudes
    return complex(np.vdot(a, op.matrix @ a) / np.vdot(a, a))


def _psd_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the Hermitian part of a PSD matrix m.  Eigenvalues within
    rounding of zero are set to zero: their square roots (~1e-8) would swamp
    the result."""
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    floor = w.size * np.finfo(float).eps * np.abs(w).max()
    return np.where(w > floor, w, 0.0), v


def fidelity(a: FockState, b: FockState) -> float:
    """|⟨a|b⟩|² for pure states (norm-insensitive)."""
    if a.cutoffs != b.cutoffs:
        raise DimensionError("state cutoffs differ")
    ov = np.vdot(a.amplitudes, b.amplitudes)
    return float(abs(ov) ** 2 / (np.vdot(a.amplitudes, a.amplitudes).real * np.vdot(b.amplitudes, b.amplitudes).real))


def state_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (Tr√(√ρ σ √ρ))² between density matrices.

    Both square roots come from eigendecompositions of positive semidefinite
    matrices, so rank-deficient (e.g. pure) inputs are exact.  The simulator
    keeps pure states, whose overlap is ``fidelity``.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    w, v = _psd_eigh(rho)
    sq = (v * np.sqrt(w)) @ v.conj().T
    val = float(np.sqrt(_psd_eigh(sq @ sigma @ sq)[0]).sum())
    return float(min(1.0, max(0.0, val * val)))


# ---------------------------------------------------------------------------
# interior-block norms: operator identities involving p̂² or high powers of x̂
# are corrupted near the top of the truncated basis, so they are compared on
# the sub-block that excludes the highest Fock levels


def interior_mask(cutoffs, margin: int) -> np.ndarray:
    """Boolean mask of basis states with every mode index < cutoff − margin."""
    cutoffs = _as_cutoffs(cutoffs)
    mask = np.ones(int(np.prod(cutoffs)), dtype=bool)
    grid = np.indices(cutoffs).reshape(len(cutoffs), -1)
    for m, c in enumerate(cutoffs):
        mask &= grid[m] < c - int(margin)
    return mask


def interior_block(matrix: np.ndarray, cutoffs, margin: int) -> np.ndarray:
    """Sub-matrix on the basis states of ``interior_mask``; a view for one mode."""
    cutoffs = _as_cutoffs(cutoffs)
    m = np.asarray(matrix)
    keep = cutoffs[0] - int(margin)
    if len(cutoffs) == 1 and keep > 0:
        return m[:keep, :keep]
    mask = interior_mask(cutoffs, margin)
    if not mask.any():
        raise DimensionError(f"margin {margin} leaves no interior block")
    return m[np.ix_(mask, mask)]


def interior_max_norm(matrix, cutoffs=None, margin: int = 2) -> float:
    """Max |entry| of the sub-block excluding the top ``margin`` levels per mode."""
    if isinstance(matrix, FockOperator):
        cutoffs = matrix.cutoffs
        matrix = matrix.matrix
    return float(np.abs(interior_block(matrix, cutoffs, margin)).max())


# ---------------------------------------------------------------------------
# dense Gaussian gates: the engine's displacements run in the x̂ eigenbasis
# (``gaussian.displace_columns``), and the Marek resource is
# ``gaussian.squeezed_vacuum`` in closed form


def apply_x_conditioned_displacement(psi: np.ndarray, beta: complex) -> np.ndarray:
    """exp[(βâ†_R − β*â_R)x̂_S] on the (system, resource) amplitude matrix ψ: the engine's
    ``gaussian.displace_columns`` in the system's x̂ eigenbasis (λ, V).  Equal to the dense
    qnd_gate(β) to machine precision, and with β = −s/√2 to qnd_prime_gate(strength=s)."""
    w, v = x_eigh(psi.shape[0])
    return real_matmul(v, displace_columns(real_matmul(v.T, psi).T, beta, w).T)


def displacement_gate(alpha: complex, cutoff: int, max_loss: float = 1e-8) -> FockOperator:
    """D(α) = exp(α â† − α* â).  Requires the cutoff to hold |α| (coherent tail rule)."""
    loss = coherent_truncation_loss(alpha, cutoff)
    if loss >= max_loss:
        raise CutoffError(
            f"displacement |α|={abs(alpha):.3g} loses {loss:.2e} at cutoff {cutoff}"
        )
    a = annihilation(cutoff).matrix
    gen = alpha * a.conj().T - np.conj(alpha) * a
    return FockOperator(expm(gen), (int(cutoff),))


def momentum_shift_gate(c: float, cutoff: int) -> FockOperator:
    """exp(i c x̂): displaces p̂ by c.  Compensates QND coupling phases, which
    ``_apply_qnd_compensated`` applies as a phase in the x̂ eigenbasis."""
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
    Its form in the x̂ eigenbasis is ``apply_x_conditioned_displacement(ψ, β)``.
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
    writes the system position onto the resource homodyne record.  The
    Marek shot uses ``gaussian.displace_columns(χ, −s/√2, λ)``, since
    e^{isλp̂} = D(−sλ/√2).
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


def squeeze_gate(r_width: float, cutoff: int, max_loss: float = 1e-8) -> FockOperator:
    """Single-mode squeezer whose vacuum image has ⟨x̂²⟩ = r_width/2.

    Internally S = exp[s(â² − â†²)/2] with s = −½ ln r_width.
    """
    squeezed_vacuum(r_width, cutoff, max_loss)  # the width and truncation checks
    s = -0.5 * math.log(float(r_width))
    a = annihilation(cutoff).matrix
    gen = 0.5 * s * (a @ a - a.conj().T @ a.conj().T)
    return FockOperator(expm(gen), (int(cutoff),))


# ---------------------------------------------------------------------------
# the cubic decomposition as dense matrices of the truncated x̂


def factor_operator(gamma_l: complex, cutoff: int) -> FockOperator:
    """Non-unitary linear factor I + γ_l x̂."""
    x = quadrature_x(cutoff).matrix
    return FockOperator(np.eye(int(cutoff), dtype=complex) + gamma_l * x, (int(cutoff),))


def u_n_operator(gamma: float, n: int, cutoff: int) -> FockOperator:
    """(I + i(γ/N)x̂³)^N as a matrix power of the truncated x̂."""
    n = int(n)
    if n < 1:
        raise ValueError("N must be >= 1")
    x = quadrature_x(cutoff).matrix
    x3 = np.linalg.matrix_power(x, 3)
    step = np.eye(int(cutoff), dtype=complex) + 1j * (float(gamma) / n) * x3
    return FockOperator(np.linalg.matrix_power(step, n), (int(cutoff),))


def ideal_cubic_gate(gamma: float, cutoff: int) -> FockOperator:
    """e^{iγx̂³} on the truncated space."""
    x = quadrature_x(cutoff).matrix
    x3 = np.linalg.matrix_power(x, 3)
    return FockOperator(expm(1j * float(gamma) * x3), (int(cutoff),))


# Default low-Fock window for approximant-vs-ideal comparisons.  The O(1/N)
# convergence claim applies to bounded position support; above roughly
# γ·(2n)^{3/2} ≈ 2 the per-eigenvalue error saturates and the comparison stops
# being informative, so at γ = 0.03 the window is the lowest ~10 levels.
CONVERGENCE_WINDOW = 10


def u_n_convergence_norms(gamma: float, n_list, cutoff: int,
                          window: int = CONVERGENCE_WINDOW) -> list[float]:
    """Max-norms of U_N(γ) − e^{iγx̂³} on the lowest ``window`` Fock levels."""
    window = int(window)
    if not 1 <= window <= int(cutoff):
        raise DimensionError(f"window {window} outside [1, {cutoff}]")
    ideal = ideal_cubic_gate(gamma, cutoff).matrix
    out = []
    for n in n_list:
        diff = u_n_operator(gamma, n, cutoff).matrix - ideal
        out.append(float(np.abs(diff[:window, :window]).max()))
    return out


# ---------------------------------------------------------------------------
# one operator-identity report at a time, as dense matrices: the oracle of the
# banded fits ``cubic.identity_rows`` runs for check-identities


@dataclass(frozen=True)
class IdentityReport:
    """Best-fit proportionality between a target operator, phase·real_lhs, and a
    nested-commutator construction, phase·real_rhs, with the residual after
    removing the fitted part, relative to the construction's largest entry.
    Both hold the interior block, the top-left (cutoff − margin)² entries."""

    name: str
    cutoff: int
    margin: int
    fitted_constant: float
    residual: float
    real_lhs: np.ndarray
    real_rhs: np.ndarray
    phase: complex


def power_table(m: np.ndarray, k: int) -> list:
    """[None, m, m², …, m^k] by repeated matmul; no report reads the identity."""
    table = [None, m]
    for _ in range(k - 1):
        table.append(table[-1] @ m)
    return table


def _real_quadratures(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """x̂ and P = (â − â†)/√2 as dense real matrices; p̂ = −iP."""
    up = np.diag(quadrature_coefficients(cutoff), 1)  # â/√2
    return up + up.T, up - up.T


def _comm(u, v, parity: int, keep: int | None = None):
    """The top-left keep×keep block of [u, v] (all of it by default) by one product
    u[:keep] @ v[:, :keep]: vu = parity·(uv)ᵀ when uᵀ = ±u, vᵀ = ±v (signs' product)."""
    uv = u[:keep] @ v[:, :keep]
    return uv - uv.T if parity == 1 else uv + uv.T


def _interior(cutoff: int, margin: int) -> int:
    """The size of the interior block, which leaves out the top ``margin`` levels."""
    keep = int(cutoff) - int(margin)
    if keep < 1:
        raise DimensionError(f"margin {margin} leaves no interior block")
    return keep


def _fit_report(name, lb, rb, cutoff, margin, phase: complex = 1.0) -> IdentityReport:
    """Fit rb ≈ c·lb on the interior blocks of real matrices that equal the
    operators up to the common unit factor ``phase``, which the fit does not see."""
    c = float(np.vdot(lb, rb) / np.vdot(lb, lb))
    residual = float(np.abs(c * lb - rb).max() / np.abs(rb).max())
    return IdentityReport(name, int(cutoff), int(margin), c, residual, lb, rb, complex(phase))


def monomial_identity_report(m: int, cutoff: int, margin: int | None = None) -> IdentityReport:
    """Fit c in c·x̂^m ≈ (−2/(3(m−1)))·[x̂^{m−1}, [x̂³, p̂²]].

    The constant is reported, not asserted: under this package's [x̂,p̂] = i
    convention the construction evaluates to 4·x̂^m.  Computed in real
    arithmetic: [x̂³, p̂²] = [P², x̂³].
    """
    m = int(m)
    if m < 4:
        raise ValueError("monomial identity requires m >= 4")
    margin = max(5, m + 2) if margin is None else margin
    keep = _interior(cutoff, margin)
    x, P = _real_quadratures(cutoff)
    xs = power_table(x, m)
    rhs = _comm(xs[m - 1], _comm(P @ P, xs[3], 1), -1, keep)
    rhs *= -2.0 / (3.0 * (m - 1))
    return _fit_report(f"monomial_m{m}", xs[m][:keep, :keep], rhs, cutoff, margin)


def polynomial_identity_report(m: int, n: int, cutoff: int,
                               margin: int | None = None) -> IdentityReport:
    """Fit c in c·(x̂^m p̂^n + p̂^n x̂^m) ≈ the commutator construction

        (−4i/((n+1)(m+1)))[x̂^{m+1}, p̂^{n+1}]
            − (1/(n+1)) Σ_{k=1}^{n−1} [p̂^{n−k}, [x̂^m, p̂^k]].

    Evaluates to 2·LHS under this convention for the small (m, n) exercised
    here; for n ≥ 2 with m ≥ 2 the construction additionally carries a scalar
    (identity) remainder which inflates the reported residual.

    Computed in real arithmetic: with p̂ = −iP every term of both sides
    carries the factor (−i)ⁿ, which the fit does not see.
    """
    m, n = int(m), int(n)
    if m < 1 or n < 1:
        raise ValueError("polynomial identity requires m, n >= 1")
    margin = max(5, m + n + 3) if margin is None else margin
    keep = _interior(cutoff, margin)
    x, P = _real_quadratures(cutoff)
    xs, ps = power_table(x, m + 1), power_table(P, n + 1)
    # x̂^k is symmetric and P^k has transpose parity (−1)^k, so the anticommutator
    # {x̂^m, P^n} is the commutator's construction with the opposite sign
    lhs = _comm(xs[m], ps[n], (-1) ** (n + 1), keep)
    rhs = _comm(xs[m + 1], ps[n + 1], (-1) ** (n + 1), keep)
    rhs *= -4.0 / ((n + 1) * (m + 1))  # −4i·(−i)^{n+1} = −4·(−i)ⁿ
    for k in range(1, n):  # [x̂^m, P^k] has parity (−1)^{k+1}; the outer one reads all of it
        inner = _comm(xs[m], ps[k], (-1) ** k)
        rhs -= _comm(ps[n - k], inner, (-1) ** (n + 1), keep) * (1.0 / (n + 1))
    return _fit_report(f"polynomial_m{m}_n{n}", lhs, rhs, cutoff, margin, phase=(-1j) ** n)


# ---------------------------------------------------------------------------
# the subtraction protocol on a truncated Fock resource and ancilla: the same
# steps as ``protocol.label_gate``, with the ancilla's photon number drawn in
# the same way


def detector_povm(detector: DetectorModel, cutoff: int) -> tuple[FockOperator, FockOperator]:
    """(Π₀, Π_click) with Π₀ diagonal e^{−ν}(1−η)^m and Π_click = I − Π₀."""
    pi0 = np.diag(_povm0_diag(detector.eta, detector.nu, int(cutoff)).astype(complex))
    pick = np.eye(int(cutoff), dtype=complex) - pi0
    return FockOperator(pi0, (int(cutoff),)), FockOperator(pick, (int(cutoff),))


@lru_cache(maxsize=64)
def _beamsplitter(transmittance: float, res_cutoff: int, anc_cutoff: int) -> np.ndarray:
    return beamsplitter_gate(transmittance, (res_cutoff, anc_cutoff)).matrix


@lru_cache(maxsize=64)
def _povm0_diag(eta: float, nu: float, cutoff: int) -> np.ndarray:
    m = np.arange(cutoff)
    d = math.exp(-nu) * (1.0 - eta) ** m
    d.flags.writeable = False
    return d


def _apply_qnd_compensated(state: FockState, beta: complex, base_amplitude: float) -> FockState:
    """Apply exp[(βâ†_R−β*â_R)x̂_S], then its momentum-kick compensation
    e^{i·kick·x̂_S} for a resource of real base amplitude A as a phase in the
    system's x̂ eigenbasis, so |x⟩|A⟩ → |x⟩|A + βx⟩ exactly."""
    sys_c, res_c = state.cutoffs
    w, v = x_eigh(sys_c)
    psi = apply_x_conditioned_displacement(state.amplitudes.reshape(sys_c, res_c), beta)
    kick = np.exp(1j * qnd_compensation_kick(beta, base_amplitude) * w)
    psi = real_matmul(v, kick[:, None] * real_matmul(v.T, psi))
    return FockState(psi.reshape(-1), state.cutoffs, normalized=False)


def couple_resource(state: FockState, alpha1: float, gamma_l: complex, cutoffs) -> FockState:
    """Entangle a fresh coherent resource with the system position.

    Output: ∫ψ(x)|x⟩|α₁(1+γ_l x)⟩_R on cutoffs = (system, resource).  The
    x-dependent displacement phase is compensated so the map is exact.  The
    resource enters as ``coherent(alpha1, res_c)``, which raises CutoffError
    when the resource cutoff cannot hold it.  ``protocol.rus_factor`` leaves
    the label amplitudes unchanged instead, which is what this map does in
    the x̂_S eigenbasis.
    """
    sys_c, res_c = (int(c) for c in cutoffs)
    if state.cutoffs != (sys_c,):
        raise DimensionError("couple_resource expects a single-mode system state")
    two = tensor(state, coherent(alpha1, res_c))
    if gamma_l != 0:
        two = _apply_qnd_compensated(two, gamma_l * alpha1, alpha1)
    # headroom check on the state actually built: the coupled resource must not
    # pile probability against the truncation boundary
    occ = two.amplitudes.reshape(sys_c, res_c)
    top = float(np.sum(np.abs(occ[:, res_c - 2:]) ** 2) / np.sum(np.abs(occ) ** 2))
    if top > HEADROOM_BOUND:
        raise CutoffError(
            f"resource cutoff {res_c} too small: {top:.2e} of the coupled state "
            f"sits in the top two levels"
        )
    return FockState(two.amplitudes, two.cutoffs, normalized=False)


def ideal_project(state: FockState, resource_mode: int = 1,
                  normalized: bool = True) -> tuple[FockState, float]:
    """Project the resource onto the complement of |0⟩ (exact P₀̄ = I − |0⟩⟨0|).

    Returns the post-projection state (renormalized unless ``normalized`` is
    False) and the projection probability ‖P₀̄|Ψ⟩‖².  The one-photon reduction
    of the resource (the small-x approximation) is a separate step:
    ``one_photon_reduce``.
    """
    psi = state.amplitudes.reshape(state.cutoffs)
    sl = [slice(None)] * len(state.cutoffs)
    sl[resource_mode] = 0
    out = np.array(psi, copy=True)
    out[tuple(sl)] = 0.0
    nrm2 = float(np.vdot(out, out).real)
    total = float(np.vdot(psi, psi).real)
    prob = nrm2 / total
    if nrm2 <= 1e-300:
        raise DegenerateOutcomeError("projection onto the non-vacuum resource subspace has zero probability")
    if not normalized:
        return FockState(out.reshape(-1), state.cutoffs, normalized=False), prob
    return FockState(out.reshape(-1) / math.sqrt(nrm2), state.cutoffs), prob


def one_photon_reduce(state: FockState, resource_mode: int = 1) -> FockState:
    """Keep only the |1⟩ component of the resource and renormalize."""
    psi = state.amplitudes.reshape(state.cutoffs)
    out = np.zeros_like(psi)
    sl = [slice(None)] * len(state.cutoffs)
    sl[resource_mode] = 1
    out[tuple(sl)] = psi[tuple(sl)]
    nrm = np.linalg.norm(out)
    if nrm <= 1e-150:
        raise DegenerateOutcomeError("no single-photon component on the resource mode")
    return FockState(out.reshape(-1) / nrm, state.cutoffs)


def subtraction_attempt(
    state: FockState,
    resource_mode: int,
    transmittance: float,
    detector: DetectorModel,
    rng: np.random.Generator,
    ancilla_cutoff: int = 4,
) -> tuple[FockState, str, tuple[float, float], int]:
    """One photon-subtraction attempt on the resource mode.

    Mixes a vacuum ancilla into the resource through the transmittance-T
    beamsplitter, which leaves Σ_m |branch m⟩|m⟩_anc, and samples the
    detector POVM on the ancilla (u = rng.random(), click iff u < p_click).
    A second ``rng.random()`` then picks the ancilla photon number m, with
    weight ‖branch m‖² times the sampled POVM element's diagonal at m, by
    inverse CDF: the detector unravelled by photon number, as in
    ``protocol.label_gate``, so the output is a pure state and the m-weighted
    average of the outputs is the exact post-measurement state.

    Returns (branch m normalized, on the original modes; "click"/"no_click";
    (p_no_click, p_click); m).
    """
    if not 0 <= resource_mode < len(state.cutoffs):
        raise DimensionError(f"resource mode {resource_mode} not in state")
    res_c = state.cutoffs[resource_mode]
    anc_c = int(ancilla_cutoff)
    norm_state = state if state.normalized else normalize(state)

    # move the resource mode to the last axis
    others = [m for m in range(len(state.cutoffs)) if m != resource_mode]
    psi = norm_state.amplitudes.reshape(state.cutoffs)
    mat = np.transpose(psi, others + [resource_mode]).reshape(-1, res_c)

    bs = _beamsplitter(float(transmittance), res_c, anc_c)
    pi0 = _povm0_diag(detector.eta, detector.nu, anc_c)
    # the ancilla enters in vacuum, so only every anc_c-th input column counts
    branches = (mat @ bs[:, ::anc_c].T).reshape(-1, res_c, anc_c)
    weights = np.einsum("ijm,ijm->m", branches.conj(), branches).real
    p_no_click = float(min(1.0, max(0.0, (weights @ pi0) / weights.sum())))
    p_click = 1.0 - p_no_click

    clicked = bool(rng.random() < p_click)
    if clicked and p_click <= 0.0:
        raise DegenerateOutcomeError("click branch has zero probability")
    if not clicked and p_no_click <= 0.0:
        raise DegenerateOutcomeError("no-click branch has zero probability")
    photons = _inverse_cdf((weights * (1.0 - pi0 if clicked else pi0)).cumsum(), rng.random())
    out = branches[:, :, photons]
    out = out / np.linalg.norm(out)

    out = out.reshape([state.cutoffs[m] for m in others] + [res_c])
    inv = np.argsort(others + [resource_mode])
    out = np.transpose(out, inv).reshape(-1)
    return (
        FockState(out, state.cutoffs),
        "click" if clicked else "no_click",
        (p_no_click, p_click),
        photons,
    )


# ---------------------------------------------------------------------------
# the resource-state scheme's squeezed frame and dense feed-forward


def marek_gamma_prime(r_width: float, gamma: float) -> float:
    """Effective cubic coefficient in the squeezed frame: γ·r^{3/2}.

    S(r)†x̂S(r) = √r·x̂ under the width parameterization used here.
    """
    return float(gamma) * float(r_width) ** 1.5


def marek_frame_coefficients(state: FockState, r_width: float,
                             max_loss: float = 1e-8) -> np.ndarray:
    """Amplitudes of S(r)†|state⟩ (the squeezed frame of the resource)."""
    if len(state.cutoffs) != 1:
        raise DimensionError("expected a single-mode state")
    sq = squeeze_gate(r_width, state.cutoffs[0], max_loss=max_loss)
    return sq.matrix.conj().T @ state.amplitudes


def _feed_forward(q: float, gamma: float, cutoff: int) -> FockOperator:
    """U_FF = exp[−iγq³ − 3iγ(x̂+q)x̂q] of the truncated x̂, as V·diag(phase)·Vᵀ
    (dense); ``schemes.marek_gate`` applies its diagonal without forming it."""
    w, v = x_eigh(cutoff)
    return FockOperator((v * _feed_forward_phase(q, gamma, w)) @ v.T, (int(cutoff),))


def marek_restart_mc(p: float, runs: int, rng: np.random.Generator,
                     max_rounds: int = 10_000_000) -> float:
    """Monte Carlo mean attempt count for the restart chain (vectorized rounds);
    ``schemes.marek_restart_mean`` is its exact mean."""
    p = float(p)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    runs = int(runs)
    attempts = np.zeros(runs, dtype=np.int64)
    streak = np.zeros(runs, dtype=np.int8)
    active = np.arange(runs)
    rounds = 0
    while active.size and rounds < max_rounds:
        hit = rng.random(active.size) < p
        attempts[active] += 1
        streak[active] = np.where(hit, streak[active] + 1, 0)
        active = active[streak[active] < 3]
        rounds += 1
    if active.size:
        raise RuntimeError("restart-chain sampling did not terminate")
    return float(attempts.mean())
