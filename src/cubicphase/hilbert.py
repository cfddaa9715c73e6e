"""Truncated multimode Fock space: states, operators, and linear-algebra utilities.

Quadrature convention used throughout the package:

    x̂ = (â + â†)/√2,   p̂ = (â − â†)/(i√2),   so [x̂, p̂] = i

and the vacuum has ⟨x̂²⟩ = ⟨p̂²⟩ = 1/2.  Readers using the x̂ = (â + â†)/2
convention should halve all quadrature values and quarter all variances.

Mode ordering for composite systems: mode 0 is the slowest-varying index of
the amplitude vector (plain Kronecker order).

Truncation caveat: operator identities involving p̂² or high powers of x̂ are
corrupted near the top of the truncated basis.  ``interior_max_norm`` measures
matrix norms on the sub-block that excludes the highest Fock levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffError, DimensionError

# Refuse tensor products beyond this total dimension (dense-matrix budget).
MAX_TENSOR_DIM = 400_000

NORM_TOL = 1e-10


@dataclass(frozen=True)
class QuadratureConvention:
    """Fixed normalization of the quadrature operators.

    x_scale multiplies (â + â†); the package is written for 1/√2 only and the
    value is recorded so downstream output can state it.
    """

    x_scale: float = 1.0 / math.sqrt(2.0)
    commutator: complex = 1j  # [x̂, p̂]


CONVENTION = QuadratureConvention()


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
        if amp.ndim != 1 or amp.size != int(np.prod(self.cutoffs)):
            raise DimensionError(
                f"amplitude length {amp.size} != product of cutoffs {self.cutoffs}"
            )
        if not np.all(np.isfinite(amp.view(float))):
            raise ValueError("amplitudes contain NaN/Inf")
        if self.normalized and abs(np.linalg.norm(amp) - 1.0) >= NORM_TOL:
            raise ValueError("normalized flag set but norm deviates from 1")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    @property
    def n_modes(self) -> int:
        return len(self.cutoffs)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalize(self) -> "FockState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return FockState(self.amplitudes / n, self.cutoffs, normalized=True)

    def density_matrix(self) -> np.ndarray:
        a = self.amplitudes
        return np.outer(a, a.conj())


@dataclass
class FockOperator:
    """Dense square operator on a truncated Fock space."""

    matrix: np.ndarray
    cutoffs: tuple[int, ...]
    hermitian_hint: bool = False
    unitary_hint: bool = False

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

    def dagger(self) -> "FockOperator":
        return FockOperator(
            self.matrix.conj().T,
            self.cutoffs,
            hermitian_hint=self.hermitian_hint,
            unitary_hint=self.unitary_hint,
        )

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        if self.cutoffs != other.cutoffs:
            raise DimensionError("operator cutoffs differ")
        return FockOperator(self.matrix @ other.matrix, self.cutoffs)


# ---------------------------------------------------------------------------
# constructors


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


def coherent_truncation_loss(alpha: complex, cutoff: int) -> float:
    """Probability mass of |α⟩ above the cutoff: e^{−|α|²} Σ_{n≥cutoff} |α|^{2n}/n!."""
    lam = abs(alpha) ** 2
    if lam == 0.0:
        return 0.0
    # complement of the Poisson CDF at cutoff-1, summed in log space
    n = np.arange(int(cutoff))
    logs = -lam + n * np.log(lam) - np.cumsum(np.concatenate(([0.0], np.log(n[1:]))))
    kept = np.exp(logs).sum()
    return float(max(0.0, 1.0 - kept))


COHERENT_LOSS_TOL = 1e-8


def coherent(alpha: complex, cutoff: int, max_loss: float = COHERENT_LOSS_TOL) -> FockState:
    """Coherent state |α⟩ with amplitudes e^{−|α|²/2} αⁿ/√(n!), renormalized.

    Raises CutoffError when the truncated tail exceeds ``max_loss``.
    """
    cutoff = int(cutoff)
    loss = coherent_truncation_loss(alpha, cutoff)
    if loss >= max_loss:
        raise CutoffError(
            f"coherent(|α|={abs(alpha):.3g}) loses {loss:.2e} probability at cutoff "
            f"{cutoff} (tolerance {max_loss:.1e})"
        )
    amp = np.zeros(cutoff, dtype=complex)
    amp[0] = np.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(1, cutoff):
        amp[n] = amp[n - 1] * alpha / math.sqrt(n)
    amp /= np.linalg.norm(amp)
    return FockState(amp, (cutoff,))


def annihilation(cutoff: int) -> FockOperator:
    """Ladder operator â with ⟨n−1|â|n⟩ = √n."""
    cutoff = int(cutoff)
    if cutoff < 2:
        raise DimensionError("cutoff must be at least 2")
    m = np.zeros((cutoff, cutoff), dtype=complex)
    for n in range(1, cutoff):
        m[n - 1, n] = math.sqrt(n)
    return FockOperator(m, (cutoff,))


def creation(cutoff: int) -> FockOperator:
    return annihilation(cutoff).dagger()


def number_op(cutoff: int) -> FockOperator:
    m = np.diag(np.arange(int(cutoff), dtype=float)).astype(complex)
    return FockOperator(m, (int(cutoff),), hermitian_hint=True)


def identity(cutoffs) -> FockOperator:
    cutoffs = _as_cutoffs(cutoffs)
    return FockOperator(
        np.eye(int(np.prod(cutoffs)), dtype=complex),
        cutoffs,
        hermitian_hint=True,
        unitary_hint=True,
    )


def quadrature_x(cutoff: int) -> FockOperator:
    a = annihilation(cutoff).matrix
    return FockOperator((a + a.conj().T) / math.sqrt(2.0), (int(cutoff),), hermitian_hint=True)


def quadrature_p(cutoff: int) -> FockOperator:
    a = annihilation(cutoff).matrix
    return FockOperator((a - a.conj().T) / (1j * math.sqrt(2.0)), (int(cutoff),), hermitian_hint=True)


# ---------------------------------------------------------------------------
# composition and application


def tensor(a, b):
    """Kronecker composition of two states or two operators (mode 0 slowest)."""
    if isinstance(a, FockState) and isinstance(b, FockState):
        if a.dim * b.dim > MAX_TENSOR_DIM:
            raise DimensionError(f"tensor dimension {a.dim * b.dim} exceeds limit {MAX_TENSOR_DIM}")
        return FockState(
            np.kron(a.amplitudes, b.amplitudes),
            a.cutoffs + b.cutoffs,
            normalized=a.normalized and b.normalized,
        )
    if isinstance(a, FockOperator) and isinstance(b, FockOperator):
        if a.dim * b.dim > MAX_TENSOR_DIM:
            raise DimensionError(f"tensor dimension {a.dim * b.dim} exceeds limit {MAX_TENSOR_DIM}")
        return FockOperator(
            np.kron(a.matrix, b.matrix),
            a.cutoffs + b.cutoffs,
            hermitian_hint=a.hermitian_hint and b.hermitian_hint,
            unitary_hint=a.unitary_hint and b.unitary_hint,
        )
    raise TypeError("tensor expects two FockStates or two FockOperators")


def apply(op: FockOperator, state: FockState, modes=None) -> FockState:
    """Apply an operator to a state, optionally on a subset of modes.

    ``modes`` lists the state modes the operator acts on, in the operator's
    own mode order.  Default: the operator spans all modes of the state.
    """
    if modes is None:
        modes = tuple(range(state.n_modes))
    modes = tuple(int(m) for m in modes)
    if len(modes) != len(op.cutoffs):
        raise DimensionError("operator mode count differs from `modes`")
    if len(set(modes)) != len(modes):
        raise DimensionError("duplicate mode index")
    for m, c in zip(modes, op.cutoffs):
        if not 0 <= m < state.n_modes:
            raise DimensionError(f"mode {m} not in state")
        if state.cutoffs[m] != c:
            raise DimensionError(f"cutoff mismatch on mode {m}: {state.cutoffs[m]} vs {c}")

    psi = state.amplitudes.reshape(state.cutoffs)
    # move acted-on modes to the front, flatten, matmul, restore
    rest = [m for m in range(state.n_modes) if m not in modes]
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


def dominant_pure_component(state: FockState, keep) -> tuple[FockState, float]:
    """Dominant pure component of the reduced state on ``keep`` modes.

    Returns (pure state on kept modes, purity of the reduced state).  Used to
    discard measured-out modes that should leave the rest (nearly) pure.
    """
    keep = tuple(int(k) for k in (keep if np.iterable(keep) else (keep,)))
    drop = [m for m in range(state.n_modes) if m not in keep]
    psi = state.amplitudes.reshape(state.cutoffs)
    psi = np.transpose(psi, list(keep) + drop)
    dk = int(np.prod([state.cutoffs[k] for k in keep]))
    mat = psi.reshape(dk, -1)
    # diagonalize the Gram matrix on whichever side is smaller
    if mat.shape[1] <= dk:
        gram = mat.conj().T @ mat
        tr = gram.trace().real
        w, v = np.linalg.eigh(gram)
        lead = mat @ v[:, -1]
    else:
        gram = mat @ mat.conj().T
        tr = gram.trace().real
        w, v = np.linalg.eigh(gram)
        lead = v[:, -1]
    purity = float((w @ w).real / tr**2)
    lead = lead / np.linalg.norm(lead)
    return FockState(lead, tuple(state.cutoffs[k] for k in keep)), purity


# ---------------------------------------------------------------------------
# scalar diagnostics


def fidelity(a: FockState, b: FockState) -> float:
    """|⟨a|b⟩|² for pure states (norm-insensitive)."""
    if a.cutoffs != b.cutoffs:
        raise DimensionError("state cutoffs differ")
    ov = np.vdot(a.amplitudes, b.amplitudes)
    return float(abs(ov) ** 2 / (np.vdot(a.amplitudes, a.amplitudes).real * np.vdot(b.amplitudes, b.amplitudes).real))


def expectation(op: FockOperator, state: FockState) -> complex:
    """⟨s|Ô|s⟩ / ⟨s|s⟩."""
    if int(np.prod(op.cutoffs)) != state.dim:
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


def state_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (Tr√(√ρ σ √ρ))² between density matrices.

    Both square roots come from eigendecompositions of positive semidefinite
    matrices, so rank-deficient (e.g. pure) inputs are exact.  Reference
    oracle for the tests; the simulator keeps pure states and uses
    ``fidelity`` instead.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    w, v = _psd_eigh(rho)
    sq = (v * np.sqrt(w)) @ v.conj().T
    val = float(np.sqrt(_psd_eigh(sq @ sigma @ sq)[0]).sum())
    return float(min(1.0, max(0.0, val * val)))


# ---------------------------------------------------------------------------
# interior-block norms


def interior_mask(cutoffs, margin: int) -> np.ndarray:
    """Boolean mask of basis states with every mode index < cutoff − margin."""
    cutoffs = _as_cutoffs(cutoffs)
    mask = np.ones(int(np.prod(cutoffs)), dtype=bool)
    grid = np.indices(cutoffs).reshape(len(cutoffs), -1)
    for m, c in enumerate(cutoffs):
        mask &= grid[m] < c - int(margin)
    return mask


def interior_block(matrix: np.ndarray, cutoffs, margin: int) -> np.ndarray:
    mask = interior_mask(cutoffs, margin)
    if not mask.any():
        raise DimensionError(f"margin {margin} leaves no interior block")
    m = np.asarray(matrix)
    return m[np.ix_(mask, mask)]


def interior_max_norm(matrix, cutoffs=None, margin: int = 2) -> float:
    """Max |entry| of the sub-block excluding the top ``margin`` levels per mode."""
    if isinstance(matrix, FockOperator):
        cutoffs = matrix.cutoffs
        matrix = matrix.matrix
    return float(np.abs(interior_block(matrix, cutoffs, margin)).max())
