"""Repeat-until-success engine: QND coupling, photon subtraction, detector models.

One factor of the decomposition is realized as

    couple:    D_R(α₁), then exp[(β₁â†_R − β₁*â_R)x̂_S] with β₁ = γ_l α₁,
               phase-compensated so |x⟩|0⟩_R → |x⟩|α₁(1+γ_l x)⟩_R exactly;
    subtract:  tap the resource with a transmittance-T beamsplitter into a
               fresh vacuum ancilla, detect the ancilla with a click/no-click
               POVM, repeat until a click (geometric up to attenuation);
    decouple:  after a click at attempt M, exp[(β₂â†_R − β₂*â_R)x̂_S] with
               β₂ = −T^{M/2}α₁γ_l (again compensated) returns the resource to
               a product coherent state, which is traced out.

Every operator here is a function of x̂_S and a beamsplitter keeps a coherent
state coherent, so during a factor the joint state is exactly

    Σ_λ c(λ) |λ⟩_S |T^{k/2} α₁(1+γ_l λ)⟩_R

over the eigenvectors |λ⟩ of the truncated x̂_S.  ``rus_factor`` runs on the
label amplitudes c(λ) alone: coupling and decoupling leave them unchanged,
attempt k meets the coherent ancilla |B_k(λ)⟩ with
B_k(λ) = −√(1−T)·T^{k/2}·α₁(1+γ_l λ), and only the measurement of that
ancilla reweights the labels.  The surviving system state is proportional to
(1 + γ_l x̂)|ψ⟩.  The traced-out ancilla must leave the rest nearly pure
(checked, tolerance ``purity_tol``) before it is replaced by its dominant pure
component.  ``couple_resource``, ``subtraction_attempt`` and
``_attempt_kernel`` are the same steps on a truncated Fock resource; the tests
keep them as the reference the label engine is compared against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .cubic import gamma_factors
from .errors import (
    CutoffError,
    DegenerateOutcomeError,
    DimensionError,
    FactorFailure,
    NumericalDegradationError,
)
from .gaussian import (
    apply_x_conditioned_displacement,
    beamsplitter_gate,
    displacement_factory,
    qnd_compensation_kick,
    x_eigh,
)
from .hilbert import (
    FockOperator,
    FockState,
    coherent_truncation_loss,
    tensor,
    vacuum,
)


def check_bounds(rules) -> None:
    """Raise ValueError naming the first config key whose rule fails.  Each
    rule states what must hold, so a NaN value fails it."""
    for key, ok, rule in rules:
        if not ok:
            raise ValueError(f"config key '{key}' violates constraint ({rule})")


def protocol_bounds(gamma, n, alpha1, transmittance, max_attempts, purity_tol) -> list:
    """The rules on the ProtocolConfig parameters, named by their config keys."""
    return [
        ("gamma", gamma >= 0.0, ">= 0"),
        ("N", int(n) >= 1, ">= 1"),
        ("alpha1", alpha1 > 0.0, "> 0"),
        ("transmittance", 0.0 < transmittance <= 1.0, "in (0, 1]"),
        ("max_attempts", max_attempts >= 1, ">= 1"),
        ("purity_tol", purity_tol > 0.0, "> 0"),
    ]


@dataclass(frozen=True)
class DetectorModel:
    """Click/no-click detector: efficiency η, dark rate, and gating window.

    The no-click POVM element is Π₀ = Σ_m e^{−ν}(1−η)^m |m⟩⟨m| with the
    per-window dark parameter ν = dark_rate_hz · window_s.
    """

    eta: float = 0.9
    dark_rate_hz: float = 100.0
    window_s: float = 1e-10

    def __post_init__(self):
        check_bounds([
            ("eta", 0.0 <= self.eta <= 1.0, "in [0, 1]"),
            ("dark_rate_hz", self.dark_rate_hz >= 0.0, ">= 0"),
            ("window_s", self.window_s > 0.0, "> 0"),
        ])

    @property
    def nu(self) -> float:
        return self.dark_rate_hz * self.window_s


IDEAL_DETECTOR = DetectorModel(eta=1.0, dark_rate_hz=0.0, window_s=1e-10)


def detector_povm(detector: DetectorModel, cutoff: int) -> tuple[FockOperator, FockOperator]:
    """(Π₀, Π_click) with Π₀ diagonal e^{−ν}(1−η)^m and Π_click = I − Π₀."""
    pi0 = np.diag(_povm0_diag(detector.eta, detector.nu, int(cutoff)).astype(complex))
    pick = np.eye(int(cutoff), dtype=complex) - pi0
    return (
        FockOperator(pi0, (int(cutoff),), hermitian_hint=True),
        FockOperator(pick, (int(cutoff),), hermitian_hint=True),
    )


# assumed |x|-range of the input in the weak-subtraction warning
X_SUPPORT = 4.0


@dataclass
class ProtocolConfig:
    """Parameters of the full repeat-until-success gate.

    cutoffs = (system, ancilla); the resource is never truncated, because
    the engine carries it as a coherent amplitude.  A weak-subtraction parameter
    (1−T)·α₁²·(1+|γ_l|·X_SUPPORT)² above 0.1 voids the single-photon
    approximation of the tapped beam and draws a warning.  Invalid values
    raise ValueError naming the config key (``max_attempts`` for
    ``max_attempts_per_factor``).
    """

    gamma: float = 0.03
    n: int = 1
    alpha1: float = 0.2
    transmittance: float = 0.99
    cutoffs: tuple[int, int] = (30, 4)
    max_attempts_per_factor: int = 10_000
    detector: DetectorModel = field(default_factory=DetectorModel)
    purity_tol: float = 1e-4

    def __post_init__(self):
        check_bounds(protocol_bounds(self.gamma, self.n, self.alpha1, self.transmittance,
                                     self.max_attempts_per_factor, self.purity_tol))
        self.cutoffs = tuple(int(c) for c in self.cutoffs)
        if len(self.cutoffs) != 2:
            raise DimensionError("cutoffs must be (system, ancilla)")
        if self.gamma > 0.0:
            gl_mag = (self.gamma / int(self.n)) ** (1.0 / 3.0)
            weak = (1.0 - self.transmittance) * self.alpha1**2 * (1.0 + gl_mag * X_SUPPORT) ** 2
            if weak > 0.1:
                # level 1 is this method, level 2 the generated __init__
                warnings.warn(
                    f"weak-subtraction parameter (1-T)*alpha1^2*(1+|gamma_l|*x)^2 = "
                    f"{weak:.3f} exceeds 0.1; the tapped beam is not single-photon dominated",
                    stacklevel=3,
                )


@dataclass
class FactorRecord:
    """Per-factor trial record: attempts, outcomes, and bookkeeping."""

    factor_index: int
    repetition: int
    attempts: int
    outcomes: list[bool]
    attenuation: float
    success: bool
    first_click_prob: float

    def __post_init__(self):
        if self.success and self.outcomes and not self.outcomes[-1]:
            raise ValueError("success recorded without a final click")


@dataclass
class TrialLog:
    """Aggregated record of one full-gate run (unit cost per attempt)."""

    factors: list[FactorRecord] = field(default_factory=list)

    @property
    def total_attempts(self) -> int:
        return sum(f.attempts for f in self.factors)

    @property
    def success(self) -> bool:
        return all(f.success for f in self.factors)


# ---------------------------------------------------------------------------
# cached building blocks (all cached values are immutable)


@lru_cache(maxsize=64)
def _beamsplitter(transmittance: float, res_cutoff: int, anc_cutoff: int) -> np.ndarray:
    return beamsplitter_gate(transmittance, (res_cutoff, anc_cutoff)).matrix


@lru_cache(maxsize=64)
def _povm0_diag(eta: float, nu: float, cutoff: int) -> np.ndarray:
    m = np.arange(cutoff)
    d = math.exp(-nu) * (1.0 - eta) ** m
    d.flags.writeable = False
    return d


@lru_cache(maxsize=64)
def _displacement_matrix(alpha: complex, cutoff: int) -> np.ndarray:
    m = displacement_factory(cutoff).gate(alpha)
    m.flags.writeable = False
    return m


def _apply_qnd_compensated(state: FockState, beta: complex, base_amplitude: float) -> FockState:
    """Apply exp[(βâ†_R−β*â_R)x̂_S] with its momentum-kick compensation for a
    resource of real base amplitude A, so |x⟩|A⟩ → |x⟩|A + βx⟩ exactly."""
    return apply_x_conditioned_displacement(
        state, beta, qnd_compensation_kick(beta, base_amplitude)
    )


# ---------------------------------------------------------------------------
# protocol operations


def couple_resource(state: FockState, alpha1: float, gamma_l: complex, cutoffs) -> FockState:
    """Entangle a fresh coherent resource with the system position.

    Output: ∫ψ(x)|x⟩|α₁(1+γ_l x)⟩_R on cutoffs = (system, resource).  The
    x-dependent displacement phase is compensated so the map is exact.
    Fock reference for the tests; ``rus_factor`` leaves the label amplitudes
    unchanged instead, which is what this map does in the x̂_S eigenbasis.
    """
    sys_c, res_c = (int(c) for c in cutoffs)
    if state.cutoffs != (sys_c,):
        raise DimensionError("couple_resource expects a single-mode system state")
    if coherent_truncation_loss(alpha1, res_c) >= 1e-8:
        raise CutoffError(f"resource cutoff {res_c} too small for D({alpha1:g})|0⟩")
    two = tensor(state, vacuum((res_c,)))
    disp = _displacement_matrix(complex(alpha1), res_c)
    two = FockState(
        (two.amplitudes.reshape(sys_c, res_c) @ disp.T).reshape(-1),
        (sys_c, res_c),
        normalized=False,
    )
    if gamma_l != 0:
        two = _apply_qnd_compensated(two, gamma_l * alpha1, alpha1)
    # headroom check on the state actually built: the coupled resource must not
    # pile probability against the truncation boundary
    occ = two.amplitudes.reshape(sys_c, res_c)
    top = float(np.sum(np.abs(occ[:, res_c - 2:]) ** 2) / np.sum(np.abs(occ) ** 2))
    if top > 1e-6:
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
    sl = [slice(None)] * state.n_modes
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
    sl = [slice(None)] * state.n_modes
    sl[resource_mode] = 1
    out[tuple(sl)] = psi[tuple(sl)]
    nrm = np.linalg.norm(out)
    if nrm <= 1e-150:
        raise DegenerateOutcomeError("no single-photon component on the resource mode")
    return FockState(out.reshape(-1) / nrm, state.cutoffs)


def _trace_ancilla(flat: np.ndarray, purity_tol: float) -> np.ndarray:
    """Trace the measured ancilla (columns of ``flat``) out of the rest (rows).

    The Gram matrix flat†flat must have purity within ``purity_tol`` of 1;
    its dominant eigenvector picks the kept pure component of the rest,
    returned normalized.
    """
    gram = flat.conj().T @ flat
    tr = gram.trace().real
    w, v = np.linalg.eigh(gram)
    purity = float((w @ w).real / tr**2)
    if 1.0 - purity > purity_tol:
        raise NumericalDegradationError(
            f"post-measurement purity deficit {1.0 - purity:.2e} exceeds {purity_tol:.1e}"
        )
    lead = flat @ v[:, -1]
    return lead / np.linalg.norm(lead)


def _attempt_kernel(mat, bs, pi0, rng, purity_tol):
    """One subtraction attempt on a raw (rest_dims, res) amplitude matrix.

    Returns (post-attempt matrix, clicked, p_no_click, p_click).  The ancilla
    is created, mixed, measured, and traced entirely inside this kernel.
    Fock reference for the tests; ``rus_factor`` measures the coherent
    ancilla in label space with ``_measure_ancilla``.
    """
    rest, res_c = mat.shape
    anc_c = pi0.size
    psi3 = np.zeros((rest, res_c, anc_c), dtype=complex)
    psi3[:, :, 0] = mat
    psi3 = (psi3.reshape(rest, res_c * anc_c) @ bs.T).reshape(rest, res_c, anc_c)

    weights = np.einsum("ijk,ijk->k", psi3.conj(), psi3).real
    total = float(weights.sum())
    p_no_click = float(min(1.0, max(0.0, (weights @ pi0) / total)))
    p_click = 1.0 - p_no_click

    clicked = bool(rng.random() < p_click)
    if clicked and p_click <= 0.0:
        raise DegenerateOutcomeError("click branch has zero probability")
    if not clicked and p_no_click <= 0.0:
        raise DegenerateOutcomeError("no-click branch has zero probability")
    kraus = np.sqrt(np.maximum(0.0, 1.0 - pi0)) if clicked else np.sqrt(pi0)
    psi3 *= kraus[None, None, :]
    lead = _trace_ancilla(psi3.reshape(rest * res_c, anc_c), purity_tol)
    return lead.reshape(rest, res_c), clicked, p_no_click, p_click


def subtraction_attempt(
    state: FockState,
    resource_mode: int,
    transmittance: float,
    detector: DetectorModel,
    rng: np.random.Generator,
    ancilla_cutoff: int = 4,
    purity_tol: float = 1e-4,
) -> tuple[FockState, str, tuple[float, float]]:
    """One photon-subtraction attempt on the resource mode.

    Appends a vacuum ancilla, mixes it with the resource through the
    transmittance-T beamsplitter, samples the detector POVM on the ancilla
    (u = rng.random(), click iff u < p_click), applies the square root of the
    sampled POVM element, and traces the ancilla out again.

    Returns (post-attempt state on the original modes, "click"/"no_click",
    (p_no_click, p_click)).  Raises NumericalDegradationError when the traced
    ancilla leaves the rest mixed beyond ``purity_tol``.  Fock reference for
    the tests, through the same ``_attempt_kernel``; ``rus_factor`` does not
    call it.
    """
    if not 0 <= resource_mode < state.n_modes:
        raise DimensionError(f"resource mode {resource_mode} not in state")
    res_c = state.cutoffs[resource_mode]
    anc_c = int(ancilla_cutoff)
    norm_state = state if state.normalized else state.normalize()

    # move the resource mode to the last axis for the kernel
    others = [m for m in range(state.n_modes) if m != resource_mode]
    psi = norm_state.amplitudes.reshape(state.cutoffs)
    mat = np.transpose(psi, others + [resource_mode]).reshape(-1, res_c)

    bs = _beamsplitter(float(transmittance), res_c, anc_c)
    pi0 = _povm0_diag(detector.eta, detector.nu, anc_c)
    out, clicked, p0, p1 = _attempt_kernel(mat, bs, pi0, rng, purity_tol)

    out = out.reshape([state.cutoffs[m] for m in others] + [res_c])
    inv = np.argsort(others + [resource_mode])
    out = np.transpose(out, inv).reshape(-1)
    return (
        FockState(out, state.cutoffs),
        "click" if clicked else "no_click",
        (p0, p1),
    )


def _ancilla_amplitudes(b: np.ndarray, anc_c: int) -> np.ndarray:
    """Fock amplitudes e^{−|B|²/2}B^m/√m!, m < anc_c, of the coherent ancilla
    |B(λ)⟩, one row per label."""
    steps = np.empty((b.size, anc_c), dtype=complex)
    steps[:, 0] = np.exp(-0.5 * np.abs(b) ** 2)
    steps[:, 1:] = b[:, None] / np.sqrt(np.arange(1, anc_c))
    return np.cumprod(steps, axis=1)


def _measure_ancilla(c: np.ndarray, b: np.ndarray, kraus: np.ndarray, purity_tol: float) -> np.ndarray:
    """New label amplitudes after the outcome with diagonal Kraus ``kraus``
    (√Π) on the coherent ancilla |B(λ)⟩, which is then traced out.  The Gram
    matrix is Σ_λ|c_λ|² ā_m a_m′ with a_m(λ) = √Π_m b_m(λ)."""
    return _trace_ancilla(c[:, None] * _ancilla_amplitudes(b, kraus.size) * kraus, purity_tol)


def _first_click_pure(q, intensity, nu, transmittance, max_attempts, u):
    """(M, F(1)) for an ideal-efficiency detector, M = None if no click.

    With η = 1 the no-click branch keeps only the ancilla vacuum, so it is
    rank one and the click CDF after k attempts has the closed form

        F(k) = Σ_λ q_λ (1 − exp(−νk − |B₀(λ)|² Σ_{j<k} T^j)),

    where |B₀|² Σ_{j<k} T^j = |α₁(1+γ_l λ)|² (1 − T^k) = ``intensity``·(1 − T^k).
    M is the first k with u < F(k), searched in blocks of growing length.
    """
    log_t = math.log(transmittance)
    start, size = 1, 16
    first_p = None
    while start <= max_attempts:
        ks = np.arange(start, min(start + size, max_attempts + 1))[:, None]
        cdf = -np.expm1(-nu * ks + intensity * np.expm1(ks * log_t)) @ q
        if first_p is None:
            first_p = float(cdf[0])
        hit = np.flatnonzero(u < cdf)
        if hit.size:
            return start + int(hit[0]), first_p
        start += size
        size = min(2 * size, 4096)
    return None, first_p


def rus_factor(
    state: FockState,
    gamma_l: complex,
    config: ProtocolConfig,
    rng: np.random.Generator,
    factor_index: int = 0,
    repetition: int = 0,
) -> tuple[FockState, FactorRecord]:
    """Apply one normalized (1 + γ_l x̂) factor by repeat-until-success subtraction.

    Runs on the label amplitudes c(λ) = ⟨λ|ψ⟩ in the x̂_S eigenbasis (see the
    module docstring).  One uniform u is drawn per factor; the click attempt
    M is the first k with u < F(k), F the click CDF, whose increments are the
    closed-form p_click = Σ_λ|c_λ|²(1 − e^{−ν−η|B_k(λ)|²}).  With η = 1 the
    no-click branch is pure and M follows from F in closed form; otherwise
    every attempt applies its no-click outcome in turn.  The click outcome
    then reweights the labels once more, and decoupling returns V @ c.
    Raises FactorFailure (state and record attached) once
    ``max_attempts_per_factor`` is exhausted.
    """
    if gamma_l == 0:
        return state, FactorRecord(factor_index, repetition, 0, [], 1.0, True, 0.0)

    sys_c, anc_c = config.cutoffs
    if state.cutoffs != (sys_c,):
        raise DimensionError(f"rus_factor expects a single-mode state of cutoff {sys_c}")
    T = config.transmittance
    eta, nu = config.detector.eta, config.detector.nu
    w, v = x_eigh(sys_c)
    c = v.conj().T @ state.amplitudes
    c /= np.linalg.norm(c)
    amp = config.alpha1 * (1.0 + gamma_l * w)  # resource amplitude before attempt 1
    intensity = np.abs(amp) ** 2
    b0 = -math.sqrt(1.0 - T) * amp  # ancilla amplitude B₀(λ)
    pi0 = _povm0_diag(eta, nu, anc_c)
    click_kraus = np.sqrt(np.maximum(0.0, 1.0 - pi0))
    u = rng.random()

    if eta == 1.0:
        clicked_at, first_p = _first_click_pure(
            np.abs(c) ** 2, intensity, nu, T, config.max_attempts_per_factor, u
        )
        misses = config.max_attempts_per_factor if clicked_at is None else clicked_at - 1
        # the no-click Kraus factors e^{−|B_j|²/2}, j < misses, multiplied out
        c = c * np.exp(0.5 * intensity * np.expm1(misses * math.log(T)))
        c /= np.linalg.norm(c)
    else:
        no_click_kraus = np.sqrt(pi0)
        tap = eta * (1.0 - T) * intensity  # η|B_k|² = tap·T^k
        clicked_at, first_p, cdf = None, None, 0.0
        for k in range(config.max_attempts_per_factor):
            p_click = float(np.abs(c) ** 2 @ -np.expm1(-nu - tap * T**k))
            if first_p is None:
                first_p = p_click
            cdf += (1.0 - cdf) * p_click
            if u < cdf:
                clicked_at = k + 1
                break
            c = _measure_ancilla(c, b0 * T ** (k / 2.0), no_click_kraus, config.purity_tol)

    clicked = clicked_at is not None
    attempts = clicked_at if clicked else config.max_attempts_per_factor
    outcomes = [False] * (attempts - 1) + [clicked]
    record = FactorRecord(
        factor_index, repetition, attempts, outcomes, T ** (attempts / 2.0), clicked, first_p
    )
    if not clicked:
        raise FactorFailure(
            f"factor l={factor_index} saw no click in {attempts} attempts",
            state=FockState(v @ c, (sys_c,)),
            record=record,
        )
    c = _measure_ancilla(c, b0 * T ** ((attempts - 1) / 2.0), click_kraus, config.purity_tol)
    return FockState(v @ c, (sys_c,)), record


def full_gate(
    state: FockState, config: ProtocolConfig, rng: np.random.Generator
) -> tuple[FockState, TrialLog]:
    """Apply the full N-step approximant: factors l = 2, 1, 0, repeated N times.

    The factors commute (all are functions of x̂); right-to-left order is kept
    for reproducibility.  γ = 0 degenerates to the identity with an empty log.
    """
    log = TrialLog()
    if config.gamma == 0.0:
        return state, log
    dec = gamma_factors(config.gamma, config.n)
    current = state
    for rep in range(int(config.n)):
        for l in (2, 1, 0):
            try:
                current, rec = rus_factor(
                    current, dec.gamma_l[l], config, rng, factor_index=l, repetition=rep
                )
            except FactorFailure as err:
                if err.record is not None:
                    log.factors.append(err.record)
                err.log = log
                raise
            log.factors.append(rec)
    return current, log
