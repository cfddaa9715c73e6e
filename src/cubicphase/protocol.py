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
and attempt k meets the coherent ancilla |B_k(λ)⟩ with
B_k(λ) = −√(1−T)·T^{(k−1)/2}·α₁(1+γ_l λ).  As ⟨m|B_k(λ)⟩ ∝
e^{−|B_k(λ)|²/2}(1+γ_l λ)^m, an ancilla seen or lost with m photons only
reweights c(λ), so unravelling the detector by photon number (Dalibard,
Castin & Mølmer, PRL 68, 580 (1992)) keeps every trajectory pure and their
average the exact channel.  ``couple_resource``, ``subtraction_attempt`` and
``_attempt_kernel`` are the same steps on a truncated Fock resource and
ancilla, kept as the reference the tests compare the label engine against.
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


def protocol_bounds(gamma, n, alpha1, transmittance, max_attempts) -> list:
    """The rules on the ProtocolConfig parameters, named by their config keys."""
    return [
        ("gamma", gamma >= 0.0, ">= 0"),
        ("N", int(n) >= 1, ">= 1"),
        ("alpha1", alpha1 > 0.0, "> 0"),
        ("transmittance", 0.0 < transmittance <= 1.0, "in (0, 1]"),
        ("max_attempts", max_attempts >= 1, ">= 1"),
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

    ``cutoff`` is the system Fock cutoff, the only truncation.  A
    weak-subtraction parameter (1−T)·α₁²·(1+|γ_l|·X_SUPPORT)² above 0.1 makes
    multi-photon heralds, which apply (1 + γ_l x̂) more than once, common and
    draws a warning.  Invalid values raise ValueError naming the config key
    (``max_attempts`` for ``max_attempts_per_factor``).
    """

    gamma: float = 0.03
    n: int = 1
    alpha1: float = 0.2
    transmittance: float = 0.99
    cutoff: int = 30
    max_attempts_per_factor: int = 10_000
    detector: DetectorModel = field(default_factory=DetectorModel)

    def __post_init__(self):
        check_bounds(protocol_bounds(self.gamma, self.n, self.alpha1, self.transmittance,
                                     self.max_attempts_per_factor))
        self.cutoff = int(self.cutoff)
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
    Fock reference for the tests; ``rus_factor`` unravels the coherent
    ancilla by photon number instead.
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


def _first_click(q, intensity, nu, transmittance, max_attempts, u):
    """(M, F(1)), M = None if no click: M is the first k with u < F(k), the
    click CDF F(k) = Σ_λ q_λ (1 − exp(−νk − ``intensity``_λ (1 − T^k))) with
    ``intensity`` = η|α₁(1+γ_l λ)|² (no dark count and no tapped photon seen),
    searched in blocks of growing length."""
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


def _inverse_cdf(log_weights: np.ndarray, u: float) -> int:
    """The first index whose cumulative weight exceeds u times the total, for
    weights given as logarithms and shifted by their largest, so that weights
    which would each underflow still draw exactly."""
    top = log_weights.max()
    if not np.isfinite(top):
        raise DegenerateOutcomeError("every outcome of the draw has zero probability")
    cdf = np.cumsum(np.exp(log_weights - top))
    # u·total rounds up to the total only for u within an ulp of 1
    return min(int(np.searchsorted(cdf, u * cdf[-1], side="right")), cdf.size - 1)


def _photon_count(mean: float, u: float, nu: float | None = None) -> int:
    """A Poisson(mean) photon number by inverse CDF of the uniform u, with
    weights mean^d/d! relative to e^{−mean} up to 12√mean + 40 past the mean
    (the tail beyond holds < 1e-25).  With ``nu`` it is the number detected at
    a click: d = 0 needs a dark count and weighs 1 − e^{−ν}, and the order
    1, 0, 2, 3, … makes u = 0 the single-photon herald."""
    if mean <= 0.0:
        return 0  # the only outcome of positive weight
    k = np.arange(int(mean + 12.0 * math.sqrt(mean)) + 40)
    log_w = k * math.log(mean) - np.concatenate(([0.0], np.cumsum(np.log(k[1:]))))
    if nu is None:
        return _inverse_cdf(log_w, u)
    with np.errstate(divide="ignore"):
        log_w[0] = np.log(-np.expm1(-nu))
    log_w[0], log_w[1] = log_w[1], log_w[0]
    k = _inverse_cdf(log_w, u)
    return 1 - k if k < 2 else k


def rus_factor(
    state: FockState,
    gamma_l: complex,
    config: ProtocolConfig,
    rng: np.random.Generator,
    factor_index: int = 0,
    repetition: int = 0,
) -> tuple[FockState, FactorRecord]:
    """Apply one normalized (1 + γ_l x̂) factor by repeat-until-success subtraction.

    One exact trajectory on c(λ) = ⟨λ|ψ⟩, with I_λ = |α₁(1+γ_l λ)|² and
    μ_λ = I_λ(1−T)T^{M−1}.  Four ``rng.random()`` draws pick the click attempt
    M, a label λ* ∝ q_λ·e^{−ηI_λ(1−T^{M−1})}·(1 − e^{−ν−ημ_λ}), the photons
    lost over M attempts ~ Poisson((1−η)I_λ*(1−T^M)) and those detected at
    the click (mean ημ_λ*); given λ* these are exact, so K = lost + detected
    is too.  Returns V @ c_λ·e^{−½I_λ(1−T^M)}·(1+γ_l λ)^K, normalized.  Raises
    FactorFailure (state and record attached) after ``max_attempts_per_factor``
    attempts without a click; that state skips the detected photons.
    """
    if gamma_l == 0:
        return state, FactorRecord(factor_index, repetition, 0, [], 1.0, True, 0.0)

    sys_c = config.cutoff
    if state.cutoffs != (sys_c,):
        raise DimensionError(f"rus_factor expects a single-mode state of cutoff {sys_c}")
    T = config.transmittance
    eta, nu = config.detector.eta, config.detector.nu
    log_t = math.log(T)
    w, v = x_eigh(sys_c)
    c = v.conj().T @ state.amplitudes
    c /= np.linalg.norm(c)
    intensity = np.abs(config.alpha1 * (1.0 + gamma_l * w)) ** 2

    clicked_at, first_p = _first_click(
        np.abs(c) ** 2, eta * intensity, nu, T, config.max_attempts_per_factor, rng.random()
    )
    clicked = clicked_at is not None
    attempts = clicked_at if clicked else config.max_attempts_per_factor
    misses = attempts - 1 if clicked else attempts
    tapped = intensity * (1.0 - T) * T ** (attempts - 1)
    with np.errstate(divide="ignore"):  # a label of zero amplitude has log-weight −inf
        log_c = np.log(c)
        log_w = 2.0 * log_c.real + eta * intensity * np.expm1(misses * log_t)
        if clicked:
            log_w += np.log(-np.expm1(-nu - eta * tapped))
    star = _inverse_cdf(log_w, rng.random())
    lost = -(1.0 - eta) * intensity[star] * math.expm1(attempts * log_t)
    photons = _photon_count(lost, rng.random())
    if clicked:
        photons += _photon_count(eta * tapped[star], rng.random(), nu)

    log_c += photons * np.log1p(gamma_l * w) + 0.5 * intensity * np.expm1(attempts * log_t)
    c = np.exp(log_c - log_c.real.max())
    out = FockState(v @ (c / np.linalg.norm(c)), (sys_c,))
    outcomes = [False] * (attempts - 1) + [clicked]
    record = FactorRecord(
        factor_index, repetition, attempts, outcomes, T ** (attempts / 2.0), clicked, first_p
    )
    if not clicked:
        raise FactorFailure(
            f"factor l={factor_index} saw no click in {attempts} attempts",
            state=out,
            record=record,
        )
    return out, record


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
