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

over the eigenvectors |λ⟩ of the truncated x̂_S.  ``label_gate`` runs all 3N
factors on the label amplitudes alone, carrying log c(λ) from c = V†ψ to
V @ c; ``full_gate`` and ``rus_factor`` (one factor) wrap it in FockStates.
Coupling and decoupling leave c(λ) unchanged, and attempt k meets the
coherent ancilla |B_k(λ)⟩, B_k(λ) = −√(1−T)·T^{(k−1)/2}·α₁(1+γ_l λ).  As
⟨m|B_k(λ)⟩ ∝ e^{−|B_k(λ)|²/2}(1+γ_l λ)^m, an ancilla seen or lost with m
photons only reweights c(λ), so unravelling the detector by photon number
(Dalibard, Castin & Mølmer, PRL 68, 580 (1992)) keeps every trajectory pure
and their average the exact channel.  The system cutoff is then the only
truncation, and ``label_gate`` checks it: its output may hold at most
HEADROOM_BOUND of its probability in the top two Fock levels.
``cubicphase.reference`` holds the same steps on a truncated Fock resource and
ancilla (``couple_resource``, ``subtraction_attempt``), with the ancilla's
photon number drawn in the same way: the oracle the tests compare the label
engine against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .cubic import gamma_factors
from .errors import (
    DegenerateOutcomeError,
    DimensionError,
    FactorFailure,
    NumericalDegradationError,
)
from .gaussian import x_eigh, x_labels
from .hilbert import FockState, real_matmul


def check_bounds(rules) -> None:
    """Raise ValueError naming the first config key whose rule fails.  Each
    rule states what must hold, so a NaN value fails it.  Rules are read in
    turn, so a rule yielded later may assume the ones before it hold."""
    for key, ok, rule in rules:
        if not ok:
            raise ValueError(f"config key '{key}' violates constraint ({rule})")


# attempt counts are numpy int64 in the click tables
MAX_ATTEMPTS = 2**63 - 1

# the largest photon-count mean a factor may draw from.  _photon_cdf caches up
# to 128 tables of mean + 12√mean + 40 entries each; filled at 1.2e6 they fit
# with a cutoff-3000 simulate in a 1.5 GB address space, at 1.5e6 they do not
# (README, CLI)
MAX_PHOTON_MEAN = 1e6


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
            ("dark_rate_hz", 0.0 <= self.dark_rate_hz < math.inf, "in [0, inf)"),
            ("window_s", 0.0 < self.window_s < math.inf, "in (0, inf)"),
        ])

    @property
    def nu(self) -> float:
        return self.dark_rate_hz * self.window_s


IDEAL_DETECTOR = DetectorModel(eta=1.0, dark_rate_hz=0.0)


# assumed |x|-range of the input in the weak-subtraction warning
X_SUPPORT = 4.0


@dataclass
class ProtocolConfig:
    """Parameters of the full repeat-until-success gate.

    ``cutoff`` is the system Fock cutoff, the only truncation.  A
    weak-subtraction parameter (1−T)·α₁²·(1+|γ_l|·X_SUPPORT)² above 0.1 makes
    multi-photon heralds, which apply (1 + γ_l x̂) more than once, common and
    draws a warning (``warn_weak_subtraction``).  Invalid values raise
    ValueError naming the config key (``max_attempts`` for
    ``max_attempts_per_factor``).
    """

    gamma: float = 0.03
    n: int = 1
    alpha1: float = 0.2
    transmittance: float = 0.99
    cutoff: int = 30
    max_attempts_per_factor: int = 10_000
    detector: DetectorModel = field(default_factory=DetectorModel)

    def __post_init__(self):
        check_bounds(self.rules())
        self.cutoff = int(self.cutoff)
        # level 1 is the helper, 2 this method, 3 the generated __init__
        self.warn_weak_subtraction(stacklevel=4)

    def rules(self):
        """The rules on the gate parameters, named by their config keys, in
        the order ``check_bounds`` reads them."""
        gamma, alpha1 = self.gamma, self.alpha1
        # γ² and α₁² must be finite: the analyses and the click tables square them
        yield "gamma", 0.0 <= gamma and gamma * gamma < math.inf, "in [0, inf), gamma**2 finite"
        yield "N", int(self.n) >= 1, ">= 1"
        yield "alpha1", 0.0 < alpha1 and alpha1 * alpha1 < math.inf, "in (0, inf), alpha1**2 finite"
        yield "transmittance", 0.0 < self.transmittance <= 1.0, "in (0, 1]"
        yield "max_attempts", 1 <= self.max_attempts_per_factor <= MAX_ATTEMPTS, "in [1, 2**63 - 1]"
        yield "cutoff", int(self.cutoff) >= 2, ">= 2"
        # the largest mean: |α₁(1+γ_l λ)|² at the largest x̂ eigenvalue, which is
        # below √(2·cutoff + 1); alpha1 is named when α₁² alone reaches the bound
        peak = alpha1 * alpha1 * (1.0 + (gamma / int(self.n)) ** (1.0 / 3.0)
                                  * math.sqrt(2 * int(self.cutoff) + 1)) ** 2
        yield ("alpha1" if alpha1 * alpha1 >= MAX_PHOTON_MEAN else "gamma", peak < MAX_PHOTON_MEAN,
               f"alpha1**2 * (1 + (gamma/N)**(1/3) * sqrt(2*cutoff + 1))**2 < {MAX_PHOTON_MEAN:g}")

    def warn_weak_subtraction(self, stacklevel: int) -> None:
        """Warn, at ``warnings.warn``'s ``stacklevel``, when the weak-subtraction
        parameter exceeds 0.1."""
        if self.gamma > 0.0:
            gl_mag = (self.gamma / int(self.n)) ** (1.0 / 3.0)
            weak = (1.0 - self.transmittance) * self.alpha1**2 * (1.0 + gl_mag * X_SUPPORT) ** 2
            if weak > 0.1:
                warnings.warn(
                    f"weak-subtraction parameter (1-T)*alpha1^2*(1+|gamma_l|*x)^2 = "
                    f"{weak:.3f} exceeds 0.1; the tapped beam is not single-photon dominated",
                    stacklevel=stacklevel,
                )


@dataclass
class FactorRecord:
    """Per-factor trial record: the attempts, whether the last one clicked
    (only the last can), and the exact first-attempt click probability."""

    factor_index: int
    repetition: int
    attempts: int
    success: bool
    first_click_prob: float


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
# the label engine


def _cdf_rows(ks, intensity, nu, log_t):
    return -np.expm1(-nu * ks + intensity * np.expm1(ks * log_t))


def _cumulative(log_weights: np.ndarray) -> np.ndarray:
    """The cumulative weights, given as logarithms and shifted by their
    largest, so that weights which would each underflow still draw exactly."""
    top = log_weights.max()
    if not math.isfinite(top):
        raise DegenerateOutcomeError("every outcome of the draw has zero probability")
    return np.exp(log_weights - top).cumsum()


def _inverse_cdf(cdf: np.ndarray, u: float) -> int:
    """The first index whose cumulative weight in ``cdf`` exceeds u times the total."""
    # u·total rounds up to the total only for u within an ulp of 1
    return min(int(cdf.searchsorted(u * cdf[-1], side="right")), cdf.size - 1)


@lru_cache(maxsize=128)
def _photon_cdf(mean: float, nu: float | None) -> np.ndarray:
    """``_photon_count``'s CDF, read-only: mean^d/d! up to 12√mean + 40 past the
    mean (the tail beyond holds < 1e-25), with ``nu`` in the order 1, 0, 2, …
    and 1 − e^{−ν} for d = 0."""
    size = int(mean + 12.0 * math.sqrt(mean)) + 40
    log_factorials = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, size)))))
    log_w = np.arange(size) * math.log(mean) - log_factorials
    if nu is not None:
        log_w[0] = math.log(-math.expm1(-nu)) if nu > 0.0 else -math.inf
        log_w[0], log_w[1] = log_w[1], log_w[0]
    cdf = _cumulative(log_w)
    cdf.flags.writeable = False
    return cdf


def _photon_count(mean: float, u: float, nu: float | None = None) -> int:
    """A Poisson(mean) photon number by inverse CDF of the uniform u.  With
    ``nu`` it is the number detected at a click: d = 0 needs a dark count,
    and the order 1, 0, 2, 3, … makes u = 0 the single-photon herald."""
    if mean <= 0.0:
        return 0  # the only outcome of positive weight
    k = _inverse_cdf(_photon_cdf(mean, nu), u)
    return 1 - k if nu is not None and k < 2 else k


class FactorModel:
    """One factor at (γ_l, α₁, cutoff, η, ν, T, budget), built once by ``factor_model``.  It
    owns, over the labels λ and read-only, I_λ = |α₁(1+γ_l λ)|² (``intensity``), log(1+γ_l λ),
    ηI_λ (``seen``) and ``first_click``'s CDF rows for attempts 1…16 and ``budget`` (at most
    17).  Rows after M attempts come from caches bounded over all factors."""

    def __init__(self, gamma_l: complex, alpha1: float, cutoff: int, eta: float, nu: float,
                 transmittance: float, budget: int):
        w, _ = x_eigh(cutoff)
        self.eta, self.nu, self.transmittance, self.budget = eta, nu, transmittance, budget
        self.log_t = math.log(transmittance)
        self.intensity = np.abs(alpha1 * (1.0 + gamma_l * w)) ** 2
        self.log_factor = np.log1p(gamma_l * w)
        self.seen = eta * self.intensity
        ks = [*range(1, min(16, budget) + 1)] + [budget] * (budget > 16)
        self.table = _cdf_rows(np.array(ks)[:, None], self.seen, nu, self.log_t)
        for t in (self.intensity, self.log_factor, self.seen, self.table):
            t.flags.writeable = False

    def first_click(self, q: np.ndarray, u: float) -> tuple:
        """(M, F(1)), M = None if no click: M is the first k ≤ ``budget`` with
        u < F(k), the click CDF F(k) = Σ_λ q_λ (1 − exp(−νk − ηI_λ(1 − T^k)))
        (no dark count and no tapped photon seen).  Every F(k) is its row
        ``np.vecdot`` q, summed in one order whatever rows come with it, so F
        as summed never falls as k grows (no term does) and the table's
        F(budget) is the search's.  The table gives F(1…16) and F(budget); a
        later click is narrowed from F(16) ≤ u < F(budget) to one attempt,
        reading per step the next 16 attempts and up to 16 spread over the
        rest of the bracket."""
        cdf = np.vecdot(self.table, q)
        first = int(cdf.searchsorted(u, side="right"))
        if first == cdf.size:
            return None, float(cdf[0])
        if first < 16:
            return first + 1, float(cdf[0])
        lo, hi = 16, self.budget  # F(lo) ≤ u < F(hi)
        while hi - lo > 1:
            step = (hi - lo + 15) // 16
            ks = [*range(lo + 1, min(lo + 17, hi)), *range(lo + 16 + step, hi, step)]
            f = np.vecdot(_cdf_rows(np.array(ks)[:, None], self.seen, self.nu, self.log_t), q)
            edges = [lo, *ks, hi]
            i = int(f.searchsorted(u, side="right"))
            lo, hi = edges[i], edges[i + 1]
        return hi, float(cdf[0])

    @lru_cache(maxsize=64)
    def attempt_rows(self, attempts: int, clicked: bool) -> tuple:
        """The rows over λ at M = ``attempts``, read-only: the λ* reweighting
        ηI_λ(T^{M−clicked} − 1), the click log(1 − e^{−ν−η·tapped_λ}), tapped_λ =
        I_λ(1−T)T^{M−1}, and the envelope ½I_λ(T^M − 1)."""
        tapped = self.intensity * (1.0 - self.transmittance) * self.transmittance ** (attempts - 1)
        with np.errstate(divide="ignore"):  # a label no tap can click at has log-weight −inf
            rows = (self.seen * np.expm1((attempts - clicked) * self.log_t),
                    np.log(-np.expm1(-self.nu - self.eta * tapped)), tapped,
                    0.5 * self.intensity * np.expm1(attempts * self.log_t))
        for row in rows:
            row.flags.writeable = False
        return rows

    @lru_cache(maxsize=128)
    def update_row(self, attempts: int, clicked: bool, photons: int) -> np.ndarray:
        """log c's change, K·log(1+γ_l λ) + envelope, at K = ``photons``; read-only."""
        row = photons * self.log_factor + self.attempt_rows(attempts, clicked)[3]
        row.flags.writeable = False
        return row


factor_model = lru_cache(maxsize=64)(FactorModel)


def label_gate(log_c: np.ndarray, config: ProtocolConfig, rng, log: TrialLog, factors=None,
               headroom: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Apply the gate's factors, or the (γ_l, l, repetition) ``factors`` given,
    in turn to the labels c(λ) = ⟨λ|ψ⟩ given as ``log_c``, each as one exact trajectory
    of its ``factor_model``, appending their records to ``log``; returns c and V @ c.

    With I_λ = |α₁(1+γ_l λ)|² and μ_λ = I_λ(1−T)T^{M−1}, four ``rng.random()``
    draws pick the click attempt M, a label λ* ∝ |c_λ|²·e^{−ηI_λ(1−T^{M−1})}·
    (1 − e^{−ν−ημ_λ}), the photons lost over M attempts ~ Poisson((1−η)I_λ*(1−T^M))
    and those detected at the click (mean ημ_λ*); given λ* these are exact, so
    K = lost + detected is too, and log c_λ gains −½I_λ(1−T^M) + K·log(1+γ_l λ),
    all from cached rows.  V @ c must be finite (ValueError) and, with
    ``headroom``, pass ``check_headroom``.  Raises FactorFailure (checked
    amplitudes, record and log attached) after ``max_attempts_per_factor``
    attempts without a click; that state skips the detected photons.
    """
    if factors is None:
        dec = gamma_factors(config.gamma, config.n)
        # made one at a time, so a huge N costs no memory before its first factor
        factors = ((dec.gamma_l[l], l, rep) for rep in range(int(config.n)) for l in (2, 1, 0))
    eta, nu = config.detector.eta, config.detector.nu
    key = (float(config.alpha1), log_c.size, eta, nu, config.transmittance,
           config.max_attempts_per_factor)
    for gamma_l, factor_index, repetition in factors:
        model = factor_model(complex(gamma_l), *key)
        log_c = log_c - log_c.real.max()
        log_w = 2.0 * log_c.real
        q = np.exp(log_w)
        clicked_at, first_p = model.first_click(q / q.sum(), rng.random())
        clicked = clicked_at is not None
        attempts = clicked_at if clicked else model.budget
        reweight, click, tapped, _ = model.attempt_rows(attempts, clicked)
        # two additions: one pre-summed row would round differently and move the draws
        log_w += reweight
        if clicked:
            log_w += click
        star = _inverse_cdf(_cumulative(log_w), rng.random())
        lost = -(1.0 - eta) * model.intensity[star] * math.expm1(attempts * model.log_t)
        photons = _photon_count(lost, rng.random())
        if clicked:
            photons += _photon_count(eta * tapped[star], rng.random(), nu)
        log_c += model.update_row(attempts, clicked, photons)
        log.factors.append(FactorRecord(factor_index, repetition, attempts, clicked, first_p))
        if not clicked:
            break
    c = np.exp(log_c - log_c.real.max())
    c = c / math.sqrt(np.vdot(c, c).real)
    psi = real_matmul(x_eigh(c.size)[1], c)
    if not np.isfinite(psi.view(float)).all():
        raise ValueError("amplitudes contain NaN/Inf")
    if headroom:
        check_headroom(psi, lambda: (f"{'the gate output' if clicked else 'the failure state'} "
                                     f"{_after(log.factors[-1])}"))
    if not clicked:
        raise FactorFailure(f"factor l={factor_index} saw no click in {attempts} attempts",
                            psi, log.factors[-1], log)
    return c, psi


def _labels(state: FockState, config: ProtocolConfig) -> np.ndarray:
    """log V†ψ of a single-mode state at the config's cutoff, as ``label_gate`` reads it."""
    if state.cutoffs != (config.cutoff,):
        raise DimensionError(f"expected a single-mode state of cutoff {config.cutoff}")
    return x_labels(state.amplitudes)[1]


def rus_factor(
    state: FockState,
    gamma_l: complex,
    config: ProtocolConfig,
    rng: np.random.Generator,
    factor_index: int = 0,
    repetition: int = 0,
) -> tuple[FockState, FactorRecord]:
    """Apply one normalized (1 + γ_l x̂) factor by repeat-until-success
    subtraction: ``label_gate`` on one factor, without the headroom check.
    Returns the state and the factor's record, or raises FactorFailure."""
    if gamma_l == 0:
        return state, FactorRecord(factor_index, repetition, 0, True, 0.0)
    log = TrialLog()
    _, psi = label_gate(_labels(state, config), config, rng, log,
                        [(gamma_l, factor_index, repetition)], headroom=False)
    return FockState(psi, state.cutoffs), log.factors[0]


# the largest share of a state's probability that may sit in its top two Fock
# levels, the bound reference.couple_resource puts on the resource
HEADROOM_BOUND = 1e-6


def top_share(amplitudes: np.ndarray) -> float:
    """The share of a state's probability in the top two levels of its Fock amplitudes."""
    return float(np.sum(np.abs(amplitudes[-2:]) ** 2) / np.vdot(amplitudes, amplitudes).real)


def check_headroom(amplitudes: np.ndarray, where) -> None:
    """Raise NumericalDegradationError when the state with these Fock
    amplitudes holds more than HEADROOM_BOUND of its probability in its top
    two levels; ``where()`` names the state in the message, built only then."""
    mass = top_share(amplitudes)
    if mass > HEADROOM_BOUND:
        raise NumericalDegradationError(
            f"truncation headroom: {where()} holds {mass:.2e} of its probability in the top two "
            f"Fock levels of cutoff {amplitudes.size}, above the bound {HEADROOM_BOUND:.0e}"
        )


def full_gate(
    state: FockState, config: ProtocolConfig, rng: np.random.Generator
) -> tuple[FockState, TrialLog]:
    """Apply the full N-step approximant: factors l = 2, 1, 0, repeated N times.

    The factors commute (all are functions of x̂); right-to-left order is kept
    for reproducibility.  All 3N run in ``label_gate`` on c = V†ψ, and V @ c is
    formed once.  γ = 0 degenerates to the identity with an empty log.  The
    output, or the state of a FactorFailure, must pass ``check_headroom``.
    """
    log = TrialLog()
    if config.gamma == 0.0:
        return state, log
    _, psi = label_gate(_labels(state, config), config, rng, log)
    return FockState(psi, state.cutoffs), log


def _after(record: FactorRecord) -> str:
    return (f"after factor l={record.factor_index}, repetition {record.repetition}, "
            f"attempt {record.attempts}")
