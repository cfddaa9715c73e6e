"""Quantitative analyses: detector-error ensembles, variance sweeps, gate fidelity.

The detector-error analysis exploits that every operator in the protocol is a
function of x̂: conditioned on a position value x, one run of the gate is the
scalar product of its per-factor values, and the deviation from the ideal
gate is the scalar random variable

    A(x) = Π_factors f_l(x)  −  e^{iγx³},

where each factor independently comes out as (1+γ_l x) (correct), 1 (a dark
count fired before the subtraction succeeded), or (1+γ_l x)² (a click was
missed, so one extra subtraction was applied).  With 3N factors the event
space has 3^{3N} outcomes.  The factors are independent, so its exact mean
and variance follow from each factor's own; the "enumerate" method computes
them that way whenever the event space is small enough to enumerate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .cubic import gamma_factors, ideal_cubic_gate, u_n_operator
from .errors import FactorFailure
from .hilbert import FockState, apply, coherent, expectation, fidelity, quadrature_p, quadrature_x
from .protocol import DetectorModel, ProtocolConfig, TrialLog, full_gate


@dataclass
class ErrorEnsembleSpec:
    """Event model for detector-driven factor errors.

    Per factor: p_dark = 1 − e^{−ν·E[M]} (a dark count preempts the real
    subtraction somewhere in the expected E[M]-attempt window, replacing the
    factor by the identity), p_miss = 1 − η (the heralding click was missed
    and the factor is applied twice), p_correct = remainder.
    """

    gamma: float = 0.03
    n: int = 1
    detector: DetectorModel = field(default_factory=DetectorModel)
    x_grid: tuple = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)
    expected_attempts: float = 100.0
    enumeration_limit: int = 200_000
    mc_samples: int = 20_000


def event_probabilities(spec: ErrorEnsembleSpec) -> tuple[float, float, float]:
    """(p_correct, p_dark, p_miss) for one factor; they sum to one."""
    p_dark = 1.0 - math.exp(-spec.detector.nu * spec.expected_attempts)
    p_miss = 1.0 - spec.detector.eta
    p_correct = 1.0 - p_dark - p_miss
    if p_correct < 0.0:
        raise ValueError("event probabilities exceed 1; detector model too noisy")
    return p_correct, p_dark, p_miss


@dataclass(frozen=True)
class ErrorStatRow:
    x: float
    mean: complex
    stddev: float
    method: str
    stderr: float | None = None


def _factor_values(x: float, gamma_l) -> list[tuple[complex, complex, complex]]:
    """Per factor (correct, dark, missed) scalar values at position x."""
    return [(1.0 + gl * x, 1.0 + 0.0j, (1.0 + gl * x) ** 2) for gl in gamma_l]


def error_operator_stats(
    spec: ErrorEnsembleSpec,
    rng: np.random.Generator | None = None,
    method: str = "auto",
) -> list[ErrorStatRow]:
    """Mean and standard deviation of A(x) over detector-error realizations.

    method: "enumerate" (exact over the 3^{3N} outcomes), "monte_carlo", or
    "auto" (enumerate when the event space is within ``enumeration_limit``).
    The exact method uses independence: E[Πf] = ΠE[f] and E|Πf|² = ΠE|f|²,
    with the variance of the product accumulated without cancellation.
    """
    if method not in ("auto", "enumerate", "monte_carlo"):
        raise ValueError(f"unknown method '{method}'")
    probs = event_probabilities(spec)
    dec = gamma_factors(spec.gamma, spec.n)
    n_factors = 3 * int(spec.n)
    space = 3**n_factors

    if method == "auto":
        method = "enumerate" if space <= spec.enumeration_limit else "monte_carlo"
    if method == "enumerate" and space > spec.enumeration_limit:
        method = "monte_carlo"
    if method == "monte_carlo" and rng is None:
        rng = np.random.default_rng(0)

    rows = []
    for x in spec.x_grid:
        x = float(x)
        ideal = cmath.exp(1j * spec.gamma * x**3)
        values = _factor_values(x, dec.gamma_l) * int(spec.n)
        if method == "enumerate":
            # Var Πf = Π(|μ_i|² + v_i) − Π|μ_i|², built factor by factor from
            # nonnegative terms so it stays exact near zero
            mean, var = 1.0 + 0.0j, 0.0
            for f in values:
                mu = sum(p * v for p, v in zip(probs, f))
                v_f = sum(p * abs(v - mu) ** 2 for p, v in zip(probs, f))
                var = abs(mu) ** 2 * var + v_f * (abs(mean) ** 2 + var)
                mean *= mu
            rows.append(ErrorStatRow(x, mean - ideal, math.sqrt(var), "enumerate"))
        else:
            events = rng.choice(3, size=(spec.mc_samples, n_factors), p=probs)
            amp = np.ones(spec.mc_samples, dtype=complex)
            for i, f in enumerate(values):
                lut = np.array(f)
                amp *= lut[events[:, i]]
            a = amp - ideal
            mean = complex(a.mean())
            std = float(np.sqrt(max(0.0, (np.abs(a) ** 2).mean() - abs(mean) ** 2)))
            rows.append(ErrorStatRow(x, mean, std, "monte_carlo", std / math.sqrt(spec.mc_samples)))
    return rows


# ---------------------------------------------------------------------------
# moment sweeps


@dataclass
class MomentSweepSpec:
    """Coherent-input sweep: Im(α) fixed, Re(α) on a grid, N over a list."""

    gamma: float = 0.03
    n_list: tuple = (1, 3, 5, 7)
    re_alpha_grid: tuple = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5)
    im_alpha: float = 0.25
    cutoff: int = 40

    def __post_init__(self):
        if list(self.n_list) != sorted(self.n_list):
            raise ValueError("n_list must be sorted ascending")


@dataclass(frozen=True)
class SweepRow:
    re_alpha: float
    ideal: float
    by_n: dict
    mean_x_ideal: float
    mean_p_ideal: float
    mean_x_by_n: dict
    mean_p_by_n: dict


def _moments(state: FockState, x, p):
    mx = expectation(x, state).real
    mp_ = expectation(p, state).real
    p2 = expectation(p @ p, state).real
    return mx, mp_, p2 - mp_**2


def variance_sweep(spec: MomentSweepSpec) -> list[SweepRow]:
    """σ_p² after U_N and after the ideal gate, per Re(α) grid point."""
    c = int(spec.cutoff)
    x = quadrature_x(c)
    p = quadrature_p(c)
    if spec.gamma == 0.0:
        ideal = None
        uns = {n: None for n in spec.n_list}
    else:
        ideal = ideal_cubic_gate(spec.gamma, c)
        uns = {int(n): u_n_operator(spec.gamma, n, c) for n in spec.n_list}
    rows = []
    for re_a in spec.re_alpha_grid:
        alpha = complex(re_a, spec.im_alpha)
        inp = coherent(alpha, c)
        if ideal is None:
            mx, mp_, s2 = _moments(inp, x, p)
            rows.append(SweepRow(float(re_a), s2, {int(n): s2 for n in spec.n_list},
                                 mx, mp_, {int(n): mx for n in spec.n_list},
                                 {int(n): mp_ for n in spec.n_list}))
            continue
        out_ideal = apply(ideal, inp).normalize()
        mxi, mpi, s2i = _moments(out_ideal, x, p)
        by_n, mx_n, mp_n = {}, {}, {}
        for n, un in uns.items():
            out = apply(un, inp).normalize()
            mx, mp_, s2 = _moments(out, x, p)
            by_n[n], mx_n[n], mp_n[n] = s2, mx, mp_
        rows.append(SweepRow(float(re_a), s2i, by_n, mxi, mpi, mx_n, mp_n))
    return rows


# ---------------------------------------------------------------------------
# end-to-end gate fidelity


@dataclass(frozen=True)
class RunResult:
    alpha: complex
    success: bool
    total_attempts: int
    fidelity_un: float | None
    fidelity_ideal: float | None


@dataclass(frozen=True)
class GateFidelityReport:
    runs: tuple
    mean_fidelity_un: float
    mean_fidelity_ideal: float
    mean_total_attempts: float
    first_attempt_click_prob: float
    predicted_attempts: float       # 3N / p_first
    attempts_ratio: float           # mean_total / predicted
    failures: int


DEFAULT_INPUT_ALPHAS = (0.3, 0.15 + 0.15j, 0.0, -0.2 + 0.1j)


@lru_cache(maxsize=8)
def _gate_targets(gamma: float, n: int, cutoff: int) -> tuple:
    """(U_N, ideal cubic gate) on the truncated space; the matrices are read-only."""
    return u_n_operator(gamma, n, cutoff), ideal_cubic_gate(gamma, cutoff)


def run_ensemble(config: ProtocolConfig, alphas, rngs) -> list[tuple[RunResult, TrialLog]]:
    """Run the full gate once per (coherent input α, generator) pair.

    Each run's output is scored by fidelity against the normalized U_N target
    and the ideal cubic gate applied to its input (against the input itself
    when γ = 0).  A run whose factor exhausts its attempt budget is a failure
    and carries no fidelity.  Seeding stays with the caller, which gives
    each run its own generator.
    """
    sys_c = config.cutoff
    un, ideal = _gate_targets(config.gamma, config.n, sys_c) if config.gamma > 0 else (None, None)
    results = []
    for alpha, rng in zip(alphas, rngs):
        inp = coherent(alpha, sys_c)
        try:
            out, log = full_gate(inp, config, rng)
        except FactorFailure as err:
            log = err.log if err.log is not None else TrialLog()
            results.append((RunResult(alpha, False, log.total_attempts, None, None), log))
            continue
        if un is None:
            f_un = f_id = fidelity(out, inp)
        else:
            f_un = fidelity(out, apply(un, inp).normalize())
            f_id = fidelity(out, apply(ideal, inp).normalize())
        results.append((RunResult(alpha, True, log.total_attempts, f_un, f_id), log))
    return results


def gate_fidelity_report(
    config: ProtocolConfig,
    ensemble_size: int,
    rng: np.random.Generator,
    input_alphas=DEFAULT_INPUT_ALPHAS,
) -> GateFidelityReport:
    """Run the full gate over an ensemble of coherent inputs.

    Reports output-state fidelity against the normalized U_N target and the
    ideal cubic gate, plus attempt statistics compared with 3N/p where p is
    the exact first-attempt click probability returned by the POVM sampling.
    Runs whose factor exhausts its attempt budget count as failures and carry
    no fidelity.  Each run draws from its own child of ``rng`` (``rng.spawn``).
    """
    alphas = (complex(input_alphas[i % len(input_alphas)]) for i in range(int(ensemble_size)))
    results = run_ensemble(config, alphas, rng.spawn(int(ensemble_size)))
    runs = tuple(r for r, _ in results)
    done = [(r, log) for r, log in results if r.success]
    first_ps = [f.first_click_prob for _, log in done for f in log.factors if f.attempts > 0]
    fid_un = [r.fidelity_un for r, _ in done]
    fid_ideal = [r.fidelity_ideal for r, _ in done]
    attempts = [r.total_attempts for r, _ in done]
    failures = len(runs) - len(done)

    p_first = float(np.mean(first_ps)) if first_ps else float("nan")
    mean_attempts = float(np.mean(attempts)) if attempts else float("nan")
    predicted = 3.0 * int(config.n) / p_first if p_first > 0 else float("nan")
    return GateFidelityReport(
        runs=runs,
        mean_fidelity_un=float(np.mean(fid_un)) if fid_un else float("nan"),
        mean_fidelity_ideal=float(np.mean(fid_ideal)) if fid_ideal else float("nan"),
        mean_total_attempts=mean_attempts,
        first_attempt_click_prob=p_first,
        predicted_attempts=predicted,
        attempts_ratio=mean_attempts / predicted if predicted and not math.isnan(predicted) else float("nan"),
        failures=failures,
    )
