"""Quantitative analyses: detector-error ensembles, variance sweeps, scored gate runs.

The detector-error analysis exploits that every operator in the protocol is a
function of x̂: conditioned on a position value x, one run of the gate is the
scalar product of its per-factor values, and the deviation from the ideal
gate is the scalar random variable

    A(x) = Π_factors f_l(x)  −  e^{iγx³},

where each factor independently comes out as (1+γ_l x) (correct), 1 (a dark
count fired before the subtraction succeeded), or (1+γ_l x)² (a click was
missed, so one extra subtraction was applied).  With 3N factors the event
space has 3^{3N} outcomes.  The factors are independent, so its exact mean
and variance follow from each factor's own, at a cost linear in N.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cubic import gamma_factors
from .errors import FactorFailure
from .gaussian import x_eigh, x_labels
from .hilbert import coherent, coherent_columns, real_matmul
from .protocol import (HEADROOM_BOUND, DetectorModel, ProtocolConfig, TrialLog, check_headroom,
                       label_gate, top_share)


# the position values the error-ensemble CSV reports, and the expected length
# E[M] of a factor's attempt window in the dark-count model
X_GRID = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)
EXPECTED_ATTEMPTS = 100.0


def event_probabilities(detector: DetectorModel) -> tuple[float, float, float]:
    """(p_correct, p_dark, p_miss) for one factor; they sum to one.

    p_dark = 1 − e^{−ν·E[M]} (a dark count preempts the real subtraction
    somewhere in the expected E[M]-attempt window, replacing the factor by the
    identity), p_miss = 1 − η (the heralding click was missed and the factor is
    applied twice), p_correct = remainder.
    """
    p_dark = 1.0 - math.exp(-detector.nu * EXPECTED_ATTEMPTS)
    p_miss = 1.0 - detector.eta
    p_correct = 1.0 - p_dark - p_miss
    if p_correct < 0.0:
        raise ValueError(f"config keys 'eta', 'dark_rate_hz' and 'window_s': p_miss = {p_miss:g} "
                         f"and p_dark = {p_dark:g} sum past 1; detector model too noisy")
    return p_correct, p_dark, p_miss


@dataclass(frozen=True)
class ErrorStatRow:
    x: float
    mean: complex
    stddev: float
    method: str = "enumerate"  # the only method: the exact product over the factors


def error_operator_row(gamma: float, n: int, detector: DetectorModel, x: float) -> ErrorStatRow:
    """Exact mean and standard deviation of A(x) over detector-error realizations.

    The 3^{3N} outcomes need not be enumerated: by independence E[Πf] = ΠE[f]
    and E|Πf|² = ΠE|f|², so one pass over the 3N factors costs O(N), with the
    variance of the product accumulated without cancellation.  Raises
    ValueError naming config key 'gamma' when the row passes the float range.
    """
    probs = event_probabilities(detector)
    x = float(x)
    try:
        ideal = cmath.exp(1j * gamma * x**3)
        # per factor of a repetition: the mean μ and variance v_f of its
        # (correct, dark, missed) values at x, the same in every repetition
        moments = []
        for gl in gamma_factors(gamma, n).gamma_l:
            f = (1.0 + gl * x, 1.0 + 0.0j, (1.0 + gl * x) ** 2)
            mu = sum(p * v for p, v in zip(probs, f))
            moments.append((mu, sum(p * abs(v - mu) ** 2 for p, v in zip(probs, f))))
        # Var Πf = Π(|μ_i|² + v_i) − Π|μ_i|², built factor by factor from
        # nonnegative terms so it stays exact near zero
        mean, var = 1.0 + 0.0j, 0.0
        for _ in range(int(n)):
            for mu, v_f in moments:
                var = abs(mu) ** 2 * var + v_f * (abs(mean) ** 2 + var)
                mean *= mu
        mean, stddev = mean - ideal, math.sqrt(var)
    except OverflowError:
        mean = stddev = math.inf
    if not (cmath.isfinite(mean) and math.isfinite(stddev)):
        raise ValueError(f"config key 'gamma': error moments at x={x:g}, N={n} overflow")
    return ErrorStatRow(x, mean, stddev)


def error_operator_stats(gamma: float, n: int, detector: DetectorModel) -> list[ErrorStatRow]:
    """``error_operator_row`` at each x of ``X_GRID``: the error-ensemble CSV."""
    return [error_operator_row(gamma, n, detector, x) for x in X_GRID]


# ---------------------------------------------------------------------------
# moment sweeps


# the sweep's grid: coherent inputs Re(α) + i·IM_ALPHA, and U_N for each N of N_LIST
N_LIST = (1, 3, 5, 7)
RE_ALPHA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5)
IM_ALPHA = 0.25


@dataclass(frozen=True)
class SweepRow:
    re_alpha: float
    ideal: float
    by_n: dict


@lru_cache(maxsize=4)
def _momentum_labels(cutoff: int) -> np.ndarray:
    """A = VᵀPV, P = ip̂ in the x̂ eigenbasis, read-only, in O(n²) from ``x_eigh`` alone:
    the truncated [x̂, P] is −I + n·e_{n−1}e_{n−1}ᵀ, so A_jk = n·V_{n−1,j}·V_{n−1,k}/(λ_j − λ_k)
    and A_jj = 0.  A is real and exactly antisymmetric."""
    w, v = x_eigh(cutoff)
    gaps = w[:, None] - w
    np.fill_diagonal(gaps, np.inf)
    a = cutoff * np.outer(v[-1], v[-1]) / gaps
    a.flags.writeable = False
    return a


def variance_sweep(gamma: float, cutoff: int) -> list[SweepRow]:
    """σ_p² after U_N and after the ideal gate, per Re(α) of ``RE_ALPHA_GRID``.

    Both gates are diagonal in the x̂ eigenbasis (``_gate_targets``), so every
    output is a stack of label amplitudes L: slice 0 holds the ideal gate's
    outputs and slice 1 + i those of U_N for N_LIST[i], one column per Re(α).
    Each moment is a column reduction in labels: ⟨p̂⟩ = Im(Lᴴ·A·L) and ⟨p̂²⟩ = ‖A·L‖²
    with A = VᵀPV, P = ip̂.  Every column must pass ``check_headroom``, on its
    top two Fock rows V[−2:]·L, and in full (V·L) when they near the bound."""
    c = int(cutoff)
    _, v = x_eigh(c)
    inputs = coherent_columns([complex(re_a, IM_ALPHA) for re_a in RE_ALPHA_GRID], c)
    diags = [_gate_targets(gamma, 1, c)[1]] + [_gate_targets(gamma, n, c)[0] for n in N_LIST]
    labels = np.stack(diags)[:, :, None] * real_matmul(v.T, inputs)
    labels /= np.linalg.norm(labels, axis=1, keepdims=True)
    # the columns are normalized: one under half the bound passes check_headroom
    top = (np.abs(real_matmul(v[-2:], labels)) ** 2).sum(axis=1)
    for i, j in zip(*np.nonzero(top > 0.5 * HEADROOM_BOUND)):
        name = "ideal" if i == 0 else f"N{N_LIST[i - 1]}"
        check_headroom(real_matmul(v, labels[i, :, j]),
                       lambda: f"sweep column {name} at re_alpha={RE_ALPHA_GRID[j]}")
    a_labels = real_matmul(_momentum_labels(c), labels)
    mean_p = (labels.conj() * a_labels).imag.sum(axis=1)
    var_p = (np.abs(a_labels) ** 2).sum(axis=1) - mean_p**2
    # one list per Re(α): the ideal gate's value, then U_N's for each N
    return [SweepRow(re_a, var[0], dict(zip(N_LIST, var[1:])))
            for re_a, var in zip(RE_ALPHA_GRID, var_p.T.tolist())]


# ---------------------------------------------------------------------------
# end-to-end gate fidelity


@dataclass(frozen=True)
class RunResult:
    success: bool
    total_attempts: int
    fidelity_un: float | None
    fidelity_ideal: float | None


@lru_cache(maxsize=8)
def _gate_targets(gamma: float, n: int, cutoff: int) -> tuple:
    """(U_N, ideal cubic gate) as diagonals in the x̂ eigenbasis, read-only.  As
    x̂³ = V·diag(λ³)·V† on the truncated space, U_N = V·diag((1 + iγλ³/N)^N)·V†
    and e^{iγx̂³} = V·diag(e^{iγλ³})·V† (dense: reference.u_n_operator and
    reference.ideal_cubic_gate)."""
    w, _ = x_eigh(cutoff)
    targets = ((1.0 + 1j * (gamma / n) * w**3) ** n, np.exp(1j * gamma * w**3))
    for t in targets:
        t.flags.writeable = False
    return targets


@lru_cache(maxsize=16, typed=True)
def _scored_input(alpha: complex, gamma: float, n: int, cutoff: int) -> tuple:
    """log V†ψ of the input |α⟩, its normalized U_N and ideal targets, V @ its U_N
    target and that target's ``top_share``, read-only; typed, so 1.0 and 1+0j differ."""
    _, v = x_eigh(cutoff)
    c_in, log_c_in = x_labels(coherent(alpha, cutoff).amplitudes)
    un, ideal = (t * c_in for t in _gate_targets(gamma, n, cutoff))
    arrays = (log_c_in, un / np.linalg.norm(un), ideal / np.linalg.norm(ideal), real_matmul(v, un))
    for a in arrays:
        a.flags.writeable = False
    return (*arrays, top_share(arrays[-1]))


def run_ensemble(config: ProtocolConfig, alphas, rngs) -> list[tuple[RunResult, TrialLog]]:
    """Run the full gate once per (coherent input α, generator) pair.

    Each run's output is scored by fidelity against the normalized U_N target
    and the ideal cubic gate applied to its input, all in the x̂ eigenbasis,
    where both are diagonal: from the cached input labels through
    ``label_gate``; after the gate's checks, the U_N target must pass
    ``check_headroom`` (its share is cached).  At γ = 0 the gate is the
    identity, and both fidelities are 1.0 exactly.  A run whose factor exhausts
    its attempt budget is a failure and carries no fidelity.  Seeding stays
    with the caller, which gives each run its own generator.
    """
    results = []
    for alpha, rng in zip(alphas, rngs):
        log = TrialLog()
        if config.gamma == 0.0:
            coherent(alpha, config.cutoff)  # raises CutoffError if the cutoff cannot hold it
            results.append((RunResult(True, 0, 1.0, 1.0), log))
            continue
        log_c, un, ideal, v_un, share = _scored_input(alpha, config.gamma, config.n, config.cutoff)
        try:
            c_out, _ = label_gate(log_c, config, rng, log)
        except FactorFailure:
            results.append((RunResult(False, log.total_attempts, None, None), log))
            continue
        if share > HEADROOM_BOUND:
            check_headroom(v_un, lambda: f"the U_N target of input {alpha}")
        f_un, f_id = (abs(np.vdot(c_out, t)) ** 2 for t in (un, ideal))
        results.append((RunResult(True, log.total_attempts, f_un, f_id), log))
    return results
