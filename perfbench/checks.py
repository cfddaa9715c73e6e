"""Output checks.  Each returns an error string, or None when the output is right.

The references are the independent oracles in ``tests/oracles.py`` (1-D
quadratures and closed forms, never the package's Fock matrices) and closed
forms written here.  Checks call no traced entry point of the package.
"""

from __future__ import annotations

import cmath
import csv
import io
import math

import numpy as np

from oracles import error_factor_moments, gate_total_attempts, ideal_gate_p_variance

import workloads as wl

SIMULATE_HEADER = ["run", "success", "total_attempts", "fidelity_un", "fidelity_ideal"]

# Lowest fidelity_un a heralded rus_herald run may show.  Keeping the dominant
# pure component at decoupling costs fidelity on long factors: forcing the
# click at attempt M gives single-factor fidelity 0.77 for M >= 200 on the
# l = 0, 1 factors.  Two such factors in one run still leave ~0.6, so a run
# below 0.5 means a broken gate, not RUS statistics.
HERALD_FIDELITY_FLOOR = 0.5

# Attempt-count oracle tolerance, in standard errors of the sample mean
# (two-sided false-alarm rate ~6e-5 per run).
ORACLE_Z = 4.0


def gamma_l(gamma: float, n: int) -> list[complex]:
    """γ_l = e^{iπ(4l+1)/6}(γ/N)^{1/3}, l = 0, 1, 2 (PRA 91, 032321, Eq. 4)."""
    mag = (gamma / n) ** (1.0 / 3.0)
    return [mag * cmath.exp(1j * math.pi * (4 * l + 1) / 6.0) for l in range(3)]


def _rows(data: bytes, header) -> tuple[list[list[str]] | None, str | None]:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if not rows or rows[0] != list(header):
        return None, f"CSV header {rows[0] if rows else None} != {list(header)}"
    return rows[1:], None


def check_simulate(data: bytes, workload: str) -> tuple[str | None, dict]:
    """One gate-run row.  Returns (error, row fields used by aggregate checks)."""
    rows, err = _rows(data, SIMULATE_HEADER)
    if err:
        return err, {}
    if len(rows) != 1:
        return f"{len(rows)} rows, expected 1", {}
    _, success, total, f_un, f_id = rows[0]
    success, total = int(success), int(total)
    fields = {"success": success, "total_attempts": total}
    if success not in (0, 1) or total < 1:
        return f"bad row {rows[0]}", fields
    if success == 0:
        # faithful RUS physics, not a failure: a factor used up its budget
        budget = wl.WORKLOADS[workload].config["max_attempts"]
        return (None if total >= budget and f_un == "" else f"bad success=0 row {rows[0]}"), fields
    f_un, f_id = float(f_un), float(f_id)
    fields["fidelity_un"] = f_un
    if not (0.0 <= f_un <= 1.0 + 1e-9 and 0.0 <= f_id <= 1.0 + 1e-9):
        return f"fidelity out of range {rows[0]}", fields
    if workload == "rus_herald" and f_un < HERALD_FIDELITY_FLOOR:
        return f"fidelity_un {f_un:.4f} below floor {HERALD_FIDELITY_FLOOR}", fields
    return None, fields


def check_sweep_variance(data: bytes) -> str | None:
    rows, err = _rows(data, ["re_alpha", "ideal", "N1", "N3", "N5", "N7"])
    if err:
        return err
    if len(rows) != 7:
        return f"{len(rows)} sweep rows, expected 7"
    for row in rows:
        alpha = complex(float(row[0]), 0.25)
        want = ideal_gate_p_variance(wl.DENSE_GAMMA, alpha)
        if abs(float(row[1]) - want) > 1e-4 * want:
            return f"ideal sigma_p^2 {row[1]} at Re(alpha)={row[0]} != oracle {want!r}"
    return None


def _error_moments(x: float, gamma: float, n: int, probs) -> tuple[complex, float]:
    """E[A(x)] and std A(x) for N independent steps of three factors.

    ``error_factor_moments`` gives one step's moments against that step's
    ideal e^{i(γ/N)x³}; undo that reference, raise the step moments to the
    N-th power (steps are independent) and compare with e^{iγx³}.
    """
    step_ideal = cmath.exp(1j * (gamma / n) * x**3)
    mean_a, mean_abs2 = error_factor_moments(x, gamma_l(gamma, n), probs)
    mean_p = complex(mean_a) + step_ideal
    mean_p2 = float(mean_abs2) + 2.0 * (step_ideal.conjugate() * mean_p).real - 1.0
    ideal = cmath.exp(1j * gamma * x**3)
    mean_pn, mean_pn2 = mean_p**n, mean_p2**n
    mean = mean_pn - ideal
    abs2 = mean_pn2 - 2.0 * (ideal.conjugate() * mean_pn).real + 1.0
    return mean, math.sqrt(max(0.0, abs2 - abs(mean) ** 2))


def check_error_ensemble(data: bytes) -> str | None:
    rows, err = _rows(data, ["x", "mean_re", "mean_im", "stddev", "method"])
    if err:
        return err
    if len(rows) != 6:
        return f"{len(rows)} ensemble rows, expected 6"
    # CLI defaults: eta 0.9, 100 Hz dark rate, 100 ps window, E[M] = 100 attempts
    p_dark = 1.0 - math.exp(-100.0 * 1e-10 * 100.0)
    p_miss = 1.0 - 0.9
    probs = (1.0 - p_dark - p_miss, p_dark, p_miss)
    for x, mre, mim, std, method in rows:
        if method != "enumerate":
            return f"method {method}, expected exact enumeration"
        mean, sd = _error_moments(float(x), wl.DENSE_GAMMA, wl.DENSE_ERROR_N, probs)
        if abs(complex(float(mre), float(mim)) - mean) > 1e-12 or abs(float(std) - sd) > 1e-12:
            return f"E[A({x})]=({mre}, {mim}) std={std} != oracle {mean!r} {sd!r}"
    return None


def check_identities(data: bytes) -> str | None:
    rows, err = _rows(data, ["identity_name", "fitted_constant", "residual", "cutoff"])
    if err:
        return err
    want = {"monomial_m4": 4.0, "monomial_m5": 4.0, "polynomial_m1_n1": 2.0,
            "polynomial_m2_n1": 2.0, "polynomial_m1_n2": 2.0}
    got = {r[0]: float(r[1]) for r in rows}
    for name, const in want.items():
        if name not in got or abs(got[name] - const) > 1e-6:
            return f"fitted constant of {name} is {got.get(name)}, expected {const}"
    return None


# eigenvalues of the truncated x̂ = (â+â†)/√2 are the roots of the Hermite H_n
_MAREK_BINS = np.polynomial.hermite.hermgauss(wl.MAREK_CUTOFFS[1])[0]


def check_marek(result) -> str | None:
    state, q, applied = result
    if state.cutoffs != (wl.MAREK_CUTOFFS[0],):
        return f"output cutoffs {state.cutoffs}"
    nrm = float(np.linalg.norm(state.amplitudes))
    if abs(nrm - 1.0) > 1e-9:
        return f"output norm {nrm!r}"
    if not (q == 0.0 or np.min(np.abs(_MAREK_BINS - q)) < 1e-8):
        return f"homodyne outcome {q!r} is not a bin of the truncated x"
    if applied != (q != 0.0):
        return f"feed-forward applied={applied} with q={q!r}"
    return None


def check_op(op: wl.Op, result, workload: str) -> tuple[str | None, dict]:
    """Check one operation's output.  Returns (error, fields for aggregates)."""
    if op.kind == "marek":
        return check_marek(result), {}
    if result != 0:
        return f"exit code {result}", {}
    with open(op.out, "rb") as fh:
        data = fh.read()
    if op.kind == "simulate":
        err, fields = check_simulate(data, workload)
        return err, fields
    checker = {"sweep-variance": check_sweep_variance, "error-ensemble": check_error_ensemble,
               "check-identities": check_identities}[op.kind]
    return checker(data), {}


def check_herald_oracle(totals: list[int]) -> tuple[str | None, str]:
    """Mean total attempts of heralded runs vs gate_total_attempts.

    Returns (error or None, one-line detail).
    """
    cfg = wl.HERALD_CONFIG
    gl = gamma_l(cfg["gamma"], cfg["N"])
    # full_gate applies l = 2, 1, 0 in each of the N repetitions
    expected = gate_total_attempts(complex(cfg["input_alpha"]), cfg["alpha1"],
                                   cfg["transmittance"], [gl[2], gl[1], gl[0]] * cfg["N"],
                                   eta=cfg["eta"], nu=0.0)
    n = len(totals)
    if n < 2:
        return f"only {n} heralded runs", f"oracle expects {expected:.3f} attempts"
    mean = float(np.mean(totals))
    se = float(np.std(totals, ddof=1)) / math.sqrt(n)
    detail = (f"mean total_attempts {mean:.3f} over {n} runs vs gate_total_attempts "
              f"{expected:.3f}: |diff| {abs(mean - expected):.3f}, tolerance "
              f"{ORACLE_Z:g} SE = {ORACLE_Z * se:.3f}")
    return (None if abs(mean - expected) <= ORACLE_Z * se else detail), detail
