"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All runs stay at desk scale (cutoffs <= 40 for criterion checks,
ensembles <= 10^4).
"""

import math
import warnings

import numpy as np
import pytest

from oracles import (
    coherent_position_density,
    factor_attempt_stats,
)
from cubicphase.analysis import (
    ErrorEnsembleSpec,
    MomentSweepSpec,
    error_operator_stats,
    variance_sweep,
)
from cubicphase.cli import parse_config, run as cli_run
from cubicphase.cubic import (
    factor_operator,
    gamma_factors,
    monomial_identity_report,
    polynomial_identity_report,
    u_n_convergence_norms,
    u_n_operator,
)
from cubicphase.hilbert import (
    apply,
    coherent,
    fidelity,
    interior_max_norm,
    partial_trace,
    quadrature_x,
    state_fidelity,
    vacuum,
)
from cubicphase.protocol import (
    IDEAL_DETECTOR,
    DetectorModel,
    ProtocolConfig,
    couple_resource,
    detector_povm,
    full_gate,
    rus_factor,
    subtraction_attempt,
)
from cubicphase.schemes import (
    GkpStateSpec,
    gkp_cubic_state,
    marek_frame_coefficients,
    marek_resource_state,
    marek_restart_mc,
    marek_restart_mean,
)


def check(criterion: int, description: str, condition: bool):
    status = "PASS" if condition else "FAIL"
    print(f"[criterion {criterion:2d}] {status}  {description}")
    assert condition, f"criterion {criterion}: {description}"


class ForceClick:
    def random(self):
        return 0.0


def test_criterion_1_decomposition_identities():
    c = 40
    x = quadrature_x(c).matrix
    x3 = np.linalg.matrix_power(x, 3)
    x6 = np.linalg.matrix_power(x, 6)
    worst_fact, worst_norm = 0.0, 0.0
    for gamma in (0.03, 0.1):
        for n in (1, 3, 7):
            dec = gamma_factors(gamma, n)
            prod = np.eye(c, dtype=complex)
            for gl in dec.gamma_l:
                prod = prod @ factor_operator(gl, c).matrix
            fact = interior_max_norm(prod - np.eye(c) - 1j * (gamma / n) * x3, (c,), 2)
            nrm = interior_max_norm(
                prod.conj().T @ prod - np.eye(c) - (gamma / n) ** 2 * x6, (c,), 2
            )
            worst_fact = max(worst_fact, fact)
            worst_norm = max(worst_norm, nrm)
    check(
        1,
        f"factorization residual {worst_fact:.2e}, norm-identity residual "
        f"{worst_norm:.2e} (tolerance 1e-8)",
        worst_fact < 1e-8 and worst_norm < 1e-8,
    )


def test_criterion_2_convergence_slope():
    ns = (1, 2, 4, 8, 16)
    norms = u_n_convergence_norms(0.03, ns, 40)
    slope = float(np.polyfit(np.log(ns), np.log(norms), 1)[0])
    monotone = all(a > b for a, b in zip(norms, norms[1:]))
    check(
        2,
        f"U_N vs ideal low-window norm slope {slope:+.3f} (target -1 +/- 0.2), "
        f"monotone={monotone}",
        monotone and -1.2 < slope < -0.8,
    )


def test_criterion_3_protocol_correctness():
    cfg = ProtocolConfig(
        gamma=0.03, n=1, alpha1=0.2, transmittance=0.99,
        cutoff=30, detector=IDEAL_DETECTOR,
    )
    psi = coherent(0.3, 30)
    dec = gamma_factors(0.03, 1)
    single_fids = []
    for l in range(3):
        out, _ = rus_factor(psi, dec.gamma_l[l], cfg, ForceClick(), factor_index=l)
        target = apply(factor_operator(dec.gamma_l[l], 30), psi).normalize()
        single_fids.append(fidelity(out, target))
    out, _ = full_gate(psi, cfg, ForceClick())
    full_fid = fidelity(out, apply(u_n_operator(0.03, 1, 30), psi).normalize())
    check(
        3,
        f"single-factor fidelities {min(single_fids):.6f} (> 0.99), "
        f"full-gate fidelity {full_fid:.6f} (> 0.98)",
        min(single_fids) > 0.99 and full_fid > 0.98,
    )


@pytest.fixture(scope="module")
def stats_config():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return ProtocolConfig(
            gamma=0.001, n=2, alpha1=3.3, transmittance=0.9734,
            cutoff=8, detector=IDEAL_DETECTOR,
            max_attempts_per_factor=500,
        )


def test_criterion_4_rus_statistics(stats_config):
    # p_exact := POVM-derived exact click rate per attempt; its inverse is the
    # expected attempt count computed by the independent quadrature oracle
    cfg = stats_config
    gl = gamma_factors(cfg.gamma, cfg.n).gamma_l
    _, inv_p_exact, _, _ = factor_attempt_stats(
        coherent_position_density(0.0), cfg.alpha1, cfg.transmittance, gl[2]
    )

    v = vacuum([8])
    ms = []
    for i in range(10_000):
        rng = np.random.default_rng(np.random.SeedSequence(101, spawn_key=(i,)))
        _, rec = rus_factor(v, gl[2], cfg, rng, factor_index=2)
        ms.append(rec.attempts)
    mean_m = float(np.mean(ms))
    dev_factor = abs(mean_m - inv_p_exact) / inv_p_exact

    totals = []
    for i in range(1_000):
        rng = np.random.default_rng(np.random.SeedSequence(202, spawn_key=(i,)))
        _, log = full_gate(v, cfg, rng)
        totals.append(log.total_attempts)
    mean_total = float(np.mean(totals))
    predicted_total = 3 * cfg.n * inv_p_exact
    dev_total = abs(mean_total - predicted_total) / predicted_total

    check(
        4,
        f"mean attempts/factor {mean_m:.3f} vs 1/p_exact {inv_p_exact:.3f} "
        f"({100 * dev_factor:.2f}% < 5%); total {mean_total:.2f} vs 3N/p "
        f"{predicted_total:.2f} ({100 * dev_total:.2f}% < 10%)",
        dev_factor < 0.05 and dev_total < 0.10,
    )


@pytest.mark.filterwarnings("error::scipy.linalg.LinAlgWarning")
def test_criterion_5_no_click_invariance():
    psi = coherent(0.3, 30)
    gl = gamma_factors(0.03, 1).gamma_l[0]
    coupled = couple_resource(psi, 0.2, gl, (30, 25)).normalize()
    rho_before = partial_trace(coupled, None, keep=(0,))

    class ForceNoClick:
        def random(self):
            return 1.0 - 1e-15

    out, outcome, _ = subtraction_attempt(
        coupled, 1, 0.99, IDEAL_DETECTOR, ForceNoClick()
    )
    rho_after = partial_trace(out, None, keep=(0,))
    fid = state_fidelity(rho_before, rho_after)
    check(
        5,
        f"system reduced-state fidelity after a no-click attempt {fid:.9f} "
        f"(> 1 - 1e-6), outcome={outcome}",
        outcome == "no_click" and fid > 1 - 1e-6,
    )


def test_criterion_6_detector_error_ensemble():
    detector = DetectorModel(eta=0.9, dark_rate_hz=100.0, window_s=1e-10)
    spec = ErrorEnsembleSpec(
        gamma=0.03, n=1, detector=detector, x_grid=(0.0, 0.5, 1.0, 1.5, 2.0, 2.5)
    )
    rows = error_operator_stats(spec)
    stds = [r.stddev for r in rows]
    monotone = all(a <= b + 1e-15 for a, b in zip(stds, stds[1:]))
    probe = error_operator_stats(
        ErrorEnsembleSpec(gamma=0.03, n=1, detector=detector, x_grid=(0.25, 2.5))
    )
    ratio_ok = abs(probe[0].mean) * 10 <= abs(probe[1].mean)
    check(
        6,
        f"|E[A(0.25)]|={abs(probe[0].mean):.2e} vs |E[A(2.5)]|={abs(probe[1].mean):.2e} "
        f"(>=10x), std monotone={monotone}",
        ratio_ok and monotone,
    )


def test_criterion_7_variance_sweep():
    spec = MomentSweepSpec(
        gamma=0.03, n_list=(1, 3, 5, 7),
        re_alpha_grid=(0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5), im_alpha=0.25, cutoff=40,
    )
    rows = variance_sweep(spec)
    ok = True
    for row in rows:
        devs = [abs(row.by_n[n] - row.ideal) for n in spec.n_list]
        ok &= all(a >= b - 1e-9 for a, b in zip(devs, devs[1:]))
    check(
        7,
        f"|sigma_p^2(U_N) - sigma_p^2(ideal)| non-increasing over N={spec.n_list} "
        f"at all {len(rows)} grid points",
        ok,
    )


def test_criterion_8_detector_povm():
    d = DetectorModel(eta=0.9, dark_rate_hz=100.0, window_s=1e-10)
    pi0, pick = detector_povm(d, 12)
    m = np.arange(12)
    entries_exact = np.array_equal(
        np.diag(pi0.matrix).real, math.exp(-d.nu) * (1.0 - d.eta) ** m
    )
    complete = np.array_equal(pi0.matrix + pick.matrix, np.eye(12))
    check(
        8,
        "Pi_0 entries equal e^{-nu}(1-eta)^m exactly and Pi_0 + Pi_click = I exactly",
        entries_exact and complete,
    )


def test_criterion_9_marek_resource_and_restart(rng):
    st = marek_resource_state(1.5, 0.03, 40)
    co = marek_frame_coefficients(st, 1.5)
    others = np.abs(co).copy()
    others[[0, 1, 3]] = 0.0
    support_ok = float(others.max()) < 1e-10
    ratio_err = abs(abs(co[3] / co[1]) - math.sqrt(6) / 3)

    mc_ok = True
    details = []
    for p, runs in ((0.1, 4000), (0.2, 10_000)):
        est = marek_restart_mc(p, runs, rng)
        exact = marek_restart_mean(p)
        rel = abs(est - exact) / exact
        details.append(f"p={p}: mc {est:.1f} vs (1+p+p^2)/p^3 {exact:.1f} ({100*rel:.1f}%)")
        mc_ok &= rel < 0.05
    check(
        9,
        f"squeezed-frame support leak {others.max():.1e} (<1e-10), |3>/|1> ratio "
        f"err {ratio_err:.1e} (<1e-6); restart model: " + "; ".join(details),
        support_ok and ratio_err < 1e-6 and mc_ok,
    )


def test_criterion_10_gkp_formula():
    rec = gkp_cubic_state(GkpStateSpec(n=49, alpha=20.0))
    coeff_err = abs(rec.cubic_coeff - 1.0 / (6.0 * math.sqrt(2.0 * 49.5)))
    c199 = gkp_cubic_state(GkpStateSpec(n=199, alpha=20.0)).cubic_coeff
    ratio = rec.cubic_coeff / c199
    check(
        10,
        f"cubic coefficient 1/(6 sqrt(2E)) exact (err {coeff_err:.1e}), "
        f"n^(-1/2) scaling ratio {ratio:.4f} (2 within 1%)",
        coeff_err < 1e-12 and abs(ratio - 2.0) / 2.0 < 0.01,
    )


def test_criterion_11_identity_reports():
    ok = True
    details = []
    for maker, args in (
        (monomial_identity_report, (4,)),
        (polynomial_identity_report, (1, 1)),
        (polynomial_identity_report, (2, 1)),
    ):
        r40 = maker(*args, 40)
        r60 = maker(*args, 60)
        stable = abs(r40.fitted_constant - r60.fitted_constant) < 1e-6
        ok &= stable and r40.residual < 1e-6 and r60.residual < 1e-6
        details.append(f"{r40.name}: c={r40.fitted_constant:.6f} res={r40.residual:.1e}")
    check(11, "cutoff-stable fitted constants, residual < 1e-6: " + "; ".join(details), ok)


def test_criterion_12_cli_determinism(tmp_path):
    blobs = []
    for i in range(2):
        out = tmp_path / f"ids-{i}.csv"
        cfg = parse_config(None, {"out": str(out), "seed": 9, "cutoff": 24})
        cli_run("check-identities", cfg)
        blobs.append(out.read_bytes())
    ids_same = blobs[0] == blobs[1]
    blobs = []
    for i in range(2):
        out = tmp_path / f"err-{i}.csv"
        cfg = parse_config(None, {"out": str(out), "seed": 9})
        cli_run("error-ensemble", cfg)
        blobs.append(out.read_bytes())
    err_same = blobs[0] == blobs[1]
    check(12, "repeated CLI invocations with one seed are byte-identical", ids_same and err_same)
