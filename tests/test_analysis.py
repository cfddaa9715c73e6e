import cmath
import itertools
import math
import warnings

import numpy as np
import pytest

from oracles import (
    error_factor_moments,
    gate_total_attempts,
    ideal_gate_p_mean,
    ideal_gate_p_variance,
)
from cubicphase.analysis import (
    ErrorEnsembleSpec,
    GateFidelityReport,
    MomentSweepSpec,
    error_operator_stats,
    event_probabilities,
    gate_fidelity_report,
    variance_sweep,
)
from cubicphase.cubic import gamma_factors
from cubicphase.protocol import IDEAL_DETECTOR, DetectorModel, ProtocolConfig

REALISTIC_DETECTOR = DetectorModel(eta=0.9, dark_rate_hz=100.0, window_s=1e-10)


def enumerated_error_stats(spec):
    """(x, E[A(x)], std A(x)) by summing all 3^{3N} detector-event outcomes."""
    probs = event_probabilities(spec)
    gl = gamma_factors(spec.gamma, spec.n).gamma_l
    rows = []
    for x in spec.x_grid:
        ideal = cmath.exp(1j * spec.gamma * x**3)
        values = [(1.0 + g * x, 1.0 + 0.0j, (1.0 + g * x) ** 2) for g in gl] * spec.n
        mean, mean_sq = 0.0 + 0.0j, 0.0
        for events in itertools.product(range(3), repeat=3 * spec.n):
            p, amp = 1.0, 1.0 + 0.0j
            for f, e in zip(values, events):
                p *= probs[e]
                amp *= f[e]
            mean += p * (amp - ideal)
            mean_sq += p * abs(amp - ideal) ** 2
        rows.append((x, mean, math.sqrt(max(0.0, mean_sq - abs(mean) ** 2))))
    return rows


class TestEventModel:
    def test_probabilities_sum_to_one(self):
        spec = ErrorEnsembleSpec(detector=REALISTIC_DETECTOR)
        assert sum(event_probabilities(spec)) == pytest.approx(1.0, abs=1e-15)

    def test_dark_probability_formula(self):
        spec = ErrorEnsembleSpec(detector=REALISTIC_DETECTOR, expected_attempts=100.0)
        _, p_dark, p_miss = event_probabilities(spec)
        assert p_dark == pytest.approx(1 - math.exp(-1e-8 * 100), rel=1e-9)
        assert p_miss == pytest.approx(0.1, abs=1e-12)


class TestErrorOperatorStats:
    def test_perfect_detector_zero_at_origin(self):
        spec = ErrorEnsembleSpec(detector=IDEAL_DETECTOR, x_grid=(0.0,))
        row = error_operator_stats(spec)[0]
        assert abs(row.mean) < 1e-14
        assert row.stddev < 1e-14

    def test_perfect_detector_scalar_value(self):
        spec = ErrorEnsembleSpec(detector=IDEAL_DETECTOR, x_grid=(1.0,))
        row = error_operator_stats(spec)[0]
        expected = abs((1 + 0.03j) - cmath.exp(0.03j))
        assert abs(row.mean) == pytest.approx(expected, rel=1e-9)
        assert row.stddev < 1e-14

    def test_matches_independence_oracle(self):
        spec = ErrorEnsembleSpec(detector=REALISTIC_DETECTOR, x_grid=(0.5, 1.5))
        probs = event_probabilities(spec)
        gl = gamma_factors(spec.gamma, spec.n).gamma_l
        for row in error_operator_stats(spec):
            mean_o, mean_abs2_o = error_factor_moments(row.x, gl, probs)
            assert abs(row.mean - mean_o) < 1e-12
            std_o = math.sqrt(max(0.0, mean_abs2_o - abs(mean_o) ** 2))
            assert row.stddev == pytest.approx(std_o, abs=1e-12)

    def test_fig1_shape(self):
        spec = ErrorEnsembleSpec(detector=REALISTIC_DETECTOR)
        rows = error_operator_stats(spec)
        means = [abs(r.mean) for r in rows]
        stds = [r.stddev for r in rows]
        by_x = {r.x: abs(r.mean) for r in rows}
        # re-evaluate at the criterion's probe points
        probe = error_operator_stats(
            ErrorEnsembleSpec(detector=REALISTIC_DETECTOR, x_grid=(0.25, 2.5))
        )
        assert abs(probe[0].mean) * 10 < abs(probe[1].mean)
        assert all(a <= b + 1e-15 for a, b in zip(stds, stds[1:]))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize(
        "detector",
        [REALISTIC_DETECTOR, DetectorModel(eta=0.7, dark_rate_hz=1e6, window_s=1e-9)],
        ids=["realistic", "noisy"],
    )
    def test_closed_form_matches_brute_force(self, n, detector):
        spec = ErrorEnsembleSpec(gamma=0.03, n=n, detector=detector)
        rows = error_operator_stats(spec, method="enumerate")
        assert all(r.method == "enumerate" for r in rows)
        for row, (x, mean, std) in zip(rows, enumerated_error_stats(spec)):
            assert row.x == x
            assert abs(row.mean - mean) <= 1e-13
            assert abs(row.stddev - std) <= 1e-13

    def test_monte_carlo_agrees_with_enumeration(self, rng):
        spec = ErrorEnsembleSpec(detector=REALISTIC_DETECTOR, x_grid=(1.0,), mc_samples=40_000)
        exact = error_operator_stats(spec, method="enumerate")[0]
        mc = error_operator_stats(spec, rng=rng, method="monte_carlo")[0]
        assert mc.stderr is not None
        assert abs(mc.mean - exact.mean) < 3 * (mc.stderr + 1e-12)

    def test_fallback_above_limit(self, rng):
        spec = ErrorEnsembleSpec(
            detector=REALISTIC_DETECTOR, n=4, x_grid=(0.5,), mc_samples=2000
        )
        row = error_operator_stats(spec, rng=rng)[0]
        assert row.method == "monte_carlo"

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            error_operator_stats(ErrorEnsembleSpec(), method="guess")


class TestVarianceSweep:
    def test_gamma_zero_all_columns_vacuum(self):
        spec = MomentSweepSpec(gamma=0.0, re_alpha_grid=(0.0, 0.5), cutoff=25)
        for row in variance_sweep(spec):
            assert row.ideal == pytest.approx(0.5, abs=1e-8)
            for v in row.by_n.values():
                assert v == pytest.approx(0.5, abs=1e-8)

    def test_ideal_column_matches_heisenberg_oracle(self):
        spec = MomentSweepSpec()
        for row in variance_sweep(spec):
            alpha = complex(row.re_alpha, spec.im_alpha)
            assert row.ideal == pytest.approx(
                ideal_gate_p_variance(spec.gamma, alpha), rel=1e-4
            )
            assert row.mean_p_ideal == pytest.approx(
                ideal_gate_p_mean(spec.gamma, alpha), abs=1e-4
            )

    def test_deviation_non_increasing_in_n(self):
        spec = MomentSweepSpec()
        for row in variance_sweep(spec):
            devs = [abs(row.by_n[n] - row.ideal) for n in spec.n_list]
            assert all(a >= b - 1e-9 for a, b in zip(devs, devs[1:]))

    def test_first_moment_agreement(self):
        # regression bounds frozen from the oracle run: the approximant is not
        # unitary and reweights ⟨x̂⟩ by O(γ²x⁶/N), up to 6.5e-2 at Re(α) = 1
        spec = MomentSweepSpec(re_alpha_grid=(0.0, 0.5, 1.0))
        for row in variance_sweep(spec):
            assert abs(row.mean_x_by_n[1] - row.mean_x_ideal) < 0.07
            assert abs(row.mean_p_by_n[1] - row.mean_p_ideal) < 0.02
            # the deviation is an O(1/N) artifact and shrinks accordingly
            assert abs(row.mean_x_by_n[7] - row.mean_x_ideal) <= (
                abs(row.mean_x_by_n[1] - row.mean_x_ideal) / 3 + 1e-9
            )

    def test_ideal_column_invariant_under_n_list(self):
        a = variance_sweep(MomentSweepSpec(n_list=(1, 3), re_alpha_grid=(0.5,)))
        b = variance_sweep(MomentSweepSpec(n_list=(1, 3, 5, 7), re_alpha_grid=(0.5,)))
        assert a[0].ideal == b[0].ideal

    def test_variances_nonnegative(self):
        for row in variance_sweep(MomentSweepSpec()):
            assert row.ideal >= 0
            assert all(v >= 0 for v in row.by_n.values())

    def test_unsorted_n_list_rejected(self):
        with pytest.raises(ValueError):
            MomentSweepSpec(n_list=(3, 1))


@pytest.fixture(scope="module")
def report():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        cfg = ProtocolConfig(
            gamma=0.001, n=1, alpha1=3.3, transmittance=0.9734,
            cutoff=14, detector=IDEAL_DETECTOR,
            max_attempts_per_factor=500,
        )
    rng = np.random.default_rng(np.random.SeedSequence(2024))
    return cfg, gate_fidelity_report(cfg, 300, rng, input_alphas=(0.3,))


class TestGateFidelityReport:

    def test_fidelity_thresholds(self, report):
        _, rep = report
        assert rep.mean_fidelity_un > 0.98
        assert 0.0 <= rep.mean_fidelity_un <= 1.0

    def test_attempt_statistics_against_oracle(self, report):
        cfg, rep = report
        gl = gamma_factors(cfg.gamma, cfg.n).gamma_l
        oracle_total = gate_total_attempts(
            0.3, cfg.alpha1, cfg.transmittance, [gl[2], gl[1], gl[0]]
        )
        assert rep.mean_total_attempts == pytest.approx(oracle_total, rel=0.10)

    def test_naive_ratio_matches_oracle_ratio(self, report):
        # mean total attempts vs 3N/p_first: attenuation drift keeps this
        # ratio near 1.1, so compare it with the oracle's ratio within four
        # standard errors of the sample
        cfg, rep = report
        gl = gamma_factors(cfg.gamma, cfg.n).gamma_l
        oracle_total = gate_total_attempts(
            0.3, cfg.alpha1, cfg.transmittance, [gl[2], gl[1], gl[0]]
        )
        totals = [r.total_attempts for r in rep.runs if r.success]
        se = np.std(totals, ddof=1) / math.sqrt(len(totals)) / rep.predicted_attempts
        assert abs(rep.attempts_ratio - oracle_total / rep.predicted_attempts) < 4 * se

    def test_failures_counted(self, report):
        _, rep = report
        assert rep.failures + sum(r.success for r in rep.runs) == len(rep.runs)

    def test_n3_closer_to_ideal_than_n1(self, force_click):
        # ordering check at fixed γ on the forced-success path
        fids = {}
        for n in (1, 3):
            cfg = ProtocolConfig(
                gamma=0.03, n=n, alpha1=0.2, transmittance=0.99,
                cutoff=30, detector=IDEAL_DETECTOR,
            )
            rep = gate_fidelity_report(cfg, 2, force_click, input_alphas=(0.3,))
            fids[n] = rep.mean_fidelity_ideal
        assert fids[3] > fids[1]
