import cmath
import itertools
import math
import warnings

import numpy as np
import pytest

from oracles import (
    error_factor_moments,
    gate_total_attempts,
    ideal_gate_p_variance,
    sampled_error_mean,
)
from cubicphase import analysis, protocol
from cubicphase.analysis import (
    EXPECTED_ATTEMPTS,
    IM_ALPHA,
    N_LIST,
    RE_ALPHA_GRID,
    X_GRID,
    _gate_targets,
    error_operator_row,
    error_operator_stats,
    event_probabilities,
    variance_sweep,
)
from cubicphase.cubic import gamma_factors
from cubicphase.errors import FactorFailure, NumericalDegradationError
from cubicphase.gaussian import x_eigh
from cubicphase.hilbert import coherent
from cubicphase.protocol import IDEAL_DETECTOR, DetectorModel, ProtocolConfig, full_gate
from cubicphase.reference import (
    apply,
    expectation,
    ideal_cubic_gate,
    normalize,
    quadrature_p,
    u_n_operator,
)

REALISTIC_DETECTOR = DetectorModel(eta=0.9, dark_rate_hz=100.0, window_s=1e-10)
# the gate's defaults, at which the analyses run unless a test sets otherwise
GAMMA, N = ProtocolConfig.gamma, ProtocolConfig.n

# (ProtocolConfig keywords, coherent input α) scored both in label space and
# through full_gate's FockState
SCORED_CASES = {
    "rus_herald": (dict(gamma=0.001, n=2, alpha1=3.3, transmittance=0.9734, cutoff=8,
                        max_attempts_per_factor=500, detector=IDEAL_DETECTOR), 0.0),
    "lossy": (dict(gamma=0.05, alpha1=2.0, transmittance=0.95, cutoff=20, max_attempts_per_factor=60,
                   detector=DetectorModel(eta=0.7, dark_rate_hz=0.02, window_s=1.0)), 0.3 + 0.2j),
    "strong_n3": (dict(gamma=0.01, n=3, alpha1=3.0, transmittance=0.97, cutoff=24,
                       max_attempts_per_factor=200, detector=REALISTIC_DETECTOR), -0.2 + 0.1j),
}


def identity_label_gate(c, config, rng, log):
    return c, None


def fock_route_scores(config, alpha, rng):
    """(success, total_attempts, F_un, F_ideal) of one run scored as before
    label-space scoring: full_gate on the FockState input, then the fidelities
    of V† of its output against the label targets."""
    _, v = x_eigh(config.cutoff)
    inp = coherent(alpha, config.cutoff)
    try:
        out, log = full_gate(inp, config, rng)
    except FactorFailure as err:
        return False, err.log.total_attempts, None, None
    c_in, c_out = v.conj().T @ inp.amplitudes, v.conj().T @ out.amplitudes
    un, ideal = (t * c_in for t in _gate_targets(config.gamma, config.n, config.cutoff))
    f_un, f_id = (abs(np.vdot(c_out, t)) ** 2 / np.vdot(t, t).real for t in (un, ideal))
    return True, log.total_attempts, f_un, f_id


def enumerated_error_stats(gamma, n, detector):
    """(x, E[A(x)], std A(x)) on ``X_GRID`` by summing all 3^{3N} detector-event outcomes."""
    probs = event_probabilities(detector)
    gl = gamma_factors(gamma, n).gamma_l
    rows = []
    for x in X_GRID:
        ideal = cmath.exp(1j * gamma * x**3)
        values = [(1.0 + g * x, 1.0 + 0.0j, (1.0 + g * x) ** 2) for g in gl] * n
        mean, mean_sq = 0.0 + 0.0j, 0.0
        for events in itertools.product(range(3), repeat=3 * n):
            p, amp = 1.0, 1.0 + 0.0j
            for f, e in zip(values, events):
                p *= probs[e]
                amp *= f[e]
            mean += p * (amp - ideal)
            mean_sq += p * abs(amp - ideal) ** 2
        rows.append((x, mean, math.sqrt(max(0.0, mean_sq - abs(mean) ** 2))))
    return rows


def dense_sweep_variances(gamma, cutoff):
    """Per Re(α) of ``RE_ALPHA_GRID``: σ_p² after the dense ideal gate, then after
    the dense U_N for each N of ``N_LIST``, each output a normalized ``apply`` of
    the operator."""
    c = cutoff
    p = quadrature_p(c)
    p2 = p @ p
    gates = [ideal_cubic_gate(gamma, c)] + [u_n_operator(gamma, n, c) for n in N_LIST]
    rows = []
    for re_a in RE_ALPHA_GRID:
        inp = coherent(complex(re_a, IM_ALPHA), c)
        outs = [normalize(apply(g, inp)) for g in gates]
        rows.append([expectation(p2, o).real - expectation(p, o).real ** 2 for o in outs])
    return rows


class TestEventModel:
    def test_probabilities_sum_to_one(self):
        assert sum(event_probabilities(REALISTIC_DETECTOR)) == pytest.approx(1.0, abs=1e-15)

    def test_dark_probability_formula(self):
        assert EXPECTED_ATTEMPTS == 100.0
        _, p_dark, p_miss = event_probabilities(REALISTIC_DETECTOR)
        assert p_dark == pytest.approx(1 - math.exp(-1e-8 * 100), rel=1e-9)
        assert p_miss == pytest.approx(0.1, abs=1e-12)


class TestErrorOperatorStats:
    def test_perfect_detector_zero_at_origin(self):
        row = error_operator_row(GAMMA, N, IDEAL_DETECTOR, 0.0)
        assert abs(row.mean) < 1e-14
        assert row.stddev < 1e-14

    def test_perfect_detector_scalar_value(self):
        row = error_operator_row(GAMMA, N, IDEAL_DETECTOR, 1.0)
        expected = abs((1 + 0.03j) - cmath.exp(0.03j))
        assert abs(row.mean) == pytest.approx(expected, rel=1e-9)
        assert row.stddev < 1e-14

    def test_matches_independence_oracle(self):
        probs = event_probabilities(REALISTIC_DETECTOR)
        gl = gamma_factors(GAMMA, N).gamma_l
        for x in (0.5, 1.5):
            row = error_operator_row(GAMMA, N, REALISTIC_DETECTOR, x)
            mean_o, mean_abs2_o = error_factor_moments(row.x, gl, probs)
            assert abs(row.mean - mean_o) < 1e-12
            std_o = math.sqrt(max(0.0, mean_abs2_o - abs(mean_o) ** 2))
            assert row.stddev == pytest.approx(std_o, abs=1e-12)

    def test_rows_are_the_per_x_rows_on_the_grid(self):
        rows = error_operator_stats(GAMMA, 2, REALISTIC_DETECTOR)
        assert [r.x for r in rows] == list(X_GRID)
        assert rows == [error_operator_row(GAMMA, 2, REALISTIC_DETECTOR, x) for x in X_GRID]

    def test_fig1_shape(self):
        rows = error_operator_stats(GAMMA, N, REALISTIC_DETECTOR)
        stds = [r.stddev for r in rows]
        # evaluate at the criterion's probe points, 0.25 off the grid
        probe = [error_operator_row(GAMMA, N, REALISTIC_DETECTOR, x) for x in (0.25, 2.5)]
        assert abs(probe[0].mean) * 10 < abs(probe[1].mean)
        assert all(a <= b + 1e-15 for a, b in zip(stds, stds[1:]))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize(
        "detector",
        [REALISTIC_DETECTOR, DetectorModel(eta=0.7, dark_rate_hz=1e6, window_s=1e-9)],
        ids=["realistic", "noisy"],
    )
    def test_closed_form_matches_brute_force(self, n, detector):
        rows = error_operator_stats(0.03, n, detector)
        assert all(r.method == "enumerate" for r in rows)
        for row, (x, mean, std) in zip(rows, enumerated_error_stats(0.03, n, detector), strict=True):
            assert row.x == x
            assert abs(row.mean - mean) <= 1e-13
            assert abs(row.stddev - std) <= 1e-13

    def test_exact_within_sampling_error_at_n4(self, rng):
        # 3^12 outcomes, too many to sum: the exact mean must lie within 4σ
        # of the mean over sampled detector events
        gamma_l = gamma_factors(GAMMA, 4).gamma_l * 4
        for x in (0.5, 1.0, 2.0):
            row = error_operator_row(GAMMA, 4, REALISTIC_DETECTOR, x)
            mean, stderr = sampled_error_mean(row.x, GAMMA, gamma_l,
                                              event_probabilities(REALISTIC_DETECTOR), 40_000, rng)
            assert abs(row.mean - mean) < 4 * stderr


class TestMomentumLabels:
    @pytest.mark.parametrize("cutoff", [2, 3, 8, 30, 120])
    def test_closed_form_is_the_dense_product(self, cutoff):
        # A = VᵀPV with P = ip̂ from the dense oracle; the closed form reads only
        # V's last row and the eigenvalue gaps, so A is exactly antisymmetric
        _, v = x_eigh(cutoff)
        a = analysis._momentum_labels(cutoff)
        assert np.abs(a - v.T @ (1j * quadrature_p(cutoff).matrix) @ v).max() <= 1e-12
        assert np.array_equal(a, -a.T)
        assert not np.diag(a).any()
        assert not a.flags.writeable


class TestVarianceSweep:
    def test_gamma_zero_all_columns_vacuum(self):
        for row in variance_sweep(0.0, 25):
            assert row.ideal == pytest.approx(0.5, abs=1e-8)
            for v in row.by_n.values():
                assert v == pytest.approx(0.5, abs=1e-8)

    def test_rows_on_the_grids(self):
        rows = variance_sweep(GAMMA, 30)
        assert [r.re_alpha for r in rows] == list(RE_ALPHA_GRID)
        assert all(list(r.by_n) == list(N_LIST) for r in rows)

    def test_ideal_column_matches_heisenberg_oracle(self):
        for row in variance_sweep(GAMMA, 40):
            alpha = complex(row.re_alpha, IM_ALPHA)
            assert row.ideal == pytest.approx(ideal_gate_p_variance(GAMMA, alpha), rel=1e-4)

    def test_deviation_non_increasing_in_n(self):
        for row in variance_sweep(GAMMA, 40):
            devs = [abs(row.by_n[n] - row.ideal) for n in N_LIST]
            assert all(a >= b - 1e-9 for a, b in zip(devs, devs[1:]))

    @pytest.mark.parametrize("cutoff", [30, 40, 120])
    def test_matches_dense_reference(self, cutoff):
        rows = variance_sweep(GAMMA, cutoff)
        for row, dense in zip(rows, dense_sweep_variances(GAMMA, cutoff), strict=True):
            got = [row.ideal] + [row.by_n[n] for n in N_LIST]
            assert np.array(got) == pytest.approx(np.array(dense), rel=1e-10)

    def test_variances_nonnegative(self):
        for row in variance_sweep(GAMMA, 40):
            assert row.ideal >= 0
            assert all(v >= 0 for v in row.by_n.values())


def ensemble_rngs():
    """A fresh copy of the ensemble's 300 child generators."""
    return np.random.default_rng(np.random.SeedSequence(2024)).spawn(300)


@pytest.fixture(scope="module")
def ensemble():
    """300 runs of the one-repetition gate on |0.3⟩, each on its own child generator."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        cfg = ProtocolConfig(
            gamma=0.001, n=1, alpha1=3.3, transmittance=0.9734,
            cutoff=14, detector=IDEAL_DETECTOR,
            max_attempts_per_factor=500,
        )
    return cfg, analysis.run_ensemble(cfg, [0.3] * 300, ensemble_rngs())


class TestRunEnsembleStatistics:

    def test_mean_fidelity_un(self, ensemble):
        _, results = ensemble
        done = [r for r, _ in results if r.success]
        assert 0.98 < np.mean([r.fidelity_un for r in done]) <= 1.0

    def test_mean_attempts_against_oracle(self, ensemble):
        cfg, results = ensemble
        done = [r for r, _ in results if r.success]
        gl = gamma_factors(cfg.gamma, cfg.n).gamma_l
        oracle_total = gate_total_attempts(
            0.3, cfg.alpha1, cfg.transmittance, [gl[2], gl[1], gl[0]]
        )
        assert np.mean([r.total_attempts for r in done]) == pytest.approx(oracle_total, rel=0.10)

    def test_runs_match_their_logs(self, ensemble):
        # at 500 attempts a factor every run is heralded; a failed run's
        # scoring is checked by TestGateTargets
        _, results = ensemble
        assert len(results) == 300
        for r, log in results:
            assert r.success and log.success
            assert r.total_attempts == log.total_attempts
            assert 0.0 <= r.fidelity_un <= 1.0 + 1e-12
            assert 0.0 <= r.fidelity_ideal <= 1.0 + 1e-12

    def test_every_factor_attempted(self, ensemble):
        # a heralded run passed factors l = 2, 1, 0 once per repetition, each
        # after at least one attempt, and clicked on the last attempt of each
        cfg, results = ensemble
        for r, log in results:
            assert [(f.repetition, f.factor_index) for f in log.factors] == [
                (k, l) for k in range(cfg.n) for l in (2, 1, 0)]
            assert all(f.attempts >= 1 and f.success for f in log.factors)
            assert r.total_attempts >= 3 * cfg.n

    def test_run_depends_only_on_its_generator(self, ensemble):
        # the same children in reverse order give the same runs: nothing is
        # carried from one run to the next
        cfg, results = ensemble
        picked = list(range(40, 60))
        rngs = ensemble_rngs()
        again = analysis.run_ensemble(cfg, [0.3] * len(picked), [rngs[i] for i in reversed(picked)])
        assert [r for r, _ in again] == [results[i][0] for i in reversed(picked)]

    def test_n3_closer_to_ideal_than_n1(self, force_click):
        # ordering check at fixed γ on the forced-success path
        fids = {}
        for n in (1, 3):
            cfg = ProtocolConfig(
                gamma=0.03, n=n, alpha1=0.2, transmittance=0.99,
                cutoff=30, detector=IDEAL_DETECTOR,
            )
            [(r, _)] = analysis.run_ensemble(cfg, [0.3], [force_click])
            fids[n] = r.fidelity_ideal
        assert fids[3] > fids[1]


class TestGateTargets:
    @pytest.mark.parametrize("gamma, n, cutoff", [(0.001, 2, 8), (0.03, 1, 30), (0.05, 3, 40)])
    def test_label_targets_match_dense_reference(self, gamma, n, cutoff):
        _, v = x_eigh(cutoff)
        un, ideal = _gate_targets(gamma, n, cutoff)
        for diag, dense in ((un, u_n_operator(gamma, n, cutoff)),
                            (ideal, ideal_cubic_gate(gamma, cutoff))):
            assert np.abs((v * diag) @ v.conj().T - dense.matrix).max() <= 1e-11

    def test_target_headroom_checked(self, monkeypatch):
        # x̂³ lifts the input's upper Fock levels against the cutoff.  The gate
        # is replaced by the identity on the labels, whose output passes the check.
        monkeypatch.setattr(analysis, "label_gate", identity_label_gate)
        cfg = ProtocolConfig(gamma=0.05, n=1, cutoff=12, detector=IDEAL_DETECTOR)
        with pytest.raises(NumericalDegradationError,
                           match=r"the U_N target of input 1\.0 holds \S+ of its probability"):
            analysis.run_ensemble(cfg, [1.0], [None])

    def test_cached_target_checked_on_every_run(self, monkeypatch):
        # the cached input fails on every call, and each message names the
        # caller's α, though 1.0 and 1+0j are equal keys
        monkeypatch.setattr(analysis, "label_gate", identity_label_gate)
        cfg = ProtocolConfig(gamma=0.05, n=1, cutoff=12, detector=IDEAL_DETECTOR)
        for alpha, shown in ((1.0, r"1\.0"), (1.0, r"1\.0"), (1 + 0j, r"\(1\+0j\)")):
            with pytest.raises(NumericalDegradationError, match=rf"the U_N target of input {shown} "):
                analysis.run_ensemble(cfg, [alpha], [None])

    def test_gate_output_checked_before_target(self, force_click):
        # α₁ = 60 squeezes the gate output in x̂ beyond the cutoff, and the
        # U_N target of this input fails too (above); the gate's check comes
        # first, on every run
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cfg = ProtocolConfig(gamma=0.05, n=1, alpha1=60.0, transmittance=0.5, cutoff=12,
                                 max_attempts_per_factor=50, detector=IDEAL_DETECTOR)
        for _ in range(2):
            with pytest.raises(NumericalDegradationError, match=r"the gate output after factor l=0"):
                analysis.run_ensemble(cfg, [1.0], [force_click])

    def test_nonfinite_output_rejected_before_headroom(self, monkeypatch, force_click):
        # NaN amplitudes pass the headroom comparison, so the gate output must
        # be checked for them first, as FockState does
        kw, alpha = SCORED_CASES["rus_herald"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cfg = ProtocolConfig(**kw)
        w, v = x_eigh(cfg.cutoff)
        monkeypatch.setattr(protocol, "x_eigh", lambda cutoff: (w, np.full_like(v, np.nan)))
        with pytest.raises(ValueError, match="amplitudes contain NaN/Inf"):
            analysis.run_ensemble(cfg, [alpha], [force_click])

    @pytest.mark.parametrize("case", sorted(SCORED_CASES))
    def test_label_scoring_matches_fock_route(self, case):
        kw, alpha = SCORED_CASES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cfg = ProtocolConfig(**kw)
        seeds = [np.random.SeedSequence(5, spawn_key=(run,)) for run in range(40)]
        got = analysis.run_ensemble(cfg, [alpha] * len(seeds), map(np.random.default_rng, seeds))
        want = [fock_route_scores(cfg, alpha, np.random.default_rng(s)) for s in seeds]
        assert sum(r.success for r, _ in got) >= 10
        for (r, log), (success, attempts, f_un, f_id) in zip(got, want):
            assert (r.success, r.total_attempts, log.total_attempts) == (success, attempts, attempts)
            if success:
                assert abs(r.fidelity_un - f_un) <= 1e-14
                assert abs(r.fidelity_ideal - f_id) <= 1e-14
            else:
                assert r.fidelity_un is None and r.fidelity_ideal is None
