import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from oracles import coherent_position_density, factor_attempt_stats, gate_total_attempts
from cubicphase import analysis, protocol, reference
from cubicphase.cubic import gamma_factors
from cubicphase.errors import (
    CutoffError,
    DegenerateOutcomeError,
    FactorFailure,
    NumericalDegradationError,
)
from cubicphase.gaussian import x_labels
from cubicphase.hilbert import FockState, coherent
from cubicphase.protocol import (
    HEADROOM_BOUND,
    IDEAL_DETECTOR,
    MAX_ATTEMPTS,
    DetectorModel,
    FactorRecord,
    ProtocolConfig,
    TrialLog,
    _photon_cdf,
    _photon_count,
    factor_model,
    full_gate,
    rus_factor,
)
from cubicphase.reference import (
    FockOperator,
    _apply_qnd_compensated,
    _beamsplitter,
    _povm0_diag,
    apply,
    beamsplitter_gate,
    couple_resource,
    detector_povm,
    expectation,
    factor_operator,
    fidelity,
    ideal_project,
    identity,
    normalize,
    number_state,
    one_photon_reduce,
    partial_trace,
    quadrature_x,
    state_fidelity,
    subtraction_attempt,
    tensor,
    u_n_operator,
    vacuum,
)

WEAK_CONFIG = dict(
    gamma=0.03, n=1, alpha1=0.2, transmittance=0.99,
    cutoff=30, detector=IDEAL_DETECTOR,
)


def fock_photon_factor(state, gamma_l, config, res_c, anc_c, m, k):
    """Reference trajectory on a truncated Fock resource and ancilla that
    clicks at attempt ``m`` with ``k`` photons in the ancilla.

    Couples with ``couple_resource``.  Each attempt mixes a vacuum ancilla
    into the resource through the beamsplitter; the m − 1 no-click attempts
    keep the ancilla's vacuum component and the click keeps its |k⟩
    component.  Then it decouples with the compensated QND gate and takes the
    system out of the product state that leaves: the system's reduced state
    must be pure, and then each of its columns is ∝ the system state.
    Returns the system state, the click probability of every attempt on this
    path, which for η = 1 is the click probability given no click before, and
    the probabilities of the ancilla photon numbers at the click.
    """
    sys_c, T, det = config.cutoff, config.transmittance, config.detector
    two = normalize(couple_resource(state, config.alpha1, gamma_l, (sys_c, res_c)))
    mat = two.amplitudes.reshape(sys_c, res_c)
    bs = _beamsplitter(float(T), res_c, anc_c)
    pi0 = _povm0_diag(det.eta, det.nu, anc_c)
    p_clicks = []
    for attempt in range(1, m + 1):
        # the ancilla enters in vacuum, so only every anc_c-th input column counts
        branches = (mat @ bs[:, ::anc_c].T).reshape(sys_c, res_c, anc_c)
        weights = np.einsum("ijm,ijm->m", branches.conj(), branches).real
        p_clicks.append(float(weights @ (1.0 - pi0) / weights.sum()))
        mat = branches[:, :, k if attempt == m else 0]
        mat = mat / np.linalg.norm(mat)
    photons = weights * (1.0 - pi0) / (weights @ (1.0 - pi0))
    base = T ** (m / 2.0) * config.alpha1
    two = normalize(_apply_qnd_compensated(
        FockState(mat.reshape(-1), (sys_c, res_c)), -base * gamma_l, base
    ))
    rho = partial_trace(two, None, keep=(0,))
    assert 1.0 - np.trace(rho @ rho).real <= 1e-6  # resource truncation only
    out = FockState(rho[:, np.argmax(rho.diagonal().real)], (sys_c,), normalized=False)
    return normalize(out), p_clicks, photons


def fock_channel(state, gamma_l, config, res_c, anc_c):
    """System density matrix after one factor, averaged over every outcome,
    on a truncated Fock resource and ancilla.

    Couples with ``couple_resource``.  Each attempt mixes a vacuum ancilla
    into the resource through the beamsplitter, applies the Kraus sums
    Σ_m Π₀(m)|m⟩⟨m| (no click) and Σ_m (1 − Π₀(m))|m⟩⟨m| (click), and traces
    the ancilla out.  The click branch of attempt k, and the no-click branch
    left after the last attempt, are decoupled by the compensated QND gate at
    resource amplitude T^{k/2}α₁, and the resource is traced out.
    """
    sys_c, T, det = config.cutoff, config.transmittance, config.detector
    dim = sys_c * res_c
    psi = normalize(couple_resource(state, config.alpha1, gamma_l, (sys_c, res_c))).amplitudes
    rho = np.outer(psi, psi.conj()).reshape(sys_c, res_c, sys_c, res_c)
    # tap[m]: resource in -> resource out with m photons in the ancilla
    bs = _beamsplitter(float(T), res_c, anc_c)
    tap = np.moveaxis(bs[:, ::anc_c].reshape(res_c, anc_c, res_c), 1, 0)
    pi0 = _povm0_diag(det.eta, det.nu, anc_c)

    def decoupled(rho, attempts):
        base = T ** (attempts / 2.0) * config.alpha1
        gate = np.column_stack([
            _apply_qnd_compensated(FockState(col, (sys_c, res_c)), -base * gamma_l, base).amplitudes
            for col in np.eye(dim, dtype=complex)
        ])
        full = gate @ rho.reshape(dim, dim) @ gate.conj().T
        return np.einsum("irjr->ij", full.reshape(sys_c, res_c, sys_c, res_c))

    out = np.zeros((sys_c, sys_c), dtype=complex)
    for attempt in range(1, config.max_attempts_per_factor + 1):
        per_m = np.einsum("mrb,ibjc,msc->mirjs", tap, rho, tap.conj(), optimize=True)
        out += decoupled(np.tensordot(1.0 - pi0, per_m, axes=1), attempt)
        rho = np.tensordot(pi0, per_m, axes=1)
    return out + decoupled(rho, config.max_attempts_per_factor)


def detected_u(k, mean, nu):
    """Midpoint of the u-interval that gives k detected photons at a click:
    weights (1 − e^{−ν}) for k = 0 and mean^k/k! for k ≥ 1, ordered 1, 0, 2, 3, …"""
    order = [1, 0] + list(range(2, 40))
    w = np.array([-math.expm1(-nu) if d == 0 else mean**d / math.factorial(d) for d in order])
    edges = np.concatenate(([0.0], np.cumsum(w))) / w.sum()
    i = order.index(k)
    return 0.5 * (edges[i] + edges[i + 1])


def forced_click_u(psi, gamma_l, config, m):
    """A first draw that makes ``rus_factor`` click at attempt m, by bisection
    (the click attempt grows with u)."""
    lo, hi = 0.0, 1.0
    for _ in range(100):
        u = 0.5 * (lo + hi)
        try:
            _, rec = rus_factor(psi, gamma_l, config, OutcomeSequenceRng([u, 0.5, 0.5, 0.5]))
            attempts = rec.attempts
        except FactorFailure:
            attempts = math.inf
        if attempts == m:
            return u
        lo, hi = (u, hi) if attempts < m else (lo, u)
    raise AssertionError(f"no draw clicks at attempt {m}")


def summed_cdf(ks, q, intensity, nu, transmittance):
    """The click CDF F at the attempts in the column ``ks``, each row summed on
    its own by ``np.vecdot``."""
    return np.vecdot(-np.expm1(-nu * ks + intensity * np.expm1(ks * math.log(transmittance))), q)


def block_search_first_click(q, intensity, nu, transmittance, max_attempts, u):
    """The click draw before the click table: (M, F(1)), M = None if no click,
    with F searched from attempt 1 in blocks of growing length."""
    start, size = 1, 16
    first_p = None
    while start <= max_attempts:
        ks = np.arange(start, min(start + size, max_attempts + 1))[:, None]
        cdf = summed_cdf(ks, q, intensity, nu, transmittance)
        if first_p is None:
            first_p = float(cdf[0])
        hit = u < cdf
        if hit.any():
            return start + int(hit.argmax()), first_p
        start += size
        size = min(2 * size, 4096)
    return None, first_p


def block_search_last_cdf(q, intensity, nu, transmittance, max_attempts):
    """F(max_attempts) as ``block_search_first_click`` computes it, in the
    last of its blocks."""
    start, size = 1, 16
    while start + size <= max_attempts:
        start += size
        size = min(2 * size, 4096)
    return summed_cdf(np.arange(start, max_attempts + 1)[:, None], q, intensity, nu, transmittance)[-1]


def direct_photon_count(mean, u, nu=None):
    """The photon draw before its CDFs were cached: a Poisson(mean) number by
    inverse CDF of u, built on every call; with ``nu`` the number detected at
    a click, in the order 1, 0, 2, 3, … with weight 1 − e^{−ν} for d = 0."""
    if mean <= 0.0:
        return 0
    size = int(mean + 12.0 * math.sqrt(mean)) + 40
    log_factorials = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, size)))))
    log_w = np.arange(size) * math.log(mean) - log_factorials[:size]
    if nu is not None:
        log_w[0] = math.log(-math.expm1(-nu)) if nu > 0.0 else -math.inf
        log_w[0], log_w[1] = log_w[1], log_w[0]
    cdf = np.exp(log_w - log_w.max()).cumsum()
    k = min(int(cdf.searchsorted(u * cdf[-1], side="right")), cdf.size - 1)
    return 1 - k if nu is not None and k < 2 else k


class OutcomeSequenceRng:
    """random() returns the given values in turn."""

    def __init__(self, values):
        self.values = list(values)

    def random(self) -> float:
        return self.values.pop(0)


def strong_stats_config(**kw):
    """Large-resource regime for attempt statistics; the weak-subtraction
    warning legitimately fires here and is acknowledged."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        base = dict(
            gamma=0.001, n=1, alpha1=3.3, transmittance=0.9734,
            cutoff=8, detector=IDEAL_DETECTOR,
            max_attempts_per_factor=500,
        )
        base.update(kw)
        return ProtocolConfig(**base)


class TestDetectorModel:
    def test_nu_is_rate_times_window(self):
        d = DetectorModel(eta=0.9, dark_rate_hz=100.0, window_s=1e-10)
        assert d.nu == pytest.approx(1e-8)

    def test_povm_ideal(self):
        pi0, pick = detector_povm(IDEAL_DETECTOR, 6)
        expected = np.zeros((6, 6), dtype=complex)
        expected[0, 0] = 1.0
        assert np.array_equal(pi0.matrix, expected)

    def test_povm_entries_exact(self):
        d = DetectorModel(eta=0.9, dark_rate_hz=100.0, window_s=1e-10)
        pi0, _ = detector_povm(d, 8)
        m = np.arange(8)
        expected = math.exp(-d.nu) * (1.0 - d.eta) ** m
        assert np.array_equal(np.diag(pi0.matrix).real, expected)
        assert np.diag(pi0.matrix)[1].real == pytest.approx(0.1, rel=1e-7)

    def test_povm_completeness_exact(self):
        d = DetectorModel(eta=0.73, dark_rate_hz=50.0, window_s=1e-9)
        pi0, pick = detector_povm(d, 10)
        assert np.array_equal(pi0.matrix + pick.matrix, np.eye(10))

    def test_entries_within_unit_interval(self):
        d = DetectorModel(eta=0.5, dark_rate_hz=1e6, window_s=1e-9)
        pi0, _ = detector_povm(d, 12)
        diag = np.diag(pi0.matrix).real
        assert np.all((diag >= 0) & (diag <= 1))

    def test_invalid_detector(self):
        with pytest.raises(ValueError):
            DetectorModel(eta=1.5)
        with pytest.raises(ValueError):
            DetectorModel(dark_rate_hz=-1.0)


class TestCoupleResource:
    def test_no_coupling_is_product(self):
        psi = coherent(0.3, 30)
        out = normalize(couple_resource(psi, 0.2, 0.0, (30, 25)))
        target = tensor(psi, coherent(0.2, 25))
        assert fidelity(out, target) > 1 - 1e-8

    def test_norm_preserved(self):
        psi = coherent(0.3, 30)
        gl = gamma_factors(0.03, 1).gamma_l[0]
        out = couple_resource(psi, 0.2, gl, (30, 25))
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-8

    def test_resource_cutoff_too_small_raises(self):
        # |α₁⟩ at α₁ = 3 holds 0.41 of its probability above 10 levels
        gl = gamma_factors(0.03, 1).gamma_l[0]
        with pytest.raises(CutoffError, match="cutoff 10"):
            couple_resource(coherent(0.3, 10), 3.0, gl, (10, 10))

    def test_coupled_resource_past_headroom_raises(self):
        # |1.5⟩ fits 20 levels, but the coupling spreads it to 1.99e-6 of the
        # state in the top two of them; 25 levels hold it
        gl = gamma_factors(0.03, 1).gamma_l[0]
        with pytest.raises(CutoffError, match="cutoff 20 too small: .* top two levels"):
            couple_resource(coherent(0.3, 30), 1.5, gl, (30, 20))
        couple_resource(coherent(0.3, 30), 1.5, gl, (30, 25))

    def test_headroom_is_protocols_bound(self, monkeypatch):
        # the bound is protocol.HEADROOM_BOUND read by name, so moving it
        # moves where couple_resource refuses
        assert reference.HEADROOM_BOUND is HEADROOM_BOUND
        gl = gamma_factors(0.03, 1).gamma_l[0]
        monkeypatch.setattr(reference, "HEADROOM_BOUND", 1e-5)
        couple_resource(coherent(0.3, 30), 1.5, gl, (30, 20))

    def test_narrow_system_gives_coherent_resource(self):
        # near-position-eigenstate at x0: resource ≈ |α₁(1 + γ_l x0)⟩
        from cubicphase.reference import displacement_gate, squeeze_gate

        sys_c, res_c = 60, 20
        x0 = 0.8
        sq = squeeze_gate(0.045, sys_c, max_loss=2e-3)  # σ_x = 0.15
        psi = normalize(apply(
            displacement_gate(x0 / math.sqrt(2), sys_c), apply(sq, vacuum([sys_c]))
        ))
        gl = gamma_factors(0.03, 1).gamma_l[0]
        out = normalize(couple_resource(psi, 0.2, gl, (sys_c, res_c)))
        rho_res = partial_trace(out, None, keep=(1,))
        target = coherent(0.2 * (1 + gl * x0), res_c, max_loss=1.0)
        overlap = (target.amplitudes.conj() @ rho_res @ target.amplitudes).real
        assert overlap > 0.99


class TestIdealProject:
    def test_vacuum_resource_zero_probability(self):
        st = tensor(coherent(0.3, 10), vacuum([8]))
        with pytest.raises(DegenerateOutcomeError):
            ideal_project(st, resource_mode=1)

    def test_success_probability_coherent(self):
        st = tensor(coherent(0.3, 10), coherent(0.2, 12))
        _, prob = ideal_project(st, resource_mode=1)
        assert prob == pytest.approx(1 - math.exp(-0.04), rel=1e-6)

    def test_unnormalized_branch(self):
        st = tensor(coherent(0.3, 10), coherent(0.2, 12))
        raw, prob = ideal_project(st, resource_mode=1, normalized=False)
        assert np.linalg.norm(raw.amplitudes) ** 2 == pytest.approx(prob, rel=1e-12)

    def test_projected_state_one_photon_branch(self):
        psi = coherent(0.3, 30)
        gl = gamma_factors(0.03, 1).gamma_l[0]
        coupled = normalize(couple_resource(psi, 0.2, gl, (30, 25)))
        projected, prob = ideal_project(coupled, resource_mode=1)
        reduced = one_photon_reduce(projected, resource_mode=1)
        target = tensor(
            normalize(apply(factor_operator(gl, 30), psi)), number_state([1], [25])
        )
        assert fidelity(reduced, target) > 0.99
        # exact projector carries a quantified two-photon gap
        gap = 1.0 - fidelity(projected, target)
        assert 1e-3 < gap < 0.05


class TestSubtractionAttempt:
    def test_click_probability_ideal(self, force_click):
        st = tensor(vacuum([4]), coherent(1.0, 30))
        _, outcome, (p0, p1), _ = subtraction_attempt(
            st, 1, 0.99, IDEAL_DETECTOR, force_click, ancilla_cutoff=5
        )
        assert outcome == "click"
        assert p1 == pytest.approx(1 - math.exp(-0.01), rel=1e-4)

    def test_probabilities_sum_to_one(self, rng):
        st = tensor(vacuum([4]), coherent(0.8, 25))
        _, _, (p0, p1), _ = subtraction_attempt(st, 1, 0.95, DetectorModel(), rng)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    def test_full_transmission_dark_counts_only(self, rng):
        detector = DetectorModel(eta=1.0, dark_rate_hz=0.05, window_s=1.0)
        st = tensor(vacuum([4]), coherent(0.5, 15))
        _, _, (p0, p1), _ = subtraction_attempt(st, 1, 1.0, detector, rng)
        assert p1 == pytest.approx(1 - math.exp(-0.05), rel=1e-10)

    def test_no_click_attenuates_resource(self, force_no_click):
        zeta, T = 0.8, 0.99
        st = tensor(vacuum([4]), coherent(zeta, 25))
        out, outcome, _, photons = subtraction_attempt(st, 1, T, IDEAL_DETECTOR, force_no_click)
        assert outcome == "no_click" and photons == 0
        target = tensor(vacuum([4]), coherent(math.sqrt(T) * zeta, 25))
        assert fidelity(out, target) > 1 - 1e-6

    @pytest.mark.filterwarnings("error::scipy.linalg.LinAlgWarning")
    def test_no_click_invariance_of_system(self, force_no_click):
        # the system reduced state survives a failed attempt
        psi = coherent(0.3, 30)
        gl = gamma_factors(0.03, 1).gamma_l[0]
        coupled = normalize(couple_resource(psi, 0.2, gl, (30, 25)))
        rho_before = partial_trace(coupled, None, keep=(0,))
        out, outcome, _, _ = subtraction_attempt(
            coupled, 1, 0.99, IDEAL_DETECTOR, force_no_click
        )
        assert outcome == "no_click"
        rho_after = partial_trace(out, None, keep=(0,))
        assert state_fidelity(rho_before, rho_after) > 1 - 1e-6

    def test_matches_dense_matrix_route(self):
        # independent check: full 3-mode operators, POVM matrices, and a
        # density-matrix partial trace must reproduce every photon branch
        T, anc_c = 0.97, 4
        psi = coherent(0.3, 12)
        gl = gamma_factors(0.03, 1).gamma_l[0]
        st = normalize(couple_resource(psi, 0.2, gl, (12, 10)))

        big = tensor(st, vacuum([anc_c]))
        big = apply(tensor(identity([12]), beamsplitter_gate(T, (10, anc_c))), big)
        pi0, pick = detector_povm(DetectorModel(), anc_c)
        p1_dense = expectation(tensor(identity([12, 10]), pick), big).real
        kraus = FockOperator(np.sqrt(pick.matrix.real).astype(complex), (anc_c,))
        post = normalize(apply(kraus, big, modes=(2,)))
        rho_exact = partial_trace(post, None, keep=(0, 1))

        # the dense m-photon branches, their probabilities, and a second draw
        # in the middle of each one's interval of the inverse CDF
        dense = post.amplitudes.reshape(120, anc_c)
        probs = np.sum(np.abs(dense) ** 2, axis=0)
        edges = np.concatenate(([0.0], np.cumsum(probs)))
        mixture = np.zeros_like(rho_exact)
        for m in range(anc_c):
            draws = OutcomeSequenceRng([0.0, 0.5 * (edges[m] + edges[m + 1])])
            out, outcome, (p0, p1), photons = subtraction_attempt(
                st, 1, T, DetectorModel(), draws, ancilla_cutoff=anc_c
            )
            assert outcome == "click" and photons == m
            assert p1 == pytest.approx(p1_dense, abs=1e-12)
            branch = dense[:, m] / np.linalg.norm(dense[:, m])
            assert np.abs(out.amplitudes - branch).max() <= 1e-12
            mixture += probs[m] * np.outer(out.amplitudes, out.amplitudes.conj())
        assert np.abs(mixture - rho_exact).max() <= 1e-12

    @pytest.mark.parametrize("outcome", ["click", "no_click"])
    def test_photons_follow_branch_weights(self, outcome):
        # the default detector (η = 0.9): m follows ‖branch m‖² times the
        # sampled POVM element's diagonal, and a no-click can leave m ≥ 1
        T, anc_c = 0.7, 8
        psi = coherent(0.3, 8)
        gl = gamma_factors(0.03, 1).gamma_l[0]
        st = normalize(couple_resource(psi, 1.5, gl, (8, 24)))

        big = apply(tensor(identity([8]), beamsplitter_gate(T, (24, anc_c))),
                    tensor(st, vacuum([anc_c])))
        weights = np.sum(np.abs(big.amplitudes.reshape(-1, anc_c)) ** 2, axis=0)
        pi0, pick = detector_povm(DetectorModel(), anc_c)
        element = (pick if outcome == "click" else pi0).matrix.diagonal().real
        expected = weights * element / (weights @ element)

        rng = np.random.default_rng(np.random.SeedSequence(53))
        counts = np.zeros(anc_c)
        while counts.sum() < 2000:
            _, seen, _, photons = subtraction_attempt(
                st, 1, T, DetectorModel(), rng, ancilla_cutoff=anc_c
            )
            if seen == outcome:
                counts[photons] += 1
        # the tail from the last m expecting five counts is one bin
        last = int(np.flatnonzero(2000 * expected >= 5)[-1])
        binned = np.append(counts[:last], counts[last:].sum())
        expect = 2000 * np.append(expected[:last], expected[last:].sum())
        assert stats.chisquare(binned, expect).pvalue > 1e-3
        if outcome == "no_click":
            assert counts[1:].sum() > 0


class TestRusFactor:
    def test_forced_click_fidelity(self, force_click):
        cfg = ProtocolConfig(**WEAK_CONFIG)
        psi = coherent(0.3, 30)
        for l in range(3):
            gl = gamma_factors(0.03, 1).gamma_l[l]
            out, rec = rus_factor(psi, gl, cfg, force_click, factor_index=l)
            target = normalize(apply(factor_operator(gl, 30), psi))
            assert fidelity(out, target) > 0.99
            assert rec.attempts >= 1
            assert rec.success

    def test_zero_factor_skips_loop(self, rng):
        cfg = ProtocolConfig(**WEAK_CONFIG)
        psi = coherent(0.3, 30)
        out, rec = rus_factor(psi, 0.0, cfg, rng)
        assert fidelity(out, psi) > 1 - 1e-8
        assert rec.attempts == 0 and rec.success

    def test_max_attempts_failure(self, force_no_click):
        cfg = ProtocolConfig(**{**WEAK_CONFIG, "max_attempts_per_factor": 5})
        psi = coherent(0.3, 30)
        gl = gamma_factors(0.03, 1).gamma_l[0]
        with pytest.raises(FactorFailure) as exc:
            rus_factor(psi, gl, cfg, force_no_click)
        assert exc.value.record.attempts == 5
        assert not exc.value.record.success
        assert exc.value.state.cutoffs == (30,)

    @pytest.mark.parametrize(
        "detector",
        [IDEAL_DETECTOR, DetectorModel(eta=0.6, dark_rate_hz=1e6, window_s=1e-9)],
        ids=["ideal", "lossy"],
    )
    def test_mean_attempts_matches_quadrature_oracle(self, detector):
        cfg = strong_stats_config(detector=detector, max_attempts_per_factor=5000)
        gl = gamma_factors(cfg.gamma, cfg.n).gamma_l[2]
        _, mean_oracle, _, _ = factor_attempt_stats(
            coherent_position_density(0.0), cfg.alpha1, cfg.transmittance, gl,
            eta=detector.eta, nu=detector.nu,
        )
        v = vacuum([8])
        ms = []
        for i in range(800):
            rng = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(i,)))
            _, rec = rus_factor(v, gl, cfg, rng, factor_index=2)
            ms.append(rec.attempts)
        mean = np.mean(ms)
        se = np.std(ms) / math.sqrt(len(ms))
        assert abs(mean - mean_oracle) < 4 * se + 0.02 * mean_oracle

    def test_geometric_distribution_at_constant_p(self):
        # T = 1 with dark counts: per-attempt click probability is exactly
        # constant, so M is geometric
        p = 0.2
        detector = DetectorModel(eta=1.0, dark_rate_hz=-math.log(1 - p), window_s=1.0)
        cfg = ProtocolConfig(
            gamma=0.01, n=1, alpha1=0.5, transmittance=1.0,
            cutoff=4, detector=detector, max_attempts_per_factor=400,
        )
        gl = gamma_factors(cfg.gamma, 1).gamma_l[0]
        v = vacuum([4])
        rng = np.random.default_rng(99)
        ms = np.array([rus_factor(v, gl, cfg, rng)[1].attempts for _ in range(10_000)])
        # group the geometric pmf so each bin expects >= 5 counts
        kmax = int(np.ceil(math.log(5 / len(ms) / p) / math.log(1 - p)))
        observed, expected = [], []
        for k in range(1, kmax):
            observed.append(np.sum(ms == k))
            expected.append(len(ms) * p * (1 - p) ** (k - 1))
        observed.append(np.sum(ms >= kmax))
        expected.append(len(ms) * (1 - p) ** (kmax - 1))
        chi = stats.chisquare(observed, expected)
        assert chi.pvalue > 0.01

    def test_forced_click_with_realistic_detector(self, force_click):
        # η < 1 and ν > 0 scale the click POVM but the heralded factor is the same
        cfg = ProtocolConfig(**{**WEAK_CONFIG, "detector": DetectorModel()})
        psi = coherent(0.3, 30)
        gl = gamma_factors(0.03, 1).gamma_l[1]
        out, rec = rus_factor(psi, gl, cfg, force_click, factor_index=1)
        target = normalize(apply(factor_operator(gl, 30), psi))
        assert fidelity(out, target) > 0.99
        assert 0.0 < rec.first_click_prob < 1e-3

    def test_dark_count_false_positive_is_identity(self, force_click):
        # T = 1: a dark click subtracts nothing; decoupling exactly inverts the
        # coupling and the factor degenerates to the identity
        detector = DetectorModel(eta=1.0, dark_rate_hz=0.1, window_s=1.0)
        cfg = ProtocolConfig(
            gamma=0.03, n=1, alpha1=0.2, transmittance=1.0,
            cutoff=30, detector=detector,
        )
        psi = coherent(0.3, 30)
        gl = gamma_factors(0.03, 1).gamma_l[0]
        out, rec = rus_factor(psi, gl, cfg, force_click)
        assert rec.attempts == 1
        assert fidelity(out, psi) > 1 - 1e-10

    def test_monotone_validity_in_transmittance(self, force_click):
        # fidelity to the analytic target improves as (1−T) → 0
        psi = coherent(0.3, 30)
        gl = gamma_factors(0.03, 1).gamma_l[0]
        fids = []
        for T in (0.9, 0.99, 0.999):
            cfg = ProtocolConfig(**{**WEAK_CONFIG, "transmittance": T})
            out, _ = rus_factor(psi, gl, cfg, force_click)
            target = normalize(apply(factor_operator(gl, 30), psi))
            fids.append(fidelity(out, target))
        assert fids[0] <= fids[1] <= fids[2]

    def test_monotone_validity_in_alpha1(self, force_click):
        psi = coherent(0.3, 30)
        gl = gamma_factors(0.03, 1).gamma_l[0]
        fids = []
        for alpha1 in (0.8, 0.4, 0.2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                cfg = ProtocolConfig(**{**WEAK_CONFIG, "alpha1": alpha1})
            out, _ = rus_factor(psi, gl, cfg, force_click)
            target = normalize(apply(factor_operator(gl, 30), psi))
            fids.append(fidelity(out, target))
        assert fids[0] <= fids[1] <= fids[2]


class TestLabelEngineAgainstFock:
    """rus_factor against the photon-resolved Fock reference, forced to click
    at attempt M with K ancilla photons."""

    CASES = {
        # (system, resource, ancilla) cutoffs and the config they run at
        "strong": ((8, 40, 8), dict(gamma=0.001, alpha1=3.3, transmittance=0.9734)),
        "defaults": ((30, 25, 4), dict()),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize(
        "detector, k",
        [(IDEAL_DETECTOR, 1), (IDEAL_DETECTOR, 2),
         (DetectorModel(), 0), (DetectorModel(), 1), (DetectorModel(), 2)],
        ids=["ideal-k1", "ideal-k2", "default-k0", "default-k1", "default-k2"],
    )
    @pytest.mark.parametrize("l", [0, 1, 2])
    @pytest.mark.parametrize("m", [1, 6])
    def test_forced_photon_count_matches_fock_reference(self, case, detector, k, l, m):
        (sys_c, res_c, anc_c), kw = self.CASES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cfg = ProtocolConfig(cutoff=sys_c, detector=detector, **kw)
        gl = gamma_factors(cfg.gamma, cfg.n).gamma_l[l]
        psi = coherent(0.3, sys_c)
        ref, p_clicks, _ = fock_photon_factor(psi, gl, cfg, res_c, anc_c, m, k)
        assert len(p_clicks) == m
        # first draw inside [F(M−1), F(M)) of the reference's click CDF; for
        # η < 1 this path leaves out the lost photons, which shift F by far
        # less than half the interval
        survive = np.cumprod([1.0] + [1.0 - p for p in p_clicks])
        u = 1.0 - 0.5 * (survive[-2] + survive[-1])
        # then draw 0 picks the lowest label as λ* and no lost photon, and the
        # last draw k detected photons for λ*'s tapped mean
        lam = np.linalg.eigvalsh(quadrature_x(sys_c).matrix)[0]
        tapped = (detector.eta * abs(cfg.alpha1 * (1.0 + gl * lam)) ** 2
                  * (1.0 - cfg.transmittance) * cfg.transmittance ** (m - 1))
        rng = OutcomeSequenceRng([u, 0.0, 0.0, detected_u(k, tapped, detector.nu)])
        out, rec = rus_factor(psi, gl, cfg, rng, factor_index=l)
        assert rec.attempts == m and rec.success
        assert [False] * (rec.attempts - 1) + [rec.success] == [False] * (m - 1) + [True]
        assert 1.0 - fidelity(out, ref) <= 1e-9
        assert rec.first_click_prob == pytest.approx(p_clicks[0], rel=1e-7)


class TestExactChannel:
    def test_trajectory_average_matches_density_matrix(self):
        # η < 1 and ν > 0 at a strong tap: the average of rus_factor's
        # trajectories, failures included, must be the exact channel within
        # Monte Carlo error.  A bound of four standard deviations on the
        # Frobenius distance holds whatever the correlations between entries.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cfg = ProtocolConfig(
                gamma=0.027, alpha1=1.2, transmittance=0.7, cutoff=6, max_attempts_per_factor=8,
                detector=DetectorModel(eta=0.6, dark_rate_hz=0.05, window_s=1.0),
            )
        gl = gamma_factors(cfg.gamma, 1).gamma_l[0]  # 0.3·e^{iπ/6}
        psi = coherent(0.3, 6)
        exact = fock_channel(psi, gl, cfg, res_c=20, anc_c=12)
        assert abs(np.trace(exact) - 1.0) < 1e-9

        n = 5_000
        rng = np.random.default_rng(np.random.SeedSequence(31))
        samples = np.empty((n, 6), dtype=complex)
        for i in range(n):
            try:
                out, _ = rus_factor(psi, gl, cfg, rng)
            except FactorFailure as err:
                out = err.state
            samples[i] = out.amplitudes
        outer = samples[:, :, None] * samples[:, None, :].conj()
        diff = outer.mean(axis=0) - exact
        sigma = math.sqrt(outer.var(axis=0).sum() / n)
        distance = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()
        assert np.linalg.norm(diff) <= 4.0 * sigma, f"trace distance {distance:.2e}"


    def test_detected_photons_follow_fock_distribution(self):
        # a click at attempt 1 with an ideal detector: each output is the
        # Fock reference for one photon number k, and k must follow the
        # reference's photon-number distribution at the click.  The tap is
        # strong and |1+γ_l λ|² varies widely, so the label drawn for the
        # photon count must carry the click probability of each label.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cfg = ProtocolConfig(gamma=0.125, alpha1=1.0, transmittance=0.5, cutoff=8,
                                 detector=IDEAL_DETECTOR)
        gl = gamma_factors(cfg.gamma, 1).gamma_l[0]  # 0.5·e^{iπ/6}
        psi = coherent(0.3, 8)
        refs = []
        for k in range(1, 10):
            ref, _, probs = fock_photon_factor(psi, gl, cfg, 26, 14, 1, k)
            refs.append(ref.amplitudes)
        rng = np.random.default_rng(np.random.SeedSequence(41))
        counts = np.zeros(4)
        for _ in range(3000):
            draws = OutcomeSequenceRng([0.0, rng.random(), rng.random(), rng.random()])
            out, rec = rus_factor(psi, gl, cfg, draws)
            assert rec.attempts == 1
            fids = np.abs(np.conj(refs) @ out.amplitudes) ** 2
            k = int(np.argmax(fids)) + 1
            assert fids[k - 1] > 1 - 1e-9
            counts[min(k, 4) - 1] += 1
        expected = 3000 * np.append(probs[1:4], probs[4:].sum())
        assert stats.chisquare(counts, expected).pvalue > 1e-3


class TestLateClick:
    @pytest.mark.parametrize("m", [376, 1000])
    def test_late_click_at_cli_defaults(self, m):
        # a click this late once left a mixed click branch that the purity
        # gate refused; every trajectory is pure now
        cfg = ProtocolConfig()
        gl = gamma_factors(cfg.gamma, cfg.n).gamma_l[1]
        psi = coherent(0.3, cfg.cutoff)
        u = forced_click_u(psi, gl, cfg, m)
        out, rec = rus_factor(psi, gl, cfg, OutcomeSequenceRng([u, 0.5, 0.5, 0.5]), factor_index=1)
        assert rec.success and rec.attempts == m
        assert np.all(np.isfinite(out.amplitudes))
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)


class TestFullGate:
    def test_forced_click_fidelity_to_un(self, force_click):
        cfg = ProtocolConfig(**WEAK_CONFIG)
        psi = coherent(0.3, 30)
        out, log = full_gate(psi, cfg, force_click)
        target = normalize(apply(u_n_operator(0.03, 1, 30), psi))
        assert fidelity(out, target) > 0.98
        assert log.total_attempts == 3
        assert log.success

    def test_gamma_zero_identity(self, rng):
        cfg = ProtocolConfig(**{**WEAK_CONFIG, "gamma": 0.0})
        psi = coherent(0.3, 30)
        out, log = full_gate(psi, cfg, rng)
        assert fidelity(out, psi) > 1 - 1e-8
        assert log.total_attempts == 0

    def test_factor_failure_carries_log(self, force_no_click):
        cfg = ProtocolConfig(**{**WEAK_CONFIG, "max_attempts_per_factor": 3})
        psi = coherent(0.3, 30)
        with pytest.raises(FactorFailure) as exc:
            full_gate(psi, cfg, force_no_click)
        assert exc.value.log.total_attempts == 3

    def test_failure_state_built_on_first_read(self, force_no_click):
        cfg = ProtocolConfig(**{**WEAK_CONFIG, "max_attempts_per_factor": 3})
        with pytest.raises(FactorFailure) as exc:
            full_gate(coherent(0.3, 30), cfg, force_no_click)
        err = exc.value
        assert "state" not in vars(err)  # a failed run that is only counted skips it
        eager = FockState(err.amplitudes.copy(), (30,))
        assert err.state is err.state
        assert err.state.amplitudes.tobytes() == eager.amplitudes.tobytes()
        assert (err.state.cutoffs, err.state.normalized) == ((30,), True)

    def test_total_attempts_match_oracle_at_strong_gamma(self):
        # at γ = 0.1 the weight |1+γ_l x|² varies enough across the input that
        # an oracle counting it twice misses the mean by ~11 standard errors.
        # The strong tap squeezes the state in x̂: at cutoff 16 one output in
        # six fails the truncation-headroom check, at cutoff 30 none does.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cfg = ProtocolConfig(
                gamma=0.1, n=1, alpha1=3.3, transmittance=0.9734, cutoff=30,
                detector=IDEAL_DETECTOR, max_attempts_per_factor=500,
            )
        gl = gamma_factors(cfg.gamma, cfg.n).gamma_l
        expected = gate_total_attempts(0.0, cfg.alpha1, cfg.transmittance, [gl[2], gl[1], gl[0]])
        v = vacuum([30])
        totals = []
        for i in range(3000):
            rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(i,)))
            try:
                _, log = full_gate(v, cfg, rng)
            except FactorFailure:
                continue  # the oracle counts heralded runs only
            totals.append(log.total_attempts)
        se = np.std(totals, ddof=1) / math.sqrt(len(totals))
        assert abs(np.mean(totals) - expected) < 4 * se

    def test_huge_n_allocates_only_the_factors_run(self):
        # N = 10^5 has 3·10^5 factors; the first exhausts its single attempt
        # and ends the gate, so memory must not grow with N
        cfg = ProtocolConfig(**{**WEAK_CONFIG, "n": 10**5, "max_attempts_per_factor": 1})
        psi = coherent(0.3, 30)
        with pytest.raises(FactorFailure):  # fills the caches
            full_gate(psi, cfg, np.random.default_rng(0))
        tracemalloc.start()
        try:
            with pytest.raises(FactorFailure) as exc:
                full_gate(psi, cfg, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(exc.value.log.factors) == 1
        assert peak < 2**20

    def test_repeated_n_runs_all_factors(self, force_click):
        cfg = ProtocolConfig(**{**WEAK_CONFIG, "n": 2})
        psi = coherent(0.3, 30)
        out, log = full_gate(psi, cfg, force_click)
        assert len(log.factors) == 6
        target = normalize(apply(u_n_operator(0.03, 2, 30), psi))
        assert fidelity(out, target) > 0.98


def chained_rus_factors(state, config, rng):
    """The gate as a chain of ``rus_factor`` calls over l = 2, 1, 0, N times.
    Returns (state, records, success); a failure returns its own state."""
    dec = gamma_factors(config.gamma, config.n)
    records = []
    for rep in range(config.n):
        for l in (2, 1, 0):
            try:
                state, rec = rus_factor(state, dec.gamma_l[l], config, rng, l, rep)
            except FactorFailure as err:
                return err.state, records + [err.record], False
            records.append(rec)
    return state, records, True


class TestOneEngine:
    """``full_gate`` runs the whole gate on label amplitudes; chaining
    ``rus_factor`` converts to and from the Fock basis around every factor.
    Both must draw the same trajectory from equally seeded generators."""

    CASES = {
        # criterion-4 physics, and a lossy detector with dark counts whose
        # 60-attempt budget runs out in about one run in twelve
        "rus_herald": (dict(gamma=0.001, n=2, alpha1=3.3, transmittance=0.9734, cutoff=8,
                            max_attempts_per_factor=500, detector=IDEAL_DETECTOR), 0.0),
        "lossy": (dict(gamma=0.05, alpha1=2.0, transmittance=0.95, cutoff=20,
                       max_attempts_per_factor=60,
                       detector=DetectorModel(eta=0.7, dark_rate_hz=0.02, window_s=1.0)),
                  0.3 + 0.2j),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_full_gate_matches_chained_factors(self, case):
        kw, alpha = self.CASES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cfg = ProtocolConfig(**kw)
        psi = coherent(alpha, cfg.cutoff)
        failures = 0
        for i in range(60):
            seed = np.random.SeedSequence(17, spawn_key=(i,))
            ref, ref_records, ok = chained_rus_factors(
                psi, cfg, np.random.default_rng(seed))
            try:
                out, log = full_gate(psi, cfg, np.random.default_rng(seed))
            except FactorFailure as err:
                assert not ok
                assert err.record is err.log.factors[-1]
                out, log = err.state, err.log
                failures += 1
            else:
                assert ok
            assert len(log.factors) == len(ref_records)
            for got, want in zip(log.factors, ref_records):
                assert got.first_click_prob == pytest.approx(want.first_click_prob, rel=1e-12)
                assert got == dataclasses.replace(want, first_click_prob=got.first_click_prob)
            assert np.abs(out.amplitudes - ref.amplitudes).max() <= 1e-12
        assert failures > 0 if case == "lossy" else failures == 0


class TestClickTable:
    """``FactorModel.first_click`` answers from the per-factor click table; the block
    search it replaced is the reference."""

    CASES = {
        # (γ, α₁, T, cutoff, η, ν): the CLI defaults, the criterion-4 physics,
        # and a lossy detector with dark counts
        "defaults": (0.03, 0.2, 0.99, 30, 0.9, 1e-8),
        "strong": (0.001, 3.3, 0.9734, 8, 1.0, 0.0),
        "lossy": (0.05, 2.0, 0.95, 20, 0.7, 0.02),
    }
    # T = 0.999 keeps F(k) rising, by ever fewer ulps, up to about attempt 40,000
    SLOW = (0.001, 3.3, 0.999, 8, 1.0, 1e-3)

    @pytest.mark.parametrize("max_attempts", [1, 15, 16, 17, 400, 10_000])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_block_search(self, case, max_attempts):
        gamma, alpha1, T, cutoff, eta, nu = self.CASES[case]
        rng = np.random.default_rng(np.random.SeedSequence(13, spawn_key=(max_attempts,)))
        for gl in gamma_factors(gamma, 1).gamma_l:
            model = factor_model(complex(gl), alpha1, cutoff, eta, nu, T, max_attempts)
            table = model.table
            intensity = eta * model.intensity
            for _ in range(10):
                q = rng.random(cutoff) ** 3
                q /= q.sum()
                cdf = np.vecdot(table, q)
                f_last, f_16 = cdf[-1], cdf[min(16, max_attempts) - 1]
                # a row sums alone, so the table's F(max_attempts) is the last block's
                f_block = block_search_last_cdf(q, intensity, nu, T, max_attempts)
                assert f_last == f_block
                edges = [f_16, f_last]
                us = list(rng.random(20) * 1.2 * f_last) + edges
                us += [np.nextafter(f, d) for f in edges for d in (0.0, 1.0)]
                for u in us:
                    got = model.first_click(q, u)
                    want = block_search_first_click(q, intensity, nu, T, max_attempts, u)
                    assert got[0] is None or 1 <= got[0] <= max_attempts
                    assert got == want, f"u = {u!r}"

    @pytest.mark.parametrize("nu", [0.0, 1e-3])
    def test_skipped_blocks_match_block_search(self, nu):
        # T = 0.999 keeps F(k) rising, by ever fewer ulps, up to about attempt
        # 40,000, well into the 4096-row blocks of the block search; draws
        # within an ulp of F(max_attempts) click where the block search says
        alpha1, T, cutoff, budget = 3.3, 0.999, 8, 60_000
        rng = np.random.default_rng(29)
        for gl in gamma_factors(0.001, 1).gamma_l:
            model = factor_model(complex(gl), alpha1, cutoff, 1.0, nu, T, budget)
            table = model.table
            intensity = model.intensity
            for _ in range(5):
                q = rng.random(cutoff) ** 3
                q /= q.sum()
                f_last = np.vecdot(table, q)[-1]
                assert f_last == block_search_last_cdf(q, intensity, nu, T, budget)
                us = [np.nextafter(f_last, 0.0), f_last]
                us += list(f_last * (1.0 - rng.random(5) * 1e-13))
                for u in us:
                    got = model.first_click(q, u)[0]
                    want = block_search_first_click(q, intensity, nu, T, budget, u)[0]
                    assert got == want, f"u = {u!r}"

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_late_click_at_a_huge_budget(self, case):
        # a block search from attempt 17 would sum 10^8 rows; the click M must
        # still be the first crossing of the closed-form CDF, u < F(M) and
        # not u < F(M − 1)
        gamma, alpha1, T, cutoff, eta, nu = self.CASES[case]
        budget = 10**8
        rng = np.random.default_rng(17)
        for gl in gamma_factors(gamma, 1).gamma_l:
            model = factor_model(complex(gl), alpha1, cutoff, eta, nu, T, budget)
            table = model.table
            intensity = eta * model.intensity

            def closed_cdf(k, q):
                return math.fsum(w * -math.expm1(-nu * k + i * math.expm1(k * math.log(T)))
                                 for w, i in zip(q, intensity))

            for _ in range(5):
                q = rng.random(cutoff) ** 3
                q /= q.sum()
                cdf = table @ q
                for u in cdf[15] + rng.random(5) * (cdf[-1] - cdf[15]):
                    got, _ = model.first_click(q, u)
                    assert 17 <= got <= budget
                    assert u < closed_cdf(got, q) and not u < closed_cdf(got - 1, q)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_table_rows_sum_as_rows_alone(self, case):
        # the search reads F(max_attempts) from the table and every later F
        # from rows of its own, so each row must sum to the same bits alone
        gamma, alpha1, T, cutoff, eta, nu = self.CASES[case]
        rng = np.random.default_rng(31)
        ks = [*range(1, 17), 10_000]
        for gl in gamma_factors(gamma, 1).gamma_l:
            model = factor_model(complex(gl), alpha1, cutoff, eta, nu, T, 10_000)
            intensity = eta * model.intensity
            for _ in range(10):
                q = rng.random(cutoff) ** 3
                q /= q.sum()
                alone = [summed_cdf(np.array([[k]]), q, intensity, nu, T)[0] for k in ks]
                assert np.vecdot(model.table, q).tobytes() == np.array(alone).tobytes()

    @pytest.mark.parametrize("case, budget", [
        *((case, budget) for case in sorted(CASES) for budget in (400, 10_000)),
        ("slow", 60_000),
    ])
    def test_summed_cdf_never_falls(self, case, budget):
        # the search bisects over F, so F as summed must not fall as k grows
        gamma, alpha1, T, cutoff, eta, nu = self.SLOW if case == "slow" else self.CASES[case]
        rng = np.random.default_rng(37)
        ks = np.arange(1, budget + 1)[:, None]
        for gl in gamma_factors(gamma, 1).gamma_l:
            intensity = eta * factor_model(complex(gl), alpha1, cutoff, eta, nu, T, budget).intensity
            for _ in range(5):
                q = rng.random(cutoff) ** 3
                q /= q.sum()
                assert (np.diff(summed_cdf(ks, q, intensity, nu, T)) >= 0.0).all()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_late_click_at_the_largest_budget(self, case):
        # the bracket spans 2**63 − 17 attempts, in Python ints
        gamma, alpha1, T, cutoff, eta, nu = self.CASES[case]
        rng = np.random.default_rng(41)
        for gl in gamma_factors(gamma, 1).gamma_l:
            model = factor_model(complex(gl), alpha1, cutoff, eta, nu, T, MAX_ATTEMPTS)
            intensity = eta * model.intensity
            for _ in range(3):
                q = rng.random(cutoff) ** 3
                q /= q.sum()
                cdf = np.vecdot(model.table, q)
                for u in [*(cdf[15] + rng.random(3) * (cdf[-1] - cdf[15])), np.nextafter(cdf[-1], 0.0)]:
                    got, _ = model.first_click(q, u)
                    assert 17 <= got <= MAX_ATTEMPTS
                    f = summed_cdf(np.array([[got - 1], [got]]), q, intensity, nu, T)
                    assert u < f[1] and not u < f[0]

    @pytest.mark.parametrize("max_attempts, rows", [(1, 1), (16, 16), (17, 17), (10_000, 17)])
    def test_rows_do_not_grow_with_the_budget(self, max_attempts, rows):
        gl = complex(gamma_factors(0.03, 1).gamma_l[0])
        model = factor_model(gl, 0.2, 30, 0.9, 1e-8, 0.99, max_attempts)
        table = model.table
        assert table.shape == (rows, 30)
        assert not table.flags.writeable
        ks = list(range(1, min(16, max_attempts) + 1)) + [max_attempts] * (max_attempts > 16)
        intensity = 0.9 * model.intensity
        for row, k in zip(table, ks):
            want = [1.0 - math.exp(-1e-8 * k - i * (1.0 - 0.99**k)) for i in intensity]
            assert row == pytest.approx(want, rel=1e-12)


class TestAttemptRows:
    """The per-factor rows ``label_gate`` reads for a click at attempt M, or
    M attempts without one, against their closed forms label by label; only
    the λ* reweighting depends on whether the factor clicked."""

    CASES = TestClickTable.CASES

    @pytest.mark.parametrize("clicked", [True, False])
    @pytest.mark.parametrize("attempts", [1, 16, 17, 400, 10_000])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rows_match_closed_form(self, case, attempts, clicked):
        gamma, alpha1, T, cutoff, eta, nu = self.CASES[case]
        for gl in gamma_factors(gamma, 1).gamma_l:
            model = factor_model(complex(gl), alpha1, cutoff, eta, nu, T, 10_000)
            rows = model.attempt_rows(attempts, clicked)
            assert rows is model.attempt_rows(attempts, clicked)
            reweight, click, tapped, envelope = rows
            intensity = model.intensity
            misses = attempts - 1 if clicked else attempts
            assert reweight == pytest.approx(
                [eta * i * math.expm1(misses * math.log(T)) for i in intensity], rel=1e-12)
            assert envelope == pytest.approx(
                [0.5 * i * (math.exp(attempts * math.log(T)) - 1.0) for i in intensity], rel=1e-12)
            want_tapped = [i * (1.0 - T) * math.exp((attempts - 1) * math.log(T)) for i in intensity]
            assert tapped == pytest.approx(want_tapped, rel=1e-12)
            assert click == pytest.approx(
                [math.log(-math.expm1(-nu - eta * t)) for t in want_tapped], rel=1e-12)
            assert not any(r.flags.writeable for r in rows)


    @pytest.mark.parametrize("case", sorted(CASES))
    def test_label_draw_adds_the_rows_in_turn(self, case, monkeypatch):
        # the λ* draw reads 2·Re log c, plus the reweighting row, plus the
        # click row, rounded after each addition; one pre-summed row rounds
        # differently, which would move the draws
        gamma, alpha1, T, cutoff, eta, nu = self.CASES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cfg = ProtocolConfig(gamma=gamma, alpha1=alpha1, transmittance=T, cutoff=cutoff,
                                 max_attempts_per_factor=10_000,
                                 detector=DetectorModel(eta=eta, dark_rate_hz=nu, window_s=1.0))
        gl = complex(gamma_factors(gamma, 1).gamma_l[0])
        psi = coherent(0.3 + 0.1j, cutoff)
        cdfs = []
        real_inverse_cdf = protocol._inverse_cdf
        monkeypatch.setattr(protocol, "_inverse_cdf",
                            lambda cdf, u: cdfs.append(cdf) or real_inverse_cdf(cdf, u))
        log_c = x_labels(psi.amplitudes)[1]
        q = np.abs(np.exp(log_c)) ** 2
        model = factor_model(gl, alpha1, cutoff, eta, nu, T, 10_000)
        f_1, f_2 = model.table[:2] @ (q / q.sum())
        _, rec = rus_factor(psi, gl, cfg, OutcomeSequenceRng([0.5 * (f_1 + f_2), 0.5, 0.5, 0.5]))
        assert rec.success and rec.attempts == 2
        intensity = model.intensity
        log_w = 2.0 * (log_c - log_c.real.max()).real
        log_w += eta * intensity * np.expm1((rec.attempts - 1) * math.log(T))
        log_w += np.log(-np.expm1(-nu - eta * (intensity * (1.0 - T) * T ** (rec.attempts - 1))))
        assert np.array_equal(cdfs[0], np.exp(log_w - log_w.max()).cumsum())


@pytest.mark.parametrize("case", sorted(TestClickTable.CASES))
def test_run_ensemble_runs_full_gate_bit_for_bit(case, monkeypatch):
    # run_ensemble starts from its cached input labels, full_gate from the
    # FockState; from the same generator both must reach the same output
    # labels and trial log, bit for bit, on success and on failure alike
    gamma, alpha1, T, cutoff, eta, nu = TestClickTable.CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        cfg = ProtocolConfig(gamma=gamma, alpha1=alpha1, transmittance=T, cutoff=cutoff,
                             max_attempts_per_factor=10_000,
                             detector=DetectorModel(eta=eta, dark_rate_hz=nu, window_s=1.0))
    label_gate, outputs = protocol.label_gate, []

    def recorded(*args, **kwargs):
        try:
            c, psi = label_gate(*args, **kwargs)
        except FactorFailure as err:
            outputs.append((None, err.amplitudes.tobytes()))
            raise
        outputs.append((c.tobytes(), psi.tobytes()))
        return c, psi

    monkeypatch.setattr(protocol, "label_gate", recorded)
    monkeypatch.setattr(analysis, "label_gate", recorded)
    for seed in range(40):
        [(_, log)] = analysis.run_ensemble(cfg, [0.3], [np.random.default_rng(seed)])
        try:
            _, full_log = full_gate(coherent(0.3, cutoff), cfg, np.random.default_rng(seed))
        except FactorFailure as err:
            full_log = err.log
        assert outputs[-2] == outputs[-1], f"seed {seed}"
        assert log == full_log, f"seed {seed}"
    assert len(outputs) == 80


class TestPhotonCdf:
    """The cached photon-count CDFs draw exactly as the draw that built its
    CDF on every call, kept here as ``direct_photon_count``."""

    MEANS = [1e-6, 3e-4, 0.01, 0.2, 0.77, 1.0, 2.5, 7.3, 16.0, 50.0]

    @pytest.mark.parametrize("nu", [None, 0.0, 1e-8, 0.02, 0.7])
    def test_matches_direct_draw_at_every_step(self, nu):
        rng = np.random.default_rng(41)
        for mean in self.MEANS:
            size = int(mean + 12.0 * math.sqrt(mean)) + 40
            cdf = _photon_cdf(mean, nu)
            assert cdf.size == size and not cdf.flags.writeable
            assert _photon_cdf(mean, nu) is cdf
            steps = cdf / cdf[-1]
            us = [0.0, np.nextafter(1.0, 0.0)] + list(rng.random(50))
            us += [np.nextafter(x, d) for x in steps for d in (0.0, 1.0)] + list(steps)
            for u in us:
                if 0.0 <= u < 1.0:
                    assert _photon_count(mean, u, nu) == direct_photon_count(mean, u, nu), \
                        f"mean {mean}, u {u!r}"

    def test_zero_mean_draws_nothing(self):
        assert _photon_count(0.0, 0.5) == 0 and _photon_count(0.0, 0.5, 0.02) == 0


class TestPinnedDraws:
    """``success`` and ``total_attempts`` of full_gate runs on generators
    seeded SeedSequence(23, spawn_key=(run,)), as the engine drew them
    before the click table; the CLI-default runs include every factor that
    heralded among the first 200 runs, up to run 136."""

    CASES = {
        "rus_herald": (
            dict(gamma=0.001, n=2, alpha1=3.3, transmittance=0.9734, cutoff=8,
                 max_attempts_per_factor=500, detector=IDEAL_DETECTOR), 0.0,
            {0: (True, 35), 1: (True, 23), 2: (True, 17), 3: (True, 11),
             4: (True, 26), 5: (True, 34), 6: (True, 22), 7: (True, 22)}),
        "cli_defaults": (
            dict(), 0.3,
            {0: (False, 10000), 1: (False, 10000), 2: (False, 10000), 22: (False, 10156),
             47: (False, 10072), 123: (False, 10080), 136: (False, 10044)}),
        "lossy": (
            dict(gamma=0.05, alpha1=2.0, transmittance=0.95, cutoff=20, max_attempts_per_factor=60,
                 detector=DetectorModel(eta=0.7, dark_rate_hz=0.02, window_s=1.0)), 0.3 + 0.2j,
            {0: (True, 63), 1: (True, 15), 2: (True, 25), 3: (True, 13), 4: (True, 55),
             5: (True, 44), 12: (False, 75), 17: (False, 60), 40: (False, 62)}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_success_and_attempts_unchanged(self, case):
        kw, alpha, pinned = self.CASES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cfg = ProtocolConfig(**kw)
        psi = coherent(alpha, cfg.cutoff)
        got = {}
        for run in pinned:
            rng = np.random.default_rng(np.random.SeedSequence(23, spawn_key=(run,)))
            try:
                _, log = full_gate(psi, cfg, rng)
            except FactorFailure as err:
                log = err.log
            got[run] = (log.success, log.total_attempts)
        assert got == pinned


class TestHeadroom:
    def test_rus_herald_outputs_pass(self):
        # the outputs of the criterion-4 physics hold at most a few 1e-8 of
        # their probability in the top two Fock levels, far below the bound
        cfg = strong_stats_config(n=2)
        worst = 0.0
        for i in range(300):
            rng = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(i,)))
            out, _ = full_gate(vacuum([8]), cfg, rng)
            worst = max(worst, float(np.sum(np.abs(out.amplitudes[-2:]) ** 2)))
        assert worst < 0.1 * HEADROOM_BOUND

    def test_output_names_factor_and_attempt(self, force_click):
        # α₁ = 60 squeezes the state in x̂ beyond the cutoff
        cfg = strong_stats_config(alpha1=60.0, transmittance=0.5, max_attempts_per_factor=50)
        with pytest.raises(NumericalDegradationError,
                           match=r"the gate output after factor l=0, repetition 0, attempt 1 "
                                 r"holds \S+ of its probability in the top two Fock levels of "
                                 r"cutoff 8, above the bound 1e-06"):
            full_gate(coherent(0.3, 8), cfg, force_click)

    def test_failure_state_checked(self):
        # a blind detector never clicks; the no-click envelope and the lost
        # photons narrow the state in x̂ beyond the cutoff
        cfg = strong_stats_config(alpha1=60.0, transmittance=0.5, max_attempts_per_factor=5,
                                  detector=DetectorModel(eta=0.0, dark_rate_hz=0.0))
        with pytest.raises(NumericalDegradationError,
                           match=r"the failure state after factor l=2, repetition 0, attempt 5"):
            full_gate(coherent(0.3, 8), cfg, np.random.default_rng(1))


class TestConfigValidation:
    def test_weak_subtraction_warning(self):
        with pytest.warns(UserWarning, match="weak-subtraction") as record:
            ProtocolConfig(gamma=0.03, n=1, alpha1=2.0, transmittance=0.8)
        assert record[0].filename == __file__  # points at the caller

    @pytest.mark.parametrize(
        "cls, key",
        [(ProtocolConfig, k) for k in ("gamma", "alpha1", "transmittance")]
        + [(DetectorModel, k) for k in ("eta", "dark_rate_hz", "window_s")],
    )
    def test_nan_rejected(self, cls, key):
        with pytest.raises(ValueError, match=f"config key '{key}'"):
            cls(**{key: float("nan")})

    def test_cutoff_is_system_only(self):
        # the resource and the ancilla are never truncated
        assert ProtocolConfig(cutoff=12).cutoff == 12
        with pytest.raises(TypeError):
            ProtocolConfig(cutoffs=(30, 4))

    def test_trial_log_aggregation(self):
        log = TrialLog(
            [
                FactorRecord(2, 0, 3, True, 0.1),
                FactorRecord(1, 0, 2, True, 0.1),
            ]
        )
        assert log.total_attempts == 5
        assert log.success
