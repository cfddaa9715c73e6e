import math
import warnings

import numpy as np
import pytest
from scipy import stats

from oracles import coherent_position_density, factor_attempt_stats, gate_total_attempts
from cubicphase.cubic import factor_operator, gamma_factors, u_n_operator
from cubicphase.errors import (
    DegenerateOutcomeError,
    FactorFailure,
    NumericalDegradationError,
)
from cubicphase.hilbert import (
    FockState,
    apply,
    coherent,
    dominant_pure_component,
    fidelity,
    number_state,
    partial_trace,
    quadrature_x,
    state_fidelity,
    tensor,
    vacuum,
)
from cubicphase.protocol import (
    IDEAL_DETECTOR,
    DetectorModel,
    FactorRecord,
    ProtocolConfig,
    TrialLog,
    _apply_qnd_compensated,
    _beamsplitter,
    _povm0_diag,
    couple_resource,
    detector_povm,
    full_gate,
    ideal_project,
    one_photon_reduce,
    rus_factor,
    subtraction_attempt,
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
    system out of the product state that leaves.  Returns the system state,
    the click probability of every attempt on this path, which for η = 1 is
    the click probability given no click before, and the probabilities of
    the ancilla photon numbers at the click.
    """
    sys_c, T, det = config.cutoff, config.transmittance, config.detector
    two = couple_resource(state, config.alpha1, gamma_l, (sys_c, res_c)).normalize()
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
    two = _apply_qnd_compensated(
        FockState(mat.reshape(-1), (sys_c, res_c)), -base * gamma_l, base
    ).normalize()
    out, purity = dominant_pure_component(two, keep=(0,))
    assert 1.0 - purity <= 1e-6  # resource truncation only
    return out, p_clicks, photons


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
    psi = couple_resource(state, config.alpha1, gamma_l, (sys_c, res_c)).normalize().amplitudes
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
        out = couple_resource(psi, 0.2, 0.0, (30, 25)).normalize()
        target = tensor(psi, coherent(0.2, 25))
        assert fidelity(out, target) > 1 - 1e-8

    def test_norm_preserved(self):
        psi = coherent(0.3, 30)
        gl = gamma_factors(0.03, 1).gamma_l[0]
        out = couple_resource(psi, 0.2, gl, (30, 25))
        assert abs(out.norm() - 1.0) < 1e-8

    def test_narrow_system_gives_coherent_resource(self):
        # near-position-eigenstate at x0: resource ≈ |α₁(1 + γ_l x0)⟩
        from cubicphase.gaussian import displacement_gate, squeeze_gate

        sys_c, res_c = 60, 20
        x0 = 0.8
        sq = squeeze_gate(0.045, sys_c, max_loss=2e-3)  # σ_x = 0.15
        psi = apply(
            displacement_gate(x0 / math.sqrt(2), sys_c), apply(sq, vacuum([sys_c]))
        ).normalize()
        gl = gamma_factors(0.03, 1).gamma_l[0]
        out = couple_resource(psi, 0.2, gl, (sys_c, res_c)).normalize()
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
        assert raw.norm() ** 2 == pytest.approx(prob, rel=1e-12)

    def test_projected_state_one_photon_branch(self):
        psi = coherent(0.3, 30)
        gl = gamma_factors(0.03, 1).gamma_l[0]
        coupled = couple_resource(psi, 0.2, gl, (30, 25)).normalize()
        projected, prob = ideal_project(coupled, resource_mode=1)
        reduced = one_photon_reduce(projected, resource_mode=1)
        target = tensor(
            apply(factor_operator(gl, 30), psi).normalize(), number_state([1], [25])
        )
        assert fidelity(reduced, target) > 0.99
        # exact projector carries a quantified two-photon gap
        gap = 1.0 - fidelity(projected, target)
        assert 1e-3 < gap < 0.05


class TestSubtractionAttempt:
    def test_click_probability_ideal(self, force_click):
        st = tensor(vacuum([4]), coherent(1.0, 30))
        _, outcome, (p0, p1) = subtraction_attempt(
            st, 1, 0.99, IDEAL_DETECTOR, force_click, ancilla_cutoff=5
        )
        assert outcome == "click"
        assert p1 == pytest.approx(1 - math.exp(-0.01), rel=1e-4)

    def test_probabilities_sum_to_one(self, rng):
        st = tensor(vacuum([4]), coherent(0.8, 25))
        _, _, (p0, p1) = subtraction_attempt(st, 1, 0.95, DetectorModel(), rng)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    def test_full_transmission_dark_counts_only(self, rng):
        detector = DetectorModel(eta=1.0, dark_rate_hz=0.05, window_s=1.0)
        st = tensor(vacuum([4]), coherent(0.5, 15))
        _, _, (p0, p1) = subtraction_attempt(st, 1, 1.0, detector, rng)
        assert p1 == pytest.approx(1 - math.exp(-0.05), rel=1e-10)

    def test_no_click_attenuates_resource(self, force_no_click):
        zeta, T = 0.8, 0.99
        st = tensor(vacuum([4]), coherent(zeta, 25))
        out, outcome, _ = subtraction_attempt(st, 1, T, IDEAL_DETECTOR, force_no_click)
        assert outcome == "no_click"
        target = tensor(vacuum([4]), coherent(math.sqrt(T) * zeta, 25))
        assert fidelity(out, target) > 1 - 1e-6

    @pytest.mark.filterwarnings("error::scipy.linalg.LinAlgWarning")
    def test_no_click_invariance_of_system(self, force_no_click):
        # the system reduced state survives a failed attempt
        psi = coherent(0.3, 30)
        gl = gamma_factors(0.03, 1).gamma_l[0]
        coupled = couple_resource(psi, 0.2, gl, (30, 25)).normalize()
        rho_before = partial_trace(coupled, None, keep=(0,))
        out, outcome, _ = subtraction_attempt(
            coupled, 1, 0.99, IDEAL_DETECTOR, force_no_click
        )
        assert outcome == "no_click"
        rho_after = partial_trace(out, None, keep=(0,))
        assert state_fidelity(rho_before, rho_after) > 1 - 1e-6

    def test_matches_dense_matrix_route(self, force_click):
        # independent check: full 3-mode operators, POVM matrices, and a
        # density-matrix partial trace must reproduce the kernel's output
        from cubicphase.gaussian import beamsplitter_gate
        from cubicphase.hilbert import FockOperator, identity

        T, anc_c = 0.97, 4
        psi = coherent(0.3, 12)
        gl = gamma_factors(0.03, 1).gamma_l[0]
        st = couple_resource(psi, 0.2, gl, (12, 10)).normalize()

        out, outcome, (p0, p1) = subtraction_attempt(
            st, 1, T, DetectorModel(), force_click, ancilla_cutoff=anc_c
        )
        assert outcome == "click"

        big = tensor(st, vacuum([anc_c]))
        bs3 = tensor(identity([12]), beamsplitter_gate(T, (10, anc_c)))
        big = apply(bs3, big)
        pi0, pick = detector_povm(DetectorModel(), anc_c)
        pick3 = tensor(tensor(identity([12]), identity([10])), pick)
        from cubicphase.hilbert import expectation

        p1_dense = expectation(pick3, big).real
        assert p1 == pytest.approx(p1_dense, abs=1e-12)

        kraus = FockOperator(
            np.sqrt(pick.matrix.real).astype(complex), (anc_c,), hermitian_hint=True
        )
        post = apply(kraus, big, modes=(2,)).normalize()
        rho_exact = partial_trace(post, None, keep=(0, 1))
        overlap = (out.amplitudes.conj() @ rho_exact @ out.amplitudes).real
        # the pure output is the dominant component of the exact mixed state
        assert overlap > 1 - 1e-4
        assert overlap == pytest.approx(np.linalg.eigvalsh(rho_exact)[-1], abs=1e-9)

    def test_purity_guard_raises(self, force_click):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            psi = vacuum([8])
            gl = gamma_factors(0.001, 1).gamma_l[0]
            coupled = couple_resource(psi, 3.3, gl, (8, 40)).normalize()
        with pytest.raises(NumericalDegradationError):
            subtraction_attempt(
                coupled, 1, 0.9734, IDEAL_DETECTOR, force_click,
                ancilla_cutoff=6, purity_tol=1e-6,
            )


class TestRusFactor:
    def test_forced_click_fidelity(self, force_click):
        cfg = ProtocolConfig(**WEAK_CONFIG)
        psi = coherent(0.3, 30)
        for l in range(3):
            gl = gamma_factors(0.03, 1).gamma_l[l]
            out, rec = rus_factor(psi, gl, cfg, force_click, factor_index=l)
            target = apply(factor_operator(gl, 30), psi).normalize()
            assert fidelity(out, target) > 0.99
            assert rec.attempts >= 1
            assert rec.success
            assert rec.attenuation == pytest.approx(math.sqrt(0.99))

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
        target = apply(factor_operator(gl, 30), psi).normalize()
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
            target = apply(factor_operator(gl, 30), psi).normalize()
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
            target = apply(factor_operator(gl, 30), psi).normalize()
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
        assert rec.outcomes == [False] * (m - 1) + [True]
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
        target = apply(u_n_operator(0.03, 1, 30), psi).normalize()
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

    def test_total_attempts_match_oracle_at_strong_gamma(self):
        # at γ = 0.1 the weight |1+γ_l x|² varies enough across the input that
        # an oracle counting it twice misses the mean by ~11 standard errors
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cfg = ProtocolConfig(
                gamma=0.1, n=1, alpha1=3.3, transmittance=0.9734, cutoff=16,
                detector=IDEAL_DETECTOR, max_attempts_per_factor=500,
            )
        gl = gamma_factors(cfg.gamma, cfg.n).gamma_l
        expected = gate_total_attempts(0.0, cfg.alpha1, cfg.transmittance, [gl[2], gl[1], gl[0]])
        v = vacuum([16])
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

    def test_repeated_n_runs_all_factors(self, force_click):
        cfg = ProtocolConfig(**{**WEAK_CONFIG, "n": 2})
        psi = coherent(0.3, 30)
        out, log = full_gate(psi, cfg, force_click)
        assert len(log.factors) == 6
        target = apply(u_n_operator(0.03, 2, 30), psi).normalize()
        assert fidelity(out, target) > 0.98


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

    def test_record_invariant(self):
        with pytest.raises(ValueError):
            FactorRecord(0, 0, 3, [False, False, False], 1.0, True, 0.1)

    def test_trial_log_aggregation(self):
        log = TrialLog(
            [
                FactorRecord(2, 0, 3, [False, False, True], 0.99, True, 0.1),
                FactorRecord(1, 0, 2, [False, True], 0.995, True, 0.1),
            ]
        )
        assert log.total_attempts == 5
        assert log.success
