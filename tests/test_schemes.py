import math

import numpy as np
import numpy.linalg as la
import pytest

from cubicphase import reference, schemes
from cubicphase.errors import DegenerateOutcomeError
from cubicphase.hilbert import FockState, coherent
from cubicphase.gaussian import squeezed_vacuum, x_eigh
from cubicphase.reference import (
    apply,
    expm,
    fidelity,
    marek_frame_coefficients,
    marek_gamma_prime,
    marek_restart_mc,
    normalize,
    quadrature_x,
    squeeze_gate,
    vacuum,
)
from cubicphase.schemes import (
    marek_gate,
    marek_resource_state,
    marek_restart_mean,
    runtime_models,
)


class TestMarekResource:
    def test_frame_support_and_ratio(self):
        st = marek_resource_state(1.5, 0.03, 40)
        co = marek_frame_coefficients(st, 1.5)
        others = np.abs(co).copy()
        others[[0, 1, 3]] = 0.0
        assert others.max() < 1e-10
        assert abs(co[3] / co[1]) == pytest.approx(math.sqrt(6) / 3, abs=1e-6)

    def test_frame_coefficients_proportional_to_gamma_prime(self):
        r, gamma = 1.5, 0.03
        st = marek_resource_state(r, gamma, 40)
        co = marek_frame_coefficients(st, r)
        gp = marek_gamma_prime(r, gamma)
        assert co[1] / co[0] == pytest.approx(1j * gp * 3.0 / (2.0 * math.sqrt(2)), abs=1e-10)
        assert co[3] / co[0] == pytest.approx(1j * gp * math.sqrt(3) / 2.0, abs=1e-10)

    def test_gamma_zero_is_squeezed_vacuum(self):
        st = marek_resource_state(2.0, 0.0, 30)
        sq = normalize(apply(squeeze_gate(2.0, 30), vacuum([30])))
        assert fidelity(st, sq) > 1 - 1e-12

    def test_even_component_vanishes(self):
        st = marek_resource_state(2.0, 0.03, 40)
        co = marek_frame_coefficients(st, 2.0)
        assert abs(co[2]) < 1e-10

    @pytest.mark.parametrize("r, gamma, cutoff", [(1.5, 0.03, 40), (16.0, 0.03, 61),
                                                  (0.5, 0.1, 41), (4.0, 0.03, 41)])
    def test_matches_dense_cubic(self, r, gamma, cutoff):
        # x̂³ applied as λ³ in the eigenbasis against the cube of the dense x̂
        want = _cubic_target(squeezed_vacuum(r, cutoff, max_loss=0.01), gamma)
        got = marek_resource_state(r, gamma, cutoff, max_loss=0.01)
        assert np.abs(got.amplitudes - want.amplitudes).max() <= 1e-14


def _cubic_target(psi, gamma):
    c = psi.cutoffs[0]
    x = quadrature_x(c).matrix
    amp = (np.eye(c) + 1j * gamma * la.matrix_power(x, 3)) @ psi.amplitudes
    return FockState(amp / np.linalg.norm(amp), (c,))


class TestMarekGate:
    def test_q_zero_branch_fidelity(self, rng):
        psi = coherent(0.3, 25)
        out, q, applied = marek_gate(
            psi, 16.0, 0.03, rng, (25, 61), force_q=0.0, max_loss=0.01
        )
        assert q == 0.0
        assert not applied
        assert fidelity(out, _cubic_target(psi, 0.03)) > 0.98

    def test_feed_forward_at_zero_is_identity(self):
        from cubicphase.reference import _feed_forward

        u = _feed_forward(0.0, 0.03, 20)
        assert np.abs(u.matrix - np.eye(20)).max() < 1e-12

    # q = 0, an interior homodyne bin and both extreme bins of cutoff 40
    @pytest.mark.parametrize("bin_index", [None, 23, 0, -1])
    def test_feed_forward_matches_expm_of_generator(self, bin_index):
        from cubicphase.reference import _feed_forward

        c, gamma = 40, 0.03
        q = 0.0 if bin_index is None else float(x_eigh(c)[0][bin_index])
        x = quadrature_x(c).matrix
        gen = -1j * gamma * (q**3 * np.eye(c) + 3.0 * q * (x @ x + q * x))
        assert np.abs(_feed_forward(q, gamma, c).matrix - expm(gen)).max() <= 1e-12

    def test_diagonal_feed_forward_matches_dense(self, rng, monkeypatch):
        # the dense_analysis shot at a nonzero homodyne bin; with the feed-forward's
        # diagonal patched to ones the same shot returns the collapsed state
        psi, gamma, cutoffs = coherent(0.3, 30), 0.03, (30, 40)
        q_bin = float(x_eigh(40)[0][23])
        out, q, applied = marek_gate(psi, 1.5, gamma, rng, cutoffs, force_q=q_bin)
        assert applied and q == q_bin
        dense = reference._feed_forward(q, gamma, 30)
        monkeypatch.setattr(schemes, "_feed_forward_phase", lambda q, gamma, w: np.ones(len(w)))
        collapsed, _, _ = marek_gate(psi, 1.5, gamma, rng, cutoffs, force_q=q_bin)
        want = normalize(apply(dense, collapsed))
        assert np.abs(out.amplitudes - want.amplitudes).max() <= 1e-13

    # q = 0: the middle bin of the odd resource cutoff is x̂'s zero eigenvalue
    @pytest.mark.parametrize("res_c, bin_index", [(15, 7), (14, 4)])
    def test_shot_matches_dense_route(self, rng, res_c, bin_index):
        # the whole shot against the dense route: expm's coupling, projection on
        # the resource's x̂ eigenvector, then the dense feed-forward
        sys_c, gamma = 16, 0.03
        psi = coherent(0.3, sys_c)
        mu, u = x_eigh(res_c)
        out, q, applied = marek_gate(psi, 1.5, gamma, rng, (sys_c, res_c), force_q=mu[bin_index])
        assert applied == (q != 0.0) == (res_c == 14)
        two = apply(reference.qnd_prime_gate((sys_c, res_c)),
                    reference.tensor(psi, marek_resource_state(1.5, gamma, res_c)))
        want = two.amplitudes.reshape(sys_c, res_c) @ u[:, bin_index]
        if applied:
            want = reference._feed_forward(q, gamma, sys_c).matrix @ want
        assert np.abs(out.amplitudes - want / np.linalg.norm(want)).max() < 1e-10

    def test_gamma_zero_fidelity_grows_with_r(self, rng):
        # pure Gaussian smearing: wider resource disturbs the input less
        psi = coherent(0.3, 25)
        fids = []
        for r in (2.0, 4.0, 16.0):
            out, _, _ = marek_gate(psi, r, 0.0, rng, (25, 61), force_q=0.0, max_loss=0.01)
            fids.append(fidelity(out, psi))
        assert fids[0] < fids[1] < fids[2]

    def test_target_fidelity_non_decreasing_in_r(self, rng):
        psi = coherent(0.3, 25)
        fids = []
        for r in (2.0, 4.0, 16.0):
            out, _, _ = marek_gate(psi, r, 0.03, rng, (25, 61), force_q=0.0, max_loss=0.01)
            fids.append(fidelity(out, _cubic_target(psi, 0.03)))
        assert fids[0] <= fids[1] <= fids[2]

    def test_sampled_outcome_reproducible(self):
        psi = coherent(0.3, 20)
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            out, q, _ = marek_gate(psi, 4.0, 0.03, rng, (20, 41), max_loss=0.01)
            outs.append((q, out.amplitudes.copy()))
        assert outs[0][0] == outs[1][0]
        assert np.array_equal(outs[0][1], outs[1][1])

    def test_force_q_on_zero_probability_bin_raises(self, rng):
        # narrow resource: bins near the spectral edge carry ~e^{-200} mass
        psi = coherent(0.3, 20)
        with pytest.raises(DegenerateOutcomeError):
            marek_gate(psi, 0.5, 0.03, rng, (20, 41), force_q=10.0, max_loss=0.01)


class TestRuntimeModels:
    def test_p_one_all_unity(self):
        m = runtime_models(1.0)
        assert m.ours_per_factor == 1.0
        assert m.marek_prep == 1.0

    def test_point_one(self):
        m = runtime_models(0.1)
        assert m.ours_per_factor == pytest.approx(10.0)
        assert m.marek_prep == pytest.approx(1000.0)

    def test_total_scales_with_n(self):
        assert runtime_models(0.2, n=4).ours_total == pytest.approx(60.0)

    def test_restart_closed_form(self):
        assert marek_restart_mean(0.1) == pytest.approx(1110.0, rel=1e-12)
        assert marek_restart_mean(1.0) == pytest.approx(3.0)

    def test_restart_mc_matches_closed_form(self):
        rng = np.random.default_rng(7)
        est = marek_restart_mc(0.2, 20_000, rng)
        assert est == pytest.approx(marek_restart_mean(0.2), rel=0.05)

    def test_ordering_ours_beats_restart(self):
        for p in (0.05, 0.1, 0.3, 0.49):
            assert runtime_models(p).ours_per_factor < marek_restart_mean(p)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            runtime_models(0.0)
        with pytest.raises(ValueError):
            marek_restart_mean(1.5)
