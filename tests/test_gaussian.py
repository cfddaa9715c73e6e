import math

import numpy as np
import pytest

from cubicphase.errors import CutoffError, DimensionError
from cubicphase.gaussian import (
    squeezed_vacuum,
    x_eigh,
)
from cubicphase.hilbert import coherent
from cubicphase.reference import (
    _apply_qnd_compensated,
    apply,
    apply_x_conditioned_displacement,
    beamsplitter_gate,
    displacement_gate,
    expectation,
    fidelity,
    identity,
    interior_max_norm,
    momentum_shift_gate,
    normalize,
    number_op,
    qnd_compensation_kick,
    qnd_gate,
    qnd_prime_gate,
    quadrature_p,
    quadrature_x,
    squeeze_gate,
    squeezed_vacuum_truncation_loss,
    tensor,
    vacuum,
)


class TestDisplacement:
    def test_zero_is_identity(self):
        assert np.allclose(displacement_gate(0.0, 12).matrix, np.eye(12))

    def test_generates_coherent(self):
        out = normalize(apply(displacement_gate(1.0, 25), vacuum([25])))
        assert fidelity(out, coherent(1.0, 25)) > 1 - 1e-8

    def test_inverse_pair(self):
        d = displacement_gate(0.8 + 0.2j, 30)
        dm = displacement_gate(-0.8 - 0.2j, 30)
        dev = d.matrix @ dm.matrix - np.eye(30)
        assert interior_max_norm(dev, (30,), 2) < 1e-8

    def test_cutoff_guard(self):
        with pytest.raises(CutoffError):
            displacement_gate(3.0, 10)

    @pytest.mark.parametrize("beta", [0.3, -0.5j, 0.4 + 0.7j, 0.0])
    def test_x_conditioned_gates_match_expm(self, beta):
        # on the system's x̂ eigenvector of eigenvalue λ the coupling is D(βλ) on
        # the resource: column k of the gate is its output for resource level k
        lams, v = x_eigh(5)
        for lam, vec in zip(lams, v.T):
            gate = np.stack([apply_x_conditioned_displacement(np.outer(vec, e), beta)
                             for e in np.eye(24)], axis=-1)
            ref = displacement_gate(beta * lam, 24, max_loss=1.0).matrix
            assert np.abs(gate - np.multiply.outer(vec, ref)).max() < 1e-11


class TestXEigh:
    @pytest.mark.parametrize("cutoff", [8, 30, 40, 80, 120])
    def test_real_eigenbasis_of_the_complex_x(self, cutoff):
        # x̂ is real symmetric, so its eigenvectors are real; up to each column's
        # sign, or a phase from a complex eigensolver, they are the complex x̂'s
        w, v = x_eigh(cutoff)
        assert v.dtype == np.float64 and not (w.flags.writeable or v.flags.writeable)
        w_ref, v_ref = np.linalg.eigh(quadrature_x(cutoff).matrix)
        overlaps = np.einsum("ij,ij->j", v, v_ref)
        v_ref = v_ref * (overlaps.conj() / np.abs(overlaps))
        assert np.abs(w - w_ref).max() <= 1e-13
        assert np.abs(v - v_ref).max() <= 1e-13

    @pytest.mark.parametrize("cutoff", [0, 1])
    def test_cutoff_below_two_raises(self, cutoff):
        with pytest.raises(DimensionError):
            x_eigh(cutoff)


class TestBeamsplitter:
    def test_full_transmission_identity(self):
        bs = beamsplitter_gate(1.0, (8, 8))
        assert np.array_equal(bs.matrix, np.eye(64))

    def test_coherent_splitting_convention(self):
        T, zeta = 0.99, 1.0
        bs = beamsplitter_gate(T, (30, 6))
        inp = tensor(coherent(zeta, 30), vacuum([6]))
        out = normalize(apply(bs, inp))
        target = tensor(
            coherent(math.sqrt(T) * zeta, 30),
            coherent(-math.sqrt(1 - T) * zeta, 6),
        )
        assert fidelity(out, target) > 1 - 1e-6

    def test_photon_number_conserved(self):
        bs = beamsplitter_gate(0.7, (12, 12))
        inp = tensor(coherent(0.9, 12), coherent(0.3, 12))
        out = normalize(apply(bs, inp))
        n_tot = tensor(number_op(12), identity([12])).matrix + tensor(
            identity([12]), number_op(12)
        ).matrix
        from cubicphase.reference import FockOperator

        before = expectation(FockOperator(n_tot, (12, 12)), inp).real
        after = expectation(FockOperator(n_tot, (12, 12)), out).real
        assert after == pytest.approx(before, abs=1e-8)

    def test_invalid_transmittance(self):
        with pytest.raises(ValueError):
            beamsplitter_gate(0.0, (4, 4))
        with pytest.raises(ValueError):
            beamsplitter_gate(1.2, (4, 4))


class TestQndGate:
    def test_zero_coupling_identity(self):
        g = qnd_gate(0.0, (10, 10))
        assert np.abs(g.matrix - np.eye(100)).max() < 1e-12

    def test_commutes_with_system_x(self):
        g = qnd_gate(0.3j, (20, 20))
        xs = tensor(quadrature_x(20), identity([20])).matrix
        comm = g.matrix @ xs - xs @ g.matrix
        assert interior_max_norm(comm, (20, 20), 2) < 1e-8

    def test_resource_displaced_by_beta_x0(self):
        # x-squeezed system at x0: resource acquires mean amplitude ≈ β·x0
        x0, beta = 1.0, 0.25
        sys_c, res_c = 60, 18
        sq = squeeze_gate(0.045, sys_c, max_loss=2e-3)  # σ_x = 0.15
        sys_state = normalize(apply(
            displacement_gate(x0 / math.sqrt(2), sys_c), apply(sq, vacuum([sys_c]))
        ))
        two = normalize(apply(qnd_gate(beta, (sys_c, res_c)), tensor(sys_state, vacuum([res_c]))))
        from cubicphase.reference import FockOperator, annihilation

        a_r = tensor(identity([sys_c]), annihilation(res_c))
        mean_a = expectation(a_r, two)
        assert abs(mean_a - beta * x0) / (beta * x0) < 0.05

    def test_position_moments_conserved(self):
        sys_c, res_c = 24, 12
        g = qnd_gate(0.2 + 0.1j, (sys_c, res_c))
        inp = tensor(coherent(0.5, sys_c), coherent(0.2, res_c))
        out = normalize(apply(g, inp))
        x = quadrature_x(sys_c).matrix
        for k in range(1, 5):
            from cubicphase.reference import FockOperator

            op = FockOperator(np.linalg.matrix_power(x, k), (sys_c,))
            before = expectation(op, coherent(0.5, sys_c)).real
            xk = tensor(FockOperator(np.linalg.matrix_power(x, k), (sys_c,)), identity([res_c]))
            after = expectation(xk, out).real
            assert after == pytest.approx(before, abs=1e-6)

    def test_compensation_kick_value(self):
        beta = 0.1 + 0.2j
        assert qnd_compensation_kick(beta, 0.5) == pytest.approx(-0.5 * 0.2)


class TestQndPrimeGate:
    def test_generator_anti_hermitian(self):
        xs = quadrature_x(14).matrix
        pr = quadrature_p(14).matrix
        g = 1j * np.kron(xs, pr)
        assert np.abs(g + g.conj().T).max() < 1e-10

    def test_zero_strength_identity(self):
        g = qnd_prime_gate((8, 8), strength=0.0)
        assert np.abs(g.matrix - np.eye(64)).max() < 1e-12

    def test_vacuum_x_symmetric(self):
        g = qnd_prime_gate((12, 12))
        out = normalize(apply(g, vacuum([12, 12])))
        xs = tensor(quadrature_x(12), identity([12]))
        assert abs(expectation(xs, out)) < 1e-10

    def test_shifts_resource_by_system_position(self):
        # on |x⟩|x_R⟩ the map is Ψ(x, u) → Ψ(x, u + x): resource mean x̂ drops
        # by the system mean position
        sys_c, res_c = 20, 24
        g = qnd_prime_gate((sys_c, res_c))
        sys_state = coherent(0.5, sys_c)  # ⟨x̂⟩ = √2·0.5
        out = normalize(apply(g, tensor(sys_state, vacuum([res_c]))))
        xr = tensor(identity([sys_c]), quadrature_x(res_c))
        assert expectation(xr, out).real == pytest.approx(-math.sqrt(2) * 0.5, abs=1e-6)


class TestSqueeze:
    def test_unit_width_is_identity_on_vacuum(self):
        s = squeeze_gate(1.0, 20)
        out = normalize(apply(s, vacuum([20])))
        assert fidelity(out, vacuum([20])) > 1 - 1e-12

    def test_width_matches_target(self):
        s = squeeze_gate(4.0, 40)
        out = normalize(apply(s, vacuum([40])))
        x2 = expectation(
            type(s)(quadrature_x(40).matrix @ quadrature_x(40).matrix, (40,)), out
        ).real
        assert abs(x2 - 2.0) / 2.0 < 0.01

    def test_norm_preserved(self):
        s = squeeze_gate(2.0, 30)
        assert abs(np.linalg.norm(apply(s, vacuum([30])).amplitudes) - 1.0) < 1e-8

    def test_extreme_width_rejected(self):
        with pytest.raises(CutoffError):
            squeeze_gate(64.0, 30)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            squeeze_gate(-1.0, 20)

    def test_truncation_loss_estimate(self):
        # r = 16 squeezed vacuum carries a small but real tail at cutoff 40
        loss = squeezed_vacuum_truncation_loss(16.0, 40)
        assert 1e-4 < loss < 1e-2


class TestSqueezedVacuum:
    @pytest.mark.parametrize("r", [0.25, 1.5, 2.0, 4.0])
    def test_matches_untruncated_gate(self, r):
        # the closed form is exact below the cutoff; the vacuum column of the
        # cutoff-40 expm is off by up to 7e-6 at r = 4, that of cutoff 160 is not
        ref = squeeze_gate(r, 160).matrix[:40, 0]
        assert np.abs(squeezed_vacuum(r, 40).amplitudes - ref).max() < 1e-13

    @pytest.mark.parametrize("r,cutoff", [(1.0, 10), (0.25, 40), (1.5, 40), (4.0, 40),
                                          (4.0, 41), (16.0, 40), (16.0, 7)])
    def test_truncation_loss_matches_series(self, r, cutoff):
        # 1 − Σ_{2k<cutoff} |c_{2k}|² by the term recurrence
        # |c_{2k+2}|²/|c_{2k}|² = tanh²s·(2k+1)/(2k+2)
        s = -0.5 * math.log(r)
        t2, term, kept = math.tanh(s) ** 2, 1.0 / math.cosh(s), 0.0
        for k in range((cutoff + 1) // 2):
            kept += term
            term *= t2 * (2 * k + 1) / (2 * k + 2)
        want = max(0.0, 1.0 - kept)
        assert squeezed_vacuum_truncation_loss(r, cutoff) == pytest.approx(want, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("make", [squeeze_gate, squeezed_vacuum])
    def test_rejects_like_squeeze_gate(self, make):
        with pytest.raises(CutoffError, match="squeezed vacuum"):
            make(64.0, 30)
        with pytest.raises(ValueError, match="must be positive"):
            make(-1.0, 20)


class TestUnitarityHints:
    @pytest.mark.parametrize(
        "gate",
        [
            lambda: displacement_gate(0.6 - 0.3j, 30),
            lambda: squeeze_gate(2.0, 30),
            lambda: momentum_shift_gate(0.4, 30),
            lambda: beamsplitter_gate(0.9, (14, 14)),
            lambda: qnd_gate(0.2j, (14, 14)),
            lambda: qnd_prime_gate((14, 14)),
        ],
    )
    def test_interior_unitarity(self, gate):
        g = gate()
        dev = g.matrix.conj().T @ g.matrix - np.eye(g.dim)
        assert interior_max_norm(dev, g.cutoffs, 2) < 1e-8


class TestMomentumShift:
    def test_displaces_p(self):
        g = momentum_shift_gate(0.7, 30)
        out = normalize(apply(g, coherent(0.3, 30)))
        p_before = expectation(quadrature_p(30), coherent(0.3, 30)).real
        p_after = expectation(quadrature_p(30), out).real
        assert p_after - p_before == pytest.approx(0.7, abs=1e-8)

    @pytest.mark.parametrize("case", ["compensated", "marek"])
    def test_qnd_phase_compensation_closes(self, case):
        # the x̂-eigenbasis fast path against expm compositions.  compensated:
        # |ψ⟩|A⟩ → ∫ψ(x)|x⟩|A + βx⟩ with no leftover momentum kick.  marek:
        # β = −1/√2 with no kick is exp(i x̂_S p̂_R) of the resource-state scheme
        sys_c, res_c = 16, 14
        base = 0.4
        inp = tensor(coherent(0.3, sys_c), coherent(base, res_c))
        if case == "compensated":
            beta = 0.1 + 0.22j
            kick = qnd_compensation_kick(beta, base)
            ref = apply(qnd_gate(beta, (sys_c, res_c)), inp)
            ref = apply(momentum_shift_gate(kick, sys_c), ref, modes=(0,))
            fast = _apply_qnd_compensated(inp, beta, base).amplitudes
        else:
            beta = -1.0 / math.sqrt(2.0)
            ref = apply(qnd_prime_gate((sys_c, res_c)), inp)
            fast = apply_x_conditioned_displacement(inp.amplitudes.reshape(sys_c, res_c), beta)
        assert np.abs(fast.reshape(-1) - ref.amplitudes).max() < 1e-10
