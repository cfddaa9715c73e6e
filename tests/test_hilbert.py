import math

import numpy as np
import pytest

from cubicphase.errors import CutoffError, DimensionError
from cubicphase.hilbert import (
    FockOperator,
    FockState,
    annihilation,
    apply,
    coherent,
    coherent_truncation_loss,
    dominant_pure_component,
    expectation,
    fidelity,
    identity,
    interior_max_norm,
    number_state,
    partial_trace,
    quadrature_p,
    quadrature_x,
    state_fidelity,
    tensor,
    vacuum,
)


class TestVacuum:
    def test_single_mode(self):
        v = vacuum([4])
        assert np.array_equal(v.amplitudes, [1, 0, 0, 0])
        assert v.normalized

    def test_two_mode(self):
        v = vacuum([2, 2])
        assert v.amplitudes[0] == 1
        assert np.all(v.amplitudes[1:] == 0)

    def test_unit_norm(self):
        assert vacuum([30]).norm() == pytest.approx(1.0, abs=1e-14)

    def test_rejects_small_cutoff(self):
        with pytest.raises(DimensionError):
            vacuum([1])


class TestCoherent:
    def test_alpha_zero_is_vacuum(self):
        assert fidelity(coherent(0.0, 10), vacuum([10])) == pytest.approx(1.0)

    def test_poisson_amplitude(self):
        c = coherent(1.0, 20)
        assert c.amplitudes[0].real == pytest.approx(math.exp(-0.5), rel=1e-9)

    def test_truncation_loss_small(self):
        assert coherent_truncation_loss(1.0, 20) < 1e-8

    def test_loss_monotone_in_cutoff(self):
        losses = [coherent_truncation_loss(2.0, c) for c in range(6, 40, 2)]
        assert all(a >= b for a, b in zip(losses, losses[1:]))

    def test_cutoff_too_small_raises(self):
        with pytest.raises(CutoffError):
            coherent(3.0, 10)

    def test_mean_photon_number(self):
        from cubicphase.hilbert import number_op

        c = coherent(1.5, 30)
        assert expectation(number_op(30), c).real == pytest.approx(2.25, rel=1e-7)


class TestQuadratures:
    def test_x_matrix_element(self):
        x = quadrature_x(10)
        assert x.matrix[0, 1] == pytest.approx(1 / math.sqrt(2))

    def test_ladder_element(self):
        a = annihilation(10)
        assert a.matrix[1, 2] == pytest.approx(math.sqrt(2))

    def test_commutator_interior(self):
        x, p = quadrature_x(40), quadrature_p(40)
        comm = x.matrix @ p.matrix - p.matrix @ x.matrix
        dev = comm - 1j * np.eye(40)
        assert interior_max_norm(dev, (40,), 2) < 1e-10

    def test_hermitian_exactly(self):
        for op in (quadrature_x(12), quadrature_p(12)):
            assert np.array_equal(op.matrix, op.matrix.conj().T)


class TestTensorAndApply:
    def test_vacuum_tensor(self):
        v = tensor(vacuum([2]), vacuum([3]))
        assert fidelity(v, vacuum([2, 3])) == pytest.approx(1.0)

    def test_dimension(self):
        assert tensor(identity([4]), identity([5])).dim == 20

    def test_x_on_first_mode(self):
        two = tensor(vacuum([5]), vacuum([5]))
        out = apply(quadrature_x(5), two, modes=(0,))
        expected = tensor(number_state([1], [5]), vacuum([5]))
        ov = np.vdot(expected.amplitudes, out.amplitudes)
        assert abs(ov) == pytest.approx(1 / math.sqrt(2), rel=1e-12)
        # no support anywhere else
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_apply_mode_order(self):
        # applying on (1, 0) must transpose the operator action
        two = tensor(coherent(0.5, 8), vacuum([8]))
        xa = apply(quadrature_x(8), two, modes=(1,))
        swapped = apply(
            tensor(quadrature_x(8), identity([8])), two, modes=(1, 0)
        )
        assert np.allclose(xa.amplitudes, swapped.amplitudes)

    def test_norm_preserved_by_unitary(self):
        from cubicphase.gaussian import displacement_gate

        d = displacement_gate(0.7, 30)
        out = apply(d, coherent(0.4, 30))
        assert abs(out.norm() - 1.0) < 1e-8


class TestPartialTrace:
    def test_product_state_factorizes(self):
        psi = coherent(0.6, 8)
        phi = coherent(-0.3, 6)
        both = tensor(psi, phi)
        rho = partial_trace(both, None, keep=(0,))
        expected = psi.density_matrix()
        assert np.abs(rho - expected).max() < 1e-10

    def test_trace_preserved(self):
        both = tensor(coherent(0.6, 8), coherent(0.2, 6))
        rho = partial_trace(both, None, keep=(1,))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)

    def test_bell_state_maximally_mixed(self):
        amp = np.zeros(16, dtype=complex)
        amp[np.ravel_multi_index((0, 0), (4, 4))] = 1 / math.sqrt(2)
        amp[np.ravel_multi_index((1, 1), (4, 4))] = 1 / math.sqrt(2)
        rho = partial_trace(FockState(amp, (4, 4)), None, keep=(0,))
        evals = np.sort(np.linalg.eigvalsh(rho))[::-1]
        assert np.allclose(evals[:2], [0.5, 0.5], atol=1e-12)
        assert np.all(evals >= -1e-10)

    def test_empty_keep_rejected(self):
        with pytest.raises(DimensionError):
            partial_trace(vacuum([2, 2]), None, keep=())

    def test_density_matrix_input(self):
        both = tensor(coherent(0.4, 12), vacuum([5]))
        rho_full = both.density_matrix()
        rho = partial_trace(rho_full, (12, 5), keep=(0,))
        assert np.abs(rho - coherent(0.4, 12).density_matrix()).max() < 1e-12

    def test_round_trip_with_tensor(self):
        psi, phi = coherent(0.3, 10), coherent(0.9, 16)
        rho = partial_trace(tensor(psi, phi), None, keep=(0,))
        assert np.abs(rho - psi.density_matrix()).max() < 1e-10


class TestScalarDiagnostics:
    def test_self_fidelity(self):
        v = coherent(0.8, 20)
        assert fidelity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        assert fidelity(number_state([0], [5]), number_state([1], [5])) == 0.0

    def test_x_expectation_coherent(self):
        c = coherent(0.7, 25)
        assert expectation(quadrature_x(25), c).real == pytest.approx(
            math.sqrt(2) * 0.7, rel=1e-8
        )

    def test_expectation_normalizes(self):
        c = coherent(0.5, 20)
        scaled = FockState(2.0 * c.amplitudes, c.cutoffs, normalized=False)
        assert expectation(quadrature_x(20), scaled) == pytest.approx(
            expectation(quadrature_x(20), c)
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            fidelity(vacuum([4]), vacuum([5]))

    def test_state_fidelity_pure_matches(self):
        a, b = coherent(0.4, 15), coherent(0.6, 15)
        f_dm = state_fidelity(a.density_matrix(), b.density_matrix())
        assert f_dm == pytest.approx(fidelity(a, b), abs=1e-6)

    def test_state_fidelity_pure_is_overlap(self):
        # rank-one inputs: (Tr√(√ρ σ √ρ))² must equal |⟨a|b⟩|²
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(2, 12)) + 1j * rng.normal(size=(2, 12))
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        f_dm = state_fidelity(np.outer(a, a.conj()), np.outer(b, b.conj()))
        assert abs(f_dm - abs(np.vdot(a, b)) ** 2) <= 1e-12


class TestDominantPureComponent:
    def test_product_state_exact(self):
        both = tensor(coherent(0.5, 8), coherent(0.1, 6))
        lead, purity = dominant_pure_component(both, keep=(0,))
        assert purity == pytest.approx(1.0, abs=1e-12)
        assert fidelity(lead, coherent(0.5, 8)) == pytest.approx(1.0, abs=1e-10)


class TestInvariantsAndValidation:
    def test_nan_rejected(self):
        amp = np.array([np.nan, 0.0], dtype=complex)
        with pytest.raises(ValueError):
            FockState(amp, (2,), normalized=False)

    def test_normalized_flag_checked(self):
        with pytest.raises(ValueError):
            FockState(np.array([2.0, 0.0], dtype=complex), (2,), normalized=True)

    def test_operator_shape_checked(self):
        with pytest.raises(DimensionError):
            FockOperator(np.eye(3, dtype=complex), (2,))

    def test_amplitudes_immutable(self):
        v = vacuum([4])
        with pytest.raises(ValueError):
            v.amplitudes[0] = 0.0

    @pytest.mark.parametrize("cutoff", [16, 24, 40])
    def test_unitary_hint_interior(self, cutoff):
        from cubicphase.gaussian import displacement_gate

        g = displacement_gate(0.8, cutoff)
        dev = g.matrix.conj().T @ g.matrix - np.eye(cutoff)
        assert interior_max_norm(dev, (cutoff,), 2) < 1e-8

    def test_tensor_overflow_guard(self):
        with pytest.raises(DimensionError):
            tensor(identity([700]), identity([700]))

    def test_apply_duplicate_mode_rejected(self):
        two = vacuum([4, 4])
        op = tensor(quadrature_x(4), quadrature_x(4))
        with pytest.raises(DimensionError):
            apply(op, two, modes=(0, 0))

    def test_apply_cutoff_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            apply(quadrature_x(5), vacuum([4, 6]), modes=(0,))
