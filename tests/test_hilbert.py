import cmath
import math
import re

import numpy as np
import pytest
from scipy import stats

from cubicphase import analysis
from cubicphase.errors import CutoffError, DimensionError
from cubicphase.gaussian import x_eigh
from cubicphase.hilbert import (
    COHERENT_LOSS_TOL,
    FockState,
    coherent,
    coherent_columns,
    quadrature_coefficients,
    real_matmul,
)
from cubicphase.reference import (
    FockOperator,
    annihilation,
    apply,
    coherent_truncation_loss,
    density_matrix,
    expectation,
    fidelity,
    identity,
    interior_block,
    interior_mask,
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
        assert np.linalg.norm(vacuum([30]).amplitudes) == pytest.approx(1.0, abs=1e-14)

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

    @pytest.mark.parametrize("magnitude", [0.5, 2.0, 4.0, 6.0])
    def test_truncation_loss_matches_exact_tail(self, magnitude):
        # the regularized lower incomplete gamma P(c, λ) is the Poisson(λ)
        # tail at n ≥ c, here at 40 digits
        mpmath = pytest.importorskip("mpmath")
        alpha = magnitude * cmath.exp(0.7j)
        with mpmath.workdps(40):
            for cutoff in range(10, 41):
                exact = mpmath.gammainc(cutoff, 0, mpmath.mpf(magnitude) ** 2, regularized=True)
                got = coherent_truncation_loss(alpha, cutoff)
                assert abs((got - exact) / exact) <= 1e-12, f"cutoff {cutoff}"

    def test_loss_monotone_in_cutoff(self):
        losses = [coherent_truncation_loss(2.0, c) for c in range(6, 40, 2)]
        assert all(a >= b for a, b in zip(losses, losses[1:]))

    def test_cutoff_too_small_raises(self):
        with pytest.raises(CutoffError):
            coherent(3.0, 10)

    @pytest.mark.parametrize("alpha", [1e200, -1e200j, 1e160 + 1e160j, math.nan])
    def test_any_size_beyond_cutoff_raises(self, alpha):
        # |α|² overflows the float range or is not a number: the state is
        # refused like any other the cutoff cannot hold
        with pytest.raises(CutoffError):
            coherent(alpha, 30)
        with pytest.raises(CutoffError):
            coherent(alpha, 30, max_loss=1.0)
        assert coherent_truncation_loss(alpha, 30) == 1.0

    @pytest.mark.parametrize("alpha,cutoff", [(0.3, 30), (1.5 - 0.7j, 40), (3.0, 120)])
    def test_matches_loop_recurrence(self, alpha, cutoff):
        ref = np.zeros(cutoff, dtype=complex)
        ref[0] = math.exp(-abs(alpha) ** 2 / 2.0)
        for n in range(1, cutoff):
            ref[n] = ref[n - 1] * alpha / math.sqrt(n)
        ref /= np.linalg.norm(ref)
        dev = np.abs(coherent(alpha, cutoff).amplitudes - ref)
        assert dev.max() <= 1e-15  # relative to the unit norm
        # level n is a product of n + 1 rounded factors in either route
        assert np.all(dev <= (np.arange(cutoff) + 2) * np.finfo(float).eps * np.abs(ref))

    @pytest.mark.parametrize("alpha,cutoff", [
        (1.0, 20), (0.6, 8), (2.0, 10), (3.0, 10), (1.5 - 0.7j, 12), (0.4 + 0.25j, 120),
        (4.0, 25), (6.0, 50),
    ])
    def test_loss_matches_poisson_tail(self, alpha, cutoff):
        # coherent takes its truncation loss from its own amplitudes; it must
        # lie within 1e-15 of the Poisson tail, so a tolerance 1e-15 above that
        # tail passes and one 1e-15 below it raises.  coherent_truncation_loss
        # sums in log space and is itself 2.6e-15 off at |α| = 4, so it serves
        # as a second reference up to |α| = 3 only
        tails = [stats.poisson.sf(cutoff - 1, abs(alpha) ** 2)]
        if abs(alpha) <= 3.0:
            tails.append(coherent_truncation_loss(alpha, cutoff))
        for tail in tails:
            coherent(alpha, cutoff, max_loss=tail + 1e-15)
            with pytest.raises(CutoffError):
                coherent(alpha, cutoff, max_loss=tail - 1e-15)

    @pytest.mark.parametrize("alpha,cutoff", [
        (-0.3, 6), (0.0, 10), (0.1, 6), (0.2, 6), (0.3, 10), (0.4, 12), (0.4, 15), (0.4, 30),
        (0.5, 8), (0.5, 20), (0.6, 8), (0.6, 15), (0.7, 25), (0.8, 20), (0.9, 16), (1.0, 20),
        (1.5, 30), (3.0, 10), (0.3, 30), (1.5 - 0.7j, 40), (3.0, 120),
    ])
    def test_cutoff_error_boundary_matches_poisson_tail(self, alpha, cutoff):
        # the (α, cutoff) pairs the other tests in this file build
        try:
            coherent(alpha, cutoff)
            raised = False
        except CutoffError:
            raised = True
        assert raised == (coherent_truncation_loss(alpha, cutoff) >= COHERENT_LOSS_TOL)

    @pytest.mark.parametrize("cutoff", [30, 120])
    @pytest.mark.parametrize("alphas", [
        [0.3, 1.5, 0.0, -2.0],
        [0.4 + 0.25j, 1.5 - 0.7j, -0.2 + 0.25j, 0.25j],
    ], ids=["real", "complex"])
    def test_columns_are_coherent_states(self, alphas, cutoff):
        cols = coherent_columns(alphas, cutoff)
        assert cols.shape == (cutoff, len(alphas))
        for alpha, col in zip(alphas, cols.T):
            assert np.array_equal(col, coherent(alpha, cutoff).amplitudes)

    @pytest.mark.parametrize("cutoff", [30, 120])
    def test_column_beyond_its_cutoff_raises_as_coherent(self, cutoff):
        alpha = complex(math.sqrt(cutoff), 1.0)  # mean photon number cutoff + 1
        with pytest.raises(CutoffError) as single:
            coherent(alpha, cutoff)
        with pytest.raises(CutoffError, match=re.escape(str(single.value))):
            coherent_columns([0.3 + 0.25j, alpha, 0.2j], cutoff)

    def test_mean_photon_number(self):
        from cubicphase.reference import number_op

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


# the Fock axis is the first of a vector and the second-to-last otherwise
QUADRATURE_SHAPES = {"vector": lambda c: (c,), "matrix": lambda c: (c, 4),
                     "stack": lambda c: (5, c, 7)}


class TestEigenbasisQuadratures:
    @pytest.mark.parametrize("shape", list(QUADRATURE_SHAPES))
    @pytest.mark.parametrize("cutoff", [2, 3, 8, 30, 120])
    def test_matches_dense_operators(self, cutoff, shape):
        # x̂ = V·diag(λ)·Vᵀ and P = ip̂ = V·A·Vᵀ, as the dense analyses apply them
        rng = np.random.default_rng(cutoff)
        dims = QUADRATURE_SHAPES[shape](cutoff)
        a = rng.normal(size=dims) + 1j * rng.normal(size=dims)
        w, v = x_eigh(cutoff)
        labels = real_matmul(v.T, a)
        lam = w if a.ndim == 1 else w[:, None]
        for got, dense in (
                (real_matmul(v, lam * labels), quadrature_x(cutoff).matrix),
                (-1j * real_matmul(v, real_matmul(analysis._momentum_labels(cutoff), labels)),
                 quadrature_p(cutoff).matrix)):
            assert got.shape == dims
            # the eigenbasis round trip against the banded product: 1e-13 of the
            # largest Σ|X||a| (8.3e-15 at cutoff 120)
            scale = (np.abs(dense) @ np.abs(a)).max()
            assert np.abs(got - dense @ a).max() <= 1e-13 * scale

    def test_coefficients_are_the_dense_entries(self):
        # the coefficients are formed as quadrature_x forms its entries
        for cutoff in (2, 3, 8, 30, 120):
            s = quadrature_coefficients(cutoff)
            assert np.array_equal(s, np.diag(quadrature_x(cutoff).matrix.real, 1))
            assert np.array_equal(s, np.diag((1j * quadrature_p(cutoff).matrix).real, 1))


class TestRealMatmul:
    @pytest.mark.parametrize("shape", list(QUADRATURE_SHAPES) + ["transposed"])
    @pytest.mark.parametrize("cutoff", [8, 40, 120])
    def test_matches_complex_product(self, cutoff, shape):
        rng = np.random.default_rng(cutoff)
        dims = QUADRATURE_SHAPES[shape](cutoff) if shape != "transposed" else (7, cutoff)
        z = rng.normal(size=dims) + 1j * rng.normal(size=dims)
        if shape == "transposed":
            z = z.T  # not contiguous
        v = x_eigh(cutoff)[1]
        for m in (v, v.T):
            got, want = real_matmul(m, z), m.astype(complex) @ z
            assert got.shape == want.shape
            # the two sum in different orders: 4 ulps of the largest Σ|m||z|
            scale = (np.abs(m) @ np.abs(z)).max()
            assert np.abs(got - want).max() <= 4 * np.spacing(scale)

    def test_nan_propagates(self):
        z = np.ones((40, 3), dtype=complex)
        z[5, 1] = complex(math.nan, 0.0)
        z[7, 2] = complex(0.0, math.nan)
        got = real_matmul(x_eigh(40)[1], z)
        assert np.isfinite(got[:, 0]).all()
        assert np.isnan(got[:, 1].real).all() and np.isnan(got[:, 2].imag).all()


class TestInteriorBlock:
    def test_single_mode_matches_mask_route(self):
        c = 12
        m = np.arange(c * c, dtype=float).reshape(c, c)
        for margin in range(-2, c):
            mask = interior_mask((c,), margin)
            assert np.array_equal(interior_block(m, (c,), margin), m[np.ix_(mask, mask)])
            assert np.array_equal(interior_block(m, c, margin), m[np.ix_(mask, mask)])
        for margin in (c, c + 3):
            with pytest.raises(DimensionError):
                interior_block(m, (c,), margin)

    def test_two_modes_keep_every_low_pair(self):
        m = np.arange(36.0).reshape(6, 6)
        block = interior_block(m, (3, 2), 1)
        assert np.array_equal(block, m[np.ix_([0, 2], [0, 2])])


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
        from cubicphase.reference import displacement_gate

        d = displacement_gate(0.7, 30)
        out = apply(d, coherent(0.4, 30))
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-8


class TestPartialTrace:
    def test_product_state_factorizes(self):
        psi = coherent(0.6, 8)
        phi = coherent(-0.3, 6)
        both = tensor(psi, phi)
        rho = partial_trace(both, None, keep=(0,))
        expected = density_matrix(psi)
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
        rho_full = density_matrix(both)
        rho = partial_trace(rho_full, (12, 5), keep=(0,))
        assert np.abs(rho - density_matrix(coherent(0.4, 12))).max() < 1e-12

    def test_round_trip_with_tensor(self):
        psi, phi = coherent(0.3, 10), coherent(0.9, 16)
        rho = partial_trace(tensor(psi, phi), None, keep=(0,))
        assert np.abs(rho - density_matrix(psi)).max() < 1e-10


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
        f_dm = state_fidelity(density_matrix(a), density_matrix(b))
        assert f_dm == pytest.approx(fidelity(a, b), abs=1e-6)

    def test_state_fidelity_pure_is_overlap(self):
        # rank-one inputs: (Tr√(√ρ σ √ρ))² must equal |⟨a|b⟩|²
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(2, 12)) + 1j * rng.normal(size=(2, 12))
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        f_dm = state_fidelity(np.outer(a, a.conj()), np.outer(b, b.conj()))
        assert abs(f_dm - abs(np.vdot(a, b)) ** 2) <= 1e-12


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
        from cubicphase.reference import displacement_gate

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
