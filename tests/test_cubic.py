import cmath
import math

import numpy as np
import pytest

from cubicphase import cubic
from cubicphase.cubic import (
    CubicDecomposition,
    _identity_bands,
    factor_coefficients,
    gamma_factors,
    identity_rows,
)
from cubicphase.errors import DimensionError
from cubicphase.reference import (
    _real_quadratures,
    factor_operator,
    ideal_cubic_gate,
    interior_block,
    interior_max_norm,
    monomial_identity_report,
    polynomial_identity_report,
    quadrature_p,
    quadrature_x,
    u_n_convergence_norms,
    u_n_operator,
)


class TestGammaFactors:
    def test_magnitude_and_phase(self):
        dec = gamma_factors(0.03, 1)
        assert abs(dec.gamma_l[0]) == pytest.approx(0.03 ** (1 / 3), rel=1e-12)
        assert cmath.phase(dec.gamma_l[0]) == pytest.approx(math.pi / 6, abs=1e-12)

    def test_sum_vanishes(self):
        dec = gamma_factors(0.1, 3)
        assert abs(sum(dec.gamma_l)) < 1e-12

    def test_pair_products_vanish(self):
        g = gamma_factors(0.05, 2).gamma_l
        s2 = g[0] * g[1] + g[0] * g[2] + g[1] * g[2]
        assert abs(s2) < 1e-12

    def test_product_is_i_gamma_over_n(self):
        for gamma, n in [(0.03, 1), (0.1, 7)]:
            g = gamma_factors(gamma, n).gamma_l
            assert abs(g[0] * g[1] * g[2] - 1j * gamma / n) < 1e-12

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            gamma_factors(-0.03, 1)
        with pytest.raises(ValueError):
            gamma_factors(0.03, 0)


class TestFactorCoefficients:
    @pytest.mark.parametrize("shift", [0.0, 1e-3])
    @pytest.mark.parametrize("gamma, n", [(0.03, 1), (1.0, 3)])
    def test_coefficient_residual_is_the_matrix_residual(self, gamma, n, shift):
        # Π_l (I + γ_l x̂) is the polynomial Σ e_k x̂^k of the truncated x̂, so the
        # coefficient residual e_k − t_k, summed against x̂^k, is the dense one at
        # cutoff 40; a shifted γ₀ makes both nonzero
        cutoff, g = 40, gamma / n
        dec = gamma_factors(gamma, n)
        dec = CubicDecomposition(gamma, n, (dec.gamma_l[0] + shift, *dec.gamma_l[1:]))
        x = quadrature_x(cutoff).matrix
        xk = [np.linalg.matrix_power(x, k) for k in range(4)]
        got = sum(d * m for d, m in zip(factor_coefficients(dec) - (1, 0, 0, 1j * g), xk))
        f0, f1, f2 = (factor_operator(gl, cutoff).matrix for gl in dec.gamma_l)
        want = f0 @ f1 @ f2 - (xk[0] + 1j * g * xk[3])
        assert np.abs(got - want).max() <= 1e-12
        assert (np.abs(want).max() > 1e-6) == (shift > 0)


class TestFactorOperator:
    def test_zero_is_identity(self):
        assert np.array_equal(factor_operator(0.0, 8).matrix, np.eye(8))

    @pytest.mark.parametrize("gamma,n", [(0.03, 1), (0.03, 7), (0.1, 3)])
    def test_factorization_identity(self, gamma, n):
        c = 40
        dec = gamma_factors(gamma, n)
        prod = np.eye(c, dtype=complex)
        for gl in dec.gamma_l:
            prod = prod @ factor_operator(gl, c).matrix
        x3 = np.linalg.matrix_power(quadrature_x(c).matrix, 3)
        target = np.eye(c) + 1j * (gamma / n) * x3
        assert interior_max_norm(prod - target, (c,), 2) < 1e-10

    @pytest.mark.parametrize("gamma,n", [(0.03, 1), (0.1, 3)])
    def test_norm_identity(self, gamma, n):
        c = 40
        dec = gamma_factors(gamma, n)
        prod = np.eye(c, dtype=complex)
        for gl in dec.gamma_l:
            prod = prod @ factor_operator(gl, c).matrix
        x6 = np.linalg.matrix_power(quadrature_x(c).matrix, 6)
        lhs = prod.conj().T @ prod
        rhs = np.eye(c) + (gamma / n) ** 2 * x6
        assert interior_max_norm(lhs - rhs, (c,), 2) < 1e-8


class TestUnOperator:
    def test_convergence_monotone(self):
        norms = u_n_convergence_norms(0.03, (1, 2, 4, 8, 16), 40)
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_convergence_slope(self):
        ns = (1, 2, 4, 8, 16)
        norms = u_n_convergence_norms(0.03, ns, 40)
        slope = np.polyfit(np.log(ns), np.log(norms), 1)[0]
        assert -1.2 < slope < -0.8

    def test_commutes_with_x(self):
        c = 30
        un = u_n_operator(0.03, 2, c).matrix
        x = quadrature_x(c).matrix
        assert np.abs(un @ x - x @ un).max() < 1e-10

    def test_scalar_eigenvalue_check(self):
        # at x = 1: |(1 + 0.03i) − e^{0.03i}| ≈ 4.5e−4
        diff = abs((1 + 0.03j) - cmath.exp(0.03j))
        assert diff == pytest.approx(4.4996e-4, rel=1e-3)


class TestIdealCubicGate:
    def test_zero_strength_identity(self):
        assert np.abs(ideal_cubic_gate(0.0, 12).matrix - np.eye(12)).max() < 1e-12

    def test_unitary_interior(self):
        g = ideal_cubic_gate(0.03, 40).matrix
        assert interior_max_norm(g.conj().T @ g - np.eye(40), (40,), 8) < 1e-8

    def test_commutes_with_x(self):
        g = ideal_cubic_gate(0.03, 30).matrix
        x = quadrature_x(30).matrix
        assert interior_max_norm(g @ x - x @ g, (30,), 5) < 1e-10


def complex_route(name, cutoff, margin):
    """The reports' constructions in complex Fock matrices, p̂ = (â − â†)/(i√2):
    (lhs and rhs interior blocks, fitted constant, relative residual)."""
    x, p = quadrature_x(cutoff).matrix, quadrature_p(cutoff).matrix
    mp = np.linalg.matrix_power

    def comm(u, v):
        return u @ v - v @ u

    if name[0] == "monomial":
        m = name[1]
        lhs = mp(x, m)
        rhs = (-2.0 / (3.0 * (m - 1))) * comm(mp(x, m - 1), comm(mp(x, 3), mp(p, 2)))
    else:
        m, n = name[1:]
        lhs = mp(x, m) @ mp(p, n) + mp(p, n) @ mp(x, m)
        rhs = (-4j / ((n + 1) * (m + 1))) * comm(mp(x, m + 1), mp(p, n + 1))
        for k in range(1, n):
            rhs = rhs - (1.0 / (n + 1)) * comm(mp(p, n - k), comm(mp(x, m), mp(p, k)))
    lb = interior_block(lhs, (cutoff,), margin)
    rb = interior_block(rhs, (cutoff,), margin)
    c = float((np.vdot(lb, rb) / np.vdot(lb, lb)).real)
    return lb, rb, c, float(np.abs(rb - c * lb).max() / np.abs(rb).max())


class TestRealArithmeticReports:
    # the reports run on real x̂ and P = i p̂; the complex route is the reference
    def test_real_quadratures_are_the_dense_entries(self):
        # the dense oracle's and the banded route's x̂ and P, entry for entry
        x, P = quadrature_x(40).matrix.real, (1j * quadrature_p(40).matrix).real
        assert all(map(np.array_equal, _real_quadratures(40), (x, P)))
        assert all(np.array_equal(dense(band, 40), m)
                   for band, m in zip(cubic._quadrature_bands(40), (x, P)))

    @pytest.mark.parametrize("cutoff", [24, 40, 80])
    @pytest.mark.parametrize(
        "name", [("monomial", 4), ("monomial", 5), ("polynomial", 1, 1),
                 ("polynomial", 2, 1), ("polynomial", 1, 2)])
    def test_matches_complex_route(self, name, cutoff):
        if name[0] == "monomial":
            rep = monomial_identity_report(name[1], cutoff)
        else:
            rep = polynomial_identity_report(*name[1:], cutoff)
        lhs, rhs, c, residual = complex_route(name, cutoff, rep.margin)
        assert abs(rep.fitted_constant - c) < 1e-12
        assert np.abs(rep.phase * rep.real_lhs - lhs).max() < 1e-12 * np.abs(lhs).max()
        assert np.abs(rep.phase * rep.real_rhs - rhs).max() < 1e-12 * np.abs(rhs).max()
        assert rep.residual < 1e-12 and residual < 1e-12

    @pytest.mark.parametrize("report", [lambda: monomial_identity_report(4, 24, margin=24),
                                        lambda: polynomial_identity_report(1, 2, 24, margin=30)])
    def test_margin_leaving_no_interior_block(self, report):
        with pytest.raises(DimensionError, match="leaves no interior block"):
            report()


def dense(band: np.ndarray, keep: int) -> np.ndarray:
    """The top-left keep×keep block of the operator whose diagonals ``band``
    holds, row h + d with entry (i, i + d) at column i."""
    h, out = len(band) // 2, np.zeros((keep, keep))
    for d in range(-h, h + 1):
        i = np.arange(max(0, -d), min(keep, keep - d))
        out[i, i + d] = band[h + d, i]
    return out


class TestBandedRoute:
    # check-identities' banded fits against the dense oracle reports
    @pytest.mark.parametrize("cutoff", [24, 30, 80, 200])
    def test_matches_dense_oracle(self, cutoff):
        # the rhs cancels products ~n² times its size: at cutoff 200 the dense and
        # banded monomial rhs each differ from an extended-precision one by ~2e-12
        tol = 1e-12 if cutoff <= 80 else 1e-11
        want = [monomial_identity_report(m, cutoff) for m in (4, 5)]
        want += [polynomial_identity_report(m, n, cutoff) for m, n in ((1, 1), (2, 1), (1, 2))]
        rows = identity_rows(cutoff)
        for (name, keep, lhs, rhs), (row_name, c, residual), ref in zip(
                _identity_bands(cutoff), rows, want, strict=True):
            assert name == row_name == ref.name and keep == cutoff - ref.margin
            for band, block in ((lhs, ref.real_lhs), (rhs, ref.real_rhs)):
                h = len(band) // 2
                assert np.abs(dense(band, keep) - block).max() <= tol * np.abs(block).max()
                off = np.abs(np.subtract.outer(np.arange(keep), np.arange(keep))) > h
                assert np.all(block[off] == 0.0)  # the band holds every nonzero entry
            assert abs(c - ref.fitted_constant) <= 1e-13
            assert residual <= tol and ref.residual <= tol

    @pytest.mark.parametrize("ha, hb", [(1, 1), (1, 3), (3, 1), (2, 5)])
    def test_product_and_transpose(self, ha, hb):
        rng = np.random.default_rng(ha * 10 + hb)
        n = 12
        a, b = (np.triu(np.tril(rng.normal(size=(n, n)), h), -h) for h in (ha, hb))

        def band(m, h):
            return np.array([np.pad(np.diagonal(m, d), (max(0, -d), max(0, d)))
                             for d in range(-h, h + 1)])

        ab = cubic._product(band(a, ha), band(b, hb))
        assert ab.shape == (2 * (ha + hb) + 1, n)
        assert np.abs(dense(ab, n) - a @ b).max() <= 1e-14 * np.abs(a @ b).max()
        assert np.array_equal(dense(cubic._transpose(band(a, ha)), n), a.T)


class TestMonomialIdentity:
    def test_m4_proportional(self):
        rep = monomial_identity_report(4, 40)
        assert rep.residual < 1e-12
        assert rep.fitted_constant == pytest.approx(4.0, abs=1e-9)

    def test_constant_cutoff_stable(self):
        c40 = monomial_identity_report(4, 40).fitted_constant
        c60 = monomial_identity_report(4, 60).fitted_constant
        assert abs(c40 - c60) < 1e-6

    def test_rhs_hermitian(self):
        rep = monomial_identity_report(4, 40)
        dev = rep.phase * rep.real_rhs - (rep.phase * rep.real_rhs).conj().T
        assert interior_max_norm(dev, (40,), rep.margin) < 1e-8

    def test_m5(self):
        rep = monomial_identity_report(5, 40)
        assert rep.residual < 1e-12
        assert rep.fitted_constant == pytest.approx(4.0, abs=1e-8)

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            monomial_identity_report(3, 30)


class TestPolynomialIdentity:
    def test_m1_n1(self):
        rep = polynomial_identity_report(1, 1, 40)
        assert rep.residual < 1e-12
        assert rep.fitted_constant == pytest.approx(2.0, abs=1e-10)

    def test_lhs_hermitian(self):
        rep = polynomial_identity_report(1, 1, 30)
        assert np.abs(rep.phase * rep.real_lhs - (rep.phase * rep.real_lhs).conj().T).max() < 1e-10

    def test_m2_n1(self):
        rep = polynomial_identity_report(2, 1, 40)
        assert rep.residual < 1e-12
        assert rep.fitted_constant == pytest.approx(2.0, abs=1e-9)

    def test_m1_n2_sum_term_runs(self):
        rep = polynomial_identity_report(1, 2, 40)
        assert rep.residual < 1e-12

    def test_cutoff_stability(self):
        for m, n in ((1, 1), (2, 1)):
            c40 = polynomial_identity_report(m, n, 40).fitted_constant
            c60 = polynomial_identity_report(m, n, 60).fitted_constant
            assert abs(c40 - c60) < 1e-6
