"""Cubic-gate decomposition coefficients and operator-identity verifiers.

The target unitary is e^{iγx̂³}.  Its N-step approximant factorizes as

    U_N(γ) = (1 + i(γ/N)x̂³)^N,
    1 + i(γ/N)x̂³ = Π_l (1 + γ_l x̂),   γ_l = e^{iπ(4l+1)/6} (γ/N)^{1/3},

because the three γ_l sum to zero pairwise-products-to-zero and multiply to
i γ/N.  The identity reports are polynomials of the *truncated* real x̂ and
P = ip̂ matrices, fitted on the interior block that excludes the top Fock
levels, where truncation corrupts p̂² and high powers of x̂.  The dense U_N,
e^{iγx̂³} and factor matrices are test oracles in ``cubicphase.reference``.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError
from .hilbert import quadrature_coefficients


@dataclass(frozen=True)
class CubicDecomposition:
    """Strength γ, step count N, and the three linear factor coefficients."""

    gamma: float
    n: int
    gamma_l: tuple[complex, complex, complex]


@lru_cache(maxsize=64)
def gamma_factors(gamma: float, n: int) -> CubicDecomposition:
    """Factor coefficients γ_l = e^{iπ(4l+1)/6}(γ/N)^{1/3} for l = 0, 1, 2."""
    gamma = float(gamma)
    n = int(n)
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if n < 1:
        raise ValueError(f"N must be a positive integer, got {n}")
    mag = (gamma / n) ** (1.0 / 3.0)
    gl = tuple(mag * cmath.exp(1j * math.pi * (4 * l + 1) / 6.0) for l in range(3))
    return CubicDecomposition(gamma, n, gl)


@dataclass(frozen=True)
class IdentityReport:
    """Best-fit proportionality between a target operator, phase·real_lhs, and a
    nested-commutator construction, phase·real_rhs, with the interior residual
    after removing the fitted part; the complex matrices are formed when read."""

    name: str
    cutoff: int
    margin: int
    fitted_constant: float
    residual: float
    real_lhs: np.ndarray
    real_rhs: np.ndarray
    phase: complex

    lhs_matrix = property(lambda self: self.phase * self.real_lhs)
    rhs_matrix = property(lambda self: self.phase * self.real_rhs)


def power_table(m: np.ndarray, k: int) -> list[np.ndarray]:
    """[I, m, m², …, m^k] by repeated matmul."""
    table = [np.eye(len(m), dtype=m.dtype), m]
    for _ in range(k - 1):
        table.append(table[-1] @ m)
    return table


def _real_quadratures(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """x̂ and P = (â − â†)/√2 as real matrices; p̂ = −iP."""
    up = np.diag(quadrature_coefficients(cutoff), 1)  # â/√2
    return up + up.T, up - up.T


def _comm(u, v, parity: int):
    """[u, v] by one product: vu = parity·(uv)ᵀ when uᵀ = ±u, vᵀ = ±v (signs' product)."""
    uv = u @ v
    return uv - parity * uv.T


def _fit_report(name, lhs, rhs, cutoff, margin, phase: complex = 1.0) -> IdentityReport:
    """Fit rhs ≈ c·lhs on real matrices that equal the operators up to the
    common unit factor ``phase``, which the fit does not see."""
    keep = int(cutoff) - int(margin)  # the interior block: the top ``margin`` levels go
    if keep < 1:
        raise DimensionError(f"margin {margin} leaves no interior block")
    lb, rb = lhs[:keep, :keep], rhs[:keep, :keep]
    c = float(np.vdot(lb, rb) / np.vdot(lb, lb))
    residual = float(np.abs(rb - c * lb).max())
    return IdentityReport(name, int(cutoff), int(margin), c, residual, lhs, rhs, complex(phase))


def _monomial_report(m: int, cutoff: int, margin, xs, x3_p2) -> IdentityReport:
    """The monomial fit from the x̂ table ``xs`` and x3_p2 = [x̂³, p̂²] = −[x̂³, P²]."""
    if margin is None:
        margin = max(5, m + 2)
    rhs = (-2.0 / (3.0 * (m - 1))) * _comm(xs[m - 1], x3_p2, -1)
    return _fit_report(f"monomial_m{m}", xs[m], rhs, cutoff, margin)


def _polynomial_report(m: int, n: int, cutoff: int, margin, xs, ps) -> IdentityReport:
    """The polynomial fit from the x̂ table ``xs`` and the P table ``ps``."""
    if margin is None:
        margin = max(5, m + n + 3)
    lhs = xs[m] @ ps[n]  # x̂^k is symmetric and P^k has transpose parity (−1)^k
    lhs = lhs + (-1) ** n * lhs.T
    # −4i·(−i)^{n+1} = −4·(−i)ⁿ
    rhs = (-4.0 / ((n + 1) * (m + 1))) * _comm(xs[m + 1], ps[n + 1], (-1) ** (n + 1))
    for k in range(1, n):  # [x̂^m, P^k] has parity (−1)^{k+1}
        inner = _comm(xs[m], ps[k], (-1) ** k)
        rhs = rhs - (1.0 / (n + 1)) * _comm(ps[n - k], inner, (-1) ** (n + 1))
    return _fit_report(f"polynomial_m{m}_n{n}", lhs, rhs, cutoff, margin, phase=(-1j) ** n)


def monomial_identity_report(m: int, cutoff: int, margin: int | None = None) -> IdentityReport:
    """Fit c in c·x̂^m ≈ (−2/(3(m−1)))·[x̂^{m−1}, [x̂³, p̂²]].

    The constant is reported, not asserted: under this package's [x̂,p̂] = i
    convention the construction evaluates to 4·x̂^m.  Computed in real
    arithmetic: p̂² = −P².
    """
    m = int(m)
    if m < 4:
        raise ValueError("monomial identity requires m >= 4")
    x, P = _real_quadratures(cutoff)
    xs = power_table(x, m)
    return _monomial_report(m, cutoff, margin, xs, _comm(P @ P, xs[3], 1))


def polynomial_identity_report(m: int, n: int, cutoff: int,
                               margin: int | None = None) -> IdentityReport:
    """Fit c in c·(x̂^m p̂^n + p̂^n x̂^m) ≈ the commutator construction

        (−4i/((n+1)(m+1)))[x̂^{m+1}, p̂^{n+1}]
            − (1/(n+1)) Σ_{k=1}^{n−1} [p̂^{n−k}, [x̂^m, p̂^k]].

    Evaluates to 2·LHS under this convention for the small (m, n) exercised
    here; for n ≥ 2 with m ≥ 2 the construction additionally carries a scalar
    (identity) remainder which inflates the reported residual.

    Computed in real arithmetic: with p̂ = −iP every term of both sides
    carries the factor (−i)ⁿ, which the fit does not see.
    """
    m, n = int(m), int(n)
    if m < 1 or n < 1:
        raise ValueError("polynomial identity requires m, n >= 1")
    x, P = _real_quadratures(cutoff)
    return _polynomial_report(m, n, cutoff, margin, power_table(x, m + 1), power_table(P, n + 1))


@lru_cache(maxsize=1)  # one cutoff's tables: at cutoff 3000 they hold about 0.8 GB
def _identity_tables(cutoff: int) -> tuple:
    """The x̂⁰…x̂⁶ and P⁰…P³ tables and [x̂³, P²] of ``identity_reports``, read-only:
    built once per cutoff, so a run frees little of what it allocates."""
    x, P = _real_quadratures(cutoff)
    xs, ps = tuple(power_table(x, 6)), tuple(power_table(P, 3))
    x3_p2 = _comm(ps[2], xs[3], 1)
    for m in (*xs, *ps, x3_p2):
        m.flags.writeable = False
    return xs, ps, x3_p2


def identity_reports(cutoff: int) -> tuple:
    """An iterator over the monomial reports m = 4, 5 and the polynomial ones (m, n) =
    (1, 1), (2, 1), (1, 2), and the one table x̂⁰…x̂⁶ they share with one P⁰…P³.  The
    reports are made as the iterator is read, so one report's matrices are held at a time."""
    xs, ps, x3_p2 = _identity_tables(int(cutoff))
    reports = itertools.chain(
        (_monomial_report(m, cutoff, None, xs, x3_p2) for m in (4, 5)),
        (_polynomial_report(m, n, cutoff, None, xs, ps) for m, n in ((1, 1), (2, 1), (1, 2))))
    return reports, xs
