"""Cubic-gate decomposition coefficients and operator-identity verifiers.

The target unitary is e^{iγx̂³}.  Its N-step approximant factorizes as

    U_N(γ) = (1 + i(γ/N)x̂³)^N,
    1 + i(γ/N)x̂³ = Π_l (1 + γ_l x̂),   γ_l = e^{iπ(4l+1)/6} (γ/N)^{1/3},

because the three γ_l sum to zero pairwise-products-to-zero and multiply to
i γ/N.  These are identities between polynomial coefficients, which
``factor_coefficients`` multiplies out.  The identity reports are polynomials
of the *truncated* real x̂ and P = ip̂ matrices, formed and fitted only on the
interior block that excludes the top Fock levels, where truncation corrupts p̂²
and high powers of x̂.  The dense U_N, e^{iγx̂³} and factor matrices are test
oracles in ``cubicphase.reference``, as are the one-report wrappers
``monomial_identity_report`` and ``polynomial_identity_report``.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

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
    """Factor coefficients γ_l = e^{iπ(4l+1)/6}(γ/N)^{1/3} for l = 0, 1, 2; all
    three are zero at γ = 0."""
    gamma = float(gamma)
    n = int(n)
    if not gamma >= 0.0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    if n < 1:
        raise ValueError(f"N must be a positive integer, got {n}")
    mag = (gamma / n) ** (1.0 / 3.0)
    gl = tuple(mag * cmath.exp(1j * math.pi * (4 * l + 1) / 6.0) for l in range(3))
    return CubicDecomposition(gamma, n, gl)


def factor_coefficients(dec: CubicDecomposition) -> np.ndarray:
    """e₀…e₃ of Π_l (1 + γ_l x) = Σ_k e_k x^k, which equals 1 + i(γ/N)x³ up to rounding."""
    return reduce(np.convolve, ((1.0, gl) for gl in dec.gamma_l))


@dataclass(frozen=True)
class IdentityReport:
    """Best-fit proportionality between a target operator, phase·real_lhs, and a
    nested-commutator construction, phase·real_rhs, with the residual after
    removing the fitted part.  Both hold the interior block, the top-left
    (cutoff − margin)² entries."""

    name: str
    cutoff: int
    margin: int
    fitted_constant: float
    residual: float
    real_lhs: np.ndarray
    real_rhs: np.ndarray
    phase: complex


def power_table(m: np.ndarray, k: int) -> list:
    """[None, m, m², …, m^k] by repeated matmul; no report reads the identity."""
    table = [None, m]
    for _ in range(k - 1):
        table.append(table[-1] @ m)
    return table


def _real_quadratures(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """x̂ and P = (â − â†)/√2 as real matrices; p̂ = −iP."""
    up = np.diag(quadrature_coefficients(cutoff), 1)  # â/√2
    return up + up.T, up - up.T


def _comm(u, v, parity: int, keep: int | None = None):
    """The top-left keep×keep block of [u, v] (all of it by default) by one product
    u[:keep] @ v[:, :keep]: vu = parity·(uv)ᵀ when uᵀ = ±u, vᵀ = ±v (signs' product)."""
    uv = u[:keep] @ v[:, :keep]
    return uv - uv.T if parity == 1 else uv + uv.T


def _interior(cutoff: int, margin: int) -> int:
    """The size of the interior block, which leaves out the top ``margin`` levels."""
    keep = int(cutoff) - int(margin)
    if keep < 1:
        raise DimensionError(f"margin {margin} leaves no interior block")
    return keep


def _fit_report(name, lb, rb, cutoff, margin, phase: complex = 1.0) -> IdentityReport:
    """Fit rb ≈ c·lb on the interior blocks of real matrices that equal the
    operators up to the common unit factor ``phase``, which the fit does not see."""
    c = float(np.vdot(lb, rb) / np.vdot(lb, lb))
    dev = c * lb  # in place from here: each temporary is another k×k block
    dev -= rb
    residual = float(np.abs(dev, out=dev).max())
    return IdentityReport(name, int(cutoff), int(margin), c, residual, lb, rb, complex(phase))


def _monomial_report(m: int, cutoff: int, margin, xs, x3_p2) -> IdentityReport:
    """The monomial fit from the x̂ table ``xs`` and x3_p2 = [x̂³, p̂²] = −[x̂³, P²]."""
    if margin is None:
        margin = max(5, m + 2)
    keep = _interior(cutoff, margin)
    rhs = _comm(xs[m - 1], x3_p2, -1, keep)
    rhs *= -2.0 / (3.0 * (m - 1))
    lhs = xs[m][:keep, :keep].copy()  # contiguous, and not a view that holds the whole table
    return _fit_report(f"monomial_m{m}", lhs, rhs, cutoff, margin)


def _polynomial_report(m: int, n: int, cutoff: int, margin, xs, ps) -> IdentityReport:
    """The polynomial fit from the x̂ table ``xs`` and the P table ``ps``."""
    if margin is None:
        margin = max(5, m + n + 3)
    keep = _interior(cutoff, margin)
    # x̂^k is symmetric and P^k has transpose parity (−1)^k, so the anticommutator
    # {x̂^m, P^n} is the commutator's construction with the opposite sign
    lhs = _comm(xs[m], ps[n], (-1) ** (n + 1), keep)
    rhs = _comm(xs[m + 1], ps[n + 1], (-1) ** (n + 1), keep)
    rhs *= -4.0 / ((n + 1) * (m + 1))  # −4i·(−i)^{n+1} = −4·(−i)ⁿ
    for k in range(1, n):  # [x̂^m, P^k] has parity (−1)^{k+1}; the outer one reads all of it
        inner = _comm(xs[m], ps[k], (-1) ** k)
        outer = _comm(ps[n - k], inner, (-1) ** (n + 1), keep)
        outer *= 1.0 / (n + 1)
        rhs -= outer
    return _fit_report(f"polynomial_m{m}_n{n}", lhs, rhs, cutoff, margin, phase=(-1j) ** n)


@lru_cache(maxsize=1)  # one cutoff's tables: at cutoff 3000 they hold about 0.65 GB
def _identity_tables(cutoff: int) -> tuple:
    """The x̂¹…x̂⁵ and P¹…P³ tables (by power) and [x̂³, P²] of ``identity_reports``,
    read-only: built once per cutoff, so a run frees little of what it allocates."""
    x, P = _real_quadratures(cutoff)
    xs, ps = tuple(power_table(x, 5)), tuple(power_table(P, 3))
    x3_p2 = _comm(ps[2], xs[3], 1)
    for m in (*xs[1:], *ps[1:], x3_p2):
        m.flags.writeable = False
    return xs, ps, x3_p2


def identity_reports(cutoff: int):
    """An iterator over the monomial reports m = 4, 5 and the polynomial ones (m, n) =
    (1, 1), (2, 1), (1, 2), which share one x̂¹…x̂⁵ table and one P¹…P³.  The reports
    are made as the iterator is read, so one report's blocks are held at a time."""
    xs, ps, x3_p2 = _identity_tables(int(cutoff))
    return itertools.chain(
        (_monomial_report(m, cutoff, None, xs, x3_p2) for m in (4, 5)),
        (_polynomial_report(m, n, cutoff, None, xs, ps) for m, n in ((1, 1), (2, 1), (1, 2))))
