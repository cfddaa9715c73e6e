"""Cubic-gate decomposition coefficients and operator-identity verifiers.

The target unitary is e^{iγx̂³}.  Its N-step approximant factorizes as

    U_N(γ) = (1 + i(γ/N)x̂³)^N,
    1 + i(γ/N)x̂³ = Π_l (1 + γ_l x̂),   γ_l = e^{iπ(4l+1)/6} (γ/N)^{1/3},

because the three γ_l sum to zero pairwise-products-to-zero and multiply to
i γ/N.  These are identities between polynomial coefficients, which
``factor_coefficients`` multiplies out.  The identity fits are polynomials of
the *truncated* real x̂ and P = ip̂, band matrices each kept as its diagonals, a
(2b + 1, n) array for half-width b: a product is one slice multiply-add per
diagonal of the narrower operand, so the five fits take O(n) time and memory
and make no BLAS call.  They are fitted on the interior block that excludes the
top Fock levels, where truncation corrupts p̂² and high powers of x̂, and cached
per cutoff.  The dense U_N, e^{iγx̂³} and factor matrices are test oracles in
``cubicphase.reference``, as are the dense identity reports
``monomial_identity_report`` and ``polynomial_identity_report``, the banded
fits' oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

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


def _quadrature_bands(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """x̂ and P = (â − â†)/√2 as diagonals; p̂ = −iP."""
    s = quadrature_coefficients(cutoff)
    up, down = np.append(s, 0.0), np.insert(s, 0, 0.0)
    zero = np.zeros(int(cutoff))
    return np.array((down, zero, up)), np.array((-down, zero, up))


def _padded(d: np.ndarray, w: int) -> np.ndarray:
    """Diagonals d with w zero columns on each side."""
    out = np.zeros((len(d), d.shape[1] + 2 * w))
    out[:, w:w + d.shape[1]] = d
    return out


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a·b of two banded operators by one slice multiply-add per diagonal of the
    narrower one, which goes on the left: ab = (bᵀaᵀ)ᵀ."""
    if len(a) > len(b):
        return _transpose(_product(_transpose(b), _transpose(a)))
    ha, hb, n = len(a) // 2, len(b) // 2, a.shape[1]
    out, bp = np.zeros((2 * (ha + hb) + 1, n)), _padded(b, ha)
    for j in range(2 * ha + 1):  # (i, i + j − ha) of a meets row i + j − ha of b
        out[j:j + 2 * hb + 1] += a[j] * bp[:, j:j + n]
    return out


def _transpose(d: np.ndarray) -> np.ndarray:
    """The diagonals of the transpose: its entry (i, i + k) is the operator's (i + k, i)."""
    h, n = len(d) // 2, d.shape[1]
    dp = _padded(d, h)
    return np.array([dp[2 * h - r, r:r + n] for r in range(2 * h + 1)])


def _comm(u, v, parity: int) -> np.ndarray:
    """[u, v] by one product: vu = parity·(uv)ᵀ when uᵀ = ±u, vᵀ = ±v (signs' product)."""
    uv = _product(u, v)
    return uv - parity * _transpose(uv)


def _fit(lhs, rhs, keep: int) -> tuple[float, float]:
    """(c, max|c·lhs − rhs| / max|rhs|) for the least-squares c of rhs ≈ c·lhs on the
    interior block, rows and columns below ``keep``, where rhs is the wider band."""
    h, hl = len(rhs) // 2, len(lhs) // 2
    lb, rb = blocks = np.zeros((2, 2 * h + 1, keep))
    lb[h - hl:h + hl + 1], rb[:] = lhs[:, :keep], rhs[:, :keep]
    blocks[:, np.arange(-h, h + 1)[:, None] + np.arange(keep) >= keep] = 0.0  # right of the block
    c = float(np.add.reduce(lb * rb, axis=None) / np.add.reduce(lb * lb, axis=None))
    return c, float(np.abs(c * lb - rb).max() / np.abs(rb).max())


def _identity_bands(cutoff: int):
    """(name, keep, lhs, rhs) of each fit, banded over the whole cutoff; the fit
    reads the interior block keep = cutoff − margin, which leaves out the top
    levels, where truncation corrupts p̂² and high powers of x̂."""
    x, P = _quadrature_bands(cutoff)
    xs, ps = [None, x], [None, P, _product(P, P)]
    for _ in range(4):
        xs.append(_product(x, xs[-1]))
    ps.append(_product(P, ps[2]))
    x3_p2 = _comm(ps[2], xs[3], 1)  # [P², x̂³] = [x̂³, p̂²]
    for m in (4, 5):
        rhs = _comm(xs[m - 1], x3_p2, -1) * (-2.0 / (3.0 * (m - 1)))
        yield f"monomial_m{m}", cutoff - max(5, m + 2), xs[m], rhs
    for m, n in ((1, 1), (2, 1), (1, 2)):
        # x̂^k is symmetric and P^k has transpose parity (−1)^k, so the anticommutator
        # {x̂^m, P^n} is the commutator's construction with the opposite sign
        lhs = _comm(xs[m], ps[n], (-1) ** (n + 1))
        rhs = _comm(xs[m + 1], ps[n + 1], (-1) ** (n + 1)) * (-4.0 / ((n + 1) * (m + 1)))
        for k in range(1, n):  # [x̂^m, P^k] has parity (−1)^{k+1}
            outer = _comm(ps[n - k], _comm(xs[m], ps[k], (-1) ** k), (-1) ** (n + 1))
            rhs[2:-2] -= outer * (1.0 / (n + 1))  # half-width m + n, two less than rhs
        yield f"polynomial_m{m}_n{n}", cutoff - max(5, m + n + 3), lhs, rhs


@lru_cache(maxsize=8)  # a few hundred bytes per cutoff
def identity_rows(cutoff: int) -> tuple:
    """``check-identities``' five fits as (name, fitted constant, relative residual),
    built once per cutoff: the monomials m = 4, 5 and the polynomials (m, n) =
    (1, 1), (2, 1), (1, 2)."""
    return tuple((name, *_fit(lhs, rhs, keep))
                 for name, keep, lhs, rhs in _identity_bands(int(cutoff)))
