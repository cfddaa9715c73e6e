"""Independent oracles used to freeze expected values.

Everything here works on 1-D position quadratures and closed-form coherent
state identities, never on the package's Fock matrices, so agreement between
simulation and oracle is a genuine dual-route check.  Valid because every
protocol operator is diagonal in (or conditioned on) the system position.
"""

import numpy as np

X_GRID = np.linspace(-9.0, 9.0, 6001)


def coherent_position_density(alpha: complex, xs=X_GRID) -> np.ndarray:
    """|⟨x|α⟩|²: Gaussian of variance 1/2 centered at √2·Re(α)."""
    x0 = np.sqrt(2.0) * np.real(alpha)
    return np.exp(-((xs - x0) ** 2)) / np.sqrt(np.pi)


def noclick_prob_coherent(amp2: np.ndarray, transmittance: float, eta: float, nu: float) -> np.ndarray:
    """⟨Π₀⟩ on the reflected arm of a coherent state of intensity |ζ|² = amp2."""
    return np.exp(-nu - eta * (1.0 - transmittance) * amp2)


def factor_attempt_stats(
    density: np.ndarray,
    alpha1: float,
    transmittance: float,
    gamma_l: complex,
    eta: float = 1.0,
    nu: float = 0.0,
    xs=X_GRID,
    max_attempts: int = 5000,
):
    """Exact attempt statistics of one subtraction factor by 1-D quadrature.

    Returns (p_first, mean_attempts_given_click, click_mass, post_density)
    where post_density is the click-weighted position density, the input to
    the next factor's oracle.  Every operator of the factor is a function of
    x̂, so that density is the prior times the likelihood of a click; the
    click probability already carries the |1+γ_l x|² of the subtraction.
    """
    zeta2 = np.abs(1.0 + gamma_l * xs) ** 2 * alpha1**2
    surv = np.array(density, dtype=float)
    total0 = np.trapezoid(surv, xs)
    mean = 0.0
    mass = 0.0
    p_first = None
    clicked_density = np.zeros_like(surv)
    for m in range(1, max_attempts + 1):
        pn = noclick_prob_coherent(zeta2 * transmittance ** (m - 1), transmittance, eta, nu)
        click_here = surv * (1.0 - pn)
        pc = np.trapezoid(click_here, xs)
        if p_first is None:
            p_first = pc / total0
        mean += m * pc
        mass += pc
        clicked_density += click_here
        surv = surv * pn
        if pc < 1e-16 * total0 and m > 50:
            break
    return float(p_first), float(mean / mass), float(mass / total0), clicked_density


def gate_total_attempts(
    alpha: complex,
    alpha1: float,
    transmittance: float,
    gamma_l_by_factor,
    eta: float = 1.0,
    nu: float = 0.0,
):
    """Expected total attempts of a factor sequence on a coherent input."""
    density = coherent_position_density(alpha)
    total = 0.0
    for gl in gamma_l_by_factor:
        _, mean_m, _, density = factor_attempt_stats(
            density, alpha1, transmittance, gl, eta=eta, nu=nu
        )
        total += mean_m
    return total


def ideal_gate_p_variance(gamma: float, alpha: complex) -> float:
    """σ_p² of e^{iγx̂³}|α⟩: Heisenberg p̂ → p̂ + 3γx̂² on a coherent state."""
    xbar = np.sqrt(2.0) * np.real(alpha)
    return 0.5 + 9.0 * gamma**2 * (2.0 * xbar**2 + 0.5)


def error_factor_moments(x: float, gamma_l, probs):
    """Closed-form E[A(x)] and E[|A(x)|²] using independence across factors."""
    p_c, p_d, p_m = probs
    mean_prod = 1.0 + 0.0j
    mean_sq_prod = 1.0
    for gl in gamma_l:
        f = 1.0 + gl * x
        mean_prod *= p_c * f + p_d + p_m * f * f
        mean_sq_prod *= p_c * abs(f) ** 2 + p_d + p_m * abs(f) ** 4
    ideal = np.exp(1j * (gamma_l_strength(gamma_l)) * x**3)
    mean_a = mean_prod - ideal
    # E|A|² = E|P|² - 2Re(conj(ideal)·E[P]) + 1
    mean_abs2 = mean_sq_prod - 2.0 * np.real(np.conj(ideal) * mean_prod) + 1.0
    return mean_a, mean_abs2


def sampled_error_mean(x: float, gamma: float, gamma_l, probs, samples: int, rng):
    """E[A(x)] and its standard error over ``samples`` draws in which each
    factor, independently, is correct (1+γ_l x), dark (1) or missed (1+γ_l x)²
    with ``probs``; ``gamma_l`` lists every factor's coefficient."""
    events = rng.choice(3, size=(samples, len(gamma_l)), p=probs)
    amp = np.ones(samples, dtype=complex)
    for i, gl in enumerate(gamma_l):
        f = 1.0 + gl * x
        amp *= np.array([f, 1.0, f * f])[events[:, i]]
    a = amp - np.exp(1j * gamma * x**3)
    return complex(a.mean()), float(a.std() / np.sqrt(samples))


def gamma_l_strength(gamma_l) -> float:
    """Recover γ/N from the three factor coefficients: Πγ_l = i·γ/N."""
    prod = 1.0 + 0.0j
    for gl in gamma_l:
        prod *= gl
    return float(np.imag(prod))
