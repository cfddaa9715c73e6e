"""Command-line driver: config parsing, subcommand dispatch, CSV emission.

Config files are ``key=value`` lines (``#`` starts a comment); command-line
flags override file values.  Identical (config, seed) pairs produce
byte-identical CSV output.  Exit codes: 0 success, 1 validation error,
2 numerical-degradation error or an outcome of zero probability.

Per-run RNG streams derive from the master seed as
``default_rng(SeedSequence(seed, spawn_key=(run_index,)))`` so ensemble
results do not depend on scheduling.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import analysis, cubic, schemes
from .errors import DegenerateOutcomeError, NumericalDegradationError
from .hilbert import quadrature_x
from .protocol import DetectorModel, ProtocolConfig, check_bounds, protocol_bounds

SUBCOMMANDS = ("simulate", "sweep-variance", "error-ensemble", "compare-schemes", "check-identities")


@dataclass
class RunConfig:
    gamma: float = 0.03
    n: int = 1
    alpha1: float = 0.2
    transmittance: float = 0.99
    eta: float = 0.9
    dark_rate_hz: float = 100.0
    window_s: float = 1e-10
    cutoff: int = 30
    ensemble: int = 8
    seed: int = 0
    input_alpha: float = 0.3
    max_attempts: int = 10_000
    purity_tol: float = 1e-4
    out: str = ""

    def validate(self) -> None:
        """Apply ProtocolConfig's and DetectorModel's rules without building a
        ProtocolConfig, whose weak-subtraction warning concerns simulate only."""
        check_bounds([
            ("cutoff", self.cutoff >= 4, ">= 4"),
            ("ensemble", self.ensemble >= 1, ">= 1"),
            ("seed", self.seed >= 0, ">= 0"),
            ("purity_tol", self.purity_tol > 0.0, "> 0"),
            *protocol_bounds(self.gamma, self.n, self.alpha1, self.transmittance,
                             self.max_attempts),
        ])
        self.detector()

    def detector(self) -> DetectorModel:
        return DetectorModel(eta=self.eta, dark_rate_hz=self.dark_rate_hz, window_s=self.window_s)


# file keys -> RunConfig field and parser; each key is also a flag, "_" -> "-"
_KEYS = {
    "gamma": ("gamma", float),
    "N": ("n", int),
    "alpha1": ("alpha1", float),
    "transmittance": ("transmittance", float),
    "eta": ("eta", float),
    "dark_rate_hz": ("dark_rate_hz", float),
    "window_s": ("window_s", float),
    "cutoff": ("cutoff", int),
    "ensemble": ("ensemble", int),
    "seed": ("seed", int),
    "input_alpha": ("input_alpha", float),
    "max_attempts": ("max_attempts", int),
    "purity_tol": ("purity_tol", float),  # validated but unread: every trajectory is pure
    "out": ("out", str),
}


def parse_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Build a validated RunConfig from an optional file plus flag overrides."""
    values: dict = {}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, val = (s.strip() for s in line.partition("="))
                if key not in _KEYS:
                    raise ValueError(f"{path}:{lineno}: unknown config key '{key}'")
                field_name, conv = _KEYS[key]
                try:
                    values[field_name] = conv(val)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: key '{key}': {exc}") from None
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in _KEYS:
            raise ValueError(f"unknown config key '{key}'")
        field_name, conv = _KEYS[key]
        values[field_name] = conv(val)
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None or value == "":
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _rng_for_run(seed: int, run_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(run_index,)))


# ---------------------------------------------------------------------------
# subcommand bodies


def _run_simulate(cfg: RunConfig, out: str) -> None:
    pconf = ProtocolConfig(
        gamma=cfg.gamma,
        n=cfg.n,
        alpha1=cfg.alpha1,
        transmittance=cfg.transmittance,
        cutoff=cfg.cutoff,
        max_attempts_per_factor=cfg.max_attempts,
        detector=cfg.detector(),
    )
    results = analysis.run_ensemble(
        pconf,
        [cfg.input_alpha] * cfg.ensemble,
        (_rng_for_run(cfg.seed, run) for run in range(cfg.ensemble)),
    )
    rows = [
        (run, r.success, r.total_attempts, r.fidelity_un, r.fidelity_ideal)
        for run, (r, _) in enumerate(results)
    ]
    _write_csv(out, ("run", "success", "total_attempts", "fidelity_un", "fidelity_ideal"), rows)


def _run_sweep_variance(cfg: RunConfig, out: str) -> None:
    spec = analysis.MomentSweepSpec(gamma=cfg.gamma, cutoff=max(cfg.cutoff, 30))
    rows = analysis.variance_sweep(spec)
    header = ("re_alpha", "ideal") + tuple(f"N{n}" for n in spec.n_list)
    _write_csv(
        out,
        header,
        [(r.re_alpha, r.ideal) + tuple(r.by_n[n] for n in spec.n_list) for r in rows],
    )


def _run_error_ensemble(cfg: RunConfig, out: str) -> None:
    spec = analysis.ErrorEnsembleSpec(gamma=cfg.gamma, n=cfg.n, detector=cfg.detector())
    rows = analysis.error_operator_stats(spec, rng=_rng_for_run(cfg.seed, 0))
    _write_csv(
        out,
        ("x", "mean_re", "mean_im", "stddev", "method"),
        [(r.x, r.mean.real, r.mean.imag, r.stddev, r.method) for r in rows],
    )


def _run_compare_schemes(cfg: RunConfig, out: str) -> None:
    ps = (0.05, 0.1, 0.2, 0.3, 0.5, 1.0)
    rows = []
    for p in ps:
        m = schemes.runtime_models(p, n=cfg.n)
        rows.append((p, m.ours_per_factor, m.ours_total, m.marek_prep,
                     schemes.marek_restart_mean(p), "n/a"))
    _write_csv(
        out,
        ("p", "ours_per_factor", "ours_total", "marek_model", "marek_restart_exact", "gkp"),
        rows,
    )


def _run_check_identities(cfg: RunConfig, out: str) -> None:
    c = max(cfg.cutoff, 24)
    gamma = cfg.gamma if cfg.gamma > 0 else 0.03
    rows = []
    for m in (4, 5):
        rep = cubic.monomial_identity_report(m, c)
        rows.append((rep.name, rep.fitted_constant, rep.residual, rep.cutoff))
    for m, n in ((1, 1), (2, 1), (1, 2)):
        rep = cubic.polynomial_identity_report(m, n, c)
        rows.append((rep.name, rep.fitted_constant, rep.residual, rep.cutoff))
    # decomposition identities at the configured gamma/N
    dec = cubic.gamma_factors(gamma, cfg.n)
    x = quadrature_x(c).matrix
    prod = np.eye(c, dtype=complex)
    for gl in dec.gamma_l:
        prod = prod @ (np.eye(c, dtype=complex) + gl * x)
    target = np.eye(c, dtype=complex) + 1j * (gamma / cfg.n) * np.linalg.matrix_power(x, 3)
    rows.append(("factorization", 1.0, float(np.abs(prod - target).max()), c))
    norm_lhs = prod.conj().T @ prod
    norm_rhs = np.eye(c, dtype=complex) + (gamma / cfg.n) ** 2 * np.linalg.matrix_power(x, 6)
    rows.append(("norm_identity", 1.0, float(np.abs(norm_lhs - norm_rhs).max()), c))
    _write_csv(out, ("identity_name", "fitted_constant", "residual", "cutoff"), rows)


_BODIES = {
    "simulate": _run_simulate,
    "sweep-variance": _run_sweep_variance,
    "error-ensemble": _run_error_ensemble,
    "compare-schemes": _run_compare_schemes,
    "check-identities": _run_check_identities,
}


def run(subcommand: str, cfg: RunConfig) -> int:
    """Execute a subcommand against a validated config.  Returns the exit code."""
    if subcommand not in SUBCOMMANDS:
        raise ValueError(f"unknown subcommand '{subcommand}'")
    out = cfg.out or f"{subcommand.replace('-', '_')}.csv"
    _BODIES[subcommand](cfg, out)
    return 0


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared; parse_args
    returns a fresh namespace on every call, so no flag carries over."""
    parser = argparse.ArgumentParser(
        prog="cubicphase",
        description="Repeat-until-success cubic phase gate simulator",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="key=value config file")
    for key, (_, conv) in _KEYS.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=conv)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in _KEYS}
    try:
        cfg = parse_config(args.config, overrides)
        return run(args.subcommand, cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalDegradationError, DegenerateOutcomeError) as exc:
        print(f"numerical degradation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
