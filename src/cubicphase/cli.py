"""Command-line driver: config parsing, subcommand dispatch, CSV emission.

``cubicphase SUBCOMMAND [--config FILE] [--key value]...``: a config file
holds ``key=value`` lines (``#`` starts a comment), and every key is also a
flag, spelled exactly ``--`` plus the key with ``_`` written as ``-``, that
overrides the file.  Both go through one conversion loop by ``_KEYS`` into a
``DetectorModel`` and a ``RunConfig``: a ``ProtocolConfig`` that adds a run's
five keys, so every physics default has one home, and each checks its rules
once, when it is built.  Identical (config, seed) pairs produce byte-identical
CSV output.  Exit codes: 0 success, 1 a malformed invocation or an invalid
value (the message names the flag or the config key), 2 numerical-degradation
error or an outcome of zero probability.

Per-run RNG streams derive from the master seed as
``default_rng(SeedSequence(seed, spawn_key=(run_index,)))`` so ensemble
results do not depend on scheduling.
"""

from __future__ import annotations

import math
import os
import stat
import sys
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from . import analysis, cubic, schemes
from .errors import CutoffError, DegenerateOutcomeError, NumericalDegradationError
from .protocol import DetectorModel, ProtocolConfig, check_bounds

# the largest system cutoff: simulate and sweep-variance, the largest in memory,
# peak at about 0.39 GB RSS there (README, CLI)
MAX_CUTOFF = 3000


@dataclass
class RunConfig(ProtocolConfig):
    """A checked config: the gate's parameters and the five keys a run adds."""

    ensemble: int = 8
    seed: int = 0
    input_alpha: float = 0.3
    purity_tol: float = 1e-4
    out: str = ""

    def __post_init__(self):
        # the gate's rules without its warning, which concerns simulate only
        check_bounds(chain(
            ((key, rule[0](getattr(self, name)), rule[1])
             for key, (name, _, rule) in _KEYS.items() if rule),
            self.rules(),
        ))


# config key -> RunConfig or DetectorModel field, parser, and the rule (test,
# text) of a key that neither ProtocolConfig nor DetectorModel checks
_KEYS = {
    "gamma": ("gamma", float, None),
    "N": ("n", int, (lambda v: v <= 10**6, "<= 10**6")),  # O(N) error-ensemble: 3 s at 10**6
    "alpha1": ("alpha1", float, None),
    "transmittance": ("transmittance", float, None),
    "eta": ("eta", float, None),
    "dark_rate_hz": ("dark_rate_hz", float, None),
    "window_s": ("window_s", float, None),
    "cutoff": ("cutoff", int, (lambda v: 4 <= v <= MAX_CUTOFF, f"in [4, {MAX_CUTOFF}]")),
    "ensemble": ("ensemble", int, (lambda v: v >= 1, ">= 1")),
    "seed": ("seed", int, (lambda v: v >= 0, ">= 0")),
    "input_alpha": ("input_alpha", float, (math.isfinite, "finite")),
    "max_attempts": ("max_attempts_per_factor", int, None),
    # unread, as every trajectory is pure; the benchmark's config files write it
    "purity_tol": ("purity_tol", float, (lambda v: 0.0 < v < math.inf, "in (0, inf)")),
    "out": ("out", str, None),
}
_DETECTOR_FIELDS = tuple(f.name for f in fields(DetectorModel))
_FLAGS = {"--" + key.replace("_", "-"): key for key in ("config", *_KEYS)}


def _file_items(path: str):
    """(where, key, raw value) for each ``key=value`` line of a config file."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = (s.strip() for s in line.partition("="))
            yield f"{path}:{lineno}", key, val


def parse_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Build a checked RunConfig from an optional file plus flag overrides,
    given as raw strings or as values of each key's type."""
    values: dict = {}
    flags = (("command line", key, val) for key, val in (overrides or {}).items())
    for where, key, raw in chain(_file_items(path) if path else (), flags):
        if key not in _KEYS:
            raise ValueError(f"{where}: unknown config key '{key}'")
        name, conv, _ = _KEYS[key]
        try:
            values[name] = conv(raw)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}: config key '{key}': {exc}") from None
    detector = DetectorModel(**{name: values.pop(name) for name in _DETECTOR_FIELDS
                                if name in values})
    return RunConfig(**values, detector=detector)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer, np.bool_)):  # a bool is an int
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return "" if value is None else str(value)


def _write_csv(path: str, header, rows) -> None:
    """Write the CSV over the file's old bytes, then cut a regular file to the
    new length.  The file is never truncated to zero first: on ext4 a rewrite
    after such a truncate makes the close start a block write.  Every row is
    formatted into UTF-8 bytes before the file opens, so a row that raises
    leaves it as it was.  No field needs CSV quoting: each is a number, a name
    without commas or quotes, or an empty field in a row of several."""
    sink = bytearray()
    for row in chain((header,), rows):
        sink += (",".join(_fmt(v) for v in row) + "\n").encode("utf-8")
    data = memoryview(sink)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        while written < len(data):  # a pipe or a signal can cut a write short
            written += os.write(fd, data[written:])
        # a special file such as /dev/null or a FIFO cannot be truncated
        st = os.fstat(fd)
        if stat.S_ISREG(st.st_mode) and st.st_size > written:
            os.ftruncate(fd, written)
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# subcommand bodies


def _run_simulate(cfg: RunConfig, out: str) -> None:
    cfg.warn_weak_subtraction(stacklevel=2)

    def rows():
        # one run at a time, so memory stays at the size of the CSV text
        for run in range(cfg.ensemble):
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(run,)))
            [(r, _)] = analysis.run_ensemble(cfg, [cfg.input_alpha], [rng])
            yield run, r.success, r.total_attempts, r.fidelity_un, r.fidelity_ideal

    try:
        _write_csv(out, ("run", "success", "total_attempts", "fidelity_un", "fidelity_ideal"),
                   rows())
    except CutoffError as exc:  # only the coherent input |input_alpha⟩ can raise it
        raise ValueError(f"config key 'input_alpha': {exc}") from None


def _run_sweep_variance(cfg: RunConfig, out: str) -> None:
    _write_csv(out, ("re_alpha", "ideal") + tuple(f"N{n}" for n in analysis.N_LIST),
               [(r.re_alpha, r.ideal) + tuple(r.by_n[n] for n in analysis.N_LIST)
                for r in analysis.variance_sweep(cfg.gamma, max(cfg.cutoff, 30))])


def _run_error_ensemble(cfg: RunConfig, out: str) -> None:
    _write_csv(out, ("x", "mean_re", "mean_im", "stddev", "method"),
               [(r.x, r.mean.real, r.mean.imag, r.stddev, r.method)
                for r in analysis.error_operator_stats(cfg.gamma, cfg.n, cfg.detector)])


def _run_compare_schemes(cfg: RunConfig, out: str) -> None:
    header = ("p", "ours_per_factor", "ours_total", "marek_model", "marek_restart_exact")
    models = ((p, schemes.runtime_models(p, n=cfg.n)) for p in (0.05, 0.1, 0.2, 0.3, 0.5, 1.0))
    _write_csv(out, header, [(p, m.ours_per_factor, m.ours_total, m.marek_prep,
                              schemes.marek_restart_mean(p)) for p, m in models])


def _run_check_identities(cfg: RunConfig, out: str) -> None:
    c = max(cfg.cutoff, 24)
    rows = [(*row, c) for row in cubic.identity_rows(c)]
    # the decomposition identities at the configured gamma/N hold between the
    # coefficients of polynomials in x̂, so they are checked there, at any cutoff;
    # each residual is relative to the target's largest coefficient, as the fits' are
    g = cfg.gamma / cfg.n
    e = cubic.factor_coefficients(cubic.gamma_factors(cfg.gamma, cfg.n))
    norm = np.convolve(e.conj(), e)  # (Σ e_k x̂^k)†(Σ e_k x̂^k), as x̂ is Hermitian
    for name, got, want in (("factorization", e, (1, 0, 0, 1j * g)),
                            ("norm_identity", norm, (1, 0, 0, 0, 0, 0, g * g))):
        rows.append((name, 1.0, float(np.abs(got - want).max() / np.abs(want).max()), c))
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
    if subcommand not in _BODIES:
        raise ValueError(f"unknown subcommand '{subcommand}'")
    out = cfg.out or f"{subcommand.replace('-', '_')}.csv"
    _BODIES[subcommand](cfg, out)
    return 0


_USAGE = (f"usage: cubicphase {{{','.join(_BODIES)}}} [--config FILE] [--key value]...\n"
         f"flags: {' '.join(_FLAGS)}")


def _parse_argv(argv) -> tuple[str, str | None, dict]:
    """``SUBCOMMAND [--config FILE] [--key value]...`` as (subcommand, config
    path, raw flag values by config key); a later flag overrides an earlier one."""
    if not argv or argv[0] not in _BODIES:
        got = f"unknown subcommand '{argv[0]}'" if argv else "no subcommand given"
        raise ValueError(f"{got}\n{_USAGE}")
    flags = {}
    for i in range(1, len(argv), 2):
        flag = argv[i]
        if flag not in _FLAGS:
            raise ValueError(f"unknown flag '{flag}'\n{_USAGE}")
        if i + 1 == len(argv) or argv[i + 1].startswith("--"):
            raise ValueError(f"flag '{flag}' needs a value\n{_USAGE}")
        flags[_FLAGS[flag]] = argv[i + 1]
    return argv[0], flags.pop("config", None), flags


def main(argv=None) -> int:
    try:
        subcommand, path, flags = _parse_argv(sys.argv[1:] if argv is None else argv)
        return run(subcommand, parse_config(path, flags))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalDegradationError, DegenerateOutcomeError) as exc:
        print(f"numerical degradation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
