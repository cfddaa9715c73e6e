"""Every function, method and property the engine modules define runs on some
path: a CLI subcommand, a Marek shot or the library entry points ``full_gate``
and ``rus_factor``.  Code that only the tests reach belongs in
``cubicphase.reference``, the dense oracles."""

import functools
import inspect
import sys
import warnings

import numpy as np
import pytest

from cubicphase import analysis, cli, cubic, errors, gaussian, hilbert, protocol, schemes
from cubicphase.errors import FactorFailure

ENGINE = (errors, hilbert, gaussian, cubic, protocol, analysis, schemes, cli)

# the rus_herald benchmark physics, which only a config file can set in full
HERALD_LINES = ("gamma=0.001\nN=2\nalpha1=3.3\ntransmittance=0.9734\ncutoff=8\neta=1.0\n"
                "dark_rate_hz=0.0\npurity_tol=3e-2\nensemble=1\nmax_attempts=500\n"
                "input_alpha=0.0\n")
# a slow tap: seed 1 clicks at attempt 10,284, past attempt 16, so the bracket
# search runs; seed 0 exhausts the budget
LATE_CLICK = dict(alpha1=1.0, transmittance=0.9999, max_attempts_per_factor=20_000)
# the strong envelope squeezes the output past the cutoff: exit 2
TRUNCATED = ["--alpha1", "60", "--transmittance", "0.5", "--eta", "1", "--dark-rate-hz", "0",
             "--cutoff", "8", "--max-attempts", "50"]


def _code(value):
    """The code object a module or class attribute runs, or None: a function's,
    an lru_cache'd one's body, a property's getter or a cached_property's."""
    if isinstance(value, property):
        value = value.fget
    elif isinstance(value, functools.cached_property):
        value = value.func
    fn = inspect.unwrap(value) if callable(value) else value
    return fn.__code__ if inspect.isfunction(fn) else None


def engine_functions() -> dict:
    """{code object: 'module.name'} of each function an engine module defines
    at module level, and of each function, property and cached_property in the
    body of a class it defines.  Code compiled from another file, such as the
    methods a dataclass generates, is left out."""
    found = {}
    for module in ENGINE:
        short = module.__name__.split(".")[-1]
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            members = vars(value).items() if inspect.isclass(value) else [("", value)]
            for attr, member in members:
                code = _code(member)
                if code is not None and code.co_filename == module.__file__:
                    found[code] = f"{short}.{name}" + (f".{attr}" if attr else "")
    return found


def run_paths(tmp_path) -> None:
    """Every subcommand, the CLI's error exits, a Marek shot and the library
    entry points ``full_gate`` and ``rus_factor``, whose results and failure
    are read as a caller would."""
    out = str(tmp_path / "out.csv")
    bad = tmp_path / "bad.cfg"
    bad.write_text("gammma=0.1\n")
    herald = tmp_path / "herald.cfg"
    herald.write_text(HERALD_LINES)
    for argv, code in [
        (["simulate"], 0),  # every factor exhausts its budget
        (["sweep-variance"], 0),
        (["error-ensemble"], 0),
        (["compare-schemes"], 0),
        (["check-identities"], 0),
        (["simulate", "--config", str(herald)], 0),
        (["simulate", "--gamma", "0"], 0),
        (["simulate", *TRUNCATED], 2),
        (["sweep-variance", "--cutoff", "30", "--gamma", "0.3"], 2),
        (["check-identities", "--gamma", "0"], 0),
        (["simulate", "--config", str(bad)], 1),
    ]:
        assert cli.main([*argv, "--out", out]) == code, argv

    state = hilbert.coherent(0.3, 30)
    schemes.marek_gate(state, 1.5, 0.03, np.random.default_rng(7), (30, 40))
    gl = cubic.gamma_factors(0.03, 1).gamma_l[0]
    config = protocol.ProtocolConfig(**LATE_CLICK)
    _, record = protocol.rus_factor(state, gl, config, np.random.default_rng(1))
    assert record.success and record.attempts > 4080
    with pytest.raises(FactorFailure) as failure:
        protocol.rus_factor(state, gl, config, np.random.default_rng(0))
    assert failure.value.state.cutoffs == state.cutoffs
    herald_config = protocol.ProtocolConfig(gamma=0.001, n=2, alpha1=3.3, transmittance=0.9734,
                                            cutoff=8, max_attempts_per_factor=500,
                                            detector=protocol.IDEAL_DETECTOR)
    _, log = protocol.full_gate(hilbert.coherent(0.0, 8), herald_config, np.random.default_rng(0))
    assert log.success


def test_every_engine_function_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    functions = engine_functions()
    for module in ENGINE:  # a cache hit would skip a body
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            run_paths(tmp_path)
    finally:
        sys.setprofile(previous)
    missed = sorted(name for code, name in functions.items() if code not in reached)
    assert not missed, ("no subcommand, Marek shot or library entry point runs:\n  "
                        + "\n  ".join(missed))
