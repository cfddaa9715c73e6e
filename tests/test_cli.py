import csv
import dataclasses
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from cubicphase import analysis, cli, cubic, protocol, schemes
from cubicphase.cli import main, parse_config, run
from cubicphase.gaussian import x_eigh
from cubicphase.hilbert import coherent
from cubicphase.protocol import DetectorModel, ProtocolConfig
from cubicphase.reference import FockOperator
from test_reachability import HERALD_LINES


# one out-of-bounds value per bounded config key
INVALID_VALUES = {
    "gamma": "-2",
    "N": "0",
    "alpha1": "0",
    "transmittance": "1.5",
    "eta": "1.5",
    "dark_rate_hz": "-1",
    "window_s": "0",
    "cutoff": "3",
    "ensemble": "0",
    "seed": "-1",
    "max_attempts": "0",
    "purity_tol": "0",
}
# every float key must also reject NaN and infinity, which argparse accepts
FLOAT_KEYS = ("gamma", "alpha1", "transmittance", "eta", "dark_rate_hz", "window_s",
              "input_alpha", "purity_tol")
NONFINITE_CASES = [(key, value) for value in ("nan", "inf") for key in FLOAT_KEYS]
# an input whose |α|² passes the float range, an attempt budget past int64,
# a resource whose α₁² passes it, a cutoff past the bound, a γ whose γ²
# passes it, photon-count means past their bound: from α₁² and from γ, and
# an N past its bound
OUT_OF_RANGE_CASES = [("input_alpha", "1e200"), ("max_attempts", "100000000000000000000"),
                      ("alpha1", "1e200"), ("cutoff", "3001"), ("gamma", "1e300"),
                      ("alpha1", "1e150"), ("alpha1", "1000"), ("gamma", "1e12"),
                      ("N", "1000001")]
INVALID_CASES = list(INVALID_VALUES.items()) + NONFINITE_CASES + OUT_OF_RANGE_CASES
INVALID_IDS = (list(INVALID_VALUES) + [f"{key}-{value}" for key, value in NONFINITE_CASES]
               + ["input_alpha-1e200", "max_attempts-1e20", "alpha1-1e200", "cutoff-3001",
                  "gamma-1e300", "alpha1-1e150", "alpha1-1e3", "gamma-1e12", "N-1000001"])


# a valid value other than the default for every config key
NON_DEFAULT_VALUES = {"gamma": 0.05, "N": 3, "alpha1": 0.5, "transmittance": 0.9, "eta": 0.8,
                      "dark_rate_hz": 50.0, "window_s": 1e-9, "cutoff": 40, "ensemble": 2,
                      "seed": 7, "input_alpha": 0.1, "max_attempts": 20, "purity_tol": 1e-3,
                      "out": "run.csv"}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config(None)
        assert cfg.gamma == 0.03
        assert cfg.n == 1
        assert cfg.transmittance == 0.99
        assert cfg.detector.eta == 0.9
        assert cfg.detector.dark_rate_hz == 100.0
        assert cfg.detector.window_s == 1e-10

    def test_defaults_are_the_gates(self):
        # every physics default lives in ProtocolConfig and DetectorModel alone
        cfg, gate = parse_config(None), ProtocolConfig()
        for f in dataclasses.fields(ProtocolConfig):
            assert getattr(cfg, f.name) == getattr(gate, f.name), f.name
        assert cfg.detector == DetectorModel()

    @pytest.mark.parametrize("key", list(cli._KEYS))
    def test_key_lands_on_its_field(self, key):
        value = NON_DEFAULT_VALUES[key]
        cfg, default = parse_config(None, {key: str(value)}), parse_config(None)
        if key in ("eta", "dark_rate_hz", "window_s"):
            cfg, default = cfg.detector, default.detector
        name = {"N": "n", "max_attempts": "max_attempts_per_factor"}.get(key, key)
        assert getattr(cfg, name) == value != getattr(default, name)

    def test_file_values(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("gamma = 0.1  # stronger gate\nN=3\n\n# comment line\nseed=7\n")
        cfg = parse_config(str(f))
        assert cfg.gamma == 0.1
        assert cfg.n == 3
        assert cfg.seed == 7

    def test_flag_overrides_file(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("N=1\n")
        cfg = parse_config(str(f), {"N": 3})
        assert cfg.n == 3

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("gammma=0.1\n")
        with pytest.raises(ValueError, match="gammma"):
            parse_config(str(f))

    def test_constraint_violation_names_key(self):
        with pytest.raises(ValueError, match="gamma"):
            parse_config(None, {"gamma": -1.0})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_input_alpha_rejected(self, value):
        # for every subcommand, not only simulate, which builds the input
        with pytest.raises(ValueError, match="config key 'input_alpha'"):
            parse_config(None, {"input_alpha": value})

    def test_no_weak_subtraction_warning(self):
        # the warning concerns the simulate subcommand, not config parsing
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parse_config(None, {"alpha1": 2.0, "transmittance": 0.8})

    def test_type_error_names_key(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("N=three\n")
        with pytest.raises(ValueError, match="'N'"):
            parse_config(str(f))


class TestRun:
    def test_check_identities_format(self, tmp_path):
        out = tmp_path / "ids.csv"
        cfg = parse_config(None, {"out": str(out), "cutoff": 24})
        assert run("check-identities", cfg) == 0
        rows = read_csv(out)
        assert rows[0] == ["identity_name", "fitted_constant", "residual", "cutoff"]
        names = [r[0] for r in rows[1:]]
        assert "monomial_m4" in names
        assert "polynomial_m1_n1" in names
        assert "factorization" in names
        for r in rows[1:]:
            assert float(r[2]) < 1e-12

    def test_sweep_variance_columns(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = parse_config(None, {"out": str(out)})
        assert run("sweep-variance", cfg) == 0
        rows = read_csv(out)
        assert rows[0] == ["re_alpha", "ideal", "N1", "N3", "N5", "N7"]
        assert len(rows) == 1 + 7

    def test_error_ensemble_rows(self, tmp_path):
        out = tmp_path / "err.csv"
        cfg = parse_config(None, {"out": str(out)})
        assert run("error-ensemble", cfg) == 0
        rows = read_csv(out)
        assert rows[0] == ["x", "mean_re", "mean_im", "stddev", "method"]
        assert len(rows) == 1 + 6

    def test_compare_schemes(self, tmp_path):
        out = tmp_path / "cmp.csv"
        cfg = parse_config(None, {"out": str(out)})
        assert run("compare-schemes", cfg) == 0
        rows = read_csv(out)
        assert rows[0] == ["p", "ours_per_factor", "ours_total", "marek_model", "marek_restart_exact"]
        assert len(rows) == 1 + 6
        row_p1 = [r for r in rows[1:] if float(r[0]) == 0.1][0]
        assert float(row_p1[1]) == pytest.approx(10.0)
        assert float(row_p1[4]) == pytest.approx(1110.0)

    @pytest.mark.parametrize("n", ["1", "4"])
    def test_compare_schemes_rows_are_the_closed_forms(self, tmp_path, n):
        # per p: 1/p, 3N/p with N from the config, p⁻³ and (1 + p + p²)/p³
        out = tmp_path / "cmp.csv"
        assert main(["compare-schemes", "--N", n, "--out", str(out)]) == 0
        rows = read_csv(out)[1:]
        assert [float(r[0]) for r in rows] == [0.05, 0.1, 0.2, 0.3, 0.5, 1.0]
        for r in rows:
            p = float(r[0])
            expected = [1 / p, 3 * int(n) / p, p**-3, (1 + p + p * p) / p**3]
            assert [float(v) for v in r[1:]] == pytest.approx(expected, rel=1e-12)

    def test_simulate_runs(self, tmp_path):
        out = tmp_path / "sim.csv"
        # fast honest configuration: strong resource, small cutoffs
        cfg = parse_config(
            None,
            {
                "out": str(out), "ensemble": 3, "gamma": 0.001, "alpha1": 3.3,
                "transmittance": 0.9734, "cutoff": 10, "eta": 1.0,
                "dark_rate_hz": 0.0, "max_attempts": 200, "input_alpha": 0.0,
                "purity_tol": 1e-2,
            },
        )
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            code = run("simulate", cfg)
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["run", "success", "total_attempts", "fidelity_un", "fidelity_ideal"]
        assert len(rows) == 1 + 3

    def test_unknown_subcommand(self):
        with pytest.raises(ValueError):
            run("frobnicate", parse_config(None))


class TestDeterminism:
    @pytest.mark.parametrize("sub,extra", [
        ("check-identities", {"cutoff": 24}),
        ("error-ensemble", {}),
        ("compare-schemes", {}),
    ])
    def test_byte_identical(self, tmp_path, sub, extra):
        outs = []
        for i in range(2):
            out = tmp_path / f"{sub}-{i}.csv"
            cfg = parse_config(None, {"out": str(out), "seed": 11, **extra})
            run(sub, cfg)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_simulate_byte_identical(self, tmp_path):
        import warnings

        outs = []
        for i in range(2):
            out = tmp_path / f"sim-{i}.csv"
            cfg = parse_config(
                None,
                {
                    "out": str(out), "seed": 5, "ensemble": 2, "gamma": 0.001,
                    "alpha1": 3.3, "transmittance": 0.9734, "cutoff": 10,
                    "eta": 1.0, "dark_rate_hz": 0.0, "max_attempts": 200,
                    "input_alpha": 0.0, "purity_tol": 1e-2,
                },
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                run("simulate", cfg)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestMain:
    def test_exit_zero(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["check-identities", "--cutoff", "24", "--out", "ids.csv"]) == 0
        assert Path(tmp_path, "ids.csv").exists()

    @pytest.mark.parametrize("key, value", INVALID_CASES, ids=INVALID_IDS)
    def test_validation_exit_one(self, key, value, capsys, tmp_path, monkeypatch):
        # simulate builds the coherent input, so it alone can refuse |input_alpha⟩
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--" + key.replace("_", "-"), value]) == 1
        err = capsys.readouterr().err
        assert f"config key '{key}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["error-ensemble", "--gamma", "1e5", "--N", "1000"],
        ["error-ensemble", "--gamma", "1e8", "--N", "100000"],
        ["error-ensemble", "--gamma", "1e300"],
        ["check-identities", "--gamma", "1e300"],
    ], ids=["errors-overflow", "errors-overflow-large-N", "errors-gamma-1e300",
            "identities-gamma-1e300"])
    def test_subcommand_gamma_out_of_range_exit_one(self, argv, capsys, tmp_path, monkeypatch):
        # the first two pass every config rule, but their error moments pass
        # the float range; the named subcommand runs, not simulate
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "config key 'gamma'" in err
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_successive_calls_do_not_share_flags(self, tmp_path, monkeypatch):
        # a flag given to one call must not reach the next
        monkeypatch.chdir(tmp_path)
        assert main(["check-identities", "--cutoff", "24", "--out", "a.csv"]) == 0
        assert main(["check-identities", "--out", "b.csv"]) == 0
        assert {r[3] for r in read_csv(tmp_path / "a.csv")[1:]} == {"24"}
        assert {r[3] for r in read_csv(tmp_path / "b.csv")[1:]} == {"30"}

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--cutoff", "abc"], "config key 'cutoff'"),
        (["simulate", "--dark_rate_hz", "0"], "unknown flag '--dark_rate_hz'"),
        (["simulate", "--cut", "30"], "unknown flag '--cut'"),
        (["simulate", "--seed"], "flag '--seed' needs a value"),
        (["frobnicate"], "unknown subcommand 'frobnicate'"),
        ([], "no subcommand"),
    ], ids=["malformed-value", "unknown-flag", "abbreviated-flag", "flag-without-value",
            "unknown-subcommand", "no-arguments"])
    def test_shell_error_exit_one(self, argv, message, capsys, tmp_path, monkeypatch):
        # flags match their keys exactly, and every malformed invocation exits
        # 1 through the same error path as a bad config file
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err.splitlines()[0]
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_noisy_detector_exit_one_names_its_keys(self, capsys, tmp_path, monkeypatch):
        # ν = 0.1 per window over 100 expected attempts: p_dark + p_miss > 1
        monkeypatch.chdir(tmp_path)
        assert main(["error-ensemble", "--dark-rate-hz", "1e9"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'dark_rate_hz'" in err
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("n", ["1", "4", "1000"])
    def test_error_ensemble_at_gamma_zero_writes_zero_rows(self, tmp_path, n):
        # γ = 0 is the identity gate, which every detector outcome applies exactly
        out = tmp_path / "err.csv"
        assert main(["error-ensemble", "--gamma", "0", "--N", n, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 1 + 6
        assert all(r[1:4] == ["0.0", "0.0", "0.0"] for r in rows[1:])

    def test_check_identities_at_gamma_zero_checks_gamma_zero(self, tmp_path):
        out = tmp_path / "ids.csv"
        assert main(["check-identities", "--gamma", "0", "--out", str(out)]) == 0
        rows = {r[0]: r[1:3] for r in read_csv(out)[1:]}
        assert rows["factorization"] == rows["norm_identity"] == ["1.0", "0.0"]

    def test_simulate_at_gamma_zero_scores_the_identity(self, tmp_path):
        # γ = 0 is the identity gate: every run succeeds with no attempt, and
        # both fidelities are exactly 1.0
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--gamma", "0", "--ensemble", "2", "--out", str(out)]) == 0
        assert out.read_text() == ("run,success,total_attempts,fidelity_un,fidelity_ideal\n"
                                   "0,1,0,1.0,1.0\n1,1,0,1.0,1.0\n")

    def test_dense_csvs_are_on_the_analysis_grids(self, tmp_path):
        sweep, errors = tmp_path / "sweep.csv", tmp_path / "err.csv"
        assert main(["sweep-variance", "--out", str(sweep)]) == 0
        assert main(["error-ensemble", "--out", str(errors)]) == 0
        rows = read_csv(sweep)
        assert rows[0] == ["re_alpha", "ideal"] + [f"N{n}" for n in analysis.N_LIST]
        assert [float(r[0]) for r in rows[1:]] == list(analysis.RE_ALPHA_GRID)
        assert [float(r[0]) for r in read_csv(errors)[1:]] == list(analysis.X_GRID)

    @pytest.mark.parametrize("subcommand, count", [
        ("simulate", 1), ("sweep-variance", 0), ("error-ensemble", 0), ("compare-schemes", 0),
        ("check-identities", 0),
    ])
    def test_weak_subtraction_warns_once_in_simulate_only(self, subcommand, count, tmp_path):
        argv = [subcommand, "--alpha1", "2", "--transmittance", "0.8", "--ensemble", "3",
                "--out", str(tmp_path / "out.csv")]
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert main(argv) == 0
        assert sum("weak-subtraction" in str(w.message) for w in record) == count

    def test_missing_config_file_exit_one(self):
        assert main(["check-identities", "--config", "/nonexistent/p.cfg"]) == 1

    def test_strong_tap_at_default_purity_tol_exits_zero(self, tmp_path, monkeypatch):
        # strong-resource run at the default purity_tol: the click branch
        # carries real multi-photon events, and every trajectory stays pure
        monkeypatch.chdir(tmp_path)
        f = tmp_path / "strong.cfg"
        f.write_text(
            "gamma=0.001\nalpha1=3.3\ntransmittance=0.9734\ncutoff=10\n"
            "eta=1.0\ndark_rate_hz=0.0\nensemble=1\nmax_attempts=200\ninput_alpha=0.0\n"
        )
        with pytest.warns(UserWarning, match="weak-subtraction"):
            code = main(["simulate", "--config", str(f), "--out", "sim.csv"])
        assert code == 0
        assert read_csv(tmp_path / "sim.csv")[1][1] == "1"

    @pytest.mark.parametrize("argv", [
        # the README recipe for quick successful runs
        ["--alpha1", "3.3", "--transmittance", "0.9734", "--seed", "0"],
    ], ids=["readme-recipe"])
    def test_strong_simulate_exits_zero(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.warns(UserWarning, match="weak-subtraction"):
            assert main(["simulate", *argv, "--out", "sim.csv"]) == 0
        rows = read_csv(tmp_path / "sim.csv")[1:]
        assert rows and all(r[1] == "1" for r in rows)

    def test_strong_simulate_beyond_cutoff_exits_two(self, tmp_path, monkeypatch, capsys):
        # e^{−I/2} and (1+γ_l λ)^K under- and overflow double precision here,
        # which once exited 1 with "amplitudes contain NaN/Inf".  The output
        # is computed, but the strong envelope squeezes it in x̂ beyond every
        # cutoff from 8 to 64, so the headroom check refuses it.
        monkeypatch.chdir(tmp_path)
        argv = ["--alpha1", "60", "--transmittance", "0.5", "--eta", "1", "--dark-rate-hz", "0",
                "--cutoff", "8", "--max-attempts", "50", "--purity-tol", "0.9"]
        with pytest.warns(UserWarning, match="weak-subtraction"):
            assert main(["simulate", *argv, "--out", "sim.csv"]) == 2
        err = capsys.readouterr().err
        assert re.search(
            r"truncation headroom: the gate output after factor l=\d, repetition \d+, "
            r"attempt \d+ holds \S+ of its probability in the top two Fock levels of "
            r"cutoff 8, above the bound 1e-06", err), err
        assert "NaN" not in err

    @pytest.mark.parametrize("gamma, code", [("0.03", 0), ("0.1", 2), ("0.3", 2)])
    def test_truncated_sweep_exits_two(self, gamma, code, tmp_path, monkeypatch, capsys):
        # at cutoff 30, γ = 0.1 and 0.3 push up to 1.6e-4 (U_N) and 4.6e-2
        # (ideal) of a column's probability into the top two Fock levels
        monkeypatch.chdir(tmp_path)
        assert main(["sweep-variance", "--gamma", gamma, "--out", "sweep.csv"]) == code
        if code:
            assert not (tmp_path / "sweep.csv").exists()
            assert re.search(r"truncation headroom: sweep column (ideal|N\d) at re_alpha=\d\.\d+ "
                             r"holds \S+ of its probability", capsys.readouterr().err)

    def test_zero_probability_outcome_exits_two(self, tmp_path, monkeypatch, capsys):
        from cubicphase import analysis
        from cubicphase.errors import DegenerateOutcomeError

        def degenerate(*args):
            raise DegenerateOutcomeError("every outcome of the draw has zero probability")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(analysis, "run_ensemble", degenerate)
        assert main(["simulate", "--out", "sim.csv"]) == 2
        assert "zero probability" in capsys.readouterr().err

    def test_config_file_plus_flags(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        f = tmp_path / "c.cfg"
        f.write_text("cutoff=24\nseed=3\n")
        assert main(["check-identities", "--config", str(f), "--out", "x.csv"]) == 0


class TestInPlaceWrite:
    """``--out`` is rewritten in place and a regular file cut to its new
    length, so a rerun leaves exactly the bytes of a fresh write."""

    QUICK = ["--max-attempts", "50", "--seed", "4"]

    @pytest.mark.parametrize("before, after", [(8, 1), (1, 8)],
                             ids=["shorter-over-longer", "longer-over-shorter"])
    def test_rerun_matches_fresh_write(self, tmp_path, before, after):
        reused, fresh = tmp_path / "reused.csv", tmp_path / "fresh.csv"
        for ensemble, out in ((before, reused), (after, reused), (after, fresh)):
            assert main(["simulate", "--ensemble", str(ensemble), *self.QUICK,
                         "--out", str(out)]) == 0
        assert reused.read_bytes() == fresh.read_bytes()
        assert len(read_csv(fresh)) == 1 + after

    @pytest.mark.parametrize("argv", [
        ["simulate", "--ensemble", "1", *QUICK],
        ["check-identities"],
    ], ids=["simulate", "check-identities"])
    def test_special_file_is_not_truncated(self, argv):
        # ftruncate on /dev/null fails with EINVAL
        assert main([*argv, "--out", os.devnull]) == 0

    @pytest.mark.parametrize("argv", [
        ["simulate", "--ensemble", "8", *QUICK],
        ["check-identities"],
    ], ids=["simulate", "check-identities"])
    def test_short_writes_are_retried(self, argv, tmp_path, monkeypatch):
        # a pipe or a signal can make os.write return a short count
        full, short = tmp_path / "full.csv", tmp_path / "short.csv"
        assert main([*argv, "--out", str(full)]) == 0
        real_write, sizes = os.write, []

        def write_seven(fd, data):
            sizes.append(real_write(fd, data[:7]))
            return sizes[-1]

        monkeypatch.setattr(os, "write", write_seven)
        assert main([*argv, "--out", str(short)]) == 0
        assert short.read_bytes() == full.read_bytes()
        assert len(sizes) == -(-full.stat().st_size // 7)

    def test_failure_mid_ensemble_leaves_out_untouched(self, tmp_path, monkeypatch):
        from cubicphase import analysis
        from cubicphase.errors import DegenerateOutcomeError

        real_run_ensemble, calls = analysis.run_ensemble, []

        def third_run_degenerates(*args):
            calls.append(args)
            if len(calls) == 3:
                raise DegenerateOutcomeError("every outcome of the draw has zero probability")
            return real_run_ensemble(*args)

        out = tmp_path / "sim.csv"
        out.write_bytes(b"old bytes\n")
        monkeypatch.setattr(analysis, "run_ensemble", third_run_degenerates)
        assert main(["simulate", "--ensemble", "8", *self.QUICK, "--out", str(out)]) == 2
        assert len(calls) == 3
        assert out.read_bytes() == b"old bytes\n"


def test_simulate_memory_stays_at_the_size_of_its_csv(tmp_path):
    # a run's result and trial log must not outlive its CSV row (~11 B here)
    def peak(ensemble):
        cfg = parse_config(None, {"ensemble": ensemble, "max_attempts": 1,
                                  "out": str(tmp_path / "sim.csv")})
        tracemalloc.start()
        try:
            assert run("simulate", cfg) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(300)  # fills the caches
    assert (peak(1200) - peak(300)) / 900 <= 100


# the rus_herald benchmark physics: the seeds at which a run's output, or the
# state its exhausted factor leaves, fails the truncation-headroom check, with
# the state and share the message names; and the (success, total_attempts)
# of seeds 1-20.  Both are the same under the OpenBLAS Prescott, Haswell and
# default kernels, so they pin simulate's draws, not the float bits.
HERALD_EXITS = {
    2238686672: ("the gate output after factor l=0, repetition 1, attempt 3", "1.62e-06"),
    841800502: ("the gate output after factor l=0, repetition 1, attempt 4", "1.73e-06"),
    2376810344: ("the failure state after factor l=1, repetition 1, attempt 500", "1.17e-06"),
}
HERALD_OUTCOMES = [(1, 28), (1, 27), (1, 18), (1, 37), (1, 34), (1, 76), (1, 22), (1, 32),
                   (1, 17), (1, 35), (1, 31), (1, 19), (1, 16), (1, 17), (1, 26), (1, 21),
                   (1, 17), (1, 22), (1, 51), (1, 32)]


def _herald_simulate(tmp_path, seed) -> int:
    herald = tmp_path / "herald.cfg"
    herald.write_text(HERALD_LINES)
    with pytest.warns(UserWarning, match="weak-subtraction"):
        return main(["simulate", "--config", str(herald), "--seed", str(seed),
                     "--out", str(tmp_path / "sim.csv")])


@pytest.mark.parametrize("seed", list(HERALD_EXITS))
def test_rus_herald_headroom_exits_are_pinned(seed, tmp_path, capsys):
    where, share = HERALD_EXITS[seed]
    assert _herald_simulate(tmp_path, seed) == 2
    err = capsys.readouterr().err
    assert f"truncation headroom: {where} holds {share} of its probability" in err, err


def test_rus_herald_outcomes_are_pinned(tmp_path):
    outcomes = []
    for seed in range(1, 21):
        assert _herald_simulate(tmp_path, seed) == 0
        [row] = read_csv(tmp_path / "sim.csv")[1:]
        outcomes.append((int(row[1]), int(row[2])))
    assert outcomes == HERALD_OUTCOMES


# the rus_exhaust benchmark physics: the CLI defaults with a 400-attempt budget
EXHAUST_FLAGS = ["--ensemble", "1", "--max-attempts", "400", "--purity-tol", "1e-3"]
# simulate's CSV rows at the rus_herald and rus_exhaust physics, seeds 1-20,
# under the default OpenBLAS kernel.  Integer and empty fields are draws and
# must match exactly; float fields moved by at most 1.5e-15 relative under
# other kernels, and are held to 1e-13.
SIMULATE_ROWS = {
    "herald": [
        '0,1,28,0.998306909404183,0.9983069699075592',
        '0,1,27,0.9990673347416308,0.9990673941900382',
        '0,1,18,0.9984033089367761,0.9984033480477085',
        '0,1,37,0.982816593020139,0.9828166280030121',
        '0,1,34,0.9642031151347931,0.9642030836924658',
        '0,1,76,0.9087060685077932,0.9087059491985324',
        '0,1,22,0.991920741962101,0.9919207716279009',
        '0,1,32,0.9982482798906914,0.9982483552090728',
        '0,1,17,0.998455327107451,0.9984553722921209',
        '0,1,35,0.9986290580593264,0.9986291364430844',
        '0,1,31,0.9888525059845534,0.9888525705183713',
        '0,1,19,0.9953522252284684,0.9953522666384191',
        '0,1,16,0.999219324820759,0.9992193618227776',
        '0,1,17,0.9920592124672476,0.9920592307782565',
        '0,1,26,0.9964894574659239,0.9964895073764549',
        '0,1,21,0.996780131841905,0.9967801804862987',
        '0,1,17,0.9985173241759017,0.9985173608551137',
        '0,1,22,0.9988666518154055,0.9988667087408029',
        '0,1,51,0.9884619496304378,0.988462031979157',
        '0,1,32,0.9988630748232198,0.9988631502412002',
    ],
    "exhaust": ["0,0,400,,"] * 20,
}


def _simulate_row(tmp_path, case, seed) -> str:
    if case == "herald":
        assert _herald_simulate(tmp_path, seed) == 0
    else:
        assert main(["simulate", *EXHAUST_FLAGS, "--seed", str(seed),
                     "--out", str(tmp_path / "sim.csv")]) == 0
    [row] = (tmp_path / "sim.csv").read_text().splitlines()[1:]
    return row


@pytest.mark.parametrize("case", list(SIMULATE_ROWS))
def test_simulate_rows_are_pinned(case, tmp_path):
    for seed, want in enumerate(SIMULATE_ROWS[case], start=1):
        got = _simulate_row(tmp_path, case, seed).split(",")
        assert len(got) == len(want.split(",")), (seed, got)
        for g, w in zip(got, want.split(",")):
            if "." in w:
                assert float(g) == pytest.approx(float(w), rel=1e-13, abs=0.0), (seed, got)
            else:
                assert g == w, (seed, got)


# one flag per config key a run's caches may read, at a value other than the
# rus_herald config's: a dark rate of 1e9 Hz is ν = 0.1 per window, and a
# budget of 2 cuts off factors that click later, so a cache keyed without ν or
# the budget would move seed 3's row
OTHER_CONFIGS = {"gamma": "0.002", "N": "1", "alpha1": "3.0", "transmittance": "0.97",
                 "eta": "0.9", "dark_rate_hz": "1e9", "window_s": "1e-9", "cutoff": "10",
                 "max_attempts": "2", "input_alpha": "0.3"}


def _clear_simulate_caches():
    for cache in (protocol.factor_model, protocol.FactorModel.attempt_rows,
                  protocol.FactorModel.update_row, protocol._photon_cdf,
                  analysis._scored_input, analysis._gate_targets):
        cache.cache_clear()


@pytest.mark.parametrize("key", list(OTHER_CONFIGS))
def test_simulate_does_not_depend_on_an_earlier_configuration(key, tmp_path):
    # the engine's caches are keyed on every parameter that builds them
    _clear_simulate_caches()
    want = _simulate_row(tmp_path, "herald", 3)
    _clear_simulate_caches()
    herald = tmp_path / "herald.cfg"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        main(["simulate", "--config", str(herald), "--" + key.replace("_", "-"),
              OTHER_CONFIGS[key], "--seed", "3", "--out", str(tmp_path / "other.csv")])
    assert _simulate_row(tmp_path, "herald", 3) == want


# the dense_analysis Marek shot: the homodyne bin, an index into the resource's
# x̂ eigenvalues, of seeds 0-199.  The resource cutoff 40 is even, so no bin is
# the zero mode and every shot applies the feed-forward.
MAREK_BINS = [
    19, 18, 16, 14, 23, 21, 19, 19, 17, 22, 24, 15, 16, 22, 21, 20, 19, 22, 17, 18,
    16, 21, 17, 20, 17, 15, 18, 20, 22, 13, 16, 22, 15, 18, 10, 17, 15, 20, 18, 18,
    20, 24, 21, 20, 15, 19, 23, 20, 17, 17, 21, 23, 19, 11, 16, 21, 20, 20, 17, 19,
    17, 17, 19, 19, 23, 13, 23, 18, 18, 19, 17, 16, 21, 18, 22, 16, 21, 21, 18, 23,
    20, 18, 27, 17, 20, 13, 19, 19, 16, 19, 17, 16, 19, 25, 16, 19, 20, 20, 23, 18,
    21, 23, 15, 17, 21, 19, 25, 20, 22, 19, 23, 15, 14, 14, 20, 20, 15, 22, 23, 24,
    22, 19, 21, 20, 21, 22, 10, 13, 20, 17, 18, 19, 15, 25, 24, 19, 15, 22, 19, 18,
    20, 20, 12, 18, 21, 19, 21, 26, 19, 14, 10, 18, 16, 23, 19, 17, 15, 16, 24, 21,
    19, 18, 14, 21, 14, 18, 20, 14, 16, 18, 21, 14, 15, 14, 23, 19, 23, 18, 21, 23,
    19, 21, 15, 24, 12, 16, 19, 16, 14, 18, 19, 24, 20, 18, 22, 13, 22, 23, 21, 20,
]


def _dense_marek_shot(seed, r_width=1.5, gamma=0.03, cutoffs=(30, 40), max_loss=1e-8):
    return schemes.marek_gate(coherent(0.3, cutoffs[0]), r_width, gamma,
                              np.random.default_rng(seed), cutoffs, max_loss=max_loss)


def test_marek_shot_outcomes_are_pinned():
    evals = x_eigh(40)[0]
    outcomes = [_dense_marek_shot(seed)[1:] for seed in range(200)]
    assert outcomes == [(float(evals[b]), True) for b in MAREK_BINS]


@pytest.mark.parametrize("other", [dict(r_width=2.0), dict(gamma=0.05), dict(cutoffs=(30, 41)),
                                   dict(cutoffs=(31, 40)), dict(max_loss=1e-6)],
                         ids=["r_width", "gamma", "res_cutoff", "sys_cutoff", "max_loss"])
def test_marek_shot_does_not_depend_on_an_earlier_configuration(other):
    # the shot's cached kernel is keyed on every parameter that builds it
    schemes._marek_kernel.cache_clear()
    want = _dense_marek_shot(3)
    schemes._marek_kernel.cache_clear()
    _dense_marek_shot(3, **other)
    got = _dense_marek_shot(3)
    assert got[1:] == want[1:]
    assert got[0].amplitudes.tobytes() == want[0].amplitudes.tobytes()


# per subcommand: extra flags and the CSV line count, header included
SCIPY_FREE_RUNS = {
    "simulate": (["--ensemble", "2", "--max-attempts", "50"], 3),
    "sweep-variance": ([], 8),
    "error-ensemble": ([], 7),
    "compare-schemes": ([], 7),
    "check-identities": ([], 8),
}


@pytest.mark.parametrize("subcommand", list(SCIPY_FREE_RUNS))
def test_subcommand_leaves_scipy_unloaded(tmp_path, subcommand):
    # a fresh interpreter: the test session itself has imported scipy
    flags, lines = SCIPY_FREE_RUNS[subcommand]
    script = (
        "import sys\n"
        "from cubicphase import cli\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
        "assert 'cubicphase.reference' not in sys.modules\n"
        "from cubicphase.reference import ideal_cubic_gate\n"
        "assert ideal_cubic_gate(0.03, 12).matrix.shape == (12, 12)\n"
        "assert 'scipy.linalg' in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = tmp_path / "out.csv"
    proc = subprocess.run([sys.executable, "-c", script, subcommand, *flags, "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(read_csv(out)) == lines


def test_marek_shot_leaves_scipy_unloaded():
    # a fresh interpreter: the squeezed resource is built in closed form
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from cubicphase import schemes\n"
        "from cubicphase.hilbert import coherent\n"
        "state, q, applied = schemes.marek_gate(coherent(0.3, 30), 1.5, 0.03,\n"
        "                                       np.random.default_rng(7), (30, 40))\n"
        "assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-9\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
        "assert 'cubicphase.reference' not in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _marek_shot(out):
    # the dense_analysis shot; its homodyne bin is nonzero, so the feed-forward runs
    _, q, applied = schemes.marek_gate(coherent(0.3, 30), 1.5, 0.03,
                                       np.random.default_rng(7), (30, 40))
    return 0 if applied and q != 0.0 else 1


def test_check_identities_fits_once_per_cutoff(tmp_path, monkeypatch):
    # the five fits are cached per cutoff: a warm run makes no banded product,
    # and its rows are the cached fits
    out = str(tmp_path / "ids.csv")
    calls = []
    product = cubic._product
    monkeypatch.setattr(cubic, "_product", lambda a, b: calls.append(1) or product(a, b))
    cubic.identity_rows.cache_clear()
    assert main(["check-identities", "--cutoff", "80", "--out", out]) == 0
    assert calls  # a cold run does
    calls.clear()
    assert main(["check-identities", "--cutoff", "80", "--out", out]) == 0
    assert calls == []
    assert read_csv(out)[1:6] == [[name, repr(c), repr(residual), "80"]
                                  for name, c, residual in cubic.identity_rows(80)]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_check_identities_at_the_top_cutoff_stays_small(tmp_path):
    # a fresh interpreter reports its own peak RSS: VmHWM, in KiB.  Its
    # ru_maxrss would not do: Linux carries the peak of the address space an
    # exec replaces into it, here the whole test process's
    out = tmp_path / "ids.csv"
    script = (
        "import sys\n"
        "from cubicphase.cli import main\n"
        "code = main(['check-identities', '--cutoff', '3000', '--out', sys.argv[1]])\n"
        "print(*[line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM')])\n"
        "sys.exit(code)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script, str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) < 100 * 1024
    fits = {r[0]: (float(r[1]), float(r[2])) for r in read_csv(out)[1:6]}
    assert all(abs(c - (4.0 if name.startswith("monomial") else 2.0)) <= 1e-12
               and residual < 1e-8 for name, (c, residual) in fits.items()), fits


def _decomposition_rows(out: str, *flags) -> dict:
    assert main(["check-identities", "--cutoff", "24", *flags, "--out", out]) == 0
    return {r[0]: float(r[2]) for r in read_csv(out)[1:] if r[0] in ("factorization", "norm_identity")}


@pytest.mark.parametrize("n", [1, 3, 7])
@pytest.mark.parametrize("gamma", [1e-4, 0.03, 0.1, 1.0])
def test_decomposition_rows_are_coefficient_residuals(tmp_path, gamma, n):
    # Π_l (1 + γ_l x̂) and its Hermitian square against 1 + i(γ/N)x̂³ and
    # 1 + (γ/N)²x̂⁶, coefficient by coefficient: rounding alone, at any cutoff
    rows = _decomposition_rows(str(tmp_path / "ids.csv"), "--gamma", repr(gamma), "--N", str(n))
    assert len(rows) == 2 and max(rows.values()) <= 1e-15


def test_decomposition_rows_see_a_wrong_factor(tmp_path, monkeypatch):
    gamma_factors = cubic.gamma_factors

    def shifted(gamma, n):
        dec = gamma_factors(gamma, n)
        return cubic.CubicDecomposition(gamma, n, (dec.gamma_l[0] + 1e-6, *dec.gamma_l[1:]))

    monkeypatch.setattr(cubic, "gamma_factors", shifted)
    rows = _decomposition_rows(str(tmp_path / "ids.csv"))
    assert len(rows) == 2 and min(rows.values()) >= 1e-7


# the dense_analysis operations, at its sizes
DENSE_ANALYSIS_RUNS = {
    "sweep-variance": lambda out: main(["sweep-variance", "--cutoff", "120", "--out", out]),
    "check-identities": lambda out: main(["check-identities", "--cutoff", "80", "--out", out]),
    "marek": _marek_shot,
}


@pytest.mark.parametrize("operation", list(DENSE_ANALYSIS_RUNS))
def test_dense_analysis_builds_no_fock_operator(tmp_path, monkeypatch, operation):
    # x̂ and p̂ act in the x̂ eigenbasis: once a warm-up run has filled the cached
    # eigenbases, a second run constructs no dense operator
    run_once, out = DENSE_ANALYSIS_RUNS[operation], str(tmp_path / "out.csv")
    assert run_once(out) == 0
    built = []
    post_init = FockOperator.__post_init__

    def counting_post_init(self):
        built.append(self.matrix.shape)
        post_init(self)

    monkeypatch.setattr(FockOperator, "__post_init__", counting_post_init)
    assert run_once(out) == 0
    assert built == []
