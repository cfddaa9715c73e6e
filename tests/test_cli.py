import csv
from pathlib import Path

import pytest

from cubicphase.cli import main, parse_config, run


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
# every bounded float key must also reject NaN, which argparse accepts
NAN_KEYS = ("gamma", "alpha1", "transmittance", "eta", "dark_rate_hz", "window_s", "purity_tol")
INVALID_CASES = list(INVALID_VALUES.items()) + [(key, "nan") for key in NAN_KEYS]
INVALID_IDS = list(INVALID_VALUES) + [f"{key}-nan" for key in NAN_KEYS]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config(None)
        assert cfg.gamma == 0.03
        assert cfg.n == 1
        assert cfg.transmittance == 0.99
        assert cfg.eta == 0.9
        assert cfg.dark_rate_hz == 100.0
        assert cfg.window_s == 1e-10

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
            assert float(r[2]) < 1e-6

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
        assert rows[0][0] == "p"
        row_p1 = [r for r in rows[1:] if float(r[0]) == 0.1][0]
        assert float(row_p1[1]) == pytest.approx(10.0)
        assert float(row_p1[4]) == pytest.approx(1110.0)
        assert row_p1[5] == "n/a"

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
    def test_validation_exit_one(self, key, value, capsys):
        assert main(["check-identities", "--" + key.replace("_", "-"), value]) == 1
        assert f"config key '{key}'" in capsys.readouterr().err

    def test_successive_calls_do_not_share_flags(self, tmp_path, monkeypatch):
        # main builds its parser once per process; a flag given to one call
        # must not reach the next
        monkeypatch.chdir(tmp_path)
        assert main(["check-identities", "--cutoff", "24", "--out", "a.csv"]) == 0
        assert main(["check-identities", "--out", "b.csv"]) == 0
        assert {r[3] for r in read_csv(tmp_path / "a.csv")[1:]} == {"24"}
        assert {r[3] for r in read_csv(tmp_path / "b.csv")[1:]} == {"30"}

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
        # e^{−I/2} and (1+γ_l λ)^K under- and overflow double precision here
        ["--alpha1", "60", "--transmittance", "0.5", "--eta", "1", "--dark-rate-hz", "0",
         "--cutoff", "8", "--max-attempts", "50", "--purity-tol", "0.9"],
    ], ids=["readme-recipe", "alpha1-60"])
    def test_strong_simulate_exits_zero(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.warns(UserWarning, match="weak-subtraction"):
            assert main(["simulate", *argv, "--out", "sim.csv"]) == 0
        rows = read_csv(tmp_path / "sim.csv")[1:]
        assert rows and all(r[1] == "1" for r in rows)

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
