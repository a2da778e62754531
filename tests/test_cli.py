import numpy as np
import pytest

from fisheye import cli
from fisheye.errors import RootNotFoundError
from fisheye.greens import GreensValue


def _run(argv):
    return cli.main(argv)


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[-1] == ""  # trailing LF
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    return header, rows


def _fmt_per_value(value) -> str:
    """The per-value CSV formatter the row formats must reproduce byte for byte."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


class TestWriteCsv:
    def test_row_formats_match_per_value_formatter(self, tmp_path):
        rows = [
            (0, 1.5, -0.0, float("nan")),
            (10**12, np.int64(-7), np.float64(1 / 3), float("inf")),
            (2**63 + 5, np.int32(0), -float("inf"), 1e-320),
            (np.float64(-0.0), np.uint64(2**64 - 1), True, 123456789012.5),
            (1.0, 2, 3.0),
            (np.float64(1e22), np.float32(0.1), 7, np.float64("nan")),
        ]
        out = tmp_path / "rows.csv"
        cli._write_csv(str(out), ["a", "b", "c", "d"], rows)
        want = "\n".join(["a,b,c,d"] + [",".join(_fmt_per_value(v) for v in row) for row in rows]) + "\n"
        assert out.read_bytes() == want.encode("utf-8")


class TestValidate:
    def test_quick_suite_passes_within_budget(self, capsys):
        import time

        t0 = time.time()
        assert _run(["validate", "--quick"]) == 0
        assert time.time() - t0 < 10.0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_sign_flip_mutation_fails(self, monkeypatch, capsys):
        # flipping the closed-form sign must break the mode-sum equivalence
        original = cli.greens.greens_zz

        def flipped(cfg, p1, p2, omega):
            return GreensValue(-original(cfg, p1, p2, omega).value)

        monkeypatch.setattr(cli.greens, "greens_zz", flipped)
        assert _run(["validate", "--quick"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestDdiSweep:
    def test_csv_contract(self, tmp_path):
        out = tmp_path / "ddi.csv"
        code = _run(
            ["ddi-sweep", "--radii", "4.93", "--samples", "101", "--out", str(out)]
        )
        assert code == 0
        header, rows = _read_csv(out)
        assert header == ["R0_over_lambda", "x_over_lambda", "ddi_over_Gamma0"]
        assert len(rows) >= 99
        # 12 significant digits in the payload
        assert any(len(r[2].replace("-", "").replace(".", "").lstrip("0").rstrip("e")) >= 11 for r in rows)

    def test_deterministic_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["ddi-sweep", "--radii", "4.93,8.11", "--samples", "41"]
        assert _run(args + ["--out", str(a)]) == 0
        assert _run(args + ["--out", str(b), "--workers", "3"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rows_sorted_by_sweep_coordinate(self, tmp_path):
        out = tmp_path / "ddi.csv"
        _run(["ddi-sweep", "--radii", "8.11,4.93", "--samples", "21", "--out", str(out)])
        _, rows = _read_csv(out)
        keys = [(float(r[0]), float(r[1])) for r in rows]
        assert keys == sorted(keys)

    def test_bad_offset_is_usage_error(self, tmp_path):
        code = _run(["ddi-sweep", "--radii", "4.93", "--offset", "-1", "--out", str(tmp_path / "x.csv")])
        assert code == 2


class TestDynamics:
    def test_columns_and_t0_marker(self, tmp_path):
        out = tmp_path / "dyn.csv"
        assert _run(["dynamics", "--R0", "3.34", "--alpha", "5e-4", "--samples", "400", "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["t_Gamma0", "pop1", "pop2", "bell_fidelity", "t0_marker"]
        markers = [int(r[4]) for r in rows]
        assert sum(markers) == 1
        assert float(rows[0][1]) == pytest.approx(1.0)
        assert float(rows[0][3]) == pytest.approx(0.5)

    def test_lossless_oscillation_undamped(self, tmp_path):
        out = tmp_path / "dyn.csv"
        _run(["dynamics", "--R0", "3.34", "--alpha", "0", "--samples", "600", "--out", str(out)])
        _, rows = _read_csv(out)
        total = [float(r[1]) + float(r[2]) for r in rows]
        assert max(abs(t - 1.0) for t in total) < 1e-12

    def test_simulate_adds_columns(self, tmp_path):
        out = tmp_path / "dyn.csv"
        assert _run(
            ["dynamics", "--nu-center", "10.5", "--alpha", "5e-4", "--samples", "200",
             "--simulate", "--out", str(out)]
        ) == 0
        header, rows = _read_csv(out)
        assert header[-3:] == ["sim_pop1", "sim_pop2", "sim_bell_fidelity"]
        # simulation tracks the closed form at the few-percent level
        mid = len(rows) // 3
        assert float(rows[mid][5]) == pytest.approx(float(rows[mid][1]), abs=0.05)


class TestFidelity:
    def test_vs_loss(self, tmp_path):
        out = tmp_path / "f.csv"
        assert _run(
            ["fidelity", "--mode", "vs-loss", "--radii", "3.34", "--samples", "7", "--out", str(out)]
        ) == 0
        header, rows = _read_csv(out)
        assert header == ["R0_over_lambda", "alpha", "one_minus_F_analytic"]
        errs = [float(r[2]) for r in rows]
        assert all(b > a for a, b in zip(errs, errs[1:]))  # monotone in alpha

    def test_vs_detuning_u_shape(self, tmp_path):
        out = tmp_path / "f.csv"
        assert _run(
            ["fidelity", "--mode", "vs-detuning", "--radii", "3.34", "--samples", "9", "--out", str(out)]
        ) == 0
        _, rows = _read_csv(out)
        errs = {float(r[1]): float(r[2]) for r in rows}
        assert errs[min(errs)] > errs[0.0] and errs[max(errs)] > errs[0.0]

    def test_vs_radius_emits_both_formulas(self, tmp_path):
        out = tmp_path / "f.csv"
        assert _run(
            ["fidelity", "--mode", "vs-radius", "--nu-min", "10.5", "--nu-max", "30.5", "--out", str(out)]
        ) == 0
        header, rows = _read_csv(out)
        assert header == ["R0_over_lambda", "one_minus_F_analytic", "F_approx"]
        for r in rows:
            assert (1.0 - float(r[1])) == pytest.approx(float(r[2]), rel=0.02)

    def test_vs_radius_simulate_runs_no_simulation(self, monkeypatch, tmp_path):
        argv = ["fidelity", "--mode", "vs-radius", "--nu-min", "10.5", "--nu-max", "20.5"]
        plain, simulated = tmp_path / "plain.csv", tmp_path / "sim.csv"
        assert _run(argv + ["--out", str(plain)]) == 0

        def forbidden(*args, **kwargs):
            raise AssertionError("vs-radius has no numeric column to simulate")

        monkeypatch.setattr(cli.schrodinger, "compare_to_analytics", forbidden)
        assert _run(argv + ["--simulate", "--out", str(simulated)]) == 0
        assert simulated.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("mode", ["vs-loss", "vs-detuning"])
    def test_simulate_keeps_the_analytic_columns(self, mode, tmp_path):
        argv = ["fidelity", "--mode", mode, "--radii", "1.749", "--samples", "3"]
        plain, simulated = tmp_path / "plain.csv", tmp_path / "sim.csv"
        assert _run(argv + ["--out", str(plain)]) == 0
        assert _run(argv + ["--simulate", "--out", str(simulated)]) == 0
        plain_lines = plain.read_text(encoding="utf-8").splitlines()
        sim_lines = simulated.read_text(encoding="utf-8").splitlines()
        assert sim_lines[0] == plain_lines[0] + ",one_minus_F_numeric"
        assert [line.rsplit(",", 1)[0] for line in sim_lines[1:]] == plain_lines[1:]

    def test_overflowing_fidelity_is_a_clean_error(self, tmp_path, capsys, monkeypatch):
        # delta_nu = +-0.49999 around Re nu = 20.5 at alpha = 5e-4 without the
        # on-site decay: cosh(q |gamma_coop|) overflows in F
        monkeypatch.setattr(cli.qed, "_onsite_gamma", lambda b, nu: 0.0 * np.real(nu))
        out = tmp_path / "f.csv"
        assert _run(
            ["fidelity", "--mode", "vs-detuning", "--radii", "3.34", "--samples", "3",
             "--dnu-span", "0.49999", "--alpha", "5e-4", "--out", str(out)]
        ) == 1
        assert "overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_rates_above_the_on_site_decay_are_a_clean_error(self, tmp_path, capsys):
        # delta_nu = +0.49999 (q |gamma_coop| ~ 2,480) gives a representable
        # F ~ 0; at delta_nu = -0.49999 |gamma_coop| > |gamma| and F ~ 1.7e32
        out = tmp_path / "f.csv"
        assert _run(
            ["fidelity", "--mode", "vs-detuning", "--radii", "3.34", "--samples", "3",
             "--dnu-span", "0.49999", "--alpha", "5e-4", "--out", str(out)]
        ) == 1
        assert "above 1" in capsys.readouterr().err
        assert not out.exists()

    def test_one_legendre_call_per_radius(self, monkeypatch, tmp_path):
        calls = []
        real = cli.greens.legendre_nu

        def counting(nu, x, **kwargs):
            calls.append(np.shape(nu))
            return real(nu, x, **kwargs)

        monkeypatch.setattr(cli.greens, "legendre_nu", counting)
        assert _run(
            ["fidelity", "--mode", "vs-loss", "--radii", "1.749,3.34", "--samples", "11",
             "--out", str(tmp_path / "f.csv")]
        ) == 0
        assert calls == [(11, 1), (11, 1)]

    def test_mode_required(self):
        with pytest.raises(SystemExit) as exc:
            _run(["fidelity"])
        assert exc.value.code == 2


class TestPlasmon:
    def test_index_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert _run(["plasmon", "index-sweep", "--d-max", "200", "--step", "5", "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["d_nm", "n_eff", "chi"]
        assert float(rows[0][1]) == pytest.approx(1.020, abs=1e-3)
        assert float(rows[-1][1]) > 1.9

    def test_estimate_prints_both_budgets(self, tmp_path, capsys):
        assert _run(["plasmon", "estimate", "--samples", "150"]) == 0
        out = capsys.readouterr().out
        assert "alpha_mirror (formula)" in out and "alpha_mirror (reference)" in out
        headline = [line for line in out.splitlines() if "headline" in line][0]
        assert float(headline.split("=")[1]) == pytest.approx(0.806, abs=5e-3)

    def test_recomputed_mirror_loss_flag(self, capsys):
        assert _run(["plasmon", "estimate", "--samples", "150", "--recomputed-mirror-loss"]) == 0
        out = capsys.readouterr().out
        headline = [line for line in out.splitlines() if "headline" in line][0]
        assert 0.74 <= float(headline.split("=")[1]) <= 0.78

    def test_nonconvergence_exit_code(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RootNotFoundError("injected")

        monkeypatch.setattr(cli.plasmon, "sweep_effective_index", broken)
        assert _run(["plasmon", "index-sweep", "--d-max", "10"]) == 3


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("samples = 21\nradii = 4.93  # single radius\n", encoding="utf-8")
        out1 = tmp_path / "a.csv"
        assert _run(["ddi-sweep", "--config", str(config), "--out", str(out1)]) == 0
        _, rows = _read_csv(out1)
        assert len(rows) in (20, 21)
        out2 = tmp_path / "b.csv"
        assert _run(["ddi-sweep", "--config", str(config), "--samples", "11", "--out", str(out2)]) == 0
        _, rows2 = _read_csv(out2)
        assert len(rows2) in (10, 11)

    def test_malformed_config_is_usage_error(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("this is not a key value line\n", encoding="utf-8")
        assert _run(["ddi-sweep", "--config", str(config)]) == 2

    def test_missing_config_is_usage_error(self, tmp_path):
        assert _run(["ddi-sweep", "--config", str(tmp_path / "nope.cfg")]) == 2


class TestArgparseContract:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            _run(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            _run(["validate", "--frobnicate"])
        assert exc.value.code == 2

    def test_plot_script_emitted(self, tmp_path):
        out, script = tmp_path / "d.csv", tmp_path / "plot.py"
        assert _run(
            ["ddi-sweep", "--radii", "4.93", "--samples", "11", "--out", str(out),
             "--plot-script", str(script)]
        ) == 0
        text = script.read_text(encoding="utf-8")
        assert "matplotlib" in text and "ddi_over_Gamma0" in text
