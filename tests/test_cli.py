import argparse
import contextlib
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fisheye import cli
from fisheye.errors import EigensolveError, NonConvergenceError, RootNotFoundError


def _run(argv):
    return cli.main(argv)


def _exit_code(argv):
    """main's return value, or the code of the SystemExit that argparse raised."""
    try:
        return _run(argv)
    except SystemExit as exc:
        return exc.code


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
        columns = [
            np.array([-0.0, float("inf"), -float("inf"), float("nan"), 1e-320, 1e22]),
            np.array([1 / 3, 123456789012.5, 0.0, -2.5, 7.0, 1e-5]),
            np.array([0.1, -0.1, 1.0, 3.0, 0.0, 2.0], dtype=np.float32),
            np.array([0, -7, 10**12, -(10**12), 1, 2**62], dtype=np.int64),
            np.array([0, 1, 10**12, 2**63 + 5, 2**64 - 1, 3], dtype=np.uint64),
        ]
        out = tmp_path / "rows.csv"
        cli._write_csv(str(out), ["a", "b", "c", "d", "e"], columns)
        want = "\n".join(["a,b,c,d,e"] + [",".join(_fmt_per_value(v) for v in row) for row in zip(*columns)]) + "\n"
        assert out.read_bytes() == want.encode("utf-8")

    def test_no_rows_writes_the_header(self, tmp_path):
        out = tmp_path / "rows.csv"
        cli._write_csv(str(out), ["a", "b"], [np.array([]), np.array([], dtype=np.int64)])
        assert out.read_bytes() == b"a,b\n"

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            cli._write_csv(str(tmp_path / "rows.csv"), ["a", "b"], [np.zeros(3), np.zeros(2)])

    @staticmethod
    def _regimes(rows: int) -> list[np.ndarray]:
        """Six seeded columns of rows cells over every regime of %.12g and %d."""
        rng = np.random.default_rng(30)
        # every binary exponent, so every decade from the subnormals to 1.8e308, of both signs
        exponents = np.resize(np.arange(-1074, 1024), rows)
        decades = np.ldexp(rng.uniform(0.5, 1.0, rows), exponents) * rng.choice([-1.0, 1.0], rows)
        # 12 digits and a half, then within 1e-3 of the half, at decimal exponents -11 .. 33;
        # exact ties (2N + 1) 5^j 2^(j - 1) = (N + 0.5) 10^j, j = 0 .. 5; integral floats 1e11 .. 1e17
        digits = rng.integers(10**11, 10**12, rows)
        near = (digits + 0.5 + rng.uniform(-1e-3, 1e-3, rows)) * 10.0 ** rng.integers(-22, 23, rows)
        ties = [(2 * n + 1) * 5**j * 2.0 ** (j - 1) for n, j in zip(digits[:240].tolist(), list(range(6)) * 40)]
        whole = np.floor(10.0 ** rng.uniform(11.0, 17.0, rows // 10))
        special = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 1e11, 1e12, 1e17, 123456789012.5]
        halves = np.resize(np.concatenate([near, ties, whole, special]), rows)
        rng.shuffle(halves)
        single = (rng.normal(size=rows) * 10.0 ** rng.uniform(-44.0, 37.0, rows)).astype(np.float32)
        edge = np.array([0, 1, -1, 10**12 - 1, 10**12, -(10**12), 10**15 + 1, 2**53 + 1, 2**63 - 1, -(2**63)])
        signed = np.where(rng.random(rows) < 0.5, rng.integers(-(10**13), 10**13, rows), np.resize(edge, rows))
        unsigned = np.where(rng.random(rows) < 0.5, rng.integers(0, 2**64, rows, dtype=np.uint64),
                            np.resize(np.array([0, 7, 10**12 - 1, 10**12, 2**63, 2**64 - 1], dtype=np.uint64), rows))
        # grid-like decimals (few digits, some halved) and dyadic fractions
        places = 10.0 ** rng.integers(0, 6, rows)
        decimals = np.rint(rng.uniform(-20.0, 20.0, rows) * places) / places / 2.0 ** rng.integers(0, 4, rows)
        return [decades, halves, single, signed.astype(np.int64), unsigned, decimals]

    def test_formatter_matches_percent_over_every_regime(self, tmp_path):
        # 240,000 cells in 59 blocks of 682 rows
        columns = self._regimes(40_000)
        assert len(columns[0]) * len(columns) >= 200_000
        assert len(columns[0]) > 30 * cli._CSV_BLOCK_CELLS // len(columns)
        out = tmp_path / "rows.csv"
        cli._write_csv(str(out), list("abcdef"), columns)
        lines = out.read_bytes().decode("utf-8").split("\n")
        assert lines[0] == "a,b,c,d,e,f" and lines[-1] == ""
        assert len(lines) == len(columns[0]) + 2
        for r, (line, row) in enumerate(zip(lines[1:], zip(*columns))):
            assert line == ",".join(_fmt_per_value(v) for v in row), f"row {r}"

    @pytest.mark.parametrize("sink", ["out", "stdout"])
    def test_memory_is_bounded_by_the_output(self, tmp_path, sink):
        # blocks written as they are made; a writer that joins every row's text first peaks at ~4.4 x the file
        import tracemalloc

        rows = 400_000
        t = np.linspace(0.0, 40.0, rows)
        columns = [t, np.sin(t) * np.exp(-0.01 * t), np.random.default_rng(5).normal(size=rows)]
        path = tmp_path / "rows.csv"

        def traced_peak(out):
            tracemalloc.start()
            try:
                cli._write_csv(out, ["t", "y", "z"], columns)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        if sink == "out":
            peak = traced_peak(str(path))
        else:
            with open(path, "w", encoding="utf-8", newline="") as fh, contextlib.redirect_stdout(fh):
                peak = traced_peak(None)
        size = path.stat().st_size
        assert size > 12_000_000
        assert peak <= 3 * size
        with open(path, "rb") as fh:
            assert fh.readline() == b"t,y,z\n"
            assert fh.readline() == f"0,{_fmt_per_value(columns[1][0])},{_fmt_per_value(columns[2][0])}\n".encode()


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
        original = cli.greens.greens_zz_orders

        def flipped(*args):
            return -original(*args)

        monkeypatch.setattr(cli.greens, "greens_zz_orders", flipped)
        assert _run(["validate", "--quick"]) == 1
        assert "FAIL" in capsys.readouterr().out


    def test_one_accelerate_call_per_mode_sum_and_one_theta_per_mode_and_rule(self, monkeypatch, capsys):
        # the expansion oracle, one batched mode sum per radius (3) and the
        # rates oracle's Green's-function mode sum; Theta of 36 modes at 64 and 128 nodes
        # over node arrays, and one scalar Theta per mirror-check mode function
        # (l = 1, 4, ..., 40 with the first two allowed m: 1 + 13 * 2 = 27)
        calls = {"accelerate": 0, "theta": 0, "theta_scalar": 0}
        accelerate, theta = cli.specfun.accelerate, cli.lens._theta_lm

        def counted_accelerate(partial_sums):
            calls["accelerate"] += 1
            return accelerate(partial_sums)

        def counted_theta(l, m, u):
            calls["theta" if isinstance(u, np.ndarray) else "theta_scalar"] += 1
            return theta(l, m, u)

        for module in (cli.specfun, cli.greens):
            monkeypatch.setattr(module, "accelerate", counted_accelerate)
        monkeypatch.setattr(cli.lens, "_theta_lm", counted_theta)
        assert _run(["validate"]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert calls["accelerate"] <= 5
        assert calls["theta"] <= 72
        assert calls["theta_scalar"] == 27

    def test_addition_theorem_takes_one_recurrence_per_m_and_angle(self, monkeypatch, capsys):
        # Theta_l^-m comes from Theta_l^m: l + 1 calls per angle for l = 3, 11, 30
        # (the mirror check's mode functions take l = 1, 4, 7, 10)
        calls = []
        theta = cli.specfun._theta_lm

        def counted(l, m, u):
            if l in (3, 11, 30):
                calls.append(m)
            return theta(l, m, u)

        monkeypatch.setattr(cli.specfun, "_theta_lm", counted)
        assert _run(["validate", "--quick"]) == 0
        assert "addition-theorem sum rule          PASS" in capsys.readouterr().out
        assert len(calls) == 2 * (4 + 12 + 31) and min(calls) == 0


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

    @pytest.mark.parametrize("offset", ["-1", "nan", "0", "9.86", "inf"])
    def test_bad_offset_is_usage_error(self, tmp_path, capsys, offset):
        out = tmp_path / "x.csv"
        assert _run(["ddi-sweep", "--radii", "4.93", "--offset", offset, "--out", str(out)]) == 2
        assert f"offset {float(offset)} puts the fixed atom outside the disk" in capsys.readouterr().err
        assert not out.exists()

    def test_order_near_an_integer_exits_3(self, tmp_path, capsys):
        # ROADMAP [legendre-edges]'s known limit: this radius puts nu at 30.0005, whose
        # hypergeometric seeds near the source exceed MAX_TERMS; the command
        # must report it, not write a value ([legendre-edges]'s fix turns this into exit 0)
        out = tmp_path / "ddi.csv"
        assert _run(["ddi-sweep", "--radii", "4.8536530342826705", "--out", str(out)]) == 3
        assert "exceeded 100000 terms" in capsys.readouterr().err
        assert not out.exists()


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

    def test_near_integer_order_stays_finite(self, tmp_path):
        # Re nu = 21: gamma = 222.3, gamma_coop = 181.4 and |delta_omega| = 0.14,
        # so cosh(gamma_coop t) alone overflows on the window (NaN once filled the
        # CSV); the populations themselves fall to e^{-(gamma - gamma_coop) t}/2
        out = tmp_path / "dyn.csv"
        assert _run(["dynamics", "--nu-center", "21", "--samples", "5", "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        values = np.array([[float(v) for v in row[1:4]] for row in rows])
        assert np.all(np.isfinite(values)) and np.all(values >= 0.0)
        assert values[0].tolist() == [1.0, 0.0, 0.5]
        assert np.all(values[1:] < 1e-100)

    def test_near_integer_order_is_a_clean_error(self, tmp_path, capsys):
        # Re nu = 20: |gamma_coop| = 250.8 exceeds gamma = 233.1
        out = tmp_path / "dyn.csv"
        assert _run(["dynamics", "--nu-center", "20", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "above 1" in err and "Traceback" not in err
        assert not out.exists()


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

        monkeypatch.setattr(cli.schrodinger, "compare_losses", forbidden)
        monkeypatch.setattr(cli.schrodinger, "compare_to_analytics", forbidden)
        assert _run(argv + ["--simulate", "--out", str(simulated)]) == 0
        assert simulated.read_bytes() == plain.read_bytes()

    def test_each_simulated_point_uses_its_own_rates(self, tmp_path):
        # the rates come from one batched chain over every (radius, loss); each
        # point must get its own element (the scalar chain agrees to the last bits), and
        # the losses sharing one radius's blocks must not change a digit
        out = tmp_path / "f.csv"
        assert _run(["fidelity", "--mode", "vs-loss", "--simulate", "--radii", "3.34", "--samples", "3",
                     "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        atoms = cli.qed.AtomPairConfig.antipodal(0.27)
        for r in rows:
            cfg = cli.lens.LensConfig(radius=3.34, b=0.1, alpha=float(r[1]))
            cmp = cli.schrodinger.compare_to_analytics(cfg, atoms, cli.qed.coupling_rates(cfg, atoms))
            assert r[3] == _fmt_per_value(1.0 - cmp.F_numeric)

    def test_loss_sweep_builds_each_radius_once(self, monkeypatch, tmp_path):
        calls = []
        build = cli.schrodinger._build_blocks

        def counted(*args):
            calls.append(args[0].radius)
            return build(*args)

        monkeypatch.setattr(cli.schrodinger, "_build_blocks", counted)
        argv = ["fidelity", "--mode", "vs-loss", "--simulate", "--radii", "1.749,3.34", "--samples", "4"]
        assert _run(argv + ["--out", str(tmp_path / "f.csv")]) == 0
        assert calls == [1.749, 3.34]

    def test_detuning_sweep_simulates_each_point_on_its_own_lens(self, monkeypatch, tmp_path):
        # every point of a detuning sweep has a radius of its own; a repeated
        # --radii entry repeats those lenses, which share their blocks
        calls = []
        build = cli.schrodinger._build_blocks

        def counted(*args):
            calls.append(args[0].radius)
            return build(*args)

        monkeypatch.setattr(cli.schrodinger, "_build_blocks", counted)
        out = tmp_path / "f.csv"
        assert _run(["fidelity", "--mode", "vs-detuning", "--simulate", "--radii", "3.34,1.749,3.34",
                     "--samples", "3", "--out", str(out)]) == 0
        assert len(calls) == len(set(calls)) == 6
        monkeypatch.setattr(cli.schrodinger, "_build_blocks", build)
        _, rows = _read_csv(out)
        atoms = cli.qed.AtomPairConfig.antipodal(0.27)
        dnu = dict(zip((f"{x:.12g}" for x in np.linspace(-0.45, 0.45, 3)), np.linspace(-0.45, 0.45, 3).tolist()))
        assert len(rows) == 9
        for r in rows:
            center = {"3.34": 20.5, "1.749": 10.5}[r[0]]
            cfg = cli.lens.LensConfig(radius=cli.lens.radius_for_order(center + dnu[r[1]]), alpha=5e-4)
            cmp = cli.schrodinger.compare_to_analytics(cfg, atoms, cli.qed.coupling_rates(cfg, atoms))
            assert r[3] == _fmt_per_value(1.0 - cmp.F_numeric)

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
        monkeypatch.setattr(cli.qed, "_onsite_gamma", lambda b, nu, sin=None: 0.0 * np.real(nu))
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

    @pytest.mark.parametrize("simulate", [[], ["--simulate"]], ids=["plain", "simulate"])
    @pytest.mark.parametrize("mode", ["vs-loss", "vs-detuning"])
    def test_one_legendre_call_per_command(self, mode, simulate, monkeypatch, tmp_path):
        calls = []
        real = cli.greens.legendre_nu

        def counting(nu, x, **kwargs):
            calls.append(np.shape(nu))
            return real(nu, x, **kwargs)

        monkeypatch.setattr(cli.greens, "legendre_nu", counting)
        assert _run(
            ["fidelity", "--mode", mode, "--radii", "1.749,3.34", "--samples", "11",
             "--out", str(tmp_path / "f.csv")] + simulate
        ) == 0
        assert calls == [(2, 11, 1)]

    @pytest.mark.parametrize("simulate", [[], ["--simulate"]], ids=["plain", "simulate"])
    @pytest.mark.parametrize("mode", ["vs-loss", "vs-detuning", "vs-radius"])
    def test_one_rate_chain_per_mode(self, mode, simulate, monkeypatch, tmp_path):
        # every mode takes its analytic column from one coupling_rate_arrays call
        calls = []
        real = cli.qed.coupling_rate_arrays

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli.qed, "coupling_rate_arrays", counting)
        assert _run(["fidelity", "--mode", mode, "--radii", "1.749,3.34", "--samples", "3",
                     "--out", str(tmp_path / "f.csv")] + simulate) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("simulate", [[], ["--simulate"]], ids=["plain", "simulate"])
    @pytest.mark.parametrize("mode", ["vs-loss", "vs-detuning"])
    def test_radii_in_one_call_give_the_single_radius_rows(self, mode, simulate, tmp_path):
        # the rows of a two-radius sweep are those of the two one-radius sweeps, byte for byte
        def rows(radii):
            out = tmp_path / f"{radii}.csv"
            assert _run(["fidelity", "--mode", mode, "--radii", radii, "--samples", "5",
                         "--out", str(out)] + simulate) == 0
            return out.read_text(encoding="utf-8").splitlines()

        both, first, second = rows("1.749,3.34"), rows("1.749"), rows("3.34")
        assert both[0] == first[0] == second[0]
        assert both[1:] == first[1:] + second[1:]

    def test_mode_required(self):
        with pytest.raises(SystemExit) as exc:
            _run(["fidelity"])
        assert exc.value.code == 2


class TestSweepGrids:
    """Row order of the per-radius sweeps, and empty or negative grids."""

    @staticmethod
    def _stably_sorted_single_radius_runs(tmp_path, argv, radii):
        # each single-radius run is one block in x order; Python's stable sort
        # of all blocks by (R0, x) is the order the multi-radius run must print
        lines = []
        for i, r0 in enumerate(radii.split(",")):
            out = tmp_path / f"single{i}.csv"
            assert _run(argv + ["--radii", r0, "--out", str(out)]) == 0
            lines += out.read_text(encoding="utf-8").splitlines()[1:]
        return sorted(lines, key=lambda line: tuple(float(v) for v in line.split(",")[:2]))

    @pytest.mark.parametrize(
        "argv, radii",
        [
            (["ddi-sweep", "--samples", "21"], "8.11,4.93,8.11"),
            (["fidelity", "--mode", "vs-loss", "--samples", "5"], "14.48,3.34,3.34"),
        ],
        ids=["ddi-sweep", "fidelity-vs-loss"],
    )
    def test_rows_in_stable_sort_order_of_r0_and_x(self, tmp_path, argv, radii):
        out = tmp_path / "all.csv"
        assert _run(argv + ["--radii", radii, "--out", str(out)]) == 0
        got = out.read_text(encoding="utf-8").splitlines()[1:]
        assert got == self._stably_sorted_single_radius_runs(tmp_path, argv, radii)

    @pytest.mark.parametrize(
        "argv",
        [
            ["ddi-sweep", "--samples", "0"],
            ["ddi-sweep", "--samples", "-3"],
            ["ddi-sweep", "--radii", ","],
            ["dynamics", "--samples", "0"],
            ["dynamics", "--samples", "-1"],
            ["fidelity", "--mode", "vs-loss", "--samples", "-2"],
            ["fidelity", "--mode", "vs-loss", "--radii", ","],
            ["fidelity", "--mode", "vs-detuning", "--samples", "0"],
            ["fidelity", "--mode", "vs-radius", "--nu-min", "20.5", "--nu-max", "10.5"],
        ],
        ids=" ".join,
    )
    def test_empty_or_negative_grid_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        assert _run(argv + ["--out", str(out)]) == 2
        assert "bad arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_samples_from_config_are_checked(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("samples = 0\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        assert _run(["ddi-sweep", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()


class TestNonFiniteAndNonPositiveInputs:
    """Inputs that once escaped as a ValueError traceback and exit 1: each is a usage error."""

    @pytest.mark.parametrize("mode", ["vs-detuning", "vs-loss"])
    @pytest.mark.parametrize("radius", ["inf", "nan", "1e400"])
    def test_non_finite_radius_is_usage_error(self, tmp_path, capsys, mode, radius):
        out = tmp_path / "out.csv"
        assert _exit_code(["fidelity", "--mode", mode, "--radii", radius, "--samples", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bad arguments" in err and "must be finite" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key, value", [("alpha-min", "0"), ("alpha-min", "-1e-4"), ("alpha-max", "0"),
                                            ("alpha-max", "-0.01")])
    def test_non_positive_loss_bound_names_its_flag(self, tmp_path, capsys, key, value, source):
        argv = ["fidelity", "--mode", "vs-loss", "--samples", "3", "--out", str(tmp_path / "out.csv")]
        if source == "flag":
            argv += [f"--{key}={value}"]
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"{key.replace('-', '_')} = {value}\n", encoding="utf-8")
            argv += ["--config", str(config)]
        assert _exit_code(argv) == 2
        err = capsys.readouterr().err
        assert f"bad arguments: --{key} must be positive" in err and "Traceback" not in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["fidelity", "--mode", "vs-radius", "--nu-max", "inf"],
            ["fidelity", "--mode", "vs-radius", "--nu-min", "nan"],
            ["plasmon", "index-sweep", "--d-max", "nan"],
            ["plasmon", "index-sweep", "--d-max", "inf"],
            ["plasmon", "index-sweep", "--step", "inf"],
            ["plasmon", "index-sweep", "--lambda0-nm", "nan"],
            ["plasmon", "estimate", "--eta", "nan"],
            ["plasmon", "estimate", "--eps-dielectric", "nan"],
        ],
        ids=" ".join,
    )
    def test_non_finite_number_is_usage_error(self, tmp_path, capsys, argv):
        # each of these died with a traceback, printed NaN, or ran into exit 3
        out = tmp_path / "out.csv"
        assert _exit_code(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bad arguments" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("nu_max", ["1e30", "1e9", "100010.5"])
    def test_oversized_order_grid_names_nu_max(self, tmp_path, capsys, nu_max):
        # 1e30 died in np.arange with a traceback; 100010.5 is one order over the limit from 10.5
        out = tmp_path / "out.csv"
        assert _exit_code(["fidelity", "--mode", "vs-radius", "--nu-max", nu_max, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bad arguments: --nu-max" in err and "more than 100,000" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["ddi-sweep"],
            ["dynamics"],
            ["fidelity", "--mode", "vs-loss"],
            ["fidelity", "--mode", "vs-detuning"],
            ["fidelity", "--mode", "vs-radius"],
            ["plasmon", "estimate"],
        ],
        ids=" ".join,
    )
    def test_samples_above_the_cap_name_the_flag(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        assert _exit_code(argv + ["--samples", "100001", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bad arguments: --samples must lie in [1, 100,000], got 100001" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--d-max", "10001"], "got d_max = 10001 nm, step = 0.5 nm"),
            (["--d-max", "97.6572265625", "--step", "0.0009765625"], "got d_max = 97.6572 nm, step = 0.000976562 nm"),
        ],
        ids=["d-max", "step"],
    )
    def test_oversized_height_grid_is_usage_error(self, tmp_path, capsys, flags, message):
        # 1 nm above the height cap, and a grid of exactly 100,001 steps
        out = tmp_path / "out.csv"
        assert _exit_code(["plasmon", "index-sweep", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bad arguments: " in err and message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["fidelity", "--mode", "vs-detuning", "--radii", "inf"],
            ["fidelity", "--mode", "vs-loss", "--alpha-min", "0"],
        ],
        ids=" ".join,
    )
    def test_process_exits_2_without_traceback(self, argv):
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-m", "fisheye.cli", *argv], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert proc.returncode == 2
        assert "bad arguments" in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestSimulatorOptions:
    """--l-max (or the config key l_max) and the exit code of the simulator path."""

    COMMANDS = {
        "dynamics": ["dynamics", "--simulate", "--samples", "20"],
        "fidelity": ["fidelity", "--mode", "vs-loss", "--simulate", "--samples", "2", "--radii", "3.34"],
    }

    @staticmethod
    def _argv(tmp_path, command, l_max, source):
        argv = list(TestSimulatorOptions.COMMANDS[command])
        if source == "flag":
            return argv + ["--l-max", l_max]
        config = tmp_path / "run.cfg"
        config.write_text(f"l_max = {l_max}\n", encoding="utf-8")
        return argv + ["--config", str(config)]

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["dynamics", "fidelity"])
    def test_l_max_sets_the_mode_ladder(self, monkeypatch, tmp_path, command, source):
        # dynamics builds through build_blocks, the fidelity sweeps through compare_losses; both reach _build_blocks
        build = cli.schrodinger._build_blocks
        seen = []

        def recording(cfg, theta, l_max, tables):
            seen.append(l_max)
            return build(cfg, theta, l_max, tables)

        monkeypatch.setattr(cli.schrodinger, "_build_blocks", recording)
        assert _run(self._argv(tmp_path, command, "7", source) + ["--out", str(tmp_path / "out.csv")]) == 0
        assert seen and all(l_max == 7 for l_max in seen)

    @pytest.mark.parametrize("l_max", ["0", "-2", str(cli.MAX_L_MAX + 1)])
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["dynamics", "fidelity"])
    def test_empty_mode_ladder_is_usage_error(self, monkeypatch, tmp_path, capsys, command, source, l_max):
        # an empty ladder, or one above MAX_L_MAX, which must be refused before any table or block is built
        if int(l_max) < 1:
            message = f"l_max must be at least 1, got {l_max}"
        else:
            message = f"--l-max must be at most {cli.MAX_L_MAX:,}, got {l_max}"
            def built(*args, **kwargs):
                pytest.fail("built at an --l-max over the bound")

            monkeypatch.setattr(cli.schrodinger, "_build_blocks", built)
            monkeypatch.setattr(cli.schrodinger, "legendre_poly_table", built)
        out = tmp_path / "out.csv"
        assert _run(self._argv(tmp_path, command, l_max, source) + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["dynamics", "fidelity"])
    def test_largest_mode_ladder_is_accepted(self, monkeypatch, tmp_path, command):
        # the bound itself passes the check and reaches the simulator (stopped there, before it builds)
        seen = []

        def stop(cfg, theta, l_max, tables):
            seen.append(l_max)
            raise NonConvergenceError("stopped before building")

        monkeypatch.setattr(cli.schrodinger, "_build_blocks", stop)
        argv = self._argv(tmp_path, command, str(cli.MAX_L_MAX), "flag") + ["--out", str(tmp_path / "out.csv")]
        assert _run(argv) == 3
        assert seen == [cli.MAX_L_MAX]

    @pytest.mark.parametrize("command", ["dynamics", "fidelity"])
    def test_failed_eigensolve_exits_3(self, monkeypatch, tmp_path, capsys, command):
        # every secular solve and its dense eig / eigh fallback fail their checks
        assert issubclass(EigensolveError, NonConvergenceError)
        monkeypatch.setattr(cli.schrodinger, "SECULAR_RESIDUAL_TOL", -1.0)
        monkeypatch.setattr(cli.schrodinger, "RESIDUAL_TOL", -1.0)
        out = tmp_path / "out.csv"
        assert _run(self.COMMANDS[command] + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "non-convergence" in err and "eigendecomposition residual" in err
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "key, value, flag",
        [("b", "abc", "--b"), ("samples", "2.5", "--samples"), ("radii", "3.34,x", "--radii")],
    )
    def test_bad_value_exits_2_as_the_flag_does(self, tmp_path, capsys, key, value, flag):
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = {value}\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        assert _exit_code(["ddi-sweep", "--config", str(config), "--out", str(out)]) == 2
        from_config = capsys.readouterr().err
        assert f"argument {flag}:" in from_config and "Traceback" not in from_config
        assert not out.exists()
        assert _exit_code(["ddi-sweep", flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == from_config
        assert not out.exists()

    def test_bad_float_list_is_named_readably(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("radii = 3.34,x\n", encoding="utf-8")
        for argv in (["ddi-sweep", "--radii", "3.34,x"], ["ddi-sweep", "--config", str(config)]):
            assert _exit_code(argv + ["--out", str(tmp_path / "out.csv")]) == 2
            err = capsys.readouterr().err
            assert "argument --radii: expected a comma list of floats, got '3.34,x'" in err
            assert "_float_list" not in err

    @pytest.mark.parametrize("value, simulated", [("no", False), ("on", True), ("1", True), ("off", False)])
    def test_on_off_values(self, tmp_path, value, simulated):
        config = tmp_path / "run.cfg"
        config.write_text(f"simulate = {value}\nl-max = 20\nunknown_key = 3\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        assert _run(["dynamics", "--samples", "20", "--config", str(config), "--out", str(out)]) == 0
        header, _ = _read_csv(out)
        assert ("sim_pop1" in header) == simulated

    def test_flag_overrides_an_off_value(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("simulate = no\nl_max = 20\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        assert _run(["dynamics", "--samples", "20", "--config", str(config), "--simulate", "--out", str(out)]) == 0
        header, _ = _read_csv(out)
        assert "sim_pop1" in header


class TestArgparseContract:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            _run(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            _run(["validate", "--frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--out", "x"],
            ["validate", "--samples", "3"],
            ["ddi-sweep", "--l-max", "3"],
            ["dynamics", "--quick"],
            ["dynamics", "--workers", "2"],
            ["plasmon", "index-sweep", "--R0", "2"],
            ["plasmon", "estimate", "--step", "1"],
            ["plasmon", "estimate", "--plot-script", "p.py"],
            ["plasmon", "--R0", "2", "estimate"],
        ],
        ids=" ".join,
    )
    def test_flag_the_command_does_not_read_is_rejected(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert _exit_code(argv) == 2
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, flag",
        [(["--R0", "2", "estimate"], "--R0"), (["--eps-metal=-20+1j", "index-sweep"], "--eps-metal")],
    )
    def test_plasmon_flag_before_the_action_is_named(self, tmp_path, monkeypatch, capsys, argv, flag):
        monkeypatch.chdir(tmp_path)
        assert _exit_code(["plasmon"] + argv) == 2
        err = capsys.readouterr().err
        assert f"{flag} comes before the action" in err and "flags follow it" in err
        assert "invalid choice" not in err
        assert not list(tmp_path.iterdir())

    def test_plasmon_help_still_works(self, capsys):
        assert _exit_code(["plasmon", "--help"]) == 0
        assert "index-sweep" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [leaf + tail for leaf, bad in (
            (["validate"], ["--quick=1"]), (["ddi-sweep"], ["--samples", "x"]), (["dynamics"], ["--R0", "x"]),
            (["fidelity"], ["--mode", "vs-nothing"]), (["plasmon", "index-sweep"], ["--d-max", "x"]),
            (["plasmon", "estimate"], ["--eta", "x"]),
        ) for tail in (["--help"], ["--frobnicate"], bad, ["--quick", "--frobnicate=1"], ["stray"])]
        + [[], ["--help"], ["frobnicate"], ["plasmon"], ["plasmon", "--help"], ["plasmon", "--R0", "2", "estimate"]],
        ids=lambda argv: " ".join(argv) or "no arguments",
    )
    def test_main_prints_what_the_whole_tree_prints(self, capsys, argv):
        # a leaf command parses with its own parser, which must word its help
        # and usage errors as the leaf of the full tree does
        def outcome(call):
            with pytest.raises(SystemExit) as exc:
                call()
            return (exc.value.code,) + capsys.readouterr()

        assert outcome(lambda: cli.main(argv)) == outcome(lambda: cli.build_parser().parse_args(argv))

    def test_plasmon_flag_before_the_action_message(self, capsys):
        assert _exit_code(["plasmon", "--R0", "2", "estimate"]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "fisheye plasmon: error: --R0 comes before the action: "
            "fisheye plasmon flags follow it (fisheye plasmon ACTION --R0 ...)"
        )

    @pytest.mark.parametrize(
        "argv",
        [["validate", "--quick"], ["ddi-sweep", "--radii", "4.93", "--samples", "5"],
         ["dynamics", "--samples", "5"], ["fidelity", "--mode", "vs-loss", "--samples", "2", "--radii", "3.34"],
         ["plasmon", "index-sweep", "--d-max", "2"], ["plasmon", "estimate", "--samples", "20"]],
        ids=" ".join,
    )
    def test_a_leaf_command_builds_one_parser(self, tmp_path, monkeypatch, capsys, argv):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        out = [] if argv[0] == "validate" else ["--out", str(tmp_path / "out")]
        config = tmp_path / "run.cfg"
        config.write_text("# no keys\n", encoding="utf-8")
        # a config writes into the leaf's defaults, so each call builds its parser afresh
        for extra in (["--config", str(config)], []):
            built.clear()
            assert _run(argv + extra + out) == 0
            assert built == ["fisheye " + " ".join(argv[: 2 if argv[0] == "plasmon" else 1])]

    def test_benchmark_command_lines_still_parse(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        parser = cli.build_parser()
        for make in workloads.WORKLOADS.values():
            for command in make(1).commands:
                argv = list(command.argv) + (["--out", command.output] if command.writes_file else [])
                assert callable(parser.parse_args(argv).func), argv

    def test_plot_script_emitted(self, tmp_path):
        out, script = tmp_path / "d.csv", tmp_path / "plot.py"
        assert _run(
            ["ddi-sweep", "--radii", "4.93", "--samples", "11", "--out", str(out),
             "--plot-script", str(script)]
        ) == 0
        text = script.read_text(encoding="utf-8")
        assert "matplotlib" in text and "ddi_over_Gamma0" in text
