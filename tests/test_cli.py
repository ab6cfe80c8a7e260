import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rydsense import dipolar, error_prevention, estimation, multiparticle
from rydsense import cli
from rydsense.cli import main
from rydsense.fockspace import classical_fi


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(subcommand, config_path=None, extra=None):
    argv = [subcommand]
    if config_path:
        argv += ["--config", config_path]
    argv += extra or []
    return main(argv)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestToyFi:
    def test_table_and_peak_ratio(self, tmp_path):
        out = tmp_path / "toy.csv"
        cfg = write_config(
            tmp_path / "c.json",
            {
                "output_path": str(out),
                "etas": [0.02],
                "theta_min": 0.2,
                "theta_max": math.pi - 0.2,
                "theta_points": 21,
            },
        )
        assert run_cli("toy-fi", cfg) == 0
        header, rows = read_csv(out)
        assert header == [
            "eta",
            "theta_rad",
            "fi_without",
            "fi_with",
            "qfi_bound",
            "ratio",
            "mean_nd_with",
            "mean_nd_without",
        ]
        ratios = [float(r[5]) for r in rows]
        assert max(ratios) == pytest.approx(1.98, abs=1e-4)
        # grid includes pi/2 (odd point count, symmetric range)
        fi_with = [float(r[3]) for r in rows]
        assert max(fi_with) == pytest.approx(2 * 0.02 * 1.98, abs=1e-6)

    def test_lossless_limit(self, tmp_path):
        out = tmp_path / "toy.csv"
        cfg = write_config(
            tmp_path / "c.json",
            {
                "output_path": str(out),
                "etas": [1.0],
                "theta_min": math.pi / 2,
                "theta_max": math.pi / 2,
                "theta_points": 1,
            },
        )
        assert run_cli("toy-fi", cfg) == 0
        _, rows = read_csv(out)
        assert float(rows[0][2]) == pytest.approx(2.0, abs=1e-7)
        assert float(rows[0][3]) == pytest.approx(2.0, abs=1e-7)

    def test_negative_angles_follow_the_closed_forms(self, tmp_path):
        out = tmp_path / "toy.csv"
        cfg = write_config(
            tmp_path / "c.json",
            {"output_path": str(out), "etas": [0.3], "theta_min": -1, "theta_points": 9},
        )
        assert run_cli("toy-fi", cfg) == 0
        _, rows = read_csv(out)
        thetas = np.linspace(-1.0, 3.1, 9)
        fi_without = error_prevention.fi_without_prevention(0.3, thetas)
        fi_with = error_prevention.fi_with_prevention(0.3, thetas)
        nd_with, _, nd_without, _ = error_prevention.expectation_curves(0.3, thetas)
        bound = np.full(9, error_prevention.optimality_bound(0.3))
        expected = np.column_stack(
            [np.full(9, 0.3), thetas, fi_without, fi_with, bound, fi_with / fi_without,
             nd_with, nd_without]
        )
        np.testing.assert_allclose(np.array(rows, dtype=float), expected, rtol=1e-11, atol=1e-15)

    def test_zero_eta_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "toy.csv"
        cfg = write_config(tmp_path / "c.json", {"output_path": str(out), "etas": [0.3, 0.0]})
        assert run_cli("toy-fi", cfg) == 2
        assert "eta must lie in (0, 1], got 0.0" in capsys.readouterr().err
        assert not out.exists()

    def test_finite_difference_disagreement_exit_code(self, tmp_path, capsys, monkeypatch):
        def shifted(family, theta, **kwargs):
            return classical_fi(family, theta, **kwargs) * (1.0 + 2e-6)

        monkeypatch.setattr(error_prevention, "classical_fi", shifted)
        cfg = write_config(
            tmp_path / "c.json", {"output_path": str(tmp_path / "x.csv"), "etas": [0.5]}
        )
        assert run_cli("toy-fi", cfg) == 3
        assert "finite-difference" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_fi_above_the_bound_exit_code(self, tmp_path, capsys, monkeypatch):
        closed_form = error_prevention.fi_with_prevention

        def above(eta, theta):
            return closed_form(eta, theta) + 1e-5

        monkeypatch.setattr(error_prevention, "fi_with_prevention", above)
        cfg = write_config(
            tmp_path / "c.json",
            {"output_path": str(tmp_path / "x.csv"), "etas": [0.5], "theta_points": 31,
             "theta_min": math.pi / 2 - 1.5, "theta_max": math.pi / 2 + 1.5},
        )
        assert run_cli("toy-fi", cfg) == 3
        assert "leaves [0, 1.5]" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_empty_grid_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            {"output_path": str(tmp_path / "x.csv"), "etas": [0.5], "theta_points": 0},
        )
        assert run_cli("toy-fi", cfg) == 2
        assert "theta_points" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            {"output_path": str(tmp_path / "x.csv"), "etas": [0.5], "bogus": 1},
        )
        assert run_cli("toy-fi", cfg) == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_required_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"output_path": str(tmp_path / "x.csv")})
        assert run_cli("toy-fi", cfg) == 2
        assert "etas" in capsys.readouterr().err


class TestDecayScan:
    def test_fitted_rates_linear_in_control_population(self, tmp_path):
        out = tmp_path / "decay.csv"
        gamma = 1400.0
        thetas = [0.0, 0.6, 1.0, 1.4, 1.9]
        cfg = write_config(
            tmp_path / "c.json",
            {
                "output_path": str(out),
                "n0": 55.0,
                "eta": 0.02,
                "gamma_per_s": gamma,
                "thetas": thetas,
                "tau_max_s": 10e-6,
                "tau_points": 11,
            },
        )
        assert run_cli("decay-scan", cfg) == 0
        header, rows = read_csv(out)
        assert header == ["theta_rad", "tau_s", "mean_nd", "fitted_rate_per_s", "p_population"]
        by_theta = {}
        for row in rows:
            by_theta[float(row[0])] = (float(row[3]), float(row[4]))
        assert by_theta[0.0][0] == pytest.approx(0.0, abs=1e-9)
        pops = np.array([by_theta[t][1] for t in thetas])
        rates = np.array([by_theta[t][0] for t in thetas])
        slope = float(np.sum(pops * rates) / np.sum(pops**2))
        assert slope == pytest.approx(gamma, rel=2e-2)

    def test_means_equal_super_rabi_means_at_each_time(self, tmp_path):
        out = tmp_path / "decay.json"
        n0, eta, gamma = 55.0, 0.02, 4250.0
        cfg = write_config(
            tmp_path / "c.json",
            {
                "output_path": str(out),
                "format": "json",
                "n0": n0,
                "eta": eta,
                "gamma_per_s": gamma,
                "thetas": [0.0, 0.5, 1.5, 2.5],
                "tau_max_s": 8e-6,
            },
        )
        assert run_cli("decay-scan", cfg) == 0
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 4 * 21
        for theta, tau, mean, _, _ in rows:
            params = multiparticle.ProtocolParams(n0, eta, gamma * tau)
            assert mean == multiparticle.super_rabi_means(params, theta)[0]

    def test_theta_at_pi_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "output_path": str(tmp_path / "x.csv"),
                "n0": 55.0,
                "eta": 0.02,
                "gamma_per_s": 1400.0,
                "thetas": [math.pi],
                "tau_max_s": 1e-5,
            },
        )
        assert run_cli("decay-scan", cfg) == 2


class TestSuperRabi:
    def test_reference_and_depletion(self, tmp_path):
        out = tmp_path / "rabi.csv"
        cfg = write_config(
            tmp_path / "c.json",
            {
                "output_path": str(out),
                "n0": 55.0,
                "eta": 0.02,
                "gamma_tau": 0.028,
                "theta_min": 0.0,
                "theta_max": math.pi,
                "theta_points": 41,
            },
        )
        assert run_cli("super-rabi", cfg) == 0
        header, rows = read_csv(out)
        assert header == [
            "theta_rad",
            "mean_nd",
            "mean_np",
            "mean_nd_reference",
            "mean_np_reference",
        ]
        first = rows[0]
        assert float(first[1]) == pytest.approx(1.1, abs=1e-9)
        interior = rows[1:-1]
        for row in interior:
            assert float(row[1]) + float(row[2]) < 1.1


class TestFiScan:
    def test_orders_and_poisson_reference(self, tmp_path):
        out = tmp_path / "fi.csv"
        cfg = write_config(
            tmp_path / "c.json",
            {
                "output_path": str(out),
                "n0": 55.0,
                "eta": 0.02,
                "gamma_taus": [0.0, 0.15],
                "loss_orders": ["after_interaction", "before_interaction"],
                "theta_min": 0.3,
                "theta_max": 2.6,
                "theta_points": 12,
            },
        )
        assert run_cli("fi-scan", cfg) == 0
        header, rows = read_csv(out)
        assert header == ["gamma_tau", "loss_order", "theta_rad", "fi", "normalized_fi"]
        for row in rows:
            gamma_tau, order, theta = float(row[0]), row[1], float(row[2])
            fi, nfi = float(row[3]), float(row[4])
            if gamma_tau == 0.0:
                assert fi == pytest.approx(1.1 * math.sin(theta / 2) ** 2, rel=1e-5)
            if order == "before_interaction":
                assert nfi <= 1.0 + 1e-6
        after = [float(r[4]) for r in rows if r[1] == "after_interaction" and float(r[0]) > 0]
        assert max(after) > 1.0

    LARGE_N0 = {"n0": 400.0, "eta": 0.5, "gamma_taus": [0.034], "theta_points": 3}

    def test_large_n0_runs(self, tmp_path):
        # theta = 3.0 puts B near 400, beyond any fixed cap on the k-sum
        out = tmp_path / "fi.csv"
        cfg = write_config(tmp_path / "c.json", {**self.LARGE_N0, "output_path": str(out)})
        assert run_cli("fi-scan", cfg) == 0
        _, rows = read_csv(out)
        assert all(math.isfinite(float(r[3])) and float(r[3]) > 0 for r in rows)

    def test_zero_angle_at_large_detected_mean(self, tmp_path):
        # n0 eta (1 - e^-gamma_tau) = 787 is beyond the exp range of a double
        out = tmp_path / "fi.csv"
        extra = ["--output", str(out), "--set", "n0=2000.0", "--set", "eta=1.0",
                 "--set", "gamma_taus=[0.5]", "--set", "theta_min=0.0",
                 "--set", "theta_max=0.2", "--set", "theta_points=3"]
        assert run_cli("fi-scan", extra=extra) == 0
        _, rows = read_csv(out)
        assert float(rows[0][2]) == 0.0
        assert all(math.isfinite(float(cell)) for row in rows for cell in (row[3], row[4]))

    def test_truncation_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(multiparticle, "_window", lambda mean: int(mean))
        cfg = write_config(
            tmp_path / "c.json", {**self.LARGE_N0, "output_path": str(tmp_path / "x.csv")}
        )
        assert run_cli("fi-scan", cfg) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_bad_loss_order_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "output_path": str(tmp_path / "x.csv"),
                "n0": 1.0,
                "eta": 0.5,
                "gamma_taus": [0.1],
                "loss_orders": ["upside_down"],
            },
        )
        assert run_cli("fi-scan", cfg) == 2
        assert "loss_order must be" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestMlExperiment:
    CONFIG = {
        "n0": 55.0,
        "eta": 0.02,
        "gamma_tau": 0.03,
        "thetas": [1.0, 1.6],
        "n_shots_total": 2000,
        "shots_per_realization": 100,
        "n_bootstrap": 30,
        "seed": 7,
    }

    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        cfg1 = write_config(tmp_path / "c1.json", {**self.CONFIG, "output_path": str(out1)})
        cfg2 = write_config(tmp_path / "c2.json", {**self.CONFIG, "output_path": str(out2)})
        assert run_cli("ml-experiment", cfg1) == 0
        assert run_cli("ml-experiment", cfg2) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header, rows = read_csv(out1)
        assert header == [
            "theta_true_rad",
            "theta_hat_rad",
            "variance_rad2",
            "fi_per_shot",
            "fi_error",
            "bias_rad",
        ]
        assert len(rows) == 2

    @pytest.mark.parametrize(
        "split",
        [{"n_shots_total": 1999}, {"shots_per_realization": 0}],
        ids=["indivisible", "zero_per_realization"],
    )
    def test_indivisible_shot_split_rejected(self, tmp_path, capsys, split):
        out = tmp_path / "x.csv"
        cfg = write_config(tmp_path / "c.json", {**self.CONFIG, "output_path": str(out), **split})
        assert run_cli("ml-experiment", cfg) == 2
        assert "shots_per_realization must divide" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("thetas", [[4.0], [1.0, -1.0]])
    def test_unreachable_true_angle_rejected(self, tmp_path, capsys, thetas):
        out = tmp_path / "x.csv"
        cfg = write_config(
            tmp_path / "c.json", {**self.CONFIG, "output_path": str(out), "thetas": thetas}
        )
        assert run_cli("ml-experiment", cfg) == 2
        assert "theta_true must lie in [0, pi]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "1", "-3"])
    def test_too_few_bootstrap_draws_rejected(self, tmp_path, capsys, value):
        out = tmp_path / "x.csv"
        cfg = write_config(tmp_path / "c.json", {**self.CONFIG, "output_path": str(out)})
        assert run_cli("ml-experiment", cfg, extra=["--set", f"n_bootstrap={value}"]) == 2
        assert "n_bootstrap must be at least 2" in capsys.readouterr().err
        assert not out.exists()


class TestSensitivity:
    BASE = {
        "n0": 55.0,
        "eta": 0.02,
        "gamma_tau": 0.03,
        "rabi_frequency_hz": 0.66e6,
        "dipole_moment_ea0": 1950.0,
        "grid_points": 128,
    }

    def test_report_fields(self, tmp_path):
        out = tmp_path / "sens.json"
        cfg = write_config(tmp_path / "c.json", {**self.BASE, "output_path": str(out)})
        assert run_cli("sensitivity", cfg) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "rydsense.sensitivity"
        omega = 2 * math.pi * 0.66e6
        assert payload["pulse_time_s"] == pytest.approx(payload["theta_star_rad"] / omega)
        assert payload["sensitivity_v_per_cm_sqrt_hz"] == pytest.approx(
            payload["delta_e_v_per_cm"] * math.sqrt(payload["pulse_time_s"]), rel=1e-12
        )

    def test_zero_detected_mean_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            {**self.BASE, "output_path": str(tmp_path / "s.json"), "eta": 0.0},
        )
        assert run_cli("sensitivity", cfg) == 2
        assert "detected mean" in capsys.readouterr().err

    def test_format_is_not_a_key(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        cfg = write_config(tmp_path / "c.json", {**self.BASE, "output_path": str(out)})
        assert run_cli("sensitivity", cfg, extra=["--set", "format=json"]) == 2
        assert "unknown config keys for sensitivity: format" in capsys.readouterr().err
        assert not out.exists()

    def test_fisher_override(self, tmp_path):
        out = tmp_path / "sens.json"
        cfg = write_config(
            tmp_path / "c.json",
            {**self.BASE, "output_path": str(out), "fisher_override": 3.6},
        )
        assert run_cli("sensitivity", cfg) == 0
        payload = json.loads(out.read_text())
        assert payload["fisher_information"] == pytest.approx(3.6)
        assert payload["delta_theta_rad"] == pytest.approx(1 / math.sqrt(3.6))

    def test_finite_difference_disagreement_exit_code(self, tmp_path, capsys, monkeypatch):
        def shifted(family, theta, **kwargs):
            return classical_fi(family, theta, **kwargs) * (1.0 + 2e-6)

        monkeypatch.setattr(estimation, "classical_fi", shifted)
        cfg = write_config(
            tmp_path / "c.json", {**self.BASE, "output_path": str(tmp_path / "x.json")}
        )
        assert run_cli("sensitivity", cfg) == 3
        assert "finite-difference" in capsys.readouterr().err

    def test_missing_dipole_rejected(self, tmp_path, capsys):
        cfg_dict = {**self.BASE, "output_path": str(tmp_path / "x.json")}
        del cfg_dict["dipole_moment_ea0"]
        cfg = write_config(tmp_path / "c.json", cfg_dict)
        assert run_cli("sensitivity", cfg) == 2
        assert "dipole" in capsys.readouterr().err

    def test_both_dipole_keys_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                **self.BASE,
                "output_path": str(tmp_path / "x.json"),
                "dipole_moment_cm": 1.65e-26,
            },
        )
        assert run_cli("sensitivity", cfg) == 2


class TestDipolar:
    BASE = {
        "c3_over_2pi_hbar_ghz_um3": 3.709,
        "cloud_kind": "box",
        "cloud_dimensions_um": [80.0, 80.0, 4000.0],
        "t_values_us": [0.1, 0.4, 1.6, 6.4],
    }

    def test_q_fit_and_gamma_columns(self, tmp_path):
        out = tmp_path / "dip.csv"
        cfg = write_config(tmp_path / "c.json", {**self.BASE, "output_path": str(out)})
        assert run_cli("dipolar", cfg) == 0
        header, rows = read_csv(out)
        assert header == [
            "t_us",
            "re_a_um3",
            "im_a_um3",
            "q_fit_um3_per_s",
            "gamma_per_s",
            "gamma_no_2pi_per_s",
        ]
        q_fit = float(rows[0][3])
        assert q_fit == pytest.approx(5.902e10, rel=5e-3)
        gamma = float(rows[0][4])
        assert gamma == pytest.approx(4.61e3, rel=1e-3)
        assert float(rows[0][5]) == pytest.approx(gamma / (2 * math.pi), rel=1e-12)

    @pytest.mark.parametrize("key,value,message", [
        ("t_values_us", [0.0], "interaction time t must be positive"),
        ("t_values_us", [0.1, -1.0], "interaction time t must be positive"),
        ("t_values_us", [], "key 't_values_us' must not be empty"),
        ("cloud_dimensions_um", [80.0, 80.0], "dimensions must be three positive"),
    ], ids=["zero_time", "negative_time", "no_times", "two_dimensions"])
    def test_bad_geometry_or_time_rejected(self, tmp_path, capsys, key, value, message):
        out = tmp_path / "x.csv"
        cfg = write_config(tmp_path / "c.json", {**self.BASE, "output_path": str(out), key: value})
        assert run_cli("dipolar", cfg) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("angular_panels", 256),
        ("panel_order", 10),
        ("s_max", 1200.0),
        ("max_rel_error", 5e-3),
    ])
    def test_removed_quadrature_keys_rejected(self, tmp_path, capsys, key, value):
        # A(t) has one path, the closed form; the former quadrature keys are
        # unknown keys now
        out = tmp_path / "x.csv"
        cfg = write_config(
            tmp_path / "c.json", {**self.BASE, "output_path": str(out), key: value}
        )
        assert run_cli("dipolar", cfg) == 2
        err = capsys.readouterr().err
        assert "unknown config keys" in err and key in err
        assert not out.exists()


class TestBatchedCalls:
    """Each study evaluates its grids in one batched call per curve."""

    @staticmethod
    def record(monkeypatch, name):
        calls = []
        original = getattr(multiparticle, name)

        def recording(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(multiparticle, name, recording)
        return calls

    def test_super_rabi_two_mean_calls(self, tmp_path, monkeypatch):
        calls = self.record(monkeypatch, "super_rabi_means")
        extra = ["--output", str(tmp_path / "r.csv"), "--set", "n0=55.0",
                 "--set", "eta=0.02", "--set", "gamma_tau=0.034"]
        assert run_cli("super-rabi", extra=extra) == 0
        assert len(calls) == 2

    def test_decay_scan_one_means_call(self, tmp_path, monkeypatch):
        # all 21 times and 3 angles from one (B, D) pair
        means = self.record(monkeypatch, "_mixture_means")
        super_rabi = self.record(monkeypatch, "super_rabi_means")
        extra = ["--output", str(tmp_path / "d.csv"), "--set", "n0=55.0",
                 "--set", "eta=0.02", "--set", "gamma_per_s=4250.0",
                 "--set", "thetas=[0.5, 1.5, 2.5]", "--set", "tau_max_s=8e-6"]
        assert run_cli("decay-scan", extra=extra) == 0
        assert len(means) == 1 and not super_rabi

    def test_fi_scan_one_kernel_call_per_curve(self, tmp_path, monkeypatch):
        calls = self.record(monkeypatch, "_mixture_table")
        extra = ["--output", str(tmp_path / "f.csv"), "--set", "n0=55.0",
                 "--set", "eta=0.02", "--set", "gamma_taus=[0.0, 0.028, 0.034]",
                 "--set", 'loss_orders=["after_interaction", "before_interaction"]']
        assert run_cli("fi-scan", extra=extra) == 0
        # each call takes the three stacked rows of all 59 angles
        assert [args[0].size for args in calls] == [3 * 59] * 6

    def test_sensitivity_one_derivative_call_and_three_pmfs(self, tmp_path, monkeypatch):
        kernel = self.record(monkeypatch, "_mixture_table")
        pmfs = self.record(monkeypatch, "count_pmf")
        cfg = write_config(
            tmp_path / "c.json",
            {**TestSensitivity.BASE, "grid_points": 512, "output_path": str(tmp_path / "s.json")},
        )
        assert run_cli("sensitivity", cfg) == 0
        assert sorted(args[0].size for args in kernel) == [1, 1, 1, 3 * 512]
        assert len(pmfs) == 3


class TestCommonMachinery:
    def test_set_overrides_file_keys(self, tmp_path):
        out = tmp_path / "toy.csv"
        cfg = write_config(
            tmp_path / "c.json",
            {
                "output_path": str(out),
                "etas": [0.5],
                "theta_min": 1.0,
                "theta_max": 2.0,
                "theta_points": 2,
            },
        )
        assert run_cli("toy-fi", cfg, extra=["--set", "theta_points=3"]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 3

    def test_successive_calls_do_not_share_overrides(self, tmp_path):
        # main reuses one parser; the --set list of one call must not reach
        # the next
        base = {**TestMlExperiment.CONFIG, "thetas": [1.2], "n_shots_total": 1000,
                "n_bootstrap": 5}
        paths = {name: tmp_path / f"{name}.csv" for name in ("ref", "over", "again")}
        cfgs = {
            name: write_config(tmp_path / f"{name}.json", {**base, "output_path": str(path)})
            for name, path in paths.items()
        }
        assert run_cli("ml-experiment", cfgs["ref"]) == 0
        extra = ["--set", "thetas=[1.2, 2.0]", "--set", "seed=11"]
        assert run_cli("ml-experiment", cfgs["over"], extra=extra) == 0
        assert run_cli("ml-experiment", cfgs["again"]) == 0
        assert paths["again"].read_bytes() == paths["ref"].read_bytes()
        _, ref_rows = read_csv(paths["ref"])
        _, over_rows = read_csv(paths["over"])
        assert len(over_rows) == 2
        assert over_rows[0] != ref_rows[0]  # seed 11, not the config's 7

    def test_seed_and_format_only_through_set(self, tmp_path, capsys):
        # a key's one way in besides the config file is --set (output_path
        # also has --output); --set seed= is exercised above
        for study, flag in (("ml-experiment", "--seed"), ("super-rabi", "--format")):
            with pytest.raises(SystemExit) as info:
                run_cli(study, extra=[flag, "1"])
            assert info.value.code == 2
            assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        out = tmp_path / "rabi.json"
        extra = ["--output", str(out), "--set", "n0=2.0", "--set", "eta=0.5",
                 "--set", "gamma_tau=0.1", "--set", "theta_points=3", "--set", "format=json"]
        assert run_cli("super-rabi", extra=extra) == 0
        assert len(json.loads(out.read_text())["rows"]) == 3

    def test_output_flag_and_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RYDSENSE_OUTPUT_DIR", str(tmp_path / "outputs"))
        cfg = write_config(
            tmp_path / "c.json",
            {
                "output_path": "ignored.csv",
                "etas": [0.5],
                "theta_min": 1.0,
                "theta_max": 2.0,
                "theta_points": 2,
            },
        )
        assert run_cli("toy-fi", cfg, extra=["--output", "relative.csv"]) == 0
        assert (tmp_path / "outputs" / "relative.csv").exists()

    def test_csv_numbers_have_twelve_significant_digits(self, tmp_path):
        out = tmp_path / "rabi.csv"
        cfg = write_config(
            tmp_path / "c.json",
            {
                "output_path": str(out),
                "n0": 55.0,
                "eta": 0.02,
                "gamma_tau": 0.028,
                "theta_min": 0.7,
                "theta_max": 0.7,
                "theta_points": 1,
            },
        )
        assert run_cli("super-rabi", cfg) == 0
        _, rows = read_csv(out)
        value = rows[0][1]
        assert value == f"{float(value):.12g}"
        assert len(value.replace("-", "").replace(".", "").lstrip("0")) >= 11

    def test_csv_table_matches_csv_writer(self, tmp_path):
        columns = ["theta_rad", "loss_order", "count", "fi"]
        rows = [
            (0.1, "after_interaction", 3, 1.0 / 3.0),
            (math.pi, "before_interaction", -7, 2.5e-300),
            (np.float64(1e20), "two words", np.int64(0), -0.0),
            (math.nan, "", 12345678901234567890, math.inf),
        ]
        path = cli.write_table(
            {"output_path": str(tmp_path / "t.csv"), "format": "csv"}, "t", columns, rows
        )
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([f"{v:.12g}" if isinstance(v, float) else str(v) for v in row])
        assert path.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("cell", ["a,b", 'say "hi"', "two\nlines", "carriage\rreturn"])
    def test_csv_cell_needing_quotes_rejected(self, tmp_path, cell):
        cfg = {"output_path": str(tmp_path / "t.csv"), "format": "csv"}
        with pytest.raises(ValueError, match="CSV quoting"):
            cli.write_table(cfg, "t", ["theta_rad", "loss_order"], [(0.5, cell)])
        with pytest.raises(ValueError, match="CSV quoting"):
            cli.write_table(cfg, "t", ["theta_rad", cell], [(0.5, "after_interaction")])
        assert not (tmp_path / "t.csv").exists()

    def test_json_format_table(self, tmp_path):
        out = tmp_path / "rabi.json"
        cfg = write_config(
            tmp_path / "c.json",
            {
                "output_path": str(out),
                "format": "json",
                "n0": 2.0,
                "eta": 0.5,
                "gamma_tau": 0.1,
                "theta_min": 0.5,
                "theta_max": 1.5,
                "theta_points": 3,
            },
        )
        assert run_cli("super-rabi", cfg) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "rydsense.super_rabi"
        assert payload["version"] == 1
        assert len(payload["rows"]) == 3

    # the required keys of each study, with small grids and sample sizes
    SMALL = {
        "toy-fi": {"etas": [0.5], "theta_points": 3},
        "decay-scan": {"n0": 2.0, "eta": 0.5, "gamma_per_s": 1e4, "thetas": [0.5],
                       "tau_max_s": 1e-5, "tau_points": 3},
        "super-rabi": {"n0": 2.0, "eta": 0.5, "gamma_tau": 0.1, "theta_points": 3},
        "fi-scan": {"n0": 2.0, "eta": 0.5, "gamma_taus": [0.1], "theta_points": 3},
        "ml-experiment": {"n0": 2.0, "eta": 0.5, "gamma_tau": 0.1, "thetas": [1.0],
                          "n_shots_total": 1000, "shots_per_realization": 100,
                          "n_bootstrap": 5},
        "sensitivity": {"n0": 2.0, "eta": 0.5, "gamma_tau": 0.1, "rabi_frequency_hz": 1e6,
                        "dipole_moment_ea0": 1950.0, "grid_points": 16},
        "dipolar": {"c3_over_2pi_hbar_ghz_um3": 3.709, "cloud_dimensions_um": [8.0, 8.0, 40.0],
                    "t_values_us": [0.1]},
    }

    @pytest.mark.parametrize("raw", ["Infinity", "-Infinity", "NaN", "[]", "true", "0", "-1"])
    def test_bad_values_of_every_key(self, tmp_path, capsys, raw):
        # every key of every study: a bad value is a config error (exit 2)
        # with no table written, and a zero or a negative number either runs
        # or is one; a list key gets the number as its one entry
        out = tmp_path / "x.out"
        assert set(self.SMALL) == set(cli.SCHEMAS)
        for study, schema in cli.SCHEMAS.items():
            cfg = {**self.SMALL[study], "output_path": str(out)}
            path = write_config(tmp_path / "c.json", cfg)
            for key, spec in schema.items():
                is_list = spec.kind.endswith("_list")
                text = f"[{raw}]" if is_list and raw not in ("[]", "true") else raw
                code = run_cli(study, path, extra=["--set", f"{key}={text}"])
                err = capsys.readouterr().err
                if raw in ("0", "-1") and code == 0:
                    out.unlink()
                    continue
                assert code == 2, (study, key, text, err)
                assert not out.exists(), (study, key, text)
                if raw == "[]" and is_list:
                    assert f"key {key!r} must not be empty" in err
                elif raw == "true":
                    assert f"key {key!r} expects a {spec.kind}" in err
                elif raw in ("Infinity", "-Infinity", "NaN") and "float" in spec.kind:
                    assert f"key {key!r} must be finite" in err

    @pytest.mark.parametrize(
        "study,key,value,message",
        [
            ("decay-scan", "n0", 0.0, "detected mean n0 * eta is zero"),
            ("decay-scan", "eta", 0.0, "detected mean n0 * eta is zero"),
            ("ml-experiment", "seed", -1, "seed must be non-negative, got -1"),
            ("sensitivity", "dipole_moment_ea0", 0.0, "dipole_moment must be positive"),
        ],
        ids=["decay_n0", "decay_eta", "ml_seed", "sensitivity_dipole"],
    )
    def test_bad_value_names_its_rule(self, tmp_path, capsys, study, key, value, message):
        out = tmp_path / "x.out"
        cfg = {**self.SMALL[study], "output_path": str(out), key: value}
        assert run_cli(study, write_config(tmp_path / "c.json", cfg)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file(self, capsys):
        assert run_cli("toy-fi", "/nonexistent/path.json") == 2
        assert "config" in capsys.readouterr().err

    @staticmethod
    def child_env():
        """The environment with the package's source first on ``PYTHONPATH``."""
        src = Path(multiparticle.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        return {**os.environ, "PYTHONPATH": path}

    def loaded_after_import(self, module):
        """Whether ``module`` is loaded after a fresh ``import rydsense, rydsense.cli``."""
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                f"import sys, rydsense, rydsense.cli; print({module!r} in sys.modules)",
            ],
            capture_output=True,
            text=True,
            env=self.child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip() == "True"

    def test_import_leaves_scipy_stats_unloaded(self):
        # the package's one truncation rule is closed-form; scipy.stats
        # would only add its import time to every run
        assert not self.loaded_after_import("scipy.stats")

    def test_import_leaves_scipy_integrate_unloaded(self):
        # the package evaluates A(t) in closed form; only the tests'
        # reference quadrature of J needs scipy.integrate
        assert not self.loaded_after_import("scipy.integrate")

    def test_import_loads_no_scipy(self):
        # scipy is a test dependency only: the rotation uses eigh and the
        # kernel's log n! comes from math.lgamma; any scipy submodule
        # loads the scipy package itself
        assert not self.loaded_after_import("scipy")

    def test_module_invocation_smoke(self, tmp_path):
        out = tmp_path / "toy.csv"
        cfg = write_config(
            tmp_path / "c.json",
            {
                "output_path": str(out),
                "etas": [0.3],
                "theta_min": 1.5,
                "theta_max": 1.6,
                "theta_points": 2,
            },
        )
        proc = subprocess.run(
            [sys.executable, "-m", "rydsense", "toy-fi", "--config", cfg],
            capture_output=True,
            text=True,
            env=self.child_env(),
        )
        assert proc.returncode == 0
        assert out.exists()
