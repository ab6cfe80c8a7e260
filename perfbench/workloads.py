"""The benchmark's workloads: item inputs, the timed call, the output checks.

Every item of a workload is the same kind of work, so a run's median and
throughput describe the program rather than a mix.  Items reach the
program only through its public API: in-process ``rydsense.cli.main`` for
the studies and public module functions for the rest.  Functions are
looked up on their module at call time (``fockspace.measure(...)``), so
the traced run sees every call.

``make`` draws one item's inputs from its own random stream, ``run`` is the
timed part, ``check`` runs afterwards and returns the reasons the item
failed (empty when it passed), and ``finish`` returns the reasons the run
as a whole failed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os

import reference as ref
from rydsense import cli, dipolar, fockspace, multiparticle

LOSS_ORDERS = (ref.LOSS_AFTER, ref.LOSS_BEFORE)
C3_GHZ_UM3 = 3.709  # C3 / (2 pi hbar) of the experiment's pair state


def _cli(subcommand: str, output: str, **config):
    """Run one study through ``cli.main``; returns (exit code, stderr)."""
    argv = [subcommand, "--output", output]
    for key, value in config.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().strip()


def _output(name: str) -> str:
    return os.path.join(os.environ[cli.OUTPUT_DIR_ENV], name)


def _rows(name: str) -> list[dict]:
    with open(_output(name), newline="") as fh:
        return [
            {k: (v if k == "loss_order" else float(v)) for k, v in row.items()}
            for row in csv.DictReader(fh)
        ]


def _close(value: float, expected: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(value - expected) <= max(rel * abs(expected), abs_tol)


def _box_dims(rng) -> list[float]:
    """Box cloud edges in um around the experiment's 80 x 80 x 4000."""
    return [rng.uniform(70.0, 90.0), rng.uniform(70.0, 90.0), rng.uniform(3500.0, 4500.0)]


def _box_gamma(dims) -> float:
    params = dipolar.DipolarParams.from_tabulated(
        C3_GHZ_UM3, dipolar.CloudGeometry("box", tuple(dims))
    )
    return dipolar.decay_rate_gamma(params)


def _failed_studies(codes: dict) -> list[str]:
    return [f"{name} exited {code}: {err}" for name, (code, err) in codes.items() if code]


class Scan:
    """Analytic characterisation of one operating point near the experiment."""

    name = "scan"
    expected_calls = (
        "cli.main",
        "cli.write_table",
        "multiparticle.count_pmf",
        "multiparticle.count_distribution",
        "multiparticle.fisher_information",
        "multiparticle.super_rabi_means",
        "fockspace.classical_fi",
        "estimation.sensitivity_from_model",
    )

    def make(self, rng, index: int) -> dict:
        dims = _box_dims(rng)
        gamma = _box_gamma(dims)
        tau = rng.uniform(6e-6, 9e-6)
        return {
            "n0": rng.uniform(40.0, 70.0),
            "eta": rng.uniform(0.01, 0.04),
            "gamma_per_s": gamma,
            "tau_s": tau,
            "gamma_tau": gamma * tau,
            "decay_thetas": sorted(rng.uniform(0.3, 2.8, size=2).tolist()),
            "rabi_frequency_hz": rng.uniform(0.5e6, 0.8e6),
            "dipole_moment_ea0": rng.uniform(1800.0, 2100.0),
            "fi_rows": rng.choice(59, size=2, replace=False).tolist(),
            "rabi_rows": rng.choice(101, size=4, replace=False).tolist(),
        }

    def run(self, item: dict) -> dict:
        point = {"n0": item["n0"], "eta": item["eta"]}
        return {
            "fi-scan": _cli(
                "fi-scan", "fi_scan.csv", **point,
                gamma_taus=[item["gamma_tau"]], loss_orders=list(LOSS_ORDERS),
            ),
            "sensitivity": _cli(
                "sensitivity", "sensitivity.json", **point,
                gamma_tau=item["gamma_tau"],
                rabi_frequency_hz=item["rabi_frequency_hz"],
                dipole_moment_ea0=item["dipole_moment_ea0"],
            ),
            "super-rabi": _cli(
                "super-rabi", "super_rabi.csv", **point, gamma_tau=item["gamma_tau"]
            ),
            "decay-scan": _cli(
                "decay-scan", "decay_scan.csv", **point,
                gamma_per_s=item["gamma_per_s"], thetas=item["decay_thetas"],
                tau_max_s=item["tau_s"],
            ),
        }

    def check(self, item: dict, codes: dict) -> list[str]:
        problems = _failed_studies(codes)
        if problems:
            return problems
        n0, eta, gt = item["n0"], item["eta"], item["gamma_tau"]

        rows = _rows("fi_scan.csv")
        by_order = {order: [r for r in rows if r["loss_order"] == order] for order in LOSS_ORDERS}
        for order, order_rows in by_order.items():
            if len(order_rows) != 59:
                problems.append(f"fi-scan: {len(order_rows)} {order} rows, expected 59")
                continue
            for i in item["fi_rows"]:
                row = order_rows[i]
                expected = ref.fisher_information(n0, eta, gt, row["theta_rad"], order)
                if not _close(row["fi"], expected, 1e-6):
                    problems.append(f"fi-scan: FI {row['fi']} != {expected} at {row}")
        for row in by_order[ref.LOSS_BEFORE]:
            if row["normalized_fi"] > 1.0 + 1e-6:
                problems.append(f"fi-scan: loss-before normalized FI above 1 at {row}")

        with open(_output("sensitivity.json")) as fh:
            report = json.load(fh)
        dipole = item["dipole_moment_ea0"] * ref.ELEMENTARY_CHARGE * ref.BOHR_RADIUS
        rabi = 2.0 * math.pi * item["rabi_frequency_hz"]
        theta_star, fisher = report["theta_star_rad"], report["fisher_information"]
        delta_e, sens = ref.field_figures(theta_star, fisher, rabi, dipole)
        for key, expected in (
            ("dipole_moment_cm", dipole),
            ("rabi_frequency_rad_s", rabi),
            ("delta_e_v_per_cm", delta_e),
            ("sensitivity_v_per_cm_sqrt_hz", sens),
            ("normalized_fi", fisher / (n0 * eta)),
        ):
            if not _close(report[key], expected, 1e-12):
                problems.append(f"sensitivity: {key} {report[key]} != {expected}")
        if not 0.0 < theta_star < math.pi:
            problems.append(f"sensitivity: theta* {theta_star} outside (0, pi)")
        elif not _close(fisher, ref.fisher_information(n0, eta, gt, theta_star), 1e-3):
            problems.append(f"sensitivity: F {fisher} is not the model FI near theta*")

        rows = _rows("super_rabi.csv")
        for i in item["rabi_rows"]:
            row = rows[i]
            theta = row["theta_rad"]
            for column, mode, g in (
                ("mean_nd", "d", gt),
                ("mean_np", "p", gt),
                ("mean_nd_reference", "d", 0.0),
                ("mean_np_reference", "p", 0.0),
            ):
                expected = ref.mean_count(n0, eta, g, theta, mode)
                if not _close(row[column], expected, 1e-9, 1e-12):
                    problems.append(f"super-rabi: {column} {row[column]} != {expected}")

        rows = _rows("decay_scan.csv")
        gamma, tau_max = item["gamma_per_s"], item["tau_s"]
        points = len(rows) // len(item["decay_thetas"])
        for j, theta in enumerate(item["decay_thetas"]):
            theta_rows = rows[j * points:(j + 1) * points]
            # mean_nd = D exp(-E(tau)), E = B (1 - exp(-gamma tau)): the
            # log-linear fit slope is a positively weighted average of the
            # convex, falling E', so it lies between E'(tau_max) and the
            # chord slope E(tau_max) / tau_max.
            b = n0 * math.sin(theta / 2.0) ** 2
            final = b * gamma * math.exp(-gamma * tau_max)
            chord = b * (1.0 - math.exp(-gamma * tau_max)) / tau_max
            rate = theta_rows[0]["fitted_rate_per_s"]
            if not final * (1.0 - 1e-9) <= rate <= chord * (1.0 + 1e-9):
                problems.append(f"decay-scan: rate {rate} outside [{final}, {chord}]")
            if not _close(theta_rows[0]["p_population"], b, 1e-11):
                problems.append(f"decay-scan: p_population {theta_rows[0]['p_population']} != {b}")
        return problems

    def finish(self) -> list[str]:
        return []


class Estimate:
    """One ML estimation study at one drawn true angle."""

    name = "estimate"
    expected_calls = (
        "cli.main",
        "cli.write_table",
        "estimation.run_estimation",
        "multiparticle.count_pmf",
    )
    n_shots = 10_000
    shots_per_realization = 100
    n_bootstrap = 50
    # criterion 8: at least this share of items saturate the Cramer-Rao bound
    saturation_share = 0.8

    def __init__(self):
        self.saturated = 0
        self.checked = 0

    def make(self, rng, index: int) -> dict:
        return {
            "n0": rng.uniform(45.0, 65.0),
            "eta": rng.uniform(0.015, 0.03),
            "gamma_tau": rng.uniform(0.028, 0.04),
            "theta": rng.uniform(0.5, 2.6),
            "seed": int(rng.integers(2**31)),
        }

    def run(self, item: dict) -> dict:
        return {
            "ml-experiment": _cli(
                "ml-experiment", "ml.csv",
                n0=item["n0"], eta=item["eta"], gamma_tau=item["gamma_tau"],
                thetas=[item["theta"]], n_shots_total=self.n_shots,
                shots_per_realization=self.shots_per_realization,
                n_bootstrap=self.n_bootstrap, seed=item["seed"],
            )
        }

    def check(self, item: dict, codes: dict) -> list[str]:
        problems = _failed_studies(codes)
        if problems:
            return problems
        (row,) = _rows("ml.csv")
        n = self.shots_per_realization
        realizations = self.n_shots // n
        variance, theta_hat = row["variance_rad2"], row["theta_hat_rad"]
        if not (math.isfinite(variance) and variance > 0.0):
            return [f"ml-experiment: variance {variance} not finite and positive"]
        if not 0.0 < theta_hat < math.pi:
            problems.append(f"ml-experiment: theta_hat {theta_hat} outside (0, pi)")
        # the estimator's bias is O(1/N); 12 standard errors of the mean
        # leaves it no room to trip the check by chance
        stderr = math.sqrt(variance / realizations)
        if abs(row["bias_rad"]) > 12.0 * stderr:
            problems.append(f"ml-experiment: |bias| {row['bias_rad']} > 12 x {stderr}")
        if not _close(row["bias_rad"], theta_hat - item["theta"], 1e-9, 1e-11):
            problems.append("ml-experiment: bias is not theta_hat - theta_true")
        if not _close(row["fi_per_shot"] * n * variance, 1.0, 1e-9):
            problems.append("ml-experiment: fi_per_shot is not 1 / (N variance)")
        if not problems:
            fisher = ref.fisher_information(
                item["n0"], item["eta"], item["gamma_tau"], item["theta"]
            )
            self.checked += 1
            self.saturated += abs(row["fi_per_shot"] - fisher) <= 3.0 * row["fi_error"]
        return problems

    def finish(self) -> list[str]:
        if self.saturated < self.saturation_share * self.checked:
            return [
                f"ML FI within 3 bootstrap sigma of the model FI on only "
                f"{self.saturated} of {self.checked} items"
            ]
        return []


class Oracle:
    """Verify one point: Kraus oracle, toy-fi, dipolar and the direct MC read-out."""

    name = "oracle"
    expected_calls = (
        "cli.main",
        "cli.write_table",
        "multiparticle.count_pmf",
        "multiparticle.count_distribution",
        "multiparticle.interaction_channel_kraus",
        "fockspace.classical_fi",
        "fockspace.apply_channel",
        "fockspace.measure",
        "fockspace.coherent_state",
        "fockspace.detection_loss_channel",
        "fockspace.number_povm",
        "dipolar.excluded_volume_integral",
        "dipolar.readout_expectation_mc",
        "error_prevention.enhancement_curve",
        "error_prevention.fi_with_prevention",
        "error_prevention.expectation_curves",
    )
    n_max = 14
    mc_cloud_um = (20.0, 20.0, 20.0)
    mc_samples = 20_000
    toy_step = 0.1  # toy-fi grid spacing; pi/2 is the middle of 31 points

    def make(self, rng, index: int) -> dict:
        return {
            "n0": rng.uniform(0.3, 2.0),
            "eta": rng.uniform(0.1, 0.9),
            "gamma_tau": rng.uniform(0.0, 2.0),
            "theta": rng.uniform(0.0, math.pi),
            "loss_order": LOSS_ORDERS[int(rng.integers(2))],
            "toy_eta": rng.uniform(0.01, 1.0),
            "c3_ghz_um3": rng.uniform(3.0, 4.5),
            "box_um": _box_dims(rng),
            "t_us": float(10.0 ** rng.uniform(-1.0, 1.0)),
            "mc_t_us": rng.uniform(0.02, 0.03),
            "mc_n_p": int(rng.integers(16, 41)),
            "mc_seed": int(rng.integers(2**31)),
        }

    def _kraus(self, item: dict):
        basis = fockspace.FockBasis(self.n_max)
        theta, n0 = item["theta"], item["n0"]
        alpha_d = math.sqrt(n0) * math.cos(theta / 2.0)
        alpha_p = 1j * math.sqrt(n0) * math.sin(theta / 2.0)
        rho = fockspace.coherent_state(basis, alpha_d, alpha_p).to_density()
        # both placements apply the same two channels, so every item does
        # the same work whichever loss order it drew
        channels = [
            multiparticle.interaction_channel_kraus(basis, item["gamma_tau"], symmetric=True),
            fockspace.detection_loss_channel(basis, item["eta"]),
        ]
        if item["loss_order"] == ref.LOSS_BEFORE:
            channels.reverse()
        for channel in channels:
            rho = fockspace.apply_channel(rho, channel)
        joint = fockspace.measure(rho, fockspace.number_povm(basis))
        params = multiparticle.ProtocolParams(
            n0, item["eta"], item["gamma_tau"], loss_order=item["loss_order"]
        )
        return joint, multiparticle.count_distribution(params, theta)

    def run(self, item: dict) -> dict:
        joint, analytic = self._kraus(item)
        half_span = 15 * self.toy_step
        toy = _cli(
            "toy-fi", "toy_fi.csv", etas=[item["toy_eta"]],
            theta_min=math.pi / 2 - half_span, theta_max=math.pi / 2 + half_span,
            theta_points=31,
        )
        dip = _cli(
            "dipolar", "dipolar.csv", c3_over_2pi_hbar_ghz_um3=item["c3_ghz_um3"],
            cloud_dimensions_um=item["box_um"], t_values_us=[item["t_us"]],
        )
        mc_params = dipolar.DipolarParams.from_tabulated(
            C3_GHZ_UM3, dipolar.CloudGeometry("gaussian", self.mc_cloud_um)
        )
        mc = dipolar.readout_expectation_mc(
            item["mc_t_us"], item["mc_n_p"], mc_params, samples=self.mc_samples,
            seed=item["mc_seed"], method="direct",
        )
        return {"codes": {"toy-fi": toy, "dipolar": dip}, "joint": joint,
                "analytic": analytic, "mc": mc}

    def check(self, item: dict, out: dict) -> list[str]:
        problems = _failed_studies(out["codes"])
        joint, analytic = out["joint"], out["analytic"]
        if abs(joint.total() - 1.0) > 1e-9:
            problems.append(f"oracle mass {joint.total()} is not 1 within 1e-9")
        tv = analytic.tv_distance(joint.marginal("d"))
        if not tv < 1e-6:
            problems.append(f"oracle vs analytic TV {tv:.3e} >= 1e-6 at {item}")
        if problems:
            return problems

        eta = item["toy_eta"]
        peak = 2.0 * eta * (2.0 - eta)
        rows = _rows("toy_fi.csv")
        for row in rows:
            if not _close(row["fi_without"], 2.0 * eta, 0.0, 1e-8):
                problems.append(f"toy-fi: fi_without {row['fi_without']} != 2 eta")
            if row["fi_with"] > peak + 1e-8:
                problems.append(f"toy-fi: fi_with {row['fi_with']} above 2 eta (2 - eta)")
        middle = rows[len(rows) // 2]
        if not _close(middle["theta_rad"], math.pi / 2, 0.0, 1e-11):
            problems.append(f"toy-fi: middle angle {middle['theta_rad']} is not pi/2")
        elif not _close(middle["fi_with"], peak, 0.0, 1e-8):
            problems.append(f"toy-fi: fi_with {middle['fi_with']} != {peak} at pi/2")

        (row,) = _rows("dipolar.csv")
        q = ref.volumetric_rate_q(item["c3_ghz_um3"])
        q_measured = row["re_a_um3"] / (item["t_us"] * 1e-6)
        if not _close(q_measured, q, 5e-3):
            problems.append(f"dipolar: Re A / t = {q_measured} vs Q {q}")

        mc = out["mc"]
        gamma = ref.gaussian_gamma(C3_GHZ_UM3, self.mc_cloud_um)
        depth = item["mc_n_p"] * gamma * item["mc_t_us"] * 1e-6
        expected = ref.gaussian_readout(depth)
        # the local-density law leaves out corrections in the interaction length
        # over the cloud size and in 1 / n_p; 0.01 covers them (see the README)
        tolerance = 5.0 * mc.stderr + 0.01
        if not (abs(mc.value) <= 1.0 and mc.stderr > 0.0
                and abs(mc.value - expected) <= tolerance):
            problems.append(f"readout: {mc} vs local exp(-n_p gamma t) = {expected}")
        return problems

    def finish(self) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (Scan, Estimate, Oracle)}
