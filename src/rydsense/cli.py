"""Config-driven command line front end emitting machine-readable tables.

Each subcommand reads a flat JSON config file (``--config``), applies
``--set key=value`` overrides, runs the corresponding study and writes a
CSV table (``sensitivity`` writes one JSON record).  Outputs are pure
functions of (config, seed): re-runs produce byte-identical files.
Outputs are ASCII written as UTF-8, so their bytes do not depend on the
locale.  An existing output is overwritten in place and cut to the new
length.  Relative output paths resolve under ``$RYDSENSE_OUTPUT_DIR``
(default: current directory).

Exit codes: 0 success, 2 config validation error or an output path that
cannot be written, 3 numerical failure (Poisson-mixture truncation, zero
ML variance, exact and finite-difference F(theta*) disagreeing, a toy FI
outside its bound).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dipolar, error_prevention, estimation, multiparticle
from .dipolar import CloudGeometry, DipolarParams
from .errors import NumericalError
from .multiparticle import LOSS_AFTER, LOSS_BEFORE, ProtocolParams

__all__ = ["main", "ConfigError", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "RYDSENSE_OUTPUT_DIR"


class ConfigError(Exception):
    """Invalid or incomplete run configuration."""


@dataclass(frozen=True)
class _Key:
    kind: str  # float | int | str | float_list | str_list
    required: bool = False
    default: object = None
    choices: tuple | None = None


_COMMON = {"output_path": _Key("str", required=True)}

SCHEMAS = {
    "toy-fi": {
        **_COMMON,
        "etas": _Key("float_list", required=True),
        "theta_min": _Key("float", default=0.1),
        "theta_max": _Key("float", default=3.1),
        "theta_points": _Key("int", default=31),
    },
    "decay-scan": {
        **_COMMON,
        "n0": _Key("float", required=True),
        "eta": _Key("float", required=True),
        "gamma_per_s": _Key("float", required=True),
        "thetas": _Key("float_list", required=True),
        "tau_max_s": _Key("float", required=True),
        "tau_points": _Key("int", default=21),
    },
    "super-rabi": {
        **_COMMON,
        "n0": _Key("float", required=True),
        "eta": _Key("float", required=True),
        "gamma_tau": _Key("float", required=True),
        "theta_min": _Key("float", default=0.0),
        "theta_max": _Key("float", default=math.pi),
        "theta_points": _Key("int", default=101),
    },
    "fi-scan": {
        **_COMMON,
        "n0": _Key("float", required=True),
        "eta": _Key("float", required=True),
        "gamma_taus": _Key("float_list", required=True),
        "loss_orders": _Key("str_list", default=[LOSS_AFTER]),
        "theta_min": _Key("float", default=0.1),
        "theta_max": _Key("float", default=3.0),
        "theta_points": _Key("int", default=59),
    },
    "ml-experiment": {
        **_COMMON,
        "n0": _Key("float", required=True),
        "eta": _Key("float", required=True),
        "gamma_tau": _Key("float", required=True),
        "loss_order": _Key("str", default=LOSS_AFTER, choices=(LOSS_AFTER, LOSS_BEFORE)),
        "thetas": _Key("float_list", required=True),
        "n_shots_total": _Key("int", required=True),
        "shots_per_realization": _Key("int", required=True),
        "n_bootstrap": _Key("int", default=200),
        "seed": _Key("int", default=0),
    },
    "sensitivity": {
        **_COMMON,
        "n0": _Key("float", required=True),
        "eta": _Key("float", required=True),
        "gamma_tau": _Key("float", required=True),
        "loss_order": _Key("str", default=LOSS_AFTER, choices=(LOSS_AFTER, LOSS_BEFORE)),
        "rabi_frequency_hz": _Key("float", required=True),
        "dipole_moment_ea0": _Key("float", required=True),
        "grid_points": _Key("int", default=512),
        "fisher_override": _Key("float"),
    },
    "dipolar": {
        **_COMMON,
        "c3_over_2pi_hbar_ghz_um3": _Key("float", required=True),
        "cloud_kind": _Key("str", default="box", choices=("box", "gaussian")),
        "cloud_dimensions_um": _Key("float_list", required=True),
        "t_values_us": _Key("float_list", required=True),
    },
}


def _coerce(name: str, key: _Key, value):
    try:
        if key.kind == "float":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError
            value = float(value)
        elif key.kind == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError
        elif key.kind == "str":
            if not isinstance(value, str):
                raise TypeError
        elif key.kind == "float_list":
            if not isinstance(value, (list, tuple)):
                raise TypeError
            value = [float(v) for v in value]
        elif key.kind == "str_list":
            if not isinstance(value, (list, tuple)) or not all(
                isinstance(v, str) for v in value
            ):
                raise TypeError
            value = list(value)
    except (TypeError, ValueError):
        raise ConfigError(f"key {name!r} expects a {key.kind}, got {value!r}") from None
    if key.kind.endswith("_list") and not value:
        raise ConfigError(f"key {name!r} must not be empty")
    if key.kind in ("float", "float_list") and not np.all(np.isfinite(value)):
        raise ConfigError(f"key {name!r} must be finite, got {value!r}")
    if key.choices is not None and value not in key.choices:
        raise ConfigError(f"key {name!r} must be one of {key.choices}, got {value!r}")
    return value


def validate_config(subcommand: str, raw: dict) -> dict:
    schema = SCHEMAS[subcommand]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config keys for {subcommand}: {', '.join(unknown)}")
    out = {}
    for name, key in schema.items():
        if name in raw:
            out[name] = _coerce(name, key, raw[name])
        elif key.required:
            raise ConfigError(f"missing required config key {name!r} for {subcommand}")
        else:
            out[name] = key.default
    return out


def _theta_grid(cfg: dict) -> np.ndarray:
    if cfg["theta_points"] < 1:
        raise ConfigError("theta_points must be at least 1")
    if cfg["theta_points"] > 1 and not cfg["theta_min"] < cfg["theta_max"]:
        raise ConfigError("theta_min must be smaller than theta_max")
    return np.linspace(cfg["theta_min"], cfg["theta_max"], cfg["theta_points"])


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        raise ValueError(f"table cell {text!r} would need CSV quoting")
    return text


def resolve_output_path(path_str: str) -> Path:
    path = Path(path_str)
    if not path.is_absolute():
        path = Path(os.environ.get(OUTPUT_DIR_ENV, ".")) / path
    return path


def _write_output(cfg: dict, text: str) -> Path:
    """Write ``text`` as UTF-8 to the output path; returns the path.

    An existing file is overwritten in place and then cut to the new
    length, since emptying it first (``O_TRUNC``) costs more than the whole
    write on a disk that frees and discards its blocks.  A target that is
    not a regular file (``/dev/null``, a FIFO) is only written.  An
    ``OSError`` becomes a ``ConfigError`` naming the path.
    """
    path = resolve_output_path(cfg["output_path"])
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "wb") as fh:
            fh.write(text.encode())
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}") from None
    return path


def write_table(cfg: dict, columns: list, rows: list) -> Path:
    """Write ``columns`` and ``rows`` as a CSV table; returns its path.

    The table is written at once as one string with ``\\r\\n`` line
    ends, byte-identical to ``csv.writer`` on rows of two or more cells.
    Floats print with 12 significant digits.  A string cell that
    ``csv.QUOTE_MINIMAL`` would quote (one holding a comma, a double quote
    or a line break) raises ``ValueError``.
    """
    lines = [",".join(map(_fmt, row)) for row in [columns, *rows]]
    return _write_output(cfg, "\r\n".join(lines) + "\r\n")


def cmd_toy_fi(cfg: dict) -> Path:
    thetas = _theta_grid(cfg)
    columns = [
        "eta",
        "theta_rad",
        "fi_without",
        "fi_with",
        "qfi_bound",
        "ratio",
        "mean_nd_with",
        "mean_nd_without",
    ]
    rows = []
    for eta in cfg["etas"]:
        without, with_op = error_prevention.enhancement_curve(eta, thetas)
        bound = error_prevention.optimality_bound(eta)
        nd_with, nd_without = error_prevention.expectation_curves(eta, thetas)
        curves = (thetas, without, with_op, with_op / without, nd_with, nd_without)
        for theta, a, b, ratio, nd_w, nd_wo in zip(*(c.tolist() for c in curves)):
            rows.append((eta, theta, a, b, bound, ratio, nd_w, nd_wo))
    return write_table(cfg, columns, rows)


def cmd_decay_scan(cfg: dict) -> Path:
    if cfg["tau_max_s"] <= 0 or cfg["tau_points"] < 2:
        raise ConfigError("tau grid needs tau_max_s > 0 and tau_points >= 2")
    for theta in cfg["thetas"]:
        if not 0.0 <= theta < math.pi:
            raise ConfigError("decay-scan thetas must lie in [0, pi)")
    taus = np.linspace(0.0, cfg["tau_max_s"], cfg["tau_points"])
    thetas = np.asarray(cfg["thetas"])
    columns = ["theta_rad", "tau_s", "mean_nd", "fitted_rate_per_s", "p_population"]
    rows = []
    # (tau, theta) means of mode d, D exp[-B (1 - e^-gamma tau)] as
    # super_rabi_means forms them, from one (B, D) over every angle; the
    # parameters at the longest time check gamma tau for every time
    params = ProtocolParams(cfg["n0"], cfg["eta"], cfg["gamma_per_s"] * taus[-1])
    multiparticle._informative_mean(params)
    b, d = multiparticle._mixture_means(params, thetas)
    decay = np.array([1.0 - math.exp(-cfg["gamma_per_s"] * tau) for tau in taus])
    means = d * np.exp(-b * decay[:, None])
    for theta, theta_means in zip(cfg["thetas"], means.T):
        rate, _ = multiparticle.fit_exponential_decay(taus, theta_means)
        p_pop = cfg["n0"] * math.sin(theta / 2.0) ** 2
        for tau, mean in zip(taus.tolist(), theta_means.tolist()):
            rows.append((theta, tau, mean, rate, p_pop))
    return write_table(cfg, columns, rows)


def cmd_super_rabi(cfg: dict) -> Path:
    thetas = _theta_grid(cfg)
    params = ProtocolParams(cfg["n0"], cfg["eta"], cfg["gamma_tau"])
    reference = ProtocolParams(cfg["n0"], cfg["eta"], 0.0)
    columns = ["theta_rad", "mean_nd", "mean_np", "mean_nd_reference", "mean_np_reference"]
    means = multiparticle.super_rabi_means(params, thetas)
    means += multiparticle.super_rabi_means(reference, thetas)
    rows = list(zip(thetas.tolist(), *(m.tolist() for m in means)))
    return write_table(cfg, columns, rows)


def cmd_fi_scan(cfg: dict) -> Path:
    thetas = _theta_grid(cfg)
    columns = ["gamma_tau", "loss_order", "theta_rad", "fi", "normalized_fi"]
    rows = []
    for gamma_tau in cfg["gamma_taus"]:
        for order in cfg["loss_orders"]:
            params = ProtocolParams(cfg["n0"], cfg["eta"], gamma_tau, loss_order=order)
            scale = multiparticle._informative_mean(params)
            fis = multiparticle.fisher_information(params, thetas)
            for theta, fi in zip(thetas.tolist(), fis.tolist()):
                rows.append((gamma_tau, order, theta, fi, fi / scale))
    return write_table(cfg, columns, rows)


def cmd_ml_experiment(cfg: dict) -> Path:
    params = ProtocolParams(
        cfg["n0"], cfg["eta"], cfg["gamma_tau"], loss_order=cfg["loss_order"]
    )
    columns = [
        "theta_true_rad",
        "theta_hat_rad",
        "variance_rad2",
        "fi_per_shot",
        "fi_error",
        "bias_rad",
    ]
    rows = []
    for i, theta in enumerate(cfg["thetas"]):
        result = estimation.run_estimation(
            params,
            theta,
            cfg["n_shots_total"],
            cfg["shots_per_realization"],
            seed=cfg["seed"] + i,
            n_bootstrap=cfg["n_bootstrap"],
        )
        rows.append(
            (
                theta,
                result.theta_hat_mean,
                result.variance,
                result.fi_per_shot,
                result.fi_error,
                result.bias,
            )
        )
    return write_table(cfg, columns, rows)


def cmd_sensitivity(cfg: dict) -> Path:
    params = ProtocolParams(
        cfg["n0"], cfg["eta"], cfg["gamma_tau"], loss_order=cfg["loss_order"]
    )
    report = estimation.sensitivity_from_model(
        params,
        rabi_frequency=2.0 * math.pi * cfg["rabi_frequency_hz"],
        dipole_moment=estimation.dipole_moment_si(cfg["dipole_moment_ea0"]),
        grid_points=cfg["grid_points"],
        fisher_override=cfg["fisher_override"],
    )
    payload = {
        "schema": "rydsense.sensitivity",
        "version": SCHEMA_VERSION,
        "delta_theta_rad": report.delta_theta,
        "pulse_time_s": report.pulse_time_T,
        "delta_e_v_per_cm": report.delta_E,
        "sensitivity_v_per_cm_sqrt_hz": report.sensitivity_S,
        "dipole_moment_cm": report.dipole_moment,
        "rabi_frequency_rad_s": report.rabi_frequency,
        "theta_star_rad": report.theta_star,
        "fisher_information": report.fisher_information,
        "normalized_fi": report.fisher_information / params.detected_mean,
    }
    return _write_output(cfg, json.dumps(payload, indent=1) + "\n")


def cmd_dipolar(cfg: dict) -> Path:
    cloud = CloudGeometry(cfg["cloud_kind"], tuple(cfg["cloud_dimensions_um"]))
    params = DipolarParams.from_tabulated(cfg["c3_over_2pi_hbar_ghz_um3"], cloud)
    ts = np.asarray(cfg["t_values_us"], dtype=float)
    a_values = [dipolar.excluded_volume_integral(t, params) for t in ts]
    q = dipolar.volumetric_rate_q(params)
    gamma = dipolar.decay_rate_gamma(params)
    columns = [
        "t_us",
        "re_a_um3",
        "im_a_um3",
        "q_fit_um3_per_s",
        "gamma_per_s",
        "gamma_no_2pi_per_s",
    ]
    rows = [
        (float(t), float(a.real), float(a.imag), q, gamma, gamma / (2.0 * math.pi))
        for t, a in zip(ts, a_values)
    ]
    return write_table(cfg, columns, rows)


_COMMANDS = {
    "toy-fi": cmd_toy_fi,
    "decay-scan": cmd_decay_scan,
    "super-rabi": cmd_super_rabi,
    "fi-scan": cmd_fi_scan,
    "ml-experiment": cmd_ml_experiment,
    "sensitivity": cmd_sensitivity,
    "dipolar": cmd_dipolar,
}


def _parse_set(items: list) -> dict:
    out = {}
    for item in items:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydsense",
        description="Interaction-enhanced microwave metrology studies",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} study")
        p.add_argument("--config", help="JSON config file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (value parsed as JSON)",
        )
        p.add_argument("--output", help="override output_path")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args starts each call from a fresh
    # namespace and copies the --set default before appending to it
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        raw: dict = {}
        if args.config:
            try:
                with open(args.config) as fh:
                    raw = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from None
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from None
            if not isinstance(raw, dict):
                raise ConfigError("config file must hold a JSON object")
        raw.update(_parse_set(args.set))
        if args.output is not None:
            raw["output_path"] = args.output
        cfg = validate_config(args.subcommand, raw)
        path = _COMMANDS[args.subcommand](cfg)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
