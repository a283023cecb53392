"""Experiment configuration files and parameter hashing.

The config format is INI-style key/value text with one section per
subcommand plus shared [params] and [grid] sections.  Unknown sections or
keys are rejected (misspelling "lambda" should fail loudly, not silently
fall back to a default), defaults are filled in and echoed into the run
manifest, and any referenced file must exist at load time.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
from dataclasses import dataclass

from .state import GridSpec
from .units import PhysicalParams, Smearing, si_preset


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"not a number: {text!r}") from exc


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [p.strip() for p in text.replace(";", ",").split(",") if p.strip()]
    return tuple(_parse_float(p) for p in items)


_PARSERS = {
    "float": _parse_float,
    "int": int,
    "str": lambda t: t.strip(),
    "float_list": _parse_float_list,
}

# Keys shared by the run sections, each listed once: every run section takes
# the run, flight and packet keys.
_RUN_KEYS = {
    "master_seed": ("int", 0),
    "total_time": ("float", 2.0),
    "softening": ("float", None),
}
_PACKET_KEYS = {
    "packet_center": ("float_list", (0.0,)),
    "packet_width": ("float_list", (1.0,)),
    "state_file": ("str", None),
}
_FLIGHT_KEYS = {
    "hamiltonian": ("str", "none"),
    "packet_momentum": ("float_list", None),
}

# section -> key -> (type, default).  None defaults mean "optional".
SCHEMA = {
    "params": {
        "preset": ("str", None),
        "lambda": ("float", 1.0),
        "r_c": ("float", 1.0),
        "g": ("float", 0.0),
        "hbar": ("float", 1.0),
        "masses": ("float_list", (1.0,)),
        "smearing": ("str", "sharp"),
        "smearing_width": ("float", None),
    },
    "grid": {
        "dim": ("int", 1),
        "n_points": ("int", 64),
        "spacing": ("float", 0.25),
        "origin": ("float_list", None),
    },
    "trajectory": {
        "seed": ("int", 0),
        **_RUN_KEYS, **_FLIGHT_KEYS, **_PACKET_KEYS,
    },
    "ensemble": {
        "n_traj": ("int", 256),
        **_RUN_KEYS, **_FLIGHT_KEYS, **_PACKET_KEYS,
    },
    "verify": {
        "n_traj": ("int", 512),
        "se_limit": ("float", 0.02),
        **_RUN_KEYS, **_FLIGHT_KEYS, **_PACKET_KEYS,
    },
    "kernel": {
        "separations": ("float_list", (0.5, 1.0, 2.0)),
        "rel_tol": ("float", 1e-7),
        "abs_tol": ("float", 1e-9),
    },
    "slope": {
        "separations": ("float_list", tuple(0.001 * k for k in range(1, 11))),
        "tolerance": ("float", 1e-3),
    },
    "potential": {
        "d_values": ("float_list", (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)),
    },
    "scan": {
        "separation": ("float", 0.05),
        "lambda_grid": ("float_list", (0.25, 0.5, 1.0, 2.0, 4.0)),
        "tolerance": ("float", 1e-3),
    },
}

_FILE_KEYS = {"state_file"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration: physical params, grid, per-subcommand inputs."""

    params: PhysicalParams
    grid: GridSpec
    sections: dict
    defaults_applied: dict

    def section(self, name: str) -> dict:
        return self.sections[name]


def _build_params(values: dict) -> PhysicalParams:
    try:
        if values.get("preset"):
            return si_preset(values["preset"])
        return PhysicalParams(
            lam=values["lambda"],
            r_C=values["r_c"],
            G=values["g"],
            hbar=values["hbar"],
            masses=values["masses"],
            smearing=Smearing(values["smearing"], values.get("smearing_width")),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_grid(values: dict) -> GridSpec:
    origin = values.get("origin")
    try:
        if origin is None:
            return GridSpec.centered(values["dim"], values["n_points"], values["spacing"])
        return GridSpec(values["dim"], values["n_points"], values["spacing"], origin)
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file; unknown keys are errors."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    sections: dict = {}
    defaults_applied: dict = {}
    for sec in parser.sections():
        if sec not in SCHEMA:
            raise ConfigError(f"unknown section [{sec}]")
    base = os.path.dirname(os.path.abspath(path))
    for sec, keys in SCHEMA.items():
        given = dict(parser.items(sec)) if parser.has_section(sec) else {}
        for key in given:
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in section [{sec}]")
        values = {}
        defaults = {}
        for key, (typ, default) in keys.items():
            if key in given:
                try:
                    values[key] = _PARSERS[typ](given[key])
                except ValueError as exc:  # ConfigError included
                    raise ConfigError(f"[{sec}] {key}: {exc}") from exc
            else:
                values[key] = default
                if default is not None:
                    defaults[key] = default
            if key in _FILE_KEYS and values[key]:
                candidate = values[key]
                if not os.path.isabs(candidate):
                    candidate = os.path.join(base, candidate)
                if not os.path.exists(candidate):
                    raise ConfigError(f"[{sec}] {key}: file not found: {values[key]}")
                values[key] = candidate
        sections[sec] = values
        if defaults:
            defaults_applied[sec] = defaults

    params = _build_params(sections.pop("params"))
    grid = _build_grid(sections.pop("grid"))
    return ExperimentConfig(
        params=params, grid=grid, sections=sections, defaults_applied=defaults_applied
    )


def _format_value(value) -> str:
    if isinstance(value, (tuple, list)):
        return ", ".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def save_config(config: ExperimentConfig, path) -> None:
    """Write a config file that loads back to an identical configuration."""
    p = config.params
    lines = ["[params]"]
    lines.append(f"lambda = {p.lam!r}")
    lines.append(f"r_c = {p.r_C!r}")
    lines.append(f"g = {p.G!r}")
    lines.append(f"hbar = {p.hbar!r}")
    lines.append("masses = " + _format_value(p.masses))
    lines.append(f"smearing = {p.smearing.kind}")
    if p.smearing.kind == "gaussian":
        lines.append(f"smearing_width = {p.smearing.width!r}")
    g = config.grid
    lines += ["", "[grid]"]
    lines.append(f"dim = {g.dim}")
    lines.append(f"n_points = {g.n_points}")
    lines.append(f"spacing = {g.spacing!r}")
    lines.append("origin = " + _format_value(g.origin))
    for sec, values in config.sections.items():
        lines += ["", f"[{sec}]"]
        for key, value in values.items():
            if value is None:
                continue
            lines.append(f"{key} = {_format_value(value)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def params_hash(params: PhysicalParams, grid: GridSpec | None = None) -> str:
    """Stable digest of the canonical serialized params (+ grid)."""
    payload = {
        "lambda": float(params.lam).hex(),
        "r_C": float(params.r_C).hex(),
        "G": float(params.G).hex(),
        "hbar": float(params.hbar).hex(),
        "masses": [float(m).hex() for m in params.masses],
        "smearing": [params.smearing.kind, params.smearing.width],
    }
    if grid is not None:
        payload["grid"] = {
            "dim": grid.dim,
            "n_points": grid.n_points,
            "spacing": float(grid.spacing).hex(),
            "origin": [float(c).hex() for c in grid.origin],
        }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
