"""JSON configuration loading: vehicles, tracks, controllers, sim runs.

All user-facing configuration flows through here so the CLI and the
benchmark runner accept the same vocabulary.  Errors raise ConfigError
with a message naming the offending key.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, replace

from .classical import SPEED_PID_GAINS, GainSchedule, OutputShaper, PidController, PidGains
from .geometric import PurePursuitConfig, StanleyConfig
from .models import VehicleParams, VehicleState
from .mpc import MpcBounds, MpcConfig, MpcWeights, OptSettings
from .sim import (
    BangBangLateral,
    ConstantAccel,
    CouplingConfig,
    LongitudinalPid,
    MpcLateral,
    Paired,
    PidLateral,
    PurePursuitLateral,
    SimConfig,
    StanleyLateral,
)
from .track import Track, circle_track, racetrack, straight_track


class ConfigError(Exception):
    pass


def load_json(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"top level of {path} must be a JSON object")
    return data


# numeric field annotation -> the types a config value for it may have
_NUMBERS = {"float": (int, float), "int": int, "float | None": (int, float, type(None))}


def _number(value, kinds, key: str, where: str):
    """`value` if it is one of `kinds` and not a bool, else a ConfigError
    naming `key`."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        kind = "an integer" if kinds is int else "a number"
        raise ConfigError(f"bad {where}: {key!r} must be {kind}, not {type(value).__name__}")
    return value


# Steering limits, in radians; each may also be given in degrees as <name>_deg.
_ANGLES = ("steer_max", "u_max", "delta_max")


def _take(spec, keys, where: str) -> dict:
    """Check `spec`'s keys against `keys` (plus `<angle>_deg` for each
    steering limit among them); return a copy with degrees made radians."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be a JSON object")
    degrees = {name + "_deg" for name in _ANGLES if name in keys}
    unknown = set(spec) - set(keys) - degrees
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    spec = dict(spec)
    for name in _ANGLES:
        deg = name + "_deg"
        if deg not in spec:
            continue
        if name in spec:
            raise ConfigError(f"{where} gives both {name!r} and {deg!r}")
        spec[name] = math.radians(_number(spec.pop(deg), (int, float), deg, where))
    return spec


def _pick(spec: dict, keys) -> dict:
    """The `keys` that `spec` sets, as keyword arguments for a callee whose
    signature holds the defaults."""
    return {k: spec[k] for k in keys if k in spec}


def build_section(cls, spec: dict | None, where: str, **derived):
    """Build dataclass `cls` from a config section.

    The section's keys are the field names.  A field the section leaves out
    takes its value from `derived`, else the class default.  A value given
    for a numeric field must be a number (not a bool), an integer for an
    int field.
    """
    spec = _take(spec or {}, [f.name for f in fields(cls)], where)
    for f in fields(cls):
        if f.name in spec and f.type in _NUMBERS:
            _number(spec[f.name], _NUMBERS[f.type], f.name, where)
    try:
        return cls(**{**derived, **spec})
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad {where}: {exc}") from exc


def build_vehicle(spec: dict | None) -> VehicleParams:
    return build_section(VehicleParams, spec, "vehicle")


# track kind -> (builder, the keys it takes besides 'kind' and 'name')
_TRACK_KINDS = {
    "straight": (straight_track, {"length", "spacing", "v_ref", "start", "heading"}),
    "circle": (circle_track, {"radius", "spacing", "v_ref"}),
    "racetrack": (racetrack, {"straight", "radius", "spacing", "v_ref"}),
    "csv": (Track.from_csv, {"path", "closed", "v_ref"}),
}


def build_track(spec: dict) -> Track:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("track spec needs a 'kind' key")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _TRACK_KINDS:
        raise ConfigError(f"unknown track kind {kind!r}")
    builder, keys = _TRACK_KINDS[kind]
    args = {k: v for k, v in spec.items() if k not in ("kind", "name")}
    _take(args, keys, f"track kind {kind!r}")
    if kind == "csv" and "path" not in args:
        raise ConfigError("track kind 'csv' missing key 'path'")
    try:
        return builder(**args)
    except (ValueError, TypeError, OSError) as exc:
        raise ConfigError(f"bad track spec: {exc}") from exc


def build_shaper(spec: dict | None) -> OutputShaper:
    return build_section(OutputShaper, spec, "shaper")


# PidController's keyword options; its signature holds their defaults
_PID_OPTIONS = ("integral_clamp", "buffer_len", "d_filter")
_GAINS = tuple(f.name for f in fields(PidGains))


def _schedule_row(row, where: str) -> tuple[float, PidGains]:
    gains = _take(row, ("at", *_GAINS), f"{where} schedule row")
    if "at" not in gains:
        raise ConfigError(f"{where} schedule row needs an 'at' key")
    return gains.pop("at"), build_section(PidGains, gains, f"{where} schedule row")


def _build_pid(spec: dict, where: str, gains: PidGains = PidGains()) -> PidController:
    """A PID from its section; fixed gains it leaves out keep `gains`."""
    spec = _take(spec, ("type", "shaper", "schedule", *_GAINS, *_PID_OPTIONS), where)
    fixed = sorted(set(spec) & set(_GAINS))
    if "schedule" in spec and fixed:
        raise ConfigError(f"{where} gives both a 'schedule' and fixed gain(s) {fixed}")
    try:
        if "schedule" in spec:
            gains = GainSchedule([_schedule_row(row, where) for row in spec["schedule"]])
        else:
            gains = replace(gains, **_pick(spec, _GAINS))
        return PidController(gains, **_pick(spec, _PID_OPTIONS))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad {where} config: {exc}") from exc


def _law(spec: dict) -> dict:
    """A lateral section without the keys build_lateral and build_run read."""
    return {k: v for k, v in spec.items() if k not in ("type", "shaper")}


def build_mpc_config(spec: dict) -> MpcConfig:
    law = _law(spec)
    for name, cls in (("weights", MpcWeights), ("bounds", MpcBounds), ("opt", OptSettings)):
        law[name] = build_section(cls, law.get(name), f"mpc.{name}")
    return build_section(MpcConfig, law, "mpc")


def build_lateral(spec: dict, params: VehicleParams, dt: float):
    """The steering law of a lateral spec; its 'shaper' is built by build_run.
    Every law but the MPC takes the vehicle's steering limit unless it sets
    its own."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError("lateral spec needs a 'type' key")
    kind = spec["type"]
    law = _law(spec)
    if kind == "bang_bang":
        return build_section(BangBangLateral, law, "bang_bang", u_max=params.steer_max)
    if kind == "pid":
        return PidLateral(_build_pid(spec, "lateral pid"))
    if kind == "pure_pursuit":
        return PurePursuitLateral(build_section(
            PurePursuitConfig, law, "pure_pursuit", delta_max=params.steer_max))
    if kind == "stanley":
        return StanleyLateral(build_section(
            StanleyConfig, law, "stanley", delta_max=params.steer_max))
    if kind == "mpc":
        return MpcLateral(build_mpc_config(spec), params, dt)
    if kind == "policy":
        from .learning import Policy

        law = _take(law, ("path", "delta_max"), "policy")
        try:
            return Policy.load(law["path"], steer_max=law.get("delta_max", params.steer_max))
        except (KeyError, ValueError, TypeError, OSError) as exc:
            raise ConfigError(f"bad lateral config (policy): {exc}") from exc
    raise ConfigError(f"unknown lateral type {kind!r}")


def build_longitudinal(spec: dict | None, params: VehicleParams, lateral):
    """The speed law of a longitudinal spec (default a speed PID); 'mpc'
    is the MPC steering law's own acceleration channel."""
    if spec is None:
        spec = {"type": "pid"}
    kind = spec.get("type", "pid")
    if kind == "pid":
        return LongitudinalPid(_build_pid(spec, "longitudinal pid", SPEED_PID_GAINS))
    if kind == "none":
        spec = _take(spec, ("type", "value"), "longitudinal none")
        return ConstantAccel(**_pick(spec, ("value",)))
    if kind == "mpc":
        _take(spec, ("type",), "longitudinal mpc")
        if not isinstance(lateral, MpcLateral):
            raise ConfigError("longitudinal type 'mpc' requires an mpc lateral controller")
        return lateral
    raise ConfigError(f"unknown longitudinal type {kind!r}")


def build_coupling(spec: dict | None) -> CouplingConfig:
    return build_section(CouplingConfig, spec, "coupling")


def build_initial(spec: dict | None) -> VehicleState | None:
    """The start state, or None (start on the track) for an empty section."""
    return build_section(VehicleState, spec, "initial") if spec else None


# run-config sections that are not SimConfig fields
_RUN_SECTIONS = ("vehicle", "lateral", "longitudinal", "track")


def build_run(cfg: dict):
    """Assemble (SimConfig, VehicleParams, controller) from a
    simulate-config dict."""
    sim_spec = {k: v for k, v in cfg.items() if k not in _RUN_SECTIONS}
    sim_spec["coupling"] = build_coupling(cfg.get("coupling"))
    sim_spec["initial"] = build_initial(cfg.get("initial"))
    sim_cfg = build_section(SimConfig, sim_spec, "run config")
    params = build_vehicle(cfg.get("vehicle"))
    if "lateral" not in cfg:
        raise ConfigError("run config needs a 'lateral' section")
    lat_spec = cfg["lateral"]
    lon_spec = cfg.get("longitudinal")
    lateral = build_lateral(lat_spec, params, sim_cfg.dt)
    longitudinal = build_longitudinal(lon_spec, params, lateral)
    controller = Paired(lateral, longitudinal, build_shaper(lat_spec.get("shaper")),
                        build_shaper((lon_spec or {}).get("shaper")))
    return sim_cfg, params, controller
