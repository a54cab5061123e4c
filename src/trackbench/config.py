"""JSON configuration loading: vehicles, tracks, controllers, sim runs.

All user-facing configuration flows through here so the CLI and the
benchmark runner accept the same vocabulary.  Errors raise ConfigError
with a message naming the offending key.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, replace

from .classical import GainSchedule, OutputShaper, PidController, PidGains
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


def _take(spec: dict, allowed: set, where: str) -> None:
    unknown = set(spec) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def build_vehicle(spec: dict | None) -> VehicleParams:
    if not spec:
        return VehicleParams()
    names = {f.name for f in fields(VehicleParams)} | {"steer_max_deg"}
    _take(spec, names, "vehicle")
    spec = dict(spec)
    if "steer_max_deg" in spec:
        spec["steer_max"] = math.radians(spec.pop("steer_max_deg"))
    try:
        return replace(VehicleParams(), **spec)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad vehicle parameters: {exc}") from exc


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
    if not spec:
        return OutputShaper()
    _take(spec, {"out_min", "out_max", "max_rate", "deadband"}, "shaper")
    try:
        return OutputShaper(
            out_min=spec.get("out_min", -math.inf),
            out_max=spec.get("out_max", math.inf),
            max_rate=spec.get("max_rate", math.inf),
            deadband=spec.get("deadband", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"bad shaper: {exc}") from exc


def _build_pid(spec: dict, where: str) -> PidController:
    allowed = {"type", "kp", "ki", "kd", "schedule", "integral_clamp",
               "buffer_len", "d_filter", "shaper"}
    _take(spec, allowed, where)
    try:
        if "schedule" in spec:
            entries = [
                (row["at"], PidGains(row.get("kp", 0.0), row.get("ki", 0.0), row.get("kd", 0.0)))
                for row in spec["schedule"]
            ]
            gains = GainSchedule(entries)
        else:
            gains = PidGains(spec.get("kp", 0.0), spec.get("ki", 0.0), spec.get("kd", 0.0))
        return PidController(
            gains,
            integral_clamp=spec.get("integral_clamp", 10.0),
            buffer_len=spec.get("buffer_len", 1000),
            d_filter=spec.get("d_filter", 0.0),
        )
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"bad {where} config: {exc}") from exc


def _steer_limit(spec: dict, params: VehicleParams) -> float:
    if "delta_max_deg" in spec:
        return math.radians(spec["delta_max_deg"])
    return params.steer_max


def build_mpc_config(spec: dict) -> MpcConfig:
    allowed = {"type", "ts", "p", "m", "weights", "bounds", "opt",
               "latency_steps", "shaper"}
    _take(spec, allowed, "mpc")
    w = spec.get("weights", {})
    _take(w, {"pos", "head", "vel", "d_accel", "d_steer"}, "mpc.weights")
    b = dict(spec.get("bounds", {}))
    _take(b, {"accel_min", "accel_max", "steer_max", "steer_max_deg",
              "accel_rate", "steer_rate", "v_max", "soft_penalty"}, "mpc.bounds")
    if "steer_max_deg" in b:
        b["steer_max"] = math.radians(b.pop("steer_max_deg"))
    o = spec.get("opt", {})
    _take(o, {"max_iter"}, "mpc.opt")
    try:
        return MpcConfig(
            ts=spec.get("ts", 0.05),
            p=spec.get("p", 20),
            m=spec.get("m", 4),
            weights=replace(MpcWeights(), **w),
            bounds=replace(MpcBounds(), **b),
            opt=replace(OptSettings(), **o),
            latency_steps=spec.get("latency_steps", 0),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad mpc config: {exc}") from exc


def build_lateral(spec: dict, params: VehicleParams, dt: float):
    """The steering law of a lateral spec; its 'shaper' is built by build_run."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError("lateral spec needs a 'type' key")
    kind = spec["type"]
    try:
        if kind == "bang_bang":
            _take(spec, {"type", "scale", "u_max", "u_max_deg", "shaper"}, "bang_bang")
            u_max = spec.get("u_max", params.steer_max)
            if "u_max_deg" in spec:
                u_max = math.radians(spec["u_max_deg"])
            return BangBangLateral(u_max, spec.get("scale", 0.1))
        if kind == "pid":
            return PidLateral(_build_pid(spec, "lateral pid"))
        if kind == "pure_pursuit":
            _take(spec, {"type", "k_v", "d_l_min", "d_l_max", "d_l_fixed",
                         "delta_max_deg", "shaper"}, "pure_pursuit")
            cfg = PurePursuitConfig(
                k_v=spec.get("k_v", 0.5),
                d_l_min=spec.get("d_l_min", 2.0),
                d_l_max=spec.get("d_l_max", 20.0),
                delta_max=_steer_limit(spec, params),
                d_l_fixed=spec.get("d_l_fixed"),
            )
            return PurePursuitLateral(cfg)
        if kind == "stanley":
            _take(spec, {"type", "k_delta", "k_s", "k_d", "delta_max_deg",
                         "shaper"}, "stanley")
            cfg = StanleyConfig(
                k_delta=spec.get("k_delta", 4.0),
                k_s=spec.get("k_s", 1.0),
                k_d=spec.get("k_d", 1.0),
                delta_max=_steer_limit(spec, params),
            )
            return StanleyLateral(cfg)
        if kind == "mpc":
            return MpcLateral(build_mpc_config(spec), params, dt)
        if kind == "policy":
            from .learning import Policy

            _take(spec, {"type", "path", "delta_max_deg", "shaper"}, "policy")
            return Policy.load(spec["path"], steer_max=_steer_limit(spec, params))
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError, OSError) as exc:
        raise ConfigError(f"bad lateral config ({kind}): {exc}") from exc
    raise ConfigError(f"unknown lateral type {kind!r}")


def build_longitudinal(spec: dict | None, params: VehicleParams, lateral):
    """The speed law of a longitudinal spec (default a speed PID); 'mpc'
    is the MPC steering law's own acceleration channel."""
    if spec is None:
        spec = {"type": "pid"}
    kind = spec.get("type", "pid")
    if kind == "pid":
        return LongitudinalPid(_build_pid({**{"kp": 1.2, "ki": 0.1}, **spec}, "longitudinal pid"))
    if kind == "none":
        _take(spec, {"type", "value"}, "longitudinal none")
        return ConstantAccel(spec.get("value", 0.0))
    if kind == "mpc":
        _take(spec, {"type"}, "longitudinal mpc")
        if not isinstance(lateral, MpcLateral):
            raise ConfigError("longitudinal type 'mpc' requires an mpc lateral controller")
        return lateral
    raise ConfigError(f"unknown longitudinal type {kind!r}")


def build_coupling(spec: dict | None) -> CouplingConfig:
    if not spec:
        return CouplingConfig()
    names = {f.name for f in fields(CouplingConfig)}
    _take(spec, names, "coupling")
    try:
        return replace(CouplingConfig(), **spec)
    except ValueError as exc:
        raise ConfigError(f"bad coupling config: {exc}") from exc


def build_initial(spec: dict | None) -> VehicleState | None:
    if not spec:
        return None
    _take(spec, {"x", "y", "theta", "v"}, "initial")
    return VehicleState(
        x=spec.get("x", 0.0), y=spec.get("y", 0.0),
        theta=spec.get("theta", 0.0), v=spec.get("v", 0.0),
    )


def build_run(cfg: dict, track: Track):
    """Assemble (SimConfig, VehicleParams, controller) from a
    simulate-config dict."""
    allowed = {"model", "dt", "max_steps", "vehicle", "coupling",
               "lateral", "longitudinal", "initial", "off_track_limit",
               "actuator_delay_steps", "track"}
    _take(cfg, allowed, "run config")
    params = build_vehicle(cfg.get("vehicle"))
    dt = cfg.get("dt", 0.02)
    try:
        sim_cfg = SimConfig(
            model=cfg.get("model", "kinematic"),
            dt=dt,
            max_steps=cfg.get("max_steps", 20000),
            coupling=build_coupling(cfg.get("coupling")),
            initial=build_initial(cfg.get("initial")),
            off_track_limit=cfg.get("off_track_limit", 5.0),
            actuator_delay_steps=cfg.get("actuator_delay_steps", 0),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad sim config: {exc}") from exc
    if "lateral" not in cfg:
        raise ConfigError("run config needs a 'lateral' section")
    lat_spec = cfg["lateral"]
    lon_spec = cfg.get("longitudinal")
    lateral = build_lateral(lat_spec, params, dt)
    longitudinal = build_longitudinal(lon_spec, params, lateral)
    controller = Paired(lateral, longitudinal, build_shaper(lat_spec.get("shaper")),
                        build_shaper((lon_spec or {}).get("shaper")))
    return sim_cfg, params, controller
