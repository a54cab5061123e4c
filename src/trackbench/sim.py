"""Closed-loop simulation harness: control-scheme wiring, metrics, logging.

Per step: measure tracking errors, run the longitudinal controller (PID on
speed error by default for every lateral strategy), run the lateral
controller, derive effective bounds from the coupling scheme, shape and
clip both channels, step the plant, log.  Runs terminate with exactly one
of: completed, max_steps, diverged, off_track, end_of_track.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .classical import OutputShaper, PidController, bang_bang_step
from .geometric import (
    PurePursuitConfig,
    StanleyConfig,
    lookahead_distance,
    pure_pursuit_steer,
    stanley_steer,
)
from .models import (
    ControlInput,
    DynamicState,
    VehicleParams,
    VehicleState,
    clamp,
    dynamic_step,
)
from .mpc import MpcConfig, MpcController
from .track import Track, TrackingErrors

TERMINATIONS = ("completed", "max_steps", "diverged", "off_track", "end_of_track")

LOG_HEADER = "t,x,y,theta,v,accel,steer,e_ct,e_head,e_v"


@dataclass(frozen=True)
class CouplingConfig:
    """Coupled-control limit scheme.

    long_dominant shrinks the steering limit with speed
    (delta_max*c/(c+v)); lat_dominant shrinks the speed limit with steering
    (v_max*c'/(c'+|delta|*scale)); mutual applies both, each factor raised
    to its dominance weight (weight 0 removes that influence, 1 gives the
    single-sided law).
    """

    mode: str = "decoupled"
    c_speed: float = 8.0
    c_steer: float = 1.0
    steer_scale: float = 3.0
    v_max: float = 30.0
    w_long: float = 1.0
    w_lat: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in ("decoupled", "long_dominant", "lat_dominant", "mutual"):
            raise ValueError(f"unknown coupling mode {self.mode!r}")
        if self.c_speed <= 0.0 or self.c_steer <= 0.0 or self.steer_scale < 0.0:
            raise ValueError("coupling constants must be positive")


def couple_limits(
    coupling: CouplingConfig, v: float, steer_cmd: float, v_max_base: float, steer_max_base: float
) -> tuple[float, float]:
    """Effective (v_max, steer_max) under the configured coupling mode."""
    mode = coupling.mode
    if mode == "decoupled":
        return v_max_base, steer_max_base
    f_long = coupling.c_speed / (coupling.c_speed + max(v, 0.0))
    f_lat = coupling.c_steer / (coupling.c_steer + abs(steer_cmd) * coupling.steer_scale)
    if mode == "long_dominant":
        return v_max_base, steer_max_base * f_long
    if mode == "lat_dominant":
        return v_max_base * f_lat, steer_max_base
    return v_max_base * f_lat**coupling.w_lat, steer_max_base * f_long**coupling.w_long


@dataclass(frozen=True)
class SimConfig:
    model: str = "kinematic"  # kinematic | dynamic
    dt: float = 0.02
    max_steps: int = 20000
    seed: int = 0
    coupling: CouplingConfig = field(default_factory=CouplingConfig)
    initial: VehicleState | None = None
    off_track_limit: float = 5.0
    actuator_delay_steps: int = 0

    def __post_init__(self) -> None:
        if self.model not in ("kinematic", "dynamic"):
            raise ValueError(f"unknown model {self.model!r}")
        if not self.dt > 0.0:
            raise ValueError("dt must be > 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.actuator_delay_steps < 0:
            raise ValueError("actuator_delay_steps must be >= 0")


@dataclass
class Metrics:
    rms_cross_track: float
    max_cross_track: float
    rms_heading: float
    rms_speed_err: float
    mean_abs_steer_rate: float
    lap_time: float  # nan unless completed
    completion: float


@dataclass
class RunRecord:
    rows: np.ndarray  # columns: t,x,y,theta,v,accel,steer,e_ct,e_head,e_v
    termination: str
    metrics: Metrics

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, LOG_HEADER.split(",").index(name)]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(LOG_HEADER + "\n")
            for row in self.rows:
                fh.write(",".join(format(v, ".12g") for v in row) + "\n")


def compute_metrics(
    rows: np.ndarray, dt: float, completion: float, lap_time: float = math.nan
) -> Metrics:
    if rows.shape[0] == 0:
        raise ValueError("cannot compute metrics over zero rows")
    e_ct = rows[:, 7]
    e_head = rows[:, 8]
    e_v = rows[:, 9]
    steer = rows[:, 6]
    if rows.shape[0] > 1:
        steer_rate = float(np.mean(np.abs(np.diff(steer)) / dt))
    else:
        steer_rate = 0.0
    return Metrics(
        rms_cross_track=float(np.sqrt(np.mean(e_ct * e_ct))),
        max_cross_track=float(np.max(np.abs(e_ct))),
        rms_heading=float(np.sqrt(np.mean(e_head * e_head))),
        rms_speed_err=float(np.sqrt(np.mean(e_v * e_v))),
        mean_abs_steer_rate=steer_rate,
        lap_time=lap_time,
        completion=float(min(max(completion, 0.0), 1.0)),
    )


# ------------------------------------------------------------ controllers


class LongitudinalPid:
    """Speed-error PID producing acceleration commands."""

    def __init__(self, pid: PidController, shaper: OutputShaper | None = None):
        self.pid = pid
        self.shaper = shaper or OutputShaper()

    def reset(self) -> None:
        self.pid.reset()

    def accel(self, speed_err: float, v: float, dt: float) -> float:
        return self.pid.step(speed_err, dt, scheduling_value=v)


class ConstantAccel:
    def __init__(self, value: float = 0.0):
        self.value = value
        self.shaper = OutputShaper()

    def reset(self) -> None:
        pass

    def accel(self, speed_err: float, v: float, dt: float) -> float:
        return self.value


class MpcAccelPassthrough:
    """Applies the acceleration channel of an MPC lateral controller."""

    def __init__(self, mpc_lateral: "MpcLateral"):
        self.mpc = mpc_lateral
        self.shaper = OutputShaper()

    def reset(self) -> None:
        pass

    def accel(self, speed_err: float, v: float, dt: float) -> float:
        return self.mpc.last_accel


class BangBangLateral:
    """Relay steering on the lateral offset.

    The measurement is the vehicle's lateral position relative to the path
    (-e_ct), with setpoint 0.
    """

    frame = "cog"

    def __init__(self, u_max: float, scale: float = 0.1, shaper: OutputShaper | None = None):
        self.u_max = u_max
        self.scale = scale
        self.shaper = shaper or OutputShaper()
        self.end_of_track = False

    def reset(self) -> None:
        self.end_of_track = False

    def steer(self, state, errors: TrackingErrors, track: Track, dt: float) -> float:
        return bang_bang_step(-errors.cross_track, 0.0, self.u_max, -self.u_max, self.scale)


class PidLateral:
    frame = "cog"

    def __init__(self, pid: PidController, shaper: OutputShaper | None = None):
        self.pid = pid
        self.shaper = shaper or OutputShaper()
        self.end_of_track = False

    def reset(self) -> None:
        self.pid.reset()
        self.end_of_track = False

    def steer(self, state, errors: TrackingErrors, track: Track, dt: float) -> float:
        return self.pid.step(errors.cross_track, dt, scheduling_value=state[3])


class PurePursuitLateral:
    frame = "rear_axle"

    def __init__(self, cfg: PurePursuitConfig, params: VehicleParams,
                 shaper: OutputShaper | None = None):
        self.cfg = cfg
        self.params = params
        self.shaper = shaper or OutputShaper()
        self.end_of_track = False
        self._hint: int | None = None

    def reset(self) -> None:
        self.end_of_track = False
        self._hint = None

    def steer(self, state, errors: TrackingErrors, track: Track, dt: float) -> float:
        x, y, theta, v = state
        rx = x - self.params.dist_rear * math.cos(theta)
        ry = y - self.params.dist_rear * math.sin(theta)
        d_l = lookahead_distance(self.cfg, v)
        la = track.lookahead(rx, ry, theta, d_l, self._hint)
        self._hint = errors.nearest_index
        if la.end_of_track:
            self.end_of_track = True
        return pure_pursuit_steer(self.cfg, la.alpha, v, self.params, d_l)


class StanleyLateral:
    frame = "front_axle"

    def __init__(self, cfg: StanleyConfig, shaper: OutputShaper | None = None):
        self.cfg = cfg
        self.shaper = shaper or OutputShaper()
        self.end_of_track = False

    def reset(self) -> None:
        self.end_of_track = False

    def steer(self, state, errors: TrackingErrors, track: Track, dt: float) -> float:
        return stanley_steer(self.cfg, errors, state[3])


class MpcLateral:
    """Receding-horizon controller on its own divisor schedule.

    The command recomputes every `tick` sim steps (tick = ts/dt) and holds
    in between; both channels are produced, the accel channel applies only
    through MpcAccelPassthrough.
    """

    frame = "cog"

    def __init__(self, cfg: MpcConfig, params: VehicleParams, dt: float,
                 shaper: OutputShaper | None = None):
        tick = max(1, round(cfg.ts / dt))
        if abs(tick * dt - cfg.ts) > 1e-9:
            cfg = replace(cfg, ts=tick * dt)
        self.cfg = cfg
        self.tick = tick
        self.controller = MpcController(cfg, params)
        self.shaper = shaper or OutputShaper()
        self.last_accel = 0.0
        self.last_steer = 0.0
        self._stepno = 0
        self.end_of_track = False

    def reset(self) -> None:
        self.controller.reset()
        self.last_accel = 0.0
        self.last_steer = 0.0
        self._stepno = 0
        self.end_of_track = False

    def steer(self, state, errors: TrackingErrors, track: Track, dt: float) -> float:
        if self._stepno % self.tick == 0:
            self.last_accel, self.last_steer = self.controller.step(state, track)
            if self.controller.end_of_track:
                self.end_of_track = True
        self._stepno += 1
        return self.last_steer


# --------------------------------------------------------------- sim loop


def _default_initial(track: Track) -> VehicleState:
    return VehicleState(
        x=float(track.xs[0]),
        y=float(track.ys[0]),
        theta=float(track.seg_tangent[0]),
        v=float(track.v_ref[0]),
    )


def simulate(
    cfg: SimConfig,
    track: Track,
    params: VehicleParams,
    lateral,
    longitudinal,
) -> RunRecord:
    dt = cfg.dt
    init = cfg.initial or _default_initial(track)
    lateral.reset()
    longitudinal.reset()

    dyn: DynamicState | None = None
    if cfg.model == "dynamic":
        dyn = DynamicState(init.x, init.y, init.theta, init.v)
        state = (dyn.x, dyn.y, dyn.theta, dyn.v)
    else:
        state = (init.x, init.y, init.theta, init.v)

    rows = np.empty((cfg.max_steps, 10))
    n = 0
    termination = "max_steps"
    lap_time = math.nan

    hint: int | None = None
    prev_accel = 0.0
    prev_steer = 0.0
    v_max_eff = cfg.coupling.v_max
    steer_max_eff = params.steer_max
    delay: list[tuple[float, float]] = []

    s_start: float | None = None
    s_prev = 0.0
    progress = 0.0
    max_progress = 0.0

    for k in range(cfg.max_steps):
        t = k * dt
        x, y, theta, v = state
        if not all(map(math.isfinite, state)) or abs(v) > 1e3:
            termination = "diverged"
            break

        errors = track.tracking_errors(
            VehicleState(x, y, theta, v), "cog", params, hint
        )
        hint = errors.nearest_index

        if errors.distance > cfg.off_track_limit:
            termination = "off_track"
            break

        # progress bookkeeping
        if s_start is None:
            s_start = errors.s
            s_prev = errors.s
        ds = errors.s - s_prev
        if track.closed:
            ds = (ds + 0.5 * track.length) % track.length - 0.5 * track.length
        progress += ds
        s_prev = errors.s
        max_progress = max(max_progress, progress)

        if track.closed:
            if progress >= track.length:
                termination = "completed"
                lap_time = t
                break
        else:
            if errors.s >= track.length - 1e-6:
                termination = "completed"
                lap_time = t
                break
        if getattr(lateral, "end_of_track", False) and v < 0.05:
            termination = "end_of_track"
            break

        # controllers; a controller failure must end the run, not raise
        v_ref_eff = min(errors.speed + v, v_max_eff)  # errors.speed = v_ref - v
        try:
            accel_raw = longitudinal.accel(v_ref_eff - v, v, dt)
            if lateral.frame == "cog":
                ctrl_errors = errors
            else:
                ctrl_errors = track.tracking_errors(
                    VehicleState(x, y, theta, v), lateral.frame, params, hint
                )
            steer_raw = lateral.steer(state, ctrl_errors, track, dt)
        except (ValueError, ArithmeticError):
            termination = "diverged"
            break
        if not (math.isfinite(accel_raw) and math.isfinite(steer_raw)):
            termination = "diverged"
            break

        v_max_eff, steer_max_eff = couple_limits(
            cfg.coupling, v, steer_raw, cfg.coupling.v_max, params.steer_max
        )

        accel = longitudinal.shaper.shape(accel_raw, prev_accel, v_ref_eff - v, dt)
        accel = clamp(accel, -params.decel_max, params.accel_max)
        steer = lateral.shaper.shape(steer_raw, prev_steer, errors.cross_track, dt)
        steer = clamp(steer, -steer_max_eff, steer_max_eff)
        prev_accel = accel
        prev_steer = steer

        if cfg.actuator_delay_steps > 0:
            delay.append((accel, steer))
            if len(delay) > cfg.actuator_delay_steps:
                accel_app, steer_app = delay.pop(0)
            else:
                accel_app, steer_app = 0.0, 0.0
        else:
            accel_app, steer_app = accel, steer

        rows[n] = (t, x, y, theta, v, accel_app, steer_app,
                   errors.cross_track, errors.heading, errors.speed)
        n += 1

        # plant step
        if cfg.model == "dynamic":
            dyn = dynamic_step(dyn, ControlInput(accel_app, steer_app), dt, params)
            state = (dyn.x, dyn.y, dyn.theta, dyn.v)
        else:
            state = kernels.kin_step(
                x, y, theta, v, accel_app, steer_app, dt, params.wheelbase, params.dist_rear
            )

    rows = rows[:n]
    if n == 0:
        # terminated before the first loggable step; keep a single snapshot
        x, y, theta, v = state
        rows = np.array([[0.0, x, y, theta, v, 0.0, 0.0, 0.0, 0.0, 0.0]])

    if s_start is None:
        completion = 0.0
    elif track.closed:
        completion = max_progress / track.length
    else:
        denom = track.length - s_start
        completion = (max_progress / denom) if denom > 1e-9 else 1.0
    if termination == "completed":
        completion = 1.0

    metrics = compute_metrics(rows, dt, completion, lap_time)
    return RunRecord(rows=rows, termination=termination, metrics=metrics)
