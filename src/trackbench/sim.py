"""Closed-loop simulation harness: the controller interface, metrics, logging.

A controller has reset() and step(ctx) -> (accel, steer), where ctx is the
run's ControlContext.  Per step the harness measures the COG tracking
errors, checks for termination, asks the controller for its shaped command,
derives effective bounds from the coupling scheme, clips both channels to
them, steps the plant and logs.  Paired builds a controller from a steering
law and a speed law.  Runs terminate with exactly one of: completed,
max_steps, diverged, off_track, end_of_track.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Protocol

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


class ControlContext:
    """What a controller sees of its run; the harness updates it each step.

    `step_index` counts the run's steps from 0.  `state` is the plant's
    (x, y, theta, v).  `speed_error` is the reference speed, capped by the
    coupled speed limit, minus v.  `prev_accel` and `prev_steer` are the
    previous step's commands after shaping and clamping.  A controller whose
    reference has run out sets `end_of_track`; the run then ends once the
    vehicle stops.
    """

    def __init__(self, track: Track, params: VehicleParams, dt: float):
        self.track = track
        self.params = params
        self.dt = dt
        self.step_index = -1
        self.state = (0.0, 0.0, 0.0, 0.0)
        self.speed_error = 0.0
        self.prev_accel = 0.0
        self.prev_steer = 0.0
        self.end_of_track = False
        self._hint: int | None = None
        self._errors: dict[str, TrackingErrors] = {}

    def advance(self, state: tuple[float, float, float, float]) -> None:
        self.step_index += 1
        self.state = state
        self._errors.clear()

    def errors(self, frame: str) -> TrackingErrors:
        """This step's errors at `frame` ('cog', 'front_axle' or
        'rear_axle'), measured at most once, each query hinted with the
        latest COG foot point."""
        errors = self._errors.get(frame)
        if errors is None:
            x, y, theta, v = self.state
            errors = self.track.tracking_errors(
                VehicleState(x, y, theta, v), frame, self.params, self._hint
            )
            if frame == "cog":
                self._hint = errors.nearest_index
            self._errors[frame] = errors
        return errors


class Controller(Protocol):
    """What simulate drives: reset() before a run, then step(ctx) once per
    control step, returning the shaped (accel, steer) command."""

    def reset(self) -> None: ...

    def step(self, ctx: ControlContext) -> tuple[float, float]: ...


class Paired:
    """One controller from a steering law and a speed law.

    A steering law has reset() and steer(ctx) -> float, a speed law reset()
    and accel(ctx) -> float.  The speed law runs first.  A non-finite law
    output raises before shaping, so no shaper can hide it.  Each channel
    then passes its own shaper, whose deadband reads the speed error
    (acceleration) or the COG cross-track error (steering).
    """

    def __init__(self, lateral, longitudinal, lateral_shaper: OutputShaper | None = None,
                 longitudinal_shaper: OutputShaper | None = None):
        self.lateral = lateral
        self.longitudinal = longitudinal
        self.lateral_shaper = lateral_shaper or OutputShaper()
        self.longitudinal_shaper = longitudinal_shaper or OutputShaper()

    def reset(self) -> None:
        self.lateral.reset()
        self.longitudinal.reset()

    def step(self, ctx: ControlContext) -> tuple[float, float]:
        accel = self.longitudinal.accel(ctx)
        steer = self.lateral.steer(ctx)
        if not (math.isfinite(accel) and math.isfinite(steer)):
            raise FloatingPointError(f"non-finite command ({accel}, {steer})")
        accel = self.longitudinal_shaper.shape(accel, ctx.prev_accel, ctx.speed_error, ctx.dt)
        steer = self.lateral_shaper.shape(
            steer, ctx.prev_steer, ctx.errors("cog").cross_track, ctx.dt
        )
        return accel, steer


class LongitudinalPid:
    """Speed law: PID on the speed error, scheduled on speed."""

    def __init__(self, pid: PidController):
        self.pid = pid

    def reset(self) -> None:
        self.pid.reset()

    def accel(self, ctx: ControlContext) -> float:
        return self.pid.step(ctx.speed_error, ctx.dt, scheduling_value=ctx.state[3])


class ConstantAccel:
    """Speed law: a fixed acceleration."""

    def __init__(self, value: float = 0.0):
        self.value = value

    def reset(self) -> None:
        pass

    def accel(self, ctx: ControlContext) -> float:
        return self.value


@dataclass(frozen=True)
class BangBangLateral:
    """Relay steering on the lateral offset.

    The measurement is the vehicle's lateral position relative to the path
    (-e_ct), with setpoint 0.
    """

    u_max: float
    scale: float = 0.1

    def __post_init__(self) -> None:
        if not self.u_max > 0.0:
            raise ValueError("u_max must be > 0")
        if not self.scale > 0.0:
            raise ValueError("scale must be > 0")

    def reset(self) -> None:
        pass

    def steer(self, ctx: ControlContext) -> float:
        return bang_bang_step(
            -ctx.errors("cog").cross_track, 0.0, self.u_max, -self.u_max, self.scale
        )


class PidLateral:
    def __init__(self, pid: PidController):
        self.pid = pid

    def reset(self) -> None:
        self.pid.reset()

    def steer(self, ctx: ControlContext) -> float:
        return self.pid.step(ctx.errors("cog").cross_track, ctx.dt, scheduling_value=ctx.state[3])


class PurePursuitLateral:
    """Chases the lookahead point from the rear axle's foot point."""

    def __init__(self, cfg: PurePursuitConfig):
        self.cfg = cfg

    def reset(self) -> None:
        pass

    def steer(self, ctx: ControlContext) -> float:
        x, y, theta, v = ctx.state
        params = ctx.params
        rx = x - params.dist_rear * math.cos(theta)
        ry = y - params.dist_rear * math.sin(theta)
        d_l = lookahead_distance(self.cfg, v)
        la = ctx.track.lookahead(rx, ry, theta, d_l, ctx.errors("rear_axle"))
        if la.end_of_track:
            ctx.end_of_track = True
        return pure_pursuit_steer(self.cfg, la.alpha, v, params, d_l)


class StanleyLateral:
    def __init__(self, cfg: StanleyConfig):
        self.cfg = cfg

    def reset(self) -> None:
        pass

    def steer(self, ctx: ControlContext) -> float:
        return stanley_steer(self.cfg, ctx.errors("front_axle"), ctx.state[3])


class MpcLateral:
    """Receding-horizon controller on its own divisor schedule.

    It is a law for both channels.  It solves on every `tick`-th sim step
    (tick = ts/dt), in whichever of accel() and steer() runs first, and
    holds the command in between, so paired with itself ("longitudinal":
    {"type": "mpc"}) both channels of a solve apply on the same step.
    """

    def __init__(self, cfg: MpcConfig, params: VehicleParams, dt: float):
        tick = max(1, round(cfg.ts / dt))
        if abs(tick * dt - cfg.ts) > 1e-9:
            cfg = replace(cfg, ts=tick * dt)
        self.cfg = cfg
        self.tick = tick
        self.controller = MpcController(cfg, params)
        self._command = (0.0, 0.0)
        self._solved_at = -1

    def reset(self) -> None:
        self.controller.reset()
        self._command = (0.0, 0.0)
        self._solved_at = -1

    def _command_at(self, ctx: ControlContext) -> tuple[float, float]:
        k = ctx.step_index
        if k % self.tick == 0 and k != self._solved_at:
            self._solved_at = k
            self._command = self.controller.step(ctx.state, ctx.track)
            if self.controller.end_of_track:
                ctx.end_of_track = True
        return self._command

    def accel(self, ctx: ControlContext) -> float:
        return self._command_at(ctx)[0]

    def steer(self, ctx: ControlContext) -> float:
        return self._command_at(ctx)[1]


# --------------------------------------------------------------- sim loop


def _default_initial(track: Track) -> VehicleState:
    return VehicleState(
        x=float(track.xs[0]),
        y=float(track.ys[0]),
        theta=float(track.seg_tangent[0]),
        v=float(track.v_ref[0]),
    )


class _Progress:
    """Arc length driven along the track since the first foot point."""

    def __init__(self, track: Track):
        self.track = track
        self.s_start = self.s_prev = None
        self.driven = self.max_driven = 0.0

    def advance(self, s: float) -> bool:
        """Move to foot-point arc length s; True once the run is complete."""
        track = self.track
        if self.s_start is None:
            self.s_start = self.s_prev = s
        ds = s - self.s_prev
        if track.closed:
            ds = (ds + 0.5 * track.length) % track.length - 0.5 * track.length
        self.driven += ds
        self.s_prev = s
        self.max_driven = max(self.max_driven, self.driven)
        return self.driven >= track.length if track.closed else s >= track.length - 1e-6

    def completion(self) -> float:
        if self.s_start is None:
            return 0.0
        # a closed track's length always exceeds the 1e-9 floor
        span = self.track.length - (0.0 if self.track.closed else self.s_start)
        return self.max_driven / span if span > 1e-9 else 1.0


def _stop_reason(cfg: SimConfig, ctx: ControlContext, progress: _Progress) -> str | None:
    """Why the run ends at this step before any command, if it does."""
    v = ctx.state[3]
    if not all(map(math.isfinite, ctx.state)) or abs(v) > 1e3:
        return "diverged"
    errors = ctx.errors("cog")
    if errors.distance > cfg.off_track_limit:
        return "off_track"
    if progress.advance(errors.s):
        return "completed"
    if ctx.end_of_track and v < 0.05:
        return "end_of_track"
    return None


def simulate(
    cfg: SimConfig, track: Track, params: VehicleParams, controller: Controller
) -> RunRecord:
    dt = cfg.dt
    init = cfg.initial or _default_initial(track)
    controller.reset()
    ctx = ControlContext(track, params, dt)
    progress = _Progress(track)

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
    v_max_eff = cfg.coupling.v_max
    # commands reach the plant actuator_delay_steps steps late; zeros until then
    delay = deque([(0.0, 0.0)] * cfg.actuator_delay_steps)

    for k in range(cfg.max_steps):
        t = k * dt
        ctx.advance(state)
        reason = _stop_reason(cfg, ctx, progress)
        if reason is not None:
            termination = reason
            if reason == "completed":
                lap_time = t
            break

        x, y, theta, v = state
        errors = ctx.errors("cog")
        ctx.speed_error = min(errors.speed + v, v_max_eff) - v  # errors.speed = v_ref - v
        # a controller failure must end the run, not raise
        try:
            accel, steer = controller.step(ctx)
        except (ValueError, ArithmeticError):
            termination = "diverged"
            break
        if not (math.isfinite(accel) and math.isfinite(steer)):
            termination = "diverged"
            break

        v_max_eff, steer_max_eff = couple_limits(
            cfg.coupling, v, steer, cfg.coupling.v_max, params.steer_max
        )
        accel = clamp(accel, -params.decel_max, params.accel_max)
        steer = clamp(steer, -steer_max_eff, steer_max_eff)
        ctx.prev_accel = accel
        ctx.prev_steer = steer

        delay.append((accel, steer))
        accel, steer = delay.popleft()

        rows[n] = (t, x, y, theta, v, accel, steer,
                   errors.cross_track, errors.heading, errors.speed)
        n += 1

        # plant step
        if dyn is not None:
            dyn = dynamic_step(dyn, ControlInput(accel, steer), dt, params)
            state = (dyn.x, dyn.y, dyn.theta, dyn.v)
        else:
            state = kernels.kin_step(
                x, y, theta, v, accel, steer, dt, params.wheelbase, params.dist_rear
            )

    rows = rows[:n]
    if n == 0:
        # terminated before the first loggable step; keep a single snapshot
        x, y, theta, v = state
        rows = np.array([[0.0, x, y, theta, v, 0.0, 0.0, 0.0, 0.0, 0.0]])

    completion = 1.0 if termination == "completed" else progress.completion()
    metrics = compute_metrics(rows, dt, completion, lap_time)
    return RunRecord(rows=rows, termination=termination, metrics=metrics)
