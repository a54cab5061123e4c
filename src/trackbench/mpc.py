"""Receding-horizon control over the kinematic bicycle model.

Each control step builds p reference states by arc-length lookahead along
the track, then minimizes a quadratic tracking cost over an m-step control
sequence with a derivative-free compass (pattern) search: coordinate probes
with shrinking steps, every iterate projected onto the hard input bounds.
The search draws no random numbers, so results are bit-for-bit
reproducible.  MpcLateral is the controller that runs it in a simulation.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .models import STEER_MAX, VehicleParams, clamp
from .track import Track


@dataclass(frozen=True)
class MpcWeights:
    pos: float = 1.0
    head: float = 3.0
    vel: float = 0.3
    d_accel: float = 0.05
    d_steer: float = 1.0

    def __post_init__(self) -> None:
        # finite, so a held step's zero rate change costs exactly zero
        for name in ("pos", "head", "vel", "d_accel", "d_steer"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"weight {name} must be finite and >= 0")


@dataclass(frozen=True)
class MpcBounds:
    """Hard input bounds plus soft (penalized) envelope bounds.

    Rate bounds and v_max are soft: violations cost soft_penalty*excess^2.
    A non-positive soft bound disables that term.
    """

    accel_min: float = -6.0
    accel_max: float = 3.0
    steer_max: float = STEER_MAX
    accel_rate: float = 0.0
    steer_rate: float = 0.0
    v_max: float = 0.0
    soft_penalty: float = 10.0

    def __post_init__(self) -> None:
        if not self.accel_min < self.accel_max:
            raise ValueError("accel_min must be < accel_max")
        if not self.steer_max > 0.0:
            raise ValueError("steer_max must be > 0")
        if self.soft_penalty < 0.0:
            raise ValueError("soft_penalty must be >= 0")


@dataclass(frozen=True)
class OptSettings:
    max_iter: int = 60

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class MpcConfig:
    ts: float = 0.05
    p: int = 20
    m: int = 4
    weights: MpcWeights = field(default_factory=MpcWeights)
    bounds: MpcBounds = field(default_factory=MpcBounds)
    opt: OptSettings = field(default_factory=OptSettings)
    latency_steps: int = 0

    def __post_init__(self) -> None:
        if not self.ts > 0.0:
            raise ValueError("ts must be > 0")
        if not 1 <= self.m <= self.p:
            raise ValueError("need 1 <= m <= p")
        if self.latency_steps < 0:
            raise ValueError("latency_steps must be >= 0")


@dataclass(slots=True)
class OptResult:
    seq: np.ndarray
    cost: float
    status: str  # converged | iteration-capped
    iterations: int
    evaluations: int


def optimize(
    state: tuple[float, float, float, float],
    refs: np.ndarray,
    prev_u: tuple[float, float],
    cfg: MpcConfig,
    params: VehicleParams,
    warm: np.ndarray | None = None,
) -> OptResult:
    """Compass search over the (m, 2) control sequence.

    Probe steps halve after a sweep that lowers nothing.  The status is
    'converged' only after such a sweep at the floor step, so no single
    floor-step probe of a converged sequence lowers its cost.
    """
    b = cfg.bounds
    w = cfg.weights
    refs = np.ascontiguousarray(refs, dtype=np.float64)
    x, y, theta, v = state

    def cost_of(seq: np.ndarray) -> float:
        return kernels.mpc_cost(
            x, y, theta, v, seq, prev_u[0], prev_u[1], refs,
            cfg.ts, params.wheelbase, params.dist_rear,
            w.pos, w.head, w.vel, w.d_accel, w.d_steer,
            b.v_max, b.accel_rate, b.steer_rate, b.soft_penalty,
        )

    if warm is not None and warm.shape == (cfg.m, 2):
        seq = np.array(warm, dtype=np.float64)
    else:
        seq = np.tile(np.array(prev_u, dtype=np.float64), (cfg.m, 1))
    # project the start onto the hard input bounds
    np.clip(seq[:, 0], b.accel_min, b.accel_max, out=seq[:, 0])
    np.clip(seq[:, 1], -b.steer_max, b.steer_max, out=seq[:, 1])

    # per-channel probe steps: a quarter of each admissible range
    step_a = 0.25 * (b.accel_max - b.accel_min)
    step_d = 0.5 * b.steer_max
    min_a = 1e-4 * (b.accel_max - b.accel_min)
    min_d = 2e-4 * b.steer_max

    best = cost_of(seq)
    evals = 1
    status = "iteration-capped"
    iterations = 0
    for _ in range(cfg.opt.max_iter):
        iterations += 1
        improved = False
        for row in range(cfg.m):
            for col in range(2):
                step = step_a if col == 0 else step_d
                base = seq[row, col]
                for sign in (1.0, -1.0):
                    cand = base + sign * step
                    if col == 0:
                        cand = clamp(cand, b.accel_min, b.accel_max)
                    else:
                        cand = clamp(cand, -b.steer_max, b.steer_max)
                    if cand == seq[row, col]:
                        continue
                    old = seq[row, col]
                    seq[row, col] = cand
                    c = cost_of(seq)
                    evals += 1
                    if c < best:
                        best = c
                        improved = True
                        break
                    seq[row, col] = old
        if not improved:
            if step_a <= min_a and step_d <= min_d:
                status = "converged"
                break
            step_a = max(0.5 * step_a, min_a)
            step_d = max(0.5 * step_d, min_d)

    return OptResult(seq=seq, cost=float(best), status=status,
                     iterations=iterations, evaluations=evals)


def build_reference(
    track: Track,
    state: tuple[float, float, float, float],
    cfg: MpcConfig,
    hint: int | None = None,
) -> tuple[np.ndarray, int, bool]:
    """p reference rows (x, y, theta, v_ref) spaced v_ref*Ts along the arc.

    Returns (refs, nearest segment index, end_of_track flag); on open tracks
    the reference clamps to the final waypoint once the end is reached.
    Each row locates its arc length once; its unclamped reference speed sets
    the spacing to the next row.
    """
    index, t, _ = track.nearest(state[0], state[1], hint)
    refs = np.empty((cfg.p, 4))
    s = track.arc_length_at(index, t)
    v_here = track.v_ref_at_s(s)
    end = False
    for i in range(cfg.p):
        s = s + max(v_here, 0.1) * cfg.ts
        clamped = False
        if not track.closed and s >= track.length:
            s = track.length
            end = True
            clamped = True
        seg, t = track.locate_s(s)
        px, py = track.point_on_segment(seg, t)
        v_here = track.v_ref_on_segment(seg, t)
        refs[i, 0] = px
        refs[i, 1] = py
        refs[i, 2] = track.seg_tangent[seg]
        # past the final waypoint the reference asks for a stop
        refs[i, 3] = 0.0 if clamped else v_here
    return refs, index, end


class MpcLateral:
    """Receding-horizon controller on its own divisor schedule.

    It is a law for both channels.  It solves on every `tick`-th sim step
    (tick = round(ts/dt), at least 1; ts becomes tick*dt), in whichever of
    accel() and steer() runs first, and holds the command in between, so
    paired with itself ("longitudinal": {"type": "mpc"}) both channels of a
    solve apply on the same step.  The held command is the solver's
    previous input, and each solve warm-starts from the last sequence
    shifted one step.  The vehicle, state and track come from the run's
    ControlContext.
    """

    def __init__(self, cfg: MpcConfig, dt: float):
        tick = max(1, round(cfg.ts / dt))
        if abs(tick * dt - cfg.ts) > 1e-9:
            cfg = replace(cfg, ts=tick * dt)
        self.cfg = cfg
        self.tick = tick
        self.reset()

    def reset(self) -> None:
        self._command = (0.0, 0.0)
        self._warm: np.ndarray | None = None
        self._hint: int | None = None
        # the commands issued but not yet acting on the plant
        self._pending: deque[tuple[float, float]] = deque(maxlen=self.cfg.latency_steps)
        self._solved_at = -1

    def _command_at(self, ctx) -> tuple[float, float]:
        k = ctx.step_index
        if k % self.tick or k == self._solved_at:
            return self._command
        self._solved_at = k
        cfg = self.cfg
        params = ctx.params
        # latency compensation: forward-simulate through the pending commands
        sim = ctx.state
        for a, d in self._pending:
            sim = kernels.kin_step(
                sim[0], sim[1], sim[2], sim[3], a, d, cfg.ts,
                params.wheelbase, params.dist_rear,
            )
        refs, self._hint, end = build_reference(ctx.track, sim, cfg, self._hint)
        if end:
            ctx.end_of_track = True
        seq = optimize(sim, refs, self._command, cfg, params, self._warm).seq
        # shift one step for the next warm start, into one buffer that
        # optimize copies from
        if self._warm is None:
            self._warm = np.empty_like(seq)
        self._warm[:-1] = seq[1:]
        self._warm[-1] = seq[-1]
        self._command = (float(seq[0, 0]), float(seq[0, 1]))
        self._pending.append(self._command)
        return self._command

    def accel(self, ctx) -> float:
        return self._command_at(ctx)[0]

    def steer(self, ctx) -> float:
        return self._command_at(ctx)[1]


def design_params(t_r: float, t_s: float) -> dict[str, tuple[float, float]]:
    """Design-rule ranges for (Ts, p, m) from rise and settling times.

    Ts spans 5-10% of the rise time; p spans [t_s/Ts, 1.5*t_s/Ts] evaluated
    at the low end of the Ts range; m spans 10-20% of p evaluated at the low
    end of the p range (rounded up, floor 1).
    """
    if not (0.0 < t_r < math.inf and 0.0 < t_s < math.inf):
        raise ValueError(f"rise and settling times must be finite and > 0, got {t_r} and {t_s}")
    ts_lo = 0.05 * t_r
    ts_hi = 0.10 * t_r
    if not (ts_lo > 0.0 and 1.5 * t_s / ts_lo < math.inf):
        raise ValueError(f"settling time {t_s} is too long for rise time {t_r}")
    p_lo = int(round(t_s / ts_lo))
    p_hi = int(round(1.5 * t_s / ts_lo))
    m_lo = max(math.ceil(0.1 * p_lo), 1)
    m_hi = max(math.ceil(0.2 * p_lo), 1)
    return {"ts": (ts_lo, ts_hi), "p": (p_lo, p_hi), "m": (m_lo, m_hi)}
