"""Bang-bang and PID controllers plus output-shaping utilities.

The PID integral uses a FIFO window of (error, dt) samples summed with the
rectangle rule (sum of e_i*dt_i), so tuned gains are dt-invariant; the
window cap and the integral clamp are the two anti-windup mechanisms.  The
raw windowed sum is kept exact (evicted samples are subtracted back out) so
it always equals a brute-force recompute over the retained samples; the
clamp applies to the value fed into the ki term.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass

from .models import clamp


def bang_bang_step(
    x: float, x_ref: float, u_max: float, u_min: float, scale: float = 1.0
) -> float:
    """Three-state relay: scale*u_max below the setpoint, scale*u_min above,
    0 exactly on it."""
    if not u_min < u_max:
        raise ValueError(f"u_min must be < u_max, got [{u_min}, {u_max}]")
    if x < x_ref:
        return scale * u_max
    if x > x_ref:
        return scale * u_min
    return 0.0


@dataclass(frozen=True)
class PidGains:
    kp: float = 0.0
    ki: float = 0.0
    kd: float = 0.0

    def __post_init__(self) -> None:
        for name, g in (("kp", self.kp), ("ki", self.ki), ("kd", self.kd)):
            if not (math.isfinite(g) and g >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {g}")


# default gains of the speed PID that holds the reference speed
SPEED_PID_GAINS = PidGains(kp=1.2, ki=0.1)


@dataclass
class GainSchedule:
    """Piecewise-constant gains over a scheduling variable (typically speed).

    Breakpoints are (value, gains) with strictly increasing values; queries
    take the entry whose interval contains the value, clamped to the ends.
    """

    entries: list[tuple[float, PidGains]]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("schedule needs at least one breakpoint")
        values = [v for v, _ in self.entries]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("schedule breakpoints must be strictly increasing")
        self._values = values

    def gains_at(self, value: float) -> PidGains:
        idx = bisect_right(self._values, value) - 1
        return self.entries[max(idx, 0)][1]


class PidController:
    """Discrete PID: u = kp*e + ki*sum(e_i*dt_i) + kd*(e_t - e_prev)/dt.

    The derivative acts on the raw error (setpoint kicks pass through, as
    printed); an optional single-pole low-pass (d_filter in [0,1), 0 = off)
    smooths it.  Gains may be fixed or scheduled.
    """

    def __init__(
        self,
        gains: PidGains | GainSchedule,
        *,
        integral_clamp: float = 10.0,
        buffer_len: int = 1000,
        d_filter: float = 0.0,
    ) -> None:
        if integral_clamp <= 0.0:
            raise ValueError("integral_clamp must be > 0")
        if buffer_len < 1:
            raise ValueError("buffer_len must be >= 1")
        if not 0.0 <= d_filter < 1.0:
            raise ValueError("d_filter must be in [0, 1)")
        self._schedule = gains if isinstance(gains, GainSchedule) else None
        self._gains = gains if isinstance(gains, PidGains) else gains.entries[0][1]
        self.integral_clamp = integral_clamp
        self.buffer_len = buffer_len
        self.d_filter = d_filter
        self._buf: deque[tuple[float, float]] = deque()
        self._sum = 0.0
        self._prev_error: float | None = None
        self._d_state = 0.0

    def reset(self) -> None:
        self._buf.clear()
        self._sum = 0.0
        self._prev_error = None
        self._d_state = 0.0

    @property
    def integral(self) -> float:
        return clamp(self._sum, -self.integral_clamp, self.integral_clamp)

    def step(self, error: float, dt: float, scheduling_value: float | None = None) -> float:
        if not dt > 0.0:
            raise ValueError(f"dt must be > 0, got {dt}")
        gains = self._gains
        if self._schedule is not None and scheduling_value is not None:
            gains = self._schedule.gains_at(scheduling_value)

        if len(self._buf) == self.buffer_len:
            old_e, old_h = self._buf.popleft()
            self._sum -= old_e * old_h
        self._buf.append((error, dt))
        self._sum += error * dt

        if self._prev_error is None:
            deriv = 0.0
        else:
            deriv = (error - self._prev_error) / dt
        if self.d_filter > 0.0:
            self._d_state = self.d_filter * self._d_state + (1.0 - self.d_filter) * deriv
            deriv = self._d_state
        self._prev_error = error

        return gains.kp * error + gains.ki * self.integral + gains.kd * deriv


@dataclass(frozen=True)
class OutputShaper:
    """Dead-band, clamp, and slew limit, applied in that order."""

    out_min: float = -math.inf
    out_max: float = math.inf
    max_rate: float = math.inf
    deadband: float = 0.0

    def __post_init__(self) -> None:
        if not self.out_min < self.out_max:
            raise ValueError("out_min must be < out_max")
        if not self.max_rate > 0.0:
            raise ValueError("max_rate must be > 0")
        if self.deadband < 0.0:
            raise ValueError("deadband must be >= 0")

    def shape(self, raw: float, prev: float, error: float, dt: float) -> float:
        if not dt > 0.0:
            raise ValueError(f"dt must be > 0, got {dt}")
        u = 0.0 if abs(error) < self.deadband else raw
        u = clamp(u, self.out_min, self.out_max)
        if math.isfinite(self.max_rate):
            span = self.max_rate * dt
            u = clamp(u, prev - span, prev + span)
        return u
