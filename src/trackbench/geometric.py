"""Pure Pursuit and Stanley steering laws.

Pure Pursuit measures from the rear axle and chases a lookahead point on
the path; Stanley measures from the front axle and combines heading and
cross-track errors.  Both return steering clipped to [-delta_max,
delta_max] and steer toward the path under the left-positive cross-track
convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .models import STEER_MAX, VehicleParams, clamp
from .track import TrackingErrors


@dataclass(frozen=True)
class PurePursuitConfig:
    k_v: float = 0.5
    d_l_min: float = 2.0
    d_l_max: float = 20.0
    delta_max: float = STEER_MAX
    # fixing the lookahead distance gives the de-coupled law
    d_l_fixed: float | None = None

    def __post_init__(self) -> None:
        if not self.k_v > 0.0:
            raise ValueError("k_v must be > 0")
        if not 0.0 < self.d_l_min <= self.d_l_max:
            raise ValueError("need 0 < d_l_min <= d_l_max")
        if self.d_l_fixed is not None and not self.d_l_fixed > 0.0:
            raise ValueError("d_l_fixed must be > 0")
        if not self.delta_max > 0.0:
            raise ValueError("delta_max must be > 0")


@dataclass(frozen=True)
class StanleyConfig:
    k_delta: float = 4.0
    k_s: float = 1.0
    k_d: float = 1.0
    delta_max: float = STEER_MAX

    def __post_init__(self) -> None:
        if not self.k_delta > 0.0:
            raise ValueError("k_delta must be > 0")
        if not self.k_s > 0.0:
            raise ValueError("k_s must be > 0")
        if self.k_d < 0.0:
            raise ValueError("k_d must be >= 0")
        if not self.delta_max > 0.0:
            raise ValueError("delta_max must be > 0")


def lookahead_distance(cfg: PurePursuitConfig, v_f: float) -> float:
    """Speed-coupled lookahead d_l = k_v * v_f, clamped; or the fixed value."""
    if cfg.d_l_fixed is not None:
        return cfg.d_l_fixed
    return clamp(cfg.k_v * v_f, cfg.d_l_min, cfg.d_l_max)


def pure_pursuit_steer(
    cfg: PurePursuitConfig, alpha: float, d_l: float, params: VehicleParams
) -> float:
    """delta = atan(2 L sin(alpha) / d_l), clipped."""
    raw = math.atan(2.0 * params.wheelbase * math.sin(alpha) / d_l)
    return clamp(raw, -cfg.delta_max, cfg.delta_max)


def stanley_steer(cfg: StanleyConfig, errors: TrackingErrors, v_f: float) -> float:
    """delta = e_psi + atan(k_delta * e_ct / (k_s + k_d * v_f)), clipped.

    errors must be measured in the front-axle frame.
    """
    raw = errors.heading + math.atan(
        cfg.k_delta * errors.cross_track / (cfg.k_s + cfg.k_d * v_f)
    )
    return clamp(raw, -cfg.delta_max, cfg.delta_max)
