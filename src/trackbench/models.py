"""Bicycle vehicle models and their discrete state-transition integrators.

The kinematic model is the front-wheel-steered bicycle with the state
q = [x, y, theta, v] measured at the center of gravity; the dynamic model
adds body lateral velocity and yaw rate.  Both integrate with fixed-step
explicit transitions (first order for the kinematic model, second order for
the dynamic one); the dynamic plant steps the plain tuple
(x, y, theta, v, lat_vel, yaw_rate), as kernels.kin_step steps
(x, y, theta, v).  Angles are radians everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernels

# Below this speed the lateral dynamic model (1/v terms) is singular in
# practice; the simulation harness substitutes the kinematic model.
V_MIN_LATERAL = 0.1

# Default steering limit of the vehicle and of every steering law, rad.
STEER_MAX = math.radians(35.0)


@dataclass(frozen=True)
class VehicleParams:
    """Geometry, mass, and actuation limits shared by models and controllers.

    decel_max is the braking limit magnitude: accel commands live in
    [-decel_max, accel_max].
    """

    wheelbase: float = 2.5
    dist_rear: float = 1.25
    mass: float = 1500.0
    yaw_inertia: float = 2250.0
    corner_stiff_front: float = 80000.0
    corner_stiff_rear: float = 80000.0
    aero_coeff: float = 0.4
    roll_coeff: float = 25.0
    wheel_radius: float = 0.3
    gravity: float = 9.81
    road_grade: float = 0.0
    accel_max: float = 3.0
    decel_max: float = 6.0
    steer_max: float = STEER_MAX

    def __post_init__(self) -> None:
        positive = (
            ("wheelbase", self.wheelbase),
            ("dist_rear", self.dist_rear),
            ("mass", self.mass),
            ("yaw_inertia", self.yaw_inertia),
            ("corner_stiff_front", self.corner_stiff_front),
            ("corner_stiff_rear", self.corner_stiff_rear),
            ("wheel_radius", self.wheel_radius),
            ("accel_max", self.accel_max),
            ("decel_max", self.decel_max),
            ("steer_max", self.steer_max),
        )
        for name, value in positive:
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if self.dist_rear >= self.wheelbase:
            raise ValueError("dist_rear must be smaller than wheelbase")

    @property
    def dist_front(self) -> float:
        return self.wheelbase - self.dist_rear


@dataclass
class VehicleState:
    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0
    v: float = 0.0

    def __post_init__(self) -> None:
        self.theta = kernels.wrap_angle(self.theta)


@dataclass
class ControlInput:
    accel: float = 0.0
    steer: float = 0.0


@dataclass
class StateDerivative:
    dx: float = 0.0
    dy: float = 0.0
    dtheta: float = 0.0
    dv: float = 0.0


def clamp(value: float, low: float, high: float) -> float:
    return low if value < low else high if value > high else value


def slip_angle(steer: float, params: VehicleParams) -> float:
    """Slip angle beta = atan((lr/L)·tan(steer)); sign follows steer."""
    if not math.isfinite(steer) or abs(steer) >= math.pi / 2:
        raise ValueError(f"steer must be finite with |steer| < pi/2, got {steer}")
    return math.atan(math.tan(steer) * params.dist_rear / params.wheelbase)


def kinematic_derivatives(
    state: VehicleState, u: ControlInput, params: VehicleParams
) -> StateDerivative:
    """Continuous-time kinematic bicycle model."""
    beta = slip_angle(u.steer, params)
    return StateDerivative(
        dx=state.v * math.cos(state.theta + beta),
        dy=state.v * math.sin(state.theta + beta),
        dtheta=state.v * math.tan(u.steer) * math.cos(beta) / params.wheelbase,
        dv=u.accel,
    )


def turn_radius(steer: float, params: VehicleParams) -> float:
    """Radius of the constant-steer circle, R = L / (tan(delta)·cos(beta))."""
    beta = slip_angle(steer, params)
    denom = math.tan(steer) * math.cos(beta)
    if denom == 0.0:
        return math.inf
    return params.wheelbase / denom

def step_euler(state: VehicleState, deriv: StateDerivative, dt: float) -> VehicleState:
    """First-order transition q_{t+1} = q_t + q̇·dt, heading re-wrapped."""
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    return VehicleState(
        x=state.x + deriv.dx * dt,
        y=state.y + deriv.dy * dt,
        theta=state.theta + deriv.dtheta * dt,
        v=state.v + deriv.dv * dt,
    )


def step_second_order(
    state: VehicleState,
    first: StateDerivative,
    second: StateDerivative,
    dt: float,
) -> VehicleState:
    """Second-order transition q_{t+1} = q_t + q̇·dt + q̈·dt²/2."""
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    h = 0.5 * dt * dt
    return VehicleState(
        x=state.x + first.dx * dt + second.dx * h,
        y=state.y + first.dy * dt + second.dy * h,
        theta=state.theta + first.dtheta * dt + second.dtheta * h,
        v=state.v + first.dv * dt + second.dv * h,
    )


def longitudinal_accel(wheel_spin_accel: float, v: float, params: VehicleParams) -> float:
    """Longitudinal dynamics: traction minus aero, rolling, and grade terms.

    wheel_spin_accel is the commanded wheel angular acceleration; the grade
    term uses the small-angle form g·alpha as printed.
    """
    return (
        params.wheel_radius * wheel_spin_accel
        - params.aero_coeff * v * v / params.mass
        - params.roll_coeff * abs(v) / params.mass
        - params.gravity * params.road_grade
    )


def lateral_accel(
    beta: float, yaw_rate: float, v: float, steer: float, params: VehicleParams
) -> tuple[float, float]:
    """Linearized lateral dynamics: (lateral acceleration, yaw acceleration).

    Singular as v -> 0; callers below V_MIN_LATERAL should substitute the
    kinematic model instead.
    """
    if not v > V_MIN_LATERAL:
        raise ValueError(
            f"lateral model is singular for v <= {V_MIN_LATERAL}, got {v}; "
            "use the kinematic model at low speed")
    cf = params.corner_stiff_front
    cr = params.corner_stiff_rear
    lf = params.dist_front
    lr = params.dist_rear
    m = params.mass
    iz = params.yaw_inertia
    ddy = (
        -(cf + cr) / m * beta
        + ((cr * lr - cf * lf) / (m * v) - v) * yaw_rate
        + cf / m * steer
    )
    ddtheta = (
        (cr * lr - cf * lf) / iz * beta
        - (cr * lr * lr + cf * lf * lf) / (iz * v) * yaw_rate
        + cf * lf / iz * steer
    )
    return ddy, ddtheta


def dynamic_step(x, y, theta, v, lat_vel, yaw_rate, accel, steer, dt, params: VehicleParams):
    """Second-order transition of the consolidated dynamic model.

    Steps the state (x, y, theta, v, lat_vel, yaw_rate) under the command
    (accel, steer) and returns the next one.  The printed model mixes
    body-frame accelerations with global positions; here v and lat_vel
    integrate the body-frame accelerations while x, y integrate the body
    velocity rotated into the global frame (with the matching rotated
    acceleration in the quadratic term).  Below V_MIN_LATERAL the kinematic
    model substitutes for the singular lateral equations.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if v <= V_MIN_LATERAL:
        x, y, theta, v = kernels.kin_step(
            x, y, theta, v, accel, steer, dt, params.wheelbase, params.dist_rear
        )
        beta = slip_angle(steer, params)
        return (x, y, theta, v, v * math.sin(beta),
                v * math.tan(steer) * math.cos(beta) / params.wheelbase)

    beta = math.atan2(lat_vel, v)
    beta = clamp(beta, -math.pi / 2 + 1e-9, math.pi / 2 - 1e-9)
    # accel command maps onto the traction term r·(wheel spin accel)
    ddx_body = longitudinal_accel(accel / params.wheel_radius, v, params)
    ddy_body, ddtheta = lateral_accel(beta, yaw_rate, v, steer, params)

    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    vx_g = v * cos_t - lat_vel * sin_t
    vy_g = v * sin_t + lat_vel * cos_t
    ax_g = ddx_body * cos_t - ddy_body * sin_t
    ay_g = ddx_body * sin_t + ddy_body * cos_t

    h = 0.5 * dt * dt
    return (
        x + vx_g * dt + ax_g * h,
        y + vy_g * dt + ay_g * h,
        kernels.wrap_angle(theta + yaw_rate * dt + ddtheta * h),
        v + ddx_body * dt,
        lat_vel + ddy_body * dt,
        yaw_rate + ddtheta * dt,
    )
