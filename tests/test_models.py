import math

import numpy as np
import pytest

from trackbench import kernels
from trackbench.models import (
    ControlInput,
    StateDerivative,
    VehicleParams,
    VehicleState,
    dynamic_step,
    kinematic_derivatives,
    lateral_accel,
    longitudinal_accel,
    slip_angle,
    step_euler,
    step_second_order,
    turn_radius,
)

# frozen high-precision reference values for the hand-check inputs
SLIP_20DEG = 0.1800151704225342       # atan(0.5 * tan(0.349066))
DTHETA_20DEG = 1.4323559898379976     # 10 * tan(0.349066) * cos(beta) / 2.5
WRAP_3P2 = -3.083185307179586         # 3.2 - 2*pi


def test_slip_angle_zero():
    assert slip_angle(0.0, VehicleParams()) == 0.0


def test_slip_angle_hand_value():
    p = VehicleParams(wheelbase=2.5, dist_rear=1.25)
    beta = slip_angle(0.349066, p)
    assert beta == pytest.approx(SLIP_20DEG, rel=1e-12)
    # 6-digit figure holds at the precision it carries
    assert beta == pytest.approx(0.180013, abs=5e-6)


def test_slip_angle_half_wheelbase_form():
    p = VehicleParams(wheelbase=2.5, dist_rear=1.25)
    for steer in (-1.2, -0.3, 0.1, 0.8):
        assert slip_angle(steer, p) == pytest.approx(
            math.atan(math.tan(steer) / 2.0), rel=1e-15)


def test_slip_angle_sign_matches_steer():
    p = VehicleParams()
    rng = np.random.default_rng(1)
    for _ in range(200):
        steer = float(rng.uniform(-1.5, 1.5))
        assert math.copysign(1.0, slip_angle(steer, p)) == math.copysign(1.0, steer) \
            or steer == 0.0


def test_slip_angle_rejects_bad_steer():
    p = VehicleParams()
    with pytest.raises(ValueError):
        slip_angle(math.pi / 2, p)
    with pytest.raises(ValueError):
        slip_angle(float("nan"), p)


def test_kinematic_derivatives_straight_line():
    d = kinematic_derivatives(VehicleState(v=10.0), ControlInput(), VehicleParams())
    assert (d.dx, d.dy, d.dtheta, d.dv) == (10.0, 0.0, 0.0, 0.0)


def test_kinematic_derivatives_turn_rate_hand_value():
    p = VehicleParams(wheelbase=2.5, dist_rear=1.25)
    d = kinematic_derivatives(VehicleState(v=10.0), ControlInput(steer=0.349066), p)
    assert d.dtheta == pytest.approx(DTHETA_20DEG, rel=1e-12)
    assert d.dtheta == pytest.approx(1.43236, abs=5e-6)


def test_kinematic_derivatives_stationary():
    d = kinematic_derivatives(
        VehicleState(v=0.0), ControlInput(accel=2.0, steer=0.5), VehicleParams())
    assert (d.dx, d.dy, d.dtheta) == (0.0, 0.0, 0.0)
    assert d.dv == 2.0


def test_turn_rate_equals_v_over_radius():
    p = VehicleParams()
    rng = np.random.default_rng(2)
    for _ in range(300):
        v = float(rng.uniform(0.5, 30.0))
        steer = float(rng.uniform(0.02, 0.6)) * (1 if rng.random() < 0.5 else -1)
        d = kinematic_derivatives(VehicleState(v=v), ControlInput(steer=steer), p)
        assert d.dtheta == pytest.approx(v / turn_radius(steer, p), rel=1e-12)


def test_step_euler_linear_advance():
    s = step_euler(VehicleState(), StateDerivative(dx=10.0), 0.1)
    assert s.x == pytest.approx(1.0)
    assert (s.y, s.theta, s.v) == (0.0, 0.0, 0.0)


def test_step_euler_identity():
    s0 = VehicleState(1.0, 2.0, 0.3, 4.0)
    assert step_euler(s0, StateDerivative(), 0.1) == s0


def test_step_euler_wraps_heading():
    s = step_euler(VehicleState(theta=3.1), StateDerivative(dtheta=1.0), 0.1)
    assert s.theta == pytest.approx(WRAP_3P2, rel=1e-12)


def test_step_euler_rejects_bad_dt():
    with pytest.raises(ValueError):
        step_euler(VehicleState(), StateDerivative(), 0.0)
    with pytest.raises(ValueError):
        step_euler(VehicleState(), StateDerivative(), -0.1)


def test_longitudinal_accel_all_forces_vanish():
    p = VehicleParams(road_grade=0.0)
    assert longitudinal_accel(0.0, 0.0, p) == 0.0


def test_longitudinal_accel_hand_sum():
    p = VehicleParams(wheel_radius=0.3, aero_coeff=1.0, mass=1000.0,
                      roll_coeff=50.0, road_grade=0.0)
    # traction 3.0, aero 0.1, rolling 0.5
    assert longitudinal_accel(10.0, 10.0, p) == pytest.approx(2.4, rel=1e-12)


def test_longitudinal_accel_speed_symmetry():
    p = VehicleParams(road_grade=0.0)
    # aero term uses v^2 and rolling uses |v|: same resistance either direction
    assert longitudinal_accel(0.0, 10.0, p) == pytest.approx(
        longitudinal_accel(0.0, -10.0, p), rel=1e-15)


def test_longitudinal_accel_pure_resistance_decelerates():
    p = VehicleParams(road_grade=0.0)
    for v in (0.5, 3.0, 10.0, 25.0):
        assert longitudinal_accel(0.0, v, p) < 0.0


def test_lateral_accel_equilibrium():
    p = VehicleParams()
    ddy, ddtheta = lateral_accel(0.0, 0.0, 10.0, 0.0, p)
    assert (ddy, ddtheta) == (0.0, 0.0)


def test_lateral_accel_symmetric_tires_cancel_slip_term():
    p = VehicleParams(mass=1000.0, yaw_inertia=1500.0, corner_stiff_front=50000.0,
                      corner_stiff_rear=50000.0, dist_rear=1.25)
    # beta enters ddtheta through (Cr*lr - Cf*lf)/Iz = 0 here
    _, dd0 = lateral_accel(0.0, 0.0, 10.0, 0.0, p)
    _, dd1 = lateral_accel(0.2, 0.0, 10.0, 0.0, p)
    assert dd0 == dd1 == 0.0


def test_lateral_accel_hand_values():
    p = VehicleParams(mass=1000.0, yaw_inertia=1500.0, corner_stiff_front=50000.0,
                      corner_stiff_rear=50000.0, dist_rear=1.25)
    ddy, ddtheta = lateral_accel(0.0, 0.0, 10.0, 0.1, p)
    assert ddy == pytest.approx(5.0, rel=1e-12)
    assert ddtheta == pytest.approx(4.166666666666667, rel=1e-12)


def test_lateral_accel_rejects_low_speed():
    p = VehicleParams()
    with pytest.raises(ValueError):
        lateral_accel(0.0, 0.0, 0.05, 0.0, p)


def test_step_second_order_quadratic_advance():
    s = step_second_order(VehicleState(), StateDerivative(dx=10.0),
                          StateDerivative(dx=2.0), 0.1)
    assert s.x == pytest.approx(1.01, rel=1e-15)


def test_step_second_order_degenerates_to_euler():
    s0 = VehicleState(0.5, -1.0, 2.9, 7.0)
    d = StateDerivative(3.0, -1.0, 0.4, 0.2)
    a = step_euler(s0, d, 0.05)
    b = step_second_order(s0, d, StateDerivative(), 0.05)
    assert (b.x, b.y, b.theta, b.v) == (a.x, a.y, a.theta, a.v)


def test_step_second_order_identity():
    s0 = VehicleState(1.0, 2.0, -0.4, 3.0)
    assert step_second_order(s0, StateDerivative(), StateDerivative(), 0.1) == s0


def test_step_second_order_rejects_bad_dt():
    with pytest.raises(ValueError):
        step_second_order(VehicleState(), StateDerivative(), StateDerivative(), 0.0)


def test_heading_stays_wrapped_under_repeated_stepping():
    p = VehicleParams()
    s = VehicleState(v=8.0)
    u = ControlInput(steer=0.4)
    for _ in range(5000):
        s = step_euler(s, kinematic_derivatives(s, u, p), 0.01)
        assert -math.pi < s.theta <= math.pi


def test_circle_property_radius_within_half_percent():
    p = VehicleParams()
    steer = math.radians(20.0)
    beta = slip_angle(steer, p)
    radius = turn_radius(steer, p)
    cx, cy = -radius * math.sin(beta), radius * math.cos(beta)  # ICR from origin pose
    s = VehicleState(v=8.0)
    u = ControlInput(steer=steer)
    dt = 1e-3
    period = 2 * math.pi * radius / (8.0 * math.cos(beta))
    worst = 0.0
    for _ in range(int(period / dt) + 1):
        s = step_euler(s, kinematic_derivatives(s, u, p), dt)
        r = math.hypot(s.x - cx, s.y - cy)
        worst = max(worst, abs(r - radius))
    assert worst / radius < 0.005


def test_dynamic_step_straight_line_closed_form():
    # with resistive terms zeroed, zero steer reduces the model to 1-D motion;
    # the quadratic transition is exact for constant acceleration
    p = VehicleParams(aero_coeff=0.0, roll_coeff=0.0)
    x, y, theta, v, lat_vel, yaw_rate = 0.0, 0.0, 0.0, 10.0, 0.0, 0.0
    for _ in range(200):
        x, y, theta, v, lat_vel, yaw_rate = dynamic_step(
            x, y, theta, v, lat_vel, yaw_rate, 0.5, 0.0, 0.01, p)
    assert x == pytest.approx(10.0 * 2.0 + 0.5 * 0.5 * 4.0, rel=1e-9)
    assert v == pytest.approx(11.0, rel=1e-12)
    assert abs(y) < 1e-9
    assert abs(theta) < 1e-9
    assert abs(lat_vel) < 1e-9


def test_dynamic_step_low_speed_uses_kinematic_form():
    p = VehicleParams()
    out = dynamic_step(0.0, 0.0, 0.0, 0.05, 0.0, 0.0, 0.0, 0.3, 0.01, p)
    x, y, theta, _ = kernels.kin_step(0.0, 0.0, 0.0, 0.05, 0.0, 0.3, 0.01,
                                      p.wheelbase, p.dist_rear)
    assert out[0] == pytest.approx(x, rel=1e-12)
    assert out[1] == pytest.approx(y, rel=1e-12)
    assert out[2] == pytest.approx(theta, rel=1e-12)


def test_dynamic_step_turns_left_for_left_steer():
    p = VehicleParams()
    state = (0.0, 0.0, 0.0, 15.0, 0.0, 0.0)
    for _ in range(300):
        state = dynamic_step(*state, 0.0, 0.1, 0.01, p)
    _, y, theta = state[:3]
    assert theta > 0.1
    assert y > 1.0


def test_vehicle_params_validation():
    with pytest.raises(ValueError):
        VehicleParams(wheelbase=-1.0)
    with pytest.raises(ValueError):
        VehicleParams(dist_rear=3.0, wheelbase=2.5)  # lr must stay below L
    with pytest.raises(ValueError):
        VehicleParams(mass=0.0)
