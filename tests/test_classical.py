import math

import numpy as np
import pytest

from trackbench.classical import (
    GainSchedule,
    OutputShaper,
    PidController,
    PidGains,
    bang_bang_step,
)
from trackbench.models import VehicleParams, VehicleState
from trackbench.sim import BangBangLateral, LongitudinalPid, Paired, PidLateral, SimConfig, simulate
from trackbench.track import straight_track


def test_bang_bang_below_setpoint():
    assert bang_bang_step(5.0, 10.0, 2.0, -2.0) == 2.0


def test_bang_bang_above_setpoint():
    assert bang_bang_step(15.0, 10.0, 2.0, -2.0) == -2.0


def test_bang_bang_on_setpoint_is_zero():
    assert bang_bang_step(10.0, 10.0, 2.0, -2.0) == 0.0


def test_bang_bang_limiting_factor():
    d_max = math.radians(70.0)
    out = bang_bang_step(-1.0, 0.0, d_max, -d_max, scale=0.1)
    assert out == pytest.approx(math.radians(7.0), rel=1e-12)
    out = bang_bang_step(1.0, 0.0, d_max, -d_max, scale=0.1)
    assert out == pytest.approx(-math.radians(7.0), rel=1e-12)


def test_bang_bang_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        bang_bang_step(0.0, 1.0, -1.0, 1.0)


def test_pid_pure_proportional():
    pid = PidController(PidGains(kp=1.0))
    assert pid.step(0.5, 0.1) == pytest.approx(0.5, rel=1e-12)


def test_pid_derivative_hand_value():
    pid = PidController(PidGains(kp=1.0, ki=0.0, kd=0.1))
    pid.step(0.3, 0.1)
    assert pid.step(0.5, 0.1) == pytest.approx(0.7, rel=1e-12)


def test_pid_zero_error_fixed_point():
    pid = PidController(PidGains(1.0, 0.5, 0.2))
    for _ in range(100):
        assert pid.step(0.0, 0.05) == 0.0


def test_pid_rejects_bad_dt():
    pid = PidController(PidGains(1.0))
    with pytest.raises(ValueError):
        pid.step(1.0, 0.0)
    with pytest.raises(ValueError):
        pid.step(1.0, -0.01)


def test_pid_gains_must_be_nonnegative():
    with pytest.raises(ValueError):
        PidGains(kp=-1.0)
    with pytest.raises(ValueError):
        PidGains(ki=float("nan"))


def test_pid_integral_matches_window_oracle():
    rng = np.random.default_rng(13)
    pid = PidController(PidGains(ki=1.0), integral_clamp=1e9, buffer_len=50)
    log = []
    for _ in range(300):
        e = float(rng.uniform(-2.0, 2.0))
        dt = float(rng.uniform(0.01, 0.1))
        u = pid.step(e, dt)
        log.append((e, dt))
        expect = sum(ei * hi for ei, hi in log[-50:])
        assert pid.window_sum() == pytest.approx(expect, rel=1e-12, abs=1e-12)
        assert u == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_pid_anti_windup_clamp():
    ki, clamp = 0.5, 2.0
    pid = PidController(PidGains(ki=ki), integral_clamp=clamp)
    rng = np.random.default_rng(14)
    for _ in range(2000):
        e = float(rng.uniform(0.0, 5.0))  # sustained positive error
        u = pid.step(e, 0.05)
        assert abs(u) <= ki * clamp + 1e-12
    # integral stays clamped, not the raw sum
    assert pid.window_sum() > clamp


def test_pid_derivative_filter_smooths():
    raw = PidController(PidGains(kd=1.0))
    filt = PidController(PidGains(kd=1.0), d_filter=0.9)
    raw.step(0.0, 0.1)
    filt.step(0.0, 0.1)
    u_raw = raw.step(1.0, 0.1)
    u_filt = filt.step(1.0, 0.1)
    assert abs(u_filt) < abs(u_raw)


def test_pid_scheduled_gains_switch_with_speed():
    sched = GainSchedule([(0.0, PidGains(kp=1.0)), (10.0, PidGains(kp=2.0))])
    pid = PidController(sched)
    assert pid.step(1.0, 0.1, scheduling_value=5.0) == pytest.approx(1.0)
    assert pid.step(1.0, 0.1, scheduling_value=15.0) == pytest.approx(2.0)


def test_schedule_interval_rules():
    g5, g15 = PidGains(kp=5.0), PidGains(kp=15.0)
    sched = GainSchedule([(5.0, g5), (15.0, g15)])
    assert sched.gains_at(10.0) is g5
    assert sched.gains_at(2.0) is g5       # clamp below first breakpoint
    assert sched.gains_at(15.0) is g15     # lower-bound inclusive
    assert sched.gains_at(99.0) is g15
    single = GainSchedule([(3.0, g5)])
    assert single.gains_at(-100.0) is g5
    assert single.gains_at(100.0) is g5


def test_schedule_validation():
    with pytest.raises(ValueError):
        GainSchedule([])
    with pytest.raises(ValueError):
        GainSchedule([(5.0, PidGains()), (5.0, PidGains())])
    with pytest.raises(ValueError):
        GainSchedule([(5.0, PidGains()), (1.0, PidGains())])


def test_shape_identity_region():
    sh = OutputShaper(out_min=-1.0, out_max=1.0, max_rate=100.0, deadband=0.01)
    assert sh.shape(0.5, 0.4, 1.0, 0.1) == 0.5


def test_shape_slew_limit_hand_value():
    sh = OutputShaper(max_rate=2.0)
    assert sh.shape(1.0, 0.0, 1.0, 0.1) == pytest.approx(0.2, rel=1e-12)
    assert sh.shape(-1.0, 0.0, 1.0, 0.1) == pytest.approx(-0.2, rel=1e-12)


def test_shape_deadband_zeroes_output():
    sh = OutputShaper(deadband=0.1)
    assert sh.shape(5.0, 0.0, 0.05, 0.1) == 0.0
    assert sh.shape(5.0, 5.0, -0.05, 0.1) == 0.0


def test_shape_clamps_to_range():
    sh = OutputShaper(out_min=-0.5, out_max=0.5)
    assert sh.shape(3.0, 0.4, 1.0, 0.1) == 0.5
    assert sh.shape(-3.0, -0.4, 1.0, 0.1) == -0.5


def test_shape_idempotent_on_own_output():
    rng = np.random.default_rng(15)
    sh = OutputShaper(out_min=-1.0, out_max=1.0, max_rate=3.0, deadband=0.02)
    for _ in range(500):
        raw = float(rng.uniform(-5.0, 5.0))
        prev = float(rng.uniform(-1.0, 1.0))
        err = float(rng.uniform(-2.0, 2.0))
        dt = float(rng.uniform(0.01, 0.1))
        once = sh.shape(raw, prev, err, dt)
        again = sh.shape(once, prev, err, dt)
        assert again == once


def test_shape_validation():
    with pytest.raises(ValueError):
        OutputShaper(out_min=1.0, out_max=-1.0)
    with pytest.raises(ValueError):
        OutputShaper(max_rate=0.0)
    with pytest.raises(ValueError):
        OutputShaper(deadband=-0.1)


def test_bang_bang_chatters_on_straight_track():
    track = straight_track(150.0, spacing=1.0, v_ref=8.0)
    params = VehicleParams()
    init = VehicleState(x=0.0, y=0.4, theta=0.0, v=8.0)
    lat = BangBangLateral(params.steer_max, scale=0.1)
    lon = LongitudinalPid(PidController(PidGains(1.2, 0.1, 0.0)))
    rec = simulate(SimConfig(initial=init), track, params, Paired(lat, lon))
    steer = rec.column("steer")
    sgn = np.sign(steer[np.abs(steer) > 1e-12])
    flips = int(np.sum(sgn[1:] != sgn[:-1]))
    assert flips > 20  # relay switches back and forth, no convergence
    # the limit cycle persists to the end of the run
    late = sgn[3 * len(sgn) // 4:]
    assert np.any(late[1:] != late[:-1])


def test_pid_lateral_regulates_one_meter_offset():
    track = straight_track(300.0, spacing=1.0, v_ref=10.0)
    params = VehicleParams()
    init = VehicleState(x=0.0, y=1.0, theta=0.0, v=10.0)
    lat = PidLateral(PidController(PidGains(0.5, 0.1, 0.15)))
    lon = LongitudinalPid(PidController(PidGains(1.2, 0.1, 0.0)))
    rec = simulate(SimConfig(initial=init), track, params, Paired(lat, lon))
    assert rec.termination == "completed"
    e = np.abs(rec.column("e_ct"))
    first_dip = int(np.nonzero(e < 0.05)[0][0])
    assert first_dip < 0.4 * len(e)  # reaches the band in the first 40 percent
    assert np.max(e[first_dip:]) < 0.25  # bounded overshoot afterwards
    tail = e[3 * len(e) // 4:]
    assert np.all(tail < 0.05)  # settled for the whole final quarter
    assert e[-1] < 0.02
