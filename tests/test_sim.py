import math

import numpy as np
import pytest

from trackbench.classical import PidController, PidGains
from trackbench.geometric import StanleyConfig
from trackbench.models import VehicleParams, VehicleState
from trackbench.sim import (
    LOG_HEADER,
    ConstantAccel,
    CouplingConfig,
    LongitudinalPid,
    Paired,
    PidLateral,
    SimConfig,
    StanleyLateral,
    compute_metrics,
    couple_limits,
    simulate,
)
from trackbench.track import racetrack, straight_track

TERMINATIONS = {"completed", "end_of_track", "off_track", "diverged", "max_steps"}


def speed_pid():
    return LongitudinalPid(PidController(PidGains(1.2, 0.1, 0.0)))


def test_couple_limits_decoupled_identity():
    cfg = CouplingConfig(mode="decoupled")
    assert couple_limits(cfg, 25.0, 0.5, 30.0, 0.6) == (30.0, 0.6)


def test_couple_limits_long_dominant():
    cfg = CouplingConfig(mode="long_dominant", c_speed=10.0)
    v_max, steer_max = couple_limits(cfg, 0.0, 0.3, 30.0, 0.6)
    assert (v_max, steer_max) == (30.0, 0.6)           # at rest, full steering
    v_max, steer_max = couple_limits(cfg, 10.0, 0.3, 30.0, 0.6)
    assert v_max == 30.0
    assert steer_max == pytest.approx(0.3, rel=1e-12)  # halved at v = c_speed
    _, tighter = couple_limits(cfg, 20.0, 0.3, 30.0, 0.6)
    assert tighter < steer_max                          # monotone in speed


def test_couple_limits_lat_dominant():
    cfg = CouplingConfig(mode="lat_dominant", c_steer=1.0, steer_scale=3.0)
    v_max, steer_max = couple_limits(cfg, 10.0, 0.0, 30.0, 0.6)
    assert (v_max, steer_max) == (30.0, 0.6)           # straight, full speed
    v_max, steer_max = couple_limits(cfg, 10.0, 1.0 / 3.0, 30.0, 0.6)
    assert steer_max == 0.6
    assert v_max == pytest.approx(15.0, rel=1e-12)     # halved at |d|*scale = c


def test_couple_limits_mutual_weights():
    base = CouplingConfig(mode="mutual", c_speed=10.0, c_steer=1.0, steer_scale=3.0)
    v_max, steer_max = couple_limits(base, 10.0, 1.0 / 3.0, 30.0, 0.6)
    assert v_max == pytest.approx(15.0, rel=1e-12)
    assert steer_max == pytest.approx(0.3, rel=1e-12)
    # zero weight removes that side's influence
    no_long = CouplingConfig(mode="mutual", c_speed=10.0, w_long=0.0)
    assert couple_limits(no_long, 10.0, 1.0 / 3.0, 30.0, 0.6)[1] == 0.6
    no_lat = CouplingConfig(mode="mutual", c_speed=10.0, w_lat=0.0)
    assert couple_limits(no_lat, 10.0, 1.0 / 3.0, 30.0, 0.6)[0] == 30.0


def test_coupling_validation():
    with pytest.raises(ValueError):
        CouplingConfig(mode="sideways")
    with pytest.raises(ValueError):
        CouplingConfig(c_speed=0.0)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(model="unicycle")
    with pytest.raises(ValueError):
        SimConfig(dt=0.0)
    with pytest.raises(ValueError):
        SimConfig(max_steps=0)
    with pytest.raises(ValueError):
        SimConfig(actuator_delay_steps=-1)


def test_compute_metrics_hand_values():
    rows = np.zeros((4, 10))
    rows[:, 7] = 0.5
    m = compute_metrics(rows, 0.1, completion=0.5)
    assert m.rms_cross_track == pytest.approx(0.5)
    assert m.max_cross_track == pytest.approx(0.5)
    assert m.completion == 0.5
    assert math.isnan(m.lap_time)


def test_compute_metrics_steer_rate():
    rows = np.zeros((3, 10))
    rows[:, 6] = [0.0, 0.1, 0.1]
    m = compute_metrics(rows, 0.1, completion=1.0)
    assert m.mean_abs_steer_rate == pytest.approx(0.5, rel=1e-12)


def test_compute_metrics_perfect_run_is_zero():
    rows = np.zeros((10, 10))
    m = compute_metrics(rows, 0.02, completion=1.0, lap_time=12.5)
    assert m.rms_cross_track == 0.0
    assert m.rms_heading == 0.0
    assert m.rms_speed_err == 0.0
    assert m.mean_abs_steer_rate == 0.0
    assert m.lap_time == 12.5


def test_compute_metrics_clamps_completion_and_rejects_empty():
    rows = np.zeros((2, 10))
    assert compute_metrics(rows, 0.1, completion=1.7).completion == 1.0
    assert compute_metrics(rows, 0.1, completion=-0.2).completion == 0.0
    with pytest.raises(ValueError):
        compute_metrics(np.zeros((0, 10)), 0.1, completion=0.0)


def test_zero_speed_start_times_out(params):
    track = straight_track(50.0, spacing=1.0, v_ref=0.0)
    init = VehicleState(x=0.0, y=0.0, theta=0.0, v=0.0)
    cfg = SimConfig(max_steps=50, initial=init)
    rec = simulate(cfg, track, params, Paired(StanleyLateral(StanleyConfig()), ConstantAccel(0.0)))
    assert rec.termination == "max_steps"
    assert rec.metrics.completion == pytest.approx(0.0, abs=1e-9)
    assert rec.rows.shape[0] == 50


def test_termination_names_stay_in_taxonomy(params, bench_track):
    for limit, steps in ((5.0, 200), (0.05, 200)):
        init = VehicleState(x=bench_track.xs[0], y=bench_track.ys[0] + 0.3, theta=0.0, v=8.0)
        cfg = SimConfig(max_steps=steps, off_track_limit=limit, initial=init)
        rec = simulate(cfg, bench_track, params, Paired(StanleyLateral(StanleyConfig()), speed_pid()))
        assert rec.termination in TERMINATIONS


def test_off_track_exit(params):
    track = straight_track(200.0, spacing=1.0, v_ref=8.0)
    init = VehicleState(x=0.0, y=4.9, theta=1.2, v=8.0)

    class HardLeft:
        def reset(self):
            pass
        def steer(self, ctx):
            return 0.6

    rec = simulate(SimConfig(off_track_limit=5.0), track, params,
                   Paired(HardLeft(), ConstantAccel(0.5)))
    assert rec.termination == "off_track"
    assert rec.metrics.completion < 1.0


def test_controller_exception_ends_run_as_diverged(params):
    track = straight_track(100.0, spacing=1.0, v_ref=8.0)

    class Brittle:
        def __init__(self):
            self.calls = 0
        def reset(self):
            self.calls = 0
        def steer(self, ctx):
            self.calls += 1
            if self.calls > 5:
                raise ValueError("gains blew up")
            return 0.0

    rec = simulate(SimConfig(), track, params, Paired(Brittle(), speed_pid()))
    assert rec.termination == "diverged"
    assert rec.rows.shape[0] == 5


def test_nonfinite_command_ends_run_as_diverged(params):
    track = straight_track(100.0, spacing=1.0, v_ref=8.0)

    class NanSteer:
        def reset(self):
            pass
        def steer(self, ctx):
            return float("nan")

    rec = simulate(SimConfig(), track, params, Paired(NanSteer(), speed_pid()))
    assert rec.termination == "diverged"


def test_actuator_delay_logs_queue_warmup(params):
    track = straight_track(200.0, spacing=1.0, v_ref=8.0)
    init = VehicleState(x=0.0, y=1.0, theta=0.0, v=8.0)
    cfg = SimConfig(initial=init, actuator_delay_steps=3, max_steps=50)
    rec = simulate(cfg, track, params, Paired(StanleyLateral(StanleyConfig()), speed_pid()))
    assert np.all(rec.column("steer")[:3] == 0.0)
    assert np.all(rec.column("accel")[:3] == 0.0)
    assert np.any(rec.column("steer")[3:] != 0.0)


def test_long_dominant_coupling_tightens_logged_steering(params, bench_track):
    coupling = CouplingConfig(mode="long_dominant", c_speed=8.0)
    init = VehicleState(x=bench_track.xs[0], y=bench_track.ys[0] + 0.3, theta=0.0, v=8.0)
    cfg = SimConfig(initial=init, coupling=coupling, max_steps=4000)
    rec = simulate(cfg, bench_track, params, Paired(StanleyLateral(StanleyConfig()), speed_pid()))
    v = rec.column("v")
    steer = np.abs(rec.column("steer"))
    limit = params.steer_max * coupling.c_speed / (coupling.c_speed + np.maximum(v, 0.0))
    assert np.all(steer <= limit + 1e-12)


def test_stanley_regression_on_both_models(params, bench_track):
    init = VehicleState(x=bench_track.xs[0], y=bench_track.ys[0] + 0.3, theta=0.0, v=8.0)
    for model in ("kinematic", "dynamic"):
        rec = simulate(SimConfig(model=model, initial=init), bench_track, params,
                       Paired(StanleyLateral(StanleyConfig()), speed_pid()))
        assert rec.termination == "completed"
        e = rec.column("e_ct")
        assert float(np.sqrt(np.mean(e * e))) < 0.30
        assert rec.metrics.lap_time < 60.0


def test_log_columns_and_csv_header(tmp_path, params):
    track = straight_track(60.0, spacing=1.0, v_ref=8.0)
    rec = simulate(SimConfig(max_steps=100), track, params,
                   Paired(PidLateral(PidController(PidGains(0.5, 0.1, 0.15))), speed_pid()))
    assert LOG_HEADER == "t,x,y,theta,v,accel,steer,e_ct,e_head,e_v"
    assert rec.rows.shape[1] == 10
    assert np.array_equal(rec.column("t"), rec.rows[:, 0])
    assert np.array_equal(rec.column("e_v"), rec.rows[:, 9])
    path = tmp_path / "run.csv"
    rec.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == LOG_HEADER
    assert len(lines) == rec.rows.shape[0] + 1
    first = [float(tok) for tok in lines[1].split(",")]
    assert first == pytest.approx(list(rec.rows[0]), rel=1e-10)


def test_time_column_uses_dt(params):
    track = straight_track(100.0, spacing=1.0, v_ref=8.0)
    rec = simulate(SimConfig(dt=0.05, max_steps=20), track, params,
                   Paired(StanleyLateral(StanleyConfig()), speed_pid()))
    assert np.allclose(rec.column("t"), 0.05 * np.arange(rec.rows.shape[0]), atol=1e-12)


def test_completion_fraction_monotone_with_budget(params, bench_track):
    init = VehicleState(x=bench_track.xs[0], y=bench_track.ys[0] + 0.3, theta=0.0, v=8.0)
    done = []
    for steps in (300, 900):
        cfg = SimConfig(max_steps=steps, initial=init)
        rec = simulate(cfg, bench_track, params, Paired(StanleyLateral(StanleyConfig()), speed_pid()))
        assert rec.termination == "max_steps"
        done.append(rec.metrics.completion)
    assert 0.0 < done[0] < done[1] < 1.0
