import json
import math

import numpy as np
import pytest

from trackbench.config import (
    ConfigError,
    build_coupling,
    build_lateral,
    build_longitudinal,
    build_mpc_config,
    build_run,
    build_shaper,
    build_track,
    build_vehicle,
    load_json,
)
from trackbench.models import VehicleParams
from trackbench.sim import (
    BangBangLateral,
    ConstantAccel,
    LongitudinalPid,
    MpcAccelPassthrough,
    MpcLateral,
    PidLateral,
    PurePursuitLateral,
    StanleyLateral,
)
from trackbench.track import straight_track


def test_load_json_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(ConfigError):
        load_json(bad)
    not_obj = tmp_path / "list.json"
    not_obj.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_json(not_obj)
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"a": 1}))
    assert load_json(good) == {"a": 1}


def test_build_vehicle_defaults_and_overrides():
    assert build_vehicle(None) == VehicleParams()
    params = build_vehicle({"mass": 1200.0, "steer_max_deg": 30.0})
    assert params.mass == 1200.0
    assert params.steer_max == pytest.approx(math.radians(30.0), rel=1e-12)
    with pytest.raises(ConfigError):
        build_vehicle({"masss": 1200.0})
    with pytest.raises(ConfigError):
        build_vehicle({"mass": -5.0})


def test_build_track_kinds(tmp_path):
    t = build_track({"kind": "straight", "length": 50.0, "v_ref": 5.0})
    assert not t.closed
    t = build_track({"kind": "circle", "radius": 25.0})
    assert t.closed
    t = build_track({"kind": "racetrack", "straight": 80.0, "radius": 15.0})
    assert t.closed
    csv_path = tmp_path / "t.csv"
    csv_path.write_text("x,y,v_ref\n0,0,5\n10,0,5\n20,0,5\n")
    t = build_track({"kind": "csv", "path": str(csv_path)})
    assert t.length == pytest.approx(20.0)


def test_build_track_csv_takes_v_ref_and_closed(tmp_path):
    csv_path = tmp_path / "square.csv"
    csv_path.write_text("x,y,v_ref\n0,0,8\n10,0,8\n10,10,8\n0,10,8\n")
    t = build_track({"kind": "csv", "path": str(csv_path), "v_ref": 5, "closed": True})
    assert t.closed
    assert t.length == pytest.approx(40.0)
    assert np.all(t.v_ref == 5.0)
    t = build_track({"kind": "csv", "path": str(csv_path)})
    assert not t.closed
    assert np.all(t.v_ref == 8.0)


def test_build_track_names_unknown_key(tmp_path):
    csv_path = tmp_path / "t.csv"
    csv_path.write_text("x,y\n0,0\n10,0\n")
    for spec in ({"kind": "straight"}, {"kind": "circle"}, {"kind": "racetrack"},
                 {"kind": "csv", "path": str(csv_path)}):
        with pytest.raises(ConfigError, match="bogus"):
            build_track({**spec, "name": "t", "bogus": 1})


def test_build_track_rejections():
    with pytest.raises(ConfigError):
        build_track({"radius": 20.0})
    with pytest.raises(ConfigError):
        build_track({"kind": "spiral"})
    with pytest.raises(ConfigError):
        build_track({"kind": "racetrack", "length": 80.0})  # wrong key name
    with pytest.raises(ConfigError):
        build_track({"kind": "csv"})
    with pytest.raises(ConfigError):
        build_track({"kind": "straight", "length": 50.0, "v_ref": -1.0})


def test_build_shaper():
    default = build_shaper(None)
    assert default.deadband == 0.0
    assert math.isinf(default.max_rate)
    shaped = build_shaper({"max_rate": 2.0, "deadband": 0.05})
    assert shaped.max_rate == 2.0
    with pytest.raises(ConfigError):
        build_shaper({"rate": 2.0})
    with pytest.raises(ConfigError):
        build_shaper({"max_rate": -1.0})


def test_build_lateral_dispatch(params):
    assert isinstance(build_lateral({"type": "bang_bang"}, params, 0.02), BangBangLateral)
    assert isinstance(build_lateral({"type": "pid", "kp": 0.5}, params, 0.02), PidLateral)
    assert isinstance(build_lateral({"type": "pure_pursuit"}, params, 0.02), PurePursuitLateral)
    assert isinstance(build_lateral({"type": "stanley"}, params, 0.02), StanleyLateral)
    assert isinstance(build_lateral({"type": "mpc"}, params, 0.02), MpcLateral)


def test_build_lateral_rejections(params):
    with pytest.raises(ConfigError):
        build_lateral({}, params, 0.02)
    with pytest.raises(ConfigError):
        build_lateral({"type": "fuzzy"}, params, 0.02)
    with pytest.raises(ConfigError):
        build_lateral({"type": "stanley", "k": 1.0}, params, 0.02)
    with pytest.raises(ConfigError):
        build_lateral({"type": "pure_pursuit", "k_v": -2.0}, params, 0.02)


def test_bang_bang_limit_in_degrees(params):
    lat = build_lateral({"type": "bang_bang", "u_max_deg": 70.0, "scale": 0.1}, params, 0.02)
    assert lat.u_max == pytest.approx(math.radians(70.0), rel=1e-12)
    assert lat.scale == 0.1


def test_pid_schedule_from_config(params):
    lat = build_lateral({
        "type": "pid",
        "schedule": [{"at": 0.0, "kp": 1.0}, {"at": 10.0, "kp": 0.5}],
    }, params, 0.02)
    assert isinstance(lat, PidLateral)
    with pytest.raises(ConfigError):
        build_lateral({
            "type": "pid",
            "schedule": [{"at": 10.0, "kp": 1.0}, {"at": 0.0, "kp": 0.5}],
        }, params, 0.02)


def test_build_mpc_config_nested_sections():
    cfg = build_mpc_config({
        "type": "mpc", "ts": 0.1, "p": 10, "m": 2,
        "weights": {"pos": 2.0},
        "bounds": {"steer_max_deg": 20.0, "accel_min": -4.0},
        "opt": {"max_iter": 30},
    }, dt=0.02)
    assert cfg.ts == 0.1
    assert cfg.weights.pos == 2.0
    assert cfg.weights.head == 3.0  # untouched default
    assert cfg.bounds.steer_max == pytest.approx(math.radians(20.0), rel=1e-12)
    assert cfg.bounds.accel_min == -4.0
    assert cfg.opt.max_iter == 30
    with pytest.raises(ConfigError):
        build_mpc_config({"weights": {"position": 1.0}}, dt=0.02)
    with pytest.raises(ConfigError):
        build_mpc_config({"p": 2, "m": 5}, dt=0.02)
    # the solver reads neither a tolerance nor a seed
    for key in ("tol", "seed"):
        with pytest.raises(ConfigError, match=key):
            build_mpc_config({"opt": {key: 1}}, dt=0.02)


def test_build_longitudinal_variants(params):
    lat = build_lateral({"type": "stanley"}, params, 0.02)
    assert isinstance(build_longitudinal(None, params, lat), LongitudinalPid)
    assert isinstance(build_longitudinal({"type": "none", "value": 0.5}, params, lat),
                      ConstantAccel)
    mpc_lat = build_lateral({"type": "mpc"}, params, 0.02)
    assert isinstance(build_longitudinal({"type": "mpc"}, params, mpc_lat),
                      MpcAccelPassthrough)
    with pytest.raises(ConfigError):
        build_longitudinal({"type": "mpc"}, params, lat)
    with pytest.raises(ConfigError):
        build_longitudinal({"type": "gustav"}, params, lat)


def test_build_coupling():
    assert build_coupling(None).mode == "decoupled"
    cpl = build_coupling({"mode": "long_dominant", "c_speed": 12.0})
    assert cpl.mode == "long_dominant"
    assert cpl.c_speed == 12.0
    with pytest.raises(ConfigError):
        build_coupling({"mode": "diagonal"})
    with pytest.raises(ConfigError):
        build_coupling({"speed": 12.0})


def test_build_run_assembles_everything():
    track = straight_track(100.0, spacing=1.0, v_ref=8.0)
    cfg = {
        "model": "kinematic",
        "dt": 0.05,
        "max_steps": 500,
        "initial": {"y": 0.5, "v": 8.0},
        "lateral": {"type": "stanley"},
    }
    sim_cfg, params, lateral, longitudinal = build_run(cfg, track)
    assert sim_cfg.dt == 0.05
    assert sim_cfg.max_steps == 500
    assert sim_cfg.initial.y == 0.5
    assert isinstance(lateral, StanleyLateral)
    assert isinstance(longitudinal, LongitudinalPid)
    with pytest.raises(ConfigError):
        build_run({"lateral": {"type": "stanley"}, "steps": 5}, track)
    with pytest.raises(ConfigError):
        build_run({"dt": 0.05}, track)
