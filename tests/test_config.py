import json
import math

import numpy as np
import pytest

from trackbench.classical import OutputShaper, PidGains
from trackbench.config import (
    ConfigError,
    build_coupling,
    build_initial,
    build_lateral,
    build_longitudinal,
    build_mpc_config,
    build_run,
    build_section,
    build_shaper,
    build_track,
    build_vehicle,
    load_json,
)
from trackbench.geometric import PurePursuitConfig, StanleyConfig
from trackbench.learning import EnvConfig, Policy
from trackbench.models import VehicleParams, VehicleState
from trackbench.mpc import MpcConfig, MpcLateral
from trackbench.sim import (
    BangBangLateral,
    ConstantAccel,
    CouplingConfig,
    LongitudinalPid,
    PidLateral,
    PurePursuitLateral,
    SimConfig,
    StanleyLateral,
)


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
    # the front distance follows from the wheelbase and the rear distance
    with pytest.raises(ConfigError, match="dist_front"):
        build_vehicle({"dist_front": 1.25})
    assert build_vehicle({"wheelbase": 3.0, "dist_rear": 1.2}).dist_front == 3.0 - 1.2
    with pytest.raises(ConfigError):
        build_vehicle({"mass": -5.0})


def test_non_number_for_numeric_field_names_the_key():
    for bad in ("x", True, None, [1.0]):
        with pytest.raises(ConfigError, match=r"bad vehicle: 'mass' must be a number, not"):
            build_vehicle({"mass": bad})
    with pytest.raises(ConfigError, match=r"'steer_max_deg' must be a number, not bool"):
        build_vehicle({"steer_max_deg": True})
    with pytest.raises(ConfigError, match=r"'max_steps' must be an integer, not float"):
        build_run({"lateral": {"type": "stanley"}, "max_steps": 100.5})
    with pytest.raises(ConfigError, match=r"'p' must be an integer, not bool"):
        build_mpc_config({"p": True}, VehicleParams())
    assert build_vehicle({"mass": 1200}).mass == 1200
    assert build_section(PurePursuitConfig, {"d_l_fixed": None}, "pure_pursuit").d_l_fixed is None


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
    # 'closed' is a JSON boolean, not any truthy value
    for closed in ("no", 1, None):
        with pytest.raises(ConfigError, match="'closed' must be true or false"):
            build_track({"kind": "csv", "path": str(csv_path), "closed": closed})


def test_build_track_names_unknown_key(tmp_path):
    csv_path = tmp_path / "t.csv"
    csv_path.write_text("x,y\n0,0\n10,0\n")
    for spec in ({"kind": "straight"}, {"kind": "circle"}, {"kind": "racetrack"},
                 {"kind": "csv", "path": str(csv_path)}):
        with pytest.raises(ConfigError, match="bogus"):
            build_track({**spec, "name": "t", "bogus": 1})


def test_build_track_csv_short_row_is_config_error(tmp_path):
    csv_path = tmp_path / "short.csv"
    csv_path.write_text("x,y,v_ref\n0,0\n10,0,5\n")
    with pytest.raises(ConfigError, match=r"short\.csv line 2"):
        build_track({"kind": "csv", "path": str(csv_path)})


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
    # generated tracks take only positive sizes
    for spec, key in (({"kind": "straight", "spacing": 0}, "spacing"),
                      ({"kind": "straight", "length": -10}, "length"),
                      ({"kind": "circle", "radius": -5}, "radius"),
                      ({"kind": "racetrack", "spacing": -1}, "spacing"),
                      ({"kind": "racetrack", "straight": 0}, "straight")):
        with pytest.raises(ConfigError, match=key):
            build_track(spec)
    # a straight track's start is two finite numbers, its heading finite
    for spec, key in (({"kind": "straight", "start": [1]}, "start"),
                      ({"kind": "straight", "start": {"x": 1}}, "start"),
                      ({"kind": "straight", "start": [1, 2, 3]}, "start"),
                      ({"kind": "straight", "start": [True, 0]}, "start"),
                      ({"kind": "straight", "start": [math.nan, 0]}, "start"),
                      ({"kind": "straight", "start": "ab"}, "start"),
                      ({"kind": "straight", "heading": math.inf}, "heading")):
        with pytest.raises(ConfigError, match=key):
            build_track(spec)


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
    }, VehicleParams())
    assert cfg.ts == 0.1
    assert cfg.weights.pos == 2.0
    assert cfg.weights.head == 3.0  # untouched default
    assert cfg.bounds.steer_max == pytest.approx(math.radians(20.0), rel=1e-12)
    assert cfg.bounds.accel_min == -4.0
    assert cfg.opt.max_iter == 30
    with pytest.raises(ConfigError):
        build_mpc_config({"weights": {"position": 1.0}}, VehicleParams())
    with pytest.raises(ConfigError):
        build_mpc_config({"p": 2, "m": 5}, VehicleParams())
    # the solver reads neither a tolerance nor a seed
    for key in ("tol", "seed"):
        with pytest.raises(ConfigError, match=key):
            build_mpc_config({"opt": {key: 1}}, VehicleParams())


def test_mpc_hard_bounds_default_to_the_vehicle_limits():
    vehicle = VehicleParams(steer_max=0.3, accel_max=2.0, decel_max=4.0)
    bounds = build_lateral({"type": "mpc"}, vehicle, 0.02).cfg.bounds
    assert (bounds.accel_min, bounds.accel_max, bounds.steer_max) == (-4.0, 2.0, 0.3)
    # keys the section gives win over the vehicle's limits
    given = build_mpc_config({"bounds": {"accel_min": -1.0, "steer_max_deg": 10.0}},
                             vehicle).bounds
    assert (given.accel_min, given.accel_max, given.steer_max) == (-1.0, 2.0,
                                                                   math.radians(10.0))


def test_build_longitudinal_variants(params):
    lat = build_lateral({"type": "stanley"}, params, 0.02)
    assert isinstance(build_longitudinal(None, lat), LongitudinalPid)
    assert isinstance(build_longitudinal({"type": "none", "value": 0.5}, lat),
                      ConstantAccel)
    mpc_lat = build_lateral({"type": "mpc"}, params, 0.02)
    assert build_longitudinal({"type": "mpc"}, mpc_lat) is mpc_lat
    with pytest.raises(ConfigError):
        build_longitudinal({"type": "mpc"}, lat)
    with pytest.raises(ConfigError):
        build_longitudinal({"type": "gustav"}, lat)


def test_build_coupling():
    assert build_coupling(None).mode == "decoupled"
    cpl = build_coupling({"mode": "long_dominant", "c_speed": 12.0})
    assert cpl.mode == "long_dominant"
    assert cpl.c_speed == 12.0
    # each mode takes the constants it reads
    for spec in ({"v_max": 20.0},
                 {"mode": "lat_dominant", "c_steer": 2.0, "steer_scale": 1.0, "v_max": 20.0},
                 {"mode": "mutual", "c_speed": 12.0, "c_steer": 2.0, "steer_scale": 1.0,
                  "w_long": 0.5, "w_lat": 0.5, "v_max": 20.0}):
        assert build_coupling(spec) == CouplingConfig(**spec)
    with pytest.raises(ConfigError):
        build_coupling({"mode": "diagonal"})
    with pytest.raises(ConfigError):
        build_coupling({"speed": 12.0})


@pytest.mark.parametrize("spec,key", [
    ({"c_speed": 12.0}, "c_speed"),
    ({"mode": "decoupled", "c_steer": 2.0}, "c_steer"),
    ({"mode": "decoupled", "steer_scale": 2.0}, "steer_scale"),
    ({"mode": "decoupled", "w_long": 0.5}, "w_long"),
    ({"mode": "decoupled", "w_lat": 0.5}, "w_lat"),
    ({"mode": "long_dominant", "c_steer": 2.0}, "c_steer"),
    ({"mode": "long_dominant", "steer_scale": 2.0}, "steer_scale"),
    ({"mode": "long_dominant", "w_long": 0.5}, "w_long"),
    ({"mode": "lat_dominant", "c_speed": 12.0}, "c_speed"),
    ({"mode": "lat_dominant", "w_lat": 0.5}, "w_lat"),
], ids=str)
def test_coupling_constant_its_mode_never_reads_is_config_error(spec, key):
    with pytest.raises(ConfigError, match=key):
        build_coupling(spec)


@pytest.mark.parametrize("key", ["k_v", "d_l_min", "d_l_max"])
def test_pure_pursuit_fixed_lookahead_rejects_speed_keys(params, key):
    # a fixed lookahead distance never reads the speed-coupled law's keys
    with pytest.raises(ConfigError, match=key):
        build_lateral({"type": "pure_pursuit", "d_l_fixed": 8.0, key: 3.0}, params, 0.02)
    # with d_l_fixed null the speed-coupled law reads them
    lat = build_lateral({"type": "pure_pursuit", "d_l_fixed": None, key: 3.0}, params, 0.02)
    assert getattr(lat.cfg, key) == 3.0


def test_build_run_assembles_everything():
    cfg = {
        "model": "kinematic",
        "dt": 0.05,
        "max_steps": 500,
        "initial": {"y": 0.5, "v": 8.0},
        "lateral": {"type": "stanley"},
    }
    sim_cfg, params, controller = build_run(cfg)
    lateral, longitudinal = controller.lateral, controller.longitudinal
    assert sim_cfg.dt == 0.05
    assert sim_cfg.max_steps == 500
    assert sim_cfg.initial.y == 0.5
    assert isinstance(lateral, StanleyLateral)
    assert isinstance(longitudinal, LongitudinalPid)
    with pytest.raises(ConfigError):
        build_run({"lateral": {"type": "stanley"}, "steps": 5})
    with pytest.raises(ConfigError):
        build_run({"dt": 0.05})


def test_build_run_rejects_seed():
    # the simulation draws no random numbers, so a seed would be ignored
    with pytest.raises(ConfigError, match="seed"):
        build_run({"lateral": {"type": "stanley"}, "seed": 0})


def test_build_run_pairs_mpc_with_itself_only_on_request():
    _, _, both = build_run({"lateral": {"type": "mpc"}, "longitudinal": {"type": "mpc"}})
    assert isinstance(both.lateral, MpcLateral) and both.longitudinal is both.lateral
    _, _, steer_only = build_run({"lateral": {"type": "mpc"}})
    assert isinstance(steer_only.longitudinal, LongitudinalPid)
    for lon in ({"type": "none", "valu": 1.0}, {"type": "mpc", "shaper": {}}):
        with pytest.raises(ConfigError, match="valu|shaper"):
            build_run({"lateral": {"type": "mpc"}, "longitudinal": lon})


# a vehicle whose steering limit differs from every class default, so a law
# that derives its limit from the vehicle shows it
NARROW = VehicleParams(steer_max=0.3)


@pytest.mark.parametrize("built,expected", [
    (lambda: build_vehicle({}), VehicleParams()),
    (lambda: build_coupling({}), CouplingConfig()),
    (lambda: build_shaper({}), OutputShaper()),
    (lambda: build_section(VehicleState, {}, "initial"), VehicleState()),
    (lambda: build_run({"lateral": {"type": "stanley"}})[0], SimConfig()),
    (lambda: build_mpc_config({}, VehicleParams()), MpcConfig()),
    (lambda: build_section(PidGains, {}, "schedule row"), PidGains()),
    (lambda: build_section(EnvConfig, {}, "env"), EnvConfig()),
    (lambda: build_lateral({"type": "bang_bang"}, NARROW, 0.02),
     BangBangLateral(u_max=NARROW.steer_max)),
    (lambda: build_lateral({"type": "pure_pursuit"}, NARROW, 0.02).cfg,
     PurePursuitConfig(delta_max=NARROW.steer_max)),
    (lambda: build_lateral({"type": "stanley"}, NARROW, 0.02).cfg,
     StanleyConfig(delta_max=NARROW.steer_max)),
], ids=["vehicle", "coupling", "shaper", "initial", "sim", "mpc", "schedule_row", "env",
        "bang_bang", "pure_pursuit", "stanley"])
def test_empty_section_builds_class_default(built, expected):
    assert built() == expected


def test_empty_initial_section_starts_on_track():
    assert build_initial({}) is None
    assert build_initial(None) is None


@pytest.mark.parametrize("build,limit", [
    (lambda s: build_vehicle(s), "steer_max"),
    (lambda s: build_mpc_config({"bounds": s}, NARROW), "steer_max"),
    (lambda s: build_lateral({"type": "bang_bang", **s}, NARROW, 0.02), "u_max"),
    (lambda s: build_lateral({"type": "pure_pursuit", **s}, NARROW, 0.02), "delta_max"),
    (lambda s: build_lateral({"type": "stanley", **s}, NARROW, 0.02), "delta_max"),
    (lambda s: build_lateral({"type": "policy", "path": "p.bin", **s}, NARROW, 0.02),
     "delta_max"),
], ids=["vehicle", "mpc.bounds", "bang_bang", "pure_pursuit", "stanley", "policy"])
def test_steering_limit_given_twice_is_config_error(build, limit):
    with pytest.raises(ConfigError, match=f"both '{limit}' and '{limit}_deg'"):
        build({limit: 0.2, limit + "_deg": 10.0})


def test_geometric_steering_limit_in_radians_or_degrees():
    for kind in ("pure_pursuit", "stanley"):
        rad = build_lateral({"type": kind, "delta_max": math.radians(20.0)}, NARROW, 0.02)
        deg = build_lateral({"type": kind, "delta_max_deg": 20.0}, NARROW, 0.02)
        assert rad.cfg == deg.cfg
        assert rad.cfg.delta_max == math.radians(20.0)


@pytest.mark.parametrize("lateral", [
    {"type": "bang_bang", "u_max": -0.2},
    {"type": "bang_bang", "u_max_deg": 0.0},
    {"type": "bang_bang", "scale": 0.0},
    {"type": "pure_pursuit", "delta_max_deg": -10.0},
    {"type": "pure_pursuit", "delta_max_deg": 0.0},
    {"type": "stanley", "delta_max_deg": -10.0},
    {"type": "stanley", "delta_max_deg": 0.0},
], ids=str)
def test_non_positive_steering_limit_is_config_error(lateral):
    key = next(k for k in lateral if k != "type").removesuffix("_deg")
    with pytest.raises(ConfigError, match=f"{key} must be > 0"):
        build_lateral(lateral, VehicleParams(), 0.02)


def test_policy_non_positive_steering_limit_is_config_error(tmp_path):
    path = tmp_path / "policy.bin"
    Policy(hidden=(4,), rng=np.random.default_rng(0)).save(path)
    with pytest.raises(ConfigError, match="steer_max must be > 0"):
        build_lateral({"type": "policy", "path": str(path), "delta_max_deg": 0.0},
                      VehicleParams(), 0.02)
    for bad, kind in ((True, "bool"), ("x", "str")):
        with pytest.raises(ConfigError,
                           match=rf"bad policy: 'delta_max' must be a number, not {kind}"):
            build_lateral({"type": "policy", "path": str(path), "delta_max": bad},
                          VehicleParams(), 0.02)


def test_pid_schedule_with_fixed_gain_is_config_error(params):
    # a fixed gain beside a schedule would reach no controller
    for gain in ("kp", "ki", "kd"):
        with pytest.raises(ConfigError, match=gain):
            build_lateral({"type": "pid", gain: 5.0, "schedule": [{"at": 0.0, "kp": 1.0}]},
                          params, 0.02)


def test_pid_schedule_row_keys_checked(params):
    for row, key in (({"at": 0.0, "kpp": 1.0}, "kpp"), ({"kp": 1.0}, "at")):
        with pytest.raises(ConfigError, match=key):
            build_lateral({"type": "pid", "schedule": [row]}, params, 0.02)


def test_constant_accel_value_must_be_a_number():
    with pytest.raises(ConfigError,
                       match=r"bad longitudinal none: 'value' must be a number, not str"):
        build_longitudinal({"type": "none", "value": "x"}, None)
    assert build_longitudinal({"type": "none", "value": -1}, None).value == -1


def test_pid_buffer_len_must_be_an_integer():
    for bad, kind in ((2.5, "float"), (10.0, "float"), (True, "bool")):
        with pytest.raises(ConfigError,
                           match=rf"bad lateral pid: 'buffer_len' must be an integer, not {kind}"):
            build_lateral({"type": "pid", "buffer_len": bad}, VehicleParams(), 0.02)
    with pytest.raises(ConfigError, match=r"bad longitudinal pid: 'buffer_len' must be an integer"):
        build_longitudinal({"type": "pid", "buffer_len": 2.5}, None)
    lateral = build_lateral({"type": "pid", "buffer_len": 3}, VehicleParams(), 0.02)
    assert lateral.pid.buffer_len == 3


@pytest.mark.parametrize("key", ["kp", "ki", "kd", "integral_clamp", "d_filter"])
def test_pid_non_number_names_the_key(key):
    with pytest.raises(ConfigError, match=rf"bad lateral pid: '{key}' must be a number, not str"):
        build_lateral({"type": "pid", key: "x"}, VehicleParams(), 0.02)
    with pytest.raises(ConfigError,
                       match=rf"bad longitudinal pid: '{key}' must be a number, not bool"):
        build_longitudinal({"type": "pid", key: True}, None)


def test_straight_track_length_must_be_a_number():
    with pytest.raises(ConfigError,
                       match=r"bad track kind 'straight': 'length' must be a number, not bool"):
        build_track({"kind": "straight", "length": True})
    assert build_track({"kind": "straight", "length": 20}).length == pytest.approx(20.0)


def test_circle_track_radius_must_be_a_number():
    with pytest.raises(ConfigError,
                       match=r"bad track kind 'circle': 'radius' must be a number, not str"):
        build_track({"kind": "circle", "radius": "x"})
