"""Property tests of the harness invariants over randomly drawn runs.

Every run ends in exactly one documented termination, the logged commands
stay within the vehicle limits after shaping and coupling, and a rerun with
the same controller object (reset in between) logs byte-identical rows.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trackbench.config import build_run, build_track
from trackbench.learning import Policy
from trackbench.sim import TERMINATIONS, simulate

TRACKS = {
    "straight": {"kind": "straight", "length": 60.0},
    "circle": {"kind": "circle", "radius": 15.0},
    "racetrack": {"kind": "racetrack", "straight": 30.0, "radius": 10.0},
}
LATERALS = {
    "bang_bang": {"type": "bang_bang", "scale": 0.1},
    "pid": {"type": "pid", "kp": 0.5, "ki": 0.1, "kd": 0.15},
    "pure_pursuit": {"type": "pure_pursuit", "k_v": 0.5},
    "stanley": {"type": "stanley", "k_delta": 4.0},
    "mpc": {"type": "mpc", "ts": 0.05, "p": 6, "m": 2},
    "policy": {"type": "policy"},
}


@pytest.fixture(scope="module")
def policy_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("policy") / "policy.bin"
    Policy(hidden=(4,), rng=np.random.default_rng(0)).save(path)
    return str(path)


shapers = st.none() | st.fixed_dictionaries({}, optional={
    "deadband": st.floats(0.0, 0.2),
    "max_rate": st.floats(0.5, 20.0),
    "out_max": st.floats(0.05, 5.0),
})


@st.composite
def run_specs(draw):
    controller = draw(st.sampled_from(sorted(LATERALS)))
    lateral = dict(LATERALS[controller])
    lateral_shaper = draw(shapers)
    if lateral_shaper is not None:
        lateral["shaper"] = lateral_shaper
    longitudinal = {"type": "pid"}
    if controller == "mpc" and draw(st.booleans()):
        longitudinal = {"type": "mpc"}
    else:
        longitudinal_shaper = draw(shapers)
        if longitudinal_shaper is not None:
            longitudinal["shaper"] = longitudinal_shaper
    return {
        "track": draw(st.sampled_from(sorted(TRACKS))),
        "speed": draw(st.sampled_from([3.0, 8.0, 12.0])),
        "offset": draw(st.floats(-3.0, 3.0)),
        "heading": draw(st.floats(-0.6, 0.6)),
        "v0": draw(st.floats(0.0, 14.0)),
        "run": {
            "model": draw(st.sampled_from(["kinematic", "dynamic"])),
            "dt": 0.025,
            "max_steps": draw(st.integers(1, 120)),
            "actuator_delay_steps": draw(st.integers(0, 3)),
            "coupling": {"mode": draw(st.sampled_from(
                ["decoupled", "long_dominant", "lat_dominant", "mutual"]))},
            "lateral": lateral,
            "longitudinal": longitudinal,
        },
    }


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=run_specs())
def test_harness_invariants(spec, policy_path):
    track = build_track({**TRACKS[spec["track"]], "v_ref": spec["speed"]})
    tangent = float(track.seg_tangent[0])
    run = dict(spec["run"])
    run["initial"] = {
        "x": float(track.xs[0]) - spec["offset"] * np.sin(tangent),
        "y": float(track.ys[0]) + spec["offset"] * np.cos(tangent),
        "theta": tangent + spec["heading"],
        "v": spec["v0"],
    }
    if run["lateral"]["type"] == "policy":
        run["lateral"] = {**run["lateral"], "path": policy_path}
    sim_cfg, params, controller = build_run(run)

    first = simulate(sim_cfg, track, params, controller)
    assert first.termination in TERMINATIONS
    assert 1 <= first.rows.shape[0] <= sim_cfg.max_steps
    accel, steer = first.column("accel"), first.column("steer")
    assert np.all(accel >= -params.decel_max) and np.all(accel <= params.accel_max)
    assert np.all(np.abs(steer) <= params.steer_max)

    again = simulate(sim_cfg, track, params, controller)
    assert again.termination == first.termination
    assert again.rows.tobytes() == first.rows.tobytes()
