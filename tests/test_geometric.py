import math

import numpy as np
import pytest

from trackbench.classical import PidController, PidGains
from trackbench.geometric import (
    PurePursuitConfig,
    StanleyConfig,
    lookahead_distance,
    pure_pursuit_steer,
    stanley_steer,
)
from trackbench.models import VehicleParams, VehicleState
from trackbench.sim import (
    LongitudinalPid,
    Paired,
    PurePursuitLateral,
    SimConfig,
    StanleyLateral,
    simulate,
)
from trackbench.track import TrackingErrors, racetrack


def errs(e_ct=0.0, e_psi=0.0):
    return TrackingErrors(
        cross_track=e_ct, heading=e_psi, speed=0.0, nearest_index=0, s=0.0
    )


PP = PurePursuitConfig(delta_max=math.radians(35.0))


def test_pure_pursuit_hand_value(params):
    # L = 2.5, alpha = 30 deg, d_l = 10 -> atan(0.25)
    out = pure_pursuit_steer(PP, math.radians(30.0), 10.0, params)
    assert out == pytest.approx(0.24497866312686414, rel=1e-12)
    assert out == pytest.approx(0.244979, abs=1e-6)


def test_pure_pursuit_zero_alpha_is_zero(params):
    assert pure_pursuit_steer(PP, 0.0, 10.0, params) == 0.0


def test_pure_pursuit_saturates(params):
    out = pure_pursuit_steer(PP, math.radians(80.0), 0.5, params)
    assert out == pytest.approx(math.radians(35.0), rel=1e-12)
    out = pure_pursuit_steer(PP, -math.radians(80.0), 0.5, params)
    assert out == pytest.approx(-math.radians(35.0), rel=1e-12)


def test_pure_pursuit_matches_curvature_geometry(params):
    # pre-clip, tan(delta)/L equals the arc curvature 2 sin(alpha) / d_l
    rng = np.random.default_rng(16)
    cfg = PurePursuitConfig(d_l_fixed=None, delta_max=1.0)
    for _ in range(200):
        alpha = float(rng.uniform(-0.6, 0.6))
        v_f = float(rng.uniform(4.0, 20.0))
        d_l = lookahead_distance(cfg, v_f)
        delta = pure_pursuit_steer(cfg, alpha, d_l, params)
        if abs(delta) < 1.0 - 1e-9:
            kappa = 2.0 * math.sin(alpha) / d_l
            assert math.tan(delta) / params.wheelbase == pytest.approx(kappa, rel=1e-12)


def test_pure_pursuit_odd_in_alpha(params):
    rng = np.random.default_rng(17)
    for _ in range(100):
        alpha = float(rng.uniform(0.0, 1.2))
        left = pure_pursuit_steer(PP, alpha, 10.0, params)
        right = pure_pursuit_steer(PP, -alpha, 10.0, params)
        assert left == pytest.approx(-right, rel=1e-12, abs=1e-15)


def test_lookahead_distance_coupling():
    cfg = PurePursuitConfig(k_v=0.5, d_l_min=2.0, d_l_max=20.0)
    assert lookahead_distance(cfg, 1.0) == 2.0       # clamp low
    assert lookahead_distance(cfg, 10.0) == 5.0      # k_v * v
    assert lookahead_distance(cfg, 100.0) == 20.0    # clamp high
    fixed = PurePursuitConfig(d_l_fixed=7.0)
    assert lookahead_distance(fixed, 100.0) == 7.0


def test_pure_pursuit_config_validation():
    with pytest.raises(ValueError):
        PurePursuitConfig(k_v=0.0)
    with pytest.raises(ValueError):
        PurePursuitConfig(d_l_min=5.0, d_l_max=2.0)
    with pytest.raises(ValueError):
        PurePursuitConfig(d_l_fixed=-1.0)


@pytest.mark.parametrize("config", [PurePursuitConfig, StanleyConfig])
def test_steering_limit_must_be_positive(config):
    for delta_max in (0.0, -math.radians(10.0)):
        with pytest.raises(ValueError, match="delta_max"):
            config(delta_max=delta_max)


ST = StanleyConfig(k_delta=2.5, k_s=1.0, k_d=1.0, delta_max=math.radians(35.0))


def test_stanley_hand_value():
    out = stanley_steer(ST, errs(e_ct=1.0, e_psi=0.1), 9.0)
    assert out == pytest.approx(0.34497866312686415, rel=1e-12)
    assert out == pytest.approx(0.344979, abs=1e-6)


def test_stanley_zero_errors_zero_steer():
    assert stanley_steer(ST, errs(), 10.0) == 0.0


def test_stanley_monotonicity():
    base = stanley_steer(ST, errs(e_ct=0.5, e_psi=0.05), 10.0)
    assert stanley_steer(ST, errs(e_ct=0.5, e_psi=0.10), 10.0) > base
    assert stanley_steer(ST, errs(e_ct=1.0, e_psi=0.05), 10.0) > base
    # higher speed softens the cross-track term
    assert stanley_steer(ST, errs(e_ct=0.5, e_psi=0.05), 20.0) < base


def test_stanley_odd_symmetry():
    rng = np.random.default_rng(18)
    for _ in range(100):
        e_ct = float(rng.uniform(0.0, 3.0))
        e_psi = float(rng.uniform(0.0, 0.5))
        v = float(rng.uniform(1.0, 20.0))
        pos = stanley_steer(ST, errs(e_ct, e_psi), v)
        neg = stanley_steer(ST, errs(-e_ct, -e_psi), v)
        assert pos == pytest.approx(-neg, rel=1e-12, abs=1e-15)


def test_stanley_saturates_as_error_grows():
    out = stanley_steer(ST, errs(e_ct=1e9, e_psi=0.0), 5.0)
    assert out == pytest.approx(math.radians(35.0), rel=1e-12)
    out = stanley_steer(ST, errs(e_ct=-1e9, e_psi=0.0), 5.0)
    assert out == pytest.approx(-math.radians(35.0), rel=1e-12)


def test_stanley_config_validation():
    with pytest.raises(ValueError):
        StanleyConfig(k_delta=0.0)
    with pytest.raises(ValueError):
        StanleyConfig(k_s=0.0)
    with pytest.raises(ValueError):
        StanleyConfig(k_d=-0.5)


def _closed_loop_rms(lateral, track, params):
    init = VehicleState(x=track.xs[0], y=track.ys[0] + 0.3, theta=0.0, v=8.0)
    lon = LongitudinalPid(PidController(PidGains(1.2, 0.1, 0.0)))
    rec = simulate(SimConfig(initial=init), track, params, Paired(lateral, lon))
    assert rec.termination in ("completed", "end_of_track")
    e = rec.column("e_ct")
    return float(np.sqrt(np.mean(e * e)))


def test_pure_pursuit_completes_racetrack(bench_track, params):
    rms = _closed_loop_rms(PurePursuitLateral(PurePursuitConfig()), bench_track, params)
    assert rms < 0.30


def test_stanley_completes_racetrack(bench_track, params):
    rms = _closed_loop_rms(StanleyLateral(StanleyConfig()), bench_track, params)
    assert rms < 0.30
