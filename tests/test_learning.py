import csv
import math

import numpy as np
import pytest

from trackbench.kernels import wrap_angle
from trackbench.learning import (
    OBS_DIM,
    EnvConfig,
    LaneKeepEnv,
    Policy,
    append_training_log,
    balance_dataset,
    build_observation,
    clone_behavior,
    collect_expert_dataset,
    evaluate_policy,
    evolve_params,
    evolve_policy,
    ppo_surrogate,
    train_ppo,
)
from trackbench.models import VehicleParams
from trackbench.nn import Mlp
from trackbench.track import circle_track, racetrack, straight_track


def test_observation_on_path_straight(params):
    track = straight_track(100.0, spacing=1.0, v_ref=8.0)
    obs, errors = build_observation(track, 10.0, 0.0, 0.0, 8.0, params)
    assert obs.shape == (OBS_DIM,)
    assert obs[0] == pytest.approx(0.0, abs=1e-12)   # cross-track
    assert obs[1] == pytest.approx(0.0, abs=1e-12)   # heading
    assert obs[2] == pytest.approx(0.8, rel=1e-12)   # speed / 10
    assert np.allclose(obs[3:], 0.0, atol=1e-9)      # straight previews
    assert errors.cross_track == pytest.approx(0.0, abs=1e-12)


def test_observation_scales_cross_track():
    track = straight_track(100.0, spacing=1.0, v_ref=8.0)
    # path to the left of the vehicle reads positive
    obs, _ = build_observation(track, 10.0, -1.5, 0.0, 8.0, VehicleParams())
    assert obs[0] == pytest.approx(0.5, rel=1e-9)   # 1.5 m / 3 m
    obs, _ = build_observation(track, 10.0, 1.5, 0.0, 8.0, VehicleParams())
    assert obs[0] == pytest.approx(-0.5, rel=1e-9)


def test_observation_curvature_previews(params):
    track = circle_track(radius=30.0, v_ref=8.0)
    obs, errors = build_observation(track, track.xs[0], track.ys[0], float(track.seg_tangent[0]), 8.0, params)
    # counterclockwise circle: previews near +1/R, scaled by 20
    assert np.allclose(obs[3:], 20.0 / 30.0, rtol=0.1)


def test_policy_output_bounded(rng):
    policy = Policy(hidden=(16,), rng=rng)
    for _ in range(300):
        obs = rng.normal(scale=50.0, size=OBS_DIM)
        assert abs(policy.mean_steer(obs)) <= policy.steer_max


def test_policy_network_shape_validation(rng):
    with pytest.raises(ValueError):
        Policy(mlp=Mlp([5, 8, 1], ["tanh", "tanh"], rng))     # wrong input width
    with pytest.raises(ValueError):
        Policy(mlp=Mlp([OBS_DIM, 8, 2], ["tanh", "tanh"], rng))  # wrong output width
    with pytest.raises(ValueError):
        Policy(mlp=Mlp([OBS_DIM, 8, 1], ["tanh", "linear"], rng))  # unbounded head


def test_policy_sigma_default_tracks_steer_max(params):
    # train_ppo's exploration noise defaults to a tenth of the steering limit
    env = LaneKeepEnv(circle_track(radius=20.0, v_ref=6.0), params, EnvConfig(max_steps=30))

    def trained(sigma):
        policy = Policy(steer_max=0.5, hidden=(8,), rng=np.random.default_rng(3))
        best, history = train_ppo(env, policy, iterations=2, episodes_per_iter=2, seed=7,
                                  sigma=sigma)
        return best.mlp.get_flat().tobytes(), history

    default = trained(None)
    assert default == trained(0.05)
    assert default != trained(0.2)


def test_policy_save_load_round_trip(tmp_path, rng):
    pol = Policy(hidden=(8, 8), rng=rng)
    path = tmp_path / "policy.bin"
    pol.save(path)
    back = Policy.load(path, steer_max=pol.steer_max)
    obs = rng.normal(size=OBS_DIM)
    assert back.mean_steer(obs) == pol.mean_steer(obs)


def test_balance_dataset_caps_zero_fraction(rng):
    n = 1000
    labels = np.zeros(n)
    labels[:100] = 0.3  # 90 percent near-zero
    obs = rng.normal(size=(n, OBS_DIM))
    ob, lb = balance_dataset(obs, labels, zero_thresh=0.02, zero_cap=0.5, rng=rng)
    near = np.abs(lb) < 0.02
    assert near.sum() <= 0.5 * lb.size + 1
    assert (np.abs(lb) >= 0.02).sum() == 100  # every informative row kept


def test_balance_dataset_identity_when_already_balanced(rng):
    labels = np.full(100, 0.3)
    obs = rng.normal(size=(100, OBS_DIM))
    ob, lb = balance_dataset(obs, labels, rng=rng)
    assert ob is obs and lb is labels


def _toy_dataset(rng, n=256):
    obs = rng.normal(size=(n, OBS_DIM))
    labels = 0.3 * np.tanh(obs[:, 0] + 0.5 * obs[:, 1])
    return obs, labels


def test_clone_behavior_loss_decreases(rng):
    obs, labels = _toy_dataset(rng)
    policy, history = clone_behavior(obs, labels, hidden=(16,), epochs=10, seed=0)
    assert len(history) == 10
    assert history[-1][1] < history[0][1]
    assert all(h[0] == i for i, h in enumerate(history))


def test_clone_behavior_reproducible(rng):
    obs, labels = _toy_dataset(rng)
    flats = []
    for _ in range(2):
        policy, history = clone_behavior(obs, labels, hidden=(8,), epochs=3, seed=11)
        flats.append((policy.mlp.get_flat(), tuple(history)))
    assert np.array_equal(flats[0][0], flats[1][0])
    assert flats[0][1] == flats[1][1]


def test_clone_behavior_writes_log(tmp_path, rng):
    obs, labels = _toy_dataset(rng, n=64)
    log = tmp_path / "bc_log.csv"
    clone_behavior(obs, labels, hidden=(8,), epochs=2, seed=3, log_path=log)
    with open(log, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "loss_or_reward", "seed"]
    assert len(rows) == 3
    assert [r[0] for r in rows[1:]] == ["0", "1"]
    assert all(r[2] == "3" for r in rows[1:])


def test_collect_expert_dataset_shapes(params):
    track = straight_track(60.0, spacing=1.0, v_ref=8.0)
    obs, labels, record = collect_expert_dataset(track, params)
    assert obs.shape == (labels.size, OBS_DIM)
    # the unperturbed run comes first, then the perturbed ones
    nrows = record.rows.shape[0]
    assert labels.size > nrows
    assert np.array_equal(labels[:nrows], record.rows[:, 6])
    assert record.rows[0, 2] == track.ys[0] and record.rows[0, 3] == track.seg_tangent[0]
    assert record.termination in ("completed", "end_of_track")


def test_collect_expert_dataset_rejects_failed_expert(bench_track):
    weak = VehicleParams(steer_max=0.005)  # cannot corner
    with pytest.raises(RuntimeError):
        collect_expert_dataset(bench_track, weak)


def test_ppo_surrogate_hand_values():
    assert ppo_surrogate(1.0, 3.0) == pytest.approx(3.0)
    assert ppo_surrogate(2.0, 1.0, 0.2) == pytest.approx(1.2)
    assert ppo_surrogate(0.5, -2.0, 0.2) == pytest.approx(-1.6)


def test_ppo_surrogate_is_pessimistic_bound(rng):
    ratio = rng.uniform(0.0, 3.0, size=1000)
    adv = rng.normal(size=1000)
    out = ppo_surrogate(ratio, adv, 0.2)
    clipped = np.clip(ratio, 0.8, 1.2)
    assert np.all(out <= ratio * adv + 1e-15)
    assert np.all(out <= clipped * adv + 1e-15)
    assert np.allclose(out, np.minimum(ratio * adv, clipped * adv))


def test_env_reward_is_progress_minus_weighted_error(params):
    track = straight_track(100.0, spacing=1.0, v_ref=8.0)
    cfg = EnvConfig(v_ref=6.0, dt=0.05, start_offset=0.0, start_heading=0.0)
    env = LaneKeepEnv(track, params, cfg)
    obs = env.reset(np.random.default_rng(0))
    assert obs.shape == (OBS_DIM,)
    _, reward, done, err = env.step(0.0)
    assert not done
    assert err.cross_track == pytest.approx(0.0, abs=1e-9)
    assert reward == pytest.approx(cfg.v_ref * cfg.dt, abs=1e-6)


def test_env_off_track_penalty_ends_episode(params):
    track = straight_track(100.0, spacing=1.0, v_ref=8.0)
    env = LaneKeepEnv(track, params, EnvConfig(start_offset=0.0, start_heading=0.0))
    env.reset(np.random.default_rng(1))
    done = False
    steps = 0
    while not done:
        _, reward, done, err = env.step(params.steer_max)
        steps += 1
        assert steps < 200
    assert abs(err.cross_track) > env.cfg.off_track
    assert reward < -10.0


def test_env_time_limit(params):
    track = circle_track(radius=30.0, v_ref=6.0)
    cfg = EnvConfig(max_steps=50, start_offset=0.0, start_heading=0.0)
    env = LaneKeepEnv(track, params, cfg)
    env.reset(np.random.default_rng(2))
    policy = lambda obs: 0.08  # roughly circle-following steer
    done = False
    steps = 0
    obs = None
    while not done:
        obs, _, done, err = env.step(0.083)
        steps += 1
    assert steps == 50
    assert abs(err.cross_track) < cfg.off_track


def test_env_reset_is_seed_deterministic(params, bench_track):
    env = LaneKeepEnv(bench_track, params)
    a = env.reset(np.random.default_rng(5))
    b = env.reset(np.random.default_rng(5))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("track", [straight_track(200.0), circle_track(30.0),
                                   racetrack(100.0, 20.0)],
                         ids=["straight", "circle", "racetrack"])
def test_env_resets_keep_the_inline_start(params, track):
    # the start as LaneKeepEnv.reset wrote it inline: draws s0, offset,
    # heading offset, in that order, from the same generator
    cfg = EnvConfig()
    env = LaneKeepEnv(track, params, cfg)
    rng, oracle_rng = np.random.default_rng(8), np.random.default_rng(8)
    for _ in range(50):
        obs = env.reset(rng)
        s0 = float(oracle_rng.uniform(0.0, track.length))
        px, py = track.point_at_s(s0)
        tangent = track.tangent_at_s(s0)
        off = float(oracle_rng.uniform(-cfg.start_offset, cfg.start_offset))
        dth = float(oracle_rng.uniform(-cfg.start_heading, cfg.start_heading))
        want = (px - off * math.sin(tangent), py + off * math.cos(tangent),
                wrap_angle(tangent + dth), cfg.v_ref)
        assert [float(v).hex() for v in env._state] == [v.hex() for v in want]
        assert obs.tobytes() == build_observation(track, *want, params)[0].tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_evaluate_policy_deterministic(params):
    track = circle_track(radius=30.0, v_ref=6.0)
    env = LaneKeepEnv(track, params, EnvConfig(max_steps=40))
    policy = Policy(hidden=(8,), rng=np.random.default_rng(4))
    a = evaluate_policy(env, policy, episodes=3, seed=9)
    b = evaluate_policy(env, policy, episodes=3, seed=9)
    assert a == b


def test_train_ppo_reproducible(params):
    track = circle_track(radius=20.0, v_ref=6.0)
    env = LaneKeepEnv(track, params, EnvConfig(max_steps=60))
    outs = []
    for _ in range(2):
        policy = Policy(hidden=(8,), rng=np.random.default_rng(3))
        trained, history = train_ppo(env, policy, iterations=2, episodes_per_iter=2, seed=7)
        outs.append((trained.mlp.get_flat().copy(), tuple(history)))
    assert np.array_equal(outs[0][0], outs[1][0])
    assert outs[0][1] == outs[1][1]


def test_evolve_params_toy_quadratic():
    opt = np.array([1.0, -0.5])

    def fitness(x):
        d = x - opt
        return -float(d @ d)

    best_x, best_f, history = evolve_params(fitness, np.zeros(2), population=16,
                                            generations=50, sigma=0.3, seed=0)
    assert np.linalg.norm(best_x - opt) < 0.1
    assert best_f > -0.01
    bests = [h[1] for h in history]
    assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))
    assert len(history) == 50


def test_evolve_params_zero_sigma_degenerates():
    calls = []

    def fitness(x):
        calls.append(x.copy())
        return -float(x @ x)

    best_x, best_f, history = evolve_params(fitness, np.ones(3), population=2,
                                            generations=5, sigma=0.0, seed=1)
    assert np.array_equal(best_x, np.ones(3))
    assert all(h[1] == history[0][1] for h in history)
    assert all(np.array_equal(c, np.ones(3)) for c in calls)


def test_evolve_params_validation():
    with pytest.raises(ValueError):
        evolve_params(lambda x: 0.0, np.zeros(2), population=1)


def test_evolve_policy_never_worse_than_start(params):
    track = circle_track(radius=20.0, v_ref=6.0)
    env = LaneKeepEnv(track, params, EnvConfig(max_steps=40))
    policy = Policy(hidden=(8,), rng=np.random.default_rng(6))
    start_flat = policy.mlp.get_flat().copy()
    scratch = Policy(mlp=policy.mlp.clone(), steer_max=policy.steer_max)
    scratch.mlp.set_flat(start_flat)
    baseline, _ = evaluate_policy(env, scratch, episodes=2, seed=6 + 999)
    trained, best_f, history = evolve_policy(env, policy, population=4,
                                             generations=3, sigma=0.05, seed=6,
                                             eval_episodes=2)
    assert best_f >= baseline - 1e-12
    bests = [h[1] for h in history]
    assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))


def test_append_training_log_appends_without_second_header(tmp_path):
    path = tmp_path / "log.csv"
    append_training_log(path, [(0, 1.5)], seed=4)
    append_training_log(path, [(1, 0.75)], seed=4)
    text = path.read_text()
    assert text.count("iter,loss_or_reward,seed") == 1
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == ["0", "1.5", "4"]
    assert rows[2] == ["1", "0.75", "4"]


@pytest.mark.parametrize("field,value", [
    ("dt", 0.0), ("max_steps", 0), ("off_track", 0.0), ("v_ref", -1.0),
    ("start_offset", -0.1), ("start_heading", -0.1), ("cross_weight", -0.1),
    ("crash_penalty", -1.0)])
def test_env_config_rejects_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        EnvConfig(**{field: value})


def test_policy_rejects_non_positive_steer_max():
    for steer_max in (0.0, -0.2):
        with pytest.raises(ValueError, match="steer_max"):
            Policy(steer_max=steer_max, hidden=(4,), rng=np.random.default_rng(0))
