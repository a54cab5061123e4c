"""Learning-based lateral control: behavioral cloning, policy-gradient
fine-tuning, and evolutionary parameter search.

Policies are small MLPs mapping a 6-feature track observation to a steering
command through a tanh squash scaled by the steering limit.  Training logs
append (iter, loss_or_reward, seed) rows as CSV so runs can be compared.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import kernels
from .classical import SPEED_PID_GAINS, PidController
from .models import STEER_MAX, VehicleParams, VehicleState
from .nn import (AdamState, Mlp, adam_step, grad_list, load_mlp, loss,
                 loss_grad, save_mlp)
from .track import Track, TrackingErrors

OBS_DIM = 6
# feature scales: cross-track /3 m, heading rad, speed /10 m/s, previews x20
_OBS_SCALE = np.array([1.0 / 3.0, 1.0, 0.1, 20.0, 20.0, 20.0])
_PREVIEWS = (2.0, 5.0, 10.0)


def observation(track: Track, errors: TrackingErrors, v: float) -> np.ndarray:
    """Observation vector from COG tracking errors at speed v."""
    obs = np.empty(OBS_DIM)
    obs[0] = errors.cross_track
    obs[1] = errors.heading
    obs[2] = v
    for i, ahead in enumerate(_PREVIEWS):
        obs[3 + i] = track.curvature_at_s(errors.s + ahead)
    obs *= _OBS_SCALE
    return obs


def build_observation(track: Track, x: float, y: float, theta: float, v: float,
                      params: VehicleParams, hint: int | None = None):
    """Observation vector and the tracking errors it was computed from; a
    hinted query scans its window with numpy."""
    errors = track.tracking_errors((x, y, theta, v), "cog", params, hint, numpy_window=True)
    return observation(track, errors, v), errors


class Policy:
    """Steering policy: MLP over track observations, tanh-squashed output.

    As a steering law (see trackbench.sim.Paired) it reads the harness's COG
    errors, so it needs no vehicle parameters of its own.
    """

    def __init__(self, mlp: Mlp | None = None, steer_max: float = STEER_MAX,
                 hidden=(32, 32), rng: np.random.Generator | None = None):
        if mlp is None:
            sizes = [OBS_DIM, *hidden, 1]
            acts = ["tanh"] * (len(sizes) - 1)
            mlp = Mlp(sizes, acts, rng)
        if mlp.sizes[0] != OBS_DIM or mlp.sizes[-1] != 1:
            raise ValueError("policy network must map OBS_DIM features to 1 output")
        if mlp.activations[-1] != "tanh":
            raise ValueError("policy network must end in tanh")
        if not steer_max > 0.0:
            raise ValueError(f"steer_max must be > 0, got {steer_max}")
        self.mlp = mlp
        self.steer_max = steer_max

    def reset(self) -> None:
        pass

    def mean_steer(self, obs: np.ndarray) -> float:
        out, _ = self.mlp.forward(obs)
        return float(out[0, 0]) * self.steer_max

    def steer(self, ctx) -> float:
        return self.mean_steer(observation(ctx.track, ctx.errors("cog"), ctx.state[3]))

    def save(self, path) -> None:
        save_mlp(self.mlp, path)

    @classmethod
    def load(cls, path, steer_max: float = STEER_MAX) -> "Policy":
        return cls(mlp=load_mlp(path), steer_max=steer_max)


def append_training_log(path, rows, seed: int) -> None:
    """Append (iter, loss_or_reward, seed) rows; write header on first touch."""
    new = not os.path.exists(path)
    with open(path, "a", newline="") as fh:
        if new:
            fh.write("iter,loss_or_reward,seed\n")
        for it, value in rows:
            fh.write(f"{int(it)},{format(float(value), '.12g')},{int(seed)}\n")


# ------------------------------------------------------- behavioral cloning


# lateral/heading start perturbations: the expert demonstrates recovery to
# the centerline, which the clone needs once its own errors accumulate
_EXPERT_STARTS = ((0.0, 0.0), (-1.0, 0.0), (1.0, 0.0), (-0.5, 0.15), (0.5, -0.15))


def collect_expert_dataset(track: Track, params: VehicleParams, *,
                           dt: float = 0.02, max_steps: int = 40000):
    """Closed-loop expert runs (front-axle geometric steering + speed PID)
    from each of _EXPERT_STARTS; returns (observations, steer_labels,
    RunRecord of the unperturbed first run)."""
    from .geometric import StanleyConfig
    from .sim import LongitudinalPid, Paired, SimConfig, StanleyLateral, simulate

    tangent0 = float(track.seg_tangent[0])
    all_obs, all_labels = [], []
    clean_record = None
    for offset, dheading in _EXPERT_STARTS:
        x0 = float(track.xs[0]) - offset * math.sin(tangent0)
        y0 = float(track.ys[0]) + offset * math.cos(tangent0)
        init = VehicleState(x0, y0, kernels.wrap_angle(tangent0 + dheading),
                            float(track.v_ref[0]))
        controller = Paired(StanleyLateral(StanleyConfig(delta_max=params.steer_max)),
                            LongitudinalPid(PidController(SPEED_PID_GAINS)))
        cfg = SimConfig(dt=dt, max_steps=max_steps, initial=init)
        record = simulate(cfg, track, params, controller)
        if record.termination not in ("completed", "end_of_track"):
            raise RuntimeError(
                f"expert run from start ({offset:g}, {dheading:g}) ended "
                f"{record.termination}; cannot collect demonstrations")
        if clean_record is None:  # the first start is the unperturbed one
            clean_record = record
        nrows = record.rows.shape[0]
        obs = np.empty((nrows, OBS_DIM))
        hint = None
        for i in range(nrows):
            _, x, y, theta, v = record.rows[i, :5]
            obs[i], err = build_observation(track, x, y, theta, v, params, hint)
            hint = err.nearest_index
        all_obs.append(obs)
        all_labels.append(record.rows[:, 6].copy())
    return np.concatenate(all_obs), np.concatenate(all_labels), clean_record


def balance_dataset(obs: np.ndarray, labels: np.ndarray, rng: np.random.Generator, *,
                    zero_thresh: float = 0.02, zero_cap: float = 0.5):
    """Downsample near-zero-steer rows so they are at most `zero_cap` of the set."""
    near = np.abs(labels) < zero_thresh
    n_zero = int(near.sum())
    n_other = labels.size - n_zero
    if n_other == 0 or n_zero <= zero_cap * labels.size:
        return obs, labels
    keep_zero = int(zero_cap / (1.0 - zero_cap) * n_other)
    zero_idx = np.flatnonzero(near)
    keep = rng.choice(zero_idx, size=keep_zero, replace=False)
    sel = np.sort(np.concatenate([np.flatnonzero(~near), keep]))
    return obs[sel], labels[sel]


def clone_behavior(obs: np.ndarray, labels: np.ndarray, steer_max: float = STEER_MAX,
                   log_path=None, *, hidden=(32, 32), epochs: int = 60, batch: int = 64,
                   alpha: float = 1e-3, seed: int = 0):
    """Fit a Policy to expert steering by minibatch MSE regression.

    Labels are normalized by the steering limit so the tanh output range
    matches the target range.  Returns (policy, per-epoch loss history).
    """
    rng = np.random.default_rng(seed)
    policy = Policy(steer_max=steer_max, hidden=hidden, rng=rng)
    targets = (labels / steer_max).reshape(-1, 1)
    adam = AdamState(policy.mlp.parameters(), alpha=alpha)
    history = []
    n = obs.shape[0]
    for epoch in range(epochs):
        order = rng.permutation(n)
        for lo in range(0, n, batch):
            idx = order[lo:lo + batch]
            yhat, cache = policy.mlp.forward(obs[idx])
            grads = policy.mlp.backward(cache, loss_grad(yhat, targets[idx], "mse"))
            adam_step(adam, policy.mlp.parameters(), grad_list(grads))
        yhat, _ = policy.mlp.forward(obs)
        history.append((epoch, loss(yhat, targets, "mse")))
    if log_path is not None:
        append_training_log(log_path, history, seed)
    return policy, history


# ------------------------------------------------------------- PPO training


@dataclass(frozen=True)
class EnvConfig:
    v_ref: float = 6.0
    dt: float = 0.05
    max_steps: int = 400
    off_track: float = 3.0
    cross_weight: float = 0.1
    crash_penalty: float = 20.0
    start_offset: float = 1.0   # max lateral spawn offset, m
    start_heading: float = 0.2  # max heading spawn error, rad

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ValueError("dt must be > 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not self.off_track > 0.0:
            raise ValueError("off_track must be > 0")
        for name in ("v_ref", "start_offset", "start_heading", "cross_weight", "crash_penalty"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be >= 0")


class LaneKeepEnv:
    """Lane-keeping episode: fixed reference speed held by an internal PID,
    the agent steers.  Reward is path progress minus weighted squared
    cross-track error; leaving the lane ends the episode with a penalty."""

    def __init__(self, track: Track, params: VehicleParams, cfg: EnvConfig = EnvConfig()):
        self.track = track
        self.params = params
        self.cfg = cfg
        self._pid = PidController(SPEED_PID_GAINS)
        self._state = (0.0, 0.0, 0.0, cfg.v_ref)
        self._hint: int | None = None
        self._steps = 0
        self._s_prev = 0.0

    def reset(self, rng: np.random.Generator):
        cfg = self.cfg
        track = self.track
        s0 = float(rng.uniform(0.0, track.length))
        px, py = track.point_at_s(s0)
        tangent = track.tangent_at_s(s0)
        off = float(rng.uniform(-cfg.start_offset, cfg.start_offset))
        dth = float(rng.uniform(-cfg.start_heading, cfg.start_heading))
        x = px - off * math.sin(tangent)
        y = py + off * math.cos(tangent)
        self._state = (x, y, kernels.wrap_angle(tangent + dth), cfg.v_ref)
        self._hint = None
        self._steps = 0
        self._pid.reset()
        obs, err = build_observation(track, *self._state, self.params, None)
        self._hint = err.nearest_index
        self._s_prev = err.s
        return obs

    def step(self, steer: float):
        cfg = self.cfg
        params = self.params
        x, y, theta, v = self._state
        accel = self._pid.step(cfg.v_ref - v, cfg.dt, scheduling_value=v)
        accel = min(max(accel, -params.decel_max), params.accel_max)
        steer = min(max(steer, -params.steer_max), params.steer_max)
        self._state = kernels.kin_step(
            x, y, theta, v, accel, steer, cfg.dt, params.wheelbase, params.dist_rear
        )
        self._steps += 1
        obs, err = build_observation(self.track, *self._state, params, self._hint)
        self._hint = err.nearest_index
        ds = err.s - self._s_prev
        if self.track.closed:
            half = 0.5 * self.track.length
            ds = (ds + half) % self.track.length - half
        self._s_prev = err.s
        reward = ds - cfg.cross_weight * err.cross_track**2
        done = False
        if abs(err.cross_track) > cfg.off_track:
            reward -= cfg.crash_penalty
            done = True
        if self._steps >= cfg.max_steps:
            done = True
        return obs, reward, done, err


def ppo_surrogate(ratio, advantage, eps_clip: float = 0.2):
    """Clipped policy-gradient objective (elementwise min form)."""
    ratio = np.asarray(ratio, dtype=float)
    advantage = np.asarray(advantage, dtype=float)
    clipped = np.clip(ratio, 1.0 - eps_clip, 1.0 + eps_clip)
    return np.minimum(ratio * advantage, clipped * advantage)


def _collect_episode(env: LaneKeepEnv, policy: Policy, sigma: float,
                     rng: np.random.Generator):
    obs_list, act_list, rew_list = [], [], []
    obs = env.reset(rng)
    done = False
    while not done:
        mu = policy.mean_steer(obs)
        action = mu + sigma * float(rng.standard_normal())
        nobs, reward, done, _ = env.step(action)
        obs_list.append(obs)
        act_list.append(action)
        rew_list.append(reward)
        obs = nobs
    return np.array(obs_list), np.array(act_list), np.array(rew_list)


def evaluate_policy(env: LaneKeepEnv, policy: Policy, episodes: int = 20,
                    seed: int = 12345):
    """Mean episode reward and mean |cross-track| over noiseless rollouts."""
    rng = np.random.default_rng(seed)
    total_r, total_e, total_n = 0.0, 0.0, 0
    for _ in range(episodes):
        obs = env.reset(rng)
        done = False
        ep_r = 0.0
        while not done:
            obs, reward, done, err = env.step(policy.mean_steer(obs))
            ep_r += reward
            total_e += abs(err.cross_track)
            total_n += 1
        total_r += ep_r
    return total_r / episodes, total_e / max(total_n, 1)


def train_ppo(env: LaneKeepEnv, policy: Policy, log_path=None, *, iterations: int = 600,
              episodes_per_iter: int = 8, epochs: int = 4, eps_clip: float = 0.2,
              alpha: float = 3e-4, sigma: float | None = None, seed: int = 0):
    """Clipped-surrogate policy gradient on a Gaussian steering policy.

    Advantages are undiscounted reward-to-go minus the batch mean; the
    surrogate gradient is zeroed wherever clipping makes the objective
    locally flat.  The exploration noise sigma defaults to a tenth of the
    policy's steering limit.  Returns (best policy found, per-iteration mean
    rewards).
    """
    rng = np.random.default_rng(seed)
    if sigma is None:
        sigma = 0.1 * policy.steer_max
    adam = AdamState(policy.mlp.parameters(), alpha=alpha)
    history = []
    best_reward = -math.inf
    best_flat = policy.mlp.get_flat()

    for it in range(iterations):
        all_obs, all_act, all_adv = [], [], []
        ep_rewards = []
        for _ in range(episodes_per_iter):
            obs, act, rew = _collect_episode(env, policy, sigma, rng)
            rtg = np.cumsum(rew[::-1])[::-1]  # undiscounted reward-to-go
            all_obs.append(obs)
            all_act.append(act)
            all_adv.append(rtg)
            ep_rewards.append(float(rew.sum()))
        obs = np.concatenate(all_obs)
        act = np.concatenate(all_act)
        adv = np.concatenate(all_adv)
        adv = adv - adv.mean()

        mu_old = policy.steer_max * policy.mlp.forward(obs)[0][:, 0]
        inv_two_var = 1.0 / (2.0 * sigma * sigma)
        logp_old = -((act - mu_old) ** 2) * inv_two_var

        n = obs.shape[0]
        for _ in range(epochs):
            yhat, cache = policy.mlp.forward(obs)
            mu = policy.steer_max * yhat[:, 0]
            logp = -((act - mu) ** 2) * inv_two_var
            ratio = np.exp(logp - logp_old)
            # gradient is live where the unclipped branch is active
            active = ppo_surrogate(ratio, adv, eps_clip) == ratio * adv
            dmu = np.where(active, adv * ratio * (act - mu) / (sigma * sigma), 0.0) / n
            # ascend the surrogate: feed the negated gradient to the minimizer
            dy = (-dmu * policy.steer_max).reshape(-1, 1)
            grads = policy.mlp.backward(cache, dy)
            adam_step(adam, policy.mlp.parameters(), grad_list(grads))

        mean_reward = float(np.mean(ep_rewards))
        history.append((it, mean_reward))
        if mean_reward > best_reward:
            best_reward = mean_reward
            best_flat = policy.mlp.get_flat()

    policy.mlp.set_flat(best_flat)
    if log_path is not None:
        append_training_log(log_path, history, seed)
    return policy, history


# ------------------------------------------------------ evolutionary search


# share of each generation that survives unchanged as the next one's parents
_ELITE_FRAC = 0.25


def evolve_params(eval_fn, x0, *, population: int = 16, generations: int = 40,
                  sigma: float = 0.3, seed: int = 0):
    """Elitist Gaussian-mutation search maximizing eval_fn.

    Elites survive unchanged, so the best-so-far fitness is non-decreasing;
    with sigma = 0 every generation repeats the first.  Returns
    (best_x, best_fitness, history rows (gen, best_fitness)).
    """
    x0 = np.asarray(x0, dtype=float)
    if population < 2:
        raise ValueError("population must be >= 2")
    rng = np.random.default_rng(seed)
    n_elite = max(1, math.ceil(_ELITE_FRAC * population))

    pop = [x0.copy()]
    for _ in range(population - 1):
        pop.append(x0 + sigma * rng.standard_normal(x0.size))

    best_x = x0.copy()
    best_f = -math.inf
    history = []
    for gen in range(generations):
        fitness = np.array([eval_fn(x) for x in pop])
        order = np.argsort(-fitness, kind="stable")
        if fitness[order[0]] > best_f:
            best_f = float(fitness[order[0]])
            best_x = pop[order[0]].copy()
        history.append((gen, best_f))
        elites = [pop[i].copy() for i in order[:n_elite]]
        nxt = [e.copy() for e in elites]
        while len(nxt) < population:
            parent = elites[len(nxt) % n_elite]
            nxt.append(parent + sigma * rng.standard_normal(x0.size))
        pop = nxt[:population]
    return best_x, best_f, history


def evolve_policy(env: LaneKeepEnv, policy: Policy, log_path=None, *, population: int = 12,
                  generations: int = 15, sigma: float = 0.05, seed: int = 0,
                  eval_episodes: int = 2):
    """Evolve the policy weight vector against deterministic episode reward."""
    scratch = Policy(mlp=policy.mlp.clone(), steer_max=policy.steer_max)

    def eval_fn(flat):
        scratch.mlp.set_flat(flat)
        reward, _ = evaluate_policy(env, scratch, episodes=eval_episodes, seed=seed + 999)
        return reward

    best_flat, best_f, history = evolve_params(
        eval_fn, policy.mlp.get_flat(), population=population,
        generations=generations, sigma=sigma, seed=seed)
    policy.mlp.set_flat(best_flat)
    if log_path is not None:
        append_training_log(log_path, history, seed)
    return policy, best_f, history
