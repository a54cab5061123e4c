"""Command-line interface.

Subcommands: simulate, benchmark, train-bc, train-ppo, evolve, mpc-design.
Exit codes: 0 success, 1 configuration/usage error, 2 simulate run diverged.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import ConfigError, _pick, _take, build_section, build_track, build_vehicle, load_json
from .mpc import design_params
from .sim import SimConfig
from .track import Track


def _metrics_lines(record) -> list[str]:
    m = record.metrics
    return [
        f"termination: {record.termination}",
        f"completion: {m.completion:.4f}",
        f"rms_cross_track: {m.rms_cross_track:.6g}",
        f"max_cross_track: {m.max_cross_track:.6g}",
        f"rms_heading: {m.rms_heading:.6g}",
        f"rms_speed_err: {m.rms_speed_err:.6g}",
        f"mean_abs_steer_rate: {m.mean_abs_steer_rate:.6g}",
        f"lap_time: {m.lap_time:.6g}",
    ]


def _load_run_track(cfg: dict, track_path) -> Track:
    if track_path is not None:
        try:
            return Track.from_csv(track_path)
        except (ValueError, OSError) as exc:
            raise ConfigError(f"bad track file {track_path}: {exc}") from exc
    if "track" in cfg:
        return build_track(cfg["track"])
    raise ConfigError("no track: pass --track <csv> or a 'track' section in the config")


def cmd_simulate(args) -> int:
    from .config import build_run
    from .sim import simulate

    cfg = load_json(args.config)
    track = _load_run_track(cfg, args.track)
    sim_cfg, params, controller = build_run(cfg)
    record = simulate(sim_cfg, track, params, controller)
    os.makedirs(args.out, exist_ok=True)
    record.to_csv(os.path.join(args.out, "log.csv"))
    for line in _metrics_lines(record):
        print(line)
    return 2 if record.termination == "diverged" else 0


def cmd_benchmark(args) -> int:
    from .benchmark import load_suite, run_suite

    suite = load_suite(args.suite)
    rows = run_suite(suite, args.out)
    errors = [r for r in rows if r["termination"] == "error"]
    print(f"ran {len(rows)} cells, {len(errors)} errored; "
          f"summary at {os.path.join(args.out, 'summary.csv')}")
    for row in errors:
        print(f"  error cell {row['controller']}/{row['track']}/{row['speed']:g}: "
              f"{row.get('error', '')}", file=sys.stderr)
    return 0


def _track_and_vehicle(cfg: dict):
    if "track" not in cfg:
        raise ConfigError("config needs a 'track' section")
    return build_track(cfg["track"]), build_vehicle(cfg.get("vehicle"))


def _policy_out_paths(out: str) -> tuple[str, str]:
    # --out names the policy file; the training log lands next to it
    out = os.path.abspath(out)
    parent = os.path.dirname(out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    base, _ = os.path.splitext(out)
    return out, base + "_log.csv"


# The keys each trainer passes on to a callee, whose signature holds their
# defaults.  'seed' also seeds the trainer's other random draws.
_EXPERT_KEYS = ("dt", "max_steps")  # collect_expert_dataset
_BALANCE_KEYS = ("zero_thresh", "zero_cap")  # balance_dataset
_CLONE_KEYS = ("hidden", "epochs", "batch", "alpha", "seed")  # clone_behavior
_PPO_KEYS = ("iterations", "episodes_per_iter", "epochs", "eps_clip", "alpha", "sigma",
             "seed")  # train_ppo
_EVOLVE_KEYS = ("population", "generations", "sigma", "eval_episodes", "seed")  # evolve_policy


def _rng(cfg: dict) -> np.random.Generator:
    return np.random.default_rng(cfg.get("seed", 0))


def _env_setup(args, keys: tuple, where: str):
    """Config, lane-keeping env, starting policy and output paths of
    train-ppo and evolve."""
    from .learning import EnvConfig, LaneKeepEnv, Policy

    cfg = load_json(args.config)
    _take(cfg, ("track", "vehicle", "env", "init_policy", "hidden", *keys), where)
    if cfg.get("init_policy") is not None and "hidden" in cfg:
        raise ConfigError(f"{where} gives both 'init_policy' and 'hidden'; "
                          "the loaded network sets its own layer sizes")
    track, params = _track_and_vehicle(cfg)
    env = LaneKeepEnv(track, params, build_section(EnvConfig, cfg.get("env"), "env"))
    policy_path, log_path = _policy_out_paths(args.out)
    path = cfg.get("init_policy")
    if path is None:
        policy = Policy(steer_max=params.steer_max, rng=_rng(cfg), **_pick(cfg, ("hidden",)))
        return cfg, env, policy, policy_path, log_path
    try:
        return cfg, env, Policy.load(path, steer_max=params.steer_max), policy_path, log_path
    except (ValueError, OSError) as exc:
        raise ConfigError(f"bad init_policy {path}: {exc}") from exc


def cmd_train_bc(args) -> int:
    from .learning import balance_dataset, clone_behavior, collect_expert_dataset

    cfg = load_json(args.config)
    _take(cfg, ("track", "vehicle", *_EXPERT_KEYS, *_BALANCE_KEYS, *_CLONE_KEYS),
          "train-bc config")
    # collect_expert_dataset passes these to SimConfig; check them before any run
    build_section(SimConfig, _pick(cfg, _EXPERT_KEYS), "train-bc config")
    track, params = _track_and_vehicle(cfg)
    policy_path, log_path = _policy_out_paths(args.out)

    obs, labels, expert = collect_expert_dataset(track, params, **_pick(cfg, _EXPERT_KEYS))
    obs, labels = balance_dataset(obs, labels, rng=_rng(cfg), **_pick(cfg, _BALANCE_KEYS))
    policy, history = clone_behavior(obs, labels, steer_max=params.steer_max, log_path=log_path,
                                     **_pick(cfg, _CLONE_KEYS))
    policy.save(policy_path)
    print(f"expert rms_cross_track: {expert.metrics.rms_cross_track:.6g}")
    print(f"dataset size after balancing: {labels.size}")
    print(f"final mse: {history[-1][1]:.6g}")
    print(f"policy saved to {policy_path}")
    return 0


def cmd_train_ppo(args) -> int:
    from .learning import evaluate_policy, train_ppo

    cfg, env, policy, policy_path, log_path = _env_setup(args, _PPO_KEYS, "train-ppo config")
    r0, e0 = evaluate_policy(env, policy)
    policy, history = train_ppo(env, policy, log_path=log_path, **_pick(cfg, _PPO_KEYS))
    r1, e1 = evaluate_policy(env, policy)
    policy.save(policy_path)
    print(f"mean reward before: {r0:.6g} after: {r1:.6g}")
    print(f"mean |cross_track| before: {e0:.6g} after: {e1:.6g}")
    print(f"policy saved to {policy_path}")
    return 0


def cmd_evolve(args) -> int:
    from .learning import evaluate_policy, evolve_policy

    cfg, env, policy, policy_path, log_path = _env_setup(args, _EVOLVE_KEYS, "evolve config")
    policy, best_f, history = evolve_policy(env, policy, log_path=log_path,
                                            **_pick(cfg, _EVOLVE_KEYS))
    reward, err = evaluate_policy(env, policy)
    policy.save(policy_path)
    print(f"best training fitness: {best_f:.6g}")
    print(f"eval mean reward: {reward:.6g} mean |cross_track|: {err:.6g}")
    print(f"policy saved to {policy_path}")
    return 0


def cmd_mpc_design(args) -> int:
    if args.rise <= 0.0 or args.settle <= 0.0:
        raise ConfigError("--rise and --settle must be positive")
    ranges = design_params(args.rise, args.settle)
    for key in ("ts", "p", "m"):
        lo, hi = ranges[key]
        print(f"{key}: [{format(lo, '.6g')}, {format(hi, '.6g')}]")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="trackbench",
        description="Trajectory-tracking workbench: simulate, benchmark, train.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one closed-loop simulation")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--track", help="track CSV (x,y or x,y,v_ref); overrides config track")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("benchmark", help="run a benchmark suite")
    p.add_argument("--suite", required=True,
                   help="suite JSON path, or 'reference' for the pinned suite")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("train-bc", help="behavioral cloning from the built-in expert")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True,
                   help="policy file to write; log goes to <stem>_log.csv")
    p.set_defaults(func=cmd_train_bc)

    p = sub.add_parser("train-ppo", help="policy-gradient lane keeping")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True,
                   help="policy file to write; log goes to <stem>_log.csv")
    p.set_defaults(func=cmd_train_ppo)

    p = sub.add_parser("evolve", help="evolutionary policy search")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True,
                   help="policy file to write; log goes to <stem>_log.csv")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("mpc-design", help="horizon ranges from step-response times")
    p.add_argument("--rise", type=float, required=True, help="rise time, s")
    p.add_argument("--settle", type=float, required=True, help="settling time, s")
    p.set_defaults(func=cmd_mpc_design)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
