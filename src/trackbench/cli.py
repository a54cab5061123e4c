"""Command-line interface.

Subcommands: simulate, benchmark, train-bc, train-ppo, evolve, mpc-design.
Exit codes: 0 success, 1 configuration/usage error, 2 simulate run diverged.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .config import ConfigError, build_track, build_vehicle, load_json
from .mpc import design_params
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
    sim_cfg, params, lateral, longitudinal = build_run(cfg, track)
    record = simulate(sim_cfg, track, params, lateral, longitudinal)
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


def _learning_setup(cfg: dict):
    from .learning import EnvConfig, LaneKeepEnv

    if "track" not in cfg:
        raise ConfigError("config needs a 'track' section")
    track = build_track(cfg["track"])
    params = build_vehicle(cfg.get("vehicle"))
    env_spec = cfg.get("env", {})
    allowed = {"v_ref", "dt", "max_steps", "off_track", "cross_weight",
               "crash_penalty", "start_offset", "start_heading"}
    unknown = set(env_spec) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in env")
    env = LaneKeepEnv(track, params, EnvConfig(**env_spec))
    return track, params, env


def _policy_out_paths(out: str) -> tuple[str, str]:
    # --out names the policy file; the training log lands next to it
    out = os.path.abspath(out)
    parent = os.path.dirname(out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    base, _ = os.path.splitext(out)
    return out, base + "_log.csv"


def _maybe_init_policy(cfg: dict, params):
    from .learning import Policy

    path = cfg.get("init_policy")
    if path is None:
        return None
    try:
        return Policy.load(path, steer_max=params.steer_max)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"bad init_policy {path}: {exc}") from exc


def cmd_train_bc(args) -> int:
    from .learning import balance_dataset, clone_behavior, collect_expert_dataset
    import numpy as np

    cfg = load_json(args.config)
    if "track" not in cfg:
        raise ConfigError("config needs a 'track' section")
    track = build_track(cfg["track"])
    params = build_vehicle(cfg.get("vehicle"))
    policy_path, log_path = _policy_out_paths(args.out)
    seed = cfg.get("seed", 0)

    obs, labels, expert = collect_expert_dataset(
        track, params, dt=cfg.get("dt", 0.02), max_steps=cfg.get("max_steps", 40000))
    obs, labels = balance_dataset(
        obs, labels, zero_thresh=cfg.get("zero_thresh", 0.02),
        zero_cap=cfg.get("zero_cap", 0.5), rng=np.random.default_rng(seed))
    policy, history = clone_behavior(
        obs, labels, steer_max=params.steer_max,
        hidden=tuple(cfg.get("hidden", [32, 32])), epochs=cfg.get("epochs", 60),
        batch=cfg.get("batch", 64), alpha=cfg.get("alpha", 1e-3), seed=seed,
        log_path=log_path)
    policy.save(policy_path)
    print(f"expert rms_cross_track: {expert.metrics.rms_cross_track:.6g}")
    print(f"dataset size after balancing: {labels.size}")
    print(f"final mse: {history[-1][1]:.6g}")
    print(f"policy saved to {policy_path}")
    return 0


def cmd_train_ppo(args) -> int:
    from .learning import Policy, evaluate_policy, train_ppo
    import numpy as np

    cfg = load_json(args.config)
    _, params, env = _learning_setup(cfg)
    policy_path, log_path = _policy_out_paths(args.out)
    seed = cfg.get("seed", 0)
    policy = _maybe_init_policy(cfg, params) or Policy(
        steer_max=params.steer_max, hidden=tuple(cfg.get("hidden", [32, 32])),
        rng=np.random.default_rng(seed))

    r0, e0 = evaluate_policy(env, policy)
    policy, history = train_ppo(
        env, policy, iterations=cfg.get("iterations", 600),
        episodes_per_iter=cfg.get("episodes_per_iter", 8),
        epochs=cfg.get("epochs", 4), eps_clip=cfg.get("eps_clip", 0.2),
        alpha=cfg.get("alpha", 3e-4), sigma=cfg.get("sigma"), seed=seed,
        log_path=log_path)
    r1, e1 = evaluate_policy(env, policy)
    policy.save(policy_path)
    print(f"mean reward before: {r0:.6g} after: {r1:.6g}")
    print(f"mean |cross_track| before: {e0:.6g} after: {e1:.6g}")
    print(f"policy saved to {policy_path}")
    return 0


def cmd_evolve(args) -> int:
    from .learning import Policy, evaluate_policy, evolve_policy
    import numpy as np

    cfg = load_json(args.config)
    _, params, env = _learning_setup(cfg)
    policy_path, log_path = _policy_out_paths(args.out)
    seed = cfg.get("seed", 0)
    policy = _maybe_init_policy(cfg, params) or Policy(
        steer_max=params.steer_max, hidden=tuple(cfg.get("hidden", [32, 32])),
        rng=np.random.default_rng(seed))

    policy, best_f, history = evolve_policy(
        env, policy, population=cfg.get("population", 12),
        generations=cfg.get("generations", 15), sigma=cfg.get("sigma", 0.05),
        seed=seed, eval_episodes=cfg.get("eval_episodes", 2),
        log_path=log_path)
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
