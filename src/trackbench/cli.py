"""Command-line interface.

Subcommands: simulate, benchmark, train-bc, train-ppo, evolve, mpc-design.
Exit codes: 0 success, 1 configuration/usage error, 2 simulate run diverged.
"""

from __future__ import annotations

import argparse
import operator
import os
import sys

import numpy as np

from .config import (
    ConfigError,
    _check_numbers,
    _keys,
    _pick,
    _take,
    build_section,
    build_track,
    build_vehicle,
    load_json,
)
from .mpc import design_params
from .sim import SimConfig


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


def cmd_simulate(args) -> int:
    from .config import build_run
    from .sim import simulate

    cfg = load_json(args.config)
    if args.track is not None:
        track = build_track({"kind": "csv", "path": args.track})
    elif "track" in cfg:
        track = build_track(cfg["track"])
    else:
        raise ConfigError("no track: pass --track <csv> or a 'track' section in the config")
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


# per trainer, the range each key must keep to, where a value outside it
# would fail the run
_RANGES = {
    "balance_dataset": {"zero_cap": (">=", 0)},
    "clone_behavior": {"epochs": (">=", 1), "batch": (">=", 1), "seed": (">=", 0)},
    "train_ppo": {"episodes_per_iter": (">=", 1), "sigma": (">", 0), "seed": (">=", 0)},
    "evolve_policy": {"population": (">=", 2), "generations": (">=", 1),
                      "eval_episodes": (">=", 1), "seed": (">=", 0)},
}
_COMPARE = {">=": operator.ge, ">": operator.gt}


def _rng(cfg: dict) -> np.random.Generator:
    return np.random.default_rng(cfg.get("seed", 0))


def _check_trainer(cfg: dict, trainers, where: str, *sections) -> None:
    """Check, before any run, that `cfg` gives only `sections` and keys of
    `trainers` (their keyword-only parameters), each value against its
    trainer's annotation and _RANGES, and `hidden` as the layer sizes of a
    new policy."""
    _take(cfg, (*sections, *(key for fn in trainers for key in _keys(fn))), where)
    for trainer in trainers:
        given = _pick(cfg, _keys(trainer))
        _check_numbers(trainer, given, where)
        for key, (compare, bound) in _RANGES.get(trainer.__name__, {}).items():
            if given.get(key) is not None and not _COMPARE[compare](given[key], bound):
                raise ConfigError(f"bad {where}: {key!r} must be {compare} {bound}, "
                                  f"got {given[key]}")
    hidden = cfg.get("hidden", [])
    if not (isinstance(hidden, list) and all(
            isinstance(n, int) and not isinstance(n, bool) and n > 0 for n in hidden)):
        raise ConfigError(f"bad {where}: 'hidden' must be a list of positive integers, "
                          f"not {hidden!r}")


def _env_setup(args, trainer, where: str):
    """Config, lane-keeping env, starting policy and output paths of
    train-ppo and evolve."""
    from .learning import EnvConfig, LaneKeepEnv, Policy

    cfg = load_json(args.config)
    _check_trainer(cfg, [trainer], where, "track", "vehicle", "env", "init_policy", "hidden")
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
    _check_trainer(cfg, [collect_expert_dataset, balance_dataset, clone_behavior],
                   "train-bc config", "track", "vehicle")
    # collect_expert_dataset passes these to SimConfig; check them before any run
    build_section(SimConfig, _pick(cfg, _keys(collect_expert_dataset)), "train-bc config")
    track, params = _track_and_vehicle(cfg)
    try:
        obs, labels, expert = collect_expert_dataset(
            track, params, **_pick(cfg, _keys(collect_expert_dataset)))
    except RuntimeError as exc:  # an expert run that did not finish
        raise ConfigError(str(exc)) from exc
    policy_path, log_path = _policy_out_paths(args.out)
    obs, labels = balance_dataset(obs, labels, rng=_rng(cfg), **_pick(cfg, _keys(balance_dataset)))
    policy, history = clone_behavior(obs, labels, steer_max=params.steer_max, log_path=log_path,
                                     **_pick(cfg, _keys(clone_behavior)))
    policy.save(policy_path)
    print(f"expert rms_cross_track: {expert.metrics.rms_cross_track:.6g}")
    print(f"dataset size after balancing: {labels.size}")
    print(f"final mse: {history[-1][1]:.6g}")
    print(f"policy saved to {policy_path}")
    return 0


def cmd_train_ppo(args) -> int:
    from .learning import evaluate_policy, train_ppo

    cfg, env, policy, policy_path, log_path = _env_setup(args, train_ppo, "train-ppo config")
    r0, e0 = evaluate_policy(env, policy)
    policy, history = train_ppo(env, policy, log_path=log_path, **_pick(cfg, _keys(train_ppo)))
    r1, e1 = evaluate_policy(env, policy)
    policy.save(policy_path)
    print(f"mean reward before: {r0:.6g} after: {r1:.6g}")
    print(f"mean |cross_track| before: {e0:.6g} after: {e1:.6g}")
    print(f"policy saved to {policy_path}")
    return 0


def cmd_evolve(args) -> int:
    from .learning import evaluate_policy, evolve_policy

    cfg, env, policy, policy_path, log_path = _env_setup(args, evolve_policy, "evolve config")
    policy, best_f, history = evolve_policy(env, policy, log_path=log_path,
                                            **_pick(cfg, _keys(evolve_policy)))
    reward, err = evaluate_policy(env, policy)
    policy.save(policy_path)
    print(f"best training fitness: {best_f:.6g}")
    print(f"eval mean reward: {reward:.6g} mean |cross_track|: {err:.6g}")
    print(f"policy saved to {policy_path}")
    return 0


def cmd_mpc_design(args) -> int:
    try:
        ranges = design_params(args.rise, args.settle)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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
