import json

import numpy as np
import pytest

from trackbench.cli import main
from trackbench.learning import Policy
from trackbench.track import Track

SIM_CFG = {
    "dt": 0.02,
    "max_steps": 4000,
    "track": {"kind": "straight", "length": 120.0, "v_ref": 8.0},
    "lateral": {"type": "stanley"},
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_simulate_success(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SIM_CFG)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "termination: completed" in text
    assert "rms_cross_track:" in text
    lines = (out / "log.csv").read_text().splitlines()
    assert lines[0] == "t,x,y,theta,v,accel,steer,e_ct,e_head,e_v"
    assert len(lines) > 100


def test_simulate_track_csv_override(tmp_path):
    track_path = tmp_path / "track.csv"
    xs = np.linspace(0.0, 100.0, 101)
    with open(track_path, "w") as fh:
        fh.write("x,y,v_ref\n")
        for x in xs:
            fh.write(f"{x},0.0,8.0\n")
    cfg = write_cfg(tmp_path, {k: v for k, v in SIM_CFG.items() if k != "track"})
    out = tmp_path / "run"
    code = main(["simulate", "--config", cfg, "--track", str(track_path), "--out", str(out)])
    assert code == 0


def test_simulate_track_csv_short_row_is_config_error(tmp_path, capsys):
    track_path = tmp_path / "short.csv"
    track_path.write_text("x,y,v_ref\n0,0\n10,0,5\n")
    cfg = write_cfg(tmp_path, {k: v for k, v in SIM_CFG.items() if k != "track"})
    code = main(["simulate", "--config", cfg, "--track", str(track_path),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "line 2" in capsys.readouterr().err


def test_simulate_missing_track_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {k: v for k, v in SIM_CFG.items() if k != "track"})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_unknown_key_is_config_error(tmp_path, capsys):
    bad = dict(SIM_CFG, lateral={"type": "stanley", "gain": 2.0})
    cfg = write_cfg(tmp_path, bad)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_simulate_bad_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1


def test_simulate_missing_file_is_config_error(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 1


def test_simulate_diverged_exit_code(tmp_path, capsys):
    # runaway speed PID with an absurd accel limit trips the plant guard
    cfg = write_cfg(tmp_path, {
        "dt": 0.02,
        "max_steps": 100,
        "track": {"kind": "straight", "length": 200.0, "v_ref": 10.0},
        "vehicle": {"accel_max": 1.0e6},
        "initial": {"x": 0.0, "y": 0.0, "theta": 0.0, "v": 0.0},
        "lateral": {"type": "stanley"},
        "longitudinal": {"type": "pid", "kp": 1.0e6, "ki": 0.0, "kd": 0.0},
    })
    out = tmp_path / "run"
    code = main(["simulate", "--config", cfg, "--out", str(out)])
    text = capsys.readouterr().out
    assert code == 2
    assert "termination: diverged" in text
    assert (out / "log.csv").exists()


def test_benchmark_runs_tiny_suite(tmp_path, capsys):
    suite = {
        "max_steps": 3000,
        "controllers": [{"name": "stanley", "lateral": {"type": "stanley"}}],
        "tracks": [{"name": "short", "kind": "straight", "length": 100.0}],
        "speeds": [8.0],
    }
    spath = write_cfg(tmp_path, suite, "suite.json")
    out = tmp_path / "bench"
    assert main(["benchmark", "--suite", spath, "--out", str(out)]) == 0
    assert "ran 1 cells, 0 errored" in capsys.readouterr().out
    assert (out / "summary.csv").exists()


def test_mpc_design_prints_ranges(capsys):
    assert main(["mpc-design", "--rise", "2", "--settle", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "ts: [0.1, 0.2]"
    assert out[1] == "p: [50, 75]"
    assert out[2] == "m: [5, 10]"


def test_mpc_design_rejects_negative(capsys):
    for rise, settle in [("-1", "5"), ("nan", "5"), ("inf", "5"), ("2", "nan"),
                         ("2", "inf"), ("2", "-1")]:
        assert main(["mpc-design", "--rise", rise, "--settle", settle]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and "finite and > 0" in captured.err
        assert captured.out == ""


def test_train_bc_writes_policy_and_log(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "seed": 0,
        "dt": 0.02,
        "track": {"kind": "straight", "length": 80.0, "v_ref": 8.0},
        "hidden": [8],
        "epochs": 2,
    })
    out = tmp_path / "nets" / "policy.bin"
    assert main(["train-bc", "--config", cfg, "--out", str(out)]) == 0
    assert out.exists()
    assert (tmp_path / "nets" / "policy_log.csv").exists()
    policy = Policy.load(out)
    assert policy.mlp.sizes == [6, 8, 1]
    text = capsys.readouterr().out
    assert "final mse:" in text
    assert "policy saved to" in text


def test_train_bc_failed_expert_run_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"track": {"kind": "straight", "length": 50}, "max_steps": 10})
    out = tmp_path / "nets" / "p.bin"
    assert main(["train-bc", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: expert run from start (0, 0) ended max_steps")
    assert not out.parent.exists()


def test_train_ppo_tiny_run(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "seed": 0,
        "track": {"kind": "circle", "radius": 20.0, "v_ref": 6.0},
        "env": {"max_steps": 50},
        "hidden": [8],
        "iterations": 2,
        "episodes_per_iter": 2,
    })
    out = tmp_path / "ppo.bin"
    assert main(["train-ppo", "--config", cfg, "--out", str(out)]) == 0
    assert out.exists()
    assert (tmp_path / "ppo_log.csv").exists()
    assert "mean reward before:" in capsys.readouterr().out


def test_train_ppo_unknown_env_key_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "track": {"kind": "circle", "radius": 20.0, "v_ref": 6.0},
        "env": {"max_step": 50},
    })
    assert main(["train-ppo", "--config", cfg, "--out", str(tmp_path / "p.bin")]) == 1
    assert "max_step" in capsys.readouterr().err


def test_evolve_tiny_run(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "seed": 0,
        "track": {"kind": "circle", "radius": 20.0, "v_ref": 6.0},
        "env": {"max_steps": 40},
        "hidden": [8],
        "population": 3,
        "generations": 2,
        "eval_episodes": 1,
    })
    out = tmp_path / "evo.bin"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    assert out.exists()
    assert (tmp_path / "evo_log.csv").exists()
    assert "best training fitness:" in capsys.readouterr().out


def test_evolve_init_policy_round_trip(tmp_path):
    seed_policy = Policy(hidden=(8,), rng=np.random.default_rng(1))
    init_path = tmp_path / "init.bin"
    seed_policy.save(init_path)
    cfg = write_cfg(tmp_path, {
        "seed": 0,
        "track": {"kind": "circle", "radius": 20.0, "v_ref": 6.0},
        "env": {"max_steps": 40},
        "init_policy": str(init_path),
        "population": 2,
        "generations": 1,
        "eval_episodes": 1,
    })
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "evo.bin")]) == 0


@pytest.mark.parametrize("command,key", [
    ("train-bc", "epoch"), ("train-ppo", "iteration"), ("evolve", "generation")])
def test_trainer_unknown_key_is_config_error(tmp_path, capsys, command, key):
    cfg = write_cfg(tmp_path, {
        "track": {"kind": "circle", "radius": 20.0, "v_ref": 6.0},
        key: 5,
    })
    assert main([command, "--config", cfg, "--out", str(tmp_path / "p.bin")]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "p.bin").exists()


def test_bad_init_policy_is_config_error(tmp_path, capsys):
    bad = tmp_path / "junk.bin"
    bad.write_bytes(b"not a policy")
    cfg = write_cfg(tmp_path, {
        "track": {"kind": "circle", "radius": 20.0, "v_ref": 6.0},
        "init_policy": str(bad),
    })
    assert main(["train-ppo", "--config", cfg, "--out", str(tmp_path / "p.bin")]) == 1


@pytest.mark.parametrize("lateral", [
    {"type": "bang_bang", "u_max": -0.2},
    {"type": "bang_bang", "u_max_deg": 0.0},
    {"type": "stanley", "delta_max_deg": -10.0},
    {"type": "pure_pursuit", "delta_max_deg": 0.0},
], ids=str)
def test_simulate_non_positive_steering_limit_exits_1(tmp_path, capsys, lateral):
    cfg = write_cfg(tmp_path, dict(SIM_CFG, lateral=lateral))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "must be > 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train-ppo", "evolve"])
@pytest.mark.parametrize("env,key", [
    ({"dt": 0}, "dt"), ({"max_steps": 0}, "max_steps"), ({"off_track": -1}, "off_track")])
def test_invalid_env_is_config_error(tmp_path, capsys, command, env, key):
    cfg = write_cfg(tmp_path, {
        "track": {"kind": "circle", "radius": 20.0, "v_ref": 6.0},
        "env": env,
    })
    assert main([command, "--config", cfg, "--out", str(tmp_path / "p.bin")]) == 1
    err = capsys.readouterr().err
    assert "env" in err and key in err
    assert not (tmp_path / "p.bin").exists()


@pytest.mark.parametrize("name", ["d_accel", "d_steer", "pos"])
@pytest.mark.parametrize("bad", [float("inf"), float("nan")], ids=["inf", "nan"])
def test_simulate_non_finite_mpc_weight_exits_1(tmp_path, capsys, name, bad):
    # json writes these as Infinity/NaN, which its loader accepts
    cfg = write_cfg(tmp_path, dict(SIM_CFG, lateral={"type": "mpc", "weights": {name: bad}}))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert name in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key,value", [("dt", 0), ("max_steps", 0), ("dt", "fast"),
                                       ("max_steps", 100.5)])
def test_train_bc_bad_sim_key_is_config_error(tmp_path, capsys, key, value):
    cfg = write_cfg(tmp_path, {"track": {"kind": "straight", "length": 50}, key: value})
    assert main(["train-bc", "--config", cfg, "--out", str(tmp_path / "p.bin")]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "p.bin").exists()


def test_suite_track_without_name_or_kind_exits_1(tmp_path, capsys):
    suite = write_cfg(tmp_path, {
        "controllers": [{"lateral": {"type": "stanley"}}],
        "tracks": [{"name": "short", "kind": "straight", "length": 50}, {"length": 50}],
        "speeds": [5],
    }, "suite.json")
    out = tmp_path / "bench"
    assert main(["benchmark", "--suite", suite, "--out", str(out)]) == 1
    assert "tracks[1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train-ppo", "evolve"])
def test_hidden_beside_init_policy_is_config_error(tmp_path, capsys, command):
    init_path = tmp_path / "init.bin"
    Policy(hidden=(8,), rng=np.random.default_rng(1)).save(init_path)
    cfg = write_cfg(tmp_path, {
        "track": {"kind": "circle", "radius": 20.0, "v_ref": 6.0},
        "init_policy": str(init_path),
        "hidden": [16],
    })
    assert main([command, "--config", cfg, "--out", str(tmp_path / "p.bin")]) == 1
    assert "hidden" in capsys.readouterr().err
    assert not (tmp_path / "p.bin").exists()


# short runs of each trainer, so that a bad value that is not caught fails fast
_TRAINER_BASE = {
    "train-bc": {"epochs": 1},
    "train-ppo": {"iterations": 1, "episodes_per_iter": 1, "env": {"max_steps": 20}},
    "evolve": {"population": 2, "generations": 1, "eval_episodes": 1, "env": {"max_steps": 20}},
}


@pytest.mark.parametrize("command,key,value", [
    ("train-bc", "epochs", "x"),
    ("train-bc", "zero_cap", True),
    ("train-bc", "hidden", [4, "x"]),
    ("train-bc", "epochs", 0),
    ("train-bc", "batch", 0),
    ("train-bc", "seed", -1),
    ("train-bc", "zero_cap", -0.5),
    ("train-ppo", "iterations", "x"),
    ("train-ppo", "sigma", True),
    ("train-ppo", "hidden", [4, 0]),
    ("train-ppo", "episodes_per_iter", 0),
    ("train-ppo", "seed", -1),
    ("train-ppo", "sigma", 0),
    ("evolve", "population", 2.5),
    ("evolve", "population", 1),
    ("evolve", "generations", 0),
    ("evolve", "hidden", 8),
    ("evolve", "eval_episodes", 0),
    ("evolve", "seed", -1),
], ids=str)
def test_trainer_bad_value_is_config_error(tmp_path, capsys, command, key, value):
    cfg = write_cfg(tmp_path, {
        "track": {"kind": "straight", "length": 50.0},
        **_TRAINER_BASE[command],
        key: value,
    })
    assert main([command, "--config", cfg, "--out", str(tmp_path / "p.bin")]) == 1
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "p.bin").exists()
