"""perfbench must still run against the program under the names it uses.

perfbench/tracing.py replaces module attributes with timing wrappers.  A
boundary that is renamed or moved is skipped there and its per-layer metric
reads 0, so this test loads that file (without changing it), checks that
every boundary is found, checks that an MPC run goes through the wrapped
solver and reference builder, and checks that the learning env's hinted
queries do not read as fallbacks to the global scan.  perfbench/workload.py
calls the program's API by name; a name it calls that breaks fails its run,
so each workload is set up, and one ppo_train pass run and checked, as
perfbench/run.py starts them.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trackbench import benchmark, config
from trackbench.learning import EnvConfig, LaneKeepEnv
from trackbench.mpc import MpcConfig, MpcLateral
from trackbench.sim import Paired, SimConfig, simulate
from trackbench.track import straight_track

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
WORKLOAD = ROOT / "perfbench" / "workload.py"


def _workload_constant(name: str):
    """A module-level constant of perfbench/workload.py, read without
    running that file."""
    for node in ast.parse(WORKLOAD.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in {WORKLOAD}")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_wraps_every_boundary(params):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    lat = MpcLateral(MpcConfig(ts=0.05, p=5, m=2), dt=0.05)
    try:
        tracing.install(tracer)
        assert tracer.missing == []
        simulate(SimConfig(dt=0.05, max_steps=3), straight_track(50.0), params,
                 Paired(lat, lat))
    finally:
        tracer.restore()
    names, name, _, _, _ = tracer.arrays()
    spans = {n: int((name == i).sum()) for i, n in enumerate(names)}
    assert spans.get("mpc.optimize") == 3
    assert spans.get("mpc.build_reference") == 3


def test_tracer_sees_env_window_scans_as_hinted_queries(params):
    # the tracer counts a global scan under a hinted query as a fallback, so
    # the env's numpy window scan must not run as that traced scan
    tracing = _load_tracing()
    suite = benchmark.reference_suite()
    track = config.build_track(next(t for t in suite["tracks"] if t["name"] == "racetrack"))
    env = LaneKeepEnv(track, params, EnvConfig(max_steps=50))
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        env.reset(np.random.default_rng(3))
        done = False
        while not done:
            _, _, done, _ = env.step(0.0)
    finally:
        tracer.restore()
    names, name, parent, _, _ = tracer.arrays()
    ids = {n: i for i, n in enumerate(names)}
    hinted = name == ids["track.nearest.hinted"]
    assert hinted.sum() == 50
    child = parent >= 0
    fallbacks = (name[child] == ids["track.global_scan"]) & hinted[parent[child]]
    assert not fallbacks.any()


def _workload(out: Path, name: str, *flags: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "workload.py"), "--workload", name,
         "--seed", "1", "--seconds", "0", "--trace", "0", "--out", str(out), *flags],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", ["classical_grid", "mpc_lap"])
def test_perfbench_workload_sets_up(tmp_path, name):
    assert _workload(tmp_path, name, "--setup-only")["setup_s"] > 0.0


def test_perfbench_ppo_train_pass_is_correct(tmp_path):
    result = _workload(tmp_path, "ppo_train")
    assert result["passes"] == 1
    assert result["failed"] == 0, result["failures"]
    assert result["correct"]
    # the workload counts one step per LaneKeepEnv.step call, so training
    # that bypassed it would read as 0 steps per second; the evaluation
    # alone takes at most EVAL_EPISODES episodes of the default max_steps
    # (the workload's env is built with EnvConfig())
    eval_steps = _workload_constant("EVAL_EPISODES") * EnvConfig().max_steps
    assert result["pass_steps"][0] > eval_steps
