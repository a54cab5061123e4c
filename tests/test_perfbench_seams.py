"""perfbench must still run against the program under the names it uses.

perfbench/tracing.py replaces module attributes with timing wrappers.  A
boundary that is renamed or moved is skipped there and its per-layer metric
reads 0, so this test loads that file (without changing it), checks that
every boundary is found, and checks that an MPC run goes through the
wrapped solver and reference builder.  perfbench/workload.py calls the
program's API by name; a name it calls that breaks fails its run, so each
workload is set up, and one ppo_train pass run and checked, as
perfbench/run.py starts them.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trackbench.mpc import MpcConfig, MpcLateral
from trackbench.sim import Paired, SimConfig, simulate
from trackbench.track import straight_track

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_tracer_wraps_every_boundary(params):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
