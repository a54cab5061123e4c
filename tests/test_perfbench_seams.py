"""The layer boundaries perfbench times must exist under the names it wraps.

perfbench/tracing.py replaces module attributes with timing wrappers.  A
boundary that is renamed or moved is skipped there and its per-layer metric
reads 0, so this test loads that file (without changing it), checks that
every boundary is found, and checks that an MPC run goes through the
wrapped solver and reference builder.
"""

import importlib.util
from pathlib import Path

from trackbench.mpc import MpcConfig, MpcLateral
from trackbench.sim import Paired, SimConfig, simulate
from trackbench.track import straight_track

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
