"""Layer tracing from outside the program.

A Tracer replaces a public function with a timing wrapper under the name
its caller looks it up by (``sim.stanley_steer``, ``Track.nearest`` on the
class, ``kernels.kin_step`` as seen from ``sim``), keeps every span (name,
start, end, parent) in flat arrays in memory, and writes them once at the
end. Self time is a span minus the spans it caused. ``per_layer_metrics``
turns the spans, and the counts the program returns (MPC solve results),
into the per-layer metrics named in PER_LAYER.
"""

from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from time import perf_counter

# name, unit, better -- the per-layer metrics of a traced run
PER_LAYER = [
    ("track.nearest_us", "us", "lower"),
    ("track.nearest_global_us", "us", "lower"),
    ("track.fallback_ratio", "ratio", "lower"),
    ("track.nearest_calls_per_step", "calls/step", "lower"),
    ("track.tracking_errors_us", "us", "lower"),
    ("track.lookahead_us", "us", "lower"),
    ("track.curvature_us", "us", "lower"),
    ("geometric.stanley_us", "us", "lower"),
    ("geometric.pure_pursuit_us", "us", "lower"),
    ("classical.pid_us", "us", "lower"),
    ("classical.bang_bang_us", "us", "lower"),
    ("classical.shaper_us", "us", "lower"),
    ("sim.couple_limits_us", "us", "lower"),
    ("sim.self_us_per_step", "us/step", "lower"),
    ("sim.step_us.bang_bang", "us/step", "lower"),
    ("sim.step_us.pid", "us/step", "lower"),
    ("sim.step_us.pure_pursuit", "us/step", "lower"),
    ("sim.step_us.stanley", "us/step", "lower"),
    ("sim.step_us.mpc", "us/step", "lower"),
    ("kernels.kin_step_us", "us", "lower"),
    ("models.dynamic_step_us", "us", "lower"),
    ("mpc.solve_ms_p50", "ms", "lower"),
    ("mpc.solve_ms_p95", "ms", "lower"),
    ("mpc.evals_per_solve", "evals/solve", "lower"),
    ("mpc.iters_per_solve", "iters/solve", "lower"),
    ("mpc.capped_ratio", "ratio", "lower"),
    ("mpc.eval_us", "us", "lower"),
    ("mpc.build_reference_us", "us", "lower"),
    ("nn.forward_row_us", "us", "lower"),
    ("nn.forward_batch_us", "us", "lower"),
    ("nn.backward_us", "us", "lower"),
    ("nn.adam_us", "us", "lower"),
    ("learning.env_step_us", "us", "lower"),
    ("learning.env_reset_us", "us", "lower"),
    ("learning.observation_us", "us", "lower"),
    ("learning.update_ms", "ms", "lower"),
    ("learning.steps_per_episode", "steps/episode", "higher"),
]

CONTROLLERS = ("bang_bang", "pid", "pure_pursuit", "stanley", "mpc")


class _View:
    """A module seen through one caller: some attributes replaced, the rest
    read from the real module."""

    def __init__(self, real, **replaced):
        self.__dict__.update(replaced)
        self._real = real

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        t0 = perf_counter()
        try:
            yield
        finally:
            self.end[idx] = perf_counter()
            self.start[idx] = t0
            self._stack.pop()

    def wrap(self, fn, name: str, variant=None):
        """fn timed as span `name`, or `name + variant(args, kwargs)`."""
        open_, start, end, stack = self._open, self.start, self.end, self._stack
        ids = {}

        def name_id(args, kwargs):
            label = name if variant is None else name + variant(args, kwargs)
            if label not in ids:
                ids[label] = self._id(label)
            return ids[label]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(name_id(args, kwargs))
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str, variant=None) -> None:
        """Time `owner.attr` (a module function or a class's method)."""
        if attr not in owner.__dict__:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._set(owner, attr, self.wrap(owner.__dict__[attr], name, variant))

    def patch_seen_from(self, caller, module_attr: str, attr: str, name: str) -> None:
        """Time `module.attr` only where `caller` looks it up as
        `caller.module_attr.attr`, leaving the module's own calls untimed."""
        real = caller.__dict__.get(module_attr)
        if real is None or not hasattr(real, attr):
            self.missing.append(f"{caller.__name__}.{module_attr}.{attr}")
            return
        view = _View(real, **{attr: self.wrap(getattr(real, attr), name)})
        self._set(caller, module_attr, view)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def arrays(self):
        import numpy as np

        return (np.array(self.names), np.array(self.name, dtype=np.int32),
                np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=float), np.array(self.end, dtype=float))

    def save(self, path) -> None:
        import numpy as np

        names, name, parent, start, end = self.arrays()
        np.savez(path, names=names, name=name, parent=parent, start=start, end=end)


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs.get(key)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    import numpy as np

    from trackbench import benchmark, classical, kernels, learning, mpc, nn, sim, track

    t = tracer
    t.patch(track.Track, "nearest", "track.nearest",
            lambda a, k: ".global" if _arg(a, k, 3, "hint") is None else ".hinted")
    t.patch(kernels, "nearest_on_polyline_numpy", "track.global_scan")
    t.patch(track.Track, "tracking_errors", "track.tracking_errors")
    t.patch(track.Track, "lookahead", "track.lookahead")
    t.patch(track.Track, "curvature_at_s", "track.curvature")
    t.patch(sim, "stanley_steer", "geometric.stanley")
    t.patch(sim, "pure_pursuit_steer", "geometric.pure_pursuit")
    t.patch(sim, "bang_bang_step", "classical.bang_bang")
    t.patch(classical.PidController, "step", "classical.pid")
    t.patch(classical.OutputShaper, "shape", "classical.shaper")
    t.patch(sim, "couple_limits", "sim.couple_limits")
    t.patch(benchmark, "simulate", "sim.simulate")
    t.patch(sim, "dynamic_step", "models.dynamic_step")
    # kin_step also runs inside kernels.mpc_cost, where a wrapper would cost
    # as much as the step; only the plant steps of sim and learning are timed
    t.patch_seen_from(sim, "kernels", "kin_step", "kernels.kin_step")
    t.patch_seen_from(learning, "kernels", "kin_step", "kernels.kin_step")
    t.patch(mpc, "optimize", "mpc.optimize")
    t.patch(mpc, "build_reference", "mpc.build_reference")
    t.patch(nn.Mlp, "forward", "nn.forward",
            lambda a, k: ".row" if np.atleast_2d(_arg(a, k, 1, "x")).shape[0] == 1
            else ".batch")
    t.patch(nn.Mlp, "backward", "nn.backward")
    t.patch(learning, "adam_step", "nn.adam")
    t.patch(learning.LaneKeepEnv, "step", "learning.env_step")
    t.patch(learning.LaneKeepEnv, "reset", "learning.env_reset")
    t.patch(learning, "build_observation", "learning.observation")
    t.patch(learning, "_collect_episode", "learning.collect_episode")


def per_layer_metrics(tracer: Tracer, steps: int, steps_by_controller: dict,
                      solves: list, iterations: int) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced pass.

    steps: control steps of the pass (logged sim rows or env steps);
    steps_by_controller: logged rows per lateral controller; solves: the
    MPC OptResults of the pass; iterations: PPO training iterations.
    A layer the workload never reaches reads 0.
    """
    import numpy as np

    names, name, parent, start, end = tracer.arrays()
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - covered
    ids = {n: i for i, n in enumerate(names)}

    def sel(label):
        return name == ids.get(label, -1)

    def mean_us(label):
        mask = sel(label)
        return float(dur[mask].mean() * 1e6) if mask.any() else 0.0

    def per(num, den):
        return float(num / den) if den else 0.0

    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
    hinted = int(sel("track.nearest.hinted").sum())
    fallbacks = int((sel("track.global_scan")
                     & (parent_name == ids.get("track.nearest.hinted", -1))).sum())
    nearest_calls = hinted + int(sel("track.nearest.global").sum())
    simulate = sel("sim.simulate")
    solve_ms = dur[sel("mpc.optimize")] * 1e3
    evaluations = sum(r.evaluations for r in solves)
    resets = int(sel("learning.env_reset").sum())

    out = {
        "track.nearest_us": mean_us("track.nearest.hinted"),
        "track.nearest_global_us": mean_us("track.nearest.global"),
        "track.fallback_ratio": per(fallbacks, hinted),
        "track.nearest_calls_per_step": per(nearest_calls, steps),
        "track.tracking_errors_us": mean_us("track.tracking_errors"),
        "track.lookahead_us": mean_us("track.lookahead"),
        "track.curvature_us": mean_us("track.curvature"),
        "geometric.stanley_us": mean_us("geometric.stanley"),
        "geometric.pure_pursuit_us": mean_us("geometric.pure_pursuit"),
        "classical.pid_us": mean_us("classical.pid"),
        "classical.bang_bang_us": mean_us("classical.bang_bang"),
        "classical.shaper_us": mean_us("classical.shaper"),
        "sim.couple_limits_us": mean_us("sim.couple_limits"),
        "sim.self_us_per_step": per(self_time[simulate].sum() * 1e6,
                                    sum(steps_by_controller.values())),
        "kernels.kin_step_us": mean_us("kernels.kin_step"),
        "models.dynamic_step_us": mean_us("models.dynamic_step"),
        "mpc.solve_ms_p50": float(np.percentile(solve_ms, 50)) if solve_ms.size else 0.0,
        "mpc.solve_ms_p95": float(np.percentile(solve_ms, 95)) if solve_ms.size else 0.0,
        "mpc.evals_per_solve": per(evaluations, len(solves)),
        "mpc.iters_per_solve": per(sum(r.iterations for r in solves), len(solves)),
        "mpc.capped_ratio": per(sum(r.status != "converged" for r in solves), len(solves)),
        "mpc.eval_us": per(solve_ms.sum() * 1e3, evaluations),
        "mpc.build_reference_us": mean_us("mpc.build_reference"),
        "nn.forward_row_us": mean_us("nn.forward.row"),
        "nn.forward_batch_us": mean_us("nn.forward.batch"),
        "nn.backward_us": mean_us("nn.backward"),
        "nn.adam_us": mean_us("nn.adam"),
        "learning.env_step_us": mean_us("learning.env_step"),
        "learning.env_reset_us": mean_us("learning.env_reset"),
        "learning.observation_us": mean_us("learning.observation"),
        "learning.update_ms": per((dur[sel("ppo.train")].sum()
                                   - dur[sel("learning.collect_episode")].sum()) * 1e3,
                                  iterations),
        "learning.steps_per_episode": per(int(sel("learning.env_step").sum()), resets),
    }
    for ctrl in CONTROLLERS:
        in_cell = simulate & (parent_name == ids.get(f"cell.{ctrl}", -1))
        out[f"sim.step_us.{ctrl}"] = per(dur[in_cell].sum() * 1e6,
                                         steps_by_controller.get(ctrl, 0))
    return {n: out[n] for n, _, _ in PER_LAYER}
