"""One workload in one fresh process: set-up, timed passes, output checks.

Run by run.py, never imported by it. The process times its own set-up from
the first import of trackbench, then runs whole passes of the workload
until --seconds is spent (at least one), checks every pass's outputs
outside the timed spans, and prints one JSON object as its last line.
With --setup-only it stops after set-up. With --trace 1 it runs traced and
untraced passes side by side (Workload.run_traced) and reports the
per-layer metrics of the traced pass and the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, install, per_layer_metrics  # noqa: E402

GRID_CONTROLLERS = ("bang_bang", "pid", "pure_pursuit", "stanley")
MUST_COMPLETE = ("pid", "pure_pursuit", "stanley")
PLANTS = ("kinematic", "dynamic")
MPC_SPEED = 12.0
MPC_RMS_LIMIT = 0.15
PPO_ITERATIONS = 40
PPO_EPISODES = 8
EVAL_EPISODES = 20
POLICY_SEED = 0
TRAIN_SEED = 0
# float tolerance of an oracle restating the program's arithmetic
TOL = 1e-9


def _close(a, b, tol=TOL):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _reference_track(suite: dict, name: str) -> dict:
    return next(t for t in suite["tracks"] if t["name"] == name)


def _summary_row(controller, track_name, speed, record) -> dict:
    from dataclasses import asdict

    return {"controller": controller, "track": track_name, "speed": speed,
            **asdict(record.metrics), "termination": record.termination}


def _read_summary(path) -> list[dict]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        return [dict(zip(header, line.strip().split(","))) for line in fh]


class Pass:
    """What one pass produced: timing, counts, and outputs to check."""

    def __init__(self, ops: int, directory: Path, traced: bool):
        self.ops = ops
        self.dir = directory
        self.traced = traced
        self.wall = 0.0
        self.steps = 0
        self.failed: dict[int, str] = {}  # op index -> reason
        self.wrong = False  # an output check failed other than on a known fault
        self.outputs: list = []
        self.digest = ""
        self.steps_by_controller: dict[str, int] = {}
        self.solves: list = []

    def fail(self, ops, reasons: list[str], known: bool = False) -> None:
        """Mark ops failed; unless the reason is a known program fault, the
        run's outputs are also not correct."""
        for op in ops:
            self.failed[op] = "; ".join(reasons)
        self.wrong = self.wrong or not known


def _assert_all(failures: list[str], ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def _euler_gap(rows, dt: float, vehicle) -> float:
    """Largest difference between each logged state and the independent
    kinematic step from the row before it."""
    import oracles

    nxt = oracles.kinematic_euler(*rows[:-1, 1:7].T, dt, vehicle.wheelbase, vehicle.dist_rear)
    gaps = [abs(oracles.wrap(nxt[2] - rows[1:, 3]))]
    gaps += [abs(nxt[k] - rows[1:, col]) for k, col in ((0, 1), (1, 2), (3, 4))]
    return max(float(g.max()) for g in gaps)


class Workload:
    """Set-up happens in __init__; run() is one untraced pass."""

    ops = 1  # operations in one pass
    iterations = 0  # training iterations in one pass

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out
        self._passes = 0

    def new_pass(self, traced: bool = False) -> Pass:
        directory = self.out / f"pass{self._passes}"
        directory.mkdir(parents=True, exist_ok=True)
        self._passes += 1
        return Pass(self.ops, directory, traced)

    def run(self, tracer: Tracer | None = None) -> Pass:
        raise NotImplementedError

    def run_traced(self, tracer: Tracer) -> list[Pass]:
        """Untraced, traced, untraced: the overhead compares the traced pass
        with the mean of its neighbours, so a steady drift in machine speed
        cancels."""
        first = self.run()
        install(tracer)
        try:
            traced = self.run(tracer)
        finally:
            tracer.restore()
        return [first, traced, self.run()]


# ------------------------------------------------------------ classical grid


class ClassicalGrid(Workload):
    """The reference suite's classical cells on both plants, in an order
    drawn from the seed."""

    def __init__(self, seed: int, out: Path):
        super().__init__(seed, out)
        from trackbench import benchmark, config

        self.benchmark = benchmark
        suite = benchmark.reference_suite()
        self.suites = {plant: {**suite, "model": plant} for plant in PLANTS}
        self.cells = [(plant, ctrl, trk, float(speed))
                      for plant in PLANTS
                      for ctrl in suite["controllers"] if ctrl["name"] in GRID_CONTROLLERS
                      for trk in suite["tracks"] for speed in suite["speeds"]]
        self.ops = len(self.cells)
        self.order = list(range(len(self.cells)))
        random.Random(seed).shuffle(self.order)
        self.tracks = {(trk["name"], float(speed)): config.build_track({**trk, "v_ref": speed})
                       for trk in suite["tracks"] for speed in suite["speeds"]}
        self.vehicle = config.build_vehicle(suite.get("vehicle"))
        self.dt = suite["dt"]

    def run(self, tracer: Tracer | None = None) -> Pass:
        return self._run_cells(None)[0]

    def run_traced(self, tracer: Tracer) -> list[Pass]:
        """Every cell once untraced and once traced, the two in alternating
        order, so that drift in machine speed cancels from the overhead."""
        return self._run_cells(tracer)

    def _run_cells(self, tracer: Tracer | None) -> list[Pass]:
        modes = [None] if tracer is None else [None, tracer]
        passes = [self.new_pass(t is not None) for t in modes]
        records = [[None] * len(self.cells) for _ in modes]
        for k, i in enumerate(self.order):
            plant, ctrl, trk, speed = self.cells[i]
            for m in (range(len(modes)) if k % 2 == 0 else reversed(range(len(modes)))):
                t = modes[m]
                if t:
                    install(t)
                t0 = perf_counter()
                try:
                    with t.span(f"cell.{ctrl['name']}") if t else nullcontext():
                        records[m][i], _ = self.benchmark.run_cell(
                            self.suites[plant], ctrl, trk, speed)
                except Exception:  # a failed cell is counted, the pass goes on
                    passes[m].failed[i] = traceback.format_exc(limit=3)
                finally:
                    passes[m].wall += perf_counter() - t0
                    if t:
                        t.restore()
        for p, recs in zip(passes, records):
            self._summarise(p, recs)
        return passes

    def _summarise(self, p: Pass, records: list) -> None:
        summaries = []
        for plant in PLANTS:
            rows = [_summary_row(ctrl["name"], trk["name"], speed, records[i])
                    for i, (pl, ctrl, trk, speed) in enumerate(self.cells)
                    if pl == plant and records[i] is not None]
            path = p.dir / f"summary_{plant}.csv"
            self.benchmark.write_summary(rows, path)
            summaries.append(path.read_bytes())
        p.digest = _digest(*summaries)
        for i, record in enumerate(records):
            if record is not None:
                name = self.cells[i][1]["name"]
                p.steps += record.rows.shape[0]
                p.steps_by_controller[name] = p.steps_by_controller.get(name, 0) \
                    + record.rows.shape[0]
        p.outputs = records

    def check(self, p: Pass) -> None:
        import oracles

        summary = {}
        for plant in PLANTS:
            for row in _read_summary(p.dir / f"summary_{plant}.csv"):
                summary[(plant, row["controller"], row["track"], float(row["speed"]))] = row
        v = self.vehicle
        for i, record in enumerate(p.outputs):
            if record is None:
                continue
            plant, ctrl, trk, speed = self.cells[i]
            track = self.tracks[(trk["name"], speed)]
            rows = record.rows
            bad: list[str] = []
            _assert_all(bad, record.termination not in ("error", "diverged"),
                        f"ended {record.termination}")
            if ctrl["name"] in MUST_COMPLETE:
                _assert_all(bad, record.termination == "completed",
                            f"ended {record.termination}, not completed")
            dist, arc = oracles.project_polyline(track.xs, track.ys, track.closed,
                                                 rows[:, 1], rows[:, 2])
            gap = float(abs(abs(rows[:, 7]) - dist).max())
            _assert_all(bad, gap <= TOL, f"|e_ct| off the brute-force projection by {gap:.3g}")
            if plant == "kinematic" and rows.shape[0] > 1:
                gap = _euler_gap(rows, self.dt, v)
                _assert_all(bad, gap <= TOL, f"kinematic step off by {gap:.3g}")
            want = oracles.run_metrics(rows, self.dt, record.termination, arc,
                                       track.length, track.closed)
            got = summary[(plant, ctrl["name"], trk["name"], speed)]
            for key, value in want.items():
                _assert_all(bad, _close(float(got[key]), value),
                            f"summary {key} {got[key]} != recomputed {value!r}")
            _assert_all(bad, got["termination"] == record.termination, "summary termination")
            steer, accel = rows[:, 6], rows[:, 5]
            _assert_all(bad, float(abs(steer).max()) <= v.steer_max + 1e-12
                        and float(accel.min()) >= -v.decel_max - 1e-12
                        and float(accel.max()) <= v.accel_max + 1e-12,
                        "applied command outside the vehicle limits")
            if bad:
                p.fail([i], [f"{plant}/{ctrl['name']}/{trk['name']}/{speed:g}", *bad])


# ------------------------------------------------------------------ MPC lap


class MpcLap(Workload):
    """The reference suite's MPC controller driving one lap of the
    reference racetrack."""

    def __init__(self, seed: int, out: Path):
        super().__init__(seed, out)
        from trackbench import benchmark, config, mpc

        self.benchmark = benchmark
        self.mpc = mpc
        self.suite = benchmark.reference_suite()
        self.ctrl = next(c for c in self.suite["controllers"] if c["name"] == "mpc")
        self.track_spec = _reference_track(self.suite, "racetrack")
        self.track = config.build_track({**self.track_spec, "v_ref": MPC_SPEED})
        self.vehicle = config.build_vehicle(self.suite.get("vehicle"))
        self.dt = self.ctrl.get("dt", self.suite["dt"])

    def run(self, tracer: Tracer | None = None) -> Pass:
        p = self.new_pass(tracer is not None)
        # each solve's inputs and result, for the checks; the wrapper costs
        # microseconds against a solve of tens of milliseconds
        optimize = self.mpc.optimize

        def recorded(*args, **kwargs):
            result = optimize(*args, **kwargs)
            p.solves.append((args, result))
            return result

        record = None
        self.mpc.optimize = recorded
        t0 = perf_counter()
        try:
            with tracer.span("cell.mpc") if tracer else nullcontext():
                record, _ = self.benchmark.run_cell(self.suite, self.ctrl, self.track_spec,
                                                    MPC_SPEED)
        except Exception:
            p.failed[0] = traceback.format_exc(limit=3)
        finally:
            p.wall = perf_counter() - t0
            self.mpc.optimize = optimize
        if record is not None:
            path = p.dir / "summary.csv"
            self.benchmark.write_summary(
                [_summary_row("mpc", self.track_spec["name"], MPC_SPEED, record)], path)
            p.digest = _digest(path.read_bytes())
            p.steps = p.steps_by_controller["mpc"] = record.rows.shape[0]
        p.outputs = [record]
        return p

    def check(self, p: Pass) -> None:
        import numpy as np

        import oracles

        record = p.outputs[0]
        if record is None:
            return
        bad: list[str] = []
        rows = record.rows
        track = self.track
        _assert_all(bad, record.termination == "completed", f"ended {record.termination}")
        dist, _ = oracles.project_polyline(track.xs, track.ys, track.closed,
                                           rows[:, 1], rows[:, 2])
        rms = math.sqrt(float(np.mean(dist * dist)))
        _assert_all(bad, rms < MPC_RMS_LIMIT, f"rms cross-track {rms:.4f} m")
        gap = _euler_gap(rows, self.dt, self.vehicle)
        _assert_all(bad, gap <= TOL, f"kinematic step off by {gap:.3g}")
        _assert_all(bad, len(p.solves) > 0, "no MPC solve recorded")
        out_of_bounds = cost_gaps = converged = unstationary = 0
        worst_probe = 0.0
        for args, result in p.solves:
            state, refs, prev_u, cfg, params = args[:5]
            b = cfg.bounds
            weights = vars(cfg.weights)
            bounds = {"accel_rate": b.accel_rate, "steer_rate": b.steer_rate,
                      "v_max": b.v_max, "soft_penalty": b.soft_penalty}
            seq = result.seq

            def cost(s):
                return oracles.horizon_cost(state, s, prev_u, refs, cfg.ts, params.wheelbase,
                                            params.dist_rear, weights, bounds)

            if (seq[:, 0].min() < b.accel_min or seq[:, 0].max() > b.accel_max
                    or abs(seq[:, 1]).max() > b.steer_max):
                out_of_bounds += 1
            base = cost(seq)
            if not _close(base, result.cost):
                cost_gaps += 1
            if result.status != "converged":
                continue
            converged += 1
            # the compass search stops at probe steps of 1e-4 of the accel
            # range and 2e-4 of the steer limit
            floor = (1e-4 * (b.accel_max - b.accel_min), 2e-4 * b.steer_max)
            lo, hi = (b.accel_min, -b.steer_max), (b.accel_max, b.steer_max)
            gain = 0.0
            for row in range(seq.shape[0]):
                for col in range(2):
                    for sign in (1.0, -1.0):
                        probe = seq.copy()
                        probe[row, col] = min(max(seq[row, col] + sign * floor[col], lo[col]),
                                              hi[col])
                        gain = max(gain, base - cost(probe))
            if gain > TOL * max(1.0, base):
                unstationary += 1
                worst_probe = max(worst_probe, gain)
        _assert_all(bad, out_of_bounds == 0, f"{out_of_bounds} solves outside the hard bounds")
        _assert_all(bad, cost_gaps == 0, f"{cost_gaps} solves report another cost")
        if bad:
            p.fail([0], ["mpc lap", *bad])
        if unstationary:
            p.fail([0], ["mpc lap", f"{unstationary} of {converged} converged solves have a "
                         f"floor-step probe that lowers their cost, by up to {worst_probe:.3g}"],
                   known=True)


# -------------------------------------------------------------- PPO training


class PpoTrain(Workload):
    """Seeded PPO on the reference racetrack's lane-keeping env from a
    seeded random policy, then a policy evaluation whose start states come
    from the workload seed."""

    ops = PPO_ITERATIONS
    iterations = PPO_ITERATIONS

    def __init__(self, seed: int, out: Path):
        super().__init__(seed, out)
        import numpy as np

        from trackbench import benchmark, config, learning

        self.learning = learning
        suite = benchmark.reference_suite()
        track = config.build_track(_reference_track(suite, "racetrack"))
        params = config.build_vehicle(suite.get("vehicle"))

        class CountingEnv(learning.LaneKeepEnv):
            """Counts env steps and non-finite rewards."""

            steps = 0
            nonfinite = 0

            def step(self, steer):
                result = super().step(steer)
                self.steps += 1
                if not math.isfinite(result[1]):
                    self.nonfinite += 1
                return result

        self.env = CountingEnv(track, params, learning.EnvConfig())
        self.initial = learning.Policy(steer_max=params.steer_max,
                                       rng=np.random.default_rng(POLICY_SEED))

    def run(self, tracer: Tracer | None = None) -> Pass:
        import numpy as np

        learning = self.learning
        p = self.new_pass(tracer is not None)
        env = self.env
        env.steps = env.nonfinite = 0
        policy = learning.Policy(mlp=self.initial.mlp.clone(), steer_max=self.initial.steer_max)
        history = evaluation = None
        t0 = perf_counter()
        try:
            with tracer.span("ppo.train") if tracer else nullcontext():
                policy, history = learning.train_ppo(
                    env, policy, iterations=PPO_ITERATIONS, episodes_per_iter=PPO_EPISODES,
                    seed=TRAIN_SEED, log_path=p.dir / "ppo_log.csv")
            with tracer.span("ppo.evaluate") if tracer else nullcontext():
                evaluation = learning.evaluate_policy(env, policy, episodes=EVAL_EPISODES,
                                                      seed=self.seed)
        except Exception:
            p.failed = dict.fromkeys(range(PPO_ITERATIONS), traceback.format_exc(limit=3))
        p.wall = perf_counter() - t0
        p.steps = env.steps
        if history is not None:
            weights = np.ascontiguousarray(policy.mlp.get_flat(), dtype="<f8").tobytes()
            p.digest = _digest(repr([(i, float(r).hex()) for i, r in history]).encode(),
                               weights)
            policy.save(p.dir / "policy.bin")
        p.outputs = [policy, history, evaluation, env.nonfinite]
        return p

    def check(self, p: Pass) -> None:
        import numpy as np

        import oracles

        policy, history, evaluation, nonfinite = p.outputs
        if history is None:
            return
        bad: list[str] = []
        _assert_all(bad, nonfinite == 0 and all(math.isfinite(r) for _, r in history)
                    and all(math.isfinite(x) for x in evaluation),
                    f"{nonfinite} non-finite env rewards")
        with open(p.dir / "ppo_log.csv") as fh:
            logged = [line.strip() for line in fh][1:]
        _assert_all(bad, logged == [f"{i},{float(r):.12g},{TRAIN_SEED}" for i, r in history],
                    "training log differs from the returned history")
        path = p.dir / "policy.bin"
        obs = np.random.default_rng(self.seed).normal(size=(256, policy.mlp.sizes[0]))
        got = policy.mlp.forward(obs)[0]
        want = oracles.mlp_forward(oracles.read_policy_file(path), obs)
        gap = float(abs(got - want).max())
        _assert_all(bad, gap <= 1e-12, f"policy output off the independent forward by {gap:.3g}")
        again = self.learning.Policy.load(path, steer_max=policy.steer_max)
        _assert_all(bad, np.array_equal(again.mlp.forward(obs)[0], got)
                    and all(again.mean_steer(o) == policy.mean_steer(o) for o in obs[:16]),
                    "reloaded policy is not bit-identical")
        if bad:
            p.fail(range(PPO_ITERATIONS), ["ppo", *bad])


WORKLOADS = {"classical_grid": ClassicalGrid, "mpc_lap": MpcLap, "ppo_train": PpoTrain}


def machine() -> dict:
    import numpy as np

    from trackbench import kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "using_numba": bool(kernels.USING_NUMBA),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    t0 = perf_counter()
    work = WORKLOADS[args.workload](args.seed, out)
    setup_s = perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        passes = work.run_traced(tracer)
    else:
        passes = []
        start = perf_counter()
        while True:
            passes.append(work.run())
            if perf_counter() - start + passes[-1].wall > args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for p in passes:
        work.check(p)
    digests = sorted({p.digest for p in passes if p.digest})
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "attempted": sum(p.ops for p in passes),
        "failed": sum(len(p.failed) for p in passes),
        "correct": len(digests) <= 1 and not any(p.wrong for p in passes),
        "failures": sorted({r for p in passes for r in p.failed.values()})[:20],
        "digest": digests,
        "setup_s": setup_s,
        "pass_wall_s": [p.wall for p in passes],
        "pass_steps": [p.steps for p in passes],
        "machine": machine(),
    }
    if tracer is None:
        result["wall_s"] = statistics.median(p.wall for p in passes)
        result["steps_per_s"] = statistics.median(p.steps / p.wall for p in passes)
        result["peak_rss_mb"] = peak_rss_mb
    else:
        traced = next(p for p in passes if p.traced)
        untraced_wall = statistics.mean(p.wall for p in passes if not p.traced)
        result["tracing_overhead"] = traced.wall / untraced_wall - 1.0
        result["unwrapped"] = tracer.missing
        result["per_layer"] = per_layer_metrics(tracer, traced.steps, traced.steps_by_controller,
                                                [r for _, r in traced.solves], work.iterations)
        tracer.save(out / "spans.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
