"""End-to-end acceptance checks.

Each test exercises one headline guarantee at its stated tolerance and time
budget and prints a single PASS line with the measured numbers.
"""

import math
import time

import numpy as np
import pytest

from trackbench import kernels
from trackbench.classical import (
    OutputShaper,
    PidController,
    PidGains,
    bang_bang_step,
)
from trackbench.geometric import (
    PurePursuitConfig,
    StanleyConfig,
    pure_pursuit_steer,
    stanley_steer,
)
from trackbench.learning import (
    LaneKeepEnv,
    Policy,
    balance_dataset,
    clone_behavior,
    collect_expert_dataset,
    evaluate_policy,
    ppo_surrogate,
    train_ppo,
)
from trackbench.models import (
    ControlInput,
    StateDerivative,
    VehicleParams,
    VehicleState,
    kinematic_derivatives,
    lateral_accel,
    longitudinal_accel,
    slip_angle,
    step_second_order,
    turn_radius,
)
from trackbench.mpc import MpcConfig, MpcLateral, build_reference, design_params, optimize
from trackbench.nn import AdamState, Mlp, adam_step, grad_list, loss, loss_grad
from trackbench.sim import (
    BangBangLateral,
    CouplingConfig,
    LongitudinalPid,
    Paired,
    PidLateral,
    PurePursuitLateral,
    SimConfig,
    StanleyLateral,
    compute_metrics,
    couple_limits,
    simulate,
)
from trackbench.track import TrackingErrors, racetrack


def _report(n: int, msg: str) -> None:
    print(f"\nACCEPTANCE {n} PASS: {msg}")


def test_criterion_1_circle_drive(params):
    t0 = time.perf_counter()
    dt = 1e-3
    steer = 0.3
    v = 8.0
    steps = 20000
    beta = slip_angle(steer, params)
    radius = turn_radius(steer, params)
    cx = -radius * math.sin(beta)
    cy = radius * math.cos(beta)
    seq = np.array([[0.0, steer]])
    out = np.empty((steps, 4))
    kernels.kin_rollout(0.0, 0.0, 0.0, v, seq, dt, params.wheelbase,
                        params.dist_rear, out)
    dist = np.hypot(out[:, 0] - cx, out[:, 1] - cy)
    worst = float(np.max(np.abs(dist - radius) / radius))
    elapsed = time.perf_counter() - t0
    assert worst < 0.005
    assert elapsed < 1.0
    _report(1, f"constant-steer circle radius error {worst:.2e} (< 0.5%) "
               f"over {steps} steps at dt={dt:g} in {elapsed:.2f}s")


def _fd_gradient(net, x, y, h=1e-6):
    flat = net.get_flat()
    out = np.empty_like(flat)
    for i in range(flat.size):
        probe = flat.copy()
        probe[i] = flat[i] + h
        net.set_flat(probe)
        up = loss(net(x), y, "mse")
        probe[i] = flat[i] - h
        net.set_flat(probe)
        down = loss(net(x), y, "mse")
        out[i] = (up - down) / (2.0 * h)
    net.set_flat(flat)
    return out


def test_criterion_2_backprop_vs_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    acts = ("relu", "tanh", "sigmoid", "linear")
    worst = 0.0
    for _ in range(100):
        depth = int(rng.integers(1, 3))
        sizes = [int(rng.integers(2, 7)) for _ in range(depth + 2)]
        hidden_acts = [acts[int(rng.integers(4))] for _ in range(depth)]
        net = Mlp(sizes, hidden_acts + ["linear"], rng=rng)
        while True:
            x = rng.normal(size=(3, sizes[0]))
            y = rng.normal(size=(3, sizes[-1]))
            out, cache = net.forward(x)
            margins = [np.min(np.abs(z)) for z, kind in zip(cache.zs, net.activations)
                       if kind == "relu"]
            if not margins or min(margins) > 1e-4:
                break
        analytic = np.concatenate(
            [g.ravel() for g in grad_list(net.backward(cache, loss_grad(out, y, "mse")))]
        )
        numeric = _fd_gradient(net, x, y)
        err = float(np.max(np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))))
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-5
    assert elapsed < 10.0
    _report(2, f"100 random nets: worst backprop-vs-FD gradient error {worst:.2e} "
               f"(< 1e-5) in {elapsed:.2f}s")


def test_criterion_3_hand_check_oracles(params):
    checks = []

    def check(name, got, want, tol):
        checks.append(name)
        assert got == pytest.approx(want, abs=tol), name

    delta = 0.349066  # printed-precision 20 degrees
    check("slip angle", slip_angle(delta, params), 0.180015, 1e-6)
    # the 6-digit published value rounds the same quantity
    assert abs(slip_angle(delta, params) - 0.180013) < 5e-6
    check("turn rate",
          kinematic_derivatives(VehicleState(v=10.0),
                                ControlInput(steer=delta), params).dtheta,
          1.4323559898379976, 1e-9)
    check("angle wrap", kernels.wrap_angle(3.2), 3.2 - 2.0 * math.pi, 1e-12)
    check("longitudinal accel",
          longitudinal_accel(10.0, 10.0,
                             VehicleParams(wheel_radius=0.3, mass=1000.0,
                                           aero_coeff=1.0, roll_coeff=50.0)),
          2.4, 1e-12)
    ay, rdot = lateral_accel(
        0.0, 0.0, 10.0, 0.1,
        VehicleParams(mass=1000.0, yaw_inertia=1500.0, corner_stiff_front=50000.0,
                      corner_stiff_rear=50000.0, dist_rear=1.25))
    check("lateral accel", ay, 5.0, 1e-12)
    check("yaw accel", rdot, 4.166666666666667, 1e-12)
    check("second-order step",
          step_second_order(VehicleState(), StateDerivative(dx=10.0),
                            StateDerivative(dx=2.0), 0.1).x, 1.01, 1e-12)
    check("slew limit", OutputShaper(max_rate=2.0).shape(1.0, 0.0, 1.0, 0.1), 0.2, 1e-12)
    pid = PidController(PidGains(kp=1.0, ki=0.0, kd=0.1))
    pid.step(0.3, 0.1)
    check("pid step", pid.step(0.5, 0.1), 0.7, 1e-12)
    d_max = math.radians(70.0)
    check("relay scaling", bang_bang_step(-1.0, 0.0, d_max, -d_max, scale=0.1),
          math.radians(7.0), 1e-12)
    check("pure pursuit", pure_pursuit_steer(
        PurePursuitConfig(), math.radians(30.0), 10.0, params),
        0.244979, 1e-6)
    errors = TrackingErrors(cross_track=1.0, heading=0.1, speed=0.0,
                            nearest_index=0, s=0.0)
    check("stanley", stanley_steer(StanleyConfig(k_delta=2.5), errors, 9.0),
          0.344979, 1e-6)
    check("lookahead alpha", -math.asin(2.0 / 10.0), -0.201358, 1e-6)
    net = Mlp([2, 1], ["linear"], rng=0)
    net.weights[0][...] = [[1.0, 2.0]]
    net.biases[0][...] = [0.5]
    check("mlp forward", float(net(np.array([[1.0, 1.0]]))[0, 0]), 3.5, 1e-12)
    check("mse", loss(np.array([1.0, 2.0]), np.zeros(2), "mse"), 2.5, 1e-12)
    check("cross entropy", loss(np.array([[0.5]]), np.array([[1.0]]), "cross_entropy"),
          0.6931471805599453, 1e-12)
    check("ppo clip high", float(ppo_surrogate(2.0, 1.0, 0.2)), 1.2, 1e-12)
    check("ppo clip low", float(ppo_surrogate(0.5, -2.0, 0.2)), -1.6, 1e-12)
    p = [np.array([0.7])]
    st = AdamState(p, alpha=1e-3)
    adam_step(st, p, [np.array([42.0])])
    check("adam first step", abs(0.7 - p[0][0]), 1e-3, 1e-9)
    ranges = design_params(2.0, 5.0)
    assert ranges["ts"] == pytest.approx((0.1, 0.2), rel=1e-12)
    assert ranges["p"] == (50, 75)
    assert ranges["m"] == (5, 10)
    checks.append("mpc design ranges")
    rows = np.zeros((3, 10))
    rows[:, 6] = [0.0, 0.1, 0.1]
    check("steer rate metric", compute_metrics(rows, 0.1, 1.0).mean_abs_steer_rate,
          0.5, 1e-12)
    cpl = CouplingConfig(mode="long_dominant", c_speed=10.0)
    check("coupled steer limit", couple_limits(cpl, 10.0, 0.0, 30.0, 0.6)[1], 0.3, 1e-12)
    _report(3, f"{len(checks)} hand-check oracles matched at stated tolerances")


def test_criterion_4_controller_ladder(bench_track, params):
    t0 = time.perf_counter()
    track = bench_track

    def start():
        return VehicleState(x=float(track.xs[0]), y=float(track.ys[0]) + 0.3,
                            theta=float(track.seg_tangent[0]), v=8.0)

    def speed_pid():
        return LongitudinalPid(PidController(PidGains(1.2, 0.1, 0.0)))

    def run(lateral, longitudinal=None):
        cfg = SimConfig(initial=start())
        return simulate(cfg, track, params, Paired(lateral, longitudinal or speed_pid()))

    def rms(rec):
        e = rec.column("e_ct")
        return float(np.sqrt(np.mean(e * e)))

    bang = run(BangBangLateral(params.steer_max, scale=0.1))
    steer = bang.column("steer")
    signs = np.sign(steer[np.abs(steer) > 1e-12])
    flips = int(np.sum(signs[1:] != signs[:-1]))
    assert bang.termination != "completed" or bang.metrics.completion < 1.0
    assert flips > 50

    pid = run(PidLateral(PidController(PidGains(0.5, 0.1, 0.15))))
    assert pid.termination == "completed"
    pid_rms = rms(pid)
    assert pid_rms < 0.6

    pp = run(PurePursuitLateral(PurePursuitConfig()))
    assert pp.termination == "completed"
    pp_rms = rms(pp)
    assert pp_rms < 0.3

    stanley = run(StanleyLateral(StanleyConfig()))
    assert stanley.termination == "completed"
    st_rms = rms(stanley)
    assert st_rms < 0.3
    t = stanley.column("t")
    x = stanley.column("x")
    y = stanley.column("y")
    e_head = stanley.column("e_head")
    straights = (t > 3.0) & (x > 10.0) & (x < 90.0) & (
        (np.abs(y) < 2.0) | (np.abs(y - 40.0) < 2.0))
    assert straights.any()
    worst_heading = float(np.max(np.abs(e_head[straights])))
    assert worst_heading < 0.05

    mpc_lat = MpcLateral(MpcConfig(ts=0.05, p=20, m=4), dt=0.02)
    mpc = run(mpc_lat, mpc_lat)
    assert mpc.termination == "completed"
    mpc_rms = rms(mpc)
    assert mpc_rms < 0.15
    assert mpc_rms <= st_rms

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(4, "ladder ordering holds: relay fails "
               f"(completion {bang.metrics.completion:.2f}, {flips} sign flips), "
               f"pid {pid_rms:.3f} < 0.6, pure pursuit {pp_rms:.3f} < 0.3, "
               f"stanley {st_rms:.3f} < 0.3 (straight heading {worst_heading:.3f} < 0.05), "
               f"mpc {mpc_rms:.3f} < 0.15 and <= stanley, in {elapsed:.1f}s")


def test_criterion_5_mpc_single_step_optimality(bench_track, params):
    t0 = time.perf_counter()
    cfg = MpcConfig(ts=0.1, p=1, m=1)
    b = cfg.bounds
    w = cfg.weights
    rng = np.random.default_rng(5)
    accel_grid = np.linspace(b.accel_min, b.accel_max, 41)
    steer_grid = np.linspace(-b.steer_max, b.steer_max, 41)
    worst_gap = -math.inf
    for _ in range(50):
        s0 = float(rng.uniform(0.0, bench_track.length))
        px, py = bench_track.point_at_s(s0)
        tangent = bench_track.tangent_at_s(s0)
        state = (
            px + float(rng.uniform(-1.5, 1.5)),
            py + float(rng.uniform(-1.5, 1.5)),
            kernels.wrap_angle(tangent + float(rng.uniform(-0.4, 0.4))),
            float(rng.uniform(4.0, 11.0)),
        )
        refs, _, _ = build_reference(bench_track, state, cfg)
        prev = (float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-0.4, 0.4)))
        res = optimize(state, refs, prev, cfg, params)
        grid_best = math.inf
        for a in accel_grid:
            for d in steer_grid:
                c = kernels.mpc_cost(
                    state[0], state[1], state[2], state[3],
                    np.array([[a, d]]), prev[0], prev[1], refs,
                    cfg.ts, params.wheelbase, params.dist_rear,
                    w.pos, w.head, w.vel, w.d_accel, w.d_steer,
                    b.v_max, b.accel_rate, b.steer_rate, b.soft_penalty,
                )
                grid_best = min(grid_best, c)
        worst_gap = max(worst_gap, res.cost - grid_best)
        assert res.cost <= grid_best + 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(5, f"pattern search matched or beat a 41x41 exhaustive grid on 50 "
               f"random states (worst gap {worst_gap:.2e} <= 1e-6) in {elapsed:.1f}s")


def test_criterion_6_behavioral_cloning(bench_track, params):
    t0 = time.perf_counter()
    obs, labels, expert = collect_expert_dataset(bench_track, params)
    obs, labels = balance_dataset(obs, labels, rng=np.random.default_rng(0))
    policy, history = clone_behavior(obs, labels, steer_max=params.steer_max, seed=0)
    rec = simulate(SimConfig(), bench_track, params,
                   Paired(policy, LongitudinalPid(PidController(PidGains(1.2, 0.1, 0.0)))))
    assert rec.termination == "completed"
    clone_rms = rec.metrics.rms_cross_track
    expert_rms = expert.metrics.rms_cross_track
    assert clone_rms <= 2.0 * expert_rms
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(6, f"clone completed the lap at rms {clone_rms:.4f} vs expert "
               f"{expert_rms:.4f} (ratio {clone_rms / expert_rms:.2f} <= 2) "
               f"in {elapsed:.1f}s")


def test_criterion_7_ppo_improves_on_random(bench_track, params):
    t0 = time.perf_counter()
    env = LaneKeepEnv(bench_track, params)
    policy = Policy(steer_max=params.steer_max, rng=np.random.default_rng(0))
    reward_0, err_0 = evaluate_policy(env, policy)
    policy, _ = train_ppo(env, policy, seed=0)
    reward_1, err_1 = evaluate_policy(env, policy)
    assert reward_1 > reward_0
    assert err_1 <= 0.5 * err_0
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(7, f"ppo: 20-episode mean reward {reward_0:.2f} -> {reward_1:.2f}, "
               f"mean |cross-track| {err_0:.3f} -> {err_1:.3f} "
               f"(<= half of random) in {elapsed:.0f}s")


def test_criterion_8_benchmark_reproducibility(tmp_path):
    from trackbench.benchmark import load_suite, run_suite

    t0 = time.perf_counter()
    suite = load_suite("reference")
    a = tmp_path / "a"
    b = tmp_path / "b"
    rows_a = run_suite(suite, a)
    rows_b = run_suite(suite, b)
    assert len(rows_a) == len(rows_b) > 0
    bytes_a = (a / "summary.csv").read_bytes()
    bytes_b = (b / "summary.csv").read_bytes()
    assert bytes_a == bytes_b
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(8, f"reference suite ({len(rows_a)} cells) reran byte-identical "
               f"({len(bytes_a)} summary bytes) in {elapsed:.1f}s")


def test_criterion_9_million_call_saturation_sweep():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    calls = 0
    clamp = lambda v, lo, hi: lo if v < lo else hi if v > hi else v

    # 400k output-shaping calls against an independently coded oracle
    for _ in range(100):
        lo = float(rng.uniform(-3.0, -0.1))
        hi = float(rng.uniform(0.1, 3.0))
        rate = float(rng.uniform(0.5, 50.0))
        dead = float(rng.uniform(0.0, 0.5))
        sh = OutputShaper(out_min=lo, out_max=hi, max_rate=rate, deadband=dead)
        raws = rng.uniform(-10.0, 10.0, 4000)
        prevs = rng.uniform(lo, hi, 4000)
        errs = rng.uniform(-2.0, 2.0, 4000)
        dts = rng.uniform(0.005, 0.1, 4000)
        for raw, prev, err, dt in zip(raws, prevs, errs, dts):
            out = sh.shape(raw, prev, err, dt)
            calls += 1
            span = rate * dt
            want = clamp(clamp(0.0 if abs(err) < dead else raw, lo, hi),
                         prev - span, prev + span)
            assert out == want
            assert lo - 1e-12 <= out <= hi + 1e-12         # output bounds
            assert abs(out - prev) <= span + 1e-12          # slew bound

    # 200k pid steps: integral clamp and finite output
    for _ in range(20):
        iclamp = float(rng.uniform(0.5, 5.0))
        kp, ki, kd = rng.uniform(0.0, 2.0, 3)
        pid = PidController(PidGains(kp, ki, kd), integral_clamp=iclamp,
                            buffer_len=200)
        errs = rng.uniform(-5.0, 5.0, 10000)
        dts = rng.uniform(0.005, 0.1, 10000)
        for e, dt in zip(errs, dts):
            u = pid.step(e, dt)
            calls += 1
            assert math.isfinite(u)
            assert abs(pid.integral) <= iclamp + 1e-12      # anti-windup clamp

    # 200k coupled-limit queries: effective limits stay in (0, base]
    modes = ("decoupled", "long_dominant", "lat_dominant", "mutual")
    for _ in range(40):
        cpl = CouplingConfig(
            mode=modes[int(rng.integers(4))],
            c_speed=float(rng.uniform(1.0, 20.0)),
            c_steer=float(rng.uniform(0.2, 4.0)),
            steer_scale=float(rng.uniform(0.0, 6.0)),
            w_long=float(rng.uniform(0.0, 2.0)),
            w_lat=float(rng.uniform(0.0, 2.0)),
        )
        vs = rng.uniform(0.0, 40.0, 5000)
        ds = rng.uniform(-1.0, 1.0, 5000)
        for v, d in zip(vs, ds):
            v_eff, d_eff = couple_limits(cpl, v, d, 30.0, 0.6)
            calls += 1
            assert 0.0 < v_eff <= 30.0 + 1e-12
            assert 0.0 < d_eff <= 0.6 + 1e-12

    # 200k relay calls: output is one of the three admissible levels
    for _ in range(4):
        u_max = float(rng.uniform(0.1, 2.0))
        u_min = -float(rng.uniform(0.1, 2.0))
        scale = float(rng.uniform(0.05, 1.0))
        allowed = {scale * u_max, scale * u_min, 0.0}
        xs = rng.uniform(-5.0, 5.0, 50000)
        refs = rng.uniform(-5.0, 5.0, 50000)
        for xv, ref in zip(xs, refs):
            out = bang_bang_step(xv, ref, u_max, u_min, scale=scale)
            calls += 1
            assert out in allowed

    elapsed = time.perf_counter() - t0
    assert calls == 1_000_000
    assert elapsed < 120.0
    _report(9, f"{calls:,} randomized saturation/shaping calls honored every "
               f"bound (output range, slew, integral clamp, relay levels) "
               f"in {elapsed:.1f}s")
