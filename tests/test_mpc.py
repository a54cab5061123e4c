import math

import numpy as np
import pytest

from trackbench import kernels
from trackbench.mpc import (
    MpcBounds,
    MpcConfig,
    MpcController,
    MpcWeights,
    OptSettings,
    build_reference,
    design_params,
    optimize,
    predict,
    stage_cost,
)
from trackbench.track import Track, racetrack, straight_track

from test_kernels import _mpc_cost_kin_step_loop


def tile_u(u, m):
    return np.tile(np.asarray(u, dtype=np.float64), (m, 1))


def test_predict_stationary_stays_put(params):
    cfg = MpcConfig(ts=0.1, p=8, m=3)
    pred = predict((2.0, -1.0, 0.5, 0.0), np.zeros((3, 2)), cfg, params)
    assert pred.shape == (8, 4)
    assert np.allclose(pred, np.tile([2.0, -1.0, 0.5, 0.0], (8, 1)), atol=1e-15)


def test_predict_straight_line_advance(params):
    cfg = MpcConfig(ts=0.1, p=5, m=1)
    pred = predict((0.0, 0.0, 0.0, 10.0), np.zeros((1, 2)), cfg, params)
    assert np.allclose(pred[:, 0], [1.0, 2.0, 3.0, 4.0, 5.0], atol=1e-12)
    assert np.allclose(pred[:, 1], 0.0, atol=1e-15)
    assert np.allclose(pred[:, 3], 10.0, atol=1e-15)


def test_predict_holds_last_control_beyond_m(params):
    cfg = MpcConfig(ts=0.1, p=4, m=2)
    seq = np.array([[1.0, 0.0], [0.5, 0.0]])
    pred = predict((0.0, 0.0, 0.0, 0.0), seq, cfg, params)
    # v accumulates 1.0*Ts then 0.5*Ts held for the remaining steps
    assert np.allclose(pred[:, 3], [0.1, 0.15, 0.2, 0.25], atol=1e-12)


def test_stage_cost_zero_on_reference(params):
    cfg = MpcConfig(ts=0.05, p=6, m=2)
    prev_u = (0.4, 0.02)
    seq = tile_u(prev_u, 2)
    pred = predict((0.0, 0.0, 0.0, 8.0), seq, cfg, params)
    assert stage_cost(pred, pred.copy(), seq, prev_u, cfg) == 0.0


def test_stage_cost_hand_value():
    cfg = MpcConfig(
        ts=0.1, p=2, m=1,
        weights=MpcWeights(pos=1.0, head=0.0, vel=0.0, d_accel=0.5, d_steer=0.0),
    )
    pred = np.zeros((2, 4))
    refs = np.zeros((2, 4))
    refs[0, 1] = -1.0  # 1 m position error at step 1
    refs[1, 0] = -2.0  # 2 m position error at step 2
    seq = np.array([[1.0, 0.0]])
    # pos: 1^2 + 2^2 = 5; input move: 0.5 * (1 - 0)^2 = 0.5
    assert stage_cost(pred, refs, seq, (0.0, 0.0), cfg) == pytest.approx(5.5, rel=1e-12)


def test_stage_cost_scales_with_weights(rng):
    w1 = MpcWeights(pos=1.0, head=3.0, vel=0.3, d_accel=0.05, d_steer=1.0)
    w2 = MpcWeights(pos=2.0, head=6.0, vel=0.6, d_accel=0.10, d_steer=2.0)
    c1 = MpcConfig(ts=0.05, p=5, m=2, weights=w1)
    c2 = MpcConfig(ts=0.05, p=5, m=2, weights=w2)
    for _ in range(50):
        pred = rng.normal(size=(5, 4))
        refs = rng.normal(size=(5, 4))
        seq = rng.normal(size=(2, 2))
        prev = (float(rng.normal()), float(rng.normal()))
        a = stage_cost(pred, refs, seq, prev, c1)
        b = stage_cost(pred, refs, seq, prev, c2)
        assert b == pytest.approx(2.0 * a, rel=1e-12)


def test_stage_cost_rejects_wrong_reference_length(params):
    cfg = MpcConfig(ts=0.05, p=4, m=1)
    with pytest.raises(ValueError):
        stage_cost(np.zeros((4, 4)), np.zeros((3, 4)), np.zeros((1, 2)), (0.0, 0.0), cfg)


def test_optimize_no_error_no_action(params):
    track = straight_track(100.0, spacing=1.0, v_ref=8.0)
    cfg = MpcConfig(ts=0.05, p=10, m=3)
    refs, _, _ = build_reference(track, (0.0, 0.0, 0.0, 8.0), cfg)
    res = optimize((0.0, 0.0, 0.0, 8.0), refs, (0.0, 0.0), cfg, params)
    assert abs(res.seq[0, 0]) < 1e-3
    assert abs(res.seq[0, 1]) < 1e-3


def test_optimize_matches_grid_search_single_step(params):
    cfg = MpcConfig(ts=0.1, p=1, m=1, opt=OptSettings(max_iter=200))
    b = cfg.bounds
    w = cfg.weights
    track = straight_track(100.0, spacing=1.0, v_ref=8.0)
    rng = np.random.default_rng(19)
    for _ in range(5):
        state = (
            float(rng.uniform(5.0, 20.0)),
            float(rng.uniform(-1.0, 1.0)),
            float(rng.uniform(-0.3, 0.3)),
            float(rng.uniform(5.0, 10.0)),
        )
        refs, _, _ = build_reference(track, state, cfg)
        res = optimize(state, refs, (0.0, 0.0), cfg, params)
        grid_best = math.inf
        for a in np.linspace(b.accel_min, b.accel_max, 21):
            for d in np.linspace(-b.steer_max, b.steer_max, 21):
                c = kernels.mpc_cost(
                    state[0], state[1], state[2], state[3],
                    np.array([[a, d]]), 0.0, 0.0, refs,
                    cfg.ts, params.wheelbase, params.dist_rear,
                    w.pos, w.head, w.vel, w.d_accel, w.d_steer,
                    b.v_max, b.accel_rate, b.steer_rate, b.soft_penalty,
                )
                grid_best = min(grid_best, c)
        assert res.cost <= grid_best + 1e-6


def test_optimize_steers_toward_path(params):
    track = straight_track(100.0, spacing=1.0, v_ref=8.0)
    cfg = MpcConfig(ts=0.05, p=10, m=3)
    above, _, _ = build_reference(track, (10.0, 1.0, 0.0, 8.0), cfg)
    res = optimize((10.0, 1.0, 0.0, 8.0), above, (0.0, 0.0), cfg, params)
    assert res.seq[0, 1] < 0.0  # left of the path, steer right
    below, _, _ = build_reference(track, (10.0, -1.0, 0.0, 8.0), cfg)
    res = optimize((10.0, -1.0, 0.0, 8.0), below, (0.0, 0.0), cfg, params)
    assert res.seq[0, 1] > 0.0


def test_optimize_respects_bounds(params):
    track = straight_track(100.0, spacing=1.0, v_ref=8.0)
    bounds = MpcBounds(accel_min=-2.0, accel_max=1.5, steer_max=0.3)
    cfg = MpcConfig(ts=0.1, p=4, m=2, bounds=bounds, opt=OptSettings(max_iter=20))
    rng = np.random.default_rng(20)
    for _ in range(200):
        state = (
            float(rng.uniform(0.0, 80.0)),
            float(rng.uniform(-4.0, 4.0)),
            float(rng.uniform(-1.0, 1.0)),
            float(rng.uniform(0.0, 15.0)),
        )
        warm = rng.uniform(-10.0, 10.0, size=(2, 2))
        refs, _, _ = build_reference(track, state, cfg)
        prev = (float(rng.uniform(-8.0, 8.0)), float(rng.uniform(-1.0, 1.0)))
        res = optimize(state, refs, prev, cfg, params, warm=warm)
        assert np.all(res.seq[:, 0] >= bounds.accel_min - 1e-15)
        assert np.all(res.seq[:, 0] <= bounds.accel_max + 1e-15)
        assert np.all(np.abs(res.seq[:, 1]) <= bounds.steer_max + 1e-15)


def test_optimize_never_worse_than_start(params):
    track = straight_track(100.0, spacing=1.0, v_ref=8.0)
    cfg = MpcConfig(ts=0.05, p=8, m=3)
    rng = np.random.default_rng(21)
    for _ in range(20):
        state = (
            float(rng.uniform(0.0, 80.0)),
            float(rng.uniform(-2.0, 2.0)),
            float(rng.uniform(-0.5, 0.5)),
            float(rng.uniform(2.0, 12.0)),
        )
        refs, _, _ = build_reference(track, state, cfg)
        prev = (float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-0.5, 0.5)))
        seq0 = tile_u(prev, cfg.m)
        np.clip(seq0[:, 0], cfg.bounds.accel_min, cfg.bounds.accel_max, out=seq0[:, 0])
        np.clip(seq0[:, 1], -cfg.bounds.steer_max, cfg.bounds.steer_max, out=seq0[:, 1])
        start = stage_cost(predict(state, seq0, cfg, params), refs, seq0, prev, cfg)
        res = optimize(state, refs, prev, cfg, params)
        assert res.cost <= start + 1e-9


def test_optimize_is_deterministic(params):
    track = straight_track(100.0, spacing=1.0, v_ref=8.0)
    cfg = MpcConfig(ts=0.05, p=12, m=4)
    state = (5.0, 0.7, 0.1, 8.0)
    refs, _, _ = build_reference(track, state, cfg)
    a = optimize(state, refs, (0.0, 0.0), cfg, params)
    b = optimize(state, refs, (0.0, 0.0), cfg, params)
    assert np.array_equal(a.seq, b.seq)
    assert a.cost == b.cost
    assert a.iterations == b.iterations


def test_warm_start_cuts_iterations(params):
    track = straight_track(200.0, spacing=1.0, v_ref=8.0)
    cfg = MpcConfig(ts=0.05, p=12, m=4)
    rng = np.random.default_rng(22)
    saved = []
    for _ in range(10):
        state = (
            float(rng.uniform(0.0, 100.0)),
            float(rng.uniform(-1.0, 1.0)),
            float(rng.uniform(-0.2, 0.2)),
            float(rng.uniform(6.0, 10.0)),
        )
        refs, _, _ = build_reference(track, state, cfg)
        first = optimize(state, refs, (0.0, 0.0), cfg, params)
        u = (float(first.seq[0, 0]), float(first.seq[0, 1]))
        nxt = kernels.kin_step(
            state[0], state[1], state[2], state[3], u[0], u[1], cfg.ts,
            params.wheelbase, params.dist_rear,
        )
        refs2, _, _ = build_reference(track, nxt, cfg)
        warm = np.vstack([first.seq[1:], first.seq[-1:]])
        hot = optimize(nxt, refs2, u, cfg, params, warm=warm)
        cold = optimize(nxt, refs2, u, cfg, params)
        saved.append(cold.iterations - hot.iterations)
        assert hot.cost <= cold.cost + 1e-6
    assert np.median(saved) >= 0
    assert sum(saved) > 0


def test_build_reference_straight_spacing(params):
    track = straight_track(100.0, spacing=1.0, v_ref=8.0)
    cfg = MpcConfig(ts=0.05, p=6, m=2)
    refs, idx, end = build_reference(track, (0.0, 0.0, 0.0, 8.0), cfg)
    assert idx == 0
    assert not end
    assert np.allclose(refs[:, 0], 0.4 * np.arange(1, 7), atol=1e-9)
    assert np.allclose(refs[:, 1], 0.0, atol=1e-12)
    assert np.allclose(refs[:, 2], 0.0, atol=1e-12)
    assert np.allclose(refs[:, 3], 8.0, atol=1e-12)


def test_build_reference_open_track_end(params):
    track = straight_track(10.0, spacing=1.0, v_ref=8.0)
    cfg = MpcConfig(ts=0.1, p=10, m=2)
    refs, _, end = build_reference(track, (9.5, 0.0, 0.0, 8.0), cfg)
    assert end
    assert refs[-1, 0] == pytest.approx(10.0, abs=1e-9)  # clamped to last waypoint
    assert refs[-1, 3] == 0.0  # asks for a stop past the end


def _build_reference_four_lookups(track, state, cfg, hint=None):
    """build_reference with a separate arc-length lookup for each quantity:
    the reference the one-lookup form must equal bit for bit."""
    near = track.nearest(state[0], state[1], hint)
    refs = np.empty((cfg.p, 4))
    s = near.s
    end = False
    for i in range(cfg.p):
        v_here = track.v_ref_at_s(s)
        s_next = s + max(v_here, 0.1) * cfg.ts
        clamped = False
        if not track.closed and s_next >= track.length:
            s_next = track.length
            end = True
            clamped = True
        px, py = track.point_at_s(s_next)
        refs[i, 0] = px
        refs[i, 1] = py
        refs[i, 2] = track.tangent_at_s(s_next)
        refs[i, 3] = 0.0 if clamped else track.v_ref_at_s(s_next)
        s = s_next
    return refs, near.index, end


def test_build_reference_equals_four_lookup_form():
    rng = np.random.default_rng(24)
    # open track whose speed ramps to 0 at the end (the 0.1 m/s floor), and
    # a closed track with uneven speeds and uneven spacing
    n = 61
    open_track = Track(np.linspace(0.0, 60.0, n), 0.5 * np.sin(np.linspace(0.0, 6.0, n)),
                       np.linspace(9.0, 0.0, n))
    loop = racetrack(40.0, 12.0, spacing=1.7)
    loop = Track(loop.xs, loop.ys, rng.uniform(0.0, 14.0, loop.npts), closed=True)
    clamped = 0
    for track in (open_track, loop):
        for _ in range(300):
            cfg = MpcConfig(ts=float(rng.uniform(0.02, 0.3)), p=int(rng.integers(1, 30)), m=1)
            k = int(rng.integers(0, track.npts))
            state = (float(track.xs[k] + rng.normal(0.0, 0.5)),
                     float(track.ys[k] + rng.normal(0.0, 0.5)), 0.0, 8.0)
            hint = None if rng.random() < 0.5 else max(k - 2, 0)
            got = build_reference(track, state, cfg, hint)
            want = _build_reference_four_lookups(track, state, cfg, hint)
            assert np.array_equal(got[0], want[0])
            assert got[1:] == want[1:]
            clamped += got[2]
    assert clamped > 0


def test_converged_solve_is_stationary_at_floor_step(bench_track, params):
    # a converged sequence has no single floor-step probe that lowers its
    # cost; cold starts need more sweeps than the default cap to converge
    cfg = MpcConfig(ts=0.05, p=20, m=4, opt=OptSettings(max_iter=400))
    b, w = cfg.bounds, cfg.weights
    floor = (1e-4 * (b.accel_max - b.accel_min), 2e-4 * b.steer_max)
    lo, hi = (b.accel_min, -b.steer_max), (b.accel_max, b.steer_max)
    rng = np.random.default_rng(25)
    converged = 0
    for _ in range(30):
        k = int(rng.integers(0, bench_track.nseg))
        heading = float(bench_track.seg_tangent[k])
        state = (float(bench_track.xs[k] - math.sin(heading) * rng.uniform(-1.0, 1.0)),
                 float(bench_track.ys[k] + math.cos(heading) * rng.uniform(-1.0, 1.0)),
                 heading + float(rng.uniform(-0.2, 0.2)), float(rng.uniform(6.0, 12.0)))
        refs, _, _ = build_reference(bench_track, state, cfg)
        prev = (float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-0.2, 0.2)))
        res = optimize(state, refs, prev, cfg, params)
        if res.status != "converged":
            continue
        converged += 1
        for row in range(cfg.m):
            for col in range(2):
                for sign in (1.0, -1.0):
                    probe = res.seq.copy()
                    probe[row, col] = min(max(probe[row, col] + sign * floor[col], lo[col]),
                                          hi[col])
                    c = kernels.mpc_cost(
                        *state, probe, *prev, refs, cfg.ts, params.wheelbase,
                        params.dist_rear, w.pos, w.head, w.vel, w.d_accel, w.d_steer,
                        b.v_max, b.accel_rate, b.steer_rate, b.soft_penalty)
                    assert c >= res.cost
    assert converged >= 20


@pytest.mark.parametrize("bounds", [
    MpcBounds(),
    MpcBounds(accel_rate=20.0, steer_rate=0.5, v_max=9.0, soft_penalty=50.0),
], ids=["soft_off", "soft_on"])
def test_optimize_same_with_kin_step_loop_cost(bench_track, params, monkeypatch, bounds):
    # the whole solve, not only one evaluation, equals a solve over the
    # kin_step-loop reference cost: same probes, same accepted moves
    cfg = MpcConfig(ts=0.05, p=20, m=4, bounds=bounds)
    rng = np.random.default_rng(27)
    cases = []
    for _ in range(4):
        k = int(rng.integers(0, bench_track.nseg))
        heading = float(bench_track.seg_tangent[k])
        offset = float(rng.uniform(-1.0, 1.0))
        state = (float(bench_track.xs[k]) - math.sin(heading) * offset,
                 float(bench_track.ys[k]) + math.cos(heading) * offset,
                 heading + float(rng.uniform(-0.2, 0.2)), float(rng.uniform(6.0, 12.0)))
        refs, _, _ = build_reference(bench_track, state, cfg)
        prev = (float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-0.2, 0.2)))
        warm = None if len(cases) % 2 == 0 else rng.uniform(-0.3, 0.3, size=(cfg.m, 2))
        cases.append((state, refs, prev, warm))
    fused = [optimize(s, r, u, cfg, params, w) for s, r, u, w in cases]
    monkeypatch.setattr(kernels, "mpc_cost", _mpc_cost_kin_step_loop)
    for (s, r, u, w), got in zip(cases, fused):
        ref = optimize(s, r, u, cfg, params, w)
        assert got.seq.tobytes() == ref.seq.tobytes()
        assert got.cost == ref.cost
        assert (got.iterations, got.evaluations) == (ref.iterations, ref.evaluations)


def test_controller_straight_track_near_zero_steer(params):
    track = straight_track(100.0, spacing=1.0, v_ref=8.0)
    ctrl = MpcController(MpcConfig(ts=0.05, p=10, m=3), params)
    accel, steer = ctrl.step((0.0, 0.0, 0.0, 8.0), track)
    assert abs(steer) < math.radians(0.5)
    assert ctrl.last_result is not None
    assert ctrl.last_result.status in ("converged", "iteration-capped")


def test_controller_is_reproducible(params):
    track = straight_track(100.0, spacing=1.0, v_ref=8.0)
    outs = []
    for _ in range(2):
        ctrl = MpcController(MpcConfig(ts=0.05, p=10, m=3), params)
        state = (0.0, 0.8, 0.05, 7.0)
        seq = []
        for _ in range(5):
            u = ctrl.step(state, track)
            seq.append(u)
            state = kernels.kin_step(
                state[0], state[1], state[2], state[3], u[0], u[1], 0.05,
                params.wheelbase, params.dist_rear,
            )
        outs.append(seq)
    assert outs[0] == outs[1]


def test_latency_compensation_recovers_tracking(bench_track, params):
    # 4 sim steps of actuator delay at dt = Ts: the compensated controller
    # forward-simulates through the queued commands and keeps tracking tight
    from trackbench.models import VehicleState
    from trackbench.sim import MpcLateral, Paired, SimConfig, simulate

    rms = {}
    for latency in (0, 4):
        cfg = MpcConfig(ts=0.05, p=20, m=4, latency_steps=latency)
        lat = MpcLateral(cfg, params, dt=0.05)
        init = VehicleState(x=bench_track.xs[0], y=bench_track.ys[0] + 0.3, theta=0.0, v=8.0)
        rec = simulate(
            SimConfig(dt=0.05, initial=init, actuator_delay_steps=4),
            bench_track, params, Paired(lat, lat),
        )
        assert rec.termination == "completed"
        e = rec.column("e_ct")
        rms[latency] = float(np.sqrt(np.mean(e * e)))
    assert rms[4] < 0.5 * rms[0]
    assert rms[4] < 0.1


def test_both_channels_of_a_solve_apply_on_the_same_step(params):
    # paired with itself, the MPC's acceleration and steering of one solve
    # reach the plant on the step of that solve, and are held for tick steps
    from trackbench.models import VehicleState
    from trackbench.sim import MpcLateral, Paired, SimConfig, simulate

    track = racetrack(100.0, 20.0, v_ref=12.0)
    init = VehicleState(x=float(track.xs[0]), y=float(track.ys[0]) + 0.5, theta=0.0, v=10.0)
    lat = MpcLateral(MpcConfig(ts=0.05, p=20, m=4), params, dt=0.025)
    planned = []
    solve = lat.controller.step

    def recording_solve(state, trk):
        planned.append(solve(state, trk))
        return planned[-1]

    lat.controller.step = recording_solve
    rec = simulate(SimConfig(dt=0.025, initial=init, max_steps=8), track, params, Paired(lat, lat))
    assert lat.tick == 2 and len(planned) == 4
    applied = list(zip(rec.column("accel").tolist(), rec.column("steer").tolist()))
    assert applied == [u for u in planned for _ in range(lat.tick)]


def test_design_params_hand_values():
    out = design_params(2.0, 5.0)
    assert out["ts"] == pytest.approx((0.1, 0.2), rel=1e-12)
    assert out["p"] == (50, 75)
    assert out["m"] == (5, 10)
    out = design_params(1.0, 1.0)
    assert out["ts"] == pytest.approx((0.05, 0.1), rel=1e-12)
    assert out["p"] == (20, 30)
    assert out["m"] == (2, 4)


def test_design_params_rejects_nonpositive():
    with pytest.raises(ValueError):
        design_params(0.0, 5.0)
    with pytest.raises(ValueError):
        design_params(2.0, -1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        MpcConfig(ts=0.0)
    with pytest.raises(ValueError):
        MpcConfig(p=4, m=5)
    with pytest.raises(ValueError):
        MpcConfig(latency_steps=-1)
    with pytest.raises(ValueError):
        MpcWeights(pos=-1.0)
    for name in ("pos", "head", "vel", "d_accel", "d_steer"):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=name):
                MpcWeights(**{name: bad})
    with pytest.raises(ValueError):
        MpcBounds(accel_min=3.0, accel_max=-6.0)
    with pytest.raises(ValueError):
        OptSettings(max_iter=0)
