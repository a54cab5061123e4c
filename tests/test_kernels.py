import math

import numpy as np
import pytest

from trackbench import kernels
from trackbench.models import VehicleParams
from trackbench.mpc import MpcConfig, stage_cost


def test_wrap_angle_pinned_values():
    assert kernels.wrap_angle(3.2) == pytest.approx(-3.083185307179586, rel=1e-12)
    assert kernels.wrap_angle(math.pi) == pytest.approx(math.pi, rel=1e-15)
    assert kernels.wrap_angle(-math.pi) == pytest.approx(math.pi, rel=1e-15)
    assert kernels.wrap_angle(0.0) == 0.0


def test_wrap_angle_range_and_congruence():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        theta = float(rng.uniform(-50.0, 50.0))
        w = kernels.wrap_angle(theta)
        assert -math.pi < w <= math.pi + 1e-15
        # same angle modulo 2*pi
        assert math.remainder(theta - w, 2.0 * math.pi) == pytest.approx(0.0, abs=1e-9)


def test_kin_step_straight_line():
    x, y, theta, v = kernels.kin_step(0.0, 0.0, 0.0, 10.0, 0.0, 0.0, 0.1, 2.5, 1.25)
    assert (x, y, theta, v) == (1.0, 0.0, 0.0, 10.0)


def test_kin_step_matches_slip_formula():
    rng = np.random.default_rng(1)
    for _ in range(200):
        v = float(rng.uniform(0.1, 25.0))
        steer = float(rng.uniform(-0.6, 0.6))
        beta = kernels.kin_slip(steer, 1.25, 2.5)
        assert beta == pytest.approx(math.atan(0.5 * math.tan(steer)), rel=1e-12)
        x, y, theta, _ = kernels.kin_step(0.0, 0.0, 0.0, v, 0.0, steer, 0.01, 2.5, 1.25)
        assert x == pytest.approx(v * math.cos(beta) * 0.01, rel=1e-12)
        assert y == pytest.approx(v * math.sin(beta) * 0.01, rel=1e-12)
        assert theta == pytest.approx(
            v * math.tan(steer) * math.cos(beta) / 2.5 * 0.01, rel=1e-12)


def test_kin_rollout_holds_last_control():
    seq = np.array([[0.0, 0.0], [1.0, 0.0]])
    out = np.empty((5, 4))
    kernels.kin_rollout(0.0, 0.0, 0.0, 10.0, seq, 0.1, 2.5, 1.25, out)
    # accel 0 on step 1, then 1.0 held for steps 2..5
    assert out[0, 3] == pytest.approx(10.0)
    assert out[4, 3] == pytest.approx(10.4)
    # x strictly increasing, y stays 0 with zero steer
    assert np.all(np.diff(out[:, 0]) > 0)
    assert np.all(out[:, 1] == 0.0)


def test_kin_rollout_matches_single_steps():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        p = int(rng.integers(m, 8))
        seq = rng.uniform(-1.0, 1.0, (m, 2))
        out = np.empty((p, 4))
        kernels.kin_rollout(0.5, -0.2, 0.3, 6.0, seq, 0.05, 2.5, 1.25, out)
        x, y, th, v = 0.5, -0.2, 0.3, 6.0
        for i in range(p):
            j = min(i, m - 1)
            x, y, th, v = kernels.kin_step(
                x, y, th, v, seq[j, 0], seq[j, 1], 0.05, 2.5, 1.25)
            assert out[i, 0] == pytest.approx(x, rel=1e-14)
            assert out[i, 3] == pytest.approx(v, rel=1e-14)


def test_mpc_cost_agrees_with_reference_form():
    params = VehicleParams()
    cfg = MpcConfig(ts=0.05, p=12, m=4)
    rng = np.random.default_rng(3)
    for _ in range(100):
        state = (float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)),
                 float(rng.uniform(-3, 3)), float(rng.uniform(0, 15)))
        seq = np.column_stack([rng.uniform(-3, 3, cfg.m), rng.uniform(-0.6, 0.6, cfg.m)])
        refs = np.column_stack([
            rng.uniform(-5, 5, cfg.p), rng.uniform(-5, 5, cfg.p),
            rng.uniform(-3, 3, cfg.p), rng.uniform(0, 15, cfg.p)])
        prev = (float(rng.uniform(-1, 1)), float(rng.uniform(-0.3, 0.3)))
        from trackbench.mpc import predict
        pred = predict(state, seq, cfg, params)
        ref_cost = stage_cost(pred, refs, seq, prev, cfg)
        b, w = cfg.bounds, cfg.weights
        fused = kernels.mpc_cost(
            state[0], state[1], state[2], state[3], seq, prev[0], prev[1],
            refs, cfg.ts, params.wheelbase, params.dist_rear,
            w.pos, w.head, w.vel, w.d_accel, w.d_steer,
            b.v_max, b.accel_rate, b.steer_rate, b.soft_penalty)
        assert fused == pytest.approx(ref_cost, rel=1e-12, abs=1e-12)


def _mpc_cost_kin_step_loop(
    x, y, theta, v, seq, prev_a, prev_d, refs, dt, wheelbase, lr,
    w_pos, w_head, w_vel, w_da, w_ds, v_soft_max, accel_rate_max, steer_rate_max,
    soft_penalty,
):
    """The horizon cost as a loop of kin_step and wrap_angle calls: the
    reference that the fused kernel inlines."""
    p = refs.shape[0]
    m = seq.shape[0]
    cost = 0.0
    pa = prev_a
    pd = prev_d
    for i in range(p):
        j = i if i < m else m - 1
        a = seq[j, 0]
        d = seq[j, 1]
        da = a - pa
        dd = d - pd
        cost += w_da * da * da + w_ds * dd * dd
        if accel_rate_max > 0.0:
            ex = abs(da) - accel_rate_max * dt
            if ex > 0.0:
                cost += soft_penalty * ex * ex
        if steer_rate_max > 0.0:
            ex = abs(dd) - steer_rate_max * dt
            if ex > 0.0:
                cost += soft_penalty * ex * ex
        pa = a
        pd = d
        x, y, theta, v = kernels.kin_step(x, y, theta, v, a, d, dt, wheelbase, lr)
        dx = x - refs[i, 0]
        dy = y - refs[i, 1]
        eh = kernels.wrap_angle(theta - refs[i, 2])
        ev = refs[i, 3] - v
        cost += w_pos * (dx * dx + dy * dy) + w_head * eh * eh + w_vel * ev * ev
        if v_soft_max > 0.0:
            over = v - v_soft_max
            if over > 0.0:
                cost += soft_penalty * over * over
    return cost


def test_mpc_cost_equals_kin_step_loop():
    # headings span several turns on both sides, so every wrap is exercised;
    # odd cases pass the state as numpy scalars, as a simulated state can be
    rng = np.random.default_rng(23)
    for k in range(2400):
        p = int(rng.integers(1, 25))
        m = int(rng.integers(1, p + 1))
        state = [rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-12, 12),
                 rng.uniform(-2, 20)]
        if k % 2 == 0:
            state = [float(s) for s in state]
        seq = np.column_stack([rng.uniform(-6, 3, m), rng.uniform(-0.7, 0.7, m)])
        refs = np.column_stack([rng.uniform(-50, 50, p), rng.uniform(-50, 50, p),
                                rng.uniform(-12, 12, p), rng.uniform(0, 20, p)])
        prev = (float(rng.uniform(-6, 3)), float(rng.uniform(-0.7, 0.7)))
        # soft terms: all off, all on, or each on at random
        on = [k % 3 == 1 or (k % 3 == 2 and rng.random() < 0.5) for _ in range(3)]
        soft = (10.0 if on[0] else 0.0, 5.0 if on[1] else 0.0, 0.5 if on[2] else 0.0)
        args = (*state, seq, *prev, refs, 0.05, 2.5, 1.25,
                1.0, 3.0, 0.3, 0.05, 1.0, *soft, 10.0)
        assert kernels.mpc_cost(*args) == _mpc_cost_kin_step_loop(*args)


def test_nearest_on_polyline_matches_brute_force():
    rng = np.random.default_rng(4)
    n = 120
    ang = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    xs = 20.0 * np.cos(ang) + rng.normal(0, 0.3, n)
    ys = 12.0 * np.sin(ang) + rng.normal(0, 0.3, n)
    for closed in (True, False):
        nseg = n if closed else n - 1
        for _ in range(300):
            px = float(rng.uniform(-30, 30))
            py = float(rng.uniform(-20, 20))
            seg, t, dist = kernels.nearest_on_polyline(
                xs, ys, px, py, 0, nseg, nseg, n, closed)
            best = math.inf
            for i in range(nseg):
                j = (i + 1) % n
                ax, ay = xs[i], ys[i]
                bx, by = xs[j] - ax, ys[j] - ay
                tt = ((px - ax) * bx + (py - ay) * by) / (bx * bx + by * by)
                tt = min(1.0, max(0.0, tt))
                dd = (ax + tt * bx - px) ** 2 + (ay + tt * by - py) ** 2
                best = min(best, dd)
            assert dist == pytest.approx(math.sqrt(best), rel=1e-9, abs=1e-9)
            assert 0 <= seg < nseg
            assert 0.0 <= t <= 1.0


def test_nearest_on_polyline_tie_breaks_to_lower_segment():
    # square symmetric around the query: several segments share the distance
    xs = np.array([-1.0, 1.0, 1.0, -1.0])
    ys = np.array([-1.0, -1.0, 1.0, 1.0])
    seg, t, dist = kernels.nearest_on_polyline(xs, ys, 0.0, 0.0, 0, 4, 4, 4, True)
    assert seg == 0
    assert dist == pytest.approx(1.0, rel=1e-12)


def test_nearest_windowed_search_agrees_with_global():
    rng = np.random.default_rng(5)
    n = 200
    s = np.linspace(0, 60, n)
    xs = s
    ys = 3.0 * np.sin(0.2 * s)
    nseg = n - 1
    for _ in range(100):
        px = float(rng.uniform(0, 60))
        py = float(rng.uniform(-5, 5))
        g = kernels.nearest_on_polyline(xs, ys, px, py, 0, nseg, nseg, n, False)
        # window of 40 segments centered at the global best still finds it
        start = max(0, g[0] - 20)
        w = kernels.nearest_on_polyline(xs, ys, px, py, start, 40, nseg, n, False)
        assert w[0] == g[0]
        assert w[2] == pytest.approx(g[2], rel=1e-12)


def test_python_fallback_matches_active_path():
    if not kernels.USING_NUMBA:
        pytest.skip("already running the fallback path")
    rng = np.random.default_rng(6)
    for _ in range(50):
        args = (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)),
                float(rng.uniform(-3, 3)), float(rng.uniform(0, 20)),
                float(rng.uniform(-3, 3)), float(rng.uniform(-0.6, 0.6)),
                0.02, 2.5, 1.25)
        assert kernels.kin_step(*args) == pytest.approx(
            kernels.kin_step.py_func(*args), rel=1e-15)
        theta = float(rng.uniform(-40, 40))
        assert kernels.wrap_angle(theta) == pytest.approx(
            kernels.wrap_angle.py_func(theta), rel=1e-15)
