import math

import numpy as np
import pytest

from trackbench import kernels
from trackbench.models import VehicleParams, slip_angle
from trackbench.track import _HINT_TRUST_DIST, Track, circle_track, racetrack, straight_track


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
        beta = slip_angle(steer, VehicleParams(wheelbase=2.5, dist_rear=1.25))
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
                *kernels.segment_table(xs, ys, closed), px, py, 0, nseg)
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
    seg, t, dist = kernels.nearest_on_polyline(*kernels.segment_table(xs, ys, True), 0.0, 0.0, 0, 4)
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
        g = kernels.nearest_on_polyline(*kernels.segment_table(xs, ys, False), px, py, 0, nseg)
        # window of 40 segments centered at the global best still finds it
        start = max(0, g[0] - 20)
        w = kernels.nearest_on_polyline(*kernels.segment_table(xs, ys, False), px, py,
                                        start, min(start + 40, nseg))
        assert w[0] == g[0]
        assert w[2] == pytest.approx(g[2], rel=1e-12)


_BENDY = racetrack(50.0, 12.0)


@pytest.mark.parametrize("track", [
    straight_track(200.0),
    circle_track(30.0),
    racetrack(100.0, 20.0),
    _BENDY,
    Track(_BENDY.xs, _BENDY.ys, _BENDY.v_ref, closed=False),
], ids=["straight", "circle", "racetrack", "bendy", "bendy_open"])
def test_numpy_scan_is_the_full_kernel_scan(track):
    # the unhinted Track.nearest runs the numpy scan; it must return what a
    # full scalar scan returns, bit for bit.  Every vertex is a query: there
    # adjacent segments tie, and on a closed track vertex 0 ties the last
    # segment with the first.  The hinted query's numpy window must return
    # what the scalar loop returns on the same window: query k is hinted at
    # segment k % nseg, so every segment is a hint and some windows cross a
    # closed track's seam or are cut short at an open track's end.  The
    # last query lies beyond _HINT_TRUST_DIST of the whole track, so both
    # fall back to the global scan.
    rng = np.random.default_rng(8)
    xs, ys, nseg, npts = track.xs, track.ys, track.nseg, track.npts
    table = kernels.segment_table(xs, ys, track.closed)
    queries = list(zip(xs.tolist(), ys.tolist()))
    for _ in range(500):
        i = int(rng.integers(npts))
        queries.append((xs[i] + float(rng.normal(0.0, 3.0)), ys[i] + float(rng.normal(0.0, 3.0))))
    far = (float(xs.max()) + 50.0, float(ys.max()) + 50.0)
    assert track.nearest(*far)[2] > _HINT_TRUST_DIST
    queries.append(far)
    for k, (px, py) in enumerate(queries):
        got = kernels.nearest_on_polyline_numpy(*(c[:nseg] for c in table), px, py)
        want = kernels.nearest_on_polyline(*table, px, py, 0, nseg)
        assert got[0] == want[0], (px, py)
        assert [float(v).hex() for v in got[1:]] == [float(v).hex() for v in want[1:]], (px, py)
        hint = k % nseg
        got = track.nearest(px, py, hint, numpy_window=True)
        assert _bits(*got) == _bits(*track.nearest(px, py, hint)), (px, py, hint)


def _nearest_per_call_geometry(xs, ys, px, py, start, count, nseg, npts, closed):
    """The hinted scan as it was before the segment table: each call works
    out every segment's start, direction and squared length from the
    waypoints, and wraps the window with `% nseg`.  Reference for
    nearest_on_polyline."""
    best_d2 = np.inf
    best_i = -1
    best_t = 0.0
    for k in range(count):
        i = start + k
        if closed:
            i = i % nseg
        elif i >= nseg:
            break
        ax = xs[i]
        ay = ys[i]
        nxt = (i + 1) % npts
        bx = xs[nxt]
        by = ys[nxt]
        dx = bx - ax
        dy = by - ay
        seg2 = dx * dx + dy * dy
        t = ((px - ax) * dx + (py - ay) * dy) / seg2
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        fx = ax + t * dx
        fy = ay + t * dy
        d2 = (px - fx) * (px - fx) + (py - fy) * (py - fy)
        if d2 < best_d2:
            best_d2 = d2
            best_i = i
            best_t = t
    return best_i, best_t, math.sqrt(best_d2)


def _nearest_numpy_per_call_geometry(xs, ys, px, py, nseg, npts):
    """The whole-track numpy scan as it was before the segment table.
    Reference for nearest_on_polyline_numpy."""
    idx = np.arange(nseg)
    ax = xs[idx]
    ay = ys[idx]
    bx = xs[(idx + 1) % npts]
    by = ys[(idx + 1) % npts]
    dx = bx - ax
    dy = by - ay
    seg2 = dx * dx + dy * dy
    t = ((px - ax) * dx + (py - ay) * dy) / seg2
    np.clip(t, 0.0, 1.0, out=t)
    fx = ax + t * dx
    fy = ay + t * dy
    d2 = (px - fx) ** 2 + (py - fy) ** 2
    i = int(np.argmin(d2))
    return i, float(t[i]), float(math.sqrt(d2[i]))


def _bits(seg, t, dist):
    return seg, float(t).hex(), float(dist).hex()


@pytest.mark.parametrize("track", [
    straight_track(200.0),
    circle_track(30.0),
    racetrack(100.0, 20.0),
    _BENDY,
    Track(_BENDY.xs, _BENDY.ys, _BENDY.v_ref, closed=False),
], ids=["straight", "circle", "racetrack", "bendy", "bendy_open"])
def test_table_scans_are_the_per_call_geometry_scans(track):
    # Same segment and the same bits of t and distance as the scans that
    # rebuilt the geometry on every call: the whole-track numpy scan, and
    # 88-segment windows from a random start, from a start whose window
    # crosses a closed track's seam, and from a start near an open
    # track's end (where the window is cut short).  Every vertex is a
    # query, so adjacent segments tie.
    rng = np.random.default_rng(9)
    xs, ys, nseg, npts, closed = track.xs, track.ys, track.nseg, track.npts, track.closed
    table = kernels.segment_table(xs, ys, closed)
    count = min(88, nseg)
    queries = list(zip(xs.tolist(), ys.tolist()))
    for _ in range(200):
        i = int(rng.integers(npts))
        queries.append((float(xs[i] + rng.normal(0.0, 3.0)), float(ys[i] + rng.normal(0.0, 3.0))))
    for px, py in queries:
        got = kernels.nearest_on_polyline_numpy(*(c[:nseg] for c in table), px, py)
        assert _bits(*got) == _bits(*_nearest_numpy_per_call_geometry(xs, ys, px, py, nseg, npts))
        for start in (int(rng.integers(nseg)), nseg - int(rng.integers(1, count + 1))):
            stop = start + count if closed else min(start + count, nseg)
            seg, t, dist = kernels.nearest_on_polyline(*table, px, py, start, stop)
            want = _nearest_per_call_geometry(xs, ys, px, py, start, count, nseg, npts, closed)
            assert _bits(seg % nseg, t, dist) == _bits(*want), (px, py, start)


def test_table_scan_ties_match_per_call_geometry():
    # the centre of a square is equally far from all four sides: each
    # window, seam-crossing ones included, keeps the first side it scans
    xs = np.array([-1.0, 1.0, 1.0, -1.0])
    ys = np.array([-1.0, -1.0, 1.0, 1.0])
    for closed, nseg in ((True, 4), (False, 3)):
        table = kernels.segment_table(xs, ys, closed)
        for start in range(nseg):
            for count in range(1, nseg + 1):
                stop = start + count if closed else min(start + count, nseg)
                seg, t, dist = kernels.nearest_on_polyline(*table, 0.0, 0.0, start, stop)
                want = _nearest_per_call_geometry(xs, ys, 0.0, 0.0, start, count, nseg, 4, closed)
                assert _bits(seg % nseg, t, dist) == _bits(*want)
                assert seg % nseg == start
