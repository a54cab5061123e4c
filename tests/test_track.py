import copy
import math
import pickle

import numpy as np
import pytest

from trackbench import kernels
from trackbench.models import VehicleParams
from trackbench.track import (
    Track,
    circle_track,
    racetrack,
    straight_track,
)


def test_track_requires_two_points():
    with pytest.raises(ValueError):
        Track(np.array([0.0]), np.array([0.0]), np.array([1.0]))


def test_track_rejects_coincident_points():
    with pytest.raises(ValueError):
        Track(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 0.0]),
              np.array([1.0, 1.0, 1.0]))


def test_track_rejects_negative_v_ref():
    with pytest.raises(ValueError):
        Track(np.array([0.0, 1.0]), np.array([0.0, 0.0]), np.array([1.0, -1.0]))


def test_nearest_on_waypoint_is_exact():
    t = straight_track(10.0, spacing=1.0, v_ref=5.0)
    seg, frac, distance = t.nearest(3.0, 0.0)
    x, y = t.point_on_segment(seg, frac)
    assert distance == 0.0
    assert x == pytest.approx(3.0)
    assert y == pytest.approx(0.0)


def test_nearest_point_projection_hand_case():
    t = Track(np.array([0.0, 10.0]), np.array([0.0, 0.0]), np.array([5.0, 5.0]))
    seg, frac, distance = t.nearest(3.0, 2.0)
    x, y = t.point_on_segment(seg, frac)
    assert x == pytest.approx(3.0, rel=1e-12)
    assert y == pytest.approx(0.0, abs=1e-12)
    assert distance == pytest.approx(2.0, rel=1e-12)


def test_nearest_tie_breaks_to_lower_index():
    # V-shaped track, query equidistant from both arms
    t = Track(np.array([-1.0, 0.0, 1.0]), np.array([1.0, 0.0, 1.0]),
              np.array([1.0, 1.0, 1.0]))
    seg, _, _ = t.nearest(0.0, 1.0)
    assert seg == 0


def test_nearest_seam_tie_keeps_window_order_when_hinted(bench_track):
    # a point the last segment's end and segment 0's start are exactly as
    # far from: the hinted window 317..404 scans segment 325 before segment
    # 0 and keeps it, with the loop and with the numpy window; the unhinted
    # scan keeps the lowest index
    assert bench_track.nseg == 326
    px, py = -0.01729823382193707, -0.8407836562642719
    dist = 0.84096158386366
    assert bench_track.nearest(px, py, 325) == (325, 1.0, dist)
    assert bench_track.nearest(px, py, 325, numpy_window=True) == (325, 1.0, dist)
    assert bench_track.nearest(px, py) == (0, 0.0, dist)


def test_nearest_beats_every_raw_waypoint():
    t = racetrack(50.0, 12.0, v_ref=8.0)
    rng = np.random.default_rng(7)
    for _ in range(300):
        px = float(rng.uniform(-30, 80))
        py = float(rng.uniform(-30, 60))
        _, _, distance = t.nearest(px, py)
        raw = np.hypot(t.xs - px, t.ys - py)
        assert distance <= raw.min() + 1e-12


def test_nearest_hint_agrees_with_global(bench_track):
    rng = np.random.default_rng(8)
    hint = None
    px, py = 0.0, 1.0
    for _ in range(200):
        px += float(rng.uniform(0.0, 2.0))
        py = float(rng.uniform(-2.0, 2.0))
        g = bench_track.nearest(px % 100.0, py)
        h = bench_track.nearest(px % 100.0, py, hint=g[0])
        assert h[0] == g[0]
        assert h[2] == pytest.approx(g[2], rel=1e-12)


def test_v_ref_interpolates_linearly():
    t = Track(np.array([0.0, 10.0]), np.array([0.0, 0.0]), np.array([4.0, 8.0]))
    seg, frac, _ = t.nearest(2.5, 1.0)
    assert t.v_ref_on_segment(seg, frac) == pytest.approx(5.0, rel=1e-12)


def _lookahead(track, px, py, heading, d_l):
    """Lookahead from the foot point measured at (px, py)."""
    foot = track.tracking_errors((px, py, heading, 0.0), "cog", VehicleParams())
    return track.lookahead(px, py, heading, d_l, foot)


def test_lookahead_straight_ahead():
    t = straight_track(50.0, spacing=1.0, v_ref=5.0)
    la = _lookahead(t, 0.0, 0.0, 0.0, 5.0)
    assert la.alpha == pytest.approx(0.0, abs=1e-12)
    assert math.hypot(la.x - 0.0, la.y - 0.0) == pytest.approx(5.0, abs=1e-9)
    assert not la.fallback and not la.end_of_track


def test_lookahead_left_offset_hand_value():
    # 1 m left of an east-bound line, heading east: target is right of heading
    t = straight_track(50.0, spacing=1.0, v_ref=5.0)
    la = _lookahead(t, 10.0, 1.0, 0.0, 5.0)
    assert la.alpha == pytest.approx(-math.asin(0.2), rel=1e-9)
    assert la.alpha == pytest.approx(-0.201358, abs=5e-7)


def test_lookahead_point_lies_on_circle():
    t = racetrack(40.0, 10.0, v_ref=8.0)
    rng = np.random.default_rng(9)
    for _ in range(200):
        near_s = float(rng.uniform(0.0, t.length))
        px, py = t.point_at_s(near_s)
        px += float(rng.uniform(-1.0, 1.0))
        py += float(rng.uniform(-1.0, 1.0))
        la = _lookahead(t, px, py, float(rng.uniform(-math.pi, math.pi)), 6.0)
        if not la.fallback:
            assert math.hypot(la.x - px, la.y - py) == pytest.approx(6.0, abs=1e-9)


def test_lookahead_fallback_when_circle_misses():
    t = straight_track(50.0, spacing=1.0, v_ref=5.0)
    la = _lookahead(t, 10.0, 8.0, 0.0, 2.0)  # 8 m off a track, 2 m circle
    assert la.fallback


def test_lookahead_end_of_open_track():
    t = straight_track(20.0, spacing=1.0, v_ref=5.0)
    la = _lookahead(t, 19.5, 0.0, 0.0, 5.0)
    assert la.end_of_track
    assert la.x == pytest.approx(20.0, rel=1e-9)


def test_lookahead_closed_track_never_ends():
    t = circle_track(15.0, v_ref=8.0)
    rng = np.random.default_rng(10)
    for _ in range(200):
        px = float(rng.uniform(-20, 20))
        py = float(rng.uniform(-20, 20))
        la = _lookahead(t, px, py, float(rng.uniform(-3, 3)), 5.0)
        assert not la.end_of_track


def test_tracking_errors_on_path():
    t = straight_track(50.0, spacing=1.0, v_ref=5.0)
    e = t.tracking_errors((10.0, 0.0, 0.0, 5.0), "cog", VehicleParams())
    assert (e.cross_track, e.heading, e.speed) == (0.0, 0.0, 0.0)


def test_cross_track_positive_when_path_is_left():
    # vehicle 2 m right of an east-bound track, heading east
    t = straight_track(50.0, spacing=1.0, v_ref=5.0)
    e = t.tracking_errors((10.0, -2.0, 0.0, 5.0), "cog", VehicleParams())
    assert e.cross_track == pytest.approx(2.0, rel=1e-12)
    assert e.heading == pytest.approx(0.0, abs=1e-12)


def test_heading_error_hand_value():
    # tangent 30 deg, vehicle heading 10 deg -> error 20 deg = 0.349066 rad
    t = Track(np.array([0.0, 10.0 * math.cos(math.radians(30.0))]),
              np.array([0.0, 10.0 * math.sin(math.radians(30.0))]),
              np.array([5.0, 5.0]))
    e = t.tracking_errors(
        (0.0, 0.0, math.radians(10.0), 5.0), "cog", VehicleParams())
    assert e.heading == pytest.approx(math.radians(20.0), rel=1e-9)
    assert e.heading == pytest.approx(0.349066, abs=5e-7)


def test_reflection_flips_cross_track_sign():
    t = straight_track(60.0, spacing=1.0, v_ref=5.0)
    p = VehicleParams()
    rng = np.random.default_rng(11)
    for _ in range(300):
        x = float(rng.uniform(2.0, 58.0))
        y = float(rng.uniform(0.01, 4.0))
        a = t.tracking_errors((x, y, 0.0, 5.0), "cog", p)
        b = t.tracking_errors((x, -y, 0.0, 5.0), "cog", p)
        assert a.cross_track == pytest.approx(-b.cross_track, rel=1e-12)
        assert abs(a.cross_track) == pytest.approx(y, rel=1e-12)


def test_tracking_error_frames_shift_reference_point():
    # mid-straight on the racetrack: front axle projects ahead of the rear
    t = racetrack(100.0, 20.0, v_ref=8.0)
    p = VehicleParams()
    s = (50.0, 0.0, 0.0, 8.0)
    cog = t.tracking_errors(s, "cog", p)
    front = t.tracking_errors(s, "front_axle", p)
    rear = t.tracking_errors(s, "rear_axle", p)
    assert front.s == pytest.approx(cog.s + p.dist_front, abs=1e-6)
    assert rear.s == pytest.approx(cog.s - p.dist_rear, abs=1e-6)


def test_speed_error_is_v_ref_minus_v():
    t = straight_track(50.0, spacing=1.0, v_ref=9.0)
    e = t.tracking_errors((5.0, 0.0, 0.0, 6.5), "cog", VehicleParams())
    assert e.speed == pytest.approx(2.5, rel=1e-12)


def write_track_csv(track: Track, path) -> None:
    """A track's waypoints as `x,y,v_ref` rows."""
    with open(path, "w", newline="") as fh:
        fh.write("x,y,v_ref\n")
        for x, y, v in zip(track.xs, track.ys, track.v_ref):
            fh.write(f"{x:.12g},{y:.12g},{v:.12g}\n")


def test_csv_round_trip(tmp_path):
    t = racetrack(30.0, 8.0, v_ref=7.0)
    path = tmp_path / "track.csv"
    write_track_csv(t, path)
    header = path.read_text().splitlines()[0]
    assert header == "x,y,v_ref"
    back = Track.from_csv(path, closed=True)
    assert back.npts == t.npts
    assert np.allclose(back.xs, t.xs)
    assert np.allclose(back.ys, t.ys)
    assert np.allclose(back.v_ref, t.v_ref)
    assert back.closed


def test_from_csv_reads_xy_files(tmp_path):
    path = tmp_path / "xy.csv"
    path.write_text("x,y\n0,0\n3,4\n6,8\n")
    t = Track.from_csv(path)
    assert t.length == pytest.approx(10.0)
    assert np.all(t.v_ref == 8.0)
    assert np.all(Track.from_csv(path, v_ref=5.0).v_ref == 5.0)


def test_from_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n0,0,1\n1,0,1\n")
    with pytest.raises(ValueError):
        Track.from_csv(path)


def test_from_csv_names_file_and_line_of_short_row(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("x,y,v_ref\n0,0\n10,0,5\n")
    with pytest.raises(ValueError, match=r"short\.csv line 2: expected 3 columns, got 2"):
        Track.from_csv(path)


def test_straight_track_geometry():
    t = straight_track(200.0, spacing=1.0, v_ref=8.0)
    assert not t.closed
    assert t.length == pytest.approx(200.0, rel=1e-9)
    assert np.all(t.ys == 0.0)


def test_circle_track_geometry():
    t = circle_track(30.0, v_ref=8.0)
    assert t.closed
    r = np.hypot(t.xs, t.ys - 30.0) if abs(t.ys[0]) < 1e-9 and abs(t.xs[0]) > 1.0 \
        else np.hypot(t.xs - t.xs.mean(), t.ys - t.ys.mean())
    assert np.allclose(r, 30.0, rtol=1e-6, atol=1e-6)
    assert t.length == pytest.approx(2 * math.pi * 30.0, rel=0.01)


def test_racetrack_geometry(bench_track):
    t = bench_track
    assert t.closed
    # two 100 m straights + two R=20 arcs
    assert t.length == pytest.approx(200.0 + 2 * math.pi * 20.0, rel=0.01)
    assert t.ys.min() == pytest.approx(0.0, abs=1e-9)
    assert t.ys.max() == pytest.approx(40.0, rel=0.01)


def test_curvature_signs_on_racetrack(bench_track):
    t = bench_track
    # counter-clockwise arcs curve left: positive curvature against zero straights
    mid_straight = t.curvature_at_s(50.0)
    mid_arc = t.curvature_at_s(100.0 + math.pi * 20.0 / 2.0)
    assert abs(mid_straight) < 1e-6
    assert mid_arc == pytest.approx(1.0 / 20.0, rel=0.1)


def test_arc_length_lookup_round_trip(bench_track):
    t = bench_track
    rng = np.random.default_rng(12)
    for _ in range(100):
        s = float(rng.uniform(0.0, t.length))
        seg, frac = t.locate_s(s)
        assert t.arc_length_at(seg, frac) == pytest.approx(s, abs=1e-9)
        x, y = t.point_at_s(s)
        seg, frac, distance = t.nearest(x, y)
        assert distance == pytest.approx(0.0, abs=1e-9)
        assert t.arc_length_at(seg, frac) == pytest.approx(s, abs=1e-6)


def test_track_copies_and_freezes_its_arrays():
    xs = np.array([0.0, 1.0, 2.0, 4.0])
    ys = np.array([0.0, 0.5, 0.0, 1.0])
    vr = np.array([5.0, 6.0, 7.0, 8.0])
    for closed in (False, True):
        t = Track(xs, ys, vr, closed=closed)
        held = list(vars(t).values())
        held += [a for v in held if isinstance(v, tuple) for a in v]
        arrays = [a for a in held if isinstance(a, np.ndarray)]
        views = [m for m in held if isinstance(m, memoryview)]
        assert len(arrays) >= 7 + 2 * 5 and views
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 3.0
        for view in views:
            with pytest.raises(TypeError, match="read-only"):
                view[0] = 3.0
        for mine, theirs in ((t.xs, xs), (t.ys, ys), (t.v_ref, vr)):
            assert not np.shares_memory(mine, theirs)
    # the caller's arrays stay writable, and writing them changes no track
    length = t.length
    xs[0] = -10.0
    vr[0] = 0.0
    assert t.xs[0] == 0.0 and t.v_ref[0] == 5.0 and t.length == length


def test_track_pickles_and_copies(bench_track):
    for twin in (pickle.loads(pickle.dumps(bench_track)), copy.deepcopy(bench_track)):
        assert twin.closed and twin.length == bench_track.length
        assert twin.nearest(50.0, 1.0, 40) == bench_track.nearest(50.0, 1.0, 40)


def _locate_s_searchsorted(track, s):
    """locate_s as it was on the arrays, with np.searchsorted: the
    reference for the bisect form on the cum_s list."""
    if track.closed:
        s = s % track.length
    else:
        s = min(max(s, 0.0), track.length)
    seg = int(np.searchsorted(track.cum_s, s, side="right")) - 1
    seg = min(max(seg, 0), track.nseg - 1)
    t = (s - track.cum_s[seg]) / track.seg_len[seg]
    return seg, float(min(max(t, 0.0), 1.0))


def _lookahead_per_call_geometry(track, px, py, heading, d_l, start, t_lo):
    """Track.lookahead's search as it was before the segment table, on the
    waypoint arrays: the reference for the table reads."""
    def alpha(tx, ty):
        return kernels.wrap_angle(math.atan2(ty - py, tx - px) - heading)

    xs, ys, nseg, npts = track.xs, track.ys, track.nseg, track.npts
    seg = start
    for _ in range(nseg):
        j = (seg + 1) % npts
        ax = float(xs[seg] + 0.0 * (xs[j] - xs[seg]))
        ay = float(ys[seg] + 0.0 * (ys[j] - ys[seg]))
        dx = float(xs[j]) - ax
        dy = float(ys[j]) - ay
        a = dx * dx + dy * dy
        fx = ax - px
        fy = ay - py
        b = 2.0 * (fx * dx + fy * dy)
        c = fx * fx + fy * fy - d_l * d_l
        disc = b * b - 4.0 * a * c
        if disc >= 0.0:
            root = math.sqrt(disc)
            for tt in ((-b - root) / (2.0 * a), (-b + root) / (2.0 * a)):
                if t_lo <= tt <= 1.0:
                    tx = ax + tt * dx
                    ty = ay + tt * dy
                    return tx, ty, alpha(tx, ty), False, False
        seg += 1
        if track.closed:
            seg %= nseg
        elif seg >= nseg:
            break
        t_lo = 0.0
    for k in range(npts):
        idx = (start + 1 + k) % npts if track.closed else start + 1 + k
        if idx >= npts:
            break
        wx = float(xs[idx])
        wy = float(ys[idx])
        if math.hypot(wx - px, wy - py) > d_l:
            return wx, wy, alpha(wx, wy), True, False
    tx = float(xs[-1])
    ty = float(ys[-1])
    return tx, ty, alpha(tx, ty), track.closed, not track.closed


def _hex(values):
    return [float(v).hex() if isinstance(v, float) else v for v in values]


_BENDY = racetrack(50.0, 12.0)
_TRACKS = [
    straight_track(200.0),
    circle_track(30.0),
    racetrack(100.0, 20.0),
    _BENDY,
    Track(_BENDY.xs, _BENDY.ys, _BENDY.v_ref, closed=False),
]
_TRACK_IDS = ["straight", "circle", "racetrack", "bendy", "bendy_open"]


@pytest.mark.parametrize("track", _TRACKS, ids=_TRACK_IDS)
def test_locate_s_is_the_searchsorted_form(track):
    rng = np.random.default_rng(10)
    queries = track.cum_s.tolist() + [0.0, track.length, -1e-9, -3.0, -2.5 * track.length,
                                      track.length + 1.0, math.nan, np.float64(17.3)]
    queries += rng.uniform(-track.length, 2.0 * track.length, 300).tolist()
    for s in queries:
        got = track.locate_s(s)
        assert got[0] == _locate_s_searchsorted(track, s)[0], s
        assert _hex(got) == _hex(_locate_s_searchsorted(track, s)), s


@pytest.mark.parametrize("track", _TRACKS, ids=_TRACK_IDS)
def test_queries_are_the_per_call_geometry_queries(track, params):
    # hinted nearest (hints anywhere, so windows cross the seam and the
    # ends), tracking errors and lookahead against the scans that rebuilt
    # the geometry on every call
    from test_kernels import _nearest_numpy_per_call_geometry, _nearest_per_call_geometry

    from trackbench.track import _HINT_BACK, _HINT_FORWARD, _HINT_TRUST_DIST

    def nearest(px, py, hint):
        start = (hint - _HINT_BACK) % track.nseg if track.closed else max(hint - _HINT_BACK, 0)
        count = min(_HINT_BACK + _HINT_FORWARD, track.nseg)
        found = _nearest_per_call_geometry(track.xs, track.ys, px, py, start, count,
                                           track.nseg, track.npts, track.closed)
        if found[2] <= _HINT_TRUST_DIST:
            return found
        return _nearest_numpy_per_call_geometry(track.xs, track.ys, px, py, track.nseg, track.npts)

    rng = np.random.default_rng(11)
    for _ in range(300):
        s = float(rng.uniform(0.0, track.length))
        px, py = track.point_at_s(s)
        px += float(rng.normal(0.0, 2.0))
        py += float(rng.normal(0.0, 2.0))
        heading = float(rng.uniform(-math.pi, math.pi))
        hint = int(rng.integers(track.nseg))
        assert _hex(track.nearest(px, py, hint)) == _hex(nearest(px, py, hint))
        foot = track.tracking_errors((px, py, heading, 8.0), "rear_axle", params, hint)
        assert foot.heading == kernels.wrap_angle(float(track.seg_tangent[foot.nearest_index])
                                                  - heading)
        d_l = float(rng.uniform(0.5, 30.0))
        rx = px - params.dist_rear * math.cos(heading)
        ry = py - params.dist_rear * math.sin(heading)
        la = track.lookahead(rx, ry, heading, d_l, foot)
        want = _lookahead_per_call_geometry(track, rx, ry, heading, d_l, foot.nearest_index, foot.t)
        assert _hex([la.x, la.y, la.alpha, la.fallback, la.end_of_track]) == _hex(want)


def _curvature_loop(track):
    """Track._waypoint_curvature as a loop over the waypoints: the reference
    for its array form."""
    kappa = np.zeros(track.npts)
    for i in range(track.npts):
        if track.closed:
            prev_seg = (i - 1) % track.nseg
            next_seg = i % track.nseg
        else:
            if i == 0 or i >= track.nseg:
                continue
            prev_seg = i - 1
            next_seg = i
        dth = kernels.wrap_angle(track.seg_tangent[next_seg] - track.seg_tangent[prev_seg])
        ds = 0.5 * (track.seg_len[prev_seg] + track.seg_len[next_seg])
        kappa[i] = dth / ds
    return kappa


def _polylines():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        xs = np.cumsum(rng.uniform(0.1, 5.0, n) * rng.choice([-1.0, 1.0], n))
        ys = np.cumsum(rng.normal(0.0, 3.0, n))
        closed = bool(rng.integers(2)) and n >= 3
        yield Track(xs, ys, np.full(n, 8.0), closed=closed)


def test_curvature_is_the_waypoint_loop():
    reference = [build(v_ref=v) for build in (straight_track, circle_track, racetrack)
                 for v in (5.0, 8.0, 12.0)]
    for track in [*reference, *_TRACKS, *_polylines()]:
        want = _curvature_loop(track)
        assert np.array_equal(track._curvature.view(np.int64), want.view(np.int64))
