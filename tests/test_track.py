import math

import numpy as np
import pytest

from trackbench.models import VehicleParams, VehicleState
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
    near = t.nearest(3.0, 0.0)
    assert near.distance == 0.0
    assert near.x == pytest.approx(3.0)
    assert near.y == pytest.approx(0.0)


def test_nearest_point_projection_hand_case():
    t = Track(np.array([0.0, 10.0]), np.array([0.0, 0.0]), np.array([5.0, 5.0]))
    near = t.nearest(3.0, 2.0)
    assert near.x == pytest.approx(3.0, rel=1e-12)
    assert near.y == pytest.approx(0.0, abs=1e-12)
    assert near.distance == pytest.approx(2.0, rel=1e-12)


def test_nearest_tie_breaks_to_lower_index():
    # V-shaped track, query equidistant from both arms
    t = Track(np.array([-1.0, 0.0, 1.0]), np.array([1.0, 0.0, 1.0]),
              np.array([1.0, 1.0, 1.0]))
    near = t.nearest(0.0, 1.0)
    assert near.index == 0


def test_nearest_beats_every_raw_waypoint():
    t = racetrack(50.0, 12.0, v_ref=8.0)
    rng = np.random.default_rng(7)
    for _ in range(300):
        px = float(rng.uniform(-30, 80))
        py = float(rng.uniform(-30, 60))
        near = t.nearest(px, py)
        raw = np.hypot(t.xs - px, t.ys - py)
        assert near.distance <= raw.min() + 1e-12


def test_nearest_hint_agrees_with_global(bench_track):
    rng = np.random.default_rng(8)
    hint = None
    px, py = 0.0, 1.0
    for _ in range(200):
        px += float(rng.uniform(0.0, 2.0))
        py = float(rng.uniform(-2.0, 2.0))
        g = bench_track.nearest(px % 100.0, py)
        h = bench_track.nearest(px % 100.0, py, hint=g.index)
        assert h.index == g.index
        assert h.distance == pytest.approx(g.distance, rel=1e-12)


def test_v_ref_interpolates_linearly():
    t = Track(np.array([0.0, 10.0]), np.array([0.0, 0.0]), np.array([4.0, 8.0]))
    near = t.nearest(2.5, 1.0)
    assert near.v_ref == pytest.approx(5.0, rel=1e-12)


def test_lookahead_straight_ahead():
    t = straight_track(50.0, spacing=1.0, v_ref=5.0)
    la = t.lookahead(0.0, 0.0, 0.0, 5.0)
    assert la.alpha == pytest.approx(0.0, abs=1e-12)
    assert math.hypot(la.x - 0.0, la.y - 0.0) == pytest.approx(5.0, abs=1e-9)
    assert not la.fallback and not la.end_of_track


def test_lookahead_left_offset_hand_value():
    # 1 m left of an east-bound line, heading east: target is right of heading
    t = straight_track(50.0, spacing=1.0, v_ref=5.0)
    la = t.lookahead(10.0, 1.0, 0.0, 5.0)
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
        la = t.lookahead(px, py, float(rng.uniform(-math.pi, math.pi)), 6.0)
        if not la.fallback:
            assert math.hypot(la.x - px, la.y - py) == pytest.approx(6.0, abs=1e-9)


def test_lookahead_fallback_when_circle_misses():
    t = straight_track(50.0, spacing=1.0, v_ref=5.0)
    la = t.lookahead(10.0, 8.0, 0.0, 2.0)  # 8 m off a track, 2 m circle
    assert la.fallback


def test_lookahead_end_of_open_track():
    t = straight_track(20.0, spacing=1.0, v_ref=5.0)
    la = t.lookahead(19.5, 0.0, 0.0, 5.0)
    assert la.end_of_track
    assert la.x == pytest.approx(20.0, rel=1e-9)


def test_lookahead_closed_track_never_ends():
    t = circle_track(15.0, v_ref=8.0)
    rng = np.random.default_rng(10)
    for _ in range(200):
        px = float(rng.uniform(-20, 20))
        py = float(rng.uniform(-20, 20))
        la = t.lookahead(px, py, float(rng.uniform(-3, 3)), 5.0)
        assert not la.end_of_track


def test_tracking_errors_on_path():
    t = straight_track(50.0, spacing=1.0, v_ref=5.0)
    e = t.tracking_errors(VehicleState(10.0, 0.0, 0.0, 5.0), "cog", VehicleParams())
    assert (e.cross_track, e.heading, e.speed) == (0.0, 0.0, 0.0)


def test_cross_track_positive_when_path_is_left():
    # vehicle 2 m right of an east-bound track, heading east
    t = straight_track(50.0, spacing=1.0, v_ref=5.0)
    e = t.tracking_errors(VehicleState(10.0, -2.0, 0.0, 5.0), "cog", VehicleParams())
    assert e.cross_track == pytest.approx(2.0, rel=1e-12)
    assert e.heading == pytest.approx(0.0, abs=1e-12)


def test_heading_error_hand_value():
    # tangent 30 deg, vehicle heading 10 deg -> error 20 deg = 0.349066 rad
    t = Track(np.array([0.0, 10.0 * math.cos(math.radians(30.0))]),
              np.array([0.0, 10.0 * math.sin(math.radians(30.0))]),
              np.array([5.0, 5.0]))
    e = t.tracking_errors(
        VehicleState(0.0, 0.0, math.radians(10.0), 5.0), "cog", VehicleParams())
    assert e.heading == pytest.approx(math.radians(20.0), rel=1e-9)
    assert e.heading == pytest.approx(0.349066, abs=5e-7)


def test_reflection_flips_cross_track_sign():
    t = straight_track(60.0, spacing=1.0, v_ref=5.0)
    p = VehicleParams()
    rng = np.random.default_rng(11)
    for _ in range(300):
        x = float(rng.uniform(2.0, 58.0))
        y = float(rng.uniform(0.01, 4.0))
        a = t.tracking_errors(VehicleState(x, y, 0.0, 5.0), "cog", p)
        b = t.tracking_errors(VehicleState(x, -y, 0.0, 5.0), "cog", p)
        assert a.cross_track == pytest.approx(-b.cross_track, rel=1e-12)
        assert abs(a.cross_track) == pytest.approx(y, rel=1e-12)


def test_tracking_error_frames_shift_reference_point():
    # mid-straight on the racetrack: front axle projects ahead of the rear
    t = racetrack(100.0, 20.0, v_ref=8.0)
    p = VehicleParams()
    s = VehicleState(50.0, 0.0, 0.0, 8.0)
    cog = t.tracking_errors(s, "cog", p)
    front = t.tracking_errors(s, "front_axle", p)
    rear = t.tracking_errors(s, "rear_axle", p)
    assert front.s == pytest.approx(cog.s + p.dist_front, abs=1e-6)
    assert rear.s == pytest.approx(cog.s - p.dist_rear, abs=1e-6)


def test_speed_error_is_v_ref_minus_v():
    t = straight_track(50.0, spacing=1.0, v_ref=9.0)
    e = t.tracking_errors(VehicleState(5.0, 0.0, 0.0, 6.5), "cog", VehicleParams())
    assert e.speed == pytest.approx(2.5, rel=1e-12)


def test_csv_round_trip(tmp_path):
    t = racetrack(30.0, 8.0, v_ref=7.0)
    path = tmp_path / "track.csv"
    t.to_csv(path)
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


def test_lookahead_from_measured_foot_point_matches_fresh_query(bench_track, params):
    rng = np.random.default_rng(5)
    for _ in range(200):
        s = float(rng.uniform(0.0, bench_track.length))
        px, py = bench_track.point_at_s(s)
        px += float(rng.normal(0.0, 0.5))
        py += float(rng.normal(0.0, 0.5))
        heading = float(rng.uniform(-math.pi, math.pi))
        foot = bench_track.tracking_errors(VehicleState(px, py, heading, 8.0), "cog", params)
        assert (bench_track.lookahead(px, py, heading, 6.0, foot)
                == bench_track.lookahead(px, py, heading, 6.0))


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
        near = t.nearest(x, y)
        assert near.distance == pytest.approx(0.0, abs=1e-9)
        assert near.s == pytest.approx(s, abs=1e-6)
