"""The benchmark's oracles against hand-made cases and the paper's values.

Run with: python3 -m pytest perfbench/tests
"""

import math
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracles  # noqa: E402

L, LR = 2.5, 1.25


def test_wrap():
    assert oracles.wrap(3.2) == pytest.approx(3.2 - 2.0 * math.pi, abs=1e-12)
    assert oracles.wrap(math.pi) == pytest.approx(math.pi)
    assert oracles.wrap(-math.pi) == pytest.approx(math.pi)
    assert oracles.wrap(-7.0) == pytest.approx(-7.0 + 2.0 * math.pi)


@pytest.mark.parametrize("point, dist, arc", [
    ((5.0, 2.0), 2.0, 5.0),     # above the first segment
    ((12.0, 5.0), 2.0, 15.0),   # beside the second
    ((-3.0, 4.0), 5.0, 0.0),    # before the start: the first vertex
    ((10.0, 13.0), 3.0, 20.0),  # past the end: the last vertex
    ((10.0, 0.0), 0.0, 10.0),   # on the corner
])
def test_projection_open(point, dist, arc):
    d, s = oracles.project_polyline([0.0, 10.0, 10.0], [0.0, 0.0, 10.0], False, *point)
    assert d[0] == pytest.approx(dist)
    assert s[0] == pytest.approx(arc)


def test_projection_closed_uses_closing_segment_and_lowest_index_on_ties():
    xs, ys = [0.0, 10.0, 10.0, 0.0], [0.0, 0.0, 10.0, 10.0]
    d, s = oracles.project_polyline(xs, ys, True, [-1.0, 5.0], [5.0, 5.0])
    assert d == pytest.approx([1.0, 5.0])
    # the closing segment (0,10)->(0,0) starts at arc 30; the centre is 5 m
    # from all four sides and takes the first
    assert s == pytest.approx([35.0, 5.0])


def test_projection_many_points_in_chunks():
    px = np.linspace(-5.0, 25.0, 1001)
    d, s = oracles.project_polyline([0.0, 20.0], [0.0, 0.0], False, px, np.full_like(px, 1.0),
                                    chunk=7)
    assert d == pytest.approx(np.hypot(px - np.clip(px, 0.0, 20.0), 1.0))
    assert s == pytest.approx(np.clip(px, 0.0, 20.0))


def test_kinematic_euler_paper_values():
    delta = 0.349066  # 20 degrees at printed precision
    dt = 0.01
    x, y, theta, v = oracles.kinematic_euler(0.0, 0.0, 0.0, 10.0, 0.0, delta, dt, L, LR)
    # turn rate v tan(delta) cos(beta) / L = 1.4323559898379976 rad/s
    assert theta == pytest.approx(1.4323559898379976 * dt, abs=1e-12)
    # the velocity points along the slip angle beta = 0.180015 rad
    assert math.atan2(y, x) == pytest.approx(0.180015, abs=1e-6)
    assert math.hypot(x, y) == pytest.approx(10.0 * dt)
    assert v == 10.0


def test_kinematic_euler_straight_and_wrap():
    assert oracles.kinematic_euler(1.0, 2.0, 0.0, 4.0, 2.0, 0.0, 0.5, L, LR) == \
        pytest.approx((3.0, 2.0, 0.0, 5.0))
    _, _, theta, _ = oracles.kinematic_euler(0.0, 0.0, math.pi - 1e-3, 10.0, 0.0, 0.3, 0.1,
                                             L, LR)
    assert -math.pi < theta < 0.0


def _rows(e_ct=(0.0, 0.0, 0.0), steer=None):
    rows = np.zeros((len(e_ct), 10))
    rows[:, 7] = e_ct
    if steer is not None:
        rows[:, 6] = steer
    return rows


def test_metrics_paper_steer_rate():
    m = oracles.run_metrics(_rows(steer=(0.0, 0.1, 0.1)), 0.1, "max_steps",
                            np.zeros(3), 10.0, False)
    assert m["mean_abs_steer_rate"] == pytest.approx(0.5, abs=1e-12)


def test_metrics_errors_completion_and_lap_time():
    m = oracles.run_metrics(_rows(e_ct=(3.0, -4.0)), 0.1, "off_track",
                            np.array([10.0, 30.0]), 110.0, False)
    assert m["rms_cross_track"] == pytest.approx(math.sqrt(12.5))
    assert m["max_cross_track"] == 4.0
    assert m["completion"] == pytest.approx(0.2)  # 20 m of the 100 m ahead
    assert math.isnan(m["lap_time"])
    # a closed track counts progress across the seam
    m = oracles.run_metrics(_rows(e_ct=(0.0, 0.0)), 0.1, "off_track",
                            np.array([90.0, 5.0]), 100.0, True)
    assert m["completion"] == pytest.approx(0.15)
    m = oracles.run_metrics(_rows(), 0.02, "completed", np.zeros(3), 100.0, True)
    assert (m["completion"], m["lap_time"]) == (1.0, pytest.approx(0.06))


W0 = {"pos": 0.0, "head": 0.0, "vel": 0.0, "d_accel": 0.0, "d_steer": 0.0}
B0 = {"accel_rate": 0.0, "steer_rate": 0.0, "v_max": 0.0, "soft_penalty": 10.0}


def _cost(seq, refs, weights=(), bounds=(), prev=(0.0, 0.0), v=1.0):
    return oracles.horizon_cost((0.0, 0.0, 0.0, v), np.array(seq, dtype=float), prev,
                                np.array(refs, dtype=float), 1.0, L, LR,
                                {**W0, **dict(weights)}, {**B0, **dict(bounds)})


def test_horizon_cost_terms():
    ref = [[0.0, 0.0, 0.0, 3.0]]
    # one 1 s step at 1 m/s ends 1 m from the reference point
    assert _cost([[0.0, 0.0]], ref, {"pos": 1.0}) == pytest.approx(1.0)
    assert _cost([[0.0, 0.0]], ref, {"vel": 1.0}) == pytest.approx(4.0)
    # accelerating 2 m/s^2 reaches the 3 m/s reference and pays the change
    assert _cost([[2.0, 0.0]], ref, {"vel": 1.0, "d_accel": 1.0}) == pytest.approx(4.0)
    assert _cost([[0.0, 0.1]], ref, {"d_steer": 2.0}, prev=(0.0, -0.1)) == \
        pytest.approx(2.0 * 0.04)
    # soft bounds: rate above accel_rate*ts, speed above v_max
    assert _cost([[2.0, 0.0]], ref, bounds={"accel_rate": 1.0}) == pytest.approx(10.0)
    assert _cost([[2.0, 0.0]], ref, bounds={"v_max": 2.5}) == pytest.approx(10.0 * 0.25)


def test_horizon_cost_holds_last_control_and_wraps_heading():
    refs = [[0.0, 0.0, 0.0, 0.0]] * 3
    # held for three stages, the accel change is paid once
    assert _cost([[1.0, 0.0]], refs, {"d_accel": 1.0}) == pytest.approx(1.0)
    # a reference heading of 2*pi is the same as 0
    refs = [[0.0, 0.0, 2.0 * math.pi, 0.0]]
    assert _cost([[0.0, 0.0]], refs, {"head": 1.0}) == pytest.approx(0.0, abs=1e-20)


def _write_policy(path, layers):
    with open(path, "wb") as fh:
        fh.write(b"AVCB1" + struct.pack("<I", len(layers)))
        for w, _, tag in layers:
            fh.write(struct.pack("<IIB", w.shape[1], w.shape[0], tag))
        for w, b, _ in layers:
            fh.write(w.astype("<f8").tobytes() + b.astype("<f8").tobytes())


def test_mlp_forward_paper_value(tmp_path):
    path = tmp_path / "net.bin"
    _write_policy(path, [(np.array([[1.0, 2.0]]), np.array([0.5]), 0)])
    layers = oracles.read_policy_file(path)
    assert oracles.mlp_forward(layers, [1.0, 1.0])[0, 0] == 3.5


def test_mlp_forward_layers_and_activations(tmp_path):
    path = tmp_path / "net.bin"
    w1 = np.array([[1.0, -1.0], [0.5, 0.5], [-2.0, 0.0]])
    w2 = np.array([[1.0, 1.0, 1.0]])
    _write_policy(path, [(w1, np.array([0.0, 0.0, 1.0]), 1), (w2, np.array([0.0]), 2)])
    out = oracles.mlp_forward(oracles.read_policy_file(path), [[2.0, 1.0], [0.0, 0.0]])
    # relu([1, 1.5, -3]) sums to 2.5; relu([0, 0, 1]) sums to 1
    assert out[:, 0] == pytest.approx(np.tanh([2.5, 1.0]))


def test_policy_file_rejects_bad_magic_and_trailing_bytes(tmp_path):
    path = tmp_path / "net.bin"
    _write_policy(path, [(np.array([[1.0]]), np.array([0.0]), 0)])
    with open(path, "ab") as fh:
        fh.write(b"\0")
    with pytest.raises(ValueError, match="trailing"):
        oracles.read_policy_file(path)
    path.write_bytes(b"NOPE!" + bytes(8))
    with pytest.raises(ValueError, match="AVCB1"):
        oracles.read_policy_file(path)
