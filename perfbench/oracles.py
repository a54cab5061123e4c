"""Independent oracles for the benchmark's output checks.

Each function restates one quantity from its definition (the kinematic
bicycle model, the polyline projection, the run metrics, the
receding-horizon cost and the policy network's forward pass) without
calling trackbench, so that a check compares the program against a second
computation and never against a stored copy of its own output.
"""

from __future__ import annotations

import math
import struct

import numpy as np

# ------------------------------------------------------------- geometry


def wrap(theta):
    """Angle(s) wrapped to (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(theta, dtype=float), 2.0 * np.pi)


def project_polyline(xs, ys, closed, px, py, chunk=256):
    """Brute-force projection of points onto every segment of a polyline.

    Returns (distance, arc length of the foot point) per query point. Every
    segment is tried; the lowest segment index wins an exact tie.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    px = np.atleast_1d(np.asarray(px, dtype=float))
    py = np.atleast_1d(np.asarray(py, dtype=float))
    ax, ay = xs, ys
    bx, by = np.roll(xs, -1), np.roll(ys, -1)
    if not closed:
        ax, ay, bx, by = ax[:-1], ay[:-1], bx[:-1], by[:-1]
    ex, ey = bx - ax, by - ay
    seg_len = np.sqrt(ex * ex + ey * ey)
    cum = np.concatenate(([0.0], np.cumsum(seg_len)))
    dist = np.empty(px.size)
    arc = np.empty(px.size)
    for lo in range(0, px.size, chunk):
        qx = px[lo:lo + chunk, None]
        qy = py[lo:lo + chunk, None]
        t = np.clip(((qx - ax) * ex + (qy - ay) * ey) / (seg_len * seg_len), 0.0, 1.0)
        d = np.hypot(qx - (ax + t * ex), qy - (ay + t * ey))
        best = np.argmin(d, axis=1)
        rows = np.arange(best.size)
        dist[lo:lo + chunk] = d[rows, best]
        arc[lo:lo + chunk] = cum[best] + t[rows, best] * seg_len[best]
    return dist, arc


# ------------------------------------------------------------- vehicle


def kinematic_euler(x, y, theta, v, accel, steer, dt, wheelbase, dist_rear):
    """One explicit Euler step of the kinematic bicycle at the centre of
    gravity (scalars or arrays):

        beta = atan(l_r / L * tan(delta))
        x' = v cos(theta + beta),  y' = v sin(theta + beta)
        theta' = v tan(delta) cos(beta) / L,  v' = a

    The new heading is wrapped to (-pi, pi].
    """
    beta = np.arctan(dist_rear / wheelbase * np.tan(steer))
    return (
        x + dt * v * np.cos(theta + beta),
        y + dt * v * np.sin(theta + beta),
        wrap(theta + dt * v * np.tan(steer) * np.cos(beta) / wheelbase),
        v + dt * accel,
    )


# ------------------------------------------------------------- metrics


def run_metrics(rows, dt, termination, arc, track_length, closed):
    """Run metrics restated from a log (columns t,x,y,theta,v,accel,steer,
    e_ct,e_head,e_v) and the foot-point arc length of every row.

    Completion is the furthest progress along the track over the logged
    rows, as a share of the lap (closed) or of the track left ahead of the
    start (open); a completed run is 1 and its lap time is the step after
    the last logged row.
    """
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[0]
    e_ct, e_head, e_v, steer = rows[:, 7], rows[:, 8], rows[:, 9], rows[:, 6]
    ds = np.diff(arc)
    if closed:
        ds = np.mod(ds + 0.5 * track_length, track_length) - 0.5 * track_length
    reach = max(0.0, float(np.max(np.cumsum(ds)))) if n > 1 else 0.0
    ahead = track_length if closed else track_length - arc[0]
    if termination == "completed":
        completion = 1.0
    else:
        completion = min(reach / ahead, 1.0) if ahead > 1e-9 else 1.0
    return {
        "rms_cross_track": math.sqrt(np.sum(e_ct * e_ct) / n),
        "max_cross_track": float(np.max(np.abs(e_ct))),
        "rms_heading": math.sqrt(np.sum(e_head * e_head) / n),
        "rms_speed_err": math.sqrt(np.sum(e_v * e_v) / n),
        "mean_abs_steer_rate": float(np.sum(np.abs(np.diff(steer))) / (dt * (n - 1)))
        if n > 1 else 0.0,
        "lap_time": n * dt if termination == "completed" else math.nan,
        "completion": completion,
    }


# ------------------------------------------------------------- MPC


def horizon_cost(state, seq, prev_u, refs, ts, wheelbase, dist_rear, weights, bounds):
    """Receding-horizon cost written out from its definition.

    The (m, 2) accel/steer sequence is held at its last row beyond m; each
    of the p stages rolls the kinematic model one step of ts and adds

        w_pos |p - p_ref|^2 + w_head wrap(theta - theta_ref)^2
        + w_vel (v_ref - v)^2 + w_da (a - a_prev)^2 + w_ds (d - d_prev)^2

    plus soft_penalty * excess^2 for a rate above accel_rate*ts or
    steer_rate*ts and a speed above v_max (a bound <= 0 is off).
    weights: dict pos, head, vel, d_accel, d_steer; bounds: dict
    accel_rate, steer_rate, v_max, soft_penalty.
    """
    x, y, theta, v = state
    pa, pd = prev_u
    total = 0.0
    for i in range(len(refs)):
        a, d = seq[min(i, len(seq) - 1)]
        for change, limit in ((a - pa, bounds["accel_rate"]), (d - pd, bounds["steer_rate"])):
            if limit > 0.0:
                total += bounds["soft_penalty"] * max(abs(change) - limit * ts, 0.0) ** 2
        total += weights["d_accel"] * (a - pa) ** 2 + weights["d_steer"] * (d - pd) ** 2
        x, y, theta, v = (float(q) for q in kinematic_euler(
            x, y, theta, v, a, d, ts, wheelbase, dist_rear))
        rx, ry, rth, rv = refs[i]
        total += (weights["pos"] * ((x - rx) ** 2 + (y - ry) ** 2)
                  + weights["head"] * float(wrap(theta - rth)) ** 2
                  + weights["vel"] * (rv - v) ** 2)
        if bounds["v_max"] > 0.0:
            total += bounds["soft_penalty"] * max(v - bounds["v_max"], 0.0) ** 2
        pa, pd = a, d
    return total


# ------------------------------------------------------------- policy net

_ACTIVATIONS = {0: lambda z: z, 1: lambda z: np.maximum(z, 0.0), 2: np.tanh,
                3: lambda z: 1.0 / (1.0 + np.exp(-z))}


def read_policy_file(path):
    """Layers of an AVCB1 policy file as (weight (out, in), bias, activation
    tag): magic, layer count, per layer (in, out, tag), then per layer the
    little-endian float64 weights row-major and the biases."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:5] != b"AVCB1":
        raise ValueError(f"{path}: not an AVCB1 file")
    (n_layers,) = struct.unpack_from("<I", blob, 5)
    dims = [struct.unpack_from("<IIB", blob, 9 + 9 * i) for i in range(n_layers)]
    pos = 9 + 9 * n_layers
    layers = []
    for fan_in, fan_out, tag in dims:
        w = np.frombuffer(blob, "<f8", fan_in * fan_out, pos).reshape(fan_out, fan_in)
        pos += 8 * fan_in * fan_out
        b = np.frombuffer(blob, "<f8", fan_out, pos)
        pos += 8 * fan_out
        layers.append((w, b, tag))
    if pos != len(blob):
        raise ValueError(f"{path}: {len(blob) - pos} trailing bytes")
    return layers


def mlp_forward(layers, x):
    """Rows of x through the layers: a <- act(W a + b) for each layer."""
    a = np.atleast_2d(np.asarray(x, dtype=float))
    for w, b, tag in layers:
        a = _ACTIVATIONS[tag](a @ w.T + b)
    return a
